//! The cost-based optimizer: dynamic programming over connected join
//! subsets with physical alternatives per group and **interesting-order**
//! tracking.
//!
//! This plays the role of the paper's (Cascades-based) SQL Server optimizer.
//! The memo is the DP table: one group per connected subset of relations
//! and required physical property (unsorted, or sorted by one of the join
//! keys), each holding logical properties (cardinality) and the winning
//! physical expression. Physical alternatives considered:
//!
//! * scans: sequential scan, an index seek on any indexed parameterized
//!   column, or a full *sorted index scan* on an indexed join column
//!   (delivers an interesting order);
//! * joins, for every connected partition of the subset: hash join (either
//!   build side), index nested-loops when one side is a base relation with
//!   an index on its join column, and merge join per crossing edge —
//!   consuming children sorted on the edge's keys, with explicit `Sort`
//!   enforcers planned when no sorted alternative wins;
//! * on top of the full join: hash vs. stream aggregation, then a final
//!   sort for ORDER BY.
//!
//! The returned plan's cost is computed through [`crate::recost`] so that
//! `optimize(q).cost == recost(plan, q)` holds exactly — the invariant that
//! makes the paper's sub-optimality accounting consistent.

use std::borrow::Borrow;
use std::cell::RefCell;

use crate::cost::CostModel;
use crate::plan::{Plan, PlanOp};
use crate::recost::{self, BaseConsts, RecostScratch};
use crate::svector::SVector;
use crate::template::QueryTemplate;

/// Result of one optimizer call.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// The optimal plan.
    pub plan: Plan,
    /// Its estimated cost at the optimized selectivities.
    pub cost: f64,
    /// Number of (subset × property) memo groups with a winner.
    pub groups_explored: usize,
    /// Number of physical alternatives costed during the search.
    pub alternatives_costed: usize,
}

/// Optimize `template` at the selectivities `sv`: prepare, then run once.
/// Callers that optimize one template repeatedly ([`crate::QueryEngine`],
/// [`crate::diagram`]) keep the prepared half.
///
/// # Panics
/// Panics if the template has more than 16 relations or `sv` has the wrong
/// arity.
pub fn optimize(template: &QueryTemplate, model: &CostModel, sv: &SVector) -> OptimizeResult {
    let consts = BaseConsts::new(template);
    PreparedOptimize::new(template, model, &consts).run(template, model, &consts, sv)
}

/// Physical property index: 0 = no required order, `k + 1` = sorted by
/// join-key `k` (an entry of the template's distinct join-column list).
type Prop = u32;

/// One scan alternative of a base relation, its cost folded as far as the
/// sVector allows.
#[derive(Debug)]
enum ScanAlt {
    Seq {
        cost: f64,
    },
    /// `cost = konst + (table_rows · sv[dim]) · per_fetch`
    /// (see [`CostModel::index_seek_consts`]).
    Seek {
        dim: u32,
        table_rows: f64,
        konst: f64,
        per_fetch: f64,
    },
    /// Sorted scan on an indexed join column: offered to the interesting
    /// order `prop` it delivers, then to the unordered group.
    Sorted {
        column: u32,
        prop: Prop,
        cost: f64,
    },
}

/// One connected relation subset: a memo group per property. The three
/// fields are where its members, its inner join-edge selectivities and its
/// splits start in [`PreparedOptimize`]'s flat tables; each range ends where
/// the next subset's starts (the tables close with a sentinel entry).
#[derive(Debug)]
struct Subset {
    rels: u32,
    sels: u32,
    splits: u32,
}

/// One csg–cmp split of a subset: the dense ids of its two sides (`left`
/// holds the subset's lowest relation) and where its crossing edges and
/// index-NLJ alternatives start, ranges closed as [`Subset`]'s are.
#[derive(Debug)]
struct Split {
    left: u32,
    right: u32,
    cross: u32,
    nljs: u32,
}

/// One crossing edge of a split, which is also its merge-join alternative:
/// the orders the edge's two columns ask of the left and right side.
#[derive(Debug)]
struct CrossEdge {
    edge: u32,
    left_prop: Prop,
    right_prop: Prop,
}

/// One index nested-loops alternative of a split whose inner side is a
/// single relation with an index on its column of `seek_edge`.
#[derive(Debug)]
struct NljAlt {
    /// [`CostModel::index_nlj_per_outer`].
    per_outer: f64,
    inner: u32,
    seek_edge: u32,
    /// Whether the outer side is the split's `left`.
    outer_left: bool,
}

/// Everything about the join DP that depends only on the template and the
/// cost model: which subsets are connected, how each splits, which physical
/// alternatives each split and each relation has, and every cost term no
/// selectivity reaches. Built once (the only place connectivity is tested
/// and submasks are walked); [`PreparedOptimize::run`] then prices exactly
/// the alternatives the per-call search priced, in the same order under the
/// same strict `<`, so plans, costs and both counters are bit-identical to
/// it (`optimize_reference` in this file's tests, `tests/optimizer_golden.rs`).
#[derive(Debug)]
pub(crate) struct PreparedOptimize {
    /// Distinct join-key columns `(relation, column)`; index + 1 = [`Prop`].
    keys: Box<[(usize, usize)]>,
    /// Connected subsets under dense ids, in ascending mask order — both
    /// sides of a split precede it, and the full set is last.
    subsets: Box<[Subset]>,
    /// Members of each subset, ascending: the order its cardinality
    /// multiplies base rows in.
    rels: Box<[u8]>,
    /// Selectivities of each subset's inner join edges, in template order:
    /// the cardinality's remaining factors.
    inner_sels: Box<[f64]>,
    /// Splits of each subset in descending order of the left side's mask.
    splits: Box<[Split]>,
    cross: Box<[CrossEdge]>,
    nljs: Box<[NljAlt]>,
    /// Scan alternatives, and where each relation's start (plus a sentinel).
    scans: Box<[ScanAlt]>,
    scan_start: Box<[u32]>,
    /// The aggregate's static group estimate, if the template aggregates.
    agg_groups: Option<f64>,
    order_by: bool,
    /// `OptimizeResult::alternatives_costed`: the search prices the same
    /// alternatives at every sVector.
    alternatives: usize,
}

/// A memo group's winner: its cost and which alternative won. For a
/// single-relation subset `alt` indexes the relation's scan alternatives;
/// otherwise `at` is the winning split and `alt` its alternative in offer
/// order — both hash joins, a merge join per crossing edge, the index
/// nested-loops joins. [`ENFORCE`] is a sort over the unordered winner.
#[derive(Debug, Clone, Copy)]
struct Slot {
    cost: f64,
    at: u32,
    alt: u32,
}

const UNSET: Slot = Slot {
    cost: f64::INFINITY,
    at: 0,
    alt: 0,
};
const HASH_BUILD_LEFT: u32 = 0;
const HASH_BUILD_RIGHT: u32 = 1;
const FIRST_MERGE: u32 = 2;
const ENFORCE: u32 = u32::MAX;

/// A position in one of [`PreparedOptimize`]'s tables. Templates come from
/// outside the program; one whose search space outgrows `u32` has long
/// outgrown memory, but it must not wrap silently.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("search space fits u32 offsets")
}

/// Offer an alternative to a group: the first one offered wins ties.
#[inline]
fn offer(slot: &mut Slot, cost: f64, at: usize, alt: u32) {
    if cost < slot.cost {
        *slot = Slot {
            cost,
            at: at as u32,
            alt,
        };
    }
}

/// What one run writes: the base derivation (also the final Recost's), one
/// cardinality per subset, the memo, `memo[id · nprops + prop]`, and the
/// winner's choice path. One per thread, grown to the largest template the
/// thread has optimized; nothing in it outlives a run, so engines share it
/// freely.
#[derive(Debug, Default)]
struct OptimizeScratch {
    base: RecostScratch,
    rows: Vec<f64>,
    memo: Vec<Slot>,
    path: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<OptimizeScratch> = RefCell::default();
}

impl PreparedOptimize {
    /// Lay out the search space of `template` under `model`; `consts` are
    /// the template's.
    ///
    /// # Panics
    /// Panics if the template has more than 16 relations or a disconnected
    /// join graph.
    pub(crate) fn new(template: &QueryTemplate, model: &CostModel, consts: &BaseConsts) -> Self {
        let n = template.num_relations();
        assert!(n <= 16, "optimizer supports at most 16 relations");
        let full = template.full_relation_set();
        let pred_count = consts.pred_count();

        // Distinct join-key columns define the interesting orders.
        let mut keys: Vec<(usize, usize)> = Vec::new();
        for e in &template.join_edges {
            for side in [e.left, e.right] {
                if !keys.contains(&side) {
                    keys.push(side);
                }
            }
        }
        let prop_of = |side: (usize, usize)| -> Prop {
            let k = keys.iter().position(|&key| key == side);
            k.expect("every join-edge column is a key") as Prop + 1
        };
        let enforcers = keys.len();

        let mut scans = Vec::new();
        let mut scan_start = Vec::with_capacity(n + 1);
        for (rel, (relation, &preds)) in template.relations.iter().zip(pred_count).enumerate() {
            scan_start.push(offset(scans.len()));
            let t = &relation.table;
            let (trows, pages) = (t.row_count as f64, t.page_count as f64);
            scans.push(ScanAlt::Seq {
                cost: model.seq_scan(pages, trows, preds),
            });
            for p in template.param_preds_on(rel) {
                if t.columns[template.param_preds[p].column].indexed {
                    let (konst, per_fetch) =
                        model.index_seek_consts(trows, preds.saturating_sub(1));
                    scans.push(ScanAlt::Seek {
                        dim: p as u32,
                        table_rows: trows,
                        konst,
                        per_fetch,
                    });
                }
            }
            for (k, &(kr, kc)) in keys.iter().enumerate() {
                if kr == rel && t.columns[kc].indexed {
                    scans.push(ScanAlt::Sorted {
                        column: kc as u32,
                        prop: k as Prop + 1,
                        cost: model.sorted_index_scan(pages, trows, preds),
                    });
                }
            }
        }
        scan_start.push(offset(scans.len()));

        const NONE: u32 = u32::MAX;
        let mut id_of = vec![NONE; full as usize + 1];
        let mut subsets = Vec::new();
        let mut rels = Vec::new();
        let mut inner_sels = Vec::new();
        let mut splits = Vec::new();
        let mut cross = Vec::new();
        let mut nljs = Vec::new();
        for mask in 1..=full {
            if !template.is_connected(mask) {
                continue;
            }
            id_of[mask as usize] = offset(subsets.len());
            subsets.push(Subset {
                rels: offset(rels.len()),
                sels: offset(inner_sels.len()),
                splits: offset(splits.len()),
            });
            rels.extend((0..n as u8).filter(|&r| mask & (1 << r) != 0));
            inner_sels.extend(
                template
                    .join_edges
                    .iter()
                    .filter(|e| mask & (1 << e.left.0) != 0 && mask & (1 << e.right.0) != 0)
                    .map(|e| e.selectivity),
            );
            // Unordered partitions, once each: `s1` always holds `low`.
            let low = mask & mask.wrapping_neg();
            let mut s1 = mask;
            loop {
                s1 = (s1 - 1) & mask;
                if s1 == 0 {
                    break;
                }
                let s2 = mask ^ s1;
                let (left, right) = (id_of[s1 as usize], id_of[s2 as usize]);
                if s1 & low == 0 || left == NONE || right == NONE {
                    continue;
                }
                let crossing: Vec<usize> = (0..template.join_edges.len())
                    .filter(|&e| template.join_edges[e].crosses(s1, s2))
                    .collect();
                if crossing.is_empty() {
                    continue;
                }
                splits.push(Split {
                    left,
                    right,
                    cross: offset(cross.len()),
                    nljs: offset(nljs.len()),
                });
                for &e in &crossing {
                    let edge = &template.join_edges[e];
                    let (l_side, r_side) = if s1 & (1 << edge.left.0) != 0 {
                        (edge.left, edge.right)
                    } else {
                        (edge.right, edge.left)
                    };
                    cross.push(CrossEdge {
                        edge: e as u32,
                        left_prop: prop_of(l_side),
                        right_prop: prop_of(r_side),
                    });
                }
                for (inner_mask, outer_left) in [(s2, true), (s1, false)] {
                    if inner_mask.count_ones() != 1 {
                        continue;
                    }
                    let inner = inner_mask.trailing_zeros() as usize;
                    let t = &template.relations[inner].table;
                    let n_inner = t.row_count as f64;
                    // Residuals: the inner relation's own predicates
                    // plus the crossing edges other than the seek edge.
                    let residual = pred_count[inner] + crossing.len() - 1;
                    for &e in &crossing {
                        let edge = &template.join_edges[e];
                        if edge.column_on(inner).is_some_and(|c| t.columns[c].indexed) {
                            let lookup = n_inner * edge.selectivity;
                            nljs.push(NljAlt {
                                per_outer: model.index_nlj_per_outer(n_inner, lookup, residual),
                                inner: inner as u32,
                                seek_edge: e as u32,
                                outer_left,
                            });
                        }
                    }
                }
            }
        }
        assert!(
            id_of[full as usize] != NONE,
            "no plan found for template `{}`",
            template.name
        );
        // Per relation its scans, per subset its enforcers, per split two
        // hash joins, its merge joins and its index nested-loops joins, then
        // both aggregates and the final sort.
        let alternatives = scans.len()
            + subsets.len() * enforcers
            + 2 * splits.len()
            + cross.len()
            + nljs.len()
            + 2 * usize::from(template.aggregate.is_some())
            + usize::from(template.order_by);
        subsets.push(Subset {
            rels: offset(rels.len()),
            sels: offset(inner_sels.len()),
            splits: offset(splits.len()),
        });
        splits.push(Split {
            left: NONE,
            right: NONE,
            cross: offset(cross.len()),
            nljs: offset(nljs.len()),
        });
        PreparedOptimize {
            keys: keys.into(),
            subsets: subsets.into(),
            rels: rels.into(),
            inner_sels: inner_sels.into(),
            splits: splits.into(),
            cross: cross.into(),
            nljs: nljs.into(),
            scans: scans.into(),
            scan_start: scan_start.into(),
            agg_groups: template.aggregate.as_ref().map(|a| a.groups),
            order_by: template.order_by,
            alternatives,
        }
    }

    fn nprops(&self) -> usize {
        self.keys.len() + 1
    }

    fn members(&self, id: usize) -> &[u8] {
        &self.rels[self.subsets[id].rels as usize..self.subsets[id + 1].rels as usize]
    }

    fn scans_of(&self, rel: u8) -> &[ScanAlt] {
        let rel = rel as usize;
        &self.scans[self.scan_start[rel] as usize..self.scan_start[rel + 1] as usize]
    }

    fn cross_of(&self, split: usize) -> &[CrossEdge] {
        &self.cross[self.splits[split].cross as usize..self.splits[split + 1].cross as usize]
    }

    fn nljs_of(&self, split: usize) -> &[NljAlt] {
        &self.nljs[self.splits[split].nljs as usize..self.splits[split + 1].nljs as usize]
    }

    /// The optimal plan of the prepared template at `sv`, searched in the
    /// calling thread's scratch. `template`, `model` and `consts` are the
    /// ones this was prepared from.
    ///
    /// # Panics
    /// Panics if `sv` has the wrong arity.
    pub(crate) fn run(
        &self,
        template: &QueryTemplate,
        model: &CostModel,
        consts: &BaseConsts,
        sv: &SVector,
    ) -> OptimizeResult {
        let (plan, cost) =
            self.run_within(template, model, consts, sv, f64::INFINITY, |_, build| {
                build()
            });
        self.result(plan, cost)
    }

    /// [`PreparedOptimize::run`] for a caller that knows some plan costs
    /// `bound` at `sv`: the search skips what cannot be part of a plan that
    /// cheap, and reruns unbounded if the bound was too low. Plan and cost
    /// are [`PreparedOptimize::run`]'s, bit for bit, whatever `bound` is
    /// (DESIGN.md §5d). `plan_for` turns the winner's choice path — the same
    /// words exactly when the plan is the same — into the plan returned,
    /// calling the builder it is handed only for a path it does not know.
    pub(crate) fn run_within<P: Borrow<Plan>>(
        &self,
        template: &QueryTemplate,
        model: &CostModel,
        consts: &BaseConsts,
        sv: &SVector,
        bound: f64,
        plan_for: impl FnOnce(&[u64], &dyn Fn() -> Plan) -> P,
    ) -> (P, f64) {
        debug_assert_eq!(template.num_relations() + 1, self.scan_start.len());
        debug_assert_eq!(template.dimensions(), consts.dimensions());
        SCRATCH.with_borrow_mut(|scratch| {
            let within = self.run_in(model, consts, sv, bound, scratch)
                || self.run_in(model, consts, sv, f64::INFINITY, scratch);
            debug_assert!(within, "an unbounded search always has a winner");
            self.winner(template, model, sv, scratch, plan_for)
        })
    }

    fn result(&self, plan: Plan, cost: f64) -> OptimizeResult {
        OptimizeResult {
            plan,
            cost,
            groups_explored: (self.subsets.len() - 1) * self.nprops(),
            alternatives_costed: self.alternatives,
        }
    }

    /// The join DP at `sv` under the upper bound `bound`, into `scratch`'s
    /// memo; whether the full join's winner costs at most `bound`. An
    /// alternative whose inputs alone cost more than `bound` is not priced,
    /// and neither are the Sort enforcers over an unordered winner that
    /// does: every cost term is non-negative, so none of them can be on the
    /// way to a plan within the bound. A NaN bound prunes nothing.
    fn run_in(
        &self,
        model: &CostModel,
        consts: &BaseConsts,
        sv: &SVector,
        bound: f64,
        scratch: &mut OptimizeScratch,
    ) -> bool {
        let bound = if bound.is_nan() { f64::INFINITY } else { bound };
        let OptimizeScratch {
            base, rows, memo, ..
        } = scratch;
        let base_rows = consts.derive_fresh(sv, base);
        let nprops = self.nprops();
        let nsubsets = self.subsets.len() - 1;
        rows.clear();
        rows.resize(nsubsets, 0.0);
        memo.clear();
        memo.resize(nsubsets * nprops, UNSET);

        for id in 0..nsubsets {
            let (sub, next) = (&self.subsets[id], &self.subsets[id + 1]);
            // Logical property: the subset's output cardinality. A pure
            // product, so it factorizes identically over any join split.
            let members = self.members(id);
            let mut out = 1.0;
            for &rel in members {
                out *= base_rows[rel as usize];
            }
            for sel in &self.inner_sels[sub.sels as usize..next.sels as usize] {
                out *= sel;
            }
            rows[id] = out;

            let (done, rest) = memo.split_at_mut(id * nprops);
            let group = &mut rest[..nprops];
            if let [rel] = *members {
                for (alt, scan) in self.scans_of(rel).iter().enumerate() {
                    let alt = alt as u32;
                    match *scan {
                        ScanAlt::Seq { cost } => offer(&mut group[0], cost, 0, alt),
                        ScanAlt::Seek {
                            dim,
                            table_rows,
                            konst,
                            per_fetch,
                        } => {
                            let fetch = table_rows * sv.get(dim as usize);
                            offer(&mut group[0], konst + fetch * per_fetch, 0, alt);
                        }
                        ScanAlt::Sorted { prop, cost, .. } => {
                            offer(&mut group[prop as usize], cost, 0, alt);
                            offer(&mut group[0], cost, 0, alt);
                        }
                    }
                }
            }
            for s in sub.splits as usize..next.splits as usize {
                let split = &self.splits[s];
                let (l, r) = (split.left as usize, split.right as usize);
                let (r1, r2) = (rows[l], rows[r]);
                let left = &done[l * nprops..][..nprops];
                let right = &done[r * nprops..][..nprops];
                let (c1, c2) = (left[0].cost, right[0].cost);
                let cross = self.cross_of(s);

                // Every hash and merge join of the split costs at least
                // `c1 + c2` (a sorted input costs no less than the unordered
                // winner).
                if c1 + c2 <= bound {
                    // Hash join, both build sides.
                    let build_left = c1 + c2 + model.hash_join(r1, r2, out);
                    offer(&mut group[0], build_left, s, HASH_BUILD_LEFT);
                    let build_right = c1 + c2 + model.hash_join(r2, r1, out);
                    offer(&mut group[0], build_right, s, HASH_BUILD_RIGHT);

                    // Merge join per crossing edge, consuming sorted children
                    // (sorted scans or enforcers); the output carries both
                    // (equal) join keys' orders.
                    let merge = model.merge_join(r1, r2, out);
                    for (alt, x) in (FIRST_MERGE..).zip(cross) {
                        let (lp, rp) = (x.left_prop as usize, x.right_prop as usize);
                        let cost = left[lp].cost + right[rp].cost + merge;
                        offer(&mut group[0], cost, s, alt);
                        offer(&mut group[lp], cost, s, alt);
                        offer(&mut group[rp], cost, s, alt);
                    }
                }

                // Index nested-loops with a single-relation inner side.
                let nljs = self.nljs_of(s);
                for (alt, j) in (FIRST_MERGE + cross.len() as u32..).zip(nljs) {
                    let (outer_cost, outer_rows) = if j.outer_left { (c1, r1) } else { (c2, r2) };
                    if outer_cost <= bound {
                        let cost =
                            outer_cost + model.index_nlj_folded(outer_rows, j.per_outer, out);
                        offer(&mut group[0], cost, s, alt);
                    }
                }
            }
            // Close the group under the Sort enforcer: any required order
            // can be produced by sorting the unordered winner.
            if group[0].cost <= bound {
                let enforced = group[0].cost + model.sort(out);
                for slot in &mut group[1..] {
                    offer(slot, enforced, 0, ENFORCE);
                }
            }
        }
        debug_assert!(
            bound < f64::INFINITY || memo.iter().all(|slot| slot.cost < f64::INFINITY),
            "every group of a connected subset has a winner"
        );
        memo[(nsubsets - 1) * nprops].cost <= bound
    }

    /// The winner of the search `scratch` holds: its choice path recorded in
    /// `scratch.path`, handed with a builder to `plan_for`, and what that
    /// returns priced by Recost, which is the cost returned.
    fn winner<P: Borrow<Plan>>(
        &self,
        template: &QueryTemplate,
        model: &CostModel,
        sv: &SVector,
        scratch: &mut OptimizeScratch,
        plan_for: impl FnOnce(&[u64], &dyn Fn() -> Plan) -> P,
    ) -> (P, f64) {
        let OptimizeScratch {
            base,
            rows,
            memo,
            path,
        } = scratch;
        // The full plan: join tree, then aggregate, then final sort.
        let top = self.subsets.len() - 2;
        let in_rows = rows[top];
        let mut dp_cost = memo[top * self.nprops()].cost;
        path.clear();
        self.record(memo, top, 0, path);
        let mut out_rows = in_rows;
        let mut aggregate = None;
        if let Some(groups) = self.agg_groups {
            out_rows = groups.min(in_rows);
            let hash = model.hash_aggregate(in_rows, out_rows);
            let stream = model.stream_aggregate(in_rows, out_rows);
            let hash_wins = hash <= stream;
            aggregate = Some(hash_wins);
            dp_cost += if hash_wins { hash } else { stream };
        }
        if self.order_by {
            dp_cost += model.sort(out_rows);
        }
        path.push(match aggregate {
            None => 0,
            Some(true) => 1,
            Some(false) => 2,
        });

        let build = || {
            let mut ops = Vec::new();
            self.extract(memo, top, 0, &mut ops);
            if let Some(hash) = aggregate {
                ops.push(if hash {
                    PlanOp::HashAggregate
                } else {
                    PlanOp::StreamAggregate
                });
            }
            if self.order_by {
                ops.push(PlanOp::Sort { key: None });
            }
            Plan::from_postorder(ops).expect("the winner's operators form one tree")
        };
        let plan = plan_for(path, &build);
        // Final cost goes through the Recost path so the two agree exactly.
        let cost = recost::recost_derived(template, model, plan.borrow(), sv, base);
        debug_assert!(
            (cost - dp_cost).abs() <= 1e-6 * dp_cost.abs().max(1.0),
            "DP cost {dp_cost} disagrees with recost {cost} for `{}`",
            template.name
        );
        (plan, cost)
    }

    /// Append the choice path of group `(id, prop)`'s winner to `path`: its
    /// split and alternative, then its inputs' paths in plan order. The
    /// group's subset and property need no word, since its parent's choice
    /// fixed them; from the top group down, the path therefore names one
    /// plan tree.
    fn record(&self, memo: &[Slot], id: usize, prop: usize, path: &mut Vec<u64>) {
        let slot = memo[id * self.nprops() + prop];
        path.push(u64::from(slot.at) << 32 | u64::from(slot.alt));
        for (input, input_prop) in self.inputs(id, slot).into_iter().flatten() {
            self.record(memo, input, input_prop, path);
        }
    }

    /// The groups `(id, prop)` the winner `slot` of a group of subset `id`
    /// reads, in plan order.
    fn inputs(&self, id: usize, slot: Slot) -> [Option<(usize, usize)>; 2] {
        if slot.alt == ENFORCE {
            return [Some((id, 0)), None];
        }
        if self.members(id).len() == 1 {
            return [None, None];
        }
        let at = slot.at as usize;
        let split = &self.splits[at];
        let (l, r) = (split.left as usize, split.right as usize);
        match slot.alt {
            // Canonical form: the build side is always the left child, so
            // structurally identical joins fingerprint identically.
            HASH_BUILD_LEFT => [Some((l, 0)), Some((r, 0))],
            HASH_BUILD_RIGHT => [Some((r, 0)), Some((l, 0))],
            alt => {
                let k = (alt - FIRST_MERGE) as usize;
                let cross = self.cross_of(at);
                match cross.get(k) {
                    Some(x) => [
                        Some((l, x.left_prop as usize)),
                        Some((r, x.right_prop as usize)),
                    ],
                    None => {
                        let j = &self.nljs_of(at)[k - cross.len()];
                        [Some((if j.outer_left { l } else { r }, 0)), None]
                    }
                }
            }
        }
    }

    /// Append the winning physical expression of group `(id, prop)` to
    /// `ops` in postorder: its inputs' operators, then its own.
    fn extract(&self, memo: &[Slot], id: usize, prop: usize, ops: &mut Vec<PlanOp>) {
        let slot @ Slot { at, alt, .. } = memo[id * self.nprops() + prop];
        for (input, input_prop) in self.inputs(id, slot).into_iter().flatten() {
            self.extract(memo, input, input_prop, ops);
        }
        if alt == ENFORCE {
            let key = Some(self.keys[prop - 1]);
            return ops.push(PlanOp::Sort { key });
        }
        if let [rel] = *self.members(id) {
            let relation = rel as usize;
            return ops.push(match self.scans_of(rel)[alt as usize] {
                ScanAlt::Seq { .. } => PlanOp::SeqScan { relation },
                ScanAlt::Seek { dim, .. } => PlanOp::IndexSeek {
                    relation,
                    seek_pred: dim as usize,
                },
                ScanAlt::Sorted { column, .. } => PlanOp::SortedIndexScan {
                    relation,
                    column: column as usize,
                },
            });
        }
        let cross = self.cross_of(at as usize);
        let edges: Vec<usize> = cross.iter().map(|x| x.edge as usize).collect();
        ops.push(match alt.checked_sub(FIRST_MERGE).map(|k| k as usize) {
            None => PlanOp::HashJoin {
                build_left: true,
                edges,
            },
            Some(k) => match cross.get(k) {
                Some(x) => PlanOp::MergeJoin {
                    merge_edge: x.edge as usize,
                    edges,
                },
                None => {
                    let j = &self.nljs_of(at as usize)[k - cross.len()];
                    PlanOp::IndexNlj {
                        inner: j.inner as usize,
                        seek_edge: j.seek_edge as usize,
                        edges,
                    }
                }
            },
        });
    }
}

#[cfg(test)]
mod reference {
    use super::*;
    use crate::recost::BaseDerivation;

    type Prop = usize;

    /// The winning physical expression of one memo group.
    #[derive(Debug, Clone)]
    enum Choice {
        SeqScan {
            relation: usize,
        },
        IndexSeek {
            relation: usize,
            seek_pred: usize,
        },
        SortedIndexScan {
            relation: usize,
            column: usize,
        },
        /// Explicit sort enforcer over the subset's unordered winner.
        Enforce,
        HashJoin {
            left: u32,
            right: u32,
            build_left: bool,
            edges: Vec<usize>,
        },
        MergeJoin {
            left: u32,
            right: u32,
            left_prop: Prop,
            right_prop: Prop,
            merge_edge: usize,
            edges: Vec<usize>,
        },
        IndexNlj {
            outer: u32,
            inner: usize,
            seek_edge: usize,
            edges: Vec<usize>,
        },
    }

    #[derive(Debug, Clone)]
    struct Group {
        cost: f64,
        choice: Choice,
    }

    /// Search-space description shared by the DP and plan extraction.
    struct Search {
        /// Distinct join-key columns `(relation, column)`; index = key id.
        keys: Vec<(usize, usize)>,
        /// `groups[mask][prop]`.
        groups: Vec<Vec<Option<Group>>>,
    }

    impl Search {
        fn key_id(&self, rel: usize, col: usize) -> Option<usize> {
            self.keys.iter().position(|&(r, c)| (r, c) == (rel, col))
        }
    }

    /// The search as it ran on every call before it was prepared: all 2ⁿ masks,
    /// connectivity per mask, the 3ⁿ submask walk. Kept as the oracle
    /// [`PreparedOptimize::run`] is compared with bit for bit.
    pub(super) fn optimize_reference(
        template: &QueryTemplate,
        model: &CostModel,
        sv: &SVector,
    ) -> OptimizeResult {
        let n = template.num_relations();
        assert!(n <= 16, "optimizer supports at most 16 relations");
        let base = BaseDerivation::new(template, sv);
        let full = template.full_relation_set();
        let mut alternatives = 0usize;

        // Distinct join-key columns define the interesting orders.
        let mut keys: Vec<(usize, usize)> = Vec::new();
        for e in &template.join_edges {
            for &(r, c) in &[e.left, e.right] {
                if !keys.contains(&(r, c)) {
                    keys.push((r, c));
                }
            }
        }
        let nprops = keys.len() + 1;

        // Logical property: output cardinality per relation subset. A pure
        // product, so it factorizes identically over any join split.
        let mut rows = vec![0.0f64; (full as usize) + 1];
        for mask in 1..=full {
            let mut r = 1.0;
            for rel in 0..n {
                if mask & (1 << rel) != 0 {
                    r *= base.base_rows[rel];
                }
            }
            for e in &template.join_edges {
                if mask & (1 << e.left.0) != 0 && mask & (1 << e.right.0) != 0 {
                    r *= e.selectivity;
                }
            }
            rows[mask as usize] = r;
        }

        let mut search = Search {
            keys,
            groups: (0..=full as usize).map(|_| vec![None; nprops]).collect(),
        };

        // Helper: offer an alternative for (mask, prop).
        fn consider(
            groups: &mut [Vec<Option<Group>>],
            mask: u32,
            prop: Prop,
            cost: f64,
            choice: Choice,
        ) {
            let slot = &mut groups[mask as usize][prop];
            if slot.as_ref().is_none_or(|g| cost < g.cost) {
                *slot = Some(Group { cost, choice });
            }
        }

        // Singleton groups: scan alternatives.
        for rel in 0..n {
            let mask = 1u32 << rel;
            let t = &template.relations[rel].table;
            let trows = t.row_count as f64;
            let pages = t.page_count as f64;
            alternatives += 1;
            consider(
                &mut search.groups,
                mask,
                0,
                model.seq_scan(pages, trows, base.pred_count[rel]),
                Choice::SeqScan { relation: rel },
            );
            for p in template.param_preds_on(rel) {
                let col = template.param_preds[p].column;
                if t.columns[col].indexed {
                    let fetch = trows * sv.get(p);
                    alternatives += 1;
                    consider(
                        &mut search.groups,
                        mask,
                        0,
                        model.index_seek(trows, fetch, base.pred_count[rel].saturating_sub(1)),
                        Choice::IndexSeek {
                            relation: rel,
                            seek_pred: p,
                        },
                    );
                }
            }
            // Sorted scans on indexed join columns: interesting orders.
            for (k, &(kr, kc)) in search.keys.iter().enumerate() {
                if kr == rel && t.columns[kc].indexed {
                    let cost = model.sorted_index_scan(pages, trows, base.pred_count[rel]);
                    alternatives += 1;
                    consider(
                        &mut search.groups,
                        mask,
                        k + 1,
                        cost,
                        Choice::SortedIndexScan {
                            relation: rel,
                            column: kc,
                        },
                    );
                    consider(
                        &mut search.groups,
                        mask,
                        0,
                        cost,
                        Choice::SortedIndexScan {
                            relation: rel,
                            column: kc,
                        },
                    );
                }
            }
            close_with_enforcers(
                &mut search.groups,
                mask,
                nprops,
                rows[mask as usize],
                model,
                &mut alternatives,
            );
        }

        // Composite groups in increasing mask order (submasks are smaller).
        for mask in 1..=full {
            if mask.count_ones() < 2 || !template.is_connected(mask) {
                continue;
            }
            let low = mask & mask.wrapping_neg();
            let out = rows[mask as usize];

            // Enumerate unordered partitions once (s1 always contains `low`).
            let mut s1 = (mask - 1) & mask;
            while s1 > 0 {
                let s2 = mask ^ s1;
                if s1 & low != 0 {
                    let have_children = search.groups[s1 as usize][0].is_some()
                        && search.groups[s2 as usize][0].is_some();
                    if have_children {
                        let edges: Vec<usize> = template
                            .join_edges
                            .iter()
                            .enumerate()
                            .filter(|(_, e)| e.crosses(s1, s2))
                            .map(|(i, _)| i)
                            .collect();
                        if !edges.is_empty() {
                            let (r1, r2) = (rows[s1 as usize], rows[s2 as usize]);
                            let c1 = search.groups[s1 as usize][0].as_ref().unwrap().cost;
                            let c2 = search.groups[s2 as usize][0].as_ref().unwrap().cost;

                            // Hash join, both build sides.
                            alternatives += 2;
                            consider(
                                &mut search.groups,
                                mask,
                                0,
                                c1 + c2 + model.hash_join(r1, r2, out),
                                Choice::HashJoin {
                                    left: s1,
                                    right: s2,
                                    build_left: true,
                                    edges: edges.clone(),
                                },
                            );
                            consider(
                                &mut search.groups,
                                mask,
                                0,
                                c1 + c2 + model.hash_join(r2, r1, out),
                                Choice::HashJoin {
                                    left: s1,
                                    right: s2,
                                    build_left: false,
                                    edges: edges.clone(),
                                },
                            );

                            // Merge join per crossing edge, consuming sorted
                            // children (sorted scans or enforcers).
                            for &e in &edges {
                                let edge = &template.join_edges[e];
                                let (l_side, r_side) = if s1 & (1 << edge.left.0) != 0 {
                                    (edge.left, edge.right)
                                } else {
                                    (edge.right, edge.left)
                                };
                                let (Some(kl), Some(kr)) = (
                                    search.key_id(l_side.0, l_side.1),
                                    search.key_id(r_side.0, r_side.1),
                                ) else {
                                    continue;
                                };
                                let (Some(gl), Some(gr)) = (
                                    search.groups[s1 as usize][kl + 1].as_ref(),
                                    search.groups[s2 as usize][kr + 1].as_ref(),
                                ) else {
                                    continue;
                                };
                                let cost = gl.cost + gr.cost + model.merge_join(r1, r2, out);
                                alternatives += 1;
                                let choice = Choice::MergeJoin {
                                    left: s1,
                                    right: s2,
                                    left_prop: kl + 1,
                                    right_prop: kr + 1,
                                    merge_edge: e,
                                    edges: edges.clone(),
                                };
                                // Output carries both (equal) join keys' orders.
                                consider(&mut search.groups, mask, 0, cost, choice.clone());
                                consider(&mut search.groups, mask, kl + 1, cost, choice.clone());
                                consider(&mut search.groups, mask, kr + 1, cost, choice);
                            }

                            // Index nested-loops with a singleton inner side.
                            for (inner_mask, outer_mask, outer_cost, outer_rows) in
                                [(s2, s1, c1, r1), (s1, s2, c2, r2)]
                            {
                                if inner_mask.count_ones() != 1 {
                                    continue;
                                }
                                let inner = inner_mask.trailing_zeros() as usize;
                                let t = &template.relations[inner].table;
                                for &e in &edges {
                                    let Some(col) = template.join_edges[e].column_on(inner) else {
                                        continue;
                                    };
                                    if !t.columns[col].indexed {
                                        continue;
                                    }
                                    let lookup =
                                        t.row_count as f64 * template.join_edges[e].selectivity;
                                    let residual = base.pred_count[inner] + edges.len() - 1;
                                    alternatives += 1;
                                    consider(
                                        &mut search.groups,
                                        mask,
                                        0,
                                        outer_cost
                                            + model.index_nlj(
                                                outer_rows,
                                                t.row_count as f64,
                                                lookup,
                                                residual,
                                                out,
                                            ),
                                        Choice::IndexNlj {
                                            outer: outer_mask,
                                            inner,
                                            seek_edge: e,
                                            edges: edges.clone(),
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
                s1 = (s1 - 1) & mask;
            }
            close_with_enforcers(
                &mut search.groups,
                mask,
                nprops,
                out,
                model,
                &mut alternatives,
            );
        }

        let join_group = search.groups[full as usize][0]
            .as_ref()
            .unwrap_or_else(|| panic!("no plan found for template `{}`", template.name));
        let groups_explored = search
            .groups
            .iter()
            .map(|props| props.iter().filter(|g| g.is_some()).count())
            .sum();

        // Assemble the full plan: join tree, then aggregate, then final sort.
        let mut dp_cost = join_group.cost;
        let mut ops = Vec::new();
        extract(&search, full, 0, &mut ops);
        if let Some(agg) = &template.aggregate {
            let in_rows = rows[full as usize];
            let g = agg.groups.min(in_rows);
            let hash = model.hash_aggregate(in_rows, g);
            let stream = model.stream_aggregate(in_rows, g);
            alternatives += 2;
            if hash <= stream {
                ops.push(PlanOp::HashAggregate);
                dp_cost += hash;
            } else {
                ops.push(PlanOp::StreamAggregate);
                dp_cost += stream;
            }
        }
        if template.order_by {
            let out_rows = template
                .aggregate
                .as_ref()
                .map(|a| a.groups.min(rows[full as usize]))
                .unwrap_or(rows[full as usize]);
            ops.push(PlanOp::Sort { key: None });
            dp_cost += model.sort(out_rows);
            alternatives += 1;
        }

        let plan = Plan::from_postorder(ops).unwrap();
        // Final cost goes through the Recost path so the two agree exactly.
        let cost = recost::recost(template, model, &plan, sv);
        debug_assert!(
            (cost - dp_cost).abs() <= 1e-6 * dp_cost.abs().max(1.0),
            "DP cost {dp_cost} disagrees with recost {cost} for `{}`",
            template.name
        );
        OptimizeResult {
            plan,
            cost,
            groups_explored,
            alternatives_costed: alternatives,
        }
    }

    /// Close a mask's property winners under the Sort enforcer: any required
    /// order can be produced by sorting the unordered winner.
    fn close_with_enforcers(
        groups: &mut [Vec<Option<Group>>],
        mask: u32,
        nprops: usize,
        rows: f64,
        model: &CostModel,
        alternatives: &mut usize,
    ) {
        let Some(base_cost) = groups[mask as usize][0].as_ref().map(|g| g.cost) else {
            return;
        };
        let enforced = base_cost + model.sort(rows);
        for slot in groups[mask as usize][1..nprops].iter_mut() {
            *alternatives += 1;
            if slot.as_ref().is_none_or(|g| enforced < g.cost) {
                *slot = Some(Group {
                    cost: enforced,
                    choice: Choice::Enforce,
                });
            }
        }
    }

    fn extract(search: &Search, mask: u32, prop: Prop, ops: &mut Vec<PlanOp>) {
        let g = search.groups[mask as usize][prop]
            .as_ref()
            .expect("group must exist during extraction");
        let op = match &g.choice {
            Choice::SeqScan { relation } => PlanOp::SeqScan {
                relation: *relation,
            },
            Choice::IndexSeek {
                relation,
                seek_pred,
            } => PlanOp::IndexSeek {
                relation: *relation,
                seek_pred: *seek_pred,
            },
            Choice::SortedIndexScan { relation, column } => PlanOp::SortedIndexScan {
                relation: *relation,
                column: *column,
            },
            Choice::Enforce => {
                extract(search, mask, 0, ops);
                PlanOp::Sort {
                    key: Some(search.keys[prop - 1]),
                }
            }
            Choice::HashJoin {
                left,
                right,
                build_left,
                edges,
            } => {
                // Canonical form: the build side is always the left child, so
                // structurally identical joins fingerprint identically.
                let (build, probe) = if *build_left {
                    (left, right)
                } else {
                    (right, left)
                };
                extract(search, *build, 0, ops);
                extract(search, *probe, 0, ops);
                PlanOp::HashJoin {
                    build_left: true,
                    edges: edges.clone(),
                }
            }
            Choice::MergeJoin {
                left,
                right,
                left_prop,
                right_prop,
                merge_edge,
                edges,
            } => {
                extract(search, *left, *left_prop, ops);
                extract(search, *right, *right_prop, ops);
                PlanOp::MergeJoin {
                    merge_edge: *merge_edge,
                    edges: edges.clone(),
                }
            }
            Choice::IndexNlj {
                outer,
                inner,
                seek_edge,
                edges,
            } => {
                extract(search, *outer, 0, ops);
                PlanOp::IndexNlj {
                    inner: *inner,
                    seek_edge: *seek_edge,
                    edges: edges.clone(),
                }
            }
        };
        ops.push(op);
    }
}

/// The prepared search against [`reference::optimize_reference`], bit for
/// bit, on join graphs the corpus does not have.
#[cfg(test)]
mod fuzz {
    use std::sync::Arc;

    use pqo_catalog::histogram::MIN_SELECTIVITY;
    use pqo_catalog::schemas;
    use pqo_catalog::table::TableDef;
    use pqo_rand::rngs::StdRng;
    use pqo_rand::{Rng, SeedableRng};

    use super::reference::optimize_reference;
    use super::*;
    use crate::template::{
        test_fixtures, AggregateSpec, FixedPredicate, JoinEdge, ParamPredicate, RangeOp,
        RelationRef,
    };

    /// 1–10 relations over catalog tables with re-drawn `indexed` flags, a
    /// random spanning tree plus 0–3 extra edges (cycles, so splits with
    /// several crossing edges and residual predicates; parallel edges
    /// between one pair), join columns drawn from each table's first three
    /// so edges share keys, with and without aggregate and ORDER BY.
    fn random_template(rng: &mut StdRng, tables: &[Arc<TableDef>], seed: u64) -> QueryTemplate {
        let n = match rng.gen_range(0..10usize) {
            0 => 1,
            1..=6 => rng.gen_range(2..=6usize),
            _ => rng.gen_range(7..=10usize),
        };
        let relations: Vec<RelationRef> = (0..n)
            .map(|r| {
                let mut table = (*tables[rng.gen_range(0..tables.len())]).clone();
                for c in &mut table.columns {
                    c.indexed = rng.gen_bool(0.5);
                }
                RelationRef {
                    table: Arc::new(table),
                    alias: format!("r{r}"),
                }
            })
            .collect();
        let column = |rng: &mut StdRng, r: usize, span: usize| {
            rng.gen_range(0..relations[r].table.columns.len().min(span))
        };
        let mut join_edges = Vec::new();
        let extra = if n >= 2 { rng.gen_range(0..=3usize) } else { 0 };
        for k in 1..n + extra {
            let (a, b) = if k < n {
                (rng.gen_range(0..k), k)
            } else {
                let a = rng.gen_range(0..n);
                (a, (a + rng.gen_range(1..n)) % n)
            };
            join_edges.push(JoinEdge {
                left: (a, column(rng, a, 3)),
                right: (b, column(rng, b, 3)),
                selectivity: 10f64.powf(-rng.gen_range(0.0..7.0)),
            });
        }
        let param_preds = (0..rng.gen_range(1..=4usize))
            .map(|_| {
                let relation = rng.gen_range(0..n);
                ParamPredicate {
                    relation,
                    column: column(rng, relation, usize::MAX),
                    op: RangeOp::Le,
                }
            })
            .collect();
        let fixed_preds = (0..rng.gen_range(0..=2usize))
            .map(|_| FixedPredicate {
                relation: rng.gen_range(0..n),
                selectivity: rng.gen_range(0.01..=1.0),
            })
            .collect();
        let template = QueryTemplate {
            name: format!("fuzz_{seed}"),
            relations,
            join_edges,
            param_preds,
            fixed_preds,
            aggregate: rng.gen_bool(0.5).then(|| AggregateSpec {
                groups: 10f64.powf(rng.gen_range(0.0..6.0)),
            }),
            order_by: rng.gen_bool(0.3),
        };
        template.validate().expect("generated templates are valid");
        template
    }

    fn svectors(rng: &mut StdRng, d: usize) -> Vec<SVector> {
        let mut svs = vec![SVector(vec![1.0; d]), SVector(vec![MIN_SELECTIVITY; d])];
        for _ in 0..4 {
            let draw = |rng: &mut StdRng| match rng.gen_range(0..8u32) {
                0 => 1.0,
                1 => MIN_SELECTIVITY,
                _ => 10f64.powf(-rng.gen_range(0.0..4.0)),
            };
            svs.push(SVector((0..d).map(|_| draw(rng)).collect()));
        }
        svs
    }

    fn assert_bit_identical(template: &QueryTemplate, svs: &[SVector]) {
        let model = CostModel::default();
        let consts = BaseConsts::new(template);
        let prepared = PreparedOptimize::new(template, &model, &consts);
        for sv in svs {
            let want = optimize_reference(template, &model, sv);
            let got = prepared.run(template, &model, &consts, sv);
            let at = format!("`{}` at {:?}", template.name, sv.0);
            assert_eq!(got.plan.nodes(), want.plan.nodes(), "{at}");
            assert_eq!(got.plan.fingerprint(), want.plan.fingerprint(), "{at}");
            assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{at}");
            assert_eq!(got.groups_explored, want.groups_explored, "{at}");
            assert_eq!(got.alternatives_costed, want.alternatives_costed, "{at}");
        }
    }

    #[test]
    fn prepared_run_is_bit_identical_to_the_reference_search() {
        let tables: Vec<Arc<TableDef>> = schemas::tpch_skew().tables().cloned().collect();
        let (mut cyclic, mut parallel, mut big) = (0, 0, 0);
        for seed in 0..160u64 {
            let mut rng = StdRng::seed_from_u64(0x0d9_f022 ^ seed);
            let template = random_template(&mut rng, &tables, seed);
            let edges = &template.join_edges;
            let pair = |e: &JoinEdge| (e.left.0.min(e.right.0), e.left.0.max(e.right.0));
            cyclic += usize::from(edges.len() >= template.num_relations().max(2));
            parallel += usize::from(
                (1..edges.len()).any(|i| edges[..i].iter().any(|e| pair(e) == pair(&edges[i]))),
            );
            big += usize::from(template.num_relations() >= 7);
            assert_bit_identical(&template, &svectors(&mut rng, template.dimensions()));
        }
        assert!(
            cyclic >= 40 && parallel >= 20 && big >= 20,
            "{cyclic} cyclic, {parallel} with parallel edges, {big} big"
        );
    }

    #[test]
    fn prepared_run_is_bit_identical_on_the_fixtures() {
        let mut rng = StdRng::seed_from_u64(0x0f1_7035);
        for t in [
            test_fixtures::one_rel(),
            test_fixtures::two_dim(),
            test_fixtures::three_dim(),
        ] {
            assert_bit_identical(&t, &svectors(&mut rng, t.dimensions()));
        }
    }

    /// At every bound, one bounded search either reports the bound too low —
    /// only when it is below the unbounded search's optimal join — or finds
    /// the unbounded winner: plan, cost bits, both counters. A bound of the
    /// optimum's own cost with the callers' margin is never too low, and the
    /// rerunning search always finds the winner. Returns how many bounds
    /// were too low.
    fn assert_any_bound_is_safe(template: &QueryTemplate, svs: &[SVector]) -> usize {
        let model = CostModel::default();
        let consts = BaseConsts::new(template);
        let prepared = PreparedOptimize::new(template, &model, &consts);
        let build = |_: &[u64], build: &dyn Fn() -> Plan| build();
        let key = |(plan, cost): (Plan, f64)| {
            let r = prepared.result(plan, cost);
            let counters = (r.groups_explored, r.alternatives_costed);
            (r.plan.fingerprint(), r.cost.to_bits(), counters)
        };
        let top = (prepared.subsets.len() - 2) * prepared.nprops();
        let mut too_low = 0;
        for (i, sv) in svs.iter().enumerate() {
            let want = prepared.run(template, &model, &consts, sv);
            let optimum = SCRATCH.with_borrow_mut(|s| {
                assert!(prepared.run_in(&model, &consts, sv, f64::INFINITY, s));
                s.memo[top].cost
            });
            let other = &svs[(i + 1) % svs.len()];
            let other_plan = prepared.run(template, &model, &consts, other).plan;
            let c = want.cost;
            let want = key((want.plan, c));
            let margin = c * (1.0 + 1e-6);
            for bound in [
                f64::INFINITY,
                margin,
                c,
                c / 2.0,
                0.0,
                -1.0,
                f64::NAN,
                recost::recost(template, &model, &other_plan, sv),
            ] {
                let at = format!("`{}` at {:?} under {bound}", template.name, sv.0);
                let once = SCRATCH.with_borrow_mut(|s| {
                    let within = prepared.run_in(&model, &consts, sv, bound, s);
                    within.then(|| prepared.winner(template, &model, sv, s, build))
                });
                match once {
                    Some(got) => assert_eq!(key(got), want, "{at}"),
                    None => {
                        assert!(bound < optimum, "{at}: the optimum costs {optimum}");
                        assert!(bound != margin, "{at}: the margin was too small");
                        too_low += 1;
                    }
                }
                let got = prepared.run_within(template, &model, &consts, sv, bound, build);
                assert_eq!(key(got), want, "{at}");
            }
        }
        too_low
    }

    #[test]
    fn any_bound_gives_the_unbounded_winner() {
        let tables: Vec<Arc<TableDef>> = schemas::tpch_skew().tables().cloned().collect();
        let mut too_low = 0;
        for seed in 0..160u64 {
            let mut rng = StdRng::seed_from_u64(0x0b0_0d00 ^ seed);
            let template = random_template(&mut rng, &tables, seed);
            too_low +=
                assert_any_bound_is_safe(&template, &svectors(&mut rng, template.dimensions()));
        }
        let mut rng = StdRng::seed_from_u64(0x0f1_7035);
        for t in [
            test_fixtures::one_rel(),
            test_fixtures::two_dim(),
            test_fixtures::three_dim(),
        ] {
            too_low += assert_any_bound_is_safe(&t, &svectors(&mut rng, t.dimensions()));
        }
        // 0 and −1 are too low at every sVector; the fuzz must reach the
        // rerun.
        assert!(too_low >= 2 * 163 * 6, "{too_low} bounds too low");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::arena_children;
    use crate::recost::recost;
    use crate::svector::{compute_svector, instance_for_target};
    use crate::template::test_fixtures;
    use std::collections::BTreeSet;

    fn sv_for(t: &QueryTemplate, target: &[f64]) -> SVector {
        compute_svector(t, &instance_for_target(t, target))
    }

    #[test]
    fn single_relation_picks_index_at_low_selectivity() {
        let t = test_fixtures::one_rel();
        let m = CostModel::default();
        let low = optimize(&t, &m, &SVector(vec![0.001]));
        let high = optimize(&t, &m, &SVector(vec![0.8]));
        assert!(
            matches!(low.plan.root_op(), PlanOp::IndexSeek { .. }),
            "low sel should seek"
        );
        assert!(
            matches!(high.plan.root_op(), PlanOp::SeqScan { .. }),
            "high sel should scan"
        );
        assert_ne!(low.plan.fingerprint(), high.plan.fingerprint());
    }

    #[test]
    fn optimizer_cost_equals_recost_of_winner() {
        let t = test_fixtures::three_dim();
        let m = CostModel::default();
        for target in [[0.01, 0.01, 0.01], [0.5, 0.5, 0.5], [0.9, 0.001, 0.3]] {
            let sv = sv_for(&t, &target);
            let r = optimize(&t, &m, &sv);
            let rc = recost(&t, &m, &r.plan, &sv);
            assert!(
                (r.cost - rc).abs() < 1e-9 * r.cost.max(1.0),
                "{} vs {}",
                r.cost,
                rc
            );
        }
    }

    #[test]
    fn optimal_plan_is_at_least_as_cheap_as_any_other_observed_plan() {
        // Cross-check optimality: the optimal plan at q1 recosted at q1 must
        // not exceed the recost of plans found optimal elsewhere.
        let t = test_fixtures::two_dim();
        let m = CostModel::default();
        let points: Vec<SVector> = [
            [0.001, 0.001],
            [0.9, 0.9],
            [0.001, 0.9],
            [0.9, 0.001],
            [0.1, 0.1],
        ]
        .iter()
        .map(|p| sv_for(&t, p))
        .collect();
        let results: Vec<_> = points.iter().map(|sv| optimize(&t, &m, sv)).collect();
        for (i, sv) in points.iter().enumerate() {
            for r in &results {
                let c = recost(&t, &m, &r.plan, sv);
                assert!(
                    results[i].cost <= c * (1.0 + 1e-9),
                    "plan {} beats 'optimal' at point {i}: {c} < {}",
                    r.plan.fingerprint(),
                    results[i].cost
                );
            }
        }
    }

    #[test]
    fn plan_diversity_across_selectivity_space() {
        // A PQO-worthy template must switch plans as selectivities move
        // (otherwise Optimize-Once would be perfect).
        let t = test_fixtures::three_dim();
        let m = CostModel::default();
        let mut plans = BTreeSet::new();
        for i in 0..8 {
            for j in 0..8 {
                let s = [0.001 * 8f64.powi(i), 0.001 * 8f64.powi(j), 0.05];
                let sv = sv_for(&t, &[s[0].min(1.0), s[1].min(1.0), s[2]]);
                plans.insert(optimize(&t, &m, &sv).plan.fingerprint());
            }
        }
        assert!(plans.len() >= 3, "only {} distinct plans", plans.len());
    }

    #[test]
    fn merge_join_appears_for_large_unselective_joins() {
        // Both inputs huge and unfiltered: sorted index scans + merge join
        // should beat a spilling hash join somewhere in the space.
        let t = test_fixtures::two_dim();
        let m = CostModel::default();
        let mut saw_merge = false;
        for s in [[0.9, 0.9], [1.0, 1.0], [0.7, 0.9]] {
            let r = optimize(&t, &m, &sv_for(&t, &s));
            saw_merge |= r
                .plan
                .nodes()
                .iter()
                .any(|n| matches!(n.op, PlanOp::MergeJoin { .. }));
        }
        assert!(saw_merge, "expected a merge join in the unselective region");
    }

    #[test]
    fn merge_join_children_deliver_order() {
        // Every MergeJoin child must be a sorted scan, a Sort, or another
        // MergeJoin (order-preserving) — the enforcer invariant.
        let t = test_fixtures::three_dim();
        let m = CostModel::default();
        for i in 0..6 {
            for j in 0..6 {
                let sv = sv_for(&t, &[0.15 * (i + 1) as f64, 0.15 * (j + 1) as f64, 0.5]);
                let r = optimize(&t, &m, &sv.clone());
                let nodes = r.plan.nodes();
                for (i, n) in nodes.iter().enumerate() {
                    if let PlanOp::MergeJoin { .. } = n.op {
                        for c in arena_children(nodes, i) {
                            assert!(
                                matches!(
                                    nodes[c].op,
                                    PlanOp::SortedIndexScan { .. }
                                        | PlanOp::Sort { .. }
                                        | PlanOp::MergeJoin { .. }
                                ),
                                "merge-join child {:?} cannot deliver order",
                                nodes[c].op
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn optimal_cost_is_monotone_along_each_dimension() {
        // PCM at the level of optimal costs: min of monotone plan costs.
        let t = test_fixtures::two_dim();
        let m = CostModel::default();
        let mut prev = 0.0;
        for k in 1..=10 {
            let sv = SVector(vec![0.1 * k as f64, 0.3]);
            let c = optimize(&t, &m, &sv).cost;
            assert!(c >= prev, "optimal cost dropped: {prev} -> {c} at k={k}");
            prev = c;
        }
    }

    #[test]
    fn join_order_respects_connectivity() {
        // customer-lineitem have no direct edge: every join in the plan must
        // apply at least one edge, so no cross products appear.
        let t = test_fixtures::three_dim();
        let m = CostModel::default();
        let r = optimize(&t, &m, &sv_for(&t, &[0.2, 0.2, 0.2]));
        for n in r.plan.nodes() {
            match &n.op {
                PlanOp::HashJoin { edges, .. }
                | PlanOp::MergeJoin { edges, .. }
                | PlanOp::IndexNlj { edges, .. } => assert!(!edges.is_empty()),
                _ => {}
            }
        }
        assert_eq!(r.plan.relation_set(), t.full_relation_set());
    }

    #[test]
    fn aggregate_and_order_by_are_planned() {
        let t = test_fixtures::two_dim(); // has aggregate(100)
        let m = CostModel::default();
        let r = optimize(&t, &m, &sv_for(&t, &[0.1, 0.1]));
        assert!(matches!(
            r.plan.root_op(),
            PlanOp::HashAggregate | PlanOp::StreamAggregate
        ));
    }

    #[test]
    fn memo_explores_subset_and_property_groups() {
        let t = test_fixtures::three_dim();
        let m = CostModel::default();
        let r = optimize(&t, &m, &sv_for(&t, &[0.1, 0.1, 0.1]));
        // At least the 6 connected-subset unordered groups of the c-o-l
        // chain, plus property winners from enforcer closure.
        assert!(r.groups_explored >= 6, "only {} groups", r.groups_explored);
        assert!(r.alternatives_costed > r.groups_explored);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let t = test_fixtures::three_dim();
        let m = CostModel::default();
        let sv = sv_for(&t, &[0.3, 0.2, 0.1]);
        let a = optimize(&t, &m, &sv);
        let b = optimize(&t, &m, &sv);
        assert_eq!(a.plan.fingerprint(), b.plan.fingerprint());
        assert_eq!(a.cost, b.cost);
    }
}
