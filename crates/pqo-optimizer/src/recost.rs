//! The Recost API (paper Section 4.2 and Appendix B).
//!
//! *"Given a plan P and a query instance qc, efficiently compute and return
//! Cost(P, qc)."* The paper implements this over a `shrunkenMemo` — the memo
//! pruned down to the groups of the final plan — by substituting the new
//! parameters in the base groups and re-deriving cardinality and cost
//! bottom-up. Our plans carry exactly those logical annotations, so
//! re-costing is a single bottom-up pass with no plan search: one to two
//! orders of magnitude cheaper than optimization (measured in `pqo-bench`).
//!
//! Three evaluation paths share one set of per-operator formulas:
//!
//! * [`recost`] — linear stack-machine pass over the plan's postorder arena
//!   (see [`crate::plan`]); allocates one value stack per call.
//! * [`recost_tree`] / [`derive_node`] — the legacy recursive walk over a
//!   boxed [`PlanNode`] tree, kept as the reference implementation for
//!   equivalence tests.
//! * [`recost_prepared`] — evaluates a [`PreparedRecost`], which caches
//!   every selectivity-*independent* quantity (scan costs, B-tree descent
//!   constants, join-edge selectivity products, static predicate counts) at
//!   plan-insert time, into a caller-owned [`RecostScratch`]: no allocation,
//!   no recursion, and an incremental [`BaseDerivation`] that is re-derived
//!   only for relations whose sVector dimensions actually changed.
//!
//! All three produce **bit-identical** results: the prepared constants are
//! folded with exactly the arithmetic (and associativity) the cost model
//! uses, so `recost(P, q) == Cost(P, q)` holds *by construction* whenever
//! `P` was produced for `q` — an invariant the integration tests rely on.

use crate::cost::CostModel;
use crate::plan::{ArenaNode, Plan, PlanNode, PlanOp};
use crate::svector::SVector;
use crate::template::QueryTemplate;

/// Floor for derived cardinalities, guarding logs and divisions.
const MIN_ROWS: f64 = 1e-9;

/// Per-relation derived quantities for one selectivity vector.
#[derive(Debug, Clone, Default)]
pub struct BaseDerivation {
    /// `base_sel[r]`: product of all (param + fixed) predicate selectivities
    /// on relation `r`.
    pub base_sel: Vec<f64>,
    /// `base_rows[r] = row_count(r) · base_sel[r]`.
    pub base_rows: Vec<f64>,
    /// Number of predicates (param + fixed) on relation `r`.
    pub pred_count: Vec<usize>,
}

impl BaseDerivation {
    /// Derive the base-relation quantities for `sv` under `template`.
    pub fn new(template: &QueryTemplate, sv: &SVector) -> Self {
        assert_eq!(sv.len(), template.dimensions(), "sVector arity mismatch");
        let n = template.num_relations();
        let mut base_sel = vec![1.0f64; n];
        let mut pred_count = vec![0usize; n];
        for (i, p) in template.param_preds.iter().enumerate() {
            base_sel[p.relation] *= sv.get(i);
            pred_count[p.relation] += 1;
        }
        for p in &template.fixed_preds {
            base_sel[p.relation] *= p.selectivity;
            pred_count[p.relation] += 1;
        }
        let base_rows = (0..n)
            .map(|r| (template.relations[r].table.row_count as f64 * base_sel[r]).max(MIN_ROWS))
            .collect();
        BaseDerivation {
            base_sel,
            base_rows,
            pred_count,
        }
    }
}

/// Re-derive `(output_rows, cost)` of `node` for the selectivities captured
/// in `base` / `sv`.
pub fn derive_node(
    template: &QueryTemplate,
    model: &CostModel,
    base: &BaseDerivation,
    sv: &SVector,
    node: &PlanNode,
) -> (f64, f64) {
    match &node.op {
        PlanOp::SeqScan { relation } => {
            let t = &template.relations[*relation].table;
            let cost = model.seq_scan(
                t.page_count as f64,
                t.row_count as f64,
                base.pred_count[*relation],
            );
            (base.base_rows[*relation], cost)
        }
        PlanOp::IndexSeek {
            relation,
            seek_pred,
        } => {
            let t = &template.relations[*relation].table;
            let fetch = (t.row_count as f64 * sv.get(*seek_pred)).max(MIN_ROWS);
            let residual = base.pred_count[*relation].saturating_sub(1);
            let cost = model.index_seek(t.row_count as f64, fetch, residual);
            (base.base_rows[*relation], cost)
        }
        PlanOp::SortedIndexScan { relation, .. } => {
            let t = &template.relations[*relation].table;
            let cost = model.sorted_index_scan(
                t.page_count as f64,
                t.row_count as f64,
                base.pred_count[*relation],
            );
            (base.base_rows[*relation], cost)
        }
        PlanOp::HashJoin { build_left, edges } => {
            let (lr, lc) = derive_node(template, model, base, sv, &node.children[0]);
            let (rr, rc) = derive_node(template, model, base, sv, &node.children[1]);
            let out = join_out_rows(template, lr, rr, edges);
            let (b, p) = if *build_left { (lr, rr) } else { (rr, lr) };
            (out, lc + rc + model.hash_join(b, p, out))
        }
        PlanOp::MergeJoin { edges, .. } => {
            let (lr, lc) = derive_node(template, model, base, sv, &node.children[0]);
            let (rr, rc) = derive_node(template, model, base, sv, &node.children[1]);
            let out = join_out_rows(template, lr, rr, edges);
            (out, lc + rc + model.merge_join(lr, rr, out))
        }
        PlanOp::IndexNlj {
            inner,
            seek_edge,
            edges,
        } => {
            let (or, oc) = derive_node(template, model, base, sv, &node.children[0]);
            let t = &template.relations[*inner].table;
            let n_inner = t.row_count as f64;
            let lookup = n_inner * template.join_edges[*seek_edge].selectivity;
            // Residuals: the inner relation's own predicates plus any
            // crossing edges other than the seek edge.
            let residual = base.pred_count[*inner] + edges.len().saturating_sub(1);
            let out = join_out_rows(template, or, base.base_rows[*inner], edges);
            (
                out,
                oc + model.index_nlj(or, n_inner, lookup, residual, out),
            )
        }
        PlanOp::HashAggregate => {
            let (ir, ic) = derive_node(template, model, base, sv, &node.children[0]);
            let groups = agg_groups(template, ir);
            (groups, ic + model.hash_aggregate(ir, groups))
        }
        PlanOp::StreamAggregate => {
            let (ir, ic) = derive_node(template, model, base, sv, &node.children[0]);
            let groups = agg_groups(template, ir);
            (groups, ic + model.stream_aggregate(ir, groups))
        }
        PlanOp::Sort { .. } => {
            let (ir, ic) = derive_node(template, model, base, sv, &node.children[0]);
            (ir, ic + model.sort(ir))
        }
    }
}

// Note: join and aggregate cardinalities are *not* floored — they must stay
// pure products so that the optimizer's subset cardinalities factorize
// identically over every join split (only base relations are floored).
fn join_out_rows(template: &QueryTemplate, left: f64, right: f64, edges: &[usize]) -> f64 {
    let sel: f64 = edges
        .iter()
        .map(|&e| template.join_edges[e].selectivity)
        .product();
    left * right * sel
}

fn agg_groups(template: &QueryTemplate, in_rows: f64) -> f64 {
    let g = template.aggregate.as_ref().map(|a| a.groups).unwrap_or(1.0);
    g.min(in_rows)
}

/// The Recost API: cost of the frozen `plan` at the selectivities `sv`.
///
/// One linear pass over the plan's postorder arena. Performs the same
/// arithmetic in the same order as the recursive [`derive_node`] walk, so
/// the result is bit-identical to [`recost_tree`].
pub fn recost(template: &QueryTemplate, model: &CostModel, plan: &Plan, sv: &SVector) -> f64 {
    let base = BaseDerivation::new(template, sv);
    let mut stack: Vec<(f64, f64)> = Vec::with_capacity(plan.size());
    recost_arena(template, model, &base, sv, plan.nodes(), &mut stack)
}

/// [`recost`] over the base derivation `scratch` already holds for `sv`
/// ([`BaseConsts::derive_fresh`]) and its value stack: the same pass and the
/// same bits, without the per-call vectors. The optimizer prices its winner
/// with this.
pub(crate) fn recost_derived(
    template: &QueryTemplate,
    model: &CostModel,
    plan: &Plan,
    sv: &SVector,
    scratch: &mut RecostScratch,
) -> f64 {
    recost_arena(
        template,
        model,
        &scratch.base,
        sv,
        plan.nodes(),
        &mut scratch.stack,
    )
}

/// Legacy reference: cost of a boxed plan tree at `sv`, via the recursive
/// walk. Kept for equivalence testing and benchmarking against [`recost`].
pub fn recost_tree(
    template: &QueryTemplate,
    model: &CostModel,
    root: &PlanNode,
    sv: &SVector,
) -> f64 {
    let base = BaseDerivation::new(template, sv);
    derive_node(template, model, &base, sv, root).1
}

/// Stack-machine evaluation of a postorder arena. Each node pops its
/// children's `(rows, cost)` pairs and pushes its own; the formulas (and
/// therefore the float results) are exactly those of [`derive_node`].
fn recost_arena(
    template: &QueryTemplate,
    model: &CostModel,
    base: &BaseDerivation,
    sv: &SVector,
    nodes: &[ArenaNode],
    stack: &mut Vec<(f64, f64)>,
) -> f64 {
    stack.clear();
    for node in nodes {
        let entry = match &node.op {
            PlanOp::SeqScan { relation } => {
                let t = &template.relations[*relation].table;
                let cost = model.seq_scan(
                    t.page_count as f64,
                    t.row_count as f64,
                    base.pred_count[*relation],
                );
                (base.base_rows[*relation], cost)
            }
            PlanOp::IndexSeek {
                relation,
                seek_pred,
            } => {
                let t = &template.relations[*relation].table;
                let fetch = (t.row_count as f64 * sv.get(*seek_pred)).max(MIN_ROWS);
                let residual = base.pred_count[*relation].saturating_sub(1);
                let cost = model.index_seek(t.row_count as f64, fetch, residual);
                (base.base_rows[*relation], cost)
            }
            PlanOp::SortedIndexScan { relation, .. } => {
                let t = &template.relations[*relation].table;
                let cost = model.sorted_index_scan(
                    t.page_count as f64,
                    t.row_count as f64,
                    base.pred_count[*relation],
                );
                (base.base_rows[*relation], cost)
            }
            PlanOp::HashJoin { build_left, edges } => {
                let (rr, rc) = stack.pop().expect("arena stack underflow");
                let (lr, lc) = stack.pop().expect("arena stack underflow");
                let out = join_out_rows(template, lr, rr, edges);
                let (b, p) = if *build_left { (lr, rr) } else { (rr, lr) };
                (out, lc + rc + model.hash_join(b, p, out))
            }
            PlanOp::MergeJoin { edges, .. } => {
                let (rr, rc) = stack.pop().expect("arena stack underflow");
                let (lr, lc) = stack.pop().expect("arena stack underflow");
                let out = join_out_rows(template, lr, rr, edges);
                (out, lc + rc + model.merge_join(lr, rr, out))
            }
            PlanOp::IndexNlj {
                inner,
                seek_edge,
                edges,
            } => {
                let (or, oc) = stack.pop().expect("arena stack underflow");
                let t = &template.relations[*inner].table;
                let n_inner = t.row_count as f64;
                let lookup = n_inner * template.join_edges[*seek_edge].selectivity;
                let residual = base.pred_count[*inner] + edges.len().saturating_sub(1);
                let out = join_out_rows(template, or, base.base_rows[*inner], edges);
                (
                    out,
                    oc + model.index_nlj(or, n_inner, lookup, residual, out),
                )
            }
            PlanOp::HashAggregate => {
                let (ir, ic) = stack.pop().expect("arena stack underflow");
                let groups = agg_groups(template, ir);
                (groups, ic + model.hash_aggregate(ir, groups))
            }
            PlanOp::StreamAggregate => {
                let (ir, ic) = stack.pop().expect("arena stack underflow");
                let groups = agg_groups(template, ir);
                (groups, ic + model.stream_aggregate(ir, groups))
            }
            PlanOp::Sort { .. } => {
                let (ir, ic) = stack.pop().expect("arena stack underflow");
                (ir, ic + model.sort(ir))
            }
        };
        stack.push(entry);
    }
    let (_, cost) = stack.pop().expect("arena encodes at least one node");
    debug_assert!(stack.is_empty(), "arena must encode exactly one tree");
    cost
}

/// Selectivity-independent base-relation constants of one template,
/// computed once and shared by every prepared recost of that template.
///
/// Holds everything [`BaseDerivation::new`] reads from the template, laid
/// out per relation so a delta update can re-derive exactly the relations
/// whose sVector dimensions changed — with the same multiplication order as
/// the full derivation, so results stay bit-identical.
#[derive(Debug, Clone)]
pub struct BaseConsts {
    /// Per relation: its param-predicate dimension indices, ascending (the
    /// order `BaseDerivation::new` multiplies them in).
    rel_dims: Vec<Vec<u32>>,
    /// Per relation: its fixed-predicate selectivities, in template order.
    rel_fixed: Vec<Vec<f64>>,
    /// Per relation: `row_count as f64`.
    row_count: Vec<f64>,
    /// Per relation: number of (param + fixed) predicates — static.
    pred_count: Vec<usize>,
    /// Per dimension: the relation its predicate filters.
    dim_rel: Vec<u32>,
}

impl BaseConsts {
    /// Extract the static quantities from `template`.
    pub fn new(template: &QueryTemplate) -> Self {
        let n = template.num_relations();
        let mut rel_dims = vec![Vec::new(); n];
        let mut rel_fixed = vec![Vec::new(); n];
        let mut pred_count = vec![0usize; n];
        let mut dim_rel = Vec::with_capacity(template.dimensions());
        for (i, p) in template.param_preds.iter().enumerate() {
            rel_dims[p.relation].push(i as u32);
            pred_count[p.relation] += 1;
            dim_rel.push(p.relation as u32);
        }
        for p in &template.fixed_preds {
            rel_fixed[p.relation].push(p.selectivity);
            pred_count[p.relation] += 1;
        }
        let row_count = template
            .relations
            .iter()
            .map(|r| r.table.row_count as f64)
            .collect();
        BaseConsts {
            rel_dims,
            rel_fixed,
            row_count,
            pred_count,
            dim_rel,
        }
    }

    /// Number of sVector dimensions.
    pub fn dimensions(&self) -> usize {
        self.dim_rel.len()
    }

    /// Per relation: number of (param + fixed) predicates.
    pub(crate) fn pred_count(&self) -> &[usize] {
        &self.pred_count
    }

    /// Re-derive relation `r` of `base` from scratch. Reproduces the exact
    /// per-relation multiplication sequence of [`BaseDerivation::new`]
    /// (param selectivities in ascending dimension order, then fixed
    /// selectivities in template order), so the result is bit-identical.
    fn derive_relation(&self, r: usize, sv: &SVector, base: &mut BaseDerivation) {
        let mut sel = 1.0f64;
        for &d in &self.rel_dims[r] {
            sel *= sv.get(d as usize);
        }
        for &f in &self.rel_fixed[r] {
            sel *= f;
        }
        base.base_sel[r] = sel;
        base.base_rows[r] = (self.row_count[r] * sel).max(MIN_ROWS);
    }

    /// Bring `scratch.base` up to date for `sv`, re-deriving as little as
    /// possible. Returns with `scratch.sv_key` holding `sv`'s bit pattern.
    ///
    /// * same bits as last call — nothing to do;
    /// * same arity, some dimensions changed — re-derive only the relations
    ///   those dimensions filter;
    /// * different arity (first use, or scratch shared across templates) —
    ///   full derivation.
    fn update_scratch(&self, sv: &SVector, scratch: &mut RecostScratch) {
        assert_eq!(sv.len(), self.dimensions(), "sVector arity mismatch");
        if scratch.sv_key.len() == sv.len() && scratch.base.base_sel.len() == self.row_count.len() {
            let mut dirty = 0u32;
            for (i, key) in scratch.sv_key.iter_mut().enumerate() {
                let bits = sv.get(i).to_bits();
                if *key != bits {
                    *key = bits;
                    dirty |= 1u32 << self.dim_rel[i];
                }
            }
            if dirty == 0 {
                return;
            }
            let mut rels = dirty;
            while rels != 0 {
                let r = rels.trailing_zeros() as usize;
                rels &= rels - 1;
                self.derive_relation(r, sv, &mut scratch.base);
            }
            return;
        }
        let n = self.row_count.len();
        scratch.base.base_sel.resize(n, 1.0);
        scratch.base.base_rows.resize(n, 0.0);
        scratch.base.pred_count.clear();
        scratch.base.pred_count.extend_from_slice(&self.pred_count);
        for r in 0..n {
            self.derive_relation(r, sv, &mut scratch.base);
        }
        scratch.sv_key.clear();
        scratch
            .sv_key
            .extend((0..sv.len()).map(|i| sv.get(i).to_bits()));
    }

    /// The full derivation for `sv` into `scratch`, whatever it last held
    /// (it may have served another template of this arity); returns its
    /// `base_rows`.
    pub(crate) fn derive_fresh<'a>(
        &self,
        sv: &SVector,
        scratch: &'a mut RecostScratch,
    ) -> &'a [f64] {
        scratch.invalidate();
        self.update_scratch(sv, scratch);
        &scratch.base.base_rows
    }
}

/// Caller-owned reusable state for [`recost_prepared`]: the incrementally
/// maintained [`BaseDerivation`], the bit pattern of the sVector it was
/// derived for, and the operator value stack. Reusing one scratch across
/// calls makes the prepared path allocation-free and enables delta
/// re-derivation when consecutive sVectors share dimensions.
#[derive(Debug, Default)]
pub struct RecostScratch {
    base: BaseDerivation,
    sv_key: Vec<u64>,
    stack: Vec<(f64, f64)>,
}

impl RecostScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Invalidate the cached base derivation (e.g. when the scratch is
    /// about to be reused against a different template).
    pub fn invalidate(&mut self) {
        self.sv_key.clear();
        self.base.base_sel.clear();
    }
}

/// One operator of a [`PreparedRecost`], with every selectivity-independent
/// quantity folded in. Constants are computed with exactly the arithmetic
/// (and associativity) of the corresponding [`CostModel`] formula, so
/// evaluation is bit-identical to the unprepared paths.
#[derive(Debug, Clone)]
enum PreparedNode {
    /// SeqScan / SortedIndexScan: cost is fully static; rows come from the
    /// base derivation.
    Scan {
        rel: u32,
        cost: f64,
    },
    /// IndexSeek: `cost = konst + fetch · per_fetch` with
    /// `fetch = (table_rows · sv[dim]).max(MIN_ROWS)`.
    IndexSeek {
        rel: u32,
        dim: u32,
        table_rows: f64,
        konst: f64,
        per_fetch: f64,
    },
    /// HashJoin: `edge_sel` is the precomputed product of its edges'
    /// selectivities; spill branch stays in the model call.
    HashJoin {
        build_left: bool,
        edge_sel: f64,
    },
    /// MergeJoin: as HashJoin, without a build side.
    MergeJoin {
        edge_sel: f64,
    },
    /// IndexNlj: `cost = op_startup + outer · per_outer + out · cpu_tuple`.
    IndexNlj {
        inner: u32,
        edge_sel: f64,
        per_outer: f64,
    },
    /// Aggregates: `groups` is the template's static group estimate
    /// (clamped by input rows at evaluation).
    HashAggregate {
        groups: f64,
    },
    StreamAggregate {
        groups: f64,
    },
    Sort,
}

/// A plan compiled for repeated re-costing: the postorder arena with all
/// selectivity-independent work hoisted out. Built once when a plan enters
/// the cache; evaluated with [`recost_prepared`].
#[derive(Debug, Clone)]
pub struct PreparedRecost {
    nodes: Vec<PreparedNode>,
}

impl PreparedRecost {
    /// Compile `plan` against `template`, its `consts` and `model`.
    pub fn new(
        template: &QueryTemplate,
        model: &CostModel,
        consts: &BaseConsts,
        plan: &Plan,
    ) -> Self {
        let pred_count = consts.pred_count();
        let edge_sel = |edges: &[usize]| -> f64 {
            edges
                .iter()
                .map(|&e| template.join_edges[e].selectivity)
                .product()
        };
        let groups = template.aggregate.as_ref().map(|a| a.groups).unwrap_or(1.0);
        let nodes = plan
            .nodes()
            .iter()
            .map(|node| match &node.op {
                PlanOp::SeqScan { relation } => {
                    let t = &template.relations[*relation].table;
                    PreparedNode::Scan {
                        rel: *relation as u32,
                        cost: model.seq_scan(
                            t.page_count as f64,
                            t.row_count as f64,
                            pred_count[*relation],
                        ),
                    }
                }
                PlanOp::IndexSeek {
                    relation,
                    seek_pred,
                } => {
                    let t = &template.relations[*relation].table;
                    let table_rows = t.row_count as f64;
                    let residual = pred_count[*relation].saturating_sub(1);
                    let (konst, per_fetch) = model.index_seek_consts(table_rows, residual);
                    PreparedNode::IndexSeek {
                        rel: *relation as u32,
                        dim: *seek_pred as u32,
                        table_rows,
                        konst,
                        per_fetch,
                    }
                }
                PlanOp::SortedIndexScan { relation, .. } => {
                    let t = &template.relations[*relation].table;
                    PreparedNode::Scan {
                        rel: *relation as u32,
                        cost: model.sorted_index_scan(
                            t.page_count as f64,
                            t.row_count as f64,
                            pred_count[*relation],
                        ),
                    }
                }
                PlanOp::HashJoin { build_left, edges } => PreparedNode::HashJoin {
                    build_left: *build_left,
                    edge_sel: edge_sel(edges),
                },
                PlanOp::MergeJoin { edges, .. } => PreparedNode::MergeJoin {
                    edge_sel: edge_sel(edges),
                },
                PlanOp::IndexNlj {
                    inner,
                    seek_edge,
                    edges,
                } => {
                    let t = &template.relations[*inner].table;
                    let n_inner = t.row_count as f64;
                    let lookup = n_inner * template.join_edges[*seek_edge].selectivity;
                    let residual = pred_count[*inner] + edges.len().saturating_sub(1);
                    let per_outer = model.index_nlj_per_outer(n_inner, lookup, residual);
                    PreparedNode::IndexNlj {
                        inner: *inner as u32,
                        edge_sel: edge_sel(edges),
                        per_outer,
                    }
                }
                PlanOp::HashAggregate => PreparedNode::HashAggregate { groups },
                PlanOp::StreamAggregate => PreparedNode::StreamAggregate { groups },
                PlanOp::Sort { .. } => PreparedNode::Sort,
            })
            .collect();
        PreparedRecost { nodes }
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the prepared plan is empty (it never is for a valid plan).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Rough heap footprint in bytes, for cache memory accounting.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.nodes.capacity() * std::mem::size_of::<PreparedNode>()
    }
}

/// Evaluate a prepared plan at `sv`, reusing `scratch` across calls.
///
/// The base derivation inside `scratch` is updated incrementally: only the
/// relations filtered by sVector dimensions whose value actually changed
/// since the last call are re-derived (the delta-recost path — free when
/// consecutive calls share the sVector, as in the cost check's candidate
/// loop). Results are bit-identical to [`recost`] and [`recost_tree`].
pub fn recost_prepared(
    consts: &BaseConsts,
    model: &CostModel,
    prepared: &PreparedRecost,
    sv: &SVector,
    scratch: &mut RecostScratch,
) -> f64 {
    consts.update_scratch(sv, scratch);
    let base = &scratch.base;
    let stack = &mut scratch.stack;
    stack.clear();
    for node in &prepared.nodes {
        let entry = match node {
            PreparedNode::Scan { rel, cost } => (base.base_rows[*rel as usize], *cost),
            PreparedNode::IndexSeek {
                rel,
                dim,
                table_rows,
                konst,
                per_fetch,
            } => {
                let fetch = (table_rows * sv.get(*dim as usize)).max(MIN_ROWS);
                (base.base_rows[*rel as usize], konst + fetch * per_fetch)
            }
            PreparedNode::HashJoin {
                build_left,
                edge_sel,
            } => {
                let (rr, rc) = stack.pop().expect("prepared stack underflow");
                let (lr, lc) = stack.pop().expect("prepared stack underflow");
                let out = lr * rr * edge_sel;
                let (b, p) = if *build_left { (lr, rr) } else { (rr, lr) };
                (out, lc + rc + model.hash_join(b, p, out))
            }
            PreparedNode::MergeJoin { edge_sel } => {
                let (rr, rc) = stack.pop().expect("prepared stack underflow");
                let (lr, lc) = stack.pop().expect("prepared stack underflow");
                let out = lr * rr * edge_sel;
                (out, lc + rc + model.merge_join(lr, rr, out))
            }
            PreparedNode::IndexNlj {
                inner,
                edge_sel,
                per_outer,
            } => {
                let (or, oc) = stack.pop().expect("prepared stack underflow");
                let out = or * base.base_rows[*inner as usize] * edge_sel;
                (out, oc + model.index_nlj_folded(or, *per_outer, out))
            }
            PreparedNode::HashAggregate { groups } => {
                let (ir, ic) = stack.pop().expect("prepared stack underflow");
                let g = groups.min(ir);
                (g, ic + model.hash_aggregate(ir, g))
            }
            PreparedNode::StreamAggregate { groups } => {
                let (ir, ic) = stack.pop().expect("prepared stack underflow");
                let g = groups.min(ir);
                (g, ic + model.stream_aggregate(ir, g))
            }
            PreparedNode::Sort => {
                let (ir, ic) = stack.pop().expect("prepared stack underflow");
                (ir, ic + model.sort(ir))
            }
        };
        stack.push(entry);
    }
    let (_, cost) = stack.pop().expect("prepared plan is non-empty");
    debug_assert!(stack.is_empty(), "prepared arena must encode one tree");
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plan, PlanNode, PlanOp};
    use crate::svector::{compute_svector, instance_for_target};
    use crate::template::test_fixtures;

    fn sv_for(template: &QueryTemplate, target: &[f64]) -> SVector {
        compute_svector(template, &instance_for_target(template, target))
    }

    #[test]
    fn base_derivation_multiplies_predicates() {
        let t = test_fixtures::two_dim();
        let sv = SVector(vec![0.1, 0.2]);
        let base = BaseDerivation::new(&t, &sv);
        assert!((base.base_sel[0] - 0.1).abs() < 1e-12);
        assert!((base.base_sel[1] - 0.2).abs() < 1e-12);
        assert!((base.base_rows[0] - 150_000.0).abs() < 1.0); // 1.5M * 0.1
        assert_eq!(base.pred_count, vec![1, 1]);
    }

    #[test]
    fn seq_scan_cost_is_selectivity_independent_but_rows_are_not() {
        let t = test_fixtures::one_rel();
        let model = CostModel::default();
        let plan = Plan::new(PlanNode::leaf(PlanOp::SeqScan { relation: 0 }));
        let lo = recost(&t, &model, &plan, &SVector(vec![0.01]));
        let hi = recost(&t, &model, &plan, &SVector(vec![0.9]));
        assert_eq!(lo, hi, "scan reads the whole table either way");
        let base_lo = BaseDerivation::new(&t, &SVector(vec![0.01]));
        let base_hi = BaseDerivation::new(&t, &SVector(vec![0.9]));
        assert!(base_hi.base_rows[0] > base_lo.base_rows[0]);
    }

    #[test]
    fn index_seek_cost_grows_linearly_with_seek_selectivity() {
        let t = test_fixtures::one_rel();
        let model = CostModel::default();
        let plan = Plan::new(PlanNode::leaf(PlanOp::IndexSeek {
            relation: 0,
            seek_pred: 0,
        }));
        let c1 = recost(&t, &model, &plan, &SVector(vec![0.01]));
        let c2 = recost(&t, &model, &plan, &SVector(vec![0.02]));
        let c4 = recost(&t, &model, &plan, &SVector(vec![0.04]));
        // Slope doubles (modulo the additive startup term).
        assert!(c2 < 2.0 * c1);
        assert!(c4 - c2 > (c2 - c1) * 1.9);
    }

    #[test]
    fn hash_join_plan_recosts_consistently() {
        let t = test_fixtures::two_dim();
        let model = CostModel::default();
        let join = PlanNode::internal(
            PlanOp::HashJoin {
                build_left: true,
                edges: vec![0],
            },
            vec![
                PlanNode::leaf(PlanOp::SeqScan { relation: 0 }),
                PlanNode::leaf(PlanOp::SeqScan { relation: 1 }),
            ],
        );
        let plan = Plan::new(PlanNode::internal(PlanOp::HashAggregate, vec![join]));
        let sv = sv_for(&t, &[0.1, 0.1]);
        let c = recost(&t, &model, &plan, &sv);
        assert!(c.is_finite() && c > 0.0);
        // Monotone in each dimension (PCM).
        let c_hi = recost(&t, &model, &plan, &sv_for(&t, &[0.5, 0.1]));
        assert!(c_hi >= c);
    }

    #[test]
    fn index_nlj_out_rows_match_hash_join_out_rows() {
        // Cardinality is a logical property: independent of the operator.
        let t = test_fixtures::two_dim();
        let model = CostModel::default();
        let sv = sv_for(&t, &[0.05, 0.2]);
        let base = BaseDerivation::new(&t, &sv);
        let hj = PlanNode::internal(
            PlanOp::HashJoin {
                build_left: true,
                edges: vec![0],
            },
            vec![
                PlanNode::leaf(PlanOp::SeqScan { relation: 0 }),
                PlanNode::leaf(PlanOp::SeqScan { relation: 1 }),
            ],
        );
        let nlj = PlanNode::internal(
            PlanOp::IndexNlj {
                inner: 1,
                seek_edge: 0,
                edges: vec![0],
            },
            vec![PlanNode::leaf(PlanOp::SeqScan { relation: 0 })],
        );
        let (hj_rows, _) = derive_node(&t, &model, &base, &sv, &hj);
        let (nlj_rows, _) = derive_node(&t, &model, &base, &sv, &nlj);
        assert!((hj_rows - nlj_rows).abs() / hj_rows < 1e-9);
    }

    #[test]
    fn aggregate_caps_groups_at_input() {
        let t = test_fixtures::two_dim(); // groups = 100
        let model = CostModel::default();
        let tiny = SVector(vec![1e-6, 1e-6]);
        let base = BaseDerivation::new(&t, &tiny);
        let join = PlanNode::internal(
            PlanOp::HashJoin {
                build_left: true,
                edges: vec![0],
            },
            vec![
                PlanNode::leaf(PlanOp::SeqScan { relation: 0 }),
                PlanNode::leaf(PlanOp::SeqScan { relation: 1 }),
            ],
        );
        let (join_rows, _) = derive_node(&t, &model, &base, &tiny, &join);
        let agg = PlanNode::internal(PlanOp::HashAggregate, vec![join]);
        let (agg_rows, _) = derive_node(&t, &model, &base, &tiny, &agg);
        assert!(agg_rows <= join_rows.max(MIN_ROWS) + 1e-12);
        assert!(agg_rows <= 100.0);
    }

    #[test]
    fn sort_node_preserves_rows() {
        let t = test_fixtures::one_rel();
        let model = CostModel::default();
        let sv = SVector(vec![0.3]);
        let base = BaseDerivation::new(&t, &sv);
        let scan = PlanNode::leaf(PlanOp::SeqScan { relation: 0 });
        let (scan_rows, scan_cost) = derive_node(&t, &model, &base, &sv, &scan);
        let sorted = PlanNode::internal(PlanOp::Sort { key: None }, vec![scan]);
        let (rows, cost) = derive_node(&t, &model, &base, &sv, &sorted);
        assert_eq!(rows, scan_rows);
        assert!(cost > scan_cost);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let t = test_fixtures::two_dim();
        BaseDerivation::new(&t, &SVector(vec![0.5]));
    }

    /// Plans exercising every operator over the two-dim fixture.
    fn fixture_plans() -> Vec<Plan> {
        let scan = |r: usize| PlanNode::leaf(PlanOp::SeqScan { relation: r });
        let seek = PlanNode::leaf(PlanOp::IndexSeek {
            relation: 1,
            seek_pred: 1,
        });
        let sorted = |r: usize, c: usize| {
            PlanNode::leaf(PlanOp::SortedIndexScan {
                relation: r,
                column: c,
            })
        };
        vec![
            Plan::new(PlanNode::internal(
                PlanOp::HashAggregate,
                vec![PlanNode::internal(
                    PlanOp::HashJoin {
                        build_left: true,
                        edges: vec![0],
                    },
                    vec![scan(0), seek.clone()],
                )],
            )),
            Plan::new(PlanNode::internal(
                PlanOp::StreamAggregate,
                vec![PlanNode::internal(
                    PlanOp::MergeJoin {
                        merge_edge: 0,
                        edges: vec![0],
                    },
                    vec![sorted(0, 0), sorted(1, 1)],
                )],
            )),
            Plan::new(PlanNode::internal(
                PlanOp::Sort { key: None },
                vec![PlanNode::internal(
                    PlanOp::IndexNlj {
                        inner: 1,
                        seek_edge: 0,
                        edges: vec![0],
                    },
                    vec![scan(0)],
                )],
            )),
        ]
    }

    #[test]
    fn arena_recost_is_bit_identical_to_tree_walk() {
        let t = test_fixtures::two_dim();
        let model = CostModel::default();
        for plan in fixture_plans() {
            let tree = plan.to_tree();
            for target in [[0.01, 0.9], [0.5, 0.5], [0.9, 0.02]] {
                let sv = sv_for(&t, &target);
                let arena = recost(&t, &model, &plan, &sv);
                let legacy = recost_tree(&t, &model, &tree, &sv);
                assert_eq!(arena.to_bits(), legacy.to_bits());
            }
        }
    }

    #[test]
    fn prepared_recost_is_bit_identical_and_delta_safe() {
        let t = test_fixtures::two_dim();
        let model = CostModel::default();
        let consts = BaseConsts::new(&t);
        let mut scratch = RecostScratch::new();
        for plan in fixture_plans() {
            let prepared = PreparedRecost::new(&t, &model, &consts, &plan);
            assert_eq!(prepared.len(), plan.size());
            // Walk a sequence of sVectors that exercises full derivation,
            // single-dimension deltas, and exact repeats — one shared
            // scratch throughout, as the serving layer uses it.
            let targets = [
                [0.3, 0.3],
                [0.3, 0.3], // repeat: zero relations re-derived
                [0.3, 0.7], // dim 1 only
                [0.9, 0.7], // dim 0 only
                [0.1, 0.2], // both
            ];
            for target in targets {
                let sv = sv_for(&t, &target);
                let fast = recost_prepared(&consts, &model, &prepared, &sv, &mut scratch);
                let slow = recost(&t, &model, &plan, &sv);
                assert_eq!(fast.to_bits(), slow.to_bits(), "at {target:?}");
            }
        }
    }

    #[test]
    fn scratch_invalidate_forces_full_rederive() {
        let t2 = test_fixtures::two_dim();
        let t3 = test_fixtures::three_dim();
        let model = CostModel::default();
        let mut scratch = RecostScratch::new();
        let plan2 = &fixture_plans()[0];
        let c2 = BaseConsts::new(&t2);
        let prepared2 = PreparedRecost::new(&t2, &model, &c2, plan2);
        let sv2 = sv_for(&t2, &[0.4, 0.4]);
        let a = recost_prepared(&c2, &model, &prepared2, &sv2, &mut scratch);
        // Different template, different arity: scratch re-derives fully.
        let c3 = BaseConsts::new(&t3);
        let plan3 = Plan::new(PlanNode::internal(
            PlanOp::HashJoin {
                build_left: true,
                edges: vec![1],
            },
            vec![
                PlanNode::internal(
                    PlanOp::HashJoin {
                        build_left: false,
                        edges: vec![0],
                    },
                    vec![
                        PlanNode::leaf(PlanOp::SeqScan { relation: 0 }),
                        PlanNode::leaf(PlanOp::SeqScan { relation: 1 }),
                    ],
                ),
                PlanNode::leaf(PlanOp::SeqScan { relation: 2 }),
            ],
        ));
        let prepared3 = PreparedRecost::new(&t3, &model, &c3, &plan3);
        let sv3 = sv_for(&t3, &[0.2, 0.5, 0.8]);
        scratch.invalidate();
        let b = recost_prepared(&c3, &model, &prepared3, &sv3, &mut scratch);
        assert_eq!(b.to_bits(), recost(&t3, &model, &plan3, &sv3).to_bits());
        // And going back still agrees.
        scratch.invalidate();
        let a2 = recost_prepared(&c2, &model, &prepared2, &sv2, &mut scratch);
        assert_eq!(a.to_bits(), a2.to_bits());
    }
}
