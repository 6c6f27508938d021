//! Operator-at-a-time plan execution.
//!
//! A tuple of a join subtree is the combination of one row id per base
//! relation the subtree covers (`Tuples` stores them flattened). Every
//! physical operator the optimizer emits is implemented: filters are
//! applied at scans, joins match on the template's equi-join edges, sorts
//! order by their recorded key, and aggregates bucket rows into the
//! template's declared group count.
//!
//! The headline correctness property (tested below and in the integration
//! suite): **any two plans for the same template produce identical result
//! cardinalities at every instance** — plan choice changes time, never
//! answers.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use pqo_optimizer::plan::{Plan, PlanOp};
use pqo_optimizer::template::{QueryInstance, QueryTemplate, RangeOp};

use crate::data::{Database, ScaledTable};

/// Result of executing one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecResult {
    /// Output row count (groups, for aggregated queries).
    pub rows: usize,
    /// Wall-clock execution time.
    pub wall: Duration,
}

/// Materialized intermediate: one row id per covered relation, flattened
/// with stride `rels.len()`.
struct Tuples {
    rels: Vec<usize>,
    data: Vec<u32>,
}

impl Tuples {
    fn new(rels: Vec<usize>) -> Self {
        Tuples {
            rels,
            data: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        if self.rels.is_empty() {
            0
        } else {
            self.data.len() / self.rels.len()
        }
    }

    fn slot(&self, rel: usize) -> usize {
        self.rels
            .iter()
            .position(|&r| r == rel)
            .expect("relation not in tuple")
    }

    fn row(&self, tup: usize, slot: usize) -> u32 {
        self.data[tup * self.rels.len() + slot]
    }

    fn tuple(&self, tup: usize) -> &[u32] {
        let w = self.rels.len();
        &self.data[tup * w..(tup + 1) * w]
    }
}

/// Either a stream of join tuples or (after aggregation) a set of groups.
enum Stream {
    Tuples(Tuples),
    Groups(Vec<u64>),
}

impl Stream {
    fn rows(&self) -> usize {
        match self {
            Stream::Tuples(t) => t.len(),
            Stream::Groups(g) => g.len(),
        }
    }
}

struct Ctx<'a> {
    template: &'a QueryTemplate,
    instance: &'a QueryInstance,
    tables: Vec<&'a ScaledTable>,
}

impl Ctx<'_> {
    /// Every predicate on relation `rel`, applied to a base row. Fixed
    /// predicates have no physical column; they are realized as a
    /// deterministic pseudo-random filter at their declared selectivity.
    fn passes(&self, rel: usize, row: u32) -> bool {
        for (i, p) in self.template.param_preds.iter().enumerate() {
            if p.relation != rel {
                continue;
            }
            let v = self.tables[rel].value(p.column, row);
            let param = self.instance.values[i];
            let ok = match p.op {
                RangeOp::Le => v <= param,
                RangeOp::Ge => v >= param,
            };
            if !ok {
                return false;
            }
        }
        for (fi, p) in self.template.fixed_preds.iter().enumerate() {
            if p.relation != rel {
                continue;
            }
            let h = splitmix(row as u64 ^ ((rel as u64) << 32) ^ ((fi as u64) << 40));
            if (h as f64 / u64::MAX as f64) >= p.selectivity {
                return false;
            }
        }
        true
    }

    /// The column of `rel` used by join edge `e`.
    fn edge_col(&self, e: usize, rel: usize) -> usize {
        self.template.join_edges[e]
            .column_on(rel)
            .expect("edge touches relation")
    }

    /// Key value of edge `e` on whichever side lives inside `t`'s tuple.
    fn edge_key(&self, t: &Tuples, tup: usize, e: usize) -> u64 {
        let edge = &self.template.join_edges[e];
        let (rel, col) = if t.rels.contains(&edge.left.0) {
            edge.left
        } else {
            edge.right
        };
        let row = t.row(tup, t.slot(rel));
        self.tables[rel].value(col, row).to_bits()
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Execute `plan` for `instance` against `db`.
pub fn execute(
    db: &Database,
    template: &QueryTemplate,
    plan: &Plan,
    instance: &QueryInstance,
) -> ExecResult {
    assert_eq!(instance.values.len(), template.dimensions());
    let ctx = Ctx {
        template,
        instance,
        tables: template
            .relations
            .iter()
            .map(|r| db.table(&r.table.name))
            .collect(),
    };
    // A stack machine over the postorder arena: each operator pops its
    // inputs' streams and pushes its own.
    let start = Instant::now();
    let mut stack = Vec::new();
    for node in plan.nodes() {
        let out = eval(&ctx, &node.op, &mut stack);
        stack.push(out);
    }
    let out = stack.pop().expect("plan is non-empty");
    ExecResult {
        rows: out.rows(),
        wall: start.elapsed(),
    }
}

/// Pop an input that must still be join tuples.
fn pop_tuples(stack: &mut Vec<Stream>, what: &str) -> Tuples {
    match stack.pop().expect("operator input") {
        Stream::Tuples(t) => t,
        Stream::Groups(_) => panic!("{what}"),
    }
}

/// Run `op` over its inputs, the top `op.arity()` streams of `stack`.
fn eval(ctx: &Ctx<'_>, op: &PlanOp, stack: &mut Vec<Stream>) -> Stream {
    match op {
        PlanOp::SeqScan { relation } => {
            let mut t = Tuples::new(vec![*relation]);
            for row in 0..ctx.tables[*relation].rows as u32 {
                if ctx.passes(*relation, row) {
                    t.data.push(row);
                }
            }
            Stream::Tuples(t)
        }
        PlanOp::IndexSeek {
            relation,
            seek_pred,
        } => {
            let p = &ctx.template.param_preds[*seek_pred];
            let v = ctx.instance.values[*seek_pred];
            let table = ctx.tables[*relation];
            let hits = match p.op {
                RangeOp::Le => table.index_range_le(p.column, v),
                RangeOp::Ge => table.index_range_ge(p.column, v),
            };
            let mut t = Tuples::new(vec![*relation]);
            for &(_, row) in hits {
                if ctx.passes(*relation, row) {
                    t.data.push(row);
                }
            }
            Stream::Tuples(t)
        }
        PlanOp::SortedIndexScan { relation, column } => {
            let mut t = Tuples::new(vec![*relation]);
            for &(_, row) in ctx.tables[*relation].index_full(*column) {
                if ctx.passes(*relation, row) {
                    t.data.push(row);
                }
            }
            Stream::Tuples(t)
        }
        PlanOp::HashJoin { build_left, edges } => {
            let r = pop_tuples(stack, "join over groups");
            let l = pop_tuples(stack, "join over groups");
            let (build, probe) = if *build_left { (&l, &r) } else { (&r, &l) };
            let mut map: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
            for tup in 0..build.len() {
                let key: Vec<u64> = edges.iter().map(|&e| ctx.edge_key(build, tup, e)).collect();
                map.entry(key).or_default().push(tup);
            }
            let mut out = Tuples::new([l.rels.clone(), r.rels.clone()].concat());
            for ptup in 0..probe.len() {
                let key: Vec<u64> = edges
                    .iter()
                    .map(|&e| ctx.edge_key(probe, ptup, e))
                    .collect();
                if let Some(matches) = map.get(&key) {
                    for &btup in matches {
                        let (ltup, rtup) = if *build_left {
                            (btup, ptup)
                        } else {
                            (ptup, btup)
                        };
                        out.data.extend_from_slice(l.tuple(ltup));
                        out.data.extend_from_slice(r.tuple(rtup));
                    }
                }
            }
            Stream::Tuples(out)
        }
        PlanOp::MergeJoin { merge_edge, edges } => {
            let r = pop_tuples(stack, "join over groups");
            let l = pop_tuples(stack, "join over groups");
            // Children deliver rows sorted by the merge key (sorted scans,
            // Sort enforcers or lower merge joins on the same key); we sort
            // key references defensively cheaply via extracted key arrays.
            let lk: Vec<u64> = (0..l.len())
                .map(|t| ctx.edge_key(&l, t, *merge_edge))
                .collect();
            let rk: Vec<u64> = (0..r.len())
                .map(|t| ctx.edge_key(&r, t, *merge_edge))
                .collect();
            debug_assert!(is_sorted_by_f64(&lk), "merge-join left input not sorted");
            debug_assert!(is_sorted_by_f64(&rk), "merge-join right input not sorted");
            let residual: Vec<usize> = edges.iter().copied().filter(|e| e != merge_edge).collect();
            let mut out = Tuples::new([l.rels.clone(), r.rels.clone()].concat());
            let (mut i, mut j) = (0usize, 0usize);
            while i < l.len() && j < r.len() {
                let (a, b) = (f64::from_bits(lk[i]), f64::from_bits(rk[j]));
                if a < b {
                    i += 1;
                } else if a > b {
                    j += 1;
                } else {
                    // Equal-key groups: cross join, then residual edges.
                    let i_end = (i..l.len()).find(|&x| lk[x] != lk[i]).unwrap_or(l.len());
                    let j_end = (j..r.len()).find(|&x| rk[x] != rk[j]).unwrap_or(r.len());
                    for li in i..i_end {
                        for rj in j..j_end {
                            if residual
                                .iter()
                                .all(|&e| ctx.edge_key(&l, li, e) == ctx.edge_key(&r, rj, e))
                            {
                                out.data.extend_from_slice(l.tuple(li));
                                out.data.extend_from_slice(r.tuple(rj));
                            }
                        }
                    }
                    i = i_end;
                    j = j_end;
                }
            }
            Stream::Tuples(out)
        }
        PlanOp::IndexNlj {
            inner,
            seek_edge,
            edges,
        } => {
            let outer = pop_tuples(stack, "join over groups");
            let inner_col = ctx.edge_col(*seek_edge, *inner);
            let residual: Vec<usize> = edges.iter().copied().filter(|e| e != seek_edge).collect();
            let mut out = Tuples::new([outer.rels.clone(), vec![*inner]].concat());
            let table = ctx.tables[*inner];
            for tup in 0..outer.len() {
                let key = f64::from_bits(ctx.edge_key(&outer, tup, *seek_edge));
                for &(_, irow) in table.index_lookup_eq(inner_col, key) {
                    if !ctx.passes(*inner, irow) {
                        continue;
                    }
                    let residual_ok = residual.iter().all(|&e| {
                        let icol = ctx.edge_col(e, *inner);
                        ctx.edge_key(&outer, tup, e) == table.value(icol, irow).to_bits()
                    });
                    if residual_ok {
                        out.data.extend_from_slice(outer.tuple(tup));
                        out.data.push(irow);
                    }
                }
            }
            Stream::Tuples(out)
        }
        PlanOp::HashAggregate => {
            let input = pop_tuples(stack, "nested aggregate");
            let mut groups: Vec<u64> = (0..input.len()).map(|t| group_of(ctx, &input, t)).collect();
            groups.sort_unstable();
            groups.dedup();
            Stream::Groups(groups)
        }
        PlanOp::StreamAggregate => {
            let input = pop_tuples(stack, "nested aggregate");
            // Sort-based grouping: sort group keys, then a linear pass.
            let mut keys: Vec<u64> = (0..input.len()).map(|t| group_of(ctx, &input, t)).collect();
            keys.sort_unstable();
            keys.dedup();
            Stream::Groups(keys)
        }
        PlanOp::Sort { key } => match stack.pop().expect("sort input") {
            Stream::Groups(mut g) => {
                g.sort_unstable();
                Stream::Groups(g)
            }
            Stream::Tuples(t) => {
                let (rel, col) = key.unwrap_or((t.rels[0], 0));
                let slot = t.slot(rel);
                let mut order: Vec<usize> = (0..t.len()).collect();
                order.sort_by(|&a, &b| {
                    let va = ctx.tables[rel].value(col, t.row(a, slot));
                    let vb = ctx.tables[rel].value(col, t.row(b, slot));
                    va.partial_cmp(&vb).unwrap().then(a.cmp(&b))
                });
                let mut out = Tuples::new(t.rels.clone());
                out.data.reserve(t.data.len());
                for tup in order {
                    out.data.extend_from_slice(t.tuple(tup));
                }
                Stream::Tuples(out)
            }
        },
    }
}

/// Group key of a tuple: the *template's* first relation's row bucketized
/// into the declared group count. The grouping relation must be canonical
/// (independent of join order), or different plans would disagree on the
/// aggregate's output — plans may only change time, never answers.
fn group_of(ctx: &Ctx<'_>, t: &Tuples, tup: usize) -> u64 {
    let groups = ctx
        .template
        .aggregate
        .as_ref()
        .map(|a| a.groups)
        .unwrap_or(1.0) as u64;
    let rel = 0;
    let row = t.row(tup, t.slot(rel));
    splitmix(row as u64 ^ 0xA66) % groups.max(1)
}

fn is_sorted_by_f64(keys: &[u64]) -> bool {
    keys.windows(2)
        .all(|w| f64::from_bits(w[0]) <= f64::from_bits(w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqo_catalog::schemas;
    use pqo_optimizer::cost::CostModel;
    use pqo_optimizer::optimizer::optimize;
    use pqo_optimizer::svector::{compute_svector, instance_for_target};
    use pqo_optimizer::template::{QueryTemplate, TemplateBuilder};
    use std::sync::Arc;

    fn fixture() -> (Arc<QueryTemplate>, Database) {
        let cat = schemas::tpch_skew();
        let mut b = TemplateBuilder::new("exec_fixture");
        let o = b.relation(cat.expect_table("orders"), "o");
        let l = b.relation(cat.expect_table("lineitem"), "l");
        b.join((o, "orders_pk"), (l, "orders_fk"));
        b.param(o, "o_totalprice", RangeOp::Le);
        b.param(l, "l_extendedprice", RangeOp::Le);
        let t = b.build();
        let db = Database::build(&cat, 1000, 11);
        (t, db)
    }

    fn plan(ops: Vec<PlanOp>) -> Plan {
        Plan::from_postorder(ops).unwrap()
    }

    fn scan(relation: usize) -> PlanOp {
        PlanOp::SeqScan { relation }
    }

    fn sorted(relation: usize, column: usize) -> PlanOp {
        PlanOp::SortedIndexScan { relation, column }
    }

    /// The three join algorithms over orders ⨝ lineitem: hash, index-NL,
    /// and merge over sorted index scans on the edge columns (orders_pk is
    /// column 0 of orders; orders_fk is column 1 of lineitem).
    fn three_joins() -> [Plan; 3] {
        [
            plan(vec![
                scan(0),
                scan(1),
                PlanOp::HashJoin {
                    build_left: true,
                    edges: vec![0],
                },
            ]),
            plan(vec![
                scan(0),
                PlanOp::IndexNlj {
                    inner: 1,
                    seek_edge: 0,
                    edges: vec![0],
                },
            ]),
            plan(vec![
                sorted(0, 0),
                sorted(1, 1),
                PlanOp::MergeJoin {
                    merge_edge: 0,
                    edges: vec![0],
                },
            ]),
        ]
    }

    fn plan_for(t: &QueryTemplate, target: &[f64]) -> Plan {
        let sv = compute_svector(t, &instance_for_target(t, target));
        optimize(t, &CostModel::default(), &sv).plan
    }

    #[test]
    fn scan_filters_by_selectivity() {
        let (t, db) = fixture();
        let inst = instance_for_target(&t, &[0.5, 1.0]);
        let scan = plan(vec![scan(0)]);
        let r = execute(&db, &t, &scan, &inst);
        let frac = r.rows as f64 / db.table("orders").rows as f64;
        assert!((frac - 0.5).abs() < 0.08, "selectivity 0.5, got {frac}");
    }

    #[test]
    fn index_seek_equals_seq_scan_output() {
        let (t, db) = fixture();
        let inst = instance_for_target(&t, &[0.3, 1.0]);
        let scan = plan(vec![scan(0)]);
        let seek = plan(vec![PlanOp::IndexSeek {
            relation: 0,
            seek_pred: 0,
        }]);
        assert_eq!(
            execute(&db, &t, &scan, &inst).rows,
            execute(&db, &t, &seek, &inst).rows
        );
    }

    #[test]
    fn all_join_algorithms_agree_on_cardinality() {
        let (t, db) = fixture();
        let inst = instance_for_target(&t, &[0.4, 0.4]);
        let [hash, nlj, merge] = three_joins();
        let a = execute(&db, &t, &hash, &inst).rows;
        let b = execute(&db, &t, &nlj, &inst).rows;
        let c = execute(&db, &t, &merge, &inst).rows;
        assert_eq!(a, b, "hash vs index-NL join");
        assert_eq!(a, c, "hash vs merge join");
        assert!(a > 0, "the join must produce rows at 40% selectivities");
    }

    #[test]
    fn sort_enforcer_feeds_merge_join() {
        let (t, db) = fixture();
        let inst = instance_for_target(&t, &[0.4, 0.4]);
        let merge_with_sorts = plan(vec![
            scan(0),
            PlanOp::Sort { key: Some((0, 0)) },
            scan(1),
            PlanOp::Sort { key: Some((1, 1)) },
            PlanOp::MergeJoin {
                merge_edge: 0,
                edges: vec![0],
            },
        ]);
        let [hash, _, _] = three_joins();
        assert_eq!(
            execute(&db, &t, &merge_with_sorts, &inst).rows,
            execute(&db, &t, &hash, &inst).rows
        );
    }

    #[test]
    fn optimizer_plans_from_different_regions_agree_on_answers() {
        // The headline property: whatever plan the optimizer picks, the
        // answer cardinality at a given instance is identical.
        let (t, db) = fixture();
        let plans: Vec<Plan> = [[0.01, 0.01], [0.9, 0.9], [0.01, 0.9], [0.9, 0.01]]
            .iter()
            .map(|p| plan_for(&t, p))
            .collect();
        for target in [[0.05, 0.2], [0.5, 0.5]] {
            let inst = instance_for_target(&t, &target);
            let counts: Vec<usize> = plans
                .iter()
                .map(|p| execute(&db, &t, p, &inst).rows)
                .collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "plans disagree at {target:?}: {counts:?}"
            );
        }
    }

    #[test]
    fn aggregation_caps_output_at_group_count() {
        let cat = schemas::tpch_skew();
        let mut b = TemplateBuilder::new("exec_agg");
        let o = b.relation(cat.expect_table("orders"), "o");
        b.param(o, "o_totalprice", RangeOp::Le);
        b.aggregate(16.0);
        let t = b.build();
        let db = Database::build(&cat, 1000, 3);
        let inst = instance_for_target(&t, &[0.9]);
        let agg = plan(vec![scan(0), PlanOp::HashAggregate]);
        let r = execute(&db, &t, &agg, &inst);
        assert!(r.rows <= 16);
        assert!(r.rows > 1);
    }

    #[test]
    fn empty_result_at_minimal_selectivity() {
        let (t, db) = fixture();
        let inst = QueryInstance::new(vec![-1.0, -1.0]); // below every value
        let plan = plan_for(&t, &[0.01, 0.01]);
        assert_eq!(execute(&db, &t, &plan, &inst).rows, 0);
    }

    mod properties {
        use super::*;
        use pqo_rand::rngs::StdRng;
        use pqo_rand::{Rng, SeedableRng};
        use std::sync::OnceLock;

        fn shared() -> &'static (Arc<QueryTemplate>, Database) {
            static S: OnceLock<(Arc<QueryTemplate>, Database)> = OnceLock::new();
            S.get_or_init(fixture)
        }

        #[test]
        fn join_algorithms_agree_everywhere_randomized() {
            let (t, db) = shared();
            let mut rng = StdRng::seed_from_u64(0xe4ec_0001);
            for _ in 0..32 {
                let s1 = rng.gen_range(0.01..1.0);
                let s2 = rng.gen_range(0.01..1.0);
                let inst = instance_for_target(t, &[s1, s2]);
                let [hash, nlj, merge] = three_joins();
                let a = execute(db, t, &hash, &inst).rows;
                let b = execute(db, t, &nlj, &inst).rows;
                let c = execute(db, t, &merge, &inst).rows;
                assert_eq!(a, b);
                assert_eq!(a, c);
            }
        }

        #[test]
        fn scan_fraction_tracks_target_randomized() {
            let (t, db) = shared();
            let mut rng = StdRng::seed_from_u64(0xe4ec_0002);
            for _ in 0..32 {
                let target = rng.gen_range(0.05..0.95);
                let inst = instance_for_target(t, &[target, 1.0]);
                let scan = plan(vec![scan(0)]);
                let frac =
                    execute(db, t, &scan, &inst).rows as f64 / db.table("orders").rows as f64;
                assert!((frac - target).abs() < 0.1, "target {target} frac {frac}");
            }
        }

        #[test]
        fn index_access_paths_match_scan_randomized() {
            let (t, db) = shared();
            let mut rng = StdRng::seed_from_u64(0xe4ec_0003);
            for _ in 0..32 {
                let target = rng.gen_range(0.02..0.98);
                let inst = instance_for_target(t, &[target, 1.0]);
                let scan = plan(vec![scan(0)]);
                let seek = plan(vec![PlanOp::IndexSeek {
                    relation: 0,
                    seek_pred: 0,
                }]);
                // orders_pk (col 0) is indexed: ordered full scan.
                let sorted = plan(vec![sorted(0, 0)]);
                let a = execute(db, t, &scan, &inst).rows;
                assert_eq!(execute(db, t, &seek, &inst).rows, a);
                assert_eq!(execute(db, t, &sorted, &inst).rows, a);
            }
        }
    }
}
