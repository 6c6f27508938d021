//! Physical plans and structural plan identity.
//!
//! A [`Plan`] is what the plan cache stores. Two optimizer calls at different
//! query instances frequently return *structurally identical* plans; PQO
//! techniques must recognise that (the paper counts distinct plans, reuses
//! cached plans, and merges inference regions of the same plan), so every
//! plan carries a [`PlanFingerprint`] — a structural hash over operators,
//! relation indices and join order, ignoring per-instance cardinalities.
//!
//! A plan has one form, built, stored and walked alike: a postorder arena
//! (`Vec<ArenaNode>`) whose subtrees are contiguous index ranges, made by
//! [`Plan::from_postorder`] from the operators in postorder. Recost — the
//! hot path — is then one linear pass over a contiguous slice. Each operator
//! carries the logical annotations the Recost API needs (which relations it
//! covers, which join edges it applies), mirroring the paper's
//! `shrunkenMemo`: just enough of the memo to re-derive cardinality and cost
//! bottom-up, with the search space pruned away.
//!
//! A plan decoded from bytes may be as deep as its encoding is long, so
//! nothing here recurses on a plan's depth: consumers walk the arena with an
//! explicit stack.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::template::QueryTemplate;

/// Structural identity of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanFingerprint(pub u64);

impl fmt::Display for PlanFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{:08x}", self.0 >> 32 ^ self.0 & 0xffff_ffff)
    }
}

/// A physical operator. Indices reference the owning [`QueryTemplate`]:
/// `relation` into `template.relations`, `seek_pred` into
/// `template.param_preds`, edge indices into `template.join_edges`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PlanOp {
    /// Full scan of a base relation, applying all its predicates.
    SeqScan { relation: usize },
    /// Index seek on the column of parameterized predicate `seek_pred`,
    /// applying the relation's remaining predicates as residuals.
    IndexSeek { relation: usize, seek_pred: usize },
    /// Full ordered scan through the index on `column`, delivering rows
    /// sorted by that column (feeds sort-free merge joins).
    SortedIndexScan { relation: usize, column: usize },
    /// Hash join of the two children; `build_left` selects the build side.
    /// `edges` are the join edges this node applies.
    HashJoin { build_left: bool, edges: Vec<usize> },
    /// Merge join of the two children, which must already deliver rows
    /// sorted on the key of `merge_edge` (via sorted scans or explicit Sort
    /// enforcers planted by the optimizer). Remaining `edges` are applied
    /// as residual equality filters.
    MergeJoin {
        merge_edge: usize,
        edges: Vec<usize>,
    },
    /// Index nested-loops join: the single child is the outer; the inner is
    /// base relation `inner`, reached through the index on its side of
    /// `seek_edge`. Remaining crossing `edges` are applied as residuals.
    IndexNlj {
        inner: usize,
        seek_edge: usize,
        edges: Vec<usize>,
    },
    /// Hash aggregation (groups come from the template's aggregate spec).
    HashAggregate,
    /// Sort-based aggregation (includes its sort).
    StreamAggregate,
    /// Explicit sort: an interesting-order enforcer when `key` names a
    /// `(relation, column)`, or the final ORDER BY sort when `key` is
    /// `None`.
    Sort { key: Option<(usize, usize)> },
}

impl PlanOp {
    /// Number of children this operator takes (0 for scans, 1 for
    /// IndexNLJ/Sort/aggregates, 2 for hash/merge joins).
    pub fn arity(&self) -> usize {
        match self {
            PlanOp::SeqScan { .. } | PlanOp::IndexSeek { .. } | PlanOp::SortedIndexScan { .. } => 0,
            PlanOp::HashJoin { .. } | PlanOp::MergeJoin { .. } => 2,
            PlanOp::IndexNlj { .. }
            | PlanOp::HashAggregate
            | PlanOp::StreamAggregate
            | PlanOp::Sort { .. } => 1,
        }
    }

    /// Short operator name for display.
    pub fn name(&self) -> &'static str {
        match self {
            PlanOp::SeqScan { .. } => "SeqScan",
            PlanOp::IndexSeek { .. } => "IndexSeek",
            PlanOp::SortedIndexScan { .. } => "SortedIndexScan",
            PlanOp::HashJoin { .. } => "HashJoin",
            PlanOp::MergeJoin { .. } => "MergeJoin",
            PlanOp::IndexNlj { .. } => "IndexNLJ",
            PlanOp::HashAggregate => "HashAgg",
            PlanOp::StreamAggregate => "StreamAgg",
            PlanOp::Sort { .. } => "Sort",
        }
    }
}

/// One operator in a [`Plan`]'s flat arena.
///
/// Nodes are stored in postorder: every node's children precede it, and the
/// subtree rooted at node `i` occupies exactly the contiguous index range
/// `[subtree_start, i]`. The root is the last node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaNode {
    /// The operator.
    pub op: PlanOp,
    /// Index of the first node of this node's subtree. Equal to the node's
    /// own index for leaves.
    pub subtree_start: u32,
}

/// Indices of the direct children of arena node `i`, rightmost first (each
/// child's subtree ends where the next one to its right starts). At most 2;
/// none for leaves.
pub fn arena_children(nodes: &[ArenaNode], i: usize) -> impl Iterator<Item = usize> + '_ {
    let start = nodes[i].subtree_start as usize;
    let mut end = i;
    std::iter::from_fn(move || {
        (end > start).then(|| {
            let child = end - 1;
            end = nodes[child].subtree_start as usize;
            child
        })
    })
}

/// An immutable physical plan with a structural fingerprint, stored as a
/// flat postorder arena.
#[derive(Debug, Clone)]
pub struct Plan {
    nodes: Vec<ArenaNode>,
    fingerprint: PlanFingerprint,
}

impl Plan {
    /// Build a plan from its operators in postorder (children before their
    /// parent, left child first), computing each subtree's start and the
    /// fingerprint. The only constructor.
    ///
    /// # Errors
    /// An operator short of operands, an empty list, or operators that do
    /// not reduce to exactly one root.
    pub fn from_postorder(ops: Vec<PlanOp>) -> Result<Plan, String> {
        let mut nodes = Vec::with_capacity(ops.len());
        // Subtree starts of the operands not yet consumed by a parent.
        let mut open: Vec<u32> = Vec::new();
        for op in ops {
            let at = u32::try_from(nodes.len()).map_err(|_| "too many operators")?;
            let Some(first) = open.len().checked_sub(op.arity()) else {
                return Err(format!(
                    "{} at operator {at} is missing an operand",
                    op.name()
                ));
            };
            let subtree_start = open.get(first).copied().unwrap_or(at);
            open.truncate(first);
            open.push(subtree_start);
            nodes.push(ArenaNode { op, subtree_start });
        }
        if open.len() != 1 {
            return Err(format!("{} roots", open.len()));
        }
        let fingerprint = fingerprint(&nodes, open);
        Ok(Plan { nodes, fingerprint })
    }

    /// The postorder operator arena. The root is the last node.
    pub fn nodes(&self) -> &[ArenaNode] {
        &self.nodes
    }

    /// The root operator (last node of the postorder arena).
    pub fn root_op(&self) -> &PlanOp {
        &self.nodes.last().expect("plan is non-empty").op
    }

    /// Structural fingerprint.
    pub fn fingerprint(&self) -> PlanFingerprint {
        self.fingerprint
    }
    /// Number of operators.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Bitmask of relations covered by the plan.
    pub fn relation_set(&self) -> u32 {
        self.nodes.iter().fold(0, |acc, n| {
            acc | match n.op {
                PlanOp::SeqScan { relation }
                | PlanOp::IndexSeek { relation, .. }
                | PlanOp::SortedIndexScan { relation, .. } => 1u32 << relation,
                PlanOp::IndexNlj { inner, .. } => 1u32 << inner,
                _ => 0,
            }
        })
    }

    /// Check every index the plan carries against `template`: relations,
    /// seek predicates, join edges and `(relation, column)` pairs all in
    /// range. A plan decoded from bytes
    /// ([`crate::compact::CompactPlan::checked_decode`]) is a well-formed
    /// tree but may name anything, and Recost, display and execution index
    /// the template by these values.
    ///
    /// # Errors
    /// A description of the first out-of-range index.
    pub fn check_template(&self, template: &QueryTemplate) -> Result<(), String> {
        let in_range = |what: &str, i: usize, n: usize| {
            if i < n {
                Ok(())
            } else {
                Err(format!("{what} {i} of {n}"))
            }
        };
        let relation = |r: usize| in_range("relation", r, template.relations.len());
        let column = |r: usize, c: usize| {
            relation(r)?;
            in_range("column", c, template.relations[r].table.columns.len())
        };
        let edges = |es: &[usize]| {
            es.iter()
                .try_for_each(|&e| in_range("join edge", e, template.join_edges.len()))
        };
        for node in &self.nodes {
            match &node.op {
                PlanOp::SeqScan { relation: r } => relation(*r)?,
                PlanOp::IndexSeek {
                    relation: r,
                    seek_pred,
                } => {
                    relation(*r)?;
                    in_range("seek predicate", *seek_pred, template.param_preds.len())?;
                }
                PlanOp::SortedIndexScan {
                    relation: r,
                    column: c,
                }
                | PlanOp::Sort { key: Some((r, c)) } => column(*r, *c)?,
                PlanOp::HashJoin { edges: es, .. } => edges(es)?,
                PlanOp::MergeJoin {
                    merge_edge: e,
                    edges: es,
                } => {
                    edges(&[*e])?;
                    edges(es)?;
                }
                PlanOp::IndexNlj {
                    inner,
                    seek_edge: e,
                    edges: es,
                } => {
                    relation(*inner)?;
                    edges(&[*e])?;
                    edges(es)?;
                }
                PlanOp::Sort { key: None } | PlanOp::HashAggregate | PlanOp::StreamAggregate => {}
            }
        }
        Ok(())
    }

    /// Render the plan as an indented operator tree, resolving relation
    /// aliases through `template`.
    pub fn display<'a>(&'a self, template: &'a QueryTemplate) -> PlanDisplay<'a> {
        PlanDisplay {
            plan: self,
            template,
        }
    }
}

impl PartialEq for Plan {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint
    }
}
impl Eq for Plan {}

/// Helper returned by [`Plan::display`].
pub struct PlanDisplay<'a> {
    plan: &'a Plan,
    template: &'a QueryTemplate,
}

impl fmt::Display for PlanDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan {}:", self.plan.fingerprint())?;
        let template = self.template;
        let alias = |r: usize| &template.relations[r].alias;
        let nodes = self.plan.nodes();
        // Preorder with an explicit stack: a node, then its children left
        // to right, each one level deeper.
        let mut todo = vec![(nodes.len() - 1, 1usize)];
        while let Some((i, depth)) = todo.pop() {
            let pad = &INDENT[..2 * depth.min(INDENT.len() / 2)];
            match &nodes[i].op {
                PlanOp::SeqScan { relation } => writeln!(f, "{pad}SeqScan({})", alias(*relation))?,
                PlanOp::IndexSeek {
                    relation,
                    seek_pred,
                } => {
                    let p = &template.param_preds[*seek_pred];
                    let col = &template.relations[p.relation].table.columns[p.column].name;
                    writeln!(f, "{pad}IndexSeek({} on {})", alias(*relation), col)?;
                }
                PlanOp::SortedIndexScan { relation, column } => {
                    let col = &template.relations[*relation].table.columns[*column].name;
                    writeln!(f, "{pad}SortedIndexScan({} by {})", alias(*relation), col)?;
                }
                PlanOp::HashJoin { build_left, .. } => writeln!(
                    f,
                    "{pad}HashJoin(build={})",
                    if *build_left { "left" } else { "right" }
                )?,
                PlanOp::MergeJoin { merge_edge, .. } => {
                    let e = &template.join_edges[*merge_edge];
                    let col = &template.relations[e.left.0].table.columns[e.left.1].name;
                    writeln!(f, "{pad}MergeJoin(on {}.{})", alias(e.left.0), col)?;
                }
                PlanOp::IndexNlj { inner, .. } => {
                    writeln!(f, "{pad}IndexNLJ(inner={})", alias(*inner))?
                }
                PlanOp::HashAggregate => writeln!(f, "{pad}HashAgg")?,
                PlanOp::StreamAggregate => writeln!(f, "{pad}StreamAgg")?,
                PlanOp::Sort { key: None } => writeln!(f, "{pad}Sort(order by)")?,
                PlanOp::Sort { key: Some((r, c)) } => {
                    let col = &template.relations[*r].table.columns[*c].name;
                    writeln!(f, "{pad}Sort({}.{})", alias(*r), col)?;
                }
            }
            todo.extend(arena_children(nodes, i).map(|c| (c, depth + 1)));
        }
        Ok(())
    }
}

/// Indentation of [`PlanDisplay`]: two spaces a level, growing no further
/// than 64 levels — deeper than any plan the optimizer builds, so only a
/// crafted plan is affected, and it renders in size linear in its length.
const INDENT: &str = concat!(
    "                                                                ",
    "                                                                "
);

/// The fingerprint of a postorder arena: FNV-1a over its nodes in preorder,
/// each node's [`PlanOp`] then its arity as a `usize` — the bytes the
/// derived `Hash` of a boxed `{ op, children: Vec<_> }` tree feeds, which
/// is what the fingerprints in existing cache files and replication streams
/// were computed with (`tests::fingerprints_are_pinned` holds them). `todo`
/// is any spare stack; it is cleared first.
fn fingerprint(nodes: &[ArenaNode], mut todo: Vec<u32>) -> PlanFingerprint {
    let mut h = Fnv64::new();
    todo.clear();
    todo.push(nodes.len() as u32 - 1);
    while let Some(i) = todo.pop() {
        let op = &nodes[i as usize].op;
        op.hash(&mut h);
        h.write_usize(op.arity());
        // Rightmost child pushed first, so the leftmost is hashed next.
        todo.extend(arena_children(nodes, i as usize).map(|c| c as u32));
    }
    PlanFingerprint(h.finish())
}

/// Minimal FNV-1a hasher, so fingerprints are stable across runs and
/// platforms (std's `DefaultHasher` makes no such promise).
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(ops: Vec<PlanOp>) -> Plan {
        Plan::from_postorder(ops).unwrap()
    }

    fn scan(relation: usize) -> PlanOp {
        PlanOp::SeqScan { relation }
    }

    fn hash(build_left: bool, edges: Vec<usize>) -> PlanOp {
        PlanOp::HashJoin { build_left, edges }
    }

    #[test]
    fn from_postorder_rejects_what_is_not_one_tree() {
        for (ops, what) in [
            (vec![], "0 roots"),
            (vec![scan(0), scan(1)], "2 roots"),
            (
                vec![scan(0), hash(true, vec![0])],
                "HashJoin at operator 1 is missing",
            ),
            (
                vec![PlanOp::Sort { key: None }],
                "Sort at operator 0 is missing",
            ),
        ] {
            let err = Plan::from_postorder(ops).unwrap_err();
            assert!(err.starts_with(what), "{err}");
        }
    }

    #[test]
    fn check_template_names_the_out_of_range_index() {
        // two_dim(): 2 relations, 1 join edge, 2 parameterized predicates.
        let t = crate::template::test_fixtures::two_dim();
        let ok = plan(vec![scan(0), scan(1), hash(true, vec![0])]);
        assert_eq!(ok.check_template(&t), Ok(()));
        for (ops, what) in [
            (vec![scan(2)], "relation 2 of 2"),
            (
                vec![PlanOp::IndexSeek {
                    relation: 0,
                    seek_pred: 2,
                }],
                "seek predicate 2 of 2",
            ),
            (
                vec![PlanOp::SortedIndexScan {
                    relation: 1,
                    column: 999,
                }],
                "column 999 of",
            ),
            (
                vec![scan(0), scan(1), hash(true, vec![0, 1])],
                "join edge 1 of 1",
            ),
            (
                vec![scan(0), PlanOp::Sort { key: Some((5, 0)) }],
                "relation 5 of 2",
            ),
        ] {
            let err = plan(ops).check_template(&t).unwrap_err();
            assert!(err.starts_with(what), "{err}");
        }
    }

    #[test]
    fn identical_structures_share_fingerprints() {
        let a = plan(vec![scan(0), scan(1), hash(true, vec![0])]);
        let b = plan(vec![scan(0), scan(1), hash(true, vec![0])]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }

    #[test]
    fn different_structures_differ() {
        let a = plan(vec![scan(0), scan(1), hash(true, vec![0])]);
        let b = plan(vec![scan(0), scan(1), hash(false, vec![0])]);
        let c = plan(vec![scan(1), scan(0), hash(true, vec![0])]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn scan_choice_changes_fingerprint() {
        let a = plan(vec![scan(0)]);
        let b = plan(vec![PlanOp::IndexSeek {
            relation: 0,
            seek_pred: 0,
        }]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprints_are_pinned() {
        let scan = |relation| PlanOp::SeqScan { relation };
        let seek = |relation, seek_pred| PlanOp::IndexSeek {
            relation,
            seek_pred,
        };
        let sorted = |relation, column| PlanOp::SortedIndexScan { relation, column };
        let hash = |build_left, edges| PlanOp::HashJoin { build_left, edges };
        let nlj = |inner, seek_edge, edges| PlanOp::IndexNlj {
            inner,
            seek_edge,
            edges,
        };
        let plans = [
            (vec![scan(0)], 0x81d2_3fd7_003c_2305),
            (vec![seek(1, 2)], 0xcbcd_325d_8e28_d007),
            (vec![sorted(0, 3)], 0x2a39_34ed_5a38_2de4),
            (
                vec![scan(0), scan(1), hash(true, vec![0])],
                0xd2dd_f04f_2b98_4c07,
            ),
            (
                vec![scan(1), seek(0, 0), hash(false, vec![])],
                0xf5c8_e3db_c51b_1650,
            ),
            (
                vec![
                    scan(0),
                    PlanOp::Sort { key: Some((0, 1)) },
                    sorted(1, 1),
                    PlanOp::MergeJoin {
                        merge_edge: 1,
                        edges: vec![1, 2, 0],
                    },
                ],
                0x8008_e9cb_784d_dd49,
            ),
            (
                vec![
                    scan(0),
                    nlj(2, 1, vec![1, 3]),
                    PlanOp::StreamAggregate,
                    PlanOp::Sort { key: None },
                ],
                0x7734_9ecf_4595_872d,
            ),
            (
                vec![
                    seek(0, 1),
                    nlj(1, 0, vec![0]),
                    scan(3),
                    hash(true, vec![2, 4]),
                    PlanOp::HashAggregate,
                ],
                0x8f11_133a_44e5_84c1,
            ),
        ];
        for (ops, want) in plans {
            assert_eq!(plan(ops.clone()).fingerprint().0, want, "{ops:?}");
        }
    }

    #[test]
    fn arena_is_postorder_with_contiguous_subtrees() {
        let p = plan(vec![
            scan(0),
            scan(1),
            hash(true, vec![0]),
            PlanOp::IndexNlj {
                inner: 2,
                seek_edge: 1,
                edges: vec![1],
            },
        ]);
        let nodes = p.nodes();
        // Subtree ranges: leaves start at themselves; internal nodes cover
        // their children.
        let starts: Vec<u32> = nodes.iter().map(|n| n.subtree_start).collect();
        assert_eq!(starts, [0, 1, 0, 0]);
        // Child recovery walks the ranges backwards, rightmost first.
        let kids = |i| arena_children(nodes, i).collect::<Vec<_>>();
        assert_eq!(kids(3), [2]);
        assert_eq!(kids(2), [1, 0]);
        assert_eq!(kids(0), []);
        assert_eq!(p.relation_set(), 0b111);
        assert_eq!(p.size(), 4);
    }

    #[test]
    fn display_renders_tree() {
        use crate::template::test_fixtures;
        let t = test_fixtures::two_dim();
        let p = plan(vec![
            scan(0),
            scan(1),
            hash(true, vec![0]),
            PlanOp::HashAggregate,
        ]);
        let s = format!("{}", p.display(&t));
        let body: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(
            body,
            [
                "  HashAgg",
                "    HashJoin(build=left)",
                "      SeqScan(o)",
                "      SeqScan(l)"
            ]
        );
    }
}
