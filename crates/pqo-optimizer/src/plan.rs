//! Physical plans and structural plan identity.
//!
//! A [`Plan`] is what the plan cache stores. Two optimizer calls at different
//! query instances frequently return *structurally identical* plans; PQO
//! techniques must recognise that (the paper counts distinct plans, reuses
//! cached plans, and merges inference regions of the same plan), so every
//! plan carries a [`PlanFingerprint`] — a structural hash over operators,
//! relation indices and join order, ignoring per-instance cardinalities.
//!
//! Plans are *built* as [`PlanNode`] trees (the optimizer's extract step and
//! tests construct those naturally) but *stored* in flat arena form: a
//! postorder `Vec<ArenaNode>` whose children are index ranges. Recost — the
//! hot path — is then one linear pass over a contiguous slice instead of a
//! pointer chase through heap-boxed children. Each operator carries the
//! logical annotations the Recost API needs (which relations it covers,
//! which join edges it applies), mirroring the paper's `shrunkenMemo`: just
//! enough of the memo to re-derive cardinality and cost bottom-up, with the
//! search space pruned away.

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

/// A node of a physical plan tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanNode {
    /// The operator.
    pub op: PlanOp,
    /// Child plans (0 for scans, 1 for IndexNLJ/Sort/aggregates, 2 for
    /// hash/merge joins).
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// Leaf constructor.
    pub fn leaf(op: PlanOp) -> Self {
        PlanNode {
            op,
            children: Vec::new(),
        }
    }

    /// Internal-node constructor.
    pub fn internal(op: PlanOp, children: Vec<PlanNode>) -> Self {
        PlanNode { op, children }
    }

    /// Total number of operators in the subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(PlanNode::size).sum::<usize>()
    }

    /// Bitmask of relations covered by this subtree.
    pub fn relation_set(&self) -> u32 {
        let own = match self.op {
            PlanOp::SeqScan { relation }
            | PlanOp::IndexSeek { relation, .. }
            | PlanOp::SortedIndexScan { relation, .. } => 1u32 << relation,
            PlanOp::IndexNlj { inner, .. } => 1u32 << inner,
            _ => 0,
        };
        own | self
            .children
            .iter()
            .map(PlanNode::relation_set)
            .fold(0, |a, b| a | b)
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

/// Indices of the direct children of arena node `i`, in left-to-right order.
/// At most 2 entries; empty for leaves.
pub fn arena_children(nodes: &[ArenaNode], i: usize) -> Vec<usize> {
    let start = nodes[i].subtree_start as usize;
    let mut kids = Vec::with_capacity(nodes[i].op.arity());
    let mut end = i; // exclusive end of the remaining children region
    while end > start {
        let child = end - 1; // root of the rightmost remaining child subtree
        kids.push(child);
        end = nodes[child].subtree_start as usize;
    }
    kids.reverse();
    kids
}

/// An immutable physical plan with a structural fingerprint, stored as a
/// flat postorder arena.
#[derive(Debug, Clone)]
pub struct Plan {
    nodes: Vec<ArenaNode>,
    fingerprint: PlanFingerprint,
}

impl Plan {
    /// Flatten a plan tree into arena form, computing its fingerprint.
    ///
    /// The fingerprint hashes the *tree* (exactly as previous versions did),
    /// so plan identity — and the on-disk persist format — is unchanged by
    /// the arena representation.
    pub fn new(root: PlanNode) -> Self {
        let mut h = Fnv64::new();
        root.hash(&mut h);
        let fingerprint = PlanFingerprint(h.finish());
        let mut nodes = Vec::with_capacity(root.size());
        flatten(root, &mut nodes);
        Plan { nodes, fingerprint }
    }

    /// The postorder operator arena. The root is the last node.
    pub fn nodes(&self) -> &[ArenaNode] {
        &self.nodes
    }

    /// The root operator (last node of the postorder arena).
    pub fn root_op(&self) -> &PlanOp {
        &self.nodes.last().expect("plan is non-empty").op
    }

    /// Reconstruct the boxed tree form (for the executor and for callers
    /// that want recursive traversal; the arena stays the stored form).
    pub fn to_tree(&self) -> PlanNode {
        let mut stack: Vec<PlanNode> = Vec::new();
        for n in &self.nodes {
            let children = stack.split_off(stack.len() - n.op.arity());
            stack.push(PlanNode {
                op: n.op.clone(),
                children,
            });
        }
        debug_assert_eq!(stack.len(), 1, "arena must encode exactly one tree");
        stack.pop().expect("plan is non-empty")
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

/// Postorder flatten by move: children first, then the node itself.
fn flatten(node: PlanNode, out: &mut Vec<ArenaNode>) {
    let start = out.len() as u32;
    for c in node.children {
        flatten(c, out);
    }
    out.push(ArenaNode {
        op: node.op,
        subtree_start: start,
    });
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
        fn walk(
            nodes: &[ArenaNode],
            i: usize,
            template: &QueryTemplate,
            depth: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            let pad = "  ".repeat(depth);
            let alias = |r: usize| template.relations[r].alias.clone();
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
                    writeln!(
                        f,
                        "{pad}MergeJoin(on {}.{})",
                        template.relations[e.left.0].alias, col
                    )?;
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
            for c in arena_children(nodes, i) {
                walk(nodes, c, template, depth + 1, f)?;
            }
            Ok(())
        }
        writeln!(f, "plan {}:", self.plan.fingerprint())?;
        let nodes = self.plan.nodes();
        walk(nodes, nodes.len() - 1, self.template, 1, f)
    }
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

    fn scan(r: usize) -> PlanNode {
        PlanNode::leaf(PlanOp::SeqScan { relation: r })
    }

    #[test]
    fn check_template_names_the_out_of_range_index() {
        // two_dim(): 2 relations, 1 join edge, 2 parameterized predicates.
        let t = crate::template::test_fixtures::two_dim();
        let join = |edges| PlanOp::HashJoin {
            build_left: true,
            edges,
        };
        let ok = Plan::new(PlanNode::internal(join(vec![0]), vec![scan(0), scan(1)]));
        assert_eq!(ok.check_template(&t), Ok(()));
        let seek = |relation, seek_pred| {
            PlanNode::leaf(PlanOp::IndexSeek {
                relation,
                seek_pred,
            })
        };
        let sorted =
            |relation, column| PlanNode::leaf(PlanOp::SortedIndexScan { relation, column });
        for (root, what) in [
            (scan(2), "relation 2 of 2"),
            (seek(0, 2), "seek predicate 2 of 2"),
            (sorted(1, 999), "column 999 of"),
            (
                PlanNode::internal(join(vec![0, 1]), vec![scan(0), scan(1)]),
                "join edge 1 of 1",
            ),
            (
                PlanNode::internal(PlanOp::Sort { key: Some((5, 0)) }, vec![scan(0)]),
                "relation 5 of 2",
            ),
        ] {
            let err = Plan::new(root).check_template(&t).unwrap_err();
            assert!(err.starts_with(what), "{err}");
        }
    }

    #[test]
    fn identical_structures_share_fingerprints() {
        let a = Plan::new(PlanNode::internal(
            PlanOp::HashJoin {
                build_left: true,
                edges: vec![0],
            },
            vec![scan(0), scan(1)],
        ));
        let b = Plan::new(PlanNode::internal(
            PlanOp::HashJoin {
                build_left: true,
                edges: vec![0],
            },
            vec![scan(0), scan(1)],
        ));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }

    #[test]
    fn different_structures_differ() {
        let a = Plan::new(PlanNode::internal(
            PlanOp::HashJoin {
                build_left: true,
                edges: vec![0],
            },
            vec![scan(0), scan(1)],
        ));
        let b = Plan::new(PlanNode::internal(
            PlanOp::HashJoin {
                build_left: false,
                edges: vec![0],
            },
            vec![scan(0), scan(1)],
        ));
        let c = Plan::new(PlanNode::internal(
            PlanOp::HashJoin {
                build_left: true,
                edges: vec![0],
            },
            vec![scan(1), scan(0)],
        ));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn scan_choice_changes_fingerprint() {
        let a = Plan::new(scan(0));
        let b = Plan::new(PlanNode::leaf(PlanOp::IndexSeek {
            relation: 0,
            seek_pred: 0,
        }));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn size_and_relation_set() {
        let p = PlanNode::internal(
            PlanOp::IndexNlj {
                inner: 2,
                seek_edge: 1,
                edges: vec![1],
            },
            vec![PlanNode::internal(
                PlanOp::HashJoin {
                    build_left: true,
                    edges: vec![0],
                },
                vec![scan(0), scan(1)],
            )],
        );
        assert_eq!(p.size(), 4);
        assert_eq!(p.relation_set(), 0b111);
    }

    #[test]
    fn fingerprint_is_stable() {
        // Guards against accidental changes to the hash: the fingerprint of
        // this fixed tree must never change across runs or refactors that
        // do not intend to change plan identity.
        let p = Plan::new(PlanNode::internal(
            PlanOp::MergeJoin {
                merge_edge: 0,
                edges: vec![0, 1],
            },
            vec![scan(0), scan(3)],
        ));
        let again = Plan::new(PlanNode::internal(
            PlanOp::MergeJoin {
                merge_edge: 0,
                edges: vec![0, 1],
            },
            vec![scan(0), scan(3)],
        ));
        assert_eq!(p.fingerprint(), again.fingerprint());
    }

    #[test]
    fn arena_is_postorder_with_contiguous_subtrees() {
        let tree = PlanNode::internal(
            PlanOp::IndexNlj {
                inner: 2,
                seek_edge: 1,
                edges: vec![1],
            },
            vec![PlanNode::internal(
                PlanOp::HashJoin {
                    build_left: true,
                    edges: vec![0],
                },
                vec![scan(0), scan(1)],
            )],
        );
        let p = Plan::new(tree);
        let nodes = p.nodes();
        // Postorder: scan(0), scan(1), HashJoin, IndexNlj.
        assert_eq!(nodes.len(), 4);
        assert!(matches!(nodes[0].op, PlanOp::SeqScan { relation: 0 }));
        assert!(matches!(nodes[1].op, PlanOp::SeqScan { relation: 1 }));
        assert!(matches!(nodes[2].op, PlanOp::HashJoin { .. }));
        assert!(matches!(nodes[3].op, PlanOp::IndexNlj { .. }));
        // Subtree ranges: leaves start at themselves; internal nodes cover
        // their children.
        assert_eq!(nodes[0].subtree_start, 0);
        assert_eq!(nodes[1].subtree_start, 1);
        assert_eq!(nodes[2].subtree_start, 0);
        assert_eq!(nodes[3].subtree_start, 0);
        // Child recovery walks the ranges backwards and reverses.
        assert_eq!(arena_children(nodes, 3), vec![2]);
        assert_eq!(arena_children(nodes, 2), vec![0, 1]);
        assert_eq!(arena_children(nodes, 0), Vec::<usize>::new());
        assert_eq!(p.relation_set(), 0b111);
        assert_eq!(p.size(), 4);
    }

    #[test]
    fn to_tree_round_trips() {
        let tree = PlanNode::internal(
            PlanOp::HashAggregate,
            vec![PlanNode::internal(
                PlanOp::MergeJoin {
                    merge_edge: 0,
                    edges: vec![0, 1],
                },
                vec![
                    PlanNode::internal(PlanOp::Sort { key: Some((0, 1)) }, vec![scan(0)]),
                    PlanNode::leaf(PlanOp::SortedIndexScan {
                        relation: 1,
                        column: 1,
                    }),
                ],
            )],
        );
        let p = Plan::new(tree.clone());
        let back = p.to_tree();
        assert_eq!(back, tree);
        // Re-flattening the reconstructed tree preserves identity.
        assert_eq!(Plan::new(back).fingerprint(), p.fingerprint());
    }

    #[test]
    fn display_renders_tree() {
        use crate::template::test_fixtures;
        let t = test_fixtures::two_dim();
        let p = Plan::new(PlanNode::internal(
            PlanOp::HashAggregate,
            vec![PlanNode::internal(
                PlanOp::HashJoin {
                    build_left: true,
                    edges: vec![0],
                },
                vec![scan(0), scan(1)],
            )],
        ));
        let s = format!("{}", p.display(&t));
        assert!(s.contains("HashAgg"));
        assert!(s.contains("SeqScan(o)"));
        assert!(s.contains("SeqScan(l)"));
    }
}
