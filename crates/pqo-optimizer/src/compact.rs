//! Compact plan representation — the Appendix B trade-off.
//!
//! The paper stores a `shrunkenMemo` per cached plan to support Recost and
//! notes: *"there can be alternative implementations of Recost that require
//! lesser memory overheads at the cost of increased time overheads for each
//! Recost call."* This module is that alternative: a postfix byte encoding
//! of the plan's postorder arena (a few bytes per operator) that can be
//! re-costed by a single stack-machine pass over the bytes, or decoded back
//! into a [`Plan`] — which is how persistence and replication read plans.
//!
//! Invariant (tested across the corpus):
//! `recost_compact(encode(P), q) == recost(P, q)` to the bit, and
//! `checked_decode(encode(P)) == P` including the fingerprint.

use crate::cost::CostModel;
use crate::plan::{Plan, PlanOp};
use crate::recost::{BaseDerivation, MIN_ROWS};
use crate::svector::SVector;
use crate::template::QueryTemplate;

/// Operator tags of the byte encoding.
mod tag {
    pub const SEQ_SCAN: u8 = 0;
    pub const INDEX_SEEK: u8 = 1;
    pub const SORTED_INDEX_SCAN: u8 = 2;
    pub const HASH_JOIN: u8 = 3;
    pub const MERGE_JOIN: u8 = 4;
    pub const INDEX_NLJ: u8 = 5;
    pub const HASH_AGG: u8 = 6;
    pub const STREAM_AGG: u8 = 7;
    pub const SORT: u8 = 8;
}

/// A plan serialized as postfix bytes. A handful of bytes per operator —
/// compare [`Plan`]'s arena (see [`CompactPlan::bytes_len`] vs
/// [`estimated_plan_bytes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactPlan {
    bytes: Box<[u8]>,
}

/// Rough heap footprint of a plan's arena representation (what the plan
/// cache pays per plan, Section 6.1's "few hundred KBs per plan" in SQL
/// Server terms; far smaller here, but the ratio is what matters).
pub fn estimated_plan_bytes(plan: &Plan) -> usize {
    let nodes = plan.nodes();
    let edge_bytes: usize = nodes
        .iter()
        .map(|n| match &n.op {
            PlanOp::HashJoin { edges, .. }
            | PlanOp::MergeJoin { edges, .. }
            | PlanOp::IndexNlj { edges, .. } => edges.capacity() * std::mem::size_of::<usize>(),
            _ => 0,
        })
        .sum();
    std::mem::size_of::<Plan>() + std::mem::size_of_val(nodes) + edge_bytes
}

impl CompactPlan {
    /// Serialize a plan: the arena is already postorder, so encoding is one
    /// linear pass emitting each operator's bytes.
    pub fn encode(plan: &Plan) -> Self {
        let mut bytes = Vec::with_capacity(plan.size() * 4);
        for node in plan.nodes() {
            encode_op(&node.op, &mut bytes);
        }
        CompactPlan {
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// Size of the encoding in bytes.
    pub fn bytes_len(&self) -> usize {
        self.bytes.len()
    }

    /// Raw encoded bytes (persistence writes these verbatim).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wrap raw bytes read back from storage (validated on decode).
    pub fn from_bytes(bytes: Box<[u8]>) -> Self {
        CompactPlan { bytes }
    }

    /// Decode back into a [`Plan`] (identical fingerprint). Every read is
    /// bounds-checked and [`Plan::from_postorder`] checks the arity, so
    /// corrupt or truncated input produces an error instead of a panic, and
    /// no step recurses on the depth of the plan the bytes describe.
    ///
    /// # Errors
    /// A truncated operand, an unknown tag, or operators that do not form
    /// exactly one tree.
    pub fn checked_decode(&self) -> Result<Plan, String> {
        let b = &self.bytes;
        let mut ops = Vec::new();
        let mut i = 0usize;
        let mut byte = || -> Result<u8, String> {
            let v = *b.get(i).ok_or_else(|| format!("truncated at offset {i}"))?;
            i += 1;
            Ok(v)
        };
        // Each pass starts on a tag, so the first failing read is the end.
        while let Ok(t) = byte() {
            let mut index = || byte().map(usize::from);
            let op = match t {
                tag::SEQ_SCAN => PlanOp::SeqScan { relation: index()? },
                tag::INDEX_SEEK => PlanOp::IndexSeek {
                    relation: index()?,
                    seek_pred: index()?,
                },
                tag::SORTED_INDEX_SCAN => PlanOp::SortedIndexScan {
                    relation: index()?,
                    column: index()?,
                },
                tag::HASH_JOIN => PlanOp::HashJoin {
                    build_left: index()? != 0,
                    edges: edges(&mut index)?,
                },
                tag::MERGE_JOIN => PlanOp::MergeJoin {
                    merge_edge: index()?,
                    edges: edges(&mut index)?,
                },
                tag::INDEX_NLJ => PlanOp::IndexNlj {
                    inner: index()?,
                    seek_edge: index()?,
                    edges: edges(&mut index)?,
                },
                tag::HASH_AGG => PlanOp::HashAggregate,
                tag::STREAM_AGG => PlanOp::StreamAggregate,
                tag::SORT => PlanOp::Sort {
                    key: match index()? {
                        0 => None,
                        _ => Some((index()?, index()?)),
                    },
                },
                other => return Err(format!("unknown tag {other}")),
            };
            ops.push(op);
        }
        Plan::from_postorder(ops)
    }
}

/// A length-prefixed edge list, each length and index one byte.
fn edges(index: &mut impl FnMut() -> Result<usize, String>) -> Result<Vec<usize>, String> {
    let n = index()?;
    (0..n).map(|_| index()).collect()
}

fn encode_op(op: &PlanOp, out: &mut Vec<u8>) {
    let push_edges = |edges: &[usize], out: &mut Vec<u8>| {
        out.push(u8::try_from(edges.len()).expect("≤255 edges"));
        for &e in edges {
            out.push(u8::try_from(e).expect("edge index fits u8"));
        }
    };
    match op {
        PlanOp::SeqScan { relation } => {
            out.push(tag::SEQ_SCAN);
            out.push(*relation as u8);
        }
        PlanOp::IndexSeek {
            relation,
            seek_pred,
        } => {
            out.push(tag::INDEX_SEEK);
            out.push(*relation as u8);
            out.push(*seek_pred as u8);
        }
        PlanOp::SortedIndexScan { relation, column } => {
            out.push(tag::SORTED_INDEX_SCAN);
            out.push(*relation as u8);
            out.push(u8::try_from(*column).expect("column index fits u8"));
        }
        PlanOp::HashJoin { build_left, edges } => {
            out.push(tag::HASH_JOIN);
            out.push(u8::from(*build_left));
            push_edges(edges, out);
        }
        PlanOp::MergeJoin { merge_edge, edges } => {
            out.push(tag::MERGE_JOIN);
            out.push(u8::try_from(*merge_edge).expect("edge index fits u8"));
            push_edges(edges, out);
        }
        PlanOp::IndexNlj {
            inner,
            seek_edge,
            edges,
        } => {
            out.push(tag::INDEX_NLJ);
            out.push(*inner as u8);
            out.push(u8::try_from(*seek_edge).expect("edge index fits u8"));
            push_edges(edges, out);
        }
        PlanOp::HashAggregate => out.push(tag::HASH_AGG),
        PlanOp::StreamAggregate => out.push(tag::STREAM_AGG),
        PlanOp::Sort { key } => {
            out.push(tag::SORT);
            match key {
                Some((r, c)) => {
                    out.push(1);
                    out.push(*r as u8);
                    out.push(u8::try_from(*c).expect("column fits u8"));
                }
                None => out.push(0),
            }
        }
    }
}

/// Re-cost a compact plan without materializing the tree: one pass over the
/// postfix bytes with a `(rows, cost)` stack. Same formulas as
/// [`crate::recost::recost`] — the two agree exactly.
pub fn recost_compact(
    template: &QueryTemplate,
    model: &CostModel,
    plan: &CompactPlan,
    sv: &SVector,
) -> f64 {
    let base = BaseDerivation::new(template, sv);
    let b = &plan.bytes;
    let mut stack: Vec<(f64, f64)> = Vec::with_capacity(8);
    let mut i = 0usize;
    let edge_sel = |i: &mut usize| -> (f64, usize) {
        let n = b[*i] as usize;
        *i += 1;
        let mut sel = 1.0;
        for k in 0..n {
            sel *= template.join_edges[b[*i + k] as usize].selectivity;
        }
        *i += n;
        (sel, n)
    };
    while i < b.len() {
        let t = b[i];
        i += 1;
        match t {
            tag::SEQ_SCAN => {
                let rel = b[i] as usize;
                i += 1;
                let tb = &template.relations[rel].table;
                stack.push((
                    base.base_rows[rel],
                    model.seq_scan(
                        tb.page_count as f64,
                        tb.row_count as f64,
                        base.pred_count[rel],
                    ),
                ));
            }
            tag::INDEX_SEEK => {
                let (rel, pred) = (b[i] as usize, b[i + 1] as usize);
                i += 2;
                let tb = &template.relations[rel].table;
                let fetch = (tb.row_count as f64 * sv.get(pred)).max(MIN_ROWS);
                stack.push((
                    base.base_rows[rel],
                    model.index_seek(
                        tb.row_count as f64,
                        fetch,
                        base.pred_count[rel].saturating_sub(1),
                    ),
                ));
            }
            tag::SORTED_INDEX_SCAN => {
                let rel = b[i] as usize;
                i += 2; // skip column: cost does not depend on which key
                let tb = &template.relations[rel].table;
                stack.push((
                    base.base_rows[rel],
                    model.sorted_index_scan(
                        tb.page_count as f64,
                        tb.row_count as f64,
                        base.pred_count[rel],
                    ),
                ));
            }
            tag::HASH_JOIN => {
                let build_left = b[i] != 0;
                i += 1;
                let (sel, _) = edge_sel(&mut i);
                let (rr, rc) = stack.pop().expect("rhs");
                let (lr, lc) = stack.pop().expect("lhs");
                let out = lr * rr * sel;
                let (bu, pr) = if build_left { (lr, rr) } else { (rr, lr) };
                stack.push((out, lc + rc + model.hash_join(bu, pr, out)));
            }
            tag::MERGE_JOIN => {
                i += 1; // merge edge: cost-irrelevant
                let (sel, _) = edge_sel(&mut i);
                let (rr, rc) = stack.pop().expect("rhs");
                let (lr, lc) = stack.pop().expect("lhs");
                let out = lr * rr * sel;
                stack.push((out, lc + rc + model.merge_join(lr, rr, out)));
            }
            tag::INDEX_NLJ => {
                let (inner, seek_edge) = (b[i] as usize, b[i + 1] as usize);
                i += 2;
                let (sel, n_edges) = edge_sel(&mut i);
                let (or, oc) = stack.pop().expect("outer");
                let tb = &template.relations[inner].table;
                let n_inner = tb.row_count as f64;
                let lookup = n_inner * template.join_edges[seek_edge].selectivity;
                let residual = base.pred_count[inner] + n_edges.saturating_sub(1);
                let out = or * base.base_rows[inner] * sel;
                stack.push((
                    out,
                    oc + model.index_nlj(or, n_inner, lookup, residual, out),
                ));
            }
            tag::HASH_AGG | tag::STREAM_AGG => {
                let (ir, ic) = stack.pop().expect("agg input");
                let g = template
                    .aggregate
                    .as_ref()
                    .map(|a| a.groups)
                    .unwrap_or(1.0)
                    .min(ir);
                let cost = if t == tag::HASH_AGG {
                    model.hash_aggregate(ir, g)
                } else {
                    model.stream_aggregate(ir, g)
                };
                stack.push((g, ic + cost));
            }
            tag::SORT => {
                i += if b[i] != 0 { 3 } else { 1 }; // key: cost-irrelevant
                let (ir, ic) = stack.pop().expect("sort input");
                stack.push((ir, ic + model.sort(ir)));
            }
            other => panic!("corrupt compact plan: tag {other}"),
        }
    }
    assert_eq!(stack.len(), 1, "corrupt compact plan");
    stack.pop().unwrap().1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::recost::recost;
    use crate::svector::{compute_svector, instance_for_target};
    use crate::template::test_fixtures;

    fn plan_at(t: &QueryTemplate, target: &[f64]) -> (Plan, SVector) {
        let sv = compute_svector(t, &instance_for_target(t, target));
        (optimize(t, &CostModel::default(), &sv).plan, sv)
    }

    #[test]
    fn roundtrip_preserves_fingerprint() {
        let t = test_fixtures::three_dim();
        for target in [[0.01, 0.01, 0.01], [0.6, 0.6, 0.6], [0.9, 0.01, 0.4]] {
            let (plan, _) = plan_at(&t, &target);
            let compact = CompactPlan::encode(&plan);
            let back = compact.checked_decode().unwrap();
            assert_eq!(back.fingerprint(), plan.fingerprint());
            assert_eq!(back.nodes(), plan.nodes());
        }
    }

    #[test]
    fn recost_compact_matches_arena_recost_to_the_bit() {
        let t = test_fixtures::three_dim();
        let m = CostModel::default();
        let (plan, _) = plan_at(&t, &[0.1, 0.2, 0.05]);
        let compact = CompactPlan::encode(&plan);
        for target in [[0.01, 0.01, 0.01], [0.5, 0.5, 0.5], [0.9, 0.05, 0.3]] {
            let sv = compute_svector(&t, &instance_for_target(&t, &target));
            let a = recost(&t, &m, &plan, &sv);
            let b = recost_compact(&t, &m, &compact, &sv);
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn compact_is_much_smaller_than_arena() {
        let t = test_fixtures::three_dim();
        let (plan, _) = plan_at(&t, &[0.2, 0.2, 0.2]);
        let compact = CompactPlan::encode(&plan);
        let arena = estimated_plan_bytes(&plan);
        assert!(
            compact.bytes_len() * 4 < arena,
            "compact {} bytes should be ≲ 1/4 of arena {} bytes",
            compact.bytes_len(),
            arena
        );
    }

    #[test]
    fn single_relation_plans_roundtrip() {
        let t = test_fixtures::one_rel();
        for target in [[0.001], [0.9]] {
            let (plan, sv) = plan_at(&t, &target);
            let compact = CompactPlan::encode(&plan);
            let back = compact.checked_decode().unwrap();
            assert_eq!(back.fingerprint(), plan.fingerprint());
            let m = CostModel::default();
            assert_eq!(
                recost(&t, &m, &plan, &sv),
                recost_compact(&t, &m, &compact, &sv)
            );
        }
    }

    #[test]
    fn corrupt_bytes_are_an_error() {
        let decode = |bytes: &[u8]| CompactPlan::from_bytes(bytes.into()).checked_decode();
        assert_eq!(decode(&[99]).unwrap_err(), "unknown tag 99");
        // A lone hash join (build left, one edge): no operands.
        let err = decode(&[tag::HASH_JOIN, 1, 1, 0]).unwrap_err();
        assert!(err.contains("missing an operand"), "{err}");
        // Truncations of a sorted two-scan join.
        let plan = Plan::from_postorder(vec![
            PlanOp::SeqScan { relation: 0 },
            PlanOp::SortedIndexScan {
                relation: 1,
                column: 2,
            },
            PlanOp::HashJoin {
                build_left: true,
                edges: vec![0, 1],
            },
            PlanOp::Sort { key: Some((1, 2)) },
        ])
        .unwrap();
        let bytes = CompactPlan::encode(&plan).as_bytes().to_vec();
        assert_eq!(decode(&bytes).unwrap(), plan);
        for len in 0..bytes.len() {
            let got = decode(&bytes[..len]);
            match len {
                // Cut after an operator that closes one tree: the first
                // scan, the join.
                2 | 10 => assert!(got.is_ok()),
                0 => assert_eq!(got.unwrap_err(), "0 roots"),
                5 => assert_eq!(got.unwrap_err(), "2 roots"),
                _ => assert_eq!(got.unwrap_err(), format!("truncated at offset {len}")),
            }
        }
    }
}
