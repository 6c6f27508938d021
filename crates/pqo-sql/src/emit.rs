//! The reverse path: render a template plus a chosen plan back out as
//! dialect-specific hinted SQL text.
//!
//! The SQL body is reconstructed from the template (canonical projection,
//! FROM/JOIN chain, parameterized WHERE); the *plan* rides along as comment
//! hints — the join order as a nested `(a ⨝ b)` expression plus the access
//! path per relation. Parts the template lowered away (constant filter
//! expressions, grouping columns) are surfaced as comments rather than
//! invented.

use std::fmt::Write as _;

use pqo_optimizer::plan::{arena_children, Plan, PlanOp};
use pqo_optimizer::template::QueryTemplate;

use crate::dialect::DialectKind;

/// Render `plan` for `template` as hinted SQL in `dialect`. When `values`
/// holds the instance's parameter values they are inlined as literals;
/// otherwise placeholders are emitted.
pub fn render(
    template: &QueryTemplate,
    plan: &Plan,
    dialect: DialectKind,
    values: Option<&[f64]>,
) -> String {
    let mut out = String::new();

    out.push_str(&format!("-- template: {}\n", template.name));
    out.push_str(&format!("-- dialect: {}\n", dialect.name()));
    out.push_str(&format!("-- plan: {}\n", plan.fingerprint()));
    out.push_str("-- join order: ");
    join_order(plan, template, &mut out);
    out.push('\n');
    for (i, r) in template.relations.iter().enumerate() {
        out.push_str(&format!(
            "-- access {}: {}\n",
            r.alias,
            access_path(plan, i, template)
        ));
    }
    for f in &template.fixed_preds {
        out.push_str(&format!(
            "-- fixed filter on {}: selectivity {:.6}\n",
            template.relations[f.relation].alias, f.selectivity
        ));
    }
    if let Some(agg) = &template.aggregate {
        out.push_str(&format!("-- aggregate: ~{} groups\n", agg.groups));
    }

    // Projection.
    out.push_str("SELECT ");
    out.push_str(if template.aggregate.is_some() {
        "count(*)"
    } else {
        "*"
    });
    out.push('\n');

    // FROM/JOIN chain: start at relation 0 and greedily attach relations
    // along join edges (the template's join graph is connected).
    let n = template.relations.len();
    let rel_sql = |i: usize| {
        let r = &template.relations[i];
        if r.table.name == r.alias {
            dialect.ident(&r.table.name)
        } else {
            format!(
                "{} AS {}",
                dialect.ident(&r.table.name),
                dialect.ident(&r.alias)
            )
        }
    };
    let col_sql = |rel: usize, col: usize| {
        let r = &template.relations[rel];
        let name = r
            .table
            .columns
            .get(col)
            .map(|c| c.name.as_str())
            .unwrap_or("?col");
        format!("{}.{}", dialect.ident(&r.alias), dialect.ident(name))
    };
    out.push_str(&format!("FROM {}\n", rel_sql(0)));
    let mut joined = vec![false; n];
    let mut edge_used = vec![false; template.join_edges.len()];
    if n > 0 {
        joined[0] = true;
    }
    loop {
        let mut progressed = false;
        for (ei, e) in template.join_edges.iter().enumerate() {
            if edge_used[ei] {
                continue;
            }
            let (new_rel, have) = if joined[e.left.0] && !joined[e.right.0] {
                (e.right.0, true)
            } else if joined[e.right.0] && !joined[e.left.0] {
                (e.left.0, true)
            } else if joined[e.left.0] && joined[e.right.0] {
                // Redundant edge inside the joined set: residual condition.
                edge_used[ei] = true;
                out.push_str(&format!(
                    "  -- residual: {} = {}\n",
                    col_sql(e.left.0, e.left.1),
                    col_sql(e.right.0, e.right.1)
                ));
                progressed = true;
                continue;
            } else {
                (0, false)
            };
            if have {
                edge_used[ei] = true;
                joined[new_rel] = true;
                out.push_str(&format!(
                    "  JOIN {} ON {} = {}\n",
                    rel_sql(new_rel),
                    col_sql(e.left.0, e.left.1),
                    col_sql(e.right.0, e.right.1)
                ));
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // Parameterized WHERE.
    if !template.param_preds.is_empty() {
        out.push_str("WHERE ");
        for (k, p) in template.param_preds.iter().enumerate() {
            if k > 0 {
                out.push_str("\n  AND ");
            }
            let rhs = match values.and_then(|v| v.get(k)) {
                Some(v) => dialect.literal(*v),
                None => dialect.placeholder(k + 1),
            };
            let op = match p.op {
                pqo_optimizer::template::RangeOp::Le => "<=",
                pqo_optimizer::template::RangeOp::Ge => ">=",
            };
            out.push_str(&format!("{} {op} {rhs}", col_sql(p.relation, p.column)));
        }
        out.push('\n');
    }

    if template.order_by {
        out.push_str("ORDER BY 1\n");
    }
    out
}

/// One step of [`join_order`]'s preorder walk over the arena.
enum Step {
    /// Write node `i`'s subtree.
    Enter(u32),
    /// Between join `i`'s outer and its inner: write ` ⨝ ` and the inner.
    Inner(u32),
    /// Close a binary join's parenthesis.
    Close,
}

/// Append the plan's join order as a nested `(a ⨝ b)` expression over
/// aliases to `out`, in preorder with an explicit stack: linear in the
/// plan's size and the output's length, and no recursion however deep the
/// plan.
fn join_order(plan: &Plan, template: &QueryTemplate, out: &mut String) {
    let nodes = plan.nodes();
    let alias = |rel: usize, out: &mut String| match template.relations.get(rel) {
        Some(r) => out.push_str(&r.alias),
        None => {
            let _ = write!(out, "r{rel}");
        }
    };
    let mut stack = vec![Step::Enter(nodes.len() as u32 - 1)];
    while let Some(step) = stack.pop() {
        match step {
            Step::Enter(i) => match &nodes[i as usize].op {
                PlanOp::SeqScan { relation }
                | PlanOp::IndexSeek { relation, .. }
                | PlanOp::SortedIndexScan { relation, .. } => alias(*relation, out),
                // The outer is the first child: the last one listed.
                PlanOp::HashJoin { .. } | PlanOp::MergeJoin { .. } | PlanOp::IndexNlj { .. } => {
                    out.push('(');
                    stack.push(Step::Inner(i));
                    let outer = arena_children(nodes, i as usize).last();
                    stack.extend(outer.map(|c| Step::Enter(c as u32)));
                }
                // Order and aggregation leave the join order as it is.
                PlanOp::HashAggregate | PlanOp::StreamAggregate | PlanOp::Sort { .. } => {
                    let child = arena_children(nodes, i as usize).next();
                    stack.extend(child.map(|c| Step::Enter(c as u32)));
                }
            },
            Step::Inner(i) => {
                out.push_str(" ⨝ ");
                if let PlanOp::IndexNlj { inner, .. } = &nodes[i as usize].op {
                    alias(*inner, out);
                    out.push(')');
                } else {
                    stack.push(Step::Close);
                    let inner = arena_children(nodes, i as usize).next();
                    stack.extend(inner.map(|c| Step::Enter(c as u32)));
                }
            }
            Step::Close => out.push(')'),
        }
    }
}

/// Describe how the plan reaches relation `rel`: the first operator in the
/// arena that reads it.
fn access_path(plan: &Plan, rel: usize, template: &QueryTemplate) -> String {
    plan.nodes()
        .iter()
        .find_map(|node| match &node.op {
            PlanOp::SeqScan { relation } if *relation == rel => Some("seq scan".into()),
            PlanOp::IndexSeek {
                relation,
                seek_pred,
            } if *relation == rel => {
                let col = template
                    .param_preds
                    .get(*seek_pred)
                    .and_then(|p| template.relations[p.relation].table.columns.get(p.column))
                    .map(|c| c.name.clone())
                    .unwrap_or_else(|| format!("pred {seek_pred}"));
                Some(format!("index seek on {col}"))
            }
            PlanOp::SortedIndexScan { relation, column } if *relation == rel => {
                let col = template
                    .relations
                    .get(*relation)
                    .and_then(|r| r.table.columns.get(*column))
                    .map(|c| c.name.clone())
                    .unwrap_or_else(|| format!("col {column}"));
                Some(format!("sorted index scan on {col}"))
            }
            PlanOp::IndexNlj {
                inner, seek_edge, ..
            } if *inner == rel => Some(format!("index lookup via join edge {seek_edge}")),
            _ => None,
        })
        .unwrap_or_else(|| "?".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind;
    use crate::parser::parse;
    use pqo_catalog::schemas;
    use pqo_optimizer::engine::QueryEngine;
    use pqo_optimizer::template::QueryInstance;

    fn fixture() -> (std::sync::Arc<QueryTemplate>, std::sync::Arc<Plan>) {
        let cat = schemas::tpch_skew();
        let stmt = parse(
            "SELECT count(*) FROM orders o JOIN lineitem l ON o.orders_pk = l.orders_fk \
             WHERE o.o_totalprice <= $1 AND l.l_extendedprice <= $2 GROUP BY o.o_shippriority",
        )
        .unwrap();
        let t = bind(&stmt, &cat, DialectKind::Postgres, "emit_fixture").unwrap();
        let engine = QueryEngine::new(std::sync::Arc::clone(&t));
        let inst = QueryInstance::new(vec![250_000.0, 50_000.0]);
        let sv = pqo_optimizer::svector::compute_svector(&t, &inst);
        let plan = engine.optimize(&sv).plan;
        (t, plan)
    }

    #[test]
    fn renders_hinted_sql_with_join_order() {
        let (t, plan) = fixture();
        let sql = render(&t, &plan, DialectKind::Postgres, None);
        assert!(sql.contains("-- join order: "), "{sql}");
        assert!(sql.contains("⨝"), "{sql}");
        assert!(
            sql.contains(&format!("-- plan: {}", plan.fingerprint())),
            "{sql}"
        );
        assert!(sql.contains("FROM orders AS o"), "{sql}");
        assert!(
            sql.contains("JOIN lineitem AS l ON o.orders_pk = l.orders_fk"),
            "{sql}"
        );
        assert!(sql.contains("o.o_totalprice <= $1"), "{sql}");
        assert!(sql.contains("l.l_extendedprice <= $2"), "{sql}");
    }

    #[test]
    fn dialect_controls_placeholders_and_values_inline() {
        let (t, plan) = fixture();
        let sql = render(&t, &plan, DialectKind::MySql, None);
        assert!(sql.contains("o.o_totalprice <= ?"), "{sql}");
        assert!(!sql.contains("$1"), "{sql}");
        let sql = render(&t, &plan, DialectKind::Postgres, Some(&[250000.0, 50000.0]));
        assert!(sql.contains("o.o_totalprice <= 250000"), "{sql}");
    }

    #[test]
    fn rendered_sql_reparses_in_same_dialect() {
        let (t, plan) = fixture();
        for d in DialectKind::ALL {
            let sql = render(&t, &plan, *d, None);
            let cat = schemas::tpch_skew();
            let stmt = parse(&sql).expect(&sql);
            let re = bind(&stmt, &cat, *d, "roundtrip").expect(&sql);
            assert_eq!(re.relations.len(), t.relations.len());
            assert_eq!(re.param_preds.len(), t.param_preds.len());
            assert_eq!(re.join_edges[0].selectivity, t.join_edges[0].selectivity);
        }
    }
}
