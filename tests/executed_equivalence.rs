//! Cross-crate answer-equivalence: whatever plan the optimizer (or a PQO
//! technique) picks, executing it must produce the same answer. Plans trade
//! time, never correctness — the precondition for the whole PQO enterprise
//! and for the executed Table 3 experiment (`figures tab3x`).

use std::collections::BTreeSet;
use std::sync::Arc;

use pqo::core::engine::QueryEngine;
use pqo::optimizer::plan::Plan;
use pqo::optimizer::svector::{compute_svector, instance_for_target};
use pqo::workload::corpus::corpus;
use pqo_exec::Database;

fn database_for(catalog: &str) -> Database {
    let cat = match catalog {
        "tpch_skew" => pqo::catalog::schemas::tpch_skew(),
        "tpcds" => pqo::catalog::schemas::tpcds(),
        "rd1" => pqo::catalog::schemas::rd1(),
        "rd2" => pqo::catalog::schemas::rd2(),
        other => panic!("unknown catalog {other}"),
    };
    // Aggressive downscale: correctness does not need rows.
    Database::build(&cat, 5000, 42)
}

/// Collect distinct optimal plans across the selectivity space of a
/// template.
fn plan_portfolio(engine: &QueryEngine, d: usize) -> Vec<Arc<Plan>> {
    let template = Arc::clone(engine.template());
    let mut seen = BTreeSet::new();
    let mut plans = Vec::new();
    let corners: Vec<Vec<f64>> = (0..16)
        .map(|k| {
            (0..d)
                .map(|i| if k >> (i % 4) & 1 == 1 { 0.85 } else { 0.004 })
                .collect()
        })
        .collect();
    for target in corners {
        let sv = compute_svector(&template, &instance_for_target(&template, &target));
        let opt = engine.optimize_untracked(&sv);
        if seen.insert(opt.plan.fingerprint()) {
            plans.push(opt.plan);
        }
    }
    plans
}

#[test]
fn all_optimal_plans_agree_on_executed_answers() {
    // One representative template per catalog, chosen to have joins.
    let picks = ["tpch_skew_B_d2", "tpcds_G_d3", "rd1_L_d3", "rd2_T_d3"];
    for id in picks {
        let spec = corpus()
            .iter()
            .find(|s| s.id == id)
            .expect("corpus template");
        let db = database_for(spec.catalog);
        let engine = QueryEngine::new(Arc::clone(&spec.template));
        let plans = plan_portfolio(&engine, spec.dimensions);
        assert!(
            plans.len() >= 2,
            "{id}: need at least two distinct plans, got {}",
            plans.len()
        );
        for target_sel in [0.05, 0.5] {
            let target = vec![target_sel; spec.dimensions];
            let inst = instance_for_target(&spec.template, &target);
            let counts: Vec<usize> = plans
                .iter()
                .map(|p| pqo_exec::execute(&db, &spec.template, p, &inst).rows)
                .collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{id}: {} plans disagree at sel {target_sel}: {counts:?}",
                plans.len()
            );
        }
    }
}

#[test]
fn scr_chosen_plans_execute_identically_to_optimal_plans() {
    use pqo::core::scr::Scr;
    use pqo::core::OnlinePqo;
    let spec = corpus().iter().find(|s| s.id == "tpch_skew_B_d2").unwrap();
    let db = database_for(spec.catalog);
    let engine = QueryEngine::new(Arc::clone(&spec.template));
    let mut scr = Scr::new(2.0).expect("valid λ");
    let instances = spec.generate(80, 5);
    for inst in &instances {
        let sv = engine.compute_svector(inst);
        let choice = scr.get_plan(inst, &sv, &engine);
        let opt = engine.optimize_untracked(&sv);
        let chosen = pqo_exec::execute(&db, &spec.template, &choice.plan, inst).rows;
        let optimal = pqo_exec::execute(&db, &spec.template, &opt.plan, inst).rows;
        assert_eq!(chosen, optimal, "SCR's plan changed the answer");
    }
}

#[test]
fn executed_selectivity_tracks_estimates_on_base_scans() {
    // The statistics and the data come from the same distributions: the
    // engine's estimated base-relation selectivity must match the executed
    // fraction within sampling noise.
    let spec = corpus().iter().find(|s| s.id == "tpch_skew_A_d1").unwrap();
    let db = database_for(spec.catalog);
    let template = &spec.template;
    let table = db.table(&template.relations[0].table.name);
    for target in [0.1, 0.3, 0.7] {
        let inst = instance_for_target(template, &[target]);
        let sv = compute_svector(template, &inst);
        let scan =
            Plan::from_postorder(vec![pqo::optimizer::plan::PlanOp::SeqScan { relation: 0 }])
                .unwrap();
        let executed =
            pqo_exec::execute(&db, template, &scan, &inst).rows as f64 / table.rows as f64;
        assert!(
            (executed - sv.get(0)).abs() < 0.06,
            "estimated {} vs executed {executed} at target {target}",
            sv.get(0)
        );
    }
}
