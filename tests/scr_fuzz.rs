//! Seeded fuzzing of the full SCR loop: random workloads × random
//! configurations must never break the structural invariants, and the
//! λ-optimality guarantee must hold up to the documented rare-violation
//! allowance.

use std::sync::Arc;

use pqo_rand::rngs::StdRng;
use pqo_rand::{Rng, SeedableRng};

use pqo::core::engine::QueryEngine;
use pqo::core::scr::{DynamicLambda, Scr, ScrConfig};
use pqo::core::OnlinePqo;
use pqo::optimizer::svector::{compute_svector, instance_for_target};
use pqo::workload::corpus::corpus;

fn random_config(rng: &mut StdRng) -> ScrConfig {
    let lambda = rng.gen_range(1.05..2.5);
    let mut cfg = ScrConfig::new(lambda).expect("generated λ > 1");
    cfg.lambda_r = if rng.gen_bool(0.5) {
        rng.gen_range(1.0..1.6f64).min(lambda)
    } else {
        0.0
    };
    cfg.plan_budget = if rng.gen_bool(0.5) {
        Some(rng.gen_range(1..6usize))
    } else {
        None
    };
    cfg.max_recost_candidates = rng.gen_range(1..12usize);
    cfg.violation_handling = rng.gen_bool(0.5);
    // Appendix F's simulated getPlan and Appendix D's wider ball both run
    // the one candidate search.
    cfg.existing_plan_redundancy = rng.gen_bool(0.5);
    cfg.dynamic_lambda = if rng.gen_bool(0.5) {
        Some(DynamicLambda {
            lambda_min: lambda,
            lambda_max: lambda * rng.gen_range(1.0..2.0),
        })
    } else {
        None
    };
    cfg
}

fn random_targets(rng: &mut StdRng, min: usize, max: usize, lo: f64) -> Vec<Vec<f64>> {
    let n = rng.gen_range(min..max);
    (0..n)
        .map(|_| (0..2).map(|_| rng.gen_range(lo..1.0)).collect())
        .collect()
}

#[test]
fn random_workloads_and_configs_uphold_invariants() {
    let mut rng = StdRng::seed_from_u64(0xfc22_0001);
    for _case in 0..24 {
        let cfg = random_config(&mut rng);
        let targets = random_targets(&mut rng, 10, 60, 0.003);
        // Three small 2-d templates from different catalogs.
        let ids = ["tpch_skew_B_d2", "tpcds_G_d2", "rd1_M_d2"];
        let pick = ids[rng.gen_range(0..3usize)];
        let spec = corpus().iter().find(|s| s.id == pick).expect("template");
        // Under dynamic λ every entry's bound lies in [λmin, λmax].
        let lambda = cfg.dynamic_lambda.map_or(cfg.lambda, |d| d.lambda_max);
        let budget = cfg.plan_budget;
        let engine = QueryEngine::new(Arc::clone(&spec.template));
        let mut scr = Scr::with_config(cfg).expect("generated config is valid");

        let mut violations = 0usize;
        for target in &targets {
            let inst = instance_for_target(&spec.template, target);
            let sv = compute_svector(&spec.template, &inst);
            let choice = scr.get_plan(&inst, &sv, &engine);
            // Invariants after every step.
            assert!(scr.cache().check_invariants().is_ok());
            if let Some(k) = budget {
                assert!(scr.plans_cached() <= k, "budget {k} violated");
            }
            // Guarantee (allowing the documented rare BCG violations).
            let opt = engine.optimize_untracked(&sv);
            let so = engine.recost_untracked(&choice.plan, &sv) / opt.cost;
            if so > lambda * 1.001 {
                violations += 1;
            }
        }
        assert!(
            violations as f64 <= 0.05 * targets.len() as f64,
            "{violations}/{} instances exceeded λ={lambda}",
            targets.len()
        );
        // Bookkeeping consistency.
        let stats = scr.stats();
        assert_eq!(
            stats.selectivity_hits + stats.cost_hits + stats.optimizer_calls,
            targets.len() as u64
        );
        assert!(scr.max_plans_cached() as u64 <= stats.optimizer_calls.max(1));
    }
}

#[test]
fn persistence_roundtrip_holds_for_random_states() {
    let mut rng = StdRng::seed_from_u64(0xfc22_0002);
    for _case in 0..24 {
        let targets = random_targets(&mut rng, 5, 40, 0.005);
        let lambda = rng.gen_range(1.1..2.0);
        let spec = corpus().iter().find(|s| s.id == "tpch_skew_B_d2").unwrap();
        let engine = QueryEngine::new(Arc::clone(&spec.template));
        let mut scr = Scr::new(lambda).expect("λ > 1");
        for target in &targets {
            let inst = instance_for_target(&spec.template, target);
            let sv = compute_svector(&spec.template, &inst);
            let _ = scr.get_plan(&inst, &sv, &engine);
        }
        let mut buf = Vec::new();
        pqo::core::persist::save(&scr, 0, &mut buf).unwrap();
        let cfg = ScrConfig::new(lambda).expect("λ > 1");
        let restored = pqo::core::persist::restore(cfg, &mut buf.as_slice()).unwrap();
        assert_eq!(restored.cache().num_plans(), scr.cache().num_plans());
        assert_eq!(
            restored.cache().num_instances(),
            scr.cache().num_instances()
        );
        assert!(restored.cache().check_invariants().is_ok());
    }
}
