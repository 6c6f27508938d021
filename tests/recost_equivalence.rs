//! Recost-path equivalence (the arena/prepared refactor's core invariant):
//! for every bundled corpus template and seeded random sVectors, the arena
//! stack machine, the prepared/delta path over a shared scratch and the
//! Appendix B byte encoding must agree to the bit — and therefore SCR's
//! reuse/optimize decisions, which consume only these numbers, must be
//! identical whichever path serves them. (The recursive reference walk all
//! three are checked against lives in `pqo-optimizer`'s `recost` tests.)

use std::sync::Arc;

use pqo_rand::rngs::StdRng;
use pqo_rand::{Rng, SeedableRng};

use pqo::core::engine::QueryEngine;
use pqo::core::scr::Scr;
use pqo::core::{OnlinePqo, PlanChoice};
use pqo::optimizer::compact::{recost_compact, CompactPlan};
use pqo::optimizer::recost::RecostScratch;
use pqo::optimizer::svector::{compute_svector, instance_for_target, SVector};
use pqo::workload::corpus::corpus;

fn random_sv(rng: &mut StdRng, dims: usize) -> SVector {
    SVector((0..dims).map(|_| rng.gen_range(1e-4..1.0f64)).collect())
}

#[test]
fn all_templates_recost_paths_agree_to_the_bit() {
    let mut rng = StdRng::seed_from_u64(0xa2e7_0001);
    for spec in corpus() {
        let engine = QueryEngine::new(Arc::clone(&spec.template));
        let dims = spec.template.dimensions();

        // A handful of optimal plans from random corners of the space.
        let mut plans = Vec::new();
        for _ in 0..4 {
            let target: Vec<f64> = (0..dims).map(|_| rng.gen_range(1e-3..1.0f64)).collect();
            let inst = instance_for_target(&spec.template, &target);
            let sv = compute_svector(&spec.template, &inst);
            plans.push(engine.optimize_untracked(&sv).plan);
        }
        plans.sort_by_key(|p| p.fingerprint());
        plans.dedup_by_key(|p| p.fingerprint());

        let model = engine.cost_model().clone();
        // One scratch shared across every plan and sVector of this template:
        // consecutive probes exercise the delta update with arbitrary dirty
        // dimension sets (including the zero-dirty repeat case below).
        let mut scratch = RecostScratch::new();
        for plan in &plans {
            let prepared = engine.prepare_recost(plan);
            let compact = CompactPlan::encode(plan);
            for probe in 0..12 {
                let sv = random_sv(&mut rng, dims);
                let c_arena = engine.recost_untracked(plan, &sv);
                let c_prep = engine.recost_prepared_untracked(&prepared, &sv, &mut scratch);
                // Repeat with the same sVector: zero dirty dimensions, the
                // base derivation is reused outright.
                let c_rep = engine.recost_prepared_untracked(&prepared, &sv, &mut scratch);
                let c_compact = recost_compact(&spec.template, &model, &compact, &sv);
                assert!(
                    c_arena.is_finite() && c_arena > 0.0,
                    "{}: cost {c_arena} at probe {probe}",
                    spec.id
                );
                assert_eq!(
                    c_arena.to_bits(),
                    c_prep.to_bits(),
                    "{}: prepared diverged from arena at probe {probe}: {c_arena} vs {c_prep}",
                    spec.id
                );
                assert_eq!(
                    c_arena.to_bits(),
                    c_compact.to_bits(),
                    "{}: compact diverged from arena at probe {probe}: {c_arena} vs {c_compact}",
                    spec.id
                );
                assert_eq!(
                    c_prep.to_bits(),
                    c_rep.to_bits(),
                    "{}: zero-dirty reuse changed the cost at probe {probe}",
                    spec.id
                );
            }
        }
    }
}

#[test]
fn scr_decision_stream_identical_across_scratch_modes() {
    // Driver A serves through `Scr::get_plan` (owned scratch, delta base
    // updates across calls); driver B drives the public fresh-scratch path
    // by hand. Decisions and served plans must match step for step.
    let mut rng = StdRng::seed_from_u64(0xa2e7_0002);
    for id in ["tpch_skew_A_d2", "tpcds_G_d3", "rd2_T_d10"] {
        let spec = corpus().iter().find(|s| s.id == id).expect("template");
        let dims = spec.template.dimensions();
        let engine_a = QueryEngine::new(Arc::clone(&spec.template));
        let engine_b = QueryEngine::new(Arc::clone(&spec.template));
        let mut scr_a = Scr::new(1.4).unwrap();
        let mut scr_b = Scr::new(1.4).unwrap();

        for step in 0..120 {
            let target: Vec<f64> = (0..dims).map(|_| rng.gen_range(2e-3..1.0f64)).collect();
            let inst = instance_for_target(&spec.template, &target);
            let sv = compute_svector(&spec.template, &inst);

            let a = scr_a.get_plan(&inst, &sv, &engine_a);
            let b = match scr_b.try_cached_plan(&sv, &engine_b) {
                Some(choice) => choice,
                None => {
                    let opt = engine_b.optimize(&sv);
                    let plan = Arc::clone(&opt.plan);
                    scr_b.manage_cache_entry(&sv, opt, &engine_b);
                    PlanChoice {
                        plan,
                        optimized: true,
                    }
                }
            };
            assert_eq!(a.optimized, b.optimized, "{id}: step {step} diverged");
            assert_eq!(
                a.plan.fingerprint(),
                b.plan.fingerprint(),
                "{id}: step {step} served different plans"
            );
        }
        assert_eq!(scr_a.plans_cached(), scr_b.plans_cached());
        assert_eq!(scr_a.cache().num_instances(), scr_b.cache().num_instances());
    }
}
