//! The paper's headline engine claim (Sections 1, 4.2, Appendix B): the
//! Recost API is much cheaper than a full optimizer call — "up to two
//! orders of magnitude" in their SQL Server implementation. This bench
//! measures all three engine APIs (optimize, recost, sVector) on templates
//! of increasing size, plus the arena/prepared Recost variants:
//!
//! * `recost` — the arena stack machine (one linear pass, fresh base
//!   derivation per call).
//! * `recost_prepared` — prepared constants + caller scratch, alternating
//!   sVectors that differ in *every* dimension (full base re-derivation
//!   each call).
//! * `recost_delta` — same, but the alternating sVectors differ in one
//!   dimension: only that relation's base row count is re-derived.
//! * `recost_hot` — same sVector every call (zero dirty dimensions): the
//!   cost-check candidate-loop case, where one base derivation is shared
//!   across every candidate plan.

use std::hint::black_box;
use std::sync::Arc;

use pqo_bench::microbench::Runner;
use pqo_core::engine::QueryEngine;
use pqo_optimizer::recost::RecostScratch;
use pqo_optimizer::svector::{compute_svector, SVector};
use pqo_workload::corpus::corpus;

fn main() {
    let runner = Runner::from_args();
    // One representative template per join-graph size.
    let picks = [
        "tpch_skew_A_d2",
        "tpch_skew_B_d2",
        "tpcds_G_d3",
        "rd2_T_d10",
    ];
    for id in picks {
        let spec = corpus()
            .iter()
            .find(|s| s.id == id)
            .expect("corpus template");
        let engine = QueryEngine::new(Arc::clone(&spec.template));
        let inst = spec.generate(1, 5).pop().unwrap();
        let sv = compute_svector(&spec.template, &inst);
        let plan = engine.optimize(&sv).plan;

        runner.bench(&format!("engine_api/optimize/{id}"), || {
            black_box(engine.optimize_untracked(black_box(&sv)).cost)
        });
        runner.bench(&format!("engine_api/recost/{id}"), || {
            black_box(engine.recost_untracked(black_box(&plan), black_box(&sv)))
        });
        runner.bench(&format!("engine_api/svector/{id}"), || {
            black_box(compute_svector(&spec.template, black_box(&inst)))
        });

        // Prepared variants: selectivity-independent constants are folded
        // once; each call is a base-derivation update plus one linear pass.
        let prepared = engine.prepare_recost(&plan);
        let sv_all = SVector(sv.0.iter().map(|s| (s * 0.5).max(1e-6)).collect());
        let mut sv_one = sv.clone();
        sv_one.0[0] = (sv_one.0[0] * 0.5).max(1e-6);

        let mut scratch = RecostScratch::new();
        let mut flip = false;
        runner.bench(&format!("engine_api/recost_prepared/{id}"), || {
            flip = !flip;
            let q = if flip { &sv_all } else { &sv };
            black_box(engine.recost_prepared_untracked(&prepared, black_box(q), &mut scratch))
        });

        let mut scratch = RecostScratch::new();
        let mut flip = false;
        runner.bench(&format!("engine_api/recost_delta/{id}"), || {
            flip = !flip;
            let q = if flip { &sv_one } else { &sv };
            black_box(engine.recost_prepared_untracked(&prepared, black_box(q), &mut scratch))
        });

        let mut scratch = RecostScratch::new();
        runner.bench(&format!("engine_api/recost_hot/{id}"), || {
            black_box(engine.recost_prepared_untracked(&prepared, black_box(&sv), &mut scratch))
        });

        // Appendix B trade-off: the compact byte-encoded plan re-costs via
        // a stack machine — less memory per cached plan, more time per call.
        let compact = pqo_optimizer::compact::CompactPlan::encode(&plan);
        let model = engine.cost_model().clone();
        runner.bench(&format!("engine_api/recost_compact/{id}"), || {
            black_box(pqo_optimizer::compact::recost_compact(
                &spec.template,
                &model,
                black_box(&compact),
                black_box(&sv),
            ))
        });
    }
}
