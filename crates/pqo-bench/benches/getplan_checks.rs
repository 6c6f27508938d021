//! Latency anatomy of SCR's `getPlan` (Section 6.2): the selectivity check
//! is pure arithmetic over the instance list, the cost check adds a bounded
//! number of Recost calls, and only a miss pays the optimizer. This bench
//! measures each stage against a warmed cache.

use std::hint::black_box;
use std::sync::Arc;

use pqo_bench::microbench::Runner;
use pqo_core::engine::QueryEngine;
use pqo_core::scr::Scr;
use pqo_core::OnlinePqo;
use pqo_optimizer::svector::{compute_svector, SVector};
use pqo_workload::corpus::corpus;

fn warmed(lambda: f64, m: usize) -> (Scr, QueryEngine, Vec<SVector>) {
    let spec = corpus().iter().find(|s| s.id == "tpcds_G_d3").unwrap();
    let instances = spec.generate(m, 77);
    let engine = QueryEngine::new(Arc::clone(&spec.template));
    let mut scr = Scr::new(lambda).expect("valid bench λ");
    let mut svs = Vec::with_capacity(m);
    for inst in &instances {
        let sv = engine.compute_svector(inst);
        let _ = scr.get_plan(inst, &sv, &engine);
        svs.push(sv);
    }
    (scr, engine, svs)
}

fn main() {
    let runner = Runner::from_args();
    // Smoke runs (`cargo test`) shrink the warmed caches so setup stays
    // cheap; full `cargo bench` runs use the paper-scale cache sizes.
    let warm_m = if runner.quick() { 50 } else { 500 };

    // Selectivity-check hit: re-presenting a seen instance always passes
    // the first check (G = L = 1).
    {
        let (mut scr, engine, svs) = warmed(2.0, warm_m);
        let spec = corpus().iter().find(|s| s.id == "tpcds_G_d3").unwrap();
        let inst = spec.generate(1, 77).pop().unwrap();
        runner.bench("getplan/selectivity_check_hit", || {
            black_box(scr.get_plan(&inst, black_box(&svs[0]), &engine).optimized)
        });
    }

    // Raw G/L computation — the per-entry cost of scanning the instance
    // list during the selectivity check.
    {
        let a = SVector(vec![0.013, 0.021, 0.34]);
        let b = SVector(vec![0.017, 0.019, 0.41]);
        runner.bench("getplan/g_and_l", || {
            black_box(black_box(&a).g_and_l(black_box(&b)))
        });
    }

    // A full getPlan on an unseen instance (may land in any of the three
    // outcomes — this is the realistic per-instance overhead).
    {
        let (mut scr, engine, _) = warmed(2.0, warm_m);
        let spec = corpus().iter().find(|s| s.id == "tpcds_G_d3").unwrap();
        let fresh = spec.generate(256, 1234);
        let fresh_svs: Vec<SVector> = fresh
            .iter()
            .map(|i| compute_svector(&spec.template, i))
            .collect();
        let mut k = 0usize;
        runner.bench("getplan/getplan_unseen", || {
            k = (k + 1) % fresh.len();
            black_box(scr.get_plan(&fresh[k], &fresh_svs[k], &engine).optimized)
        });
    }

    // Scratch reuse ablation: the cached `getPlan` path with a fresh
    // GetPlanScratch per call (allocates the memo table and re-derives the
    // recost base every call) vs a caller-owned scratch threaded across
    // calls (zero-alloc hit path, delta base updates). At λ = 1.2 the cost
    // check's Recost work dominates; unseen instances so a realistic share
    // of calls reach it.
    {
        let (scr, engine, _) = warmed(1.2, warm_m);
        let spec = corpus().iter().find(|s| s.id == "tpcds_G_d3").unwrap();
        let fresh = spec.generate(256, 9999);
        let fresh_svs: Vec<SVector> = fresh
            .iter()
            .map(|i| compute_svector(&spec.template, i))
            .collect();
        let mut k = 0usize;
        runner.bench("getplan/try_cached_fresh_scratch", || {
            k = (k + 1) % fresh_svs.len();
            black_box(
                scr.try_cached_plan(black_box(&fresh_svs[k]), &engine)
                    .is_some(),
            )
        });
        let mut scratch = pqo_core::scr::GetPlanScratch::new();
        let mut k = 0usize;
        runner.bench("getplan/try_cached_reused_scratch", || {
            k = (k + 1) % fresh_svs.len();
            black_box(
                scr.try_cached_plan_with(black_box(&fresh_svs[k]), &engine, &mut scratch)
                    .is_some(),
            )
        });
    }

    // The decide step by template (DESIGN.md §5c quotes these): the cached
    // path against the cache a template's own stream leaves at λ = 2 — what
    // `embedded_corpus` serves, at the list's final length — over a second
    // stream, split by outcome.
    for id in [
        "tpch_skew_A_d1",
        "tpcds_G_d3",
        "tpch_skew_U_d4",
        "rd2_R_d6",
        "rd2_T_d10",
    ] {
        let spec = corpus().iter().find(|s| s.id == id).unwrap();
        let engine = QueryEngine::new(Arc::clone(&spec.template));
        let mut scr = Scr::new(2.0).expect("valid bench λ");
        let m = if runner.quick() {
            100
        } else {
            spec.default_len()
        };
        for inst in spec.generate(m, 1) {
            let sv = engine.compute_svector(&inst);
            let _ = scr.get_plan(&inst, &sv, &engine);
        }
        let mut scratch = pqo_core::scr::GetPlanScratch::new();
        let (hits, misses): (Vec<SVector>, Vec<SVector>) = spec
            .generate(512, 2)
            .iter()
            .map(|q| engine.compute_svector(q))
            .partition(|sv| {
                scr.try_cached_plan_with(sv, &engine, &mut scratch)
                    .is_some()
            });
        let n = scr.cache().num_instances();
        for (outcome, svs) in [("hit", &hits), ("miss", &misses)] {
            if svs.is_empty() {
                continue;
            }
            let mut k = 0usize;
            runner.bench(&format!("getplan/decide_{outcome}/{id} n={n}"), || {
                k = (k + 1) % svs.len();
                black_box(
                    scr.try_cached_plan_with(black_box(&svs[k]), &engine, &mut scratch)
                        .is_some(),
                )
            });
        }
    }
}
