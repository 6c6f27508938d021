//! The cached decision is compiled twice from one source — a portable build
//! and, on x86-64, an AVX2 build — and the CPU picks one per call
//! (`CacheState::try_cached_plan_with`). Target features change instruction
//! selection, not IEEE results, so the two builds must decide alike, bit for
//! bit. This file holds them to it: the streams `embedded_corpus` and
//! `embedded_bigjoin` serve are decided into two caches in lockstep, one
//! through the build the CPU picks, one through the portable build, and at
//! every decision the served plan, the bound a miss hands the optimizer and
//! the Recost tallies must be equal. On a CPU without AVX2 both calls run the
//! portable build, and the test says it was skipped.

// The goldens' helpers come with it; only their streams are used here.
#[allow(dead_code)]
mod common;

use std::sync::Arc;

use common::{bigjoin_templates, lambda, mix, on_two_threads};
use pqo::core::engine::QueryEngine;
use pqo::core::scr::{GetPlanScratch, Scr, ScrConfig, ScrStats};
use pqo::core::PlanChoice;
use pqo::optimizer::template::{QueryInstance, QueryTemplate};
use pqo::workload::corpus::corpus;
use pqo::workload::regions;

/// Whether the CPU picks the AVX2 build.
fn picks_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// What a decision leaves in the stat cells: hits by check, Recosts, their
/// per-decision maximum and the Appendix G marks.
fn tallies(s: &ScrStats) -> [u64; 5] {
    [
        s.selectivity_hits,
        s.cost_hits,
        s.getplan_recost_calls,
        s.max_recosts_per_getplan,
        s.violations_detected,
    ]
}

fn fingerprint(choice: &Option<PlanChoice>) -> Option<u64> {
    choice.as_ref().map(|c| c.plan.fingerprint().0)
}

/// One stream decided into two fresh caches, one per build; a miss's
/// optimizer call is made once and admitted into both, as `Scr::get_plan`
/// admits it.
fn lockstep(
    label: &str,
    template: &Arc<QueryTemplate>,
    config: ScrConfig,
    instances: &[QueryInstance],
) {
    let engine = QueryEngine::new(Arc::clone(template));
    let mut picked = Scr::with_config(config.clone()).expect("valid config");
    let mut portable = Scr::with_config(config).expect("valid config");
    let (mut picked_scratch, mut portable_scratch) = (GetPlanScratch::new(), GetPlanScratch::new());
    for (i, q) in instances.iter().enumerate() {
        let sv = engine.compute_svector(q);
        let a = picked.try_cached_plan_with(&sv, &engine, &mut picked_scratch);
        let b = portable.try_cached_plan_portable(&sv, &engine, &mut portable_scratch);
        let at = format!("{label}, decision {i}");
        assert_eq!(fingerprint(&a), fingerprint(&b), "served plan ({at})");
        let bound = picked_scratch.optimize_bound();
        assert_eq!(
            bound.to_bits(),
            portable_scratch.optimize_bound().to_bits(),
            "optimizer bound ({at})"
        );
        assert_eq!(
            tallies(&picked.stats()),
            tallies(&portable.stats()),
            "hits, Recosts and marks ({at})"
        );
        if a.is_none() {
            let opt = engine.optimize_within(&sv, bound);
            picked.manage_cache_entry(&sv, opt.clone(), &engine);
            portable.manage_cache_entry(&sv, opt, &engine);
        }
    }
    assert_eq!(picked.cache().num_plans(), portable.cache().num_plans());
}

#[test]
fn both_builds_decide_alike_on_the_corpus_and_the_bigjoin_streams() {
    if !picks_avx2() {
        eprintln!("skipped: this CPU has no AVX2, so only the portable build runs");
        return;
    }
    // The paper's evaluation at λ = 2 on seed 1 (what `embedded_corpus`
    // serves).
    on_two_threads(corpus(), |s| {
        let label = format!("corpus seed=1 {}", s.id);
        lockstep(
            &label,
            &s.template,
            lambda(2.0),
            &s.generate(s.default_len(), 1),
        );
    });
    // The 8-relation SQL templates at λ = 1.05 (what `embedded_bigjoin`
    // serves).
    let bigjoin = bigjoin_templates();
    let indexed: Vec<_> = bigjoin.iter().enumerate().collect();
    on_two_threads(&indexed, |&(index, (id, template))| {
        let instances = regions::generate(template, 1000, mix(1, 100 + index as u64));
        lockstep(
            &format!("bigjoin seed=1 {id}"),
            template,
            lambda(1.05),
            &instances,
        );
    });
}
