//! `getPlan`'s cached path — candidate search, selectivity check, cost check,
//! serving the hit — allocates nothing once its `GetPlanScratch` is warm, in
//! either arithmetic, and neither does a `PqoService` hit, selectivity
//! vector included, nor one right after the thread switched templates.
//! Counted with an allocator that tallies per thread, in a test binary of
//! its own so no other test shares the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pqo::core::engine::QueryEngine;
use pqo::core::scr::{GetPlanScratch, Scr, ScrConfig};
use pqo::core::service::Cached;
use pqo::core::{OnlinePqo, PqoService};
use pqo::workload::corpus::{corpus, TemplateSpec};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a bump of a const-initialised
// thread-local `Cell<u64>`, which has no destructor, never allocates and
// cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: as `dealloc`, and the caller's obligations are
        // `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn spec() -> &'static TemplateSpec {
    corpus()
        .iter()
        .find(|s| s.id == "tpch_skew_U_d4")
        .expect("corpus template")
}

#[test]
fn cached_path_allocates_nothing_with_a_warm_scratch() {
    let spec = spec();
    let engine = QueryEngine::new(Arc::clone(&spec.template));
    let mut scr = Scr::new(1.2).unwrap();
    for q in spec.generate(1500, 1) {
        let sv = engine.compute_svector(&q);
        scr.get_plan(&q, &sv, &engine);
    }
    assert!(scr.cache().num_instances() > 300);

    let probes: Vec<_> = spec
        .generate(600, 2)
        .iter()
        .map(|q| engine.compute_svector(q))
        .collect();
    let mut scratch = GetPlanScratch::new();
    let pass = |scratch: &mut GetPlanScratch| -> (u64, usize) {
        let before = allocations();
        let hits = probes
            .iter()
            .filter(|sv| scr.try_cached_plan_with(sv, &engine, scratch).is_some())
            .count();
        (allocations() - before, hits)
    };
    // The first pass grows the scratch to this cache's size...
    let before = scr.stats();
    let (warming, hits) = pass(&mut scratch);
    let after = scr.stats();
    assert!(
        warming > 0,
        "the scratch buffers have to come from somewhere"
    );
    // ...having met every outcome: selectivity hits, cost hits, and
    // misses after Recosts.
    assert!(after.selectivity_hits > before.selectivity_hits);
    assert!(after.cost_hits > before.cost_hits);
    assert!(after.getplan_recost_calls > before.getplan_recost_calls);
    assert!(hits < probes.len(), "some probes must miss");
    // ...and the second allocates nothing at all.
    let (steady, hits_again) = pass(&mut scratch);
    assert_eq!(steady, 0, "allocations on the cached path");
    assert!(hits_again > 0);
}

#[test]
fn a_service_hit_allocates_nothing_once_the_thread_is_warm() {
    let spec = spec();
    let name = spec.template.name.clone();
    let service = PqoService::new();
    service
        .register(Arc::clone(&spec.template), ScrConfig::new(1.2).unwrap())
        .unwrap();
    for q in spec.generate(1500, 1) {
        service.get_plan(&name, &q).unwrap();
    }
    let probes = spec.generate(600, 2);
    // The first pass grows the thread's buffers and sorts the probes into
    // hits and misses; a miss is not resumed, so the cache stays as it is.
    let hits: Vec<_> = probes
        .iter()
        .filter(|q| matches!(service.serve_cached(&name, q), Ok(Cached::Hit { .. })))
        .collect();
    assert!(!hits.is_empty() && hits.len() < probes.len());
    // Both entry points, hit by hit: the selectivity vector is derived in
    // the thread's buffer, and only a miss would copy it out.
    for q in hits {
        let before = allocations();
        let cached = service.serve_cached(&name, q).unwrap();
        let choice = service.get_plan(&name, q).unwrap();
        assert_eq!(allocations() - before, 0, "allocations on a service hit");
        assert!(matches!(cached, Cached::Hit { .. }) && !choice.optimized);
    }
}

#[test]
fn a_hit_right_after_a_template_switch_allocates_nothing() {
    // Two templates of different arity and relation count: a switch re-binds
    // the thread's scratch to the other engine and refills its slot.
    let specs = ["tpch_skew_U_d4", "tpcds_V_d2"].map(|id| {
        corpus()
            .iter()
            .find(|s| s.id == id)
            .expect("corpus template")
    });
    let service = PqoService::new();
    for spec in specs {
        service
            .register(Arc::clone(&spec.template), ScrConfig::new(1.2).unwrap())
            .unwrap();
        for q in spec.generate(1500, 1) {
            service.get_plan(&spec.template.name, &q).unwrap();
        }
    }
    // Each template's hits among fresh probes (a miss is not resumed, so
    // the caches stay as they are).
    let [a, b] = specs.map(|spec| {
        let name = spec.template.name.as_str();
        let hits: Vec<_> = spec
            .generate(400, 2)
            .into_iter()
            .filter(|q| matches!(service.serve_cached(name, q), Ok(Cached::Hit { .. })))
            .collect();
        assert!(!hits.is_empty(), "{name} has hits");
        (name, hits)
    });
    for (qa, qb) in a.1.iter().zip(b.1.iter().cycle()) {
        for (name, q) in [(a.0, qa), (b.0, qb)] {
            let before = allocations();
            let cached = service.serve_cached(name, q).unwrap();
            assert_eq!(
                allocations() - before,
                0,
                "allocations on the first hit for {name} after a switch"
            );
            assert!(matches!(cached, Cached::Hit { .. }));
        }
    }
}
