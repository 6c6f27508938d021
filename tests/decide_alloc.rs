//! `getPlan`'s cached path — candidate search, selectivity check, cost check,
//! serving the hit — allocates nothing once its `GetPlanScratch` is warm, in
//! either arithmetic. Counted with an allocator that tallies per thread, in
//! a test binary of its own so no other test shares the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pqo::core::engine::QueryEngine;
use pqo::core::scr::{GetPlanScratch, Scr, ScrConfig};
use pqo::core::OnlinePqo;
use pqo::workload::corpus::corpus;

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

#[test]
fn cached_path_allocates_nothing_with_a_warm_scratch() {
    let spec = corpus()
        .iter()
        .find(|s| s.id == "tpch_skew_U_d4")
        .expect("corpus template");
    // The log form from the first instance on, and the product form always.
    for threshold in [0, usize::MAX] {
        let engine = QueryEngine::new(Arc::clone(&spec.template));
        let mut config = ScrConfig::new(1.2).unwrap();
        config.spatial_index_threshold = threshold;
        let mut scr = Scr::with_config(config).unwrap();
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
        assert_eq!(
            steady, 0,
            "threshold {threshold}: allocations on the cached path"
        );
        assert!(hits_again > 0);
    }
}
