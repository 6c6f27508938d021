//! What one optimizer call allocates once its thread is warm: the winning
//! plan (its tree, its arena, the edge lists of its joins) and nothing that
//! grows with the search space — no table per relation subset, no list per
//! split, nothing per alternative. Counted with an allocator that tallies
//! per thread, in a test binary of its own so no other test shares the
//! allocator.

// The goldens' helpers come with it; only the templates are used here.
#[allow(dead_code)]
mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pqo::core::engine::QueryEngine;
use pqo::optimizer::svector::SVector;
use pqo::optimizer::template::QueryTemplate;
use pqo::workload::corpus::corpus;
use pqo::workload::regions;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count(size: usize) {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    }
}

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an update of two
// const-initialised thread-local `Cell`s, which have no destructor, never
// allocate and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: as `dealloc`, and the caller's obligations are
        // `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most allocations any one warm `optimize_untracked` call on `template`
/// makes over 60 seeded sVectors, and the largest single request.
fn warm_call(template: &Arc<QueryTemplate>) -> (u64, usize) {
    let engine = QueryEngine::new(Arc::clone(template));
    let probes: Vec<SVector> = regions::generate(template, 60, 11)
        .iter()
        .map(|q| engine.compute_svector(q))
        .collect();
    // Warm: the search space laid out, the thread's memo grown, every plan
    // these probes produce interned.
    for sv in &probes {
        engine.optimize_untracked(sv);
    }
    LARGEST.with(|l| l.set(0));
    let most = probes
        .iter()
        .map(|sv| {
            let before = ALLOCATIONS.with(Cell::get);
            std::hint::black_box(engine.optimize_untracked(sv));
            ALLOCATIONS.with(Cell::get) - before
        })
        .max()
        .expect("probes");
    (most, LARGEST.with(Cell::get))
}

#[test]
fn a_warm_optimizer_call_allocates_only_its_plan() {
    let (_, eight) = common::bigjoin_templates()
        .into_iter()
        .find(|(id, _)| id == "bigjoin_q5_local_supplier")
        .expect("bench/templates has q5");
    assert_eq!(eight.num_relations(), 8);
    let three = &corpus()
        .iter()
        .find(|s| s.id == "tpch_skew_D_d3")
        .expect("corpus template")
        .template;
    assert_eq!(three.num_relations(), 3);

    let (big, largest) = warm_call(&eight);
    let (small, _) = warm_call(three);
    assert!(big < 64, "{big} allocations in one 8-relation call");
    assert!(largest < 1024, "one allocation of {largest} bytes");
    // Plan size is linear in the relation count; the search space is not.
    assert!(
        big <= 3 * small,
        "{big} allocations for 8 relations, {small} for 3"
    );
}
