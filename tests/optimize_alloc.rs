//! What one optimizer call allocates once its thread is warm. A call whose
//! winner the engine already built allocates nothing: the stored plan comes
//! back by its choice path. A new winner allocates only its plan (its tree,
//! its arena, the edge lists of its joins) and its entry in the engine's
//! table — nothing that grows with the search space: no table per relation
//! subset, no list per split, nothing per alternative. Counted with an
//! allocator that tallies per thread, in a test binary of its own so no
//! other test shares the allocator.

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
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an update of a
// const-initialised thread-local `Cell`, which has no destructor, never
// allocates and cannot unwind.
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

/// How many allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Over 60 seeded sVectors on one engine of `template`, once its search
/// space is laid out and the thread's memo grown: the most allocations of a
/// probe's first call (a new winner, or one an earlier probe built), how many
/// first calls allocated at all, and the most allocations of a probe's second
/// call, whose winner is known.
fn warm_calls(template: &Arc<QueryTemplate>) -> (u64, usize, u64) {
    let engine = QueryEngine::new(Arc::clone(template));
    let probes: Vec<SVector> = regions::generate(template, 60, 11)
        .iter()
        .map(|q| engine.compute_svector(q))
        .collect();
    engine.optimize_untracked(&probes[0]);
    let (mut first, mut new, mut repeat) = (0, 0, 0);
    for sv in &probes {
        let n = allocations(|| drop(std::hint::black_box(engine.optimize_untracked(sv))));
        first = first.max(n);
        new += usize::from(n > 0);
        let n = allocations(|| drop(std::hint::black_box(engine.optimize_untracked(sv))));
        repeat = repeat.max(n);
    }
    (first, new, repeat)
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

    let (big, big_new, big_known) = warm_calls(&eight);
    let (small, small_new, small_known) = warm_calls(three);
    assert!(
        big_new > 0 && small_new > 0,
        "no new winner among the probes"
    );
    assert_eq!((big_known, small_known), (0, 0), "a known winner allocated");
    assert!(big < 64, "{big} allocations for one new 8-relation winner");
    // Plan size is linear in the relation count; the search space is not.
    assert!(
        big <= 3 * small,
        "{big} allocations for 8 relations, {small} for 3"
    );
}
