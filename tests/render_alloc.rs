//! `EXPLAIN`'s renderer (`pqo_sql::emit::render`) writes a plan's join order
//! in one preorder pass into its output: the bytes it allocates are linear
//! in the text it returns, however deep the plan, and the text is the one
//! the bottom-up string-stack rendering produced. Allocations are counted by
//! an allocator that tallies bytes per thread, in a test binary of its own
//! so no other test shares the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pqo::core::engine::QueryEngine;
use pqo::optimizer::plan::{Plan, PlanOp};
use pqo::optimizer::template::QueryTemplate;
use pqo::sql::emit::render;
use pqo::sql::DialectKind;
use pqo::workload::corpus::corpus;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count(bytes: usize) {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    }
}

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a bump of a const-initialised
// thread-local `Cell<u64>`, which has no destructor, never allocates and
// cannot unwind.
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

fn bytes_allocated() -> u64 {
    BYTES.with(Cell::get)
}

/// The join order as rendered before the preorder pass: bottom-up over the
/// postorder arena, one `String` per subtree on a stack.
fn reference_join_order(plan: &Plan, template: &QueryTemplate) -> String {
    let alias = |rel: usize| {
        template
            .relations
            .get(rel)
            .map(|r| r.alias.clone())
            .unwrap_or_else(|| format!("r{rel}"))
    };
    let mut stack: Vec<String> = Vec::new();
    for node in plan.nodes() {
        let expr = match &node.op {
            PlanOp::SeqScan { relation }
            | PlanOp::IndexSeek { relation, .. }
            | PlanOp::SortedIndexScan { relation, .. } => alias(*relation),
            PlanOp::HashJoin { .. } | PlanOp::MergeJoin { .. } => {
                let r = stack.pop().unwrap_or_default();
                let l = stack.pop().unwrap_or_default();
                format!("({l} ⨝ {r})")
            }
            PlanOp::IndexNlj { inner, .. } => {
                let l = stack.pop().unwrap_or_default();
                format!("({l} ⨝ {})", alias(*inner))
            }
            PlanOp::HashAggregate | PlanOp::StreamAggregate | PlanOp::Sort { .. } => continue,
        };
        stack.push(expr);
    }
    stack.pop().unwrap_or_default()
}

#[test]
fn every_corpus_plan_renders_its_reference_join_order() {
    let mut plans = 0;
    for spec in corpus() {
        let engine = QueryEngine::new(Arc::clone(&spec.template));
        let mut seen = Vec::new();
        for q in spec.generate(40, 11) {
            let plan = engine.optimize(&engine.compute_svector(&q)).plan;
            if seen.contains(&plan.fingerprint()) {
                continue;
            }
            seen.push(plan.fingerprint());
            let want = format!(
                "-- join order: {}",
                reference_join_order(&plan, &spec.template)
            );
            for &dialect in DialectKind::ALL {
                let sql = render(&spec.template, &plan, dialect, Some(&q.values));
                assert_eq!(
                    sql.lines().nth(3),
                    Some(want.as_str()),
                    "{} {} in {dialect:?}",
                    spec.id,
                    plan.fingerprint()
                );
            }
        }
        plans += seen.len();
    }
    assert!(plans >= 500, "only {plans} distinct corpus plans rendered");
}

#[test]
fn a_deep_join_chain_renders_in_bytes_linear_in_its_text() {
    let spec = corpus()
        .iter()
        .find(|s| s.template.num_relations() == 2)
        .expect("a 2-relation corpus template");
    // A left-deep chain of 20 000 hash joins, each adding relation 1 again:
    // the shape of a crafted cached plan, not of anything the optimizer
    // builds.
    const JOINS: usize = 20_000;
    let mut ops = vec![PlanOp::SeqScan { relation: 0 }];
    for _ in 0..JOINS {
        ops.push(PlanOp::SeqScan { relation: 1 });
        ops.push(PlanOp::HashJoin {
            build_left: false,
            edges: Vec::new(),
        });
    }
    let plan = Plan::from_postorder(ops).expect("well-formed chain");

    let before = bytes_allocated();
    let sql = render(&spec.template, &plan, DialectKind::Postgres, None);
    let allocated = bytes_allocated() - before;

    let line = sql.lines().nth(3).expect("join order line");
    assert!(line.starts_with("-- join order: (((("), "{}", &line[..40]);
    assert_eq!(line.matches('⨝').count(), JOINS);
    assert!(
        allocated <= 8 * sql.len() as u64,
        "{allocated} bytes allocated to render {} bytes",
        sql.len()
    );
}
