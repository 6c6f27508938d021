//! The query-engine façade.
//!
//! Section 4.2 of the paper lists exactly two APIs a database engine must
//! add (beyond the traditional optimizer call) to support SCR:
//!
//! 1. *Compute selectivity vector* — [`QueryEngine::compute_svector`];
//! 2. *Recost plan* — [`QueryEngine::recost`].
//!
//! [`QueryEngine`] bundles those with the optimizer call, counts every
//! invocation and accumulates the wall-clock time of optimizer calls and
//! Recosts, which is what the overhead experiments (Sections 7.3, Table 3)
//! report. It keeps what the optimizer call can reuse between calls: the
//! template's search space, laid out by the first one, and every winner it
//! has built, keyed by the choice path that led to it. A call whose winner
//! is known returns the stored `Arc` without building, hashing or
//! flattening a tree; equal plans share one allocation — mirroring a real
//! plan cache's handle semantics.
//!
//! Every entry point takes `&self`: the counters are atomics and the
//! known-winner table sits behind a `Mutex`, so a shared engine can serve
//! concurrent `get_plan` callers (the serving-layer requirement) and
//! observers can read [`QueryEngine::stats`] without blocking servers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::cost::CostModel;
use crate::optimizer::PreparedOptimize;
use crate::plan::Plan;
use crate::recost::{self, BaseConsts, PreparedRecost, RecostScratch};
use crate::svector::{self, SVector};
use crate::template::{QueryInstance, QueryTemplate};

/// Call counters for the three engine APIs, and accumulated latencies for
/// the optimizer call and Recost.
///
/// This is a point-in-time *snapshot*, returned by value from
/// [`QueryEngine::stats`]; the live counters inside the engine are atomics.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Number of full optimizer calls.
    pub optimize_calls: u64,
    /// Number of Recost calls.
    pub recost_calls: u64,
    /// Number of selectivity-vector computations.
    pub svector_calls: u64,
    /// Total wall time spent in the optimizer.
    pub optimize_time: Duration,
    /// Total wall time spent re-costing: per call for
    /// [`QueryEngine::recost`] and [`QueryEngine::recost_prepared`]; for a
    /// loop reported through [`QueryEngine::record_recosts`] (SCR's cost
    /// check and redundancy check) the loop's one bracket, which also holds
    /// what the loop does between its Recosts.
    pub recost_time: Duration,
}

impl EngineStats {
    /// Mean optimizer-call latency, if any call was made.
    pub fn mean_optimize(&self) -> Option<Duration> {
        mean(self.optimize_time, self.optimize_calls)
    }

    /// Mean Recost latency, if any call was made.
    pub fn mean_recost(&self) -> Option<Duration> {
        mean(self.recost_time, self.recost_calls)
    }
}

/// `total / calls`, in nanoseconds wide enough for any count (`Duration`'s
/// own division takes a `u32`).
fn mean(total: Duration, calls: u64) -> Option<Duration> {
    let nanos = total.as_nanos().checked_div(u128::from(calls))?;
    Some(Duration::from_nanos(nanos as u64))
}

/// Lock-free accumulator pair: call count + total elapsed nanoseconds.
///
/// Counters use `Relaxed` ordering throughout: each counter is independent
/// and observers only need eventually-consistent totals, never cross-counter
/// ordering.
#[derive(Debug, Default)]
struct ApiCounter {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl ApiCounter {
    fn record(&self, elapsed: Duration) {
        self.record_calls(1, elapsed);
    }

    /// `calls` calls that took `elapsed` together; a zero `elapsed` (calls
    /// the caller did not time) leaves the time alone.
    fn record_calls(&self, calls: u64, elapsed: Duration) {
        self.calls.fetch_add(calls, Ordering::Relaxed);
        if !elapsed.is_zero() {
            self.nanos
                .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.nanos.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self) -> (u64, Duration) {
        (
            self.calls.load(Ordering::Relaxed),
            Duration::from_nanos(self.nanos.load(Ordering::Relaxed)),
        )
    }
}

/// An optimized plan together with its estimated optimal cost.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The optimal plan (interned: equal structures share the `Arc`).
    pub plan: Arc<Plan>,
    /// `Cost(Popt(q), q)` at the optimized instance.
    pub cost: f64,
}

/// The engine a PQO technique talks to: one parameterized query template,
/// a cost model, and the three API entry points with accounting.
///
/// `QueryEngine` is `Sync`: all entry points take `&self`, so one engine can
/// be shared across serving threads without an outer lock.
#[derive(Debug)]
pub struct QueryEngine {
    id: u64,
    template: Arc<QueryTemplate>,
    cost_model: CostModel,
    base_consts: BaseConsts,
    /// The template's search space, laid out by the first optimizer call:
    /// an engine that only ever re-costs (a replica's, a hit-only one) never
    /// builds it.
    prepared: OnceLock<Box<PreparedOptimize>>,
    optimize_stat: ApiCounter,
    recost_stat: ApiCounter,
    svector_calls: AtomicU64,
    /// Choice path → the plan built the first time that path won.
    known: Mutex<HashMap<Box<[u64]>, Arc<Plan>>>,
}

impl QueryEngine {
    /// Create an engine for `template` with the default cost model.
    pub fn new(template: Arc<QueryTemplate>) -> Self {
        QueryEngine::with_cost_model(template, CostModel::default())
    }

    /// Create an engine with a custom cost model.
    pub fn with_cost_model(template: Arc<QueryTemplate>, cost_model: CostModel) -> Self {
        // `Relaxed`: the counter hands out distinct values and publishes
        // nothing else. 0 is never handed out.
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        QueryEngine {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            base_consts: BaseConsts::new(&template),
            prepared: OnceLock::new(),
            template,
            cost_model,
            optimize_stat: ApiCounter::default(),
            recost_stat: ApiCounter::default(),
            svector_calls: AtomicU64::new(0),
            known: Mutex::default(),
        }
    }

    /// A number no other engine of this process has or will have (never 0).
    /// State memoized against an engine — a per-thread
    /// `GetPlanScratch`'s base cardinalities — is keyed by it rather than
    /// by the engine's address, which the allocator hands to the next engine
    /// as soon as this one is dropped.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The template this engine serves.
    pub fn template(&self) -> &Arc<QueryTemplate> {
        &self.template
    }

    /// The engine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Point-in-time snapshot of the accumulated API statistics.
    ///
    /// Lock-free; never blocks a thread that is inside `optimize`/`recost`.
    pub fn stats(&self) -> EngineStats {
        let (optimize_calls, optimize_time) = self.optimize_stat.snapshot();
        let (recost_calls, recost_time) = self.recost_stat.snapshot();
        EngineStats {
            optimize_calls,
            recost_calls,
            svector_calls: self.svector_calls.load(Ordering::Relaxed),
            optimize_time,
            recost_time,
        }
    }

    /// Reset counters (e.g. between workload sequences).
    pub fn reset_stats(&self) {
        self.optimize_stat.reset();
        self.recost_stat.reset();
        self.svector_calls.store(0, Ordering::Relaxed);
    }

    /// API 1 (Section 4.2): compute the selectivity vector of an instance.
    /// Counted, not timed: two clock reads would be a fifth of the lookup.
    pub fn compute_svector(&self, instance: &QueryInstance) -> SVector {
        let mut sv = SVector(Vec::with_capacity(instance.values.len()));
        self.compute_svector_into(instance, &mut sv);
        sv
    }

    /// [`QueryEngine::compute_svector`] into `out`, whose buffer is reused:
    /// a caller that keeps one per thread derives selectivity vectors
    /// without allocating.
    pub fn compute_svector_into(&self, instance: &QueryInstance, out: &mut SVector) {
        self.svector_calls.fetch_add(1, Ordering::Relaxed);
        svector::compute_svector_into(&self.template, instance, out);
    }

    /// The traditional optimizer call: optimal plan + cost for `sv`.
    pub fn optimize(&self, sv: &SVector) -> OptimizedPlan {
        self.optimize_within(sv, f64::INFINITY)
    }

    /// The optimizer call from a caller that knows some plan costs `bound`
    /// at `sv` — a cost check's cheapest Recost. The join search skips what
    /// cannot be part of a plan that cheap, and searches again unbounded if
    /// the bound turns out below the optimum. The result is
    /// [`QueryEngine::optimize`]'s bit for bit whatever `bound` is: one
    /// below the optimum (stale, negative, a crafted plan's) costs only the
    /// second search, and NaN prunes nothing. Counted and timed as
    /// [`QueryEngine::optimize`].
    pub fn optimize_within(&self, sv: &SVector, bound: f64) -> OptimizedPlan {
        self.optimize_timed(sv, bound).0
    }

    /// [`QueryEngine::optimize_within`], and the time it took, which it
    /// also counts in [`EngineStats::optimize_time`]: a caller that
    /// accounts optimizer time of its own reads no clock for it.
    pub fn optimize_timed(&self, sv: &SVector, bound: f64) -> (OptimizedPlan, Duration) {
        let start = Instant::now();
        let opt = self.run_optimizer(sv, bound);
        let elapsed = start.elapsed();
        self.optimize_stat.record(elapsed);
        (opt, elapsed)
    }

    /// The one way into the optimizer: lay the search space out if this is
    /// the engine's first call, then search it.
    fn run_optimizer(&self, sv: &SVector, bound: f64) -> OptimizedPlan {
        let prepared = self.prepared.get_or_init(|| {
            Box::new(PreparedOptimize::new(
                &self.template,
                &self.cost_model,
                &self.base_consts,
            ))
        });
        let (plan, cost) = prepared.run_within(
            &self.template,
            &self.cost_model,
            &self.base_consts,
            sv,
            bound,
            |path, build| self.known_winner(path, build),
        );
        OptimizedPlan { plan, cost }
    }

    /// The plan the choice path `path` names: the one stored when the path
    /// first won, or else `build()`'s — stored under the path, and shared
    /// with a structurally equal plan another path already stored.
    fn known_winner(&self, path: &[u64], build: &dyn Fn() -> Plan) -> Arc<Plan> {
        let mut known = self.known.lock().expect("known-winner table poisoned");
        if let Some(plan) = known.get(path) {
            return Arc::clone(plan);
        }
        let plan = build();
        let fp = plan.fingerprint();
        let plan = match known.values().find(|p| p.fingerprint() == fp) {
            Some(equal) => Arc::clone(equal),
            None => Arc::new(plan),
        };
        known.insert(path.into(), Arc::clone(&plan));
        plan
    }

    /// API 2 (Section 4.2): re-cost a frozen plan at new selectivities.
    pub fn recost(&self, plan: &Plan, sv: &SVector) -> f64 {
        let start = Instant::now();
        let cost = recost::recost(&self.template, &self.cost_model, plan, sv);
        self.recost_stat.record(start.elapsed());
        cost
    }

    /// Re-cost without touching the counters. Evaluation harnesses use this
    /// to compute ground-truth sub-optimality; it must never pollute the
    /// overhead accounting of the technique under test.
    pub fn recost_untracked(&self, plan: &Plan, sv: &SVector) -> f64 {
        recost::recost(&self.template, &self.cost_model, plan, sv)
    }

    /// The template's selectivity-independent base constants (shared by
    /// every prepared recost of this engine).
    pub fn base_consts(&self) -> &BaseConsts {
        &self.base_consts
    }

    /// Compile `plan` for repeated re-costing: hoists every
    /// selectivity-independent quantity out of the per-call path. Done once
    /// when a plan enters a cache.
    pub fn prepare_recost(&self, plan: &Plan) -> PreparedRecost {
        PreparedRecost::new(&self.template, &self.cost_model, &self.base_consts, plan)
    }

    /// API 2, prepared form: re-cost a compiled plan at new selectivities
    /// using a caller-owned scratch. Allocation-free after the first call on
    /// a given scratch; bit-identical to [`QueryEngine::recost`]. Counted
    /// under the same Recost statistics.
    pub fn recost_prepared(
        &self,
        prepared: &PreparedRecost,
        sv: &SVector,
        scratch: &mut RecostScratch,
    ) -> f64 {
        let start = Instant::now();
        let cost =
            recost::recost_prepared(&self.base_consts, &self.cost_model, prepared, sv, scratch);
        self.recost_stat.record(start.elapsed());
        cost
    }

    /// Prepared re-cost without touching the counters: benchmarks, and loops
    /// that time themselves once and report through
    /// [`QueryEngine::record_recosts`].
    pub fn recost_prepared_untracked(
        &self,
        prepared: &PreparedRecost,
        sv: &SVector,
        scratch: &mut RecostScratch,
    ) -> f64 {
        recost::recost_prepared(&self.base_consts, &self.cost_model, prepared, sv, scratch)
    }

    /// Count `calls` Recosts a caller issued through
    /// [`QueryEngine::recost_prepared_untracked`] inside one `elapsed`
    /// bracket of its own: one clock pair per loop instead of one per call.
    pub fn record_recosts(&self, calls: u64, elapsed: Duration) {
        self.recost_stat.record_calls(calls, elapsed);
    }

    /// Optimize without touching the counters (ground-truth oracle).
    pub fn optimize_untracked(&self, sv: &SVector) -> OptimizedPlan {
        self.run_optimizer(sv, f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svector::instance_for_target;
    use crate::template::test_fixtures;

    #[test]
    fn counters_track_calls() {
        let t = test_fixtures::two_dim();
        let e = QueryEngine::new(t.clone());
        let inst = instance_for_target(&t, &[0.1, 0.2]);
        let sv = e.compute_svector(&inst);
        let opt = e.optimize(&sv);
        let _ = e.recost(&opt.plan, &sv);
        assert_eq!(e.stats().svector_calls, 1);
        assert_eq!(e.stats().optimize_calls, 1);
        assert_eq!(e.stats().recost_calls, 1);
        assert!(e.stats().mean_optimize().is_some());
    }

    #[test]
    fn means_hold_past_u32_calls() {
        let calls = 1u64 << 32;
        let stats = EngineStats {
            optimize_calls: calls,
            recost_calls: 3 * calls,
            optimize_time: Duration::from_nanos(5 * calls),
            recost_time: Duration::from_nanos(6 * calls),
            ..EngineStats::default()
        };
        assert_eq!(stats.mean_optimize(), Some(Duration::from_nanos(5)));
        assert_eq!(stats.mean_recost(), Some(Duration::from_nanos(2)));
        assert_eq!(EngineStats::default().mean_optimize(), None);
    }

    #[test]
    fn untracked_calls_do_not_count() {
        let t = test_fixtures::two_dim();
        let e = QueryEngine::new(t.clone());
        let inst = instance_for_target(&t, &[0.1, 0.2]);
        let sv = svector::compute_svector(&t, &inst);
        let opt = e.optimize_untracked(&sv);
        let _ = e.recost_untracked(&opt.plan, &sv);
        assert_eq!(e.stats().optimize_calls, 0);
        assert_eq!(e.stats().recost_calls, 0);
    }

    #[test]
    fn plans_are_interned() {
        let t = test_fixtures::two_dim();
        let e = QueryEngine::new(t.clone());
        let a = e.optimize(&svector::compute_svector(
            &t,
            &instance_for_target(&t, &[0.10, 0.20]),
        ));
        let b = e.optimize(&svector::compute_svector(
            &t,
            &instance_for_target(&t, &[0.11, 0.21]),
        ));
        if a.plan.fingerprint() == b.plan.fingerprint() {
            assert!(
                Arc::ptr_eq(&a.plan, &b.plan),
                "same fingerprint must share the Arc"
            );
        }
    }

    #[test]
    fn a_known_winner_comes_back_as_the_stored_plan_at_any_bound() {
        let t = test_fixtures::three_dim();
        let e = QueryEngine::new(t.clone());
        let sv = svector::compute_svector(&t, &instance_for_target(&t, &[0.2, 0.1, 0.05]));
        let first = e.optimize(&sv);
        for bound in [first.cost, 0.0, f64::NAN, f64::INFINITY] {
            let again = e.optimize_within(&sv, bound);
            assert!(Arc::ptr_eq(&first.plan, &again.plan), "bound {bound}");
            assert_eq!(first.cost.to_bits(), again.cost.to_bits(), "bound {bound}");
        }
        assert_eq!(e.stats().optimize_calls, 5);
        assert_eq!(e.known.lock().unwrap().len(), 1);
    }

    #[test]
    fn recost_matches_optimize_cost_at_same_point() {
        let t = test_fixtures::three_dim();
        let e = QueryEngine::new(t.clone());
        let sv = svector::compute_svector(&t, &instance_for_target(&t, &[0.2, 0.1, 0.05]));
        let opt = e.optimize(&sv);
        let rc = e.recost(&opt.plan, &sv);
        assert!((opt.cost - rc).abs() < 1e-9 * opt.cost.max(1.0));
    }

    #[test]
    fn prepared_recost_agrees_with_recost_and_counts() {
        let t = test_fixtures::three_dim();
        let e = QueryEngine::new(t.clone());
        let sv = svector::compute_svector(&t, &instance_for_target(&t, &[0.2, 0.1, 0.05]));
        let opt = e.optimize(&sv);
        let prepared = e.prepare_recost(&opt.plan);
        let mut scratch = RecostScratch::new();
        let sv2 = svector::compute_svector(&t, &instance_for_target(&t, &[0.6, 0.1, 0.05]));
        for point in [&sv, &sv2, &sv] {
            let fast = e.recost_prepared(&prepared, point, &mut scratch);
            let slow = e.recost_untracked(&opt.plan, point);
            assert_eq!(fast.to_bits(), slow.to_bits());
        }
        assert_eq!(e.stats().recost_calls, 3);
        // A loop that timed itself reports its untracked calls in one go.
        let before = e.stats().recost_time;
        let _ = e.recost_prepared_untracked(&prepared, &sv2, &mut scratch);
        assert_eq!(e.stats().recost_calls, 3);
        e.record_recosts(2, Duration::from_nanos(40));
        assert_eq!(e.stats().recost_calls, 5);
        assert_eq!(e.stats().recost_time, before + Duration::from_nanos(40));
    }

    #[test]
    fn reset_stats_clears_counters() {
        let t = test_fixtures::two_dim();
        let e = QueryEngine::new(t.clone());
        let sv = svector::compute_svector(&t, &instance_for_target(&t, &[0.3, 0.3]));
        let _ = e.optimize(&sv);
        e.reset_stats();
        assert_eq!(e.stats().optimize_calls, 0);
        assert_eq!(e.stats().optimize_time, Duration::ZERO);
    }

    #[test]
    fn engine_is_sync_and_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryEngine>();

        let t = test_fixtures::two_dim();
        let e = QueryEngine::new(t.clone());
        std::thread::scope(|s| {
            for k in 0..4 {
                let e = &e;
                let t = &t;
                s.spawn(move || {
                    let target = [0.1 + 0.05 * k as f64, 0.2];
                    let sv = svector::compute_svector(t, &instance_for_target(t, &target));
                    let opt = e.optimize(&sv);
                    let _ = e.recost(&opt.plan, &sv);
                });
            }
        });
        assert_eq!(e.stats().optimize_calls, 4);
        assert_eq!(e.stats().recost_calls, 4);
    }
}
