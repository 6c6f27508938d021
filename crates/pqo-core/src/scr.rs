//! SCR: the paper's online PQO technique with guarantees.
//!
//! SCR processes query instances online with three checks:
//!
//! 1. **Selectivity check** (Sections 5.3, 6.2): for a stored instance `qe`
//!    with entry `<V, PP, C, S, U>`, compute the selectivity-ratio factors
//!    `G = ∏_{αi>1} αi` and `L = ∏_{αi<1} 1/αi`. Under Bounded Cost Growth
//!    with `fi(α) = α`, `SubOpt(P(qe), qc) ≤ G·S·L`, so the check
//!    `G·L ≤ λ/S` guarantees λ-optimality using arithmetic only.
//! 2. **Cost check** (Section 6.2): for the most promising candidates (in
//!    increasing `G·L` order), replace the `G` bound by the exact ratio
//!    `R = Recost(P(qe), qc) / C`; reuse when `R·L ≤ λ/S`.
//! 3. **Redundancy check** (Section 6.3): when a fresh optimization yields a
//!    plan not in the cache, discard it if some cached plan is within
//!    `λr = √λ` of optimal at `qc` (Appendix E justifies the √λ choice).
//!
//! Extensions implemented: plan budget `k` with least-frequently-used
//! eviction (Section 6.3.1), dynamic λ (Appendix D), redundancy sweep for
//! existing plans (Appendix F), and BCG/PCM violation detection with entry
//! disabling (Appendix G).
//!
//! # Concurrency split
//!
//! Everything a decision reads lives in one [`CacheState`]. Its cache-*read*
//! path ([`CacheState::try_cached_plan`] — selectivity check and cost
//! check) takes `&self`: served-instance bookkeeping (usage counts,
//! violation flags, technique counters) lives in atomics, so N threads run
//! `getPlan` against one published state. Only `manageCache`
//! ([`Scr::manage_cache_entry`]) mutates the cache structure and needs
//! `&mut`. [`Scr`] is the sequential technique and the oracle every other
//! serving path is compared against; [`crate::service::PqoService`] is the
//! concurrent one, and realises Section 4.1's asynchronous `manageCache` by
//! publishing a clone of the writer's state after every mutation
//! ([`crate::snapshot`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pqo_optimizer::engine::{OptimizedPlan, QueryEngine};
use pqo_optimizer::error::PqoError;
use pqo_optimizer::plan::PlanFingerprint;
use pqo_optimizer::recost::RecostScratch;
use pqo_optimizer::svector::SVector;
use pqo_optimizer::template::{QueryInstance, QueryTemplate};

use crate::cache::{InstanceEntry, PlanCache};
use crate::spatial::KeyStream;
use crate::{OnlinePqo, PlanChoice};

/// Dynamic λ mapping of Appendix D: cheaper instances tolerate a larger λ.
#[derive(Debug, Clone, Copy)]
pub struct DynamicLambda {
    /// λ used for the most expensive instances.
    pub lambda_min: f64,
    /// λ approached by the cheapest instances.
    pub lambda_max: f64,
}

/// Violation window of the cost check: candidates are the first
/// `max_recost_candidates` entries without an Appendix G violation mark
/// among the `max_recost_candidates × 4` nearest (never fewer than 16), so
/// disabled entries do not starve the list.
const RECOST_FETCH_FACTOR: usize = 4;

/// The cost check reads the clock around one cost check in this many,
/// counted per [`GetPlanScratch`], and counts what it reads this many times
/// over; the others read no clock. Recost *counts* are exact either way.
const RECOST_CLOCK_PERIOD: u32 = 16;

/// SCR configuration.
#[derive(Debug, Clone)]
pub struct ScrConfig {
    /// The sub-optimality bound λ ≥ 1.
    pub lambda: f64,
    /// Redundancy-check threshold λr (Appendix E). `0.0` disables the
    /// redundancy check (every new plan is stored); the paper's default is
    /// `√λ`.
    pub lambda_r: f64,
    /// Optional hard budget `k` on the number of cached plans
    /// (Section 6.3.1). Eviction removes the plan with minimum aggregate
    /// usage together with all its instance entries.
    pub plan_budget: Option<usize>,
    /// Maximum number of candidate entries the cost check may re-cost per
    /// `getPlan` call — the G·L-pruning heuristic of Section 6.2.
    pub max_recost_candidates: usize,
    /// Dynamic λ range (Appendix D); `None` keeps λ static.
    pub dynamic_lambda: Option<DynamicLambda>,
    /// Appendix G: detect BCG/PCM violations during cost checks and disable
    /// the offending entries for future cost checks.
    pub violation_handling: bool,
    /// Appendix F: after adding a new plan, probe whether existing plans
    /// became redundant and drop them. Off by default (the paper's
    /// evaluation only applies the redundancy check to new plans).
    pub existing_plan_redundancy: bool,
}

impl ScrConfig {
    /// The paper's default configuration for a given λ: `λr = √λ`, no plan
    /// budget, at most 8 Recost candidates, static λ, violation handling on.
    ///
    /// # Errors
    /// [`PqoError::InvalidLambda`] unless λ is finite and ≥ 1.
    pub fn new(lambda: f64) -> Result<Self, PqoError> {
        if !lambda.is_finite() || lambda < 1.0 {
            return Err(PqoError::InvalidLambda { lambda, what: "λ" });
        }
        Ok(ScrConfig {
            lambda,
            lambda_r: lambda.sqrt(),
            plan_budget: None,
            max_recost_candidates: 8,
            dynamic_lambda: None,
            violation_handling: true,
            existing_plan_redundancy: false,
        })
    }

    /// Validate every knob (used by the `Scr` constructors, which accept
    /// hand-edited configurations).
    pub fn validate(&self) -> Result<(), PqoError> {
        if !self.lambda.is_finite() || self.lambda < 1.0 {
            return Err(PqoError::InvalidLambda {
                lambda: self.lambda,
                what: "λ",
            });
        }
        if !self.lambda_r.is_finite() || self.lambda_r < 0.0 {
            return Err(PqoError::InvalidLambda {
                lambda: self.lambda_r,
                what: "λr",
            });
        }
        if let Some(DynamicLambda {
            lambda_min,
            lambda_max,
        }) = self.dynamic_lambda
        {
            if !lambda_min.is_finite() || lambda_min < 1.0 {
                return Err(PqoError::InvalidLambda {
                    lambda: lambda_min,
                    what: "dynamic λ",
                });
            }
            if !lambda_max.is_finite() || lambda_max < lambda_min {
                return Err(PqoError::InvalidLambda {
                    lambda: lambda_max,
                    what: "dynamic λ",
                });
            }
        }
        if self.plan_budget == Some(0) {
            return Err(PqoError::InvalidBudget { budget: 0 });
        }
        Ok(())
    }
}

/// Counters describing how SCR served a sequence (Section 7.3's overhead
/// anatomy).
///
/// A point-in-time *snapshot*, returned by value from [`CacheState::stats`]; the
/// live counters are atomics inside the technique, so observers never block
/// servers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScrStats {
    /// Instances served by the selectivity check.
    pub selectivity_hits: u64,
    /// Instances served by the cost check.
    pub cost_hits: u64,
    /// Instances that required an optimizer call.
    pub optimizer_calls: u64,
    /// New plans discarded by the redundancy check.
    pub redundant_plans_discarded: u64,
    /// Existing plans dropped by the Appendix F sweep.
    pub existing_plans_dropped: u64,
    /// Plans evicted to enforce the budget `k`.
    pub budget_evictions: u64,
    /// Total Recost calls issued from `getPlan` (cost check only).
    pub getplan_recost_calls: u64,
    /// Maximum Recost calls issued by any single `getPlan` invocation.
    pub max_recosts_per_getplan: u64,
    /// Entries disabled after a detected BCG/PCM violation (Appendix G).
    pub violations_detected: u64,
    /// Cumulative nanoseconds spent in Recost work (cost check, redundancy
    /// check and Appendix F sweep) — one side of the paper's
    /// Recost-vs-optimize overhead split (Section 7.3). The cost check's
    /// share is sampled: one cost check in 16 is timed, and counted 16
    /// times over (per caller scratch, so a thread's first cost check is
    /// one of those timed). The redundancy check and the sweep are timed
    /// every time.
    pub recost_nanos: u64,
    /// Cumulative nanoseconds spent inside optimizer calls issued by
    /// `getPlan` — the other side of the overhead split.
    pub optimize_nanos: u64,
    /// Published-generation re-loads taken by batched serving after a
    /// miss→publish (one per miss inside a batch), so operators can see how
    /// often a batch had to chase a fresh snapshot.
    pub snapshot_reloads: u64,
    /// Batched `get_plan_batch` frames served for this template.
    pub batches_served: u64,
    /// Total instances that arrived through the batched path.
    pub batch_instances: u64,
    /// Largest single batch served.
    pub max_batch_size: u64,
    /// Instance-list blocks the writer copied (cumulative): the tail block
    /// of [`crate::spatial::CoordBlocks`] — its coordinates; its entry slots
    /// are shared — copied on write while a published generation still
    /// shares it, and blocks rebuilt when a dropped plan compacts the
    /// instance list. On a replica, whose applied generations extend the one
    /// before, it counts the same. (The name predates the block store and is
    /// pinned by the wire STATS layout.)
    pub index_shard_rebuilds: u64,
    /// Total coordinate rows copied with those blocks — at most 63 per
    /// append, the rows behind the first gap per compaction. An append
    /// copies no entry pointer.
    pub index_points_rebuilt: u64,
    /// Snapshot generations published by the writer.
    pub publishes: u64,
    /// Cumulative nanoseconds spent capturing + installing published
    /// generations (one pointer bump per 64-row block and one for the plan
    /// list).
    pub publish_nanos: u64,
}

/// The live (atomic) form of [`ScrStats`]. Counters bumped on the read path
/// use `Relaxed` ordering — they are independent tallies, not
/// synchronization. One `Arc` shared by every clone of a [`CacheState`], so
/// hits counted through any snapshot generation land in one tally.
#[derive(Debug, Default)]
pub(crate) struct ScrStatCells {
    selectivity_hits: AtomicU64,
    cost_hits: AtomicU64,
    optimizer_calls: AtomicU64,
    redundant_plans_discarded: AtomicU64,
    existing_plans_dropped: AtomicU64,
    budget_evictions: AtomicU64,
    getplan_recost_calls: AtomicU64,
    max_recosts_per_getplan: AtomicU64,
    violations_detected: AtomicU64,
    recost_nanos: AtomicU64,
    optimize_nanos: AtomicU64,
    snapshot_reloads: AtomicU64,
    batches_served: AtomicU64,
    batch_instances: AtomicU64,
    max_batch_size: AtomicU64,
    index_shard_rebuilds: AtomicU64,
    index_points_rebuilt: AtomicU64,
    publishes: AtomicU64,
    publish_nanos: AtomicU64,
}

impl ScrStatCells {
    fn bump(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }

    fn add(cell: &AtomicU64, n: u64) {
        cell.fetch_add(n, Ordering::Relaxed);
    }

    /// One batched `get_plan_batch` frame of `len` instances.
    pub(crate) fn record_batch(&self, len: u64) {
        Self::bump(&self.batches_served);
        Self::add(&self.batch_instances, len);
        self.max_batch_size.fetch_max(len, Ordering::Relaxed);
    }

    /// One published-generation re-load after a batch miss→publish.
    pub(crate) fn record_snapshot_reload(&self) {
        Self::bump(&self.snapshot_reloads);
    }

    /// One snapshot publication that took `nanos` to capture + install.
    pub(crate) fn record_publish(&self, nanos: u64) {
        Self::bump(&self.publishes);
        Self::add(&self.publish_nanos, nanos);
    }

    /// The Recost work of one cost check; `nanos` is 0 for one that was not
    /// timed. The maximum is read first, so the read-modify-write (a
    /// compare-and-swap loop on x86-64) runs only for a decision that sets a
    /// new one.
    #[inline(always)]
    fn record_recosts(&self, n: u64, nanos: u64) {
        Self::add(&self.getplan_recost_calls, n);
        if n > self.max_recosts_per_getplan.load(Ordering::Relaxed) {
            self.max_recosts_per_getplan.fetch_max(n, Ordering::Relaxed);
        }
        if nanos != 0 {
            Self::add(&self.recost_nanos, nanos);
        }
    }

    pub(crate) fn snapshot(&self) -> ScrStats {
        ScrStats {
            selectivity_hits: self.selectivity_hits.load(Ordering::Relaxed),
            cost_hits: self.cost_hits.load(Ordering::Relaxed),
            optimizer_calls: self.optimizer_calls.load(Ordering::Relaxed),
            redundant_plans_discarded: self.redundant_plans_discarded.load(Ordering::Relaxed),
            existing_plans_dropped: self.existing_plans_dropped.load(Ordering::Relaxed),
            budget_evictions: self.budget_evictions.load(Ordering::Relaxed),
            getplan_recost_calls: self.getplan_recost_calls.load(Ordering::Relaxed),
            max_recosts_per_getplan: self.max_recosts_per_getplan.load(Ordering::Relaxed),
            violations_detected: self.violations_detected.load(Ordering::Relaxed),
            recost_nanos: self.recost_nanos.load(Ordering::Relaxed),
            optimize_nanos: self.optimize_nanos.load(Ordering::Relaxed),
            snapshot_reloads: self.snapshot_reloads.load(Ordering::Relaxed),
            batches_served: self.batches_served.load(Ordering::Relaxed),
            batch_instances: self.batch_instances.load(Ordering::Relaxed),
            max_batch_size: self.max_batch_size.load(Ordering::Relaxed),
            index_shard_rebuilds: self.index_shard_rebuilds.load(Ordering::Relaxed),
            index_points_rebuilt: self.index_points_rebuilt.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            publish_nanos: self.publish_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Reusable scratch for one `getPlan` caller: the candidate search's
/// buffers (the query in log space, the candidate stream with one key per
/// stored instance and one minimum per 16 of them), the cost check's
/// fingerprint→Recost memo (at most `max_recost_candidates` entries, probed
/// linearly) and the arena-recost scratch ([`RecostScratch`]) whose base
/// derivation is delta-updated across candidates and across successive
/// calls. A caller that threads one of
/// these through repeated [`CacheState::try_cached_plan_with`] invocations
/// allocates nothing on the cache-hit path once the buffers have grown to
/// the instance list's size; callers without one fall back to a fresh
/// scratch per call.
///
/// The recost scratch memoizes one engine's per-relation base cardinalities
/// (it compares only the sVector's arity and bits), so a scratch remembers
/// the [`QueryEngine::id`] it last served and every entry point that takes
/// one drops that state when handed a different engine: one scratch per
/// thread can serve every template.
#[derive(Debug, Default)]
pub struct GetPlanScratch {
    /// [`QueryEngine::id`] of the engine `recost` was last derived against;
    /// 0 (no engine's id) when fresh.
    engine_id: u64,
    q: Vec<f64>,
    /// What [`CacheState::find_candidates`] leaves for the cost check: the
    /// candidates in the order to try, handed out one at a time.
    stream: KeyStream,
    /// The last decision's cost check: each plan it re-costed, once, with
    /// its cost at the instance. Emptied by every decision.
    recosted: Vec<(PlanFingerprint, f64)>,
    recost: RecostScratch,
    /// Cost checks run through this scratch (wrapping): which of them read
    /// the clock ([`RECOST_CLOCK_PERIOD`]).
    cost_checks: u32,
}

impl GetPlanScratch {
    /// An empty scratch (equivalent to `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The bound a miss hands [`QueryEngine::optimize_within`]: the last
    /// decision's cheapest Recost — a cached plan's cost at the instance,
    /// which the optimal plan's cannot exceed; `+∞` when it re-costed
    /// nothing — widened by the relative tolerance the optimizer grants its
    /// own cost against Recost, so that a bound equal to the optimum never
    /// prunes it through rounding.
    #[doc(hidden)]
    pub fn optimize_bound(&self) -> f64 {
        let cheapest = self.recosted.iter().map(|&(_, c)| c);
        cheapest.fold(f64::INFINITY, f64::min) * (1.0 + 1e-6)
    }

    /// Make the scratch `engine`'s: whatever it memoized against another
    /// engine (another template or cost model) is dropped.
    fn bind(&mut self, engine: &QueryEngine) {
        if self.engine_id != engine.id() {
            self.engine_id = engine.id();
            self.recost.invalidate();
        }
    }
}

/// Everything a reuse-or-optimize decision reads, and the only thing
/// `manageCache` writes: the knobs, the plan cache of Figure 5, the shared
/// stat cells and the dynamic-λ accumulators.
///
/// There is one of these per cache and it is declared once. [`Scr`] holds
/// the writer's copy (plus its scratch); every published
/// [`crate::snapshot::CacheSnapshot`] holds a `clone()` of it (plus a
/// generation stamp). Both dereference to it, so the sequential technique,
/// a lock-guarded writer and a lock-free snapshot reader all run the *same
/// method on the same type* — decision equivalence is by construction.
///
/// `Clone` is shallow and does no per-instance work: the plan list is one
/// `Arc`, the instance list one `Arc` per 64-row block (see [`PlanCache`]),
/// the stat cells one shared `Arc`.
#[derive(Debug, Clone)]
pub struct CacheState {
    pub(crate) config: ScrConfig,
    pub(crate) cache: PlanCache,
    pub(crate) stats: Arc<ScrStatCells>,
    /// Running Σ log(C) and count over optimized instances — the cost scale
    /// for the dynamic-λ mapping. Written only by [`CacheState::admit`].
    pub(crate) log_cost_sum: f64,
    pub(crate) opt_count: u64,
}

impl CacheState {
    fn new(config: ScrConfig) -> Self {
        CacheState {
            config,
            cache: PlanCache::new(),
            stats: Arc::new(ScrStatCells::default()),
            log_cost_sum: 0.0,
            opt_count: 0,
        }
    }

    /// The configuration this cache runs under.
    pub fn config(&self) -> &ScrConfig {
        &self.config
    }

    /// The plan cache (read-only).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Point-in-time technique counters (lock-free; the cells are shared by
    /// the writer and every published generation).
    pub fn stats(&self) -> ScrStats {
        self.stats.snapshot()
    }

    /// Attribute optimizer wall time measured by an outer serving layer
    /// ([`crate::service::PqoService`] optimizes outside the technique) to
    /// the overhead split.
    pub(crate) fn record_optimize_nanos(&self, nanos: u64) {
        ScrStatCells::add(&self.stats.optimize_nanos, nanos);
    }

    /// Check that this cache can be served under `template`: every plan's
    /// relation, predicate, edge and column indices in range, every
    /// instance entry of the template's arity. Restored and replicated
    /// caches arrive as bytes, so the serving layer calls this before
    /// installing one — Recost indexes the template by these values.
    ///
    /// # Errors
    /// [`PqoError::Persist`] naming the first offending plan or entry.
    pub(crate) fn check_template(&self, template: &QueryTemplate) -> Result<(), PqoError> {
        let mismatch = |what: String| PqoError::Persist {
            message: format!(
                "cache does not belong to template `{}`: {what}",
                template.name
            ),
        };
        for plan in self.cache.plans() {
            plan.check_template(template)
                .map_err(|e| mismatch(format!("plan {}: {e}", plan.fingerprint())))?;
        }
        // The block store holds rows of one arity only.
        let (rows, d) = (self.cache.coords(), template.dimensions());
        if !rows.is_empty() && rows.dims() != d {
            return Err(mismatch(format!(
                "its entries have {} dimensions, the template {d}",
                rows.dims()
            )));
        }
        Ok(())
    }

    /// Effective λ for an entry with optimal cost `c` (Appendix D): static
    /// λ, or `λmin + (λmax − λmin)·exp(−c / Cref)` where `Cref` is the
    /// geometric mean of optimal costs seen so far.
    #[inline(always)]
    fn effective_lambda(&self, c: f64) -> f64 {
        match self.config.dynamic_lambda {
            None => self.config.lambda,
            Some(DynamicLambda {
                lambda_min,
                lambda_max,
            }) => {
                if self.opt_count == 0 {
                    return lambda_min;
                }
                let c_ref = (self.log_cost_sum / self.opt_count as f64).exp();
                lambda_min + (lambda_max - lambda_min) * (-c / c_ref.max(f64::MIN_POSITIVE)).exp()
            }
        }
    }

    /// The cache-only part of `getPlan`: the selectivity check, then the
    /// cost check (Algorithm 1 minus the optimizer arm) — never an optimizer
    /// call, never a structural cache mutation, `&self`, so any number of
    /// threads share it. Allocates a fresh scratch per call; hot callers
    /// should prefer [`CacheState::try_cached_plan_with`].
    pub fn try_cached_plan(&self, sv: &SVector, engine: &QueryEngine) -> Option<PlanChoice> {
        self.try_cached_plan_with(sv, engine, &mut GetPlanScratch::default())
    }

    /// [`CacheState::try_cached_plan`] with a caller-owned
    /// [`GetPlanScratch`]: the cost check's memo table and recost base
    /// derivation survive across calls (and across snapshot generations —
    /// the scratch depends only on the engine, not the cache contents), so
    /// the hit path allocates nothing.
    ///
    /// The decision is compiled twice from one source, and the CPU picks the
    /// build: an AVX2 build where the CPU reports AVX2 (std caches the
    /// answer), the portable build everywhere else. Target features change
    /// instruction selection, not IEEE results — Rust never contracts to
    /// FMA, the kernels' lanes never mix rows and distances are never NaN or
    /// `-0.0` — so both builds return the same decision, bit for bit.
    pub fn try_cached_plan_with(
        &self,
        sv: &SVector,
        engine: &QueryEngine,
        scratch: &mut GetPlanScratch,
    ) -> Option<PlanChoice> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `decide_avx2` enables AVX2 and nothing else, and
            // `is_x86_feature_detected!` has just reported that this CPU
            // supports AVX2.
            return unsafe { self.decide_avx2(sv, engine, scratch) };
        }
        self.decide(sv, engine, scratch)
    }

    /// The portable build of [`CacheState::try_cached_plan_with`], whatever
    /// the CPU: the test hook that holds the two builds equal.
    #[doc(hidden)]
    pub fn try_cached_plan_portable(
        &self,
        sv: &SVector,
        engine: &QueryEngine,
        scratch: &mut GetPlanScratch,
    ) -> Option<PlanChoice> {
        self.decide(sv, engine, scratch)
    }

    /// The AVX2 build: [`CacheState::decide`] and every helper it inlines,
    /// compiled for 4-lane `f64` vectors.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn decide_avx2(
        &self,
        sv: &SVector,
        engine: &QueryEngine,
        scratch: &mut GetPlanScratch,
    ) -> Option<PlanChoice> {
        self.decide(sv, engine, scratch)
    }

    /// The cached decision itself — the candidate search, the candidate
    /// stream and the cost check's arithmetic, inlined whole into each
    /// build.
    #[inline(always)]
    fn decide(
        &self,
        sv: &SVector,
        engine: &QueryEngine,
        scratch: &mut GetPlanScratch,
    ) -> Option<PlanChoice> {
        scratch.bind(engine);
        scratch.recosted.clear();
        if let Some(idx) = self.find_candidates(sv, scratch) {
            ScrStatCells::bump(&self.stats.selectivity_hits);
            return Some(self.serve(idx));
        }
        self.cost_check(sv, engine, scratch)
    }

    /// Serve an instance through cache entry `idx` without an optimizer
    /// call.
    fn serve(&self, idx: usize) -> PlanChoice {
        let e = &self.cache.instances()[idx];
        e.record_use();
        let plan = Arc::clone(self.cache.plan(e.plan).expect("entry points to live plan"));
        PlanChoice {
            plan,
            optimized: false,
        }
    }

    /// Whether entry `e` passes the selectivity check at `G·L = gl`
    /// (Section 5.3: `G·L ≤ λ/S`).
    #[inline(always)]
    fn passes_selectivity_check(&self, gl: f64, e: &InstanceEntry) -> bool {
        gl <= self.effective_lambda(e.opt_cost) / e.sub_opt
    }

    /// The one candidate search behind SCR's decide and Appendix F's
    /// simulated `getPlan`, "smaller G·L first" (Section 6.2) at every list
    /// length: one scan of the coordinate blocks yields every entry's
    /// `ln(G·L)`. Returns the *nearest* entry the selectivity check serves
    /// through, looking only inside the `ln λ` ball (`exp` is taken only
    /// there). Otherwise leaves every entry's distance in `scratch.stream`,
    /// opened so that [`CacheState::next_candidate`] hands out, nearest
    /// first as `(key, instance index)`, at most `max_recost_candidates`
    /// entries without an Appendix G violation mark from the violation
    /// window. No candidate is selected here: the stream finds each one
    /// when it is asked for.
    #[inline(always)]
    fn find_candidates(&self, sv: &SVector, scratch: &mut GetPlanScratch) -> Option<usize> {
        let entries = self.cache.instances();
        let GetPlanScratch { q, stream, .. } = scratch;
        let lambda_upper = match self.config.dynamic_lambda {
            Some(d) => d.lambda_max,
            None => self.config.lambda,
        };
        let hit = self
            .cache
            .coords()
            .scan(&sv.0, lambda_upper.ln(), q, stream, |d, idx| {
                self.passes_selectivity_check(d.exp(), &entries[idx])
            });
        if let Some((_, idx)) = hit {
            return Some(idx);
        }
        // Look past the `k` nearest only as far as violation-disabled
        // entries could starve the list.
        let k = self.config.max_recost_candidates;
        stream.open(k, k.saturating_mul(RECOST_FETCH_FACTOR).max(16));
        None
    }

    /// The next candidate of the search [`CacheState::find_candidates`] left
    /// in `stream`. An entry's violation mark is read when the stream
    /// reaches the entry.
    #[inline(always)]
    fn next_candidate(&self, stream: &mut KeyStream) -> Option<(f64, usize)> {
        let entries = self.cache.instances();
        stream.next(|idx| entries[idx].violation_detected())
    }

    /// Cost check over the candidates [`CacheState::find_candidates`] left
    /// in `scratch`, pulled one at a time up to the hit: replace the `G`
    /// bound by the exact Recost ratio `R`, re-costing each distinct plan at
    /// most once. `G` and `L` are derived per candidate *reached*. Each
    /// Recost runs over the plan's
    /// [`CachedPlan`](crate::cache::CachedPlan) prepared form — a linear
    /// arena pass whose base derivation lives in `scratch` and is shared
    /// across candidates (and delta-updated across calls), so the loop
    /// performs no allocation and no tree walk. One cost check in
    /// [`RECOST_CLOCK_PERIOD`] reads the clock twice, around the whole loop,
    /// and reports that time scaled by the period; the rest, and a decision
    /// with no candidate, read no clock. The Recosts paid stay in `scratch`
    /// for a miss's optimizer call.
    #[inline(always)]
    fn cost_check(
        &self,
        sv: &SVector,
        engine: &QueryEngine,
        scratch: &mut GetPlanScratch,
    ) -> Option<PlanChoice> {
        let GetPlanScratch {
            stream,
            recosted,
            recost,
            cost_checks,
            ..
        } = scratch;
        let mut next = Some(self.next_candidate(stream)?);
        let t0 = cost_checks
            .is_multiple_of(RECOST_CLOCK_PERIOD)
            .then(Instant::now);
        *cost_checks = cost_checks.wrapping_add(1);
        let mut hit = None;
        // A violation mark set in this loop is set on the entry just pulled,
        // which the stream never returns again: the candidates of one
        // decision are those of the list as it stood when the search ran.
        while let Some((_, idx)) = next {
            let e = &self.cache.instances()[idx];
            let (fp, c, s, lambda_e) = (
                e.plan,
                e.opt_cost,
                e.sub_opt,
                self.effective_lambda(e.opt_cost),
            );
            let new_cost = match recosted.iter().find(|(seen, _)| *seen == fp) {
                Some(&(_, c)) => c,
                None => {
                    let cached = self.cache.cached(fp).expect("live plan");
                    let c = engine.recost_prepared_untracked(cached.prepared(engine), sv, recost);
                    recosted.push((fp, c));
                    c
                }
            };
            let (g, l) = sv.g_and_l(&e.svector);
            let r = new_cost / c;
            // Appendix G: Cost(P, qe) = S·C, so BCG demands
            // S·C/L ≤ Cost(P, qc) ≤ G·S·C. Outside → violation at qe.
            let violation = self.config.violation_handling && {
                let upper = g * s * c;
                let lower = s * c / l;
                new_cost > upper * (1.0 + 1e-9) || new_cost < lower * (1.0 - 1e-9)
            };
            if violation {
                e.mark_violation();
                ScrStatCells::bump(&self.stats.violations_detected);
            } else if r * l <= lambda_e / s {
                ScrStatCells::bump(&self.stats.cost_hits);
                hit = Some(idx);
                break;
            }
            next = self.next_candidate(stream);
        }
        // One Recost per memo entry.
        let recosts = recosted.len() as u64;
        let elapsed = t0.map_or(Duration::ZERO, |t0| t0.elapsed() * RECOST_CLOCK_PERIOD);
        engine.record_recosts(recosts, elapsed);
        self.stats
            .record_recosts(recosts, elapsed.as_nanos() as u64);
        hit.map(|idx| self.serve(idx))
    }

    /// Mirror the coordinate store's cumulative copy counters (plain `u64`s
    /// it owns) into the shared stat cells; called after every structural
    /// cache mutation.
    fn sync_block_stats(&self) {
        let (blocks_copied, rows_copied) = self.cache.coords().copy_stats();
        self.stats
            .index_shard_rebuilds
            .store(blocks_copied, Ordering::Relaxed);
        self.stats
            .index_points_rebuilt
            .store(rows_copied, Ordering::Relaxed);
    }

    /// A fresh optimization — the only path that mutates cache structure:
    /// the optimizer-call tally and dynamic-λ accumulators, then
    /// `manageCache`.
    fn admit(
        &mut self,
        sv: &SVector,
        opt: OptimizedPlan,
        engine: &QueryEngine,
        scratch: &mut GetPlanScratch,
    ) {
        scratch.bind(engine);
        ScrStatCells::bump(&self.stats.optimizer_calls);
        self.log_cost_sum += opt.cost.max(f64::MIN_POSITIVE).ln();
        self.opt_count += 1;
        self.manage_cache(sv, opt, engine, scratch);
        self.sync_block_stats();
    }

    /// Enforce the plan budget before an insertion (Section 6.3.1): drop
    /// the minimum-aggregate-usage plan along with its instance entries
    /// until a slot is free.
    fn enforce_plan_budget(&mut self) {
        if let Some(k) = self.config.plan_budget {
            while self.cache.num_plans() >= k.max(1) {
                let victim = self
                    .cache
                    .min_usage_plan()
                    .expect("budget > 0 ⇒ victim exists");
                self.cache.drop_plan(victim);
                ScrStatCells::bump(&self.stats.budget_evictions);
            }
        }
    }

    /// `manageCache` (Algorithm 2).
    fn manage_cache(
        &mut self,
        sv: &SVector,
        opt: OptimizedPlan,
        engine: &QueryEngine,
        scratch: &mut GetPlanScratch,
    ) {
        let fp = opt.plan.fingerprint();
        if self.cache.contains_plan(fp) {
            // Plan already cached: extend its inference region with qc.
            self.cache
                .push_instance(InstanceEntry::new(sv.clone(), fp, opt.cost, 1.0, 1));
            return;
        }

        // Redundancy check: is some cached plan λr-close to optimal at qc?
        // One prepared linear pass per plan; the base derivation in
        // `scratch` is shared by every plan (same sVector).
        if self.config.lambda_r > 0.0 && self.cache.num_plans() > 0 {
            let t0 = Instant::now();
            let (min_fp, min_cost) = self
                .cache
                .cached_plans()
                .map(|c| {
                    let prepared = c.prepared(engine);
                    let cost = engine.recost_prepared_untracked(prepared, sv, &mut scratch.recost);
                    (c.fingerprint(), cost)
                })
                // An exact cost tie goes to the smaller fingerprint.
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .expect("non-empty plan list");
            let elapsed = t0.elapsed();
            engine.record_recosts(self.cache.num_plans() as u64, elapsed);
            ScrStatCells::add(&self.stats.recost_nanos, elapsed.as_nanos() as u64);
            let s_min = (min_cost / opt.cost).max(1.0);
            if s_min <= self.config.lambda_r {
                ScrStatCells::bump(&self.stats.redundant_plans_discarded);
                self.cache.push_instance(InstanceEntry::new(
                    sv.clone(),
                    min_fp,
                    opt.cost,
                    s_min,
                    1,
                ));
                return;
            }
        }

        self.enforce_plan_budget();

        self.cache.insert_plan(opt.plan);
        // Build the prepared form at insert time — every later Recost of
        // this plan (cost check, redundancy check, sweep) is then a linear
        // arena pass with no per-call setup.
        if let Some(c) = self.cache.cached(fp) {
            let _ = c.prepared(engine);
        }
        self.cache
            .push_instance(InstanceEntry::new(sv.clone(), fp, opt.cost, 1.0, 1));

        if self.config.existing_plan_redundancy {
            self.sweep_existing_plans(engine, scratch);
        }
        debug_assert!(self.cache.check_invariants().is_ok());
    }

    /// Appendix F: probe each pre-existing plan (in increasing instance-set
    /// size) for redundancy — temporarily remove it, re-run the simulated
    /// `getPlan` for each of its instances against the rest of the cache,
    /// and keep the removal only if every instance finds an alternative
    /// λ-optimal plan.
    fn sweep_existing_plans(&mut self, engine: &QueryEngine, scratch: &mut GetPlanScratch) {
        let t0 = Instant::now();
        let mut plans: Vec<(u64, PlanFingerprint)> = self.cache.tally(|_| 1).collect();
        plans.sort_unstable();
        for (_, fp) in plans {
            if self.cache.num_plans() <= 1 {
                break;
            }
            let taken = self.cache.take_instances_of(fp);
            let plan = self.cache.remove_plan_only(fp).expect("plan listed");
            let mut replacements: Vec<InstanceEntry> = Vec::with_capacity(taken.len());
            let mut ok = true;
            for e in &taken {
                match self.simulated_get_plan(&e.svector, e.opt_cost, engine, scratch) {
                    Some((alt_fp, s_new)) => replacements.push(InstanceEntry::restored(
                        e.svector.clone(),
                        alt_fp,
                        e.opt_cost,
                        s_new,
                        e.usage(),
                        e.violation_detected(),
                    )),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                for r in replacements {
                    self.cache.push_instance(r);
                }
                ScrStatCells::bump(&self.stats.existing_plans_dropped);
            } else {
                self.cache.insert_plan(plan);
                for e in taken {
                    self.cache.push_instance_arc(e);
                }
            }
        }
        // The sweep is Recost-dominated; attribute its wall time there.
        ScrStatCells::add(&self.stats.recost_nanos, t0.elapsed().as_nanos() as u64);
    }

    /// The simulated `getPlan` of Appendix F: find an alternative λ-optimal
    /// plan for a stored instance (selectivity check, then cost check, over
    /// the one candidate search) and return it with its *exact*
    /// sub-optimality at that instance (one extra Recost against the
    /// instance's stored optimal cost).
    fn simulated_get_plan(
        &self,
        sv: &SVector,
        opt_cost: f64,
        engine: &QueryEngine,
        scratch: &mut GetPlanScratch,
    ) -> Option<(PlanFingerprint, f64)> {
        let hit = self.find_candidates(sv, scratch);
        let GetPlanScratch { stream, recost, .. } = scratch;
        let mut recost = |fp: PlanFingerprint| -> f64 {
            let cached = self.cache.cached(fp).expect("live plan");
            engine.recost_prepared(cached.prepared(engine), sv, recost)
        };
        if let Some(idx) = hit {
            let e = &self.cache.instances()[idx];
            return Some((e.plan, (recost(e.plan) / opt_cost).max(1.0)));
        }
        while let Some((_, idx)) = self.next_candidate(stream) {
            let e = &self.cache.instances()[idx];
            let (_, l) = sv.g_and_l(&e.svector);
            let new_cost = recost(e.plan);
            let r = new_cost / e.opt_cost;
            if r * l <= self.effective_lambda(e.opt_cost) / e.sub_opt {
                return Some((e.plan, (new_cost / opt_cost).max(1.0)));
            }
        }
        None
    }
}

/// The SCR technique (Figure 2 architecture: `getPlan` + `manageCache` over
/// the plan cache of Figure 5): a [`CacheState`] plus the scratch the
/// sequential (`&mut self`) path reuses between calls. Dereferences to its
/// state, so `config()`, `cache()`, `stats()` and the cache-only
/// [`CacheState::try_cached_plan`] are the state's own methods.
#[derive(Debug)]
pub struct Scr {
    state: CacheState,
    /// Concurrent callers bring their own [`GetPlanScratch`].
    scratch: GetPlanScratch,
}

impl std::ops::Deref for Scr {
    type Target = CacheState;

    fn deref(&self) -> &CacheState {
        &self.state
    }
}

impl Scr {
    /// SCR with the paper's defaults for the given λ.
    ///
    /// # Errors
    /// [`PqoError::InvalidLambda`] unless λ is finite and ≥ 1.
    pub fn new(lambda: f64) -> Result<Self, PqoError> {
        Scr::with_config(ScrConfig::new(lambda)?)
    }

    /// SCR with an explicit configuration.
    ///
    /// # Errors
    /// [`PqoError::InvalidLambda`] / [`PqoError::InvalidBudget`] when the
    /// configuration fails [`ScrConfig::validate`].
    pub fn with_config(config: ScrConfig) -> Result<Self, PqoError> {
        config.validate()?;
        Ok(Scr {
            state: CacheState::new(config),
            scratch: GetPlanScratch::default(),
        })
    }

    /// Evict one plan (and its instance entries) from the cache — the
    /// global budget of [`crate::service::PqoService`]. Safe for the
    /// guarantee: inference entries leave with the plan (Section 6.3.1).
    pub fn evict_plan(&mut self, fp: PlanFingerprint) {
        self.state.cache.drop_plan(fp);
        ScrStatCells::bump(&self.state.stats.budget_evictions);
        self.state.sync_block_stats();
    }

    /// Reassemble an SCR from persisted parts (see [`crate::persist`]).
    ///
    /// # Errors
    /// Propagates configuration validation errors.
    ///
    /// # Panics
    /// Panics (debug) if an entry references a plan not in `plans` — an
    /// internal cache invariant; the snapshot loader validates references
    /// before calling.
    pub fn from_parts(
        config: ScrConfig,
        plans: Vec<Arc<pqo_optimizer::plan::Plan>>,
        entries: Vec<InstanceEntry>,
        log_cost_sum: f64,
        opt_count: u64,
    ) -> Result<Self, PqoError> {
        let empty = CacheState::new(config.clone());
        Scr::from_base(config, &empty, plans, entries, log_cost_sum, opt_count)
    }

    /// `base` plus what a replication delta adds to it — plans (those `base`
    /// holds stay as they are), entries appended to the instance list, the
    /// accumulators as they now stand — under `config`. The result shares
    /// `base`'s plans and every block of its instance list (a shallow clone,
    /// then copy-on-write of the tail); nothing of `base` is
    /// re-materialised.
    ///
    /// # Errors
    /// Propagates configuration validation errors.
    pub(crate) fn from_base(
        config: ScrConfig,
        base: &CacheState,
        plans: Vec<Arc<pqo_optimizer::plan::Plan>>,
        entries: Vec<InstanceEntry>,
        log_cost_sum: f64,
        opt_count: u64,
    ) -> Result<Self, PqoError> {
        config.validate()?;
        let mut state = CacheState {
            config,
            log_cost_sum,
            opt_count,
            ..base.clone()
        };
        for p in plans {
            state.cache.insert_plan(p);
        }
        for e in entries {
            state.cache.push_instance(e);
        }
        state.sync_block_stats();
        debug_assert!(state.cache.check_invariants().is_ok());
        Ok(Scr {
            state,
            scratch: GetPlanScratch::default(),
        })
    }

    /// Adopt an existing set of shared stat cells (the replica apply path:
    /// an applied generation decoded through [`Scr::from_parts`] comes with
    /// fresh cells, but the shard's cumulative hit/publish tallies must
    /// survive the swap). The adopted cells immediately re-sync the new
    /// store's copy counters.
    pub(crate) fn adopt_stat_cells(&mut self, cells: Arc<ScrStatCells>) {
        self.state.stats = cells;
        self.state.sync_block_stats();
    }

    /// Record a fresh optimization in the cache (`manageCache`, Section
    /// 4.1), including the optimizer-call bookkeeping. The serving layer
    /// calls it under the shard's writer lock and publishes the result.
    pub fn manage_cache_entry(&mut self, sv: &SVector, opt: OptimizedPlan, engine: &QueryEngine) {
        self.state.admit(sv, opt, engine, &mut self.scratch);
    }
}

impl OnlinePqo for Scr {
    fn name(&self) -> String {
        let mut n = format!("SCR{}", self.config.lambda);
        if let Some(d) = self.config.dynamic_lambda {
            n = format!("SCR[{},{}]", d.lambda_min, d.lambda_max);
        }
        if let Some(k) = self.config.plan_budget {
            n.push_str(&format!("-k{k}"));
        }
        n
    }

    /// `getPlan` (Algorithm 1): selectivity check, then cost check, then an
    /// optimizer call bounded by the cost check's cheapest Recost, followed
    /// by `manageCache`. Reuses the technique's owned [`GetPlanScratch`] so
    /// back-to-back calls allocate nothing on the cache-hit path.
    fn get_plan(
        &mut self,
        _instance: &QueryInstance,
        sv: &SVector,
        engine: &QueryEngine,
    ) -> PlanChoice {
        if let Some(choice) = self
            .state
            .try_cached_plan_with(sv, engine, &mut self.scratch)
        {
            return choice;
        }
        let (opt, elapsed) = engine.optimize_timed(sv, self.scratch.optimize_bound());
        self.record_optimize_nanos(elapsed.as_nanos() as u64);
        let plan = Arc::clone(&opt.plan);
        self.manage_cache_entry(sv, opt, engine);
        PlanChoice {
            plan,
            optimized: true,
        }
    }

    fn plans_cached(&self) -> usize {
        self.cache.num_plans()
    }

    fn max_plans_cached(&self) -> usize {
        self.cache.max_plans()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fixture_template, run_point};
    use pqo_optimizer::svector::{compute_svector, instance_for_target};

    fn fixture() -> Arc<pqo_optimizer::template::QueryTemplate> {
        fixture_template("scr_test")
    }

    #[test]
    fn invalid_configs_are_rejected_not_panicked() {
        assert!(matches!(
            ScrConfig::new(0.5),
            Err(PqoError::InvalidLambda { what: "λ", .. })
        ));
        assert!(matches!(
            Scr::new(f64::NAN),
            Err(PqoError::InvalidLambda { .. })
        ));
        let mut cfg = ScrConfig::new(2.0).unwrap();
        cfg.lambda_r = -1.0;
        assert!(matches!(
            Scr::with_config(cfg.clone()),
            Err(PqoError::InvalidLambda { what: "λr", .. })
        ));
        cfg.lambda_r = 1.0;
        cfg.plan_budget = Some(0);
        assert!(matches!(
            Scr::with_config(cfg),
            Err(PqoError::InvalidBudget { budget: 0 })
        ));
    }

    #[test]
    fn first_instance_always_optimizes() {
        let t = fixture();
        let engine = QueryEngine::new(t);
        let mut scr = Scr::new(2.0).unwrap();
        let c = run_point(&mut scr, &engine, &[0.1, 0.1]);
        assert!(c.optimized);
        assert_eq!(scr.plans_cached(), 1);
        assert_eq!(scr.cache().num_instances(), 1);
    }

    #[test]
    fn identical_instance_passes_selectivity_check() {
        let t = fixture();
        let engine = QueryEngine::new(t);
        let mut scr = Scr::new(1.1).unwrap();
        let _ = run_point(&mut scr, &engine, &[0.1, 0.1]);
        let c = run_point(&mut scr, &engine, &[0.1, 0.1]);
        assert!(!c.optimized, "G = L = 1 must pass the selectivity check");
        assert_eq!(scr.stats().selectivity_hits, 1);
        assert_eq!(engine.stats().optimize_calls, 1);
    }

    #[test]
    fn nearby_instance_reuses_within_lambda() {
        let t = fixture();
        let engine = QueryEngine::new(t);
        let mut scr = Scr::new(2.0).unwrap();
        let _ = run_point(&mut scr, &engine, &[0.10, 0.10]);
        // α = (1.2, 1.1) → G·L = 1.32 ≤ 2.
        let c = run_point(&mut scr, &engine, &[0.12, 0.11]);
        assert!(!c.optimized);
    }

    #[test]
    fn distant_instance_triggers_optimizer() {
        let t = fixture();
        let engine = QueryEngine::new(t);
        let mut scr = Scr::new(1.1).unwrap();
        let _ = run_point(&mut scr, &engine, &[0.001, 0.001]);
        let c = run_point(&mut scr, &engine, &[0.9, 0.9]);
        assert!(
            c.optimized,
            "selectivity and cost growth is far beyond λ=1.1"
        );
        assert_eq!(scr.stats().optimizer_calls, 2);
    }

    #[test]
    fn cost_check_extends_reuse_beyond_selectivity_region() {
        // SeqScan-dominated region: cost barely changes with selectivity, so
        // the exact ratio R stays near 1 even when G is large.
        let t = fixture();
        let engine = QueryEngine::new(t);
        let mut scr = Scr::new(1.2).unwrap();
        let _ = run_point(&mut scr, &engine, &[0.55, 0.55]);
        let c = run_point(&mut scr, &engine, &[0.8, 0.8]);
        if !c.optimized {
            assert!(scr.stats().cost_hits + scr.stats().selectivity_hits >= 1);
        }
        // Either way the cache never exceeds the plans actually needed.
        assert!(scr.plans_cached() <= 2);
    }

    #[test]
    fn redundancy_check_discards_near_duplicate_plans() {
        let t = fixture();
        let engine = QueryEngine::new(t);
        // λr = √4 = 2: generous redundancy threshold.
        let mut scr = Scr::new(4.0).unwrap();
        let points: Vec<[f64; 2]> = (1..=20)
            .map(|i| [0.04 * i as f64, 0.03 * i as f64])
            .collect();
        for p in &points {
            let _ = run_point(&mut scr, &engine, p);
        }
        let opt_calls = engine.stats().optimize_calls;
        assert!(
            (scr.plans_cached() as u64) < opt_calls || opt_calls <= 1,
            "redundancy check should retain fewer plans ({}) than optimizer calls ({})",
            scr.plans_cached(),
            opt_calls,
        );
        assert!(scr.cache().check_invariants().is_ok());
    }

    #[test]
    fn lambda_r_zero_stores_every_new_plan() {
        let t = fixture();
        let engine = QueryEngine::new(t);
        let mut cfg = ScrConfig::new(2.0).unwrap();
        cfg.lambda_r = 0.0;
        let mut scr = Scr::with_config(cfg).unwrap();
        for i in 1..=10 {
            let _ = run_point(&mut scr, &engine, &[0.09 * i as f64, 0.005]);
        }
        assert_eq!(scr.stats().redundant_plans_discarded, 0);
    }

    #[test]
    fn plan_budget_is_enforced() {
        let t = fixture();
        let engine = QueryEngine::new(t);
        let mut cfg = ScrConfig::new(1.05).unwrap();
        cfg.lambda_r = 0.0; // store aggressively to stress the budget
        cfg.plan_budget = Some(2);
        let mut scr = Scr::with_config(cfg).unwrap();
        for i in 1..=12 {
            let _ = run_point(&mut scr, &engine, &[0.08 * i as f64, 0.08 * i as f64]);
            assert!(
                scr.plans_cached() <= 2,
                "budget violated: {}",
                scr.plans_cached()
            );
            assert!(scr.cache().check_invariants().is_ok());
        }
    }

    #[test]
    fn guarantee_holds_across_a_grid() {
        // The λ-optimality contract, verified against the oracle on a grid.
        // BCG violations are possible in principle (sort super-linearity) but
        // must be rare; on this fixture they do not occur.
        let t = fixture();
        let engine = QueryEngine::new(Arc::clone(&t));
        let lambda = 2.0;
        let mut scr = Scr::new(lambda).unwrap();
        let mut worst = 1.0f64;
        for i in 0..12 {
            for j in 0..12 {
                let target = [0.002 + 0.08 * i as f64, 0.002 + 0.08 * j as f64];
                let inst = instance_for_target(&t, &target);
                let sv = compute_svector(&t, &inst);
                let choice = scr.get_plan(&inst, &sv, &engine);
                let opt = engine.optimize_untracked(&sv);
                let so = engine.recost_untracked(&choice.plan, &sv) / opt.cost;
                worst = worst.max(so);
            }
        }
        assert!(worst <= lambda * 1.001, "MSO {worst} exceeds λ={lambda}");
    }

    #[test]
    fn usage_counters_accumulate() {
        let t = fixture();
        let engine = QueryEngine::new(t);
        let mut scr = Scr::new(2.0).unwrap();
        let _ = run_point(&mut scr, &engine, &[0.2, 0.2]);
        for _ in 0..5 {
            let _ = run_point(&mut scr, &engine, &[0.2, 0.2]);
        }
        assert_eq!(scr.cache().instances()[0].usage(), 6);
    }

    #[test]
    fn dynamic_lambda_reports_name_and_relaxes_cheap_instances() {
        let mut cfg = ScrConfig::new(1.1).unwrap();
        cfg.dynamic_lambda = Some(DynamicLambda {
            lambda_min: 1.1,
            lambda_max: 10.0,
        });
        let scr = Scr::with_config(cfg).unwrap();
        assert_eq!(scr.name(), "SCR[1.1,10]");
        // Before any optimization the mapping falls back to λmin.
        assert_eq!(scr.effective_lambda(123.0), 1.1);
    }

    #[test]
    fn existing_plan_sweep_keeps_cache_consistent() {
        let t = fixture();
        let engine = QueryEngine::new(t);
        let mut cfg = ScrConfig::new(3.0).unwrap();
        cfg.existing_plan_redundancy = true;
        cfg.lambda_r = 0.0; // force storing, so the sweep has work to do
        let mut scr = Scr::with_config(cfg).unwrap();
        for i in 1..=15 {
            let _ = run_point(&mut scr, &engine, &[0.06 * i as f64, 0.06 * i as f64]);
            assert!(scr.cache().check_invariants().is_ok());
        }
    }

    #[test]
    fn the_nearest_passing_entry_serves_a_short_list() {
        // Two entries both pass the selectivity check for `q` (G·L 1.4 and
        // 1.08 against λ/S ≥ √2), the nearer one second in list order: the
        // selectivity check serves the nearest, whatever the list's length.
        let engine = QueryEngine::new(fixture());
        let mut scr = Scr::new(2.0).unwrap();
        for s in [[0.10, 0.10], [0.13, 0.10]] {
            let sv = SVector(s.to_vec());
            scr.manage_cache_entry(&sv, engine.optimize_untracked(&sv), &engine);
        }
        assert_eq!(scr.cache().num_instances(), 2);
        let choice = scr.try_cached_plan(&SVector(vec![0.14, 0.10]), &engine);
        assert!(choice.is_some_and(|c| !c.optimized));
        assert_eq!(scr.stats().selectivity_hits, 1);
        let usage: Vec<u64> = scr.cache().instances().iter().map(|e| e.usage()).collect();
        assert_eq!(usage, [1, 2], "the nearer, later entry serves");
    }

    #[test]
    fn guarantee_holds_as_the_list_grows_past_a_block() {
        // λ-optimality at every decision while the instance list grows from
        // its first entry to past one 64-row block, under static λ and under
        // Appendix D's dynamic λ (bounded by λmax).
        let t = fixture();
        let targets: Vec<[f64; 2]> = (0..24)
            .flat_map(|i| {
                (0..24).map(move |j| {
                    let at = |k: usize| 10f64.powf(-3.0 + 3.0 * ((k * 7) % 24) as f64 / 23.0);
                    [at(i), at(j)]
                })
            })
            .collect();
        let mut dynamic = ScrConfig::new(1.05).unwrap();
        dynamic.dynamic_lambda = Some(DynamicLambda {
            lambda_min: 1.05,
            lambda_max: 1.5,
        });
        for (cfg, bound) in [(ScrConfig::new(1.05).unwrap(), 1.05), (dynamic, 1.5)] {
            let engine = QueryEngine::new(Arc::clone(&t));
            let mut scr = Scr::with_config(cfg).unwrap();
            for target in &targets {
                let inst = instance_for_target(&t, target);
                let sv = compute_svector(&t, &inst);
                let choice = scr.get_plan(&inst, &sv, &engine);
                let opt = engine.optimize_untracked(&sv);
                let so = engine.recost_untracked(&choice.plan, &sv) / opt.cost;
                assert!(
                    so <= bound * 1.001,
                    "sub-optimality {so} over {bound} at {} entries",
                    scr.cache().num_instances()
                );
            }
            let n = scr.cache().num_instances();
            assert!(n > 64, "the list stayed within one block: {n} entries");
        }
    }

    #[test]
    fn recost_counts_stay_exact_while_the_cost_check_samples_its_clock() {
        // λr = 0 switches the redundancy check off, so every Recost and
        // every nanosecond counted comes from a cost check.
        let t = fixture();
        let engine = QueryEngine::new(Arc::clone(&t));
        let mut cfg = ScrConfig::new(1.01).unwrap();
        cfg.lambda_r = 0.0;
        let mut scr = Scr::with_config(cfg).unwrap();
        let (mut paid, mut most, mut cost_checks) = (0u64, 0u64, 0u64);
        for i in 0..400usize {
            let target = [
                0.01 + 0.0023 * ((i * 37) % 400) as f64,
                0.01 + 0.0024 * ((i * 91) % 397) as f64,
            ];
            let inst = instance_for_target(&t, &target);
            let sv = compute_svector(&t, &inst);
            scr.get_plan(&inst, &sv, &engine);
            // What this decision's cost check re-costed, once per plan.
            let n = scr.scratch.recosted.len() as u64;
            paid += n;
            most = most.max(n);
            cost_checks += u64::from(n > 0);
        }
        assert!(
            cost_checks >= 4 * u64::from(RECOST_CLOCK_PERIOD),
            "only {cost_checks} cost checks"
        );
        let stats = scr.stats();
        assert_eq!(stats.getplan_recost_calls, paid);
        assert_eq!(stats.max_recosts_per_getplan, most);
        assert_eq!(engine.stats().recost_calls, paid);
        assert!(stats.recost_nanos > 0, "no cost check was timed");
        assert_eq!(
            engine.stats().recost_time.as_nanos() as u64,
            stats.recost_nanos,
            "the engine and the technique count the same samples"
        );
    }

    #[test]
    fn max_recost_candidates_caps_recosts() {
        let t = fixture();
        let engine = QueryEngine::new(t);
        let mut cfg = ScrConfig::new(1.01).unwrap(); // tight λ forces many cost checks
        cfg.max_recost_candidates = 3;
        let mut scr = Scr::with_config(cfg).unwrap();
        for i in 1..=30 {
            let _ = run_point(&mut scr, &engine, &[(0.03 * i as f64).min(1.0), 0.5]);
        }
        assert!(scr.stats().max_recosts_per_getplan <= 3);
    }
}
