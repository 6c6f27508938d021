//! The plan cache data structure (paper Section 6.1, Figure 5).
//!
//! The cache holds a **plan list** (the distinct plans, keyed by structural
//! fingerprint) and an **instance list** of 5-tuples
//! `I = <V, PP, C, S, U>` — one per optimized query instance:
//!
//! * `V` — the instance's selectivity vector;
//! * `PP` — pointer to the plan the instance uses (it may differ from the
//!   instance's optimal plan when the redundancy check discarded that plan);
//! * `C` — the optimizer-estimated *optimal* cost at the instance;
//! * `S` — sub-optimality of the pointed-to plan at the instance;
//! * `U` — running count of instances served through this entry.
//!
//! Many instance entries typically point to the same stored plan.
//!
//! # What a clone shares and what it copies
//!
//! A cache is cloned once per publication ([`crate::snapshot`]), so the
//! structure is persistent: a clone costs O(blocks), a mutation O(what
//! changed).
//!
//! * The **instance list** is the row payload of one
//!   [`CoordBlocks`] store — each `Arc`-shared block of 64 rows holds the
//!   rows' ln-selectivity columns and slots for their `Arc<InstanceEntry>`s.
//!   A clone copies one pointer per block; an append copies at most the
//!   tail block's coordinates (`Arc::make_mut`) and fills the next entry
//!   slot in place, in an array every generation shares and reads only up
//!   to its own length, so no entry's reference count moves; dropping a
//!   plan rebuilds the blocks behind the first dropped row. There is no
//!   second per-instance array.
//! * The **plan list** is a fingerprint-ordered `Vec` behind one `Arc`. A
//!   clone is one pointer bump; only a change of membership
//!   ([`PlanCache::insert_plan`] of a new plan, [`PlanCache::drop_plan`],
//!   [`PlanCache::remove_plan_only`]) copies the `Vec`. Everything that
//!   walks the plans — decisions, persistence, replication — walks them in
//!   fingerprint order.
//! * **Entries** themselves are never copied: the interior-mutable counters
//!   (`U`, the violation flag) keep one identity across every generation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use pqo_optimizer::engine::QueryEngine;
use pqo_optimizer::plan::{Plan, PlanFingerprint};
use pqo_optimizer::recost::PreparedRecost;
use pqo_optimizer::svector::SVector;

use crate::spatial::{CoordBlocks, Rows};

/// One entry of the instance list — the paper's 5-tuple.
///
/// The two mutable counters (`U` and the Appendix G violation flag) are
/// atomics: `getPlan`'s read path bumps usage and marks violations while
/// holding only a *read* lock on the cache, so concurrent servers never
/// serialize on bookkeeping.
#[derive(Debug)]
pub struct InstanceEntry {
    /// `V`: selectivity vector of the optimized instance.
    pub svector: SVector,
    /// `PP`: fingerprint of the plan this entry points to.
    pub plan: PlanFingerprint,
    /// `C`: optimizer-estimated optimal cost at this instance.
    pub opt_cost: f64,
    /// `S`: sub-optimality of the pointed-to plan at this instance (1.0 when
    /// the pointed-to plan is the instance's optimal plan).
    pub sub_opt: f64,
    /// `U`: number of instances served through this entry.
    usage: AtomicU64,
    /// Appendix G: set when a BCG/PCM violation was detected through this
    /// entry, disabling it for future cost checks.
    violation_detected: AtomicBool,
}

impl InstanceEntry {
    /// Fresh entry with an initial usage count and no violation recorded.
    pub fn new(
        svector: SVector,
        plan: PlanFingerprint,
        opt_cost: f64,
        sub_opt: f64,
        usage: u64,
    ) -> Self {
        InstanceEntry {
            svector,
            plan,
            opt_cost,
            sub_opt,
            usage: AtomicU64::new(usage),
            violation_detected: AtomicBool::new(false),
        }
    }

    /// Entry rebuilt from a persisted snapshot, including its flags.
    pub fn restored(
        svector: SVector,
        plan: PlanFingerprint,
        opt_cost: f64,
        sub_opt: f64,
        usage: u64,
        violation_detected: bool,
    ) -> Self {
        InstanceEntry {
            svector,
            plan,
            opt_cost,
            sub_opt,
            usage: AtomicU64::new(usage),
            violation_detected: AtomicBool::new(violation_detected),
        }
    }

    /// Current usage count `U`.
    pub fn usage(&self) -> u64 {
        self.usage.load(Ordering::Relaxed)
    }

    /// Count one instance served through this entry (lock-free).
    pub fn record_use(&self) {
        self.usage.fetch_add(1, Ordering::Relaxed);
    }

    /// Overwrite the usage count (tests and snapshot tooling).
    pub fn set_usage(&self, usage: u64) {
        self.usage.store(usage, Ordering::Relaxed);
    }

    /// Whether a BCG/PCM violation disabled this entry for cost checks.
    pub fn violation_detected(&self) -> bool {
        self.violation_detected.load(Ordering::Relaxed)
    }

    /// Disable this entry for future cost checks (Appendix G, lock-free).
    pub fn mark_violation(&self) {
        self.violation_detected.store(true, Ordering::Relaxed);
    }
}

impl Clone for InstanceEntry {
    fn clone(&self) -> Self {
        InstanceEntry {
            svector: self.svector.clone(),
            plan: self.plan,
            opt_cost: self.opt_cost,
            sub_opt: self.sub_opt,
            usage: AtomicU64::new(self.usage()),
            violation_detected: AtomicBool::new(self.violation_detected()),
        }
    }
}

/// A plan as stored in the plan list: the arena [`Plan`] plus its
/// [`PreparedRecost`] compilation, initialized once and shared (via the
/// owning `Arc`) by every snapshot generation that holds the plan.
///
/// The prepared form is behind a [`OnceLock`] rather than built in the
/// constructor because one construction path has no engine at hand:
/// [`crate::persist::restore`] rebuilds caches from bytes alone. Serving
/// paths populate it on first use; [`crate::scr::Scr`] populates it eagerly
/// at insert time.
#[derive(Debug)]
pub struct CachedPlan {
    plan: Arc<Plan>,
    prepared: OnceLock<PreparedRecost>,
}

impl CachedPlan {
    /// Wrap a plan, leaving the prepared form to be built on first use.
    pub fn new(plan: Arc<Plan>) -> Self {
        CachedPlan {
            plan,
            prepared: OnceLock::new(),
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// Structural fingerprint.
    pub fn fingerprint(&self) -> PlanFingerprint {
        self.plan.fingerprint()
    }

    /// The prepared-recost compilation, building it through `engine` on
    /// first access (thread-safe; later callers share the same value).
    pub fn prepared(&self, engine: &QueryEngine) -> &PreparedRecost {
        self.prepared
            .get_or_init(|| engine.prepare_recost(&self.plan))
    }

    /// Bytes held by the prepared form, if it has been built yet.
    pub fn prepared_bytes(&self) -> Option<usize> {
        self.prepared.get().map(|p| p.estimated_bytes())
    }
}

/// Estimated plan-cache memory footprint (Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Bytes held by the instance list (5-tuples + selectivity vectors).
    pub instance_list_bytes: usize,
    /// Bytes held by the plan list under the tree representation.
    pub plan_list_bytes: usize,
    /// Bytes the plan list would occupy under the Appendix B compact
    /// encoding.
    pub plan_list_compact_bytes: usize,
}

/// The plan cache: plan list + instance list. See the module docs for what
/// a `Clone` (one per published [`crate::snapshot::CacheSnapshot`]) shares.
///
/// Instance entries are `Arc`-shared, so the interior-mutable counters (`U`,
/// the violation flag) keep a single identity across every published
/// snapshot — a reader bumping usage through an old snapshot is still
/// visible to the writer's LFU policy.
#[derive(Debug, Default, Clone)]
pub struct PlanCache {
    /// Ascending by fingerprint; written only through `Arc::make_mut`, and
    /// only when membership changes.
    plans: Arc<Vec<(PlanFingerprint, Arc<CachedPlan>)>>,
    max_plans: usize,
    /// The instance list: row `i` holds entry `i` beside its
    /// ln-selectivities (Section 6.2).
    rows: CoordBlocks<Arc<InstanceEntry>>,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Number of plans currently stored.
    pub fn num_plans(&self) -> usize {
        self.plans.len()
    }

    /// Maximum number of plans stored at any point in time.
    pub fn max_plans(&self) -> usize {
        self.max_plans
    }

    /// Number of instance entries.
    pub fn num_instances(&self) -> usize {
        self.rows.len()
    }

    /// The rank of `fp` among the cached fingerprints — its index in
    /// [`PlanCache::plans`], which is how the persist format names a plan —
    /// or, as the error, the rank it would be inserted at.
    pub(crate) fn plan_index(&self, fp: PlanFingerprint) -> Result<usize, usize> {
        self.plans.binary_search_by_key(&fp, |&(key, _)| key)
    }

    /// Whether a plan with this fingerprint is cached.
    pub fn contains_plan(&self, fp: PlanFingerprint) -> bool {
        self.plan_index(fp).is_ok()
    }

    /// Fetch a cached plan by fingerprint.
    pub fn plan(&self, fp: PlanFingerprint) -> Option<&Arc<Plan>> {
        self.cached(fp).map(|c| c.plan())
    }

    /// Fetch a plan together with its prepared-recost slot.
    pub fn cached(&self, fp: PlanFingerprint) -> Option<&Arc<CachedPlan>> {
        self.plan_index(fp).ok().map(|at| &self.plans[at].1)
    }

    /// Iterate over cached plans, ascending by fingerprint.
    pub fn plans(&self) -> impl Iterator<Item = &Arc<Plan>> {
        self.cached_plans().map(|c| c.plan())
    }

    /// Iterate over cached plans with their prepared-recost slots,
    /// ascending by fingerprint.
    pub fn cached_plans(&self) -> impl Iterator<Item = &Arc<CachedPlan>> {
        self.plans.iter().map(|(_, c)| c)
    }

    /// Whether both caches hold one and the same plan list, as a cache and
    /// its clone do until a plan is added to or dropped from either. Test
    /// hook for the generation-sharing invariant.
    #[doc(hidden)]
    pub fn shares_plan_list(&self, other: &PlanCache) -> bool {
        Arc::ptr_eq(&self.plans, &other.plans)
    }

    /// The instance list. Entries expose their own interior-mutable
    /// counters ([`InstanceEntry::record_use`], `mark_violation`), so no
    /// `&mut` accessor is needed.
    pub fn instances(&self) -> Rows<'_, Arc<InstanceEntry>> {
        self.rows.rows()
    }

    /// Insert a plan (idempotent) and return its fingerprint.
    pub fn insert_plan(&mut self, plan: Arc<Plan>) -> PlanFingerprint {
        let fp = plan.fingerprint();
        if let Err(at) = self.plan_index(fp) {
            Arc::make_mut(&mut self.plans).insert(at, (fp, Arc::new(CachedPlan::new(plan))));
            self.max_plans = self.max_plans.max(self.plans.len());
        }
        fp
    }

    /// Append an instance entry.
    ///
    /// # Panics
    /// Panics (debug) if the entry points to a plan not in the plan list —
    /// the structural invariant of Figure 5.
    pub fn push_instance(&mut self, entry: InstanceEntry) {
        self.push_instance_arc(Arc::new(entry));
    }

    /// Append an already-shared instance entry (the Appendix F sweep and the
    /// snapshot writer re-insert entries without resetting their counters).
    ///
    /// # Panics
    /// Panics (debug) if the entry points to a plan not in the plan list —
    /// the structural invariant of Figure 5.
    pub fn push_instance_arc(&mut self, entry: Arc<InstanceEntry>) {
        debug_assert!(
            self.contains_plan(entry.plan),
            "instance entry points to missing plan"
        );
        let coordinates = Arc::clone(&entry);
        self.rows.push_with(&coordinates.svector.0, entry);
    }

    /// The instance list's block store: row `i` is `instances()[i]` at its
    /// coordinates in log-selectivity space, L1 distance is `ln(G·L)`. The
    /// candidate search scans it; it also carries the writer's cumulative
    /// copy-on-write counters.
    pub fn coords(&self) -> &CoordBlocks<Arc<InstanceEntry>> {
        &self.rows
    }

    /// Aggregate usage count per plan: the sum of `U` over entries pointing
    /// at it. Used by the plan-budget eviction policy (Section 6.3.1).
    pub fn plan_usage(&self, fp: PlanFingerprint) -> u64 {
        self.instances()
            .iter()
            .filter(|e| e.plan == fp)
            .map(|e| e.usage())
            .sum()
    }

    /// `Σ weight(entry)` over each plan's entries, with the plan, in
    /// fingerprint order: one pass over the instance list, whatever the
    /// number of plans.
    pub(crate) fn tally(
        &self,
        weight: impl Fn(&InstanceEntry) -> u64,
    ) -> impl Iterator<Item = (u64, PlanFingerprint)> + '_ {
        let mut sums = vec![0u64; self.plans.len()];
        for e in self.instances() {
            if let Ok(at) = self.plan_index(e.plan) {
                sums[at] += weight(e);
            }
        }
        sums.into_iter().zip(self.plans.iter().map(|&(fp, _)| fp))
    }

    /// The cached plan with minimum aggregate usage (LFU victim); a tie goes
    /// to the smaller fingerprint.
    pub fn min_usage_plan(&self) -> Option<PlanFingerprint> {
        self.tally(InstanceEntry::usage).min().map(|(_, fp)| fp)
    }

    /// Drop a plan and every instance entry pointing at it (required so
    /// dropping can never violate the sub-optimality guarantee —
    /// Section 6.3.1).
    pub fn drop_plan(&mut self, fp: PlanFingerprint) {
        self.remove_plan_only(fp);
        self.take_instances_of(fp);
    }

    /// Remove and return all instance entries pointing at `fp`, keeping the
    /// plan itself. Used by the existing-plan redundancy sweep (Appendix F).
    pub fn take_instances_of(&mut self, fp: PlanFingerprint) -> Vec<Arc<InstanceEntry>> {
        self.rows.retain_rows(|_, e| e.plan != fp)
    }

    /// Remove a plan from the plan list only (Appendix F temporarily removes
    /// a plan while probing redundancy).
    pub fn remove_plan_only(&mut self, fp: PlanFingerprint) -> Option<Arc<Plan>> {
        let at = self.plan_index(fp).ok()?;
        let (_, cached) = Arc::make_mut(&mut self.plans).remove(at);
        Some(Arc::clone(cached.plan()))
    }

    /// Estimated memory footprint (Section 6.1's overheads discussion: the
    /// instance list costs ~100 bytes per optimized instance; the plan list
    /// dominates because each plan must stay executable and re-costable).
    /// `plan_list_compact_bytes` is what the Appendix B byte encoding would
    /// pay instead of the tree representation.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        let instance_list_bytes = self
            .instances()
            .iter()
            .map(|e| std::mem::size_of::<InstanceEntry>() + e.svector.0.capacity() * 8)
            .sum();
        let plan_list_bytes = self
            .cached_plans()
            .map(|c| {
                pqo_optimizer::compact::estimated_plan_bytes(c.plan())
                    + c.prepared_bytes().unwrap_or(0)
            })
            .sum();
        let plan_list_compact_bytes = self
            .cached_plans()
            .map(|c| pqo_optimizer::compact::CompactPlan::encode(c.plan()).bytes_len())
            .sum();
        MemoryBreakdown {
            instance_list_bytes,
            plan_list_bytes,
            plan_list_compact_bytes,
        }
    }

    /// Check the Figure 5 invariant: every instance entry points to a live
    /// plan. Exposed for tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, e) in self.instances().iter().enumerate() {
            if !self.contains_plan(e.plan) {
                return Err(format!("instance {i} points to evicted plan {}", e.plan));
            }
            if e.sub_opt.is_nan() || e.sub_opt < 1.0 {
                return Err(format!("instance {i} has S = {} < 1", e.sub_opt));
            }
            if e.opt_cost.is_nan() || e.opt_cost <= 0.0 {
                return Err(format!("instance {i} has non-positive C = {}", e.opt_cost));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqo_optimizer::plan::PlanOp;

    fn plan(r: usize) -> Arc<Plan> {
        Arc::new(Plan::from_postorder(vec![PlanOp::SeqScan { relation: r }]).unwrap())
    }

    fn entry(fp: PlanFingerprint, usage: u64) -> InstanceEntry {
        InstanceEntry::new(SVector(vec![0.1]), fp, 100.0, 1.0, usage)
    }

    #[test]
    fn insert_is_idempotent_and_tracks_max() {
        let mut c = PlanCache::new();
        let p = plan(0);
        let fp = c.insert_plan(p.clone());
        assert_eq!(c.insert_plan(p), fp);
        assert_eq!(c.num_plans(), 1);
        let fp2 = c.insert_plan(plan(1));
        assert_eq!(c.num_plans(), 2);
        assert_eq!(c.max_plans(), 2);
        c.drop_plan(fp2);
        assert_eq!(c.num_plans(), 1);
        assert_eq!(c.max_plans(), 2, "max is monotone");
    }

    #[test]
    fn drop_plan_removes_its_instances() {
        let mut c = PlanCache::new();
        let fp0 = c.insert_plan(plan(0));
        let fp1 = c.insert_plan(plan(1));
        c.push_instance(entry(fp0, 1));
        c.push_instance(entry(fp1, 2));
        c.push_instance(entry(fp0, 3));
        c.drop_plan(fp0);
        assert_eq!(c.num_instances(), 1);
        assert_eq!(c.instances()[0].plan, fp1);
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn min_usage_plan_is_lfu_victim() {
        let mut c = PlanCache::new();
        let fp0 = c.insert_plan(plan(0));
        let fp1 = c.insert_plan(plan(1));
        c.push_instance(entry(fp0, 5));
        c.push_instance(entry(fp1, 1));
        c.push_instance(entry(fp1, 2));
        assert_eq!(c.min_usage_plan(), Some(fp1)); // usage 3 < 5
        c.instances()[1].set_usage(10);
        assert_eq!(c.min_usage_plan(), Some(fp0));
    }

    #[test]
    fn plan_with_no_instances_is_first_victim() {
        let mut c = PlanCache::new();
        let fp0 = c.insert_plan(plan(0));
        let fp1 = c.insert_plan(plan(1));
        c.push_instance(entry(fp0, 5));
        assert_eq!(c.min_usage_plan(), Some(fp1));
    }

    #[test]
    fn take_instances_partitions_correctly() {
        let mut c = PlanCache::new();
        let fp0 = c.insert_plan(plan(0));
        let fp1 = c.insert_plan(plan(1));
        c.push_instance(entry(fp0, 1));
        c.push_instance(entry(fp1, 2));
        c.push_instance(entry(fp0, 3));
        let taken = c.take_instances_of(fp0);
        assert_eq!(taken.len(), 2);
        assert_eq!(c.num_instances(), 1);
        assert!(c.contains_plan(fp0), "plan itself is kept");
    }

    #[test]
    fn memory_breakdown_reports_all_parts() {
        let mut c = PlanCache::new();
        let fp0 = c.insert_plan(plan(0));
        c.push_instance(entry(fp0, 1));
        c.push_instance(entry(fp0, 2));
        let m = c.memory_breakdown();
        assert!(m.instance_list_bytes >= 2 * std::mem::size_of::<InstanceEntry>());
        assert!(m.plan_list_bytes > 0);
        assert!(m.plan_list_compact_bytes > 0);
        assert!(
            m.plan_list_compact_bytes < m.plan_list_bytes,
            "compact encoding must be smaller: {} vs {}",
            m.plan_list_compact_bytes,
            m.plan_list_bytes
        );
    }

    #[test]
    fn coordinate_rows_follow_mutations() {
        let mut c = PlanCache::new();
        let fp0 = c.insert_plan(plan(0));
        let fp1 = c.insert_plan(plan(1));
        for (i, s) in [0.1, 0.2, 0.4, 0.8].iter().enumerate() {
            c.push_instance(InstanceEntry::new(
                SVector(vec![*s]),
                if i % 2 == 0 { fp0 } else { fp1 },
                10.0,
                1.0,
                1,
            ));
        }
        let near = c.coords().nearest(&[0.1], 2);
        assert_eq!(near.len(), 2);
        assert_eq!(near[0].1, 0, "closest entry is the 0.1 one");
        // Dropping fp0 removes entries 0 and 2; indices compact to 0..2.
        c.drop_plan(fp0);
        assert_eq!(c.num_instances(), 2);
        let all = c.coords().nearest(&[0.1], 10);
        assert_eq!(all.len(), 2);
        for &(_, idx) in &all {
            assert!(idx < 2, "index must be remapped after compaction");
            assert_eq!(c.instances()[idx].plan, fp1);
        }
    }

    #[test]
    fn invariant_detects_bad_entries() {
        let mut c = PlanCache::new();
        let fp0 = c.insert_plan(plan(0));
        c.push_instance(entry(fp0, 1));
        c.remove_plan_only(fp0);
        assert!(c.check_invariants().is_err());
    }
}
