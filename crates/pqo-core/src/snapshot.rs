//! Snapshot-published read path: [`CacheSnapshot`] + [`CacheWriter`].
//!
//! SCR's common case is a cheap cache *read* — a selectivity check plus at
//! most a few Recosts (Sections 5.3, 6.2). Guarding that read path with a
//! `RwLock<Scr>` (the previous serving design) still makes every reader
//! block whenever `manageCache` holds the write lock, and writer-priority
//! `RwLock` implementations stall readers even while a writer merely
//! *waits*. This module removes the reader/writer interaction entirely, in
//! the spirit of treating optimizer state as republished snapshots
//! (Liu & Ives, "Enabling Incremental Query Re-Optimization"):
//!
//! * [`CacheSnapshot`] — an immutable clone of the [`CacheState`], i.e. of
//!   everything `getPlan`'s cached path touches: the configuration knobs,
//!   the plan list, the instance list with its coordinates and the
//!   dynamic-λ accumulators, stamped with a generation. Readers load
//!   the current snapshot (an `Arc` clone) and run the candidate search
//!   and cost check against it with **no** lock held.
//! * [`CacheWriter`] — the writer side: it owns the canonical [`Scr`] and
//!   applies `manageCache` / evictions against it, then publishes the next
//!   snapshot. The cache is a persistent structure
//!   ([`crate::cache::PlanCache`]), so a publication costs O(blocks + what
//!   changed), not O(instances). **Shared** with every earlier generation:
//!   the plan list (one `Arc`, replaced only when a plan is added or
//!   dropped), every full 64-row block of the instance list — coordinates
//!   and entry slots alike ([`crate::spatial::CoordBlocks`]) — and the
//!   entries themselves. The tail block's entry slots are shared too: every
//!   generation holds one array of them, which the writer fills in place
//!   and each generation reads only up to its own length. **Copied** per
//!   publication: one pointer per block, and, when the writer next appends,
//!   the coordinates of the tail block it appends to (`Arc::make_mut`, at
//!   most `64·d·8` bytes; no entry pointer, so no entry's reference count
//!   moves, now or when the generation is dropped); a dropped plan rebuilds
//!   the blocks behind its first entry. Each publication is timed into the
//!   `publishes`/`publish_nanos` counters of [`crate::scr::ScrStats`].
//! * [`SnapshotCell`] — the `ArcCell`-style publication point: a
//!   `Mutex<Arc<CacheSnapshot>>` whose `load()` clones the `Arc` under a
//!   lock held for a few instructions, beside an `AtomicPtr` mirror of the
//!   current snapshot's address. A reader that keeps the generation it
//!   loaded checks it with [`SnapshotCell::refresh`] — one `Acquire` load
//!   and a pointer compare, no lock and no reference count — and reloads
//!   only when a newer generation was stored. It is lock-free in practice:
//!   the cell lock is never held across `manageCache` or an optimizer call,
//!   so a reader can only ever wait for another pointer clone/swap.
//!   (Std-only; an `arc-swap` dependency would make `load()` truly
//!   wait-free but the workspace builds offline.)
//!
//! # Consistency
//!
//! A snapshot is built complete under the writer lock and published with a
//! single atomic pointer swap, so a reader observes either the cache
//! entirely before or entirely after a mutation — never a half-applied
//! eviction or compaction (the Figure 5 invariants hold in every published
//! generation; `tests/snapshot_stress.rs` asserts this under an 8-thread
//! storm).
//!
//! # Decision equivalence
//!
//! A snapshot and the sequential [`Scr`] both dereference to a
//! [`CacheState`], so the reader's reuse/optimize decision is the same
//! method ([`CacheState::try_cached_plan`]) over a structurally identical
//! cache — byte-identical to the sequential technique's for any given cache
//! state.
//!
//! # Counter identity
//!
//! Instance entries are `Arc`-shared across generations
//! ([`crate::cache::PlanCache`] clones are shallow; a copied tail block
//! copies coordinates and shares its entry slots), so usage counts bumped
//! through an *old*
//! snapshot remain visible to the writer's LFU eviction, and Appendix G
//! violation flags set by any reader disable the entry in every generation. Technique counters ([`crate::scr::ScrStats`]) live in
//! one shared cell set for the same reason.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pqo_optimizer::engine::{OptimizedPlan, QueryEngine};
use pqo_optimizer::plan::PlanFingerprint;
use pqo_optimizer::svector::SVector;

use crate::scr::{CacheState, Scr};

/// How many published generations the writer retains as delta bases for
/// [`crate::replication`]: a subscriber whose acknowledged generation is
/// within this window receives a per-shard delta; older (or unknown)
/// subscribers fall back to a full snapshot record.
pub const GENERATION_LOG_DEPTH: usize = 8;

/// An immutable, `Arc`-published view of one SCR cache generation: a clone
/// of the writer's [`CacheState`] — plan list, instance list (entries and
/// coordinates, block by block), per-entry sub-optimality `S` values and the
/// dynamic-λ accumulators, everything the cached `getPlan` path reads — under the
/// monotonic [`CacheSnapshot::generation`] stamp its writer published it
/// with, making the publication stream a replicable log rather than a
/// private pointer swap. Dereferences to the state, so readers call
/// [`CacheState::try_cached_plan_with`] on a snapshot directly.
#[derive(Debug)]
pub struct CacheSnapshot {
    state: CacheState,
    generation: u64,
}

impl std::ops::Deref for CacheSnapshot {
    type Target = CacheState;

    fn deref(&self) -> &CacheState {
        &self.state
    }
}

impl CacheSnapshot {
    /// Capture the current state of `scr` (shallow clone) under an explicit
    /// generation stamp.
    pub fn capture_at(scr: &Scr, generation: u64) -> Self {
        CacheSnapshot {
            state: CacheState::clone(scr),
            generation,
        }
    }

    /// The monotonic generation this snapshot was published under.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The publication point: readers `load()` the current generation, the
/// writer `store()`s the next one. The mutex is held only for an `Arc`
/// clone or pointer swap — never across cache maintenance — so a reader
/// never blocks behind `manageCache`. A reader that keeps the generation it
/// loaded checks it with [`SnapshotCell::refresh`], which takes no lock
/// while no new generation was published.
#[derive(Debug)]
pub struct SnapshotCell {
    current: Mutex<Arc<CacheSnapshot>>,
    /// The address of `current`'s snapshot: stored with `Release` under the
    /// lock, loaded with `Acquire`. Never dereferenced; only compared.
    latest: AtomicPtr<CacheSnapshot>,
}

impl SnapshotCell {
    /// Cell holding the given initial generation.
    pub fn new(snapshot: Arc<CacheSnapshot>) -> Self {
        SnapshotCell {
            latest: AtomicPtr::new(Arc::as_ptr(&snapshot).cast_mut()),
            current: Mutex::new(snapshot),
        }
    }

    /// The current generation (an `Arc` clone; a few instructions under the
    /// cell lock).
    pub fn load(&self) -> Arc<CacheSnapshot> {
        Arc::clone(&self.current.lock().expect("snapshot cell poisoned"))
    }

    /// Make `held` the current generation: one atomic load when it already
    /// is, [`SnapshotCell::load`] when a newer one was stored since. Equal
    /// addresses mean the same generation, because `held` is a strong
    /// reference: its snapshot cannot be freed, and its address handed to
    /// another, while the caller holds it.
    #[inline(always)]
    pub fn refresh(&self, held: &mut Arc<CacheSnapshot>) {
        if !std::ptr::eq(self.latest.load(Ordering::Acquire), Arc::as_ptr(held)) {
            *held = self.load();
        }
    }

    /// Publish the next generation (atomic pointer swap).
    pub fn store(&self, snapshot: Arc<CacheSnapshot>) {
        let mut current = self.current.lock().expect("snapshot cell poisoned");
        self.latest
            .store(Arc::as_ptr(&snapshot).cast_mut(), Ordering::Release);
        *current = snapshot;
    }
}

/// The writer side of the split: owns the canonical [`Scr`], applies every
/// structural mutation against it, and publishes the next [`CacheSnapshot`]
/// into the paired [`SnapshotCell`]. Callers serialize writers with a
/// `Mutex<CacheWriter>`; readers never take that mutex.
///
/// Every publication stamps a monotonic generation id and is appended to a
/// bounded **generation log** (the last [`GENERATION_LOG_DEPTH`] published
/// `Arc`s), so [`crate::replication`] can encode a publish as a delta
/// against any recently-acknowledged base generation — untouched plans and
/// instance entries ship as references, not bytes.
#[derive(Debug)]
pub struct CacheWriter {
    scr: Scr,
    /// Generation stamp of the most recent publication.
    generation: u64,
    /// Recently published generations, oldest first (delta bases).
    log: VecDeque<Arc<CacheSnapshot>>,
}

impl CacheWriter {
    /// Wrap an SCR state and publish its initial snapshot as generation 0.
    pub fn new(scr: Scr) -> (Self, Arc<CacheSnapshot>) {
        Self::at_generation(scr, 0)
    }

    /// Wrap an SCR state whose initial snapshot continues an existing
    /// generation lineage (e.g. a warm restart from a persisted generation,
    /// so a replica can subscribe with catch-up from where it left off).
    pub fn at_generation(scr: Scr, generation: u64) -> (Self, Arc<CacheSnapshot>) {
        let snapshot = Arc::new(CacheSnapshot::capture_at(&scr, generation));
        let mut log = VecDeque::with_capacity(GENERATION_LOG_DEPTH);
        log.push_back(Arc::clone(&snapshot));
        (
            CacheWriter {
                scr,
                generation,
                log,
            },
            snapshot,
        )
    }

    /// The canonical state (read-only; for stats, persistence, tests).
    pub fn scr(&self) -> &Scr {
        &self.scr
    }

    /// The generation stamp of the most recent publication.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The most recently published generation (head of the log).
    pub fn latest_snapshot(&self) -> Arc<CacheSnapshot> {
        Arc::clone(self.log.back().expect("generation log never empty"))
    }

    /// A recently-published generation still retained as a delta base, if
    /// `generation` is within the log window.
    pub fn logged_snapshot(&self, generation: u64) -> Option<Arc<CacheSnapshot>> {
        self.log
            .iter()
            .find(|s| s.generation() == generation)
            .cloned()
    }

    /// `manageCache` for a fresh optimization, then publish the resulting
    /// generation into `cell`. Returns the plan-count delta
    /// `(before, after)` so callers keep O(1) global-budget totals exact.
    pub fn manage_cache_entry(
        &mut self,
        sv: &SVector,
        opt: OptimizedPlan,
        engine: &QueryEngine,
        cell: &SnapshotCell,
    ) -> (usize, usize) {
        let before = self.scr.cache().num_plans();
        self.scr.manage_cache_entry(sv, opt, engine);
        let after = self.scr.cache().num_plans();
        self.publish(cell);
        (before, after)
    }

    /// Capture + install the next locally minted generation.
    fn publish(&mut self, cell: &SnapshotCell) {
        self.publish_at(self.generation + 1, cell, Instant::now());
    }

    /// Capture the canonical state under `generation`, append it to the
    /// generation log and install it in `cell`, timing the work since `t0`
    /// into the shared `publishes`/`publish_nanos` counters.
    fn publish_at(&mut self, generation: u64, cell: &SnapshotCell, t0: Instant) {
        self.generation = generation;
        let snapshot = Arc::new(CacheSnapshot::capture_at(&self.scr, generation));
        self.log.push_back(Arc::clone(&snapshot));
        while self.log.len() > GENERATION_LOG_DEPTH {
            self.log.pop_front();
        }
        cell.store(snapshot);
        self.scr
            .stats
            .record_publish(t0.elapsed().as_nanos() as u64);
    }

    /// Replace the canonical state with an externally decoded generation
    /// (the replica apply path of [`crate::replication`]): the incoming
    /// `scr` adopts this writer's shared stat cells (so hit/publish tallies
    /// survive across applied generations), and the snapshot is published
    /// under the *record's* generation stamp rather than a locally minted
    /// one — a replica's published generation always equals the primary
    /// generation it replayed.
    pub fn install_generation(&mut self, mut scr: Scr, generation: u64, cell: &SnapshotCell) {
        let t0 = Instant::now();
        scr.adopt_stat_cells(Arc::clone(&self.scr.stats));
        self.scr = scr;
        self.publish_at(generation, cell, t0);
    }

    /// Evict one plan (global-budget victim), then publish the resulting
    /// generation. Returns the `(before, after)` plan-count delta.
    pub fn evict_plan(&mut self, fp: PlanFingerprint, cell: &SnapshotCell) -> (usize, usize) {
        let before = self.scr.cache().num_plans();
        if self.scr.cache().contains_plan(fp) {
            self.scr.evict_plan(fp);
        }
        let after = self.scr.cache().num_plans();
        self.publish(cell);
        (before, after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scr::ScrConfig;
    use crate::spatial::BLOCK_ROWS;
    use crate::testutil::fixture_template;
    use crate::PlanChoice;
    use pqo_optimizer::svector::{compute_svector, instance_for_target};

    #[test]
    fn snapshot_decisions_match_sequential_scr() {
        // Drive the same seeded sequence through (a) the sequential Scr and
        // (b) a snapshot-published writer whose readers decide from the
        // loaded generation. Decisions must be byte-identical.
        let t = fixture_template("snap_equiv");
        let engine_a = QueryEngine::new(std::sync::Arc::clone(&t));
        let engine_b = QueryEngine::new(std::sync::Arc::clone(&t));
        let mut scr = Scr::new(1.5).unwrap();
        let (mut writer, first) = CacheWriter::new(Scr::new(1.5).unwrap());
        let cell = SnapshotCell::new(first);

        for i in 0..80 {
            let target = [
                0.02 + 0.012 * (i % 73) as f64,
                0.03 + 0.011 * ((i * 7) % 67) as f64,
            ];
            let inst = instance_for_target(&t, &target);
            let sv = compute_svector(&t, &inst);

            let a = match scr.try_cached_plan(&sv, &engine_a) {
                Some(c) => c,
                None => {
                    let opt = engine_a.optimize(&sv);
                    let plan = std::sync::Arc::clone(&opt.plan);
                    scr.manage_cache_entry(&sv, opt, &engine_a);
                    PlanChoice {
                        plan,
                        optimized: true,
                    }
                }
            };

            let snap = cell.load();
            let b = match snap.try_cached_plan(&sv, &engine_b) {
                Some(c) => c,
                None => {
                    let opt = engine_b.optimize(&sv);
                    let plan = std::sync::Arc::clone(&opt.plan);
                    writer.manage_cache_entry(&sv, opt, &engine_b, &cell);
                    PlanChoice {
                        plan,
                        optimized: true,
                    }
                }
            };

            assert_eq!(a.optimized, b.optimized, "instance {i} diverged");
            assert_eq!(
                a.plan.fingerprint(),
                b.plan.fingerprint(),
                "instance {i} served different plans"
            );
        }
        assert_eq!(
            scr.cache().num_plans(),
            cell.load().cache().num_plans(),
            "final caches diverged"
        );
        assert_eq!(
            scr.cache().num_instances(),
            cell.load().cache().num_instances()
        );
    }

    #[test]
    fn old_generations_stay_consistent_after_eviction() {
        let t = fixture_template("snap_evict");
        let engine = QueryEngine::new(std::sync::Arc::clone(&t));
        let mut cfg = ScrConfig::new(1.05).unwrap();
        cfg.lambda_r = 0.0;
        let (mut writer, first) = CacheWriter::new(Scr::with_config(cfg).unwrap());
        let cell = SnapshotCell::new(first);
        let mut generations = vec![cell.load()];
        for i in 1..=12 {
            let target = [0.08 * i as f64, 0.08 * i as f64];
            let inst = instance_for_target(&t, &target);
            let sv = compute_svector(&t, &inst);
            if cell.load().try_cached_plan(&sv, &engine).is_none() {
                let opt = engine.optimize(&sv);
                writer.manage_cache_entry(&sv, opt, &engine, &cell);
            }
            generations.push(cell.load());
        }
        // Evict every plan; previously published generations must remain
        // internally consistent (their instance entries still point at
        // plans frozen in the same generation).
        let fps: Vec<_> = cell
            .load()
            .cache()
            .plans()
            .map(|p| p.fingerprint())
            .collect();
        for fp in fps {
            writer.evict_plan(fp, &cell);
        }
        assert_eq!(cell.load().cache().num_plans(), 0);
        for (gen, snap) in generations.iter().enumerate() {
            assert!(
                snap.cache().check_invariants().is_ok(),
                "generation {gen} became inconsistent after eviction"
            );
        }
    }

    #[test]
    fn consecutive_generations_share_every_full_coordinate_block() {
        let t = fixture_template("snap_share");
        let engine = QueryEngine::new(std::sync::Arc::clone(&t));
        let mut cfg = ScrConfig::new(1.02).unwrap();
        cfg.lambda_r = 0.0;
        let (mut writer, first) = CacheWriter::new(Scr::with_config(cfg).unwrap());
        let cell = SnapshotCell::new(first);
        // Publish generation after generation until the instance list spans
        // several blocks, holding on to every generation on the way. Every
        // point is optimized and committed, hit or not: a commit always
        // stores an instance.
        let rows = 3 * BLOCK_ROWS + 17;
        let mut generations = vec![cell.load()];
        for i in 0..rows {
            let target = [
                0.02 + 0.0041 * (i % 211) as f64,
                0.03 + 0.0043 * ((i * 7) % 199) as f64,
            ];
            let inst = instance_for_target(&t, &target);
            let sv = compute_svector(&t, &inst);
            let opt = engine.optimize(&sv);
            writer.manage_cache_entry(&sv, opt, &engine, &cell);
            generations.push(cell.load());
        }
        assert_eq!(cell.load().cache().num_instances(), rows);

        // Consecutive generations differ in at most the tail block: every
        // block either generation holds in full is one shared allocation.
        for pair in generations.windows(2) {
            let (a, b) = (pair[0].cache().coords(), pair[1].cache().coords());
            assert_eq!(b.len(), a.len() + 1, "one instance per generation");
            let full = a.len() / BLOCK_ROWS;
            assert_eq!(
                a.block_tokens()[..full],
                b.block_tokens()[..full],
                "generation {} copied a full block",
                pair[1].generation()
            );
        }
        // So the first and the last generation still share the first's
        // full blocks, hundreds of publications apart.
        let (first, last) = (&generations[BLOCK_ROWS + 1], generations.last().unwrap());
        assert_eq!(
            first.cache().coords().block_tokens()[0],
            last.cache().coords().block_tokens()[0]
        );

        // A publication with no structural change (evicting a plan that is
        // not cached) shares *every* block, the tail included.
        let publishes_before = cell.load().stats().publishes;
        let gen_a = cell.load();
        writer.evict_plan(pqo_optimizer::plan::PlanFingerprint(0), &cell);
        let gen_b = cell.load();
        assert_eq!(gen_b.generation(), gen_a.generation() + 1);
        assert_eq!(
            gen_a.cache().coords().block_tokens(),
            gen_b.cache().coords().block_tokens(),
            "a mutation-free publication must share all blocks"
        );

        // The copy-on-write cost is counted: one tail copy per append to a
        // published block (none when the append opens a fresh block), never
        // more than a block of rows each.
        let stats = gen_b.stats();
        assert_eq!(stats.publishes, publishes_before + 1);
        assert!(stats.publishes > 0 && stats.publish_nanos > 0);
        let appends = (rows - 1) as u64;
        assert!(stats.index_shard_rebuilds <= appends);
        assert!(stats.index_shard_rebuilds >= appends - appends / BLOCK_ROWS as u64 - 1);
        assert!(stats.index_points_rebuilt < stats.index_shard_rebuilds * BLOCK_ROWS as u64);
    }

    #[test]
    fn usage_bumps_through_old_snapshot_reach_the_writer() {
        let t = fixture_template("snap_usage");
        let engine = QueryEngine::new(std::sync::Arc::clone(&t));
        let (mut writer, first) = CacheWriter::new(Scr::new(2.0).unwrap());
        let cell = SnapshotCell::new(first);
        let inst = instance_for_target(&t, &[0.2, 0.2]);
        let sv = compute_svector(&t, &inst);
        let opt = engine.optimize(&sv);
        writer.manage_cache_entry(&sv, opt, &engine, &cell);
        let old = cell.load();
        // Publish a fresh generation on top (a no-op re-optimize extends
        // the instance list).
        let opt2 = engine.optimize(&sv);
        writer.manage_cache_entry(&sv, opt2, &engine, &cell);
        // Serve through the *old* generation: the usage bump must be
        // visible to the writer's canonical state (shared entry identity).
        let before: u64 = writer.scr().cache().instances()[0].usage();
        assert!(old.try_cached_plan(&sv, &engine).is_some());
        let after: u64 = writer.scr().cache().instances()[0].usage();
        assert_eq!(after, before + 1, "usage bump lost across generations");
    }
}
