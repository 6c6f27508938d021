//! The concurrent serving layer: [`PqoService`].
//!
//! `PqoService` is the deployment surface — many templates, many threads,
//! one optional global plan budget — and, with the sequential
//! [`Scr`] it is checked against, one of the crate's two `getPlan`
//! implementations. It realizes the paper's Figure 2 split at scale:
//! `getPlan` stays on each caller's critical path while cache maintenance
//! serializes per template. Section 4.1's asynchronous `manageCache` is
//! realized by snapshot publication: readers decide from the last published
//! generation and never wait for the maintenance that produces the next.
//!
//! # Snapshot-published read path
//!
//! * **Registry** — `RwLock<BTreeMap<name, Arc<Shard>>>`, read-mostly:
//!   only `register` writes. A thread keeps the shard and the generation of
//!   its last decision, keyed by the service's process-unique id and checked
//!   against the shard's own template name; a decision for the same
//!   template takes no registry lock, clones no `Arc` and checks its
//!   generation with one atomic load ([`SnapshotCell::refresh`]). A
//!   decision for another template (or service) takes the read lock just
//!   long enough to clone the shard's `Arc`. A thread's kept shard outlives
//!   a dropped service until the thread's next decision.
//! * **Shard** — one per template: a shared [`QueryEngine`] (interior-
//!   mutable, no lock needed), a [`SnapshotCell`] holding the published
//!   [`CacheSnapshot`] generation, and a `Mutex<CacheWriter>`. The SCR
//!   read path ([`crate::scr::CacheState::try_cached_plan`]) runs against a
//!   loaded generation with **no lock held** — cache hits on the same
//!   template never wait for `manageCache`, not even while a writer holds
//!   the writer mutex. Only confirmed misses (after the optimizer call, which
//!   also runs lock-free) enter the writer, which commits the mutation and
//!   publishes the next generation with one `Arc` swap. Only a miss clones
//!   the shard's `Arc`, into its [`MissTicket`].
//! * **Counters** — engine stats, SCR stats and the global plan total are
//!   atomics with snapshot views: observers never block servers. Instance
//!   usage counters are `Arc`-shared across generations, so LFU signal
//!   from readers on older snapshots still reaches the writer.
//!
//! # Error policy
//!
//! Misuse (unknown/duplicate template names, invalid λ, bad snapshots)
//! returns [`PqoError`]; panics are reserved for internal cache invariants.
//!
//! # Global budget
//!
//! The service can cap the total number of plans across templates ("in
//! case a plan cache budget ... is enforced", Section 6.3.1 — per query in
//! the paper, global here). The running total is an `AtomicUsize` adjusted
//! by the exact cache delta under each shard's writer lock — checking the
//! budget is
//! O(1), and each eviction scans the registry once (O(templates), over
//! published snapshots) to find the global LFU victim instead of
//! re-counting every cache. In debug builds every eviction point
//! reconciles the running total against a full recount taken with all
//! writer locks held (every structural change *and* its accounting happen
//! under a writer lock, so the total is stable at that point).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use pqo_optimizer::engine::{EngineStats, QueryEngine};
use pqo_optimizer::error::PqoError;
use pqo_optimizer::plan::PlanFingerprint;
use pqo_optimizer::svector::SVector;
use pqo_optimizer::template::{QueryInstance, QueryTemplate};

use crate::persist;
use crate::replication;
use crate::scr::{GetPlanScratch, Scr, ScrConfig, ScrStats};
use crate::snapshot::{CacheSnapshot, CacheWriter, SnapshotCell};
use crate::PlanChoice;

/// One registered template: its engine (shared, lock-free), the published
/// snapshot generation (read path, lock-free in practice) and the writer
/// (cache maintenance, serialized by the mutex).
struct Shard {
    engine: QueryEngine,
    published: SnapshotCell,
    writer: Mutex<CacheWriter>,
}

thread_local! {
    /// The calling thread's decide scratch, shared by every shard of every
    /// service the thread serves (it re-binds itself when the engine
    /// changes): the cached path allocates nothing once it is warm, and no
    /// caller waits for, or allocates around, another's.
    static SCRATCH: RefCell<GetPlanScratch> = RefCell::default();

    /// The calling thread's selectivity vector, which
    /// [`PqoService::serve_cached`] derives in place: a hit allocates
    /// nothing, and only a miss copies it out, into its [`MissTicket`].
    static SELECTIVITIES: RefCell<SVector> = const { RefCell::new(SVector(Vec::new())) };

    /// The shard the calling thread decided for last, and the generation it
    /// decided from: the next decision for the same template of the same
    /// service takes neither the registry lock nor the cell lock.
    static SLOT: RefCell<Option<Slot>> = const { RefCell::new(None) };
}

/// What a thread keeps between decisions ([`PqoService::serve_cached`]).
struct Slot {
    /// [`PqoService::id`] of the service the shard belongs to.
    service: u64,
    shard: Arc<Shard>,
    /// The generation of `shard` the thread last decided from; refreshed
    /// before every decision.
    snapshot: Arc<CacheSnapshot>,
}

impl Shard {
    fn writer(&self) -> MutexGuard<'_, CacheWriter> {
        self.writer.lock().expect("writer lock poisoned")
    }

    /// Whether `instance` fits the template, checked before its selectivity
    /// vector is derived: instances come from outside the program, and
    /// `compute_svector` asserts the arity and compares values with
    /// `partial_cmp().unwrap()`.
    fn check_instance(&self, instance: &QueryInstance) -> Result<(), PqoError> {
        let template = self.engine.template();
        let invalid = |reason: String| PqoError::InvalidInstance {
            template: template.name.clone(),
            reason,
        };
        if instance.values.len() != template.dimensions() {
            return Err(invalid(format!(
                "takes {} parameters, got {}",
                template.dimensions(),
                instance.values.len()
            )));
        }
        if let Some(bad) = instance.values.iter().find(|v| !v.is_finite()) {
            return Err(invalid(format!("non-finite parameter value {bad}")));
        }
        Ok(())
    }

    /// The cached `getPlan` path against `snapshot`, in the thread's
    /// scratch: the cached plan, or on a miss the bound its cost check
    /// leaves for the optimizer call.
    fn try_cached_plan(&self, snapshot: &CacheSnapshot, sv: &SVector) -> Result<PlanChoice, f64> {
        SCRATCH.with_borrow_mut(|scratch| {
            snapshot
                .try_cached_plan_with(sv, &self.engine, scratch)
                .ok_or_else(|| scratch.optimize_bound())
        })
    }
}

/// Thread-safe multi-template serving layer (`Send + Sync`): shared
/// ownership, typed errors, per-template sharding.
///
/// ```
/// use std::sync::Arc;
/// use pqo_core::service::PqoService;
/// use pqo_core::scr::ScrConfig;
/// use pqo_optimizer::template::{RangeOp, TemplateBuilder};
/// use pqo_optimizer::svector::instance_for_target;
///
/// # fn main() -> Result<(), pqo_core::PqoError> {
/// let catalog = pqo_catalog::schemas::tpch_skew();
/// let mut b = TemplateBuilder::new("dashboard");
/// let o = b.relation(catalog.expect_table("orders"), "o");
/// b.param(o, "o_totalprice", RangeOp::Le);
/// let template = b.build();
///
/// let service = Arc::new(PqoService::new());
/// service.register(template.clone(), ScrConfig::new(2.0)?)?;
///
/// let q = instance_for_target(&template, &[0.2]);
/// let first = service.get_plan("dashboard", &q)?;
/// let second = service.get_plan("dashboard", &q)?;
/// assert!(first.optimized && !second.optimized);
/// # Ok(())
/// # }
/// ```
pub struct PqoService {
    /// A number no other service of this process has: what a thread's
    /// [`Slot`] is keyed by. Not the service's address, which the next
    /// service can be given as soon as this one is dropped.
    id: u64,
    shards: RwLock<BTreeMap<String, Arc<Shard>>>,
    global_plan_budget: Option<usize>,
    /// Running total of plans cached across all shards; every structural
    /// cache change adjusts it by the exact delta under the owning shard's
    /// write lock.
    total_plans: AtomicUsize,
    global_evictions: AtomicU64,
}

/// What the cache-only half of `getPlan` found
/// ([`PqoService::serve_cached`]).
pub enum Cached {
    /// The selectivity or the cost check passed: `choice` is valid at
    /// `generation`, the published generation it was served from.
    Hit {
        /// The cached plan (`optimized` is `false`).
        choice: PlanChoice,
        /// The generation consulted.
        generation: u64,
    },
    /// Both checks failed; [`PqoService::resume`] finishes the decision.
    Miss(MissTicket),
}

/// A confirmed cache miss in transit to the thread that may call the
/// optimizer: the shard, the checked selectivity vector, the generation the
/// miss was decided against and the bound its cost check found for the
/// optimizer call, so that nothing is looked up, validated or decided a
/// second time.
pub struct MissTicket {
    shard: Arc<Shard>,
    sv: SVector,
    generation: u64,
    bound: f64,
}

impl PqoService {
    /// Service without a global budget.
    pub fn new() -> Self {
        // `Relaxed`: the counter hands out distinct values and publishes
        // nothing else.
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        PqoService {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            shards: RwLock::new(BTreeMap::new()),
            global_plan_budget: None,
            total_plans: AtomicUsize::new(0),
            global_evictions: AtomicU64::new(0),
        }
    }

    /// Service with a global cap on the total number of cached plans.
    ///
    /// # Errors
    /// [`PqoError::InvalidBudget`] if `budget` is zero.
    pub fn with_global_budget(budget: usize) -> Result<Self, PqoError> {
        if budget == 0 {
            return Err(PqoError::InvalidBudget { budget });
        }
        let mut s = PqoService::new();
        s.global_plan_budget = Some(budget);
        Ok(s)
    }

    /// Register a template under its name with the given configuration.
    ///
    /// # Errors
    /// [`PqoError::DuplicateTemplate`] if the name is taken;
    /// [`PqoError::InvalidLambda`] / [`PqoError::InvalidBudget`] if the
    /// configuration is invalid.
    pub fn register(
        &self,
        template: Arc<QueryTemplate>,
        config: ScrConfig,
    ) -> Result<(), PqoError> {
        let scr = Scr::with_config(config)?;
        self.install(template, scr, 0)
    }

    /// Register a template whose SCR state is restored from a snapshot
    /// produced by [`persist::save`] (e.g. a warm restart). The restored
    /// shard continues the snapshot's generation lineage: its published
    /// generation equals the stamp the snapshot was saved under, so a
    /// restarted replica can resubscribe from where it left off.
    ///
    /// # Errors
    /// [`PqoError::Persist`] when the snapshot is unreadable, corrupt or was
    /// saved under a template it does not fit (plan indices out of range,
    /// entries of another arity), in addition to the
    /// [`PqoService::register`] errors.
    pub fn register_restored(
        &self,
        template: Arc<QueryTemplate>,
        config: ScrConfig,
        snapshot: &mut impl Read,
    ) -> Result<(), PqoError> {
        let (scr, generation) = persist::restore_with_generation(config, snapshot)?;
        self.install(template, scr, generation)
    }

    /// Restored state is bytes from outside the program: it is checked
    /// against `template` (plan indices in range, entry arity) before the
    /// registry is touched, so a stale or crafted `.pqo-cache` is a typed
    /// error here rather than an index panic at the first cost check.
    fn install(
        &self,
        template: Arc<QueryTemplate>,
        scr: Scr,
        generation: u64,
    ) -> Result<(), PqoError> {
        scr.check_template(&template)?;
        let name = template.name.clone();
        let plans = scr.cache().num_plans();
        let (writer, first) = CacheWriter::at_generation(scr, generation);
        let mut shards = self.shards.write().expect("registry lock poisoned");
        if shards.contains_key(&name) {
            return Err(PqoError::DuplicateTemplate { name });
        }
        shards.insert(
            name,
            Arc::new(Shard {
                engine: QueryEngine::new(template),
                published: SnapshotCell::new(first),
                writer: Mutex::new(writer),
            }),
        );
        // Account while still holding the registry write lock so the debug
        // reconciler (which scans under the registry read lock) never
        // observes a shard whose restored plans are not yet in the total.
        self.total_plans.fetch_add(plans, Ordering::Relaxed);
        drop(shards);
        self.enforce_global_budget();
        Ok(())
    }

    /// Persist one template's current published generation into `w` (see
    /// [`persist::save`]): the blob is internally consistent without taking
    /// the writer lock, because the generation is immutable.
    ///
    /// # Errors
    /// [`PqoError::UnknownTemplate`] / [`PqoError::Persist`].
    pub fn save(&self, template: &str, w: &mut impl Write) -> Result<(), PqoError> {
        let snapshot = self.shard(template)?.published.load();
        persist::save(&snapshot, snapshot.generation(), w).map_err(|e| PqoError::Persist {
            message: e.to_string(),
        })
    }

    /// The registered template object behind `name` (front ends render
    /// plans against it).
    ///
    /// # Errors
    /// [`PqoError::UnknownTemplate`].
    pub fn template(&self, name: &str) -> Result<Arc<QueryTemplate>, PqoError> {
        Ok(Arc::clone(self.shard(name)?.engine.template()))
    }

    /// Registered template names, sorted.
    pub fn templates(&self) -> Vec<String> {
        self.shards
            .read()
            .expect("registry lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    fn shard(&self, template: &str) -> Result<Arc<Shard>, PqoError> {
        self.shards
            .read()
            .expect("registry lock poisoned")
            .get(template)
            .cloned()
            .ok_or_else(|| PqoError::UnknownTemplate {
                name: template.to_string(),
            })
    }

    /// Serve one instance of the named template — callable from any number
    /// of threads concurrently.
    ///
    /// The fast path (selectivity/cost check hit) runs against the loaded
    /// [`CacheSnapshot`] generation with no lock held — it proceeds even
    /// while another thread's `manageCache` holds the writer lock. A miss
    /// optimizes *outside* all locks, then commits `manageCache` under the
    /// writer lock and publishes the next generation. Two threads missing
    /// on the same point may both optimize — the second commit simply
    /// extends the existing plan's inference region (benign, never
    /// violates λ).
    ///
    /// # Errors
    /// [`PqoError::UnknownTemplate`] when `template` is not registered;
    /// [`PqoError::InvalidInstance`] when the instance has the wrong number
    /// of values or a non-finite one (nothing is served, counted or
    /// published).
    pub fn get_plan(
        &self,
        template: &str,
        instance: &QueryInstance,
    ) -> Result<PlanChoice, PqoError> {
        Ok(self.get_plan_with_generation(template, instance)?.0)
    }

    /// [`PqoService::get_plan`] plus the generation the decision is valid
    /// at: the published generation the hit was served from, or the
    /// generation a miss's `manageCache` published. A replica that has
    /// applied *at least* this generation holds every cache entry this
    /// decision depends on — the wire protocol carries it so replicas can
    /// sequence forwarded decisions against their own applied stream.
    ///
    /// # Errors
    /// As [`PqoService::get_plan`].
    pub fn get_plan_with_generation(
        &self,
        template: &str,
        instance: &QueryInstance,
    ) -> Result<(PlanChoice, u64), PqoError> {
        Ok(match self.serve_cached(template, instance)? {
            Cached::Hit { choice, generation } => (choice, generation),
            Cached::Miss(ticket) => self.resume(ticket),
        })
    }

    /// The cache-only half of `getPlan` (selectivity check + cost check
    /// against the current published generation — never an optimizer call,
    /// never the writer lock, never a cache mutation): a hit with the generation it
    /// was served from, or a [`MissTicket`] for [`PqoService::resume`]. A
    /// network front end answers hits where the request was decoded and
    /// hands only tickets to its worker pool; a read replica answers hits
    /// locally and forwards misses to its primary.
    ///
    /// The calling thread keeps the shard and the generation it decided
    /// from. A decision for the same template of the same service as the
    /// thread's last one looks up nothing, and loads the published
    /// generation only if a newer one was stored since
    /// ([`SnapshotCell::refresh`]).
    ///
    /// # Errors
    /// As [`PqoService::get_plan`].
    pub fn serve_cached(
        &self,
        template: &str,
        instance: &QueryInstance,
    ) -> Result<Cached, PqoError> {
        SLOT.with_borrow_mut(|slot| {
            let slot = match slot {
                Some(kept)
                    if kept.service == self.id && kept.shard.engine.template().name == template =>
                {
                    kept.shard.published.refresh(&mut kept.snapshot);
                    kept
                }
                _ => {
                    let shard = self.shard(template)?;
                    let snapshot = shard.published.load();
                    slot.insert(Slot {
                        service: self.id,
                        shard,
                        snapshot,
                    })
                }
            };
            let Slot {
                shard, snapshot, ..
            } = slot;
            shard.check_instance(instance)?;
            SELECTIVITIES.with_borrow_mut(|sv| {
                shard.engine.compute_svector_into(instance, sv);
                let generation = snapshot.generation();
                Ok(match shard.try_cached_plan(snapshot, sv) {
                    Ok(choice) => Cached::Hit { choice, generation },
                    Err(bound) => Cached::Miss(MissTicket {
                        shard: Arc::clone(shard),
                        sv: sv.clone(),
                        generation,
                        bound,
                    }),
                })
            })
        })
    }

    /// The other half: finish a miss [`PqoService::serve_cached`] reported,
    /// on whichever thread may call the optimizer. While the generation the
    /// ticket was decided against is still the published one, this goes
    /// straight to the optimizer call and `manageCache` — the instance is
    /// decided once. If a publication landed in between (another caller's
    /// miss), the instance is decided again against the new generation and
    /// can come back as a hit of it.
    pub fn resume(&self, ticket: MissTicket) -> (PlanChoice, u64) {
        let MissTicket {
            shard,
            sv,
            generation,
            mut bound,
        } = ticket;
        let snapshot = shard.published.load();
        if snapshot.generation() != generation {
            match shard.try_cached_plan(&snapshot, &sv) {
                Ok(choice) => return (choice, snapshot.generation()),
                Err(decided_again) => bound = decided_again,
            }
        }
        self.optimize_and_commit(&shard, &sv, bound)
    }

    /// Serve a batch of instances of the named template, amortizing the
    /// snapshot load and the selectivity-vector pass across the batch.
    ///
    /// One generation is loaded up front and serves every cache hit; each
    /// confirmed miss optimizes, commits and re-loads the just-published
    /// generation, so instance `i+1` sees the plan instance `i` added —
    /// the per-instance decisions are exactly those the sequential
    /// [`Scr`] technique would make over the same sequence (asserted
    /// against the oracle in `tests/snapshot_stress.rs`).
    ///
    /// # Errors
    /// As [`PqoService::get_plan`]; one invalid instance refuses the whole
    /// batch before any of it is served.
    pub fn get_plan_batch(
        &self,
        template: &str,
        instances: &[QueryInstance],
    ) -> Result<Vec<PlanChoice>, PqoError> {
        Ok(self.get_plan_batch_with_generation(template, instances)?.0)
    }

    /// [`PqoService::get_plan_batch`] plus the generation the *last*
    /// decision in the batch is valid at (see
    /// [`PqoService::get_plan_with_generation`]): the generation of the
    /// final snapshot consulted, which covers every decision in the frame.
    ///
    /// # Errors
    /// As [`PqoService::get_plan_batch`].
    pub fn get_plan_batch_with_generation(
        &self,
        template: &str,
        instances: &[QueryInstance],
    ) -> Result<(Vec<PlanChoice>, u64), PqoError> {
        let shard = self.shard(template)?;
        // One selectivity pass over the whole batch.
        let svs = instances
            .iter()
            .map(|q| {
                shard
                    .check_instance(q)
                    .map(|()| shard.engine.compute_svector(q))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut snapshot = shard.published.load();
        snapshot.stats.record_batch(instances.len() as u64);
        let mut out = Vec::with_capacity(instances.len());
        for sv in &svs {
            match shard.try_cached_plan(&snapshot, sv) {
                Ok(choice) => out.push(choice),
                Err(bound) => {
                    out.push(self.optimize_and_commit(&shard, sv, bound).0);
                    snapshot = shard.published.load();
                    snapshot.stats.record_snapshot_reload();
                }
            }
        }
        Ok((out, snapshot.generation()))
    }

    /// The miss arm of per-instance and batched serving alike: the
    /// optimizer call, bounded by the miss's cheapest Recost
    /// ([`QueryEngine::optimize_within`]), runs with no lock held;
    /// `manageCache` + publication and the exact-delta plan accounting run
    /// under the shard's writer lock; global-budget enforcement follows. The
    /// optimizer's wall time is attributed to the technique's overhead
    /// split. Returns the choice and the generation the commit published.
    fn optimize_and_commit(&self, shard: &Shard, sv: &SVector, bound: f64) -> (PlanChoice, u64) {
        let (opt, elapsed) = shard.engine.optimize_timed(sv, bound);
        let plan = Arc::clone(&opt.plan);
        let generation = {
            let mut writer = shard.writer();
            writer
                .scr()
                .record_optimize_nanos(elapsed.as_nanos() as u64);
            let (before, after) =
                writer.manage_cache_entry(sv, opt, &shard.engine, &shard.published);
            self.apply_delta(before, after);
            writer.generation()
        };
        self.enforce_global_budget();
        (
            PlanChoice {
                plan,
                optimized: true,
            },
            generation,
        )
    }

    fn apply_delta(&self, before: usize, after: usize) {
        if after >= before {
            self.total_plans
                .fetch_add(after - before, Ordering::Relaxed);
        } else {
            self.total_plans
                .fetch_sub(before - after, Ordering::Relaxed);
        }
    }

    /// The named template's current published generation — an immutable
    /// view callers can hold across many decisions (e.g. the baselines
    /// runner, tools) without pinning any lock.
    ///
    /// # Errors
    /// [`PqoError::UnknownTemplate`].
    pub fn snapshot(&self, template: &str) -> Result<Arc<CacheSnapshot>, PqoError> {
        Ok(self.shard(template)?.published.load())
    }

    /// The named template's current published generation stamp (O(1); the
    /// replication heartbeat).
    ///
    /// # Errors
    /// [`PqoError::UnknownTemplate`].
    pub fn generation(&self, template: &str) -> Result<u64, PqoError> {
        Ok(self.shard(template)?.published.load().generation())
    }

    /// Encode the named template's latest published generation as a
    /// replication record (see [`replication::encode_generation`]): a delta
    /// against `since` when that base is still in the writer's generation
    /// log, a full snapshot otherwise. A subscriber any number of
    /// generations behind catches up with this one record: a delta spanning
    /// the generations in between ships each plan fingerprint and each kept
    /// entry's reference once, where a chain of per-generation deltas would
    /// ship them once per link. The `Arc`s are grabbed under the writer
    /// lock; the (possibly large) encode runs after it is released. Returns
    /// the record and the generation it produces.
    ///
    /// # Errors
    /// [`PqoError::UnknownTemplate`].
    pub fn generation_record(
        &self,
        template: &str,
        since: Option<u64>,
    ) -> Result<(Vec<u8>, u64), PqoError> {
        let shard = self.shard(template)?;
        let (latest, base) = {
            let writer = shard.writer();
            let base = since.and_then(|g| writer.logged_snapshot(g));
            (writer.latest_snapshot(), base)
        };
        let generation = latest.generation();
        Ok((
            replication::encode_generation(&latest, base.as_deref()),
            generation,
        ))
    }

    /// Apply a pushed replication record to the named template (the replica
    /// side of [`PqoService::generation_record`]): decode against the
    /// current published generation as delta base, then install the decoded
    /// state under the record's generation stamp. Plan-count accounting and
    /// the global budget apply exactly as for locally committed mutations.
    /// Returns the generation now published.
    ///
    /// # Errors
    /// [`PqoError::UnknownTemplate`]; [`PqoError::Persist`] when the record
    /// is corrupt, decodes to a cache that does not fit this template, or
    /// its delta base does not match the currently published generation
    /// (the caller should resubscribe from its actual generation). On any
    /// error the published generation is unchanged.
    pub fn apply_generation(&self, template: &str, record: &[u8]) -> Result<u64, PqoError> {
        let shard = self.shard(template)?;
        let generation = {
            let mut writer = shard.writer();
            let base = writer.latest_snapshot();
            let config = base.config().clone();
            let (scr, generation) = replication::apply_generation(config, Some(&base), record)?;
            scr.check_template(shard.engine.template())?;
            let before = writer.scr().cache().num_plans();
            let after = scr.cache().num_plans();
            writer.install_generation(scr, generation, &shard.published);
            self.apply_delta(before, after);
            generation
        };
        self.enforce_global_budget();
        Ok(generation)
    }

    /// Total plans cached across all templates (O(1): the running total).
    pub fn total_plans(&self) -> usize {
        self.total_plans.load(Ordering::Relaxed)
    }

    /// Total optimizer calls across all templates.
    pub fn total_optimizer_calls(&self) -> u64 {
        let shards = self.shards.read().expect("registry lock poisoned");
        shards
            .values()
            .map(|s| s.engine.stats().optimize_calls)
            .sum()
    }

    /// Plans evicted by the *global* budget (per-template budgets count in
    /// each SCR's own stats).
    pub fn global_evictions(&self) -> u64 {
        self.global_evictions.load(Ordering::Relaxed)
    }

    /// Snapshot of one template's technique counters (lock-free reads of
    /// the atomic cells, shared between the writer and every published
    /// generation).
    ///
    /// # Errors
    /// [`PqoError::UnknownTemplate`].
    pub fn scr_stats(&self, template: &str) -> Result<ScrStats, PqoError> {
        Ok(self.shard(template)?.published.load().stats())
    }

    /// Snapshot of one template's engine counters.
    ///
    /// # Errors
    /// [`PqoError::UnknownTemplate`].
    pub fn engine_stats(&self, template: &str) -> Result<EngineStats, PqoError> {
        Ok(self.shard(template)?.engine.stats())
    }

    /// Run a closure against one template's canonical SCR state under the
    /// *writer* lock (e.g. invariant checks in tests, cache introspection
    /// in tools). Cache-hit readers keep serving from the published
    /// generation while `f` runs — only writers wait.
    ///
    /// # Errors
    /// [`PqoError::UnknownTemplate`].
    pub fn with_scr<R>(&self, template: &str, f: impl FnOnce(&Scr) -> R) -> Result<R, PqoError> {
        Ok(f(self.shard(template)?.writer().scr()))
    }

    /// Global LFU enforcement: O(1) budget check against the running total;
    /// each eviction makes one pass over the shards' *published
    /// generations* (no lock beyond the registry read lock) to pick the
    /// minimum-aggregate-usage plan (Section 6.3.1 lifted one level).
    fn enforce_global_budget(&self) {
        let Some(budget) = self.global_plan_budget else {
            return;
        };
        while self.total_plans.load(Ordering::Relaxed) > budget {
            let victim: Option<(u64, String, Arc<Shard>, PlanFingerprint)> = {
                let shards = self.shards.read().expect("registry lock poisoned");
                let mut best: Option<(u64, String, Arc<Shard>, PlanFingerprint)> = None;
                for (name, shard) in shards.iter() {
                    let snapshot = shard.published.load();
                    if let Some(fp) = snapshot.cache().min_usage_plan() {
                        let usage = snapshot.cache().plan_usage(fp);
                        let better = match &best {
                            None => true,
                            Some((u, n, _, _)) => (usage, name) < (*u, n),
                        };
                        if better {
                            best = Some((usage, name.clone(), Arc::clone(shard), fp));
                        }
                    }
                }
                best
            };
            let Some((_, _, shard, fp)) = victim else {
                break;
            };
            {
                let mut writer = shard.writer();
                // The victim came from a published snapshot and may already
                // be gone from the canonical state; `evict_plan` re-checks
                // under the writer lock and reports the exact delta.
                let (before, after) = writer.evict_plan(fp, &shard.published);
                self.apply_delta(before, after);
                if before > after {
                    self.global_evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            self.debug_reconcile_total();
            // If another thread raced us to this victim, loop and re-check
            // the (already-decremented) total.
        }
    }

    /// Debug-build reconciliation of the O(1) running total against a full
    /// recount (ISSUE satellite): takes every shard's writer lock in
    /// registry order — every structural cache change *and* its
    /// accounting happen under the owning writer lock, so with all locks
    /// held the total is momentarily exact. Registry-order acquisition is
    /// deadlock-free because no other code path holds two writer locks.
    #[inline]
    fn debug_reconcile_total(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let shards = self.shards.read().expect("registry lock poisoned");
        let guards: Vec<MutexGuard<'_, CacheWriter>> =
            shards.values().map(|s| s.writer()).collect();
        let recount: usize = guards.iter().map(|w| w.scr().cache().num_plans()).sum();
        debug_assert_eq!(
            recount,
            self.total_plans.load(Ordering::Relaxed),
            "global plan total drifted from recount at eviction point"
        );
    }
}

impl Default for PqoService {
    fn default() -> Self {
        PqoService::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{inst_at, single_rel_template};

    fn service_two_templates() -> (PqoService, Arc<QueryTemplate>, Arc<QueryTemplate>) {
        let t_orders = single_rel_template("q_orders", "orders", "o_totalprice", "o_orderdate");
        let t_line = single_rel_template("q_lineitem", "lineitem", "l_shipdate", "l_extendedprice");
        let s = PqoService::new();
        s.register(Arc::clone(&t_orders), ScrConfig::new(2.0).unwrap())
            .unwrap();
        s.register(Arc::clone(&t_line), ScrConfig::new(1.5).unwrap())
            .unwrap();
        (s, t_orders, t_line)
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PqoService>();
    }

    #[test]
    fn serves_templates_with_typed_errors() {
        let (s, t_orders, _) = service_two_templates();
        assert_eq!(
            s.templates(),
            vec!["q_lineitem".to_string(), "q_orders".to_string()]
        );

        let q = inst_at(&t_orders, &[0.1, 0.5]);
        assert!(s.get_plan("q_orders", &q).unwrap().optimized);
        assert!(!s.get_plan("q_orders", &q).unwrap().optimized);

        let err = s.get_plan("nope", &q).unwrap_err();
        assert!(matches!(err, PqoError::UnknownTemplate { ref name } if name == "nope"));
        let err = s
            .register(
                single_rel_template("q_orders", "orders", "o_totalprice", "o_orderdate"),
                ScrConfig::new(2.0).unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, PqoError::DuplicateTemplate { ref name } if name == "q_orders"));
        assert!(matches!(
            PqoService::with_global_budget(0),
            Err(PqoError::InvalidBudget { budget: 0 })
        ));
    }

    #[test]
    fn malformed_instances_are_typed_errors_on_every_entry_point() {
        let (s, t_orders, _) = service_two_templates();
        let good = inst_at(&t_orders, &[0.1, 0.5]);
        s.get_plan("q_orders", &good).unwrap();
        let generation = s.generation("q_orders").unwrap();
        let decisions = |s: &PqoService| {
            let st = s.scr_stats("q_orders").unwrap();
            st.selectivity_hits + st.cost_hits + st.optimizer_calls + st.batch_instances
        };
        let counted = decisions(&s);

        let mut bad = vec![
            QueryInstance::new(vec![1.0]),
            QueryInstance::new(vec![1.0, 2.0, 3.0]),
            QueryInstance::new(vec![]),
        ];
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            bad.push(QueryInstance::new(vec![v, 1.0]));
            bad.push(QueryInstance::new(vec![1.0, v]));
        }
        for q in &bad {
            let batch = [good.clone(), q.clone()];
            let errors = [
                s.get_plan("q_orders", q).unwrap_err(),
                s.get_plan_with_generation("q_orders", q).unwrap_err(),
                s.serve_cached("q_orders", q).err().expect("refused"),
                s.get_plan_batch("q_orders", &batch).unwrap_err(),
                s.get_plan_batch_with_generation("q_orders", &batch)
                    .unwrap_err(),
            ];
            for e in errors {
                assert!(
                    matches!(&e, PqoError::InvalidInstance { template, .. } if template == "q_orders"),
                    "{:?}: {e}",
                    q.values
                );
            }
        }
        let arity = s.get_plan("q_orders", &bad[0]).unwrap_err().to_string();
        assert!(arity.contains("takes 2 parameters, got 1"), "{arity}");
        let nan = s.get_plan("q_orders", &bad[3]).unwrap_err().to_string();
        assert!(nan.contains("non-finite parameter value NaN"), "{nan}");
        // Nothing was served, counted or published — not even the good
        // instance ahead of a bad one in a batch.
        assert_eq!(s.generation("q_orders").unwrap(), generation);
        assert_eq!(decisions(&s), counted);
        assert_eq!(s.total_optimizer_calls(), 1);
        // An unknown template is still reported as such.
        assert!(matches!(
            s.get_plan("nope", &bad[0]),
            Err(PqoError::UnknownTemplate { .. })
        ));
    }

    #[test]
    fn a_ticket_is_decided_once_per_generation_it_meets() {
        let decisions = |s: &PqoService| {
            let st = s.scr_stats("q_orders").unwrap();
            (st.selectivity_hits, st.cost_hits, st.optimizer_calls)
        };
        let miss = |s: &PqoService, q: &QueryInstance| match s.serve_cached("q_orders", q) {
            Ok(Cached::Miss(ticket)) => ticket,
            _ => panic!("an empty cache can only miss"),
        };

        // Generation unchanged: straight to the optimizer, nothing decided
        // a second time.
        let (s, t_orders, _) = service_two_templates();
        let q = inst_at(&t_orders, &[0.1, 0.5]);
        let ticket = miss(&s, &q);
        let (choice, generation) = s.resume(ticket);
        assert!(choice.optimized);
        assert_eq!(generation, s.generation("q_orders").unwrap());
        assert_eq!(decisions(&s), (0, 0, 1));

        // Generation moved while the ticket was in transit (another caller's
        // miss on the same point published): decided again, against the new
        // generation, and served from it without an optimizer call.
        let (s, t_orders, _) = service_two_templates();
        let q = inst_at(&t_orders, &[0.1, 0.5]);
        let stale = miss(&s, &q);
        let (winner, published) = s.get_plan_with_generation("q_orders", &q).unwrap();
        assert!(winner.optimized);
        let (choice, generation) = s.resume(stale);
        assert!(!choice.optimized, "the moved generation covers the point");
        assert_eq!(generation, published);
        assert_eq!(choice.plan.fingerprint(), winner.plan.fingerprint());
        assert_eq!(decisions(&s), (1, 0, 1));
    }

    #[test]
    fn a_generation_another_thread_publishes_serves_the_next_decision() {
        let (s, t_orders, _) = service_two_templates();
        let near = inst_at(&t_orders, &[0.1, 0.5]);
        let far = inst_at(&t_orders, &[0.9, 0.01]);
        // This thread decides from the generation the miss on `near`
        // published, and keeps it.
        let (_, held) = s.get_plan_with_generation("q_orders", &near).unwrap();
        assert!(matches!(
            s.serve_cached("q_orders", &near).unwrap(),
            Cached::Hit { generation, .. } if generation == held
        ));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Decided against the held generation, `far` misses; its
                // commit publishes the next one.
                let (choice, published) = s.get_plan_with_generation("q_orders", &far).unwrap();
                assert!(choice.optimized);
                tx.send((choice.plan.fingerprint(), published)).unwrap();
            });
            let (fp, published) = rx.recv().unwrap();
            assert!(published > held);
            match s.serve_cached("q_orders", &far).unwrap() {
                Cached::Hit { choice, generation } => {
                    assert_eq!(generation, published, "served from the held generation");
                    assert_eq!(choice.plan.fingerprint(), fp);
                }
                Cached::Miss(_) => panic!("decided against the held generation"),
            }
        });
    }

    #[test]
    fn two_services_of_one_template_name_each_decide_as_their_own_oracle() {
        let t = crate::testutil::fixture_template("shared_name");
        let configs = [ScrConfig::new(2.0).unwrap(), ScrConfig::new(1.1).unwrap()];
        let services = configs.clone().map(|config| {
            let s = PqoService::new();
            s.register(Arc::clone(&t), config).unwrap();
            s
        });
        let mut oracles = configs.map(|config| Scr::with_config(config).unwrap());
        let engine = QueryEngine::new(Arc::clone(&t));
        for i in 0..120usize {
            let q = inst_at(
                &t,
                &[
                    0.02 + 0.012 * (i % 73) as f64,
                    0.03 + 0.011 * ((i * 7) % 67) as f64,
                ],
            );
            let sv = engine.compute_svector(&q);
            // Interleaved on this thread: one template name, two services.
            for (service, oracle) in services.iter().zip(&mut oracles) {
                let served = service.get_plan("shared_name", &q).unwrap();
                let expected = crate::OnlinePqo::get_plan(oracle, &q, &sv, &engine);
                assert_eq!(
                    (served.optimized, served.plan.fingerprint()),
                    (expected.optimized, expected.plan.fingerprint()),
                    "instance {i}"
                );
            }
        }
        assert_ne!(
            services[0].total_optimizer_calls(),
            services[1].total_optimizer_calls(),
            "the two configurations must decide differently somewhere"
        );
    }

    #[test]
    fn a_dropped_service_and_its_replacement_never_share_a_slot() {
        let t = crate::testutil::fixture_template("rebuilt");
        let q = inst_at(&t, &[0.2, 0.3]);
        let mut ids = Vec::new();
        for _ in 0..4 {
            // Each service lives where the one before it lived.
            let s = PqoService::new();
            s.register(Arc::clone(&t), ScrConfig::new(2.0).unwrap())
                .unwrap();
            assert!(
                s.get_plan("rebuilt", &q).unwrap().optimized,
                "a fresh cache served from its predecessor's"
            );
            assert!(!s.get_plan("rebuilt", &q).unwrap().optimized);
            ids.push(s.id);
        }
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn running_total_matches_recount() {
        let (s, t_orders, t_line) = service_two_templates();
        for i in 1..=9 {
            let p = [0.1 * i as f64, 1.0 - 0.1 * i as f64];
            let _ = s.get_plan("q_orders", &inst_at(&t_orders, &p)).unwrap();
            let _ = s.get_plan("q_lineitem", &inst_at(&t_line, &p)).unwrap();
            let recount: usize = s
                .templates()
                .iter()
                .map(|n| s.with_scr(n, |scr| scr.cache().num_plans()).unwrap())
                .sum();
            assert_eq!(s.total_plans(), recount);
        }
    }

    #[test]
    fn global_budget_holds_across_shards() {
        let t_orders = single_rel_template("q_orders", "orders", "o_totalprice", "o_orderdate");
        let t_line = single_rel_template("q_lineitem", "lineitem", "l_shipdate", "l_extendedprice");
        let s = PqoService::with_global_budget(3).unwrap();
        let mut cfg = ScrConfig::new(1.02).unwrap();
        cfg.lambda_r = 0.0; // store aggressively to stress the budget
        s.register(Arc::clone(&t_orders), cfg.clone()).unwrap();
        s.register(Arc::clone(&t_line), cfg).unwrap();
        let probes: [[f64; 2]; 6] = [
            [0.001, 0.9],
            [0.9, 0.001],
            [0.9, 0.9],
            [0.002, 0.95],
            [0.95, 0.002],
            [0.85, 0.95],
        ];
        for p in probes {
            let _ = s.get_plan("q_orders", &inst_at(&t_orders, &p)).unwrap();
            let _ = s.get_plan("q_lineitem", &inst_at(&t_line, &p)).unwrap();
            assert!(
                s.total_plans() <= 3,
                "global budget violated: {}",
                s.total_plans()
            );
        }
        assert!(s.global_evictions() > 0, "tight budget must evict");
        for name in s.templates() {
            s.with_scr(&name, |scr| assert!(scr.cache().check_invariants().is_ok()))
                .unwrap();
        }
    }

    #[test]
    fn guarantee_holds_under_global_pressure() {
        // One template under a global budget of 2: every eviction takes the
        // plan's inference entries with it, so the bound survives.
        let t = single_rel_template("q_orders", "orders", "o_totalprice", "o_orderdate");
        let s = PqoService::with_global_budget(2).unwrap();
        s.register(Arc::clone(&t), ScrConfig::new(2.0).unwrap())
            .unwrap();
        let engine = QueryEngine::new(Arc::clone(&t));
        for i in 0..8 {
            for j in 0..8 {
                let q = inst_at(&t, &[0.02 + 0.12 * i as f64, 0.02 + 0.12 * j as f64]);
                let choice = s.get_plan("q_orders", &q).unwrap();
                let sv = engine.compute_svector(&q);
                let opt = engine.optimize_untracked(&sv);
                let so = engine.recost_untracked(&choice.plan, &sv) / opt.cost;
                assert!(so <= 2.0 * 1.001, "eviction broke the bound: {so}");
            }
        }
    }

    /// A one-plan cache whose plan scans `relation` and whose single entry
    /// has `arity` dimensions — well-formed as bytes, whatever the template.
    fn crafted_scr(relation: usize, arity: usize) -> Scr {
        use pqo_optimizer::plan::{Plan, PlanOp};
        let plan = Arc::new(Plan::from_postorder(vec![PlanOp::SeqScan { relation }]).unwrap());
        let entry = crate::cache::InstanceEntry::restored(
            SVector(vec![0.5; arity]),
            plan.fingerprint(),
            10.0,
            1.0,
            1,
            false,
        );
        Scr::from_parts(
            ScrConfig::new(2.0).unwrap(),
            vec![plan],
            vec![entry],
            0.0,
            1,
        )
        .unwrap()
    }

    /// `register_restored` must refuse `blob` under `template` with the
    /// typed error and leave the registry and the plan total untouched.
    fn assert_restore_refused(template: Arc<QueryTemplate>, blob: &[u8]) {
        let (s, _, _) = service_two_templates();
        let before = s.templates();
        let err = s
            .register_restored(template, ScrConfig::new(2.0).unwrap(), &mut &blob[..])
            .unwrap_err();
        assert!(matches!(err, PqoError::Persist { .. }), "{err}");
        assert_eq!(s.templates(), before, "a refused restore left a shard");
        assert_eq!(s.total_plans(), 0);
    }

    #[test]
    fn restored_plan_naming_a_missing_relation_is_refused() {
        // A plan naming relation 200 decodes cleanly but fits no template.
        let stale = single_rel_template("stale", "orders", "o_totalprice", "o_orderdate");
        let mut blob = Vec::new();
        persist::save(&crafted_scr(200, 2), 0, &mut blob).unwrap();
        assert_restore_refused(Arc::clone(&stale), &blob);
        // An in-range plan with a wrong-arity entry is caught by the arity
        // check alone.
        let mut blob = Vec::new();
        persist::save(&crafted_scr(0, 3), 0, &mut blob).unwrap();
        assert_restore_refused(stale, &blob);
    }

    #[test]
    fn cache_saved_under_another_template_shape_is_refused() {
        // A cache warmed under the 2-d join fixture, offered to a 1-d
        // single-relation template of the same name (the `.sql` file was
        // edited between runs).
        let fixture = crate::testutil::fixture_template("edited");
        let warm = PqoService::new();
        warm.register(Arc::clone(&fixture), ScrConfig::new(2.0).unwrap())
            .unwrap();
        for i in 1..=6 {
            let q = inst_at(&fixture, &[0.15 * i as f64, 0.4]);
            warm.get_plan("edited", &q).unwrap();
        }
        let mut blob = Vec::new();
        warm.save("edited", &mut blob).unwrap();
        let mut b = pqo_optimizer::template::TemplateBuilder::new("edited");
        let o = b.relation(
            pqo_catalog::schemas::tpch_skew().expect_table("orders"),
            "o",
        );
        b.param(o, "o_totalprice", pqo_optimizer::template::RangeOp::Le);
        assert_restore_refused(b.build(), &blob);
    }

    #[test]
    fn replicated_generation_that_does_not_fit_the_template_is_refused() {
        // A PQG2 full record whose entry has three dimensions, pushed at
        // a 2-d shard: typed error, published generation and plan total
        // unchanged, and the shard still applies a good record afterwards.
        let (r, t_orders, _) = service_two_templates();
        let bad = CacheSnapshot::capture_at(&crafted_scr(0, 3), 5);
        let record = replication::encode_generation(&bad, None);
        let err = r.apply_generation("q_orders", &record).unwrap_err();
        assert!(matches!(err, PqoError::Persist { .. }), "{err}");
        assert_eq!(r.generation("q_orders").unwrap(), 0);
        assert_eq!(r.total_plans(), 0);

        let good = CacheSnapshot::capture_at(&crafted_scr(0, 2), 5);
        let record = replication::encode_generation(&good, None);
        assert_eq!(r.apply_generation("q_orders", &record).unwrap(), 5);
        let hit = r
            .serve_cached("q_orders", &inst_at(&t_orders, &[0.5, 0.5]))
            .unwrap();
        assert!(
            matches!(hit, Cached::Hit { generation: 5, .. }),
            "an accepted generation must serve"
        );
    }

    #[test]
    fn save_restore_roundtrip_through_service() {
        let (s, t_orders, _) = service_two_templates();
        for i in 1..=8 {
            let _ = s
                .get_plan("q_orders", &inst_at(&t_orders, &[0.1 * i as f64, 0.5]))
                .unwrap();
        }
        let mut buf = Vec::new();
        s.save("q_orders", &mut buf).unwrap();
        assert!(matches!(
            s.save("nope", &mut Vec::new()),
            Err(PqoError::UnknownTemplate { .. })
        ));

        let s2 = PqoService::new();
        s2.register_restored(
            Arc::clone(&t_orders),
            ScrConfig::new(2.0).unwrap(),
            &mut buf.as_slice(),
        )
        .unwrap();
        assert_eq!(
            s2.with_scr("q_orders", |scr| scr.cache().num_plans())
                .unwrap(),
            s.with_scr("q_orders", |scr| scr.cache().num_plans())
                .unwrap(),
        );
        assert_eq!(
            s2.total_plans(),
            s2.with_scr("q_orders", |s| s.cache().num_plans()).unwrap()
        );
        // A warm-region instance serves without re-optimizing.
        let q = inst_at(&t_orders, &[0.4, 0.5]);
        assert!(!s2.get_plan("q_orders", &q).unwrap().optimized);

        let err = s2
            .register_restored(
                single_rel_template("fresh", "orders", "o_totalprice", "o_orderdate"),
                ScrConfig::new(2.0).unwrap(),
                &mut &b"garbage-not-a-snapshot"[..],
            )
            .unwrap_err();
        assert!(matches!(err, PqoError::Persist { .. }), "{err}");
    }

    #[test]
    fn replication_stream_mirrors_primary_shard() {
        let (p, t_orders, _) = service_two_templates();
        let r = PqoService::new();
        r.register(Arc::clone(&t_orders), ScrConfig::new(2.0).unwrap())
            .unwrap();
        let mut applied = 0u64;
        for i in 1..=9 {
            let q = inst_at(&t_orders, &[0.1 * i as f64, 0.5]);
            let (_, gen) = p.get_plan_with_generation("q_orders", &q).unwrap();
            if gen > applied {
                let (record, produced) = p.generation_record("q_orders", Some(applied)).unwrap();
                applied = r.apply_generation("q_orders", &record).unwrap();
                assert_eq!(applied, produced);
            }
            // The replica now serves the same point as a local cache hit.
            let Cached::Hit { choice, generation } = r.serve_cached("q_orders", &q).unwrap() else {
                panic!("replayed generation must cover the instance");
            };
            assert_eq!(generation, applied);
            assert!(!choice.optimized);
        }
        assert_eq!(
            r.generation("q_orders").unwrap(),
            p.generation("q_orders").unwrap()
        );
        assert_eq!(r.total_plans(), p.total_plans()); // only q_orders holds plans
                                                      // A stale/corrupt record surfaces as a typed persist error.
        let (record, _) = p.generation_record("q_orders", None).unwrap();
        let mut evil = record;
        evil[4] = 0xEE;
        assert!(matches!(
            r.apply_generation("q_orders", &evil),
            Err(PqoError::Persist { .. })
        ));
    }

    #[test]
    fn a_subscriber_generations_behind_catches_up_with_one_delta() {
        let t_orders = crate::testutil::fixture_template("q_orders");
        let cfg = ScrConfig::new(1.5).unwrap();
        let p = PqoService::new();
        p.register(Arc::clone(&t_orders), cfg.clone()).unwrap();
        let r = PqoService::new();
        r.register(Arc::clone(&t_orders), cfg).unwrap();
        let saved = |s: &PqoService| {
            let mut bytes = Vec::new();
            s.save("q_orders", &mut bytes).unwrap();
            bytes
        };

        // Drive a varied sweep until several generations publish while the
        // subscriber is away, stopping before the log window (depth 8) ages
        // the subscriber's base out.
        let applied = p.generation("q_orders").unwrap();
        let probe = |i: usize| {
            [
                0.02 + 0.012 * (i % 73) as f64,
                0.03 + 0.011 * ((i * 7) % 67) as f64,
            ]
        };
        let mut i = 0usize;
        let mut drive_until = |behind: u64, limit: usize| {
            while p.generation("q_orders").unwrap() - applied < behind {
                let _ = p
                    .get_plan("q_orders", &inst_at(&t_orders, &probe(i)))
                    .unwrap();
                i += 1;
                assert!(i < limit, "workload never published {behind} generations");
            }
        };
        drive_until(4, 200);
        let latest = p.generation("q_orders").unwrap();

        // One delta spans every missing generation; applied, the replica
        // holds the primary's cache to the byte.
        let (record, produced) = p.generation_record("q_orders", Some(applied)).unwrap();
        let info = replication::record_info(&record).unwrap();
        assert_eq!(
            info.base,
            Some(applied),
            "the delta must span from the base"
        );
        assert_eq!((info.generation, produced), (latest, latest));
        assert_eq!(r.apply_generation("q_orders", &record).unwrap(), latest);
        assert_eq!(saved(&r), saved(&p));
        assert_eq!(r.total_plans(), p.total_plans());

        // A subscriber whose base aged out of the log window gets one full
        // record, and lands on the same bytes.
        let r = PqoService::new();
        r.register(Arc::clone(&t_orders), ScrConfig::new(1.5).unwrap())
            .unwrap();
        drive_until(9, 400);
        let (record, produced) = p.generation_record("q_orders", Some(applied)).unwrap();
        let info = replication::record_info(&record).unwrap();
        assert_eq!(info.base, None, "an aged-out base must get a full record");
        assert_eq!(info.generation, p.generation("q_orders").unwrap());
        assert_eq!(r.apply_generation("q_orders", &record).unwrap(), produced);
        assert_eq!(saved(&r), saved(&p));
    }

    #[test]
    fn concurrent_get_plan_on_shared_service() {
        let (s, t_orders, t_line) = service_two_templates();
        let s = Arc::new(s);
        std::thread::scope(|scope| {
            for k in 0..8 {
                let s = Arc::clone(&s);
                let (t_o, t_l) = (Arc::clone(&t_orders), Arc::clone(&t_line));
                scope.spawn(move || {
                    for i in 0..20 {
                        let p = [0.05 + 0.045 * ((i + k) % 20) as f64, 0.5];
                        if k % 2 == 0 {
                            s.get_plan("q_orders", &inst_at(&t_o, &p)).unwrap();
                        } else {
                            s.get_plan("q_lineitem", &inst_at(&t_l, &p)).unwrap();
                        }
                    }
                });
            }
        });
        for name in s.templates() {
            s.with_scr(&name, |scr| assert!(scr.cache().check_invariants().is_ok()))
                .unwrap();
        }
        let stats = s.scr_stats("q_orders").unwrap();
        assert!(stats.selectivity_hits + stats.cost_hits + stats.optimizer_calls > 0);
    }
}
