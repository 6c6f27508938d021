//! Generation-log snapshot replication: serialize the publication stream.
//!
//! [`crate::snapshot::CacheWriter`] turns every `manageCache` commit into a
//! new [`CacheSnapshot`] generation with a monotonic stamp. This module
//! makes that stream *replicable*: each publish can be encoded as a
//! self-describing **generation record** that a read replica decodes and
//! installs into its own [`crate::snapshot::SnapshotCell`], replaying the
//! primary's exact cache state (the paper's guarantee is a property of the
//! cache state, so a replica that replays it inherits λ-optimality for
//! every hit it serves).
//!
//! Every record header carries a policy tag byte, always 0 (SCR): a record
//! tagged with a retired policy is refused with a typed error
//! ([`ReplicationError::PolicyMismatch`]) instead of installing a cache that
//! policy built.
//!
//! Two record kinds:
//!
//! * **Full** — the [`crate::persist`] v3 blob (arena plans in Appendix B
//!   compact encoding, instance 5-tuples, λ accumulators, generation
//!   stamp). Used for bootstrap and whenever the subscriber's acknowledged
//!   base has aged out of the writer's generation log.
//! * **Delta** — encoded against a recently published base generation.
//!   Because consecutive generations share `Arc`s (the cache clone is
//!   shallow: the plan list, the instance list's blocks and the entries in
//!   them are `Arc`-shared, see [`crate::cache::PlanCache`]), the encoder
//!   detects "untouched" by pointer identity and ships *references*: an
//!   unchanged instance entry is a 5-byte base-index tag, an unchanged plan
//!   an 8-byte fingerprint — only genuinely new plans/entries ship bytes.
//!   Identity is read off the sharing itself: the entries of a block both
//!   generations hold are their own base indices, and only the base's
//!   *unshared* blocks (the tail, or what a compaction rebuilt) are looked
//!   up by address.
//!
//! Applying rides on the same sharing. A delta that keeps every plan and
//! every entry of its base where it was (the common publication: rows
//! appended, perhaps a plan added) is applied as
//! `Scr::from_base` — a shallow clone of the replica's current generation
//! plus the inline rows. Any other delta, and every full record, rebuilds an
//! [`Scr`] via [`Scr::from_parts`] — the same re-insertion path as a
//! persist restore, whose decision equivalence with the writer's
//! incrementally-maintained state is pinned by the persist round-trip
//! tests. Both read and validate the record through one parser, so they
//! fail alike. Delta decoding resolves base references against the
//! replica's *current published generation*, which must carry exactly the
//! record's base stamp ([`ReplicationError::BaseMismatch`] otherwise) — so
//! a replica can never silently apply a delta onto the wrong state.

use std::io::Read;
use std::sync::Arc;

use pqo_optimizer::compact::CompactPlan;
use pqo_optimizer::error::PqoError;
use pqo_optimizer::plan::{Plan, PlanFingerprint};

use crate::cache::InstanceEntry;
use crate::persist::{self, r_u32, r_u64, r_u8, RestoreError, SCR_TAG};
use crate::scr::{Scr, ScrConfig};
use crate::snapshot::CacheSnapshot;
use crate::spatial::BLOCK_ROWS;

/// Record header magic ("PQO generation record, layout 2" — layout 2 added
/// the policy tag byte after the record kind).
const RECORD_MAGIC: &[u8; 4] = b"PQG2";
const KIND_FULL: u8 = 0;
const KIND_DELTA: u8 = 1;
const ENTRY_BASE_REF: u8 = 0;
const ENTRY_INLINE: u8 = 1;
const PLAN_BASE_REF: u8 = 0;
const PLAN_INLINE: u8 = 1;

/// Errors raised while decoding or applying a generation record.
#[derive(Debug)]
pub enum ReplicationError {
    /// Structurally invalid record (truncated, implausible counts, dangling
    /// references, non-finite numbers).
    Corrupt(String),
    /// A delta record whose base generation does not match the replica's
    /// current published generation — applying it would replay the delta
    /// onto the wrong state, so the caller must resynchronize (typically by
    /// re-subscribing from its actual generation).
    BaseMismatch {
        /// The base generation the record was encoded against.
        record_base: u64,
        /// The generation the replica actually has (`None` when the caller
        /// supplied no base snapshot at all).
        have: Option<u64>,
    },
    /// The record's policy tag names a retired serving policy (`lec` or
    /// `penalty`) — applying it would install a cache that policy built,
    /// so the subscription must be refused.
    PolicyMismatch {
        /// The retired policy the tag names.
        found: &'static str,
    },
    /// The embedded full snapshot failed to restore.
    Restore(RestoreError),
}

impl std::fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicationError::Corrupt(m) => write!(f, "corrupt generation record: {m}"),
            ReplicationError::BaseMismatch { record_base, have } => write!(
                f,
                "delta base generation {record_base} does not match replica generation {have:?}"
            ),
            ReplicationError::PolicyMismatch { found } => write!(
                f,
                "generation record was produced under policy `{found}` but this replica serves `scr` only"
            ),
            ReplicationError::Restore(e) => write!(f, "embedded snapshot: {e}"),
        }
    }
}

impl std::error::Error for ReplicationError {}

impl From<RestoreError> for ReplicationError {
    fn from(e: RestoreError) -> Self {
        match e {
            RestoreError::PolicyMismatch { found } => ReplicationError::PolicyMismatch { found },
            RestoreError::Io(e) => e.into(),
            RestoreError::Corrupt(m) => ReplicationError::Corrupt(m),
            other => ReplicationError::Restore(other),
        }
    }
}

/// Records are decoded from a byte slice, so the only read failure is
/// running off its end.
impl From<std::io::Error> for ReplicationError {
    fn from(_: std::io::Error) -> Self {
        ReplicationError::Corrupt("truncated record".into())
    }
}

impl From<ReplicationError> for PqoError {
    fn from(e: ReplicationError) -> Self {
        match e {
            ReplicationError::PolicyMismatch { found } => {
                RestoreError::PolicyMismatch { found }.into()
            }
            other => PqoError::Persist {
                message: other.to_string(),
            },
        }
    }
}

/// Parsed record header: what a subscriber learns before applying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordInfo {
    /// The generation this record produces when applied.
    pub generation: u64,
    /// The base generation a delta record requires (`None` for full
    /// records).
    pub base: Option<u64>,
}

/// Encode one published generation as a record.
///
/// When `base` is a retained earlier generation of the same lineage
/// (`base.generation() < snapshot.generation()`), the record is a delta;
/// otherwise a full snapshot. The encoder never fails — a base that turns
/// out to share nothing simply yields a delta that inlines everything.
pub fn encode_generation(snapshot: &CacheSnapshot, base: Option<&CacheSnapshot>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(RECORD_MAGIC);
    match base {
        Some(base) if base.generation() < snapshot.generation() => {
            out.push(KIND_DELTA);
            out.push(SCR_TAG);
            out.extend_from_slice(&snapshot.generation().to_le_bytes());
            out.extend_from_slice(&base.generation().to_le_bytes());
            encode_delta_body(snapshot, base, &mut out);
        }
        _ => {
            out.push(KIND_FULL);
            out.push(SCR_TAG);
            out.extend_from_slice(&snapshot.generation().to_le_bytes());
            persist::save(snapshot, snapshot.generation(), &mut out)
                .expect("Vec writes are infallible");
        }
    }
    out
}

fn encode_delta_body(snapshot: &CacheSnapshot, base: &CacheSnapshot, out: &mut Vec<u8>) {
    let (cache, base_cache) = (snapshot.cache(), base.cache());
    // Plan membership: the complete fingerprint list of the new generation,
    // ascending (so evictions and zero-entry plans replicate exactly). Plans
    // the base already holds ship as references.
    out.extend_from_slice(&(cache.num_plans() as u32).to_le_bytes());
    for p in cache.plans() {
        out.extend_from_slice(&p.fingerprint().0.to_le_bytes());
        if base_cache.contains_plan(p.fingerprint()) {
            out.push(PLAN_BASE_REF);
        } else {
            out.push(PLAN_INLINE);
            let enc = CompactPlan::encode(p);
            out.extend_from_slice(&(enc.bytes_len() as u32).to_le_bytes());
            out.extend_from_slice(enc.as_bytes());
        }
    }

    // Instance list in the new generation's order. Entries `Arc`-shared
    // with the base ship as base-index references. A block both generations
    // hold has the same entries at the same indices; an entry is in the list
    // once, so any other shared entry sits in one of the base's unshared
    // blocks — only those are indexed by address.
    let (rows, base_rows) = (cache.coords(), base_cache.coords());
    let mut moved: Vec<(*const InstanceEntry, u32)> = Vec::new();
    for (b, block) in base_rows.block_rows().enumerate() {
        if !rows.shares_block(base_rows, b) {
            let first = (b * BLOCK_ROWS) as u32;
            moved.extend(block.zip(first..).map(|(e, i)| (Arc::as_ptr(e), i)));
        }
    }
    moved.sort_unstable();
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for (b, block) in rows.block_rows().enumerate() {
        let shared = rows.shares_block(base_rows, b);
        for (e, i) in block.zip((b * BLOCK_ROWS) as u32..) {
            let in_base = if shared {
                Some(i)
            } else {
                moved
                    .binary_search_by_key(&Arc::as_ptr(e), |&(at, _)| at)
                    .ok()
                    .map(|found| moved[found].1)
            };
            match in_base {
                Some(idx) => {
                    out.push(ENTRY_BASE_REF);
                    out.extend_from_slice(&idx.to_le_bytes());
                }
                None => {
                    out.push(ENTRY_INLINE);
                    out.extend_from_slice(&e.plan.0.to_le_bytes());
                    out.extend_from_slice(&(e.svector.len() as u32).to_le_bytes());
                    for &s in &e.svector.0 {
                        out.extend_from_slice(&s.to_le_bytes());
                    }
                    out.extend_from_slice(&e.opt_cost.to_le_bytes());
                    out.extend_from_slice(&e.sub_opt.to_le_bytes());
                    out.extend_from_slice(&e.usage().to_le_bytes());
                    out.push(u8::from(e.violation_detected()));
                }
            }
        }
    }

    // Dynamic-λ accumulators.
    out.extend_from_slice(&snapshot.log_cost_sum.to_le_bytes());
    out.extend_from_slice(&snapshot.opt_count.to_le_bytes());
}

/// Parse a record's header without applying it.
pub fn record_info(bytes: &[u8]) -> Result<RecordInfo, ReplicationError> {
    read_header(&mut &bytes[..])
}

/// Read the record header — magic, kind, policy tag, generation and, for a
/// delta, its base generation — leaving `r` at the body.
fn read_header(r: &mut &[u8]) -> Result<RecordInfo, ReplicationError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != RECORD_MAGIC {
        return Err(ReplicationError::Corrupt("bad record magic".into()));
    }
    let kind = r_u8(r)?;
    persist::check_policy_tag(r_u8(r)?)?;
    let generation = r_u64(r)?;
    let base = match kind {
        KIND_FULL => None,
        KIND_DELTA => Some(r_u64(r)?),
        k => {
            return Err(ReplicationError::Corrupt(format!(
                "unknown record kind {k}"
            )))
        }
    };
    Ok(RecordInfo { generation, base })
}

/// Decode a generation record into a fresh [`Scr`], resolving delta
/// references against `base` (the replica's current published generation).
/// Returns the rebuilt state and the generation it represents; the caller
/// installs it via
/// [`crate::snapshot::CacheWriter::install_generation`].
///
/// # Errors
/// [`ReplicationError::BaseMismatch`] when a delta's base generation is not
/// the one supplied; [`ReplicationError::PolicyMismatch`] when the record's
/// policy tag names a retired policy; [`ReplicationError::Corrupt`]
/// / [`ReplicationError::Restore`] on malformed bytes.
pub fn apply_generation(
    config: ScrConfig,
    base: Option<&CacheSnapshot>,
    bytes: &[u8],
) -> Result<(Scr, u64), ReplicationError> {
    let mut body = bytes;
    let info = read_header(&mut body)?;
    let generation = info.generation;
    let scr = match info.base {
        None => {
            let (scr, embedded_gen) = persist::restore_with_generation(config, &mut body)?;
            if embedded_gen != generation {
                return Err(ReplicationError::Corrupt(format!(
                    "header generation {generation} != embedded generation {embedded_gen}"
                )));
            }
            scr
        }
        Some(record_base) => match base {
            Some(b) if b.generation() == record_base => apply_delta_body(config, b, &mut body)?,
            other => {
                return Err(ReplicationError::BaseMismatch {
                    record_base,
                    have: other.map(CacheSnapshot::generation),
                })
            }
        },
    };
    if !body.is_empty() {
        return Err(ReplicationError::Corrupt(format!(
            "{} trailing bytes",
            body.len()
        )));
    }
    Ok((scr, generation))
}

/// A delta body as read and validated against its base, before anything is
/// built from it.
struct Delta {
    /// Every plan of the new generation, in record order; base references
    /// resolved to the base's `Arc`.
    plans: Vec<Arc<Plan>>,
    /// How many leading entries are base references to their own index.
    kept: usize,
    /// The entries behind that prefix, base references copied out.
    rest: Vec<InstanceEntry>,
    /// Whether the record keeps the base whole and in place: every plan of
    /// the base, and every entry of it as the prefix of the new list, with
    /// nothing but inline entries behind.
    extends_base: bool,
    log_cost_sum: f64,
    opt_count: u64,
}

impl Delta {
    /// Read a delta body. Inline plans and entries use the persist layout,
    /// so [`persist::read_plan`] / [`persist::read_entry`] read and validate
    /// them.
    fn read(base: &CacheSnapshot, r: &mut &[u8]) -> Result<Delta, ReplicationError> {
        let plan_count = r_u32(r)? as usize;
        if plan_count > 1_000_000 {
            return Err(ReplicationError::Corrupt(format!(
                "implausible plan count {plan_count}"
            )));
        }
        let mut plans: Vec<Arc<Plan>> = Vec::with_capacity(plan_count);
        // An inline plan the base also holds would be a second copy of it.
        let mut recopies_a_plan = false;
        let mut fps: Vec<PlanFingerprint> = Vec::with_capacity(plan_count);
        for i in 0..plan_count {
            let fp = PlanFingerprint(r_u64(r)?);
            let plan = match r_u8(r)? {
                PLAN_BASE_REF => Arc::clone(base.cache().plan(fp).ok_or_else(|| {
                    ReplicationError::Corrupt(format!("plan {i} references {fp} missing from base"))
                })?),
                PLAN_INLINE => {
                    let plan = persist::read_plan(r, i)?;
                    if plan.fingerprint() != fp {
                        return Err(ReplicationError::Corrupt(format!(
                            "plan {i} fingerprint mismatch"
                        )));
                    }
                    recopies_a_plan |= base.cache().contains_plan(fp);
                    Arc::new(plan)
                }
                t => {
                    return Err(ReplicationError::Corrupt(format!(
                        "plan {i} has unknown tag {t}"
                    )))
                }
            };
            fps.push(fp);
            plans.push(plan);
        }
        fps.sort_unstable();
        let listed = |fp: PlanFingerprint| fps.binary_search(&fp).is_ok();
        let keeps_plans = !recopies_a_plan && base.cache().plans().all(|p| listed(p.fingerprint()));

        let entry_count = r_u32(r)? as usize;
        if entry_count > 100_000_000 {
            return Err(ReplicationError::Corrupt(format!(
                "implausible entry count {entry_count}"
            )));
        }
        let base_entries = base.cache().instances();
        let absent = |i: usize, fp: PlanFingerprint| {
            ReplicationError::Corrupt(format!(
                "entry {i} references plan {fp} absent from this generation"
            ))
        };
        // The identity prefix: entry `i` is a reference to base entry `i`.
        let mut kept = 0;
        while kept < entry_count.min(base_entries.len()) {
            let mut ahead = *r;
            match (r_u8(&mut ahead), r_u32(&mut ahead)) {
                (Ok(ENTRY_BASE_REF), Ok(idx)) if idx as usize == kept => *r = ahead,
                _ => break,
            }
            if !keeps_plans && !listed(base_entries[kept].plan) {
                return Err(absent(kept, base_entries[kept].plan));
            }
            kept += 1;
        }
        let mut arity = (!base_entries.is_empty()).then(|| base.cache().coords().dims());
        // Every entry takes at least a tag and an index: bytes from outside
        // do not get to reserve more than they could fill.
        let mut rest: Vec<InstanceEntry> =
            Vec::with_capacity((entry_count - kept).min(r.len() / 5));
        let mut rest_inline = true;
        for i in kept..entry_count {
            let entry = match r_u8(r)? {
                ENTRY_BASE_REF => {
                    rest_inline = false;
                    let idx = r_u32(r)? as usize;
                    let e = base_entries.get(idx).ok_or_else(|| {
                        ReplicationError::Corrupt(format!(
                            "entry {i} references base index {idx} of {}",
                            base_entries.len()
                        ))
                    })?;
                    if !listed(e.plan) {
                        return Err(absent(i, e.plan));
                    }
                    InstanceEntry::clone(e)
                }
                ENTRY_INLINE => {
                    let fp = PlanFingerprint(r_u64(r)?);
                    if !listed(fp) {
                        return Err(absent(i, fp));
                    }
                    persist::read_entry(r, i, fp)?
                }
                t => {
                    return Err(ReplicationError::Corrupt(format!(
                        "entry {i} has unknown tag {t}"
                    )))
                }
            };
            persist::check_arity(i, &entry, &mut arity)?;
            rest.push(entry);
        }
        let (log_cost_sum, opt_count) = persist::read_accumulators(r)?;
        Ok(Delta {
            plans,
            kept,
            rest,
            extends_base: keeps_plans && kept == base_entries.len() && rest_inline,
            log_cost_sum,
            opt_count,
        })
    }

    /// The new generation as the base plus the delta's rows — nothing of the
    /// base re-materialised. Requires [`Delta::extends_base`].
    fn onto(self, config: ScrConfig, base: &CacheSnapshot) -> Result<Scr, PqoError> {
        debug_assert!(self.extends_base);
        Scr::from_base(
            config,
            base,
            self.plans,
            self.rest,
            self.log_cost_sum,
            self.opt_count,
        )
    }

    /// The new generation rebuilt entry by entry, as a restore builds one.
    fn rebuilt(self, config: ScrConfig, base: &CacheSnapshot) -> Result<Scr, PqoError> {
        let kept = base.cache().instances().iter().take(self.kept);
        let entries = kept
            .map(|e| InstanceEntry::clone(e))
            .chain(self.rest)
            .collect();
        Scr::from_parts(
            config,
            self.plans,
            entries,
            self.log_cost_sum,
            self.opt_count,
        )
    }
}

/// Decode a delta body into the generation it describes.
fn apply_delta_body(
    config: ScrConfig,
    base: &CacheSnapshot,
    r: &mut &[u8],
) -> Result<Scr, ReplicationError> {
    let delta = Delta::read(base, r)?;
    if delta.extends_base {
        delta.onto(config, base)
    } else {
        delta.rebuilt(config, base)
    }
    .map_err(|e| ReplicationError::Corrupt(format!("invalid decoded state: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CacheWriter, SnapshotCell};
    use crate::testutil::fixture_template;
    use pqo_optimizer::engine::QueryEngine;
    use pqo_optimizer::svector::{compute_svector, instance_for_target};

    /// Drive one seeded point through the writer (optimize on miss) and
    /// return whether it published a new generation.
    fn drive(
        t: &Arc<pqo_optimizer::template::QueryTemplate>,
        engine: &QueryEngine,
        writer: &mut CacheWriter,
        cell: &SnapshotCell,
        target: &[f64],
    ) -> bool {
        let inst = instance_for_target(t, target);
        let sv = compute_svector(t, &inst);
        if cell.load().try_cached_plan(&sv, engine).is_some() {
            return false;
        }
        let opt = engine.optimize(&sv);
        writer.manage_cache_entry(&sv, opt, engine, cell);
        true
    }

    fn targets(n: usize) -> Vec<[f64; 2]> {
        (0..n)
            .map(|i| {
                [
                    0.02 + 0.012 * (i % 73) as f64,
                    0.03 + 0.011 * ((i * 7) % 67) as f64,
                ]
            })
            .collect()
    }

    #[test]
    fn full_record_roundtrips() {
        let t = fixture_template("repl_full");
        let engine = QueryEngine::new(Arc::clone(&t));
        let (mut writer, first) = CacheWriter::new(Scr::new(1.5).unwrap());
        let cell = SnapshotCell::new(first);
        for tg in targets(40) {
            drive(&t, &engine, &mut writer, &cell, &tg);
        }
        let latest = writer.latest_snapshot();
        let record = encode_generation(&latest, None);
        let info = record_info(&record).unwrap();
        assert_eq!(info.generation, latest.generation());
        assert_eq!(info.base, None);

        let (scr, generation) =
            apply_generation(ScrConfig::new(1.5).unwrap(), None, &record).unwrap();
        assert_eq!(generation, latest.generation());
        assert_eq!(scr.cache().num_plans(), latest.cache().num_plans());
        assert_eq!(scr.cache().num_instances(), latest.cache().num_instances());
        assert!(scr.cache().check_invariants().is_ok());
    }

    #[test]
    fn delta_chain_replays_primary_state_and_decisions() {
        let t = fixture_template("repl_chain");
        let engine = QueryEngine::new(Arc::clone(&t));
        let r_engine = QueryEngine::new(Arc::clone(&t));
        let cfg = ScrConfig::new(1.5).unwrap();
        let (mut writer, first) = CacheWriter::new(Scr::with_config(cfg.clone()).unwrap());
        let cell = SnapshotCell::new(first);
        let (mut r_writer, r_first) = CacheWriter::new(Scr::with_config(cfg.clone()).unwrap());
        let r_cell = SnapshotCell::new(r_first);

        // Bootstrap the replica with a full record of generation 0.
        let boot = encode_generation(&writer.latest_snapshot(), None);
        let (scr, generation) = apply_generation(cfg.clone(), None, &boot).unwrap();
        r_writer.install_generation(scr, generation, &r_cell);

        let mut delta_bytes = 0usize;
        let mut deltas = 0usize;
        for tg in targets(60) {
            if !drive(&t, &engine, &mut writer, &cell, &tg) {
                continue;
            }
            let applied = r_cell.load().generation();
            let latest = writer.latest_snapshot();
            let record = encode_generation(&latest, writer.logged_snapshot(applied).as_deref());
            let info = record_info(&record).unwrap();
            assert_eq!(
                info.base,
                Some(applied),
                "base within the log window must yield a delta"
            );
            delta_bytes += record.len();
            deltas += 1;
            let prev = r_cell.load();
            let (scr, generation) = apply_generation(cfg.clone(), Some(&prev), &record).unwrap();
            r_writer.install_generation(scr, generation, &r_cell);

            // Untouched plans keep their Arc identity across applied
            // generations — the delta shipped references, not bytes.
            let now = r_cell.load();
            for p in prev.cache().plans() {
                if let Some(q) = now.cache().plan(p.fingerprint()) {
                    assert!(Arc::ptr_eq(p, q), "replica re-materialized a shared plan");
                }
            }
        }
        assert!(deltas > 3, "workload must publish several generations");

        // Replica state equals the primary's canonical state.
        let p = cell.load();
        let r = r_cell.load();
        assert_eq!(r.generation(), p.generation());
        assert_eq!(r.cache().num_plans(), p.cache().num_plans());
        assert_eq!(r.cache().num_instances(), p.cache().num_instances());
        for (a, b) in p.cache().instances().iter().zip(r.cache().instances()) {
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.opt_cost.to_bits(), b.opt_cost.to_bits());
            assert_eq!(a.sub_opt.to_bits(), b.sub_opt.to_bits());
            assert_eq!(a.svector.0, b.svector.0);
        }

        // And makes identical reuse decisions on a fresh probe grid.
        for tg in targets(80) {
            let inst = instance_for_target(&t, &tg);
            let sv = compute_svector(&t, &inst);
            let a = p.try_cached_plan(&sv, &engine);
            let b = r.try_cached_plan(&sv, &r_engine);
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.plan.fingerprint(), y.plan.fingerprint(), "at {tg:?}");
                    assert_eq!(x.optimized, y.optimized);
                }
                (a, b) => panic!(
                    "decision diverged at {tg:?}: {:?} vs {:?}",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }

        // Deltas must be far cheaper than re-shipping the cache.
        let full = encode_generation(&cell.load(), None).len();
        assert!(
            delta_bytes / deltas < full,
            "average delta ({} B) not smaller than a full record ({full} B)",
            delta_bytes / deltas
        );
    }

    #[test]
    fn a_delta_builds_the_same_state_extended_or_rebuilt() {
        // Every delta of a chain, parsed once each way: where it may extend
        // its base, extending and rebuilding must arrive at one state (the
        // bytes `persist::save` writes), the extension sharing the base's
        // blocks and plans and the rebuild sharing nothing.
        let t = fixture_template("repl_both_ways");
        let engine = QueryEngine::new(Arc::clone(&t));
        let mut cfg = ScrConfig::new(1.05).unwrap();
        cfg.lambda_r = 0.0;
        cfg.plan_budget = Some(3);
        let (mut writer, first) = CacheWriter::new(Scr::with_config(cfg.clone()).unwrap());
        let cell = SnapshotCell::new(first);
        let saved = |scr: &Scr| {
            let mut blob = Vec::new();
            persist::save(scr, 0, &mut blob).unwrap();
            blob
        };
        let (mut extended, mut rebuilt_only) = (0, 0);
        for tg in targets(200) {
            let base = writer.latest_snapshot();
            if !drive(&t, &engine, &mut writer, &cell, &tg) {
                continue;
            }
            let record = encode_generation(&writer.latest_snapshot(), Some(&base));
            let body = || {
                let mut r = &record[..];
                read_header(&mut r).unwrap();
                Delta::read(&base, &mut r).unwrap()
            };
            let rebuilt = body().rebuilt(cfg.clone(), &base).unwrap();
            assert_eq!(saved(&rebuilt), saved(writer.scr()));
            if !body().extends_base {
                rebuilt_only += 1;
                continue;
            }
            extended += 1;
            let onto = body().onto(cfg.clone(), &base).unwrap();
            assert_eq!(saved(&onto), saved(&rebuilt));
            assert_eq!(onto.log_cost_sum.to_bits(), rebuilt.log_cost_sum.to_bits());
            assert_eq!(onto.opt_count, rebuilt.opt_count);
            let full = base.cache().num_instances() / BLOCK_ROWS;
            assert_eq!(
                onto.cache().coords().block_tokens()[..full],
                base.cache().coords().block_tokens()[..full]
            );
            for p in base.cache().cached_plans() {
                let kept = onto.cache().cached(p.fingerprint()).unwrap();
                assert!(Arc::ptr_eq(p, kept), "an extension keeps prepared plans");
            }
        }
        assert!(
            extended > 20 && rebuilt_only > 2,
            "{extended} / {rebuilt_only}"
        );
    }

    #[test]
    fn delta_base_mismatch_is_typed() {
        let t = fixture_template("repl_mismatch");
        let engine = QueryEngine::new(Arc::clone(&t));
        let cfg = ScrConfig::new(1.5).unwrap();
        let (mut writer, first) = CacheWriter::new(Scr::with_config(cfg.clone()).unwrap());
        let cell = SnapshotCell::new(first);
        for tg in targets(10) {
            drive(&t, &engine, &mut writer, &cell, &tg);
        }
        let base = writer.logged_snapshot(writer.generation() - 1).unwrap();
        let record = encode_generation(&writer.latest_snapshot(), Some(&base));

        // No base at all.
        let err = apply_generation(cfg.clone(), None, &record).unwrap_err();
        assert!(
            matches!(err, ReplicationError::BaseMismatch { have: None, .. }),
            "{err}"
        );
        // Wrong base generation.
        let wrong = writer.logged_snapshot(writer.generation() - 2).unwrap();
        let err = apply_generation(cfg, Some(&wrong), &record).unwrap_err();
        assert!(
            matches!(
                err,
                ReplicationError::BaseMismatch {
                    have: Some(g),
                    ..
                } if g == wrong.generation()
            ),
            "{err}"
        );
    }

    #[test]
    fn record_tags_of_retired_policies_are_refused_by_name() {
        let t = fixture_template("repl_policy");
        let engine = QueryEngine::new(Arc::clone(&t));
        let cfg = ScrConfig::new(1.5).unwrap();
        let (mut writer, first) = CacheWriter::new(Scr::with_config(cfg.clone()).unwrap());
        let cell = SnapshotCell::new(first);
        for tg in targets(10) {
            drive(&t, &engine, &mut writer, &cell, &tg);
        }
        let latest = writer.latest_snapshot();
        let base = writer.logged_snapshot(writer.generation() - 1).unwrap();
        let full = encode_generation(&latest, None);
        let delta = encode_generation(&latest, Some(&base));
        // The full record's body is a persist blob with a tag of its own,
        // after the record header (14 bytes) and the blob's magic and
        // generation (16).
        for (record, at) in [(&full, 5), (&full, 30), (&delta, 5)] {
            assert_eq!(record[at], SCR_TAG);
            let with_tag = |tag: u8| {
                let mut evil = record.clone();
                evil[at] = tag;
                apply_generation(cfg.clone(), Some(&base), &evil).map(|_| ())
            };
            assert!(with_tag(SCR_TAG).is_ok());
            for (tag, name) in [(1, "lec"), (2, "penalty")] {
                let err = with_tag(tag).unwrap_err();
                assert!(
                    matches!(err, ReplicationError::PolicyMismatch { found } if found == name),
                    "tag {tag} at {at}: {err}"
                );
                // The workspace-wide error stays typed.
                let wide: PqoError = err.into();
                assert!(
                    matches!(
                        &wide,
                        PqoError::PolicyMismatch { expected, found }
                            if expected == "scr" && found == name
                    ),
                    "{wide}"
                );
            }
            let err = with_tag(3).unwrap_err();
            assert!(
                matches!(&err, ReplicationError::Corrupt(m) if m.contains("policy tag")),
                "tag 3 at {at}: {err}"
            );
        }
    }

    #[test]
    fn an_inline_entry_of_another_arity_is_corrupt_not_a_panic() {
        let t = fixture_template("repl_arity");
        let engine = QueryEngine::new(Arc::clone(&t));
        let cfg = ScrConfig::new(1.5).unwrap();
        let (mut writer, first) = CacheWriter::new(Scr::with_config(cfg.clone()).unwrap());
        let cell = SnapshotCell::new(first);
        for tg in targets(10) {
            drive(&t, &engine, &mut writer, &cell, &tg);
        }
        let base = writer.logged_snapshot(writer.generation() - 1).unwrap();
        let mut record = encode_generation(&writer.latest_snapshot(), Some(&base));
        // The record ends with one inline 2-d entry (tag, plan, arity, two
        // selectivities, C, S, U, flag) and the accumulators: make it 1-d.
        let entry = record.len() - 16 - 54;
        assert_eq!(record[entry], ENTRY_INLINE);
        assert_eq!(record[entry + 9..entry + 13], 2u32.to_le_bytes());
        record[entry + 9] = 1;
        record.drain(entry + 21..entry + 29);
        let err = apply_generation(cfg, Some(&base), &record).unwrap_err();
        assert!(
            matches!(&err, ReplicationError::Corrupt(m) if m.contains("dimensions")),
            "{err}"
        );
    }

    #[test]
    fn corrupt_records_never_panic() {
        let t = fixture_template("repl_fuzz");
        let engine = QueryEngine::new(Arc::clone(&t));
        let cfg = ScrConfig::new(1.5).unwrap();
        let (mut writer, first) = CacheWriter::new(Scr::with_config(cfg.clone()).unwrap());
        let cell = SnapshotCell::new(first);
        for tg in targets(15) {
            drive(&t, &engine, &mut writer, &cell, &tg);
        }
        let base = writer.logged_snapshot(writer.generation() - 1).unwrap();
        for record in [
            encode_generation(&writer.latest_snapshot(), None),
            encode_generation(&writer.latest_snapshot(), Some(&base)),
        ] {
            // Truncations.
            for cut in 0..record.len().min(64) {
                let _ = apply_generation(cfg.clone(), Some(&base), &record[..cut]);
                let _ = record_info(&record[..cut]);
            }
            // Byte flips.
            for i in (0..record.len()).step_by(7) {
                let mut evil = record.clone();
                evil[i] ^= 0xFF;
                let _ = apply_generation(cfg.clone(), Some(&base), &evil);
            }
            // Trailing garbage.
            let mut evil = record.clone();
            evil.push(0);
            assert!(apply_generation(cfg.clone(), Some(&base), &evil).is_err());
        }
    }
}
