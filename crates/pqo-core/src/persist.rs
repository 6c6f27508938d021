//! Plan-cache persistence.
//!
//! A production plan cache survives restarts: the paper's engine keeps
//! cached plans (with their `shrunkenMemo`s) in SQL Server's plan cache,
//! which is warm across sessions. This module snapshots an [`Scr`]'s state
//! — plan list (Appendix B compact encoding), instance list and the
//! dynamic-λ accumulators — into a small versioned binary blob and restores
//! it, so a fresh process resumes with the inference regions it had already
//! learned instead of re-optimizing its way back.
//!
//! The format is deliberately dependency-free: a magic header, then
//! length-prefixed sections. Restoring validates the magic, the version and
//! every structural invariant (entries must reference listed plans).

use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use pqo_optimizer::compact::CompactPlan;
use pqo_optimizer::error::PqoError;
use pqo_optimizer::plan::{Plan, PlanFingerprint};
use pqo_optimizer::svector::SVector;

use crate::cache::InstanceEntry;
use crate::scr::{CacheState, Scr, ScrConfig};

/// Version 1 header: no generation stamp (read-compatible, written by
/// releases that predate the replication generation log).
const MAGIC_V1: &[u8; 8] = b"PQOCACH1";
/// Version 2 header: a `u64` generation stamp follows the magic, so warm
/// restarts resume the publication lineage (and replicas can subscribe
/// with catch-up from the generation they persisted).
const MAGIC_V2: &[u8; 8] = b"PQOCACH2";
/// Version 3 header: a one-byte policy tag follows the generation stamp
/// (see [`check_policy_tag`]).
const MAGIC_V3: &[u8; 8] = b"PQOCACH3";
/// Shared prefix of every format version; the trailing byte is the ASCII
/// version digit.
const MAGIC_PREFIX: &[u8; 7] = b"PQOCACH";

/// The policy tag every cache is written with: SCR, the one serving policy.
pub(crate) const SCR_TAG: u8 = 0;

/// Errors raised while restoring a snapshot.
#[derive(Debug)]
pub enum RestoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a snapshot at all (unrecognized magic).
    BadHeader,
    /// A snapshot in a recognizably newer (or unknown) format version than
    /// this reader supports — the on-disk/wire format is a cross-process
    /// contract, so version skew gets its own typed error instead of being
    /// folded into [`RestoreError::BadHeader`].
    UnsupportedVersion {
        /// The ASCII version byte found in the header.
        version: u8,
    },
    /// Structurally invalid snapshot (truncated, dangling references, or
    /// non-finite numbers).
    Corrupt(String),
    /// The policy tag names a retired serving policy (`lec` or `penalty`):
    /// the cache was built by that policy's admission, and this build
    /// serves SCR only.
    PolicyMismatch {
        /// The retired policy the tag names.
        found: &'static str,
    },
    /// The caller-supplied [`ScrConfig`] is itself invalid.
    Config(PqoError),
}

impl From<io::Error> for RestoreError {
    fn from(e: io::Error) -> Self {
        RestoreError::Io(e)
    }
}

/// Collapse a restore failure into the workspace-wide error type, so
/// serving layers surface one error enum. Configuration errors pass
/// through unchanged; I/O and format errors become [`PqoError::Persist`].
impl From<RestoreError> for PqoError {
    fn from(e: RestoreError) -> Self {
        match e {
            RestoreError::Config(inner) => inner,
            RestoreError::PolicyMismatch { found } => PqoError::PolicyMismatch {
                expected: "scr".to_string(),
                found: found.to_string(),
            },
            other => PqoError::Persist {
                message: other.to_string(),
            },
        }
    }
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "i/o error: {e}"),
            RestoreError::BadHeader => write!(f, "not a pqo cache snapshot (bad magic/version)"),
            RestoreError::UnsupportedVersion { version } => write!(
                f,
                "unsupported snapshot format version {:?} (this reader understands v1/v2/v3)",
                char::from(*version)
            ),
            RestoreError::PolicyMismatch { found } => write!(
                f,
                "snapshot was produced under policy `{found}` but this build serves `scr` only"
            ),
            RestoreError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            RestoreError::Config(e) => write!(f, "invalid restore configuration: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

fn w_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
pub(crate) fn r_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}
pub(crate) fn r_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
pub(crate) fn r_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
pub(crate) fn r_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// Write `state` into `w` as a v3 blob stamped with `generation` — the one
/// writer behind `pqo run --save-cache` (generation 0), the serving layer's
/// [`crate::service::PqoService::save`] (the published generation, so a
/// warm restart resumes the publication lineage) and the replication full
/// record. A published snapshot is immutable, so the blob is internally
/// consistent without any lock even while writers keep publishing.
///
/// The configuration itself is *not* persisted — the caller restores with
/// an explicit [`ScrConfig`], since λ policy is an operator decision, not
/// cache state. The header's policy tag is always 0, SCR.
pub fn save(state: &CacheState, generation: u64, w: &mut impl Write) -> io::Result<()> {
    let cache = &state.cache;
    w.write_all(MAGIC_V3)?;
    w_u64(w, generation)?;
    w.write_all(&[SCR_TAG])?;

    // Plan list, in the cache's own order: ascending by fingerprint.
    w_u32(w, cache.num_plans() as u32)?;
    for p in cache.plans() {
        let enc = CompactPlan::encode(p);
        w_u32(w, enc.bytes_len() as u32)?;
        w.write_all(enc.as_bytes())?;
    }

    // Instance list; an entry names its plan by that plan's rank.
    let entries = cache.instances();
    w_u32(w, entries.len() as u32)?;
    for e in entries {
        let plan_idx = cache
            .plan_index(e.plan)
            .expect("entry references listed plan") as u32;
        w_u32(w, plan_idx)?;
        w_u32(w, e.svector.len() as u32)?;
        for &s in &e.svector.0 {
            w_f64(w, s)?;
        }
        w_f64(w, e.opt_cost)?;
        w_f64(w, e.sub_opt)?;
        w_u64(w, e.usage())?;
        w.write_all(&[u8::from(e.violation_detected())])?;
    }

    // Dynamic-λ accumulators.
    w_f64(w, state.log_cost_sum)?;
    w_u64(w, state.opt_count)?;
    Ok(())
}

/// [`save`] into the file at `path`, replacing it only once the new blob is
/// whole: the blob goes to `<path>.tmp` in the same directory, is synced to
/// disk and is then renamed over `path`, and the directory is synced so the
/// rename lasts. On a failure before the rename the temp file is removed
/// and the previous file at `path` stays as it was.
///
/// # Errors
/// The first I/O error of the create, write, sync, rename or directory
/// sync.
pub fn save_file(state: &CacheState, generation: u64, path: &Path) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    let written = File::create(tmp).and_then(|file| {
        let mut w = BufWriter::new(file);
        save(state, generation, &mut w)?;
        w.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()?;
        fs::rename(tmp, path)
    });
    if written.is_err() {
        // Not there, or not a file: nothing of ours to remove.
        let _ = fs::remove_file(tmp);
        return written;
    }
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Restore a snapshot produced by [`save`] into a fresh [`Scr`] with the
/// given configuration, discarding the generation stamp.
pub fn restore(config: ScrConfig, r: &mut impl Read) -> Result<Scr, RestoreError> {
    restore_with_generation(config, r).map(|(scr, _)| scr)
}

/// Restore a snapshot together with the generation it was published under
/// (0 for v1 blobs, which predate generation stamps). Warm restarts feed
/// the generation back into the serving layer so replica subscriptions can
/// catch up from it instead of re-shipping the full cache.
pub fn restore_with_generation(
    config: ScrConfig,
    r: &mut impl Read,
) -> Result<(Scr, u64), RestoreError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    // v1/v2 blobs predate the policy tag; every cache back then was
    // SCR-built, so they read as SCR.
    let generation = if &magic == MAGIC_V3 {
        let generation = r_u64(r)?;
        check_policy_tag(r_u8(r)?)?;
        generation
    } else if &magic == MAGIC_V2 {
        r_u64(r)?
    } else if &magic == MAGIC_V1 {
        0
    } else if magic[..7] == MAGIC_PREFIX[..] && magic[7].is_ascii_digit() {
        return Err(RestoreError::UnsupportedVersion { version: magic[7] });
    } else {
        return Err(RestoreError::BadHeader);
    };

    let plan_count = r_u32(r)? as usize;
    if plan_count > 1_000_000 {
        return Err(RestoreError::Corrupt(format!(
            "implausible plan count {plan_count}"
        )));
    }
    let mut plans = Vec::with_capacity(plan_count);
    for i in 0..plan_count {
        plans.push(Arc::new(read_plan(r, i)?));
    }

    let entry_count = r_u32(r)? as usize;
    if entry_count > 100_000_000 {
        return Err(RestoreError::Corrupt(format!(
            "implausible entry count {entry_count}"
        )));
    }
    let mut entries = Vec::with_capacity(entry_count);
    let mut arity = None;
    for i in 0..entry_count {
        let plan_idx = r_u32(r)? as usize;
        if plan_idx >= plans.len() {
            return Err(RestoreError::Corrupt(format!(
                "entry {i} references plan {plan_idx}"
            )));
        }
        let entry = read_entry(r, i, plans[plan_idx].fingerprint())?;
        check_arity(i, &entry, &mut arity)?;
        entries.push(entry);
    }
    let (log_cost_sum, opt_count) = read_accumulators(r)?;

    let scr = Scr::from_parts(config, plans, entries, log_cost_sum, opt_count)
        .map_err(RestoreError::Config)?;
    Ok((scr, generation))
}

/// Check the policy tag of a v3 header or a replication record: [`SCR_TAG`]
/// passes; 1 and 2 name the retired `lec` and `penalty` policies
/// (DESIGN.md §8), whose caches SCR must not serve; any other byte is
/// corrupt.
pub(crate) fn check_policy_tag(tag: u8) -> Result<(), RestoreError> {
    let retired = match tag {
        SCR_TAG => return Ok(()),
        1 => "lec",
        2 => "penalty",
        _ => return Err(RestoreError::Corrupt(format!("unknown policy tag {tag}"))),
    };
    Err(RestoreError::PolicyMismatch { found: retired })
}

/// Read plan `i`: a length-prefixed Appendix B compact encoding, decoded
/// with every read bounds- and arity-checked. Shared with the inline plans
/// of a replication delta record, which use the same layout.
pub(crate) fn read_plan(r: &mut impl Read, i: usize) -> Result<Plan, RestoreError> {
    let len = r_u32(r)? as usize;
    if len == 0 || len > 1 << 20 {
        return Err(RestoreError::Corrupt(format!("plan {i} has length {len}")));
    }
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    CompactPlan::from_bytes(bytes.into_boxed_slice())
        .checked_decode()
        .map_err(|e| RestoreError::Corrupt(format!("plan {i}: {e}")))
}

/// Read the fields of instance entry `i` that follow its plan reference —
/// arity, selectivities, `C`, `S`, `U` and the violation flag — rejecting
/// out-of-range values. Shared with the inline entries of a replication
/// delta record, which use the same layout.
pub(crate) fn read_entry(
    r: &mut impl Read,
    i: usize,
    plan: PlanFingerprint,
) -> Result<InstanceEntry, RestoreError> {
    let d = r_u32(r)? as usize;
    if d == 0 || d > 64 {
        return Err(RestoreError::Corrupt(format!(
            "entry {i} has dimensionality {d}"
        )));
    }
    let mut sels = Vec::with_capacity(d);
    for _ in 0..d {
        let s = r_f64(r)?;
        if !(s > 0.0 && s <= 1.0) {
            return Err(RestoreError::Corrupt(format!(
                "entry {i} has selectivity {s}"
            )));
        }
        sels.push(s);
    }
    let opt_cost = r_f64(r)?;
    let sub_opt = r_f64(r)?;
    let usage = r_u64(r)?;
    let violation = r_u8(r)? != 0;
    if !opt_cost.is_finite() || opt_cost <= 0.0 || !sub_opt.is_finite() || sub_opt < 1.0 {
        return Err(RestoreError::Corrupt(format!(
            "entry {i} has C={opt_cost}, S={sub_opt}"
        )));
    }
    Ok(InstanceEntry::restored(
        SVector(sels),
        plan,
        opt_cost,
        sub_opt,
        usage,
        violation,
    ))
}

/// Reject entry `i` unless it has the arity of the entries before it
/// (`arity`, `None` before the first): the instance list stores rows of one
/// dimensionality, and bytes from outside the program must not be able to
/// ask it for anything else.
pub(crate) fn check_arity(
    i: usize,
    entry: &InstanceEntry,
    arity: &mut Option<usize>,
) -> Result<(), RestoreError> {
    let d = entry.svector.len();
    match *arity.get_or_insert(d) {
        expected if expected == d => Ok(()),
        expected => Err(RestoreError::Corrupt(format!(
            "entry {i} has {d} dimensions, the entries before it {expected}"
        ))),
    }
}

/// Read the trailing dynamic-λ accumulators `(Σ log C, optimized count)`.
pub(crate) fn read_accumulators(r: &mut impl Read) -> Result<(f64, u64), RestoreError> {
    let log_cost_sum = r_f64(r)?;
    let opt_count = r_u64(r)?;
    if !log_cost_sum.is_finite() {
        return Err(RestoreError::Corrupt("non-finite λ accumulator".into()));
    }
    Ok((log_cost_sum, opt_count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CacheSnapshot, CacheWriter, SnapshotCell};
    use crate::spatial::KeyStream;
    use crate::testutil::fixture_template;
    use crate::OnlinePqo;
    use pqo_optimizer::engine::QueryEngine;
    use pqo_optimizer::svector::{compute_svector, instance_for_target};
    use pqo_optimizer::template::QueryTemplate;

    fn fixture() -> Arc<QueryTemplate> {
        fixture_template("persist_test")
    }

    fn warmed(t: &Arc<QueryTemplate>, n: usize) -> (Scr, QueryEngine) {
        let engine = QueryEngine::new(Arc::clone(t));
        let mut scr = Scr::new(1.5).unwrap();
        for i in 0..n {
            let target = [0.02 + 0.9 * (i as f64 / n as f64), 0.3];
            let inst = instance_for_target(t, &target);
            let sv = compute_svector(t, &inst);
            let _ = scr.get_plan(&inst, &sv, &engine);
        }
        (scr, engine)
    }

    #[test]
    fn roundtrip_preserves_cache_state() {
        let t = fixture();
        let (scr, _) = warmed(&t, 40);
        let mut buf = Vec::new();
        save(&scr, 0, &mut buf).unwrap();
        // A published snapshot of the same state writes the same bytes.
        let mut from_snapshot = Vec::new();
        save(&CacheSnapshot::capture_at(&scr, 0), 0, &mut from_snapshot).unwrap();
        assert_eq!(buf, from_snapshot);
        let restored = restore(ScrConfig::new(1.5).unwrap(), &mut buf.as_slice()).unwrap();
        assert_eq!(restored.cache().num_plans(), scr.cache().num_plans());
        assert_eq!(
            restored.cache().num_instances(),
            scr.cache().num_instances()
        );
        assert!(restored.cache().check_invariants().is_ok());
        for (a, b) in restored
            .cache()
            .instances()
            .iter()
            .zip(scr.cache().instances())
        {
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.opt_cost, b.opt_cost);
            assert_eq!(a.sub_opt, b.sub_opt);
            assert_eq!(a.usage(), b.usage());
            assert_eq!(a.svector.0, b.svector.0);
        }
    }

    #[test]
    fn roundtrip_restores_equal_candidate_search_answers() {
        // The on-disk format carries no coordinates; restore derives them
        // again from the selectivity vectors. Every query (values and tie
        // order) must answer bit for bit as the writer's store does, which
        // was appended to, and copied on write, one publication at a time.
        let t = fixture();
        let (mut writer, first) = CacheWriter::new(Scr::new(1.5).unwrap());
        let cell = SnapshotCell::new(first);
        let engine = QueryEngine::new(Arc::clone(&t));
        for i in 0..150 {
            let inst = instance_for_target(&t, &[0.02 + 0.006 * i as f64, 0.3]);
            let sv = compute_svector(&t, &inst);
            let opt = engine.optimize(&sv);
            writer.manage_cache_entry(&sv, opt, &engine, &cell);
        }
        let scr = writer.scr();
        let mut buf = Vec::new();
        save(scr, 0, &mut buf).unwrap();
        let restored = restore(ScrConfig::new(1.5).unwrap(), &mut buf.as_slice()).unwrap();
        let (a, b) = (scr.cache().coords(), restored.cache().coords());
        assert_eq!((a.len(), b.len()), (150, 150));
        assert!(a.copy_stats().0 > 100 && b.copy_stats().0 == 0);
        let bits = |v: Vec<(f64, usize)>| -> Vec<(u64, usize)> {
            v.into_iter().map(|(d, i)| (d.to_bits(), i)).collect()
        };
        for i in 0..12 {
            let q = [0.03 + 0.08 * i as f64, 0.3];
            assert_eq!(bits(a.nearest(&q, 5)), bits(b.nearest(&q, 5)));
            assert_eq!(bits(a.within(&q, 1.2)), bits(b.within(&q, 1.2)));
            let (mut qa, mut qb) = (vec![], vec![]);
            let (mut da, mut db) = (KeyStream::new(), KeyStream::new());
            let accept = |d: f64, row: usize| d > 0.01 && row % 2 == 1;
            let hit_a = a.scan(&q, 1.2, &mut qa, &mut da, accept);
            let hit_b = b.scan(&q, 1.2, &mut qb, &mut db, accept);
            assert_eq!(
                hit_a.map(|h| (h.0.to_bits(), h.1)),
                hit_b.map(|h| (h.0.to_bits(), h.1))
            );
            assert_eq!(
                da.keys().iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                db.keys().iter().map(|d| d.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn restored_cache_serves_without_reoptimizing() {
        let t = fixture();
        let (scr, _) = warmed(&t, 40);
        let mut buf = Vec::new();
        save(&scr, 0, &mut buf).unwrap();
        let mut restored = restore(ScrConfig::new(1.5).unwrap(), &mut buf.as_slice()).unwrap();
        // A warm-region instance must be served from the restored cache.
        let engine = QueryEngine::new(Arc::clone(&t));
        let inst = instance_for_target(&t, &[0.47, 0.3]);
        let sv = compute_svector(&t, &inst);
        let choice = restored.get_plan(&inst, &sv, &engine);
        assert!(!choice.optimized, "warm cache should serve the instance");
        // And the guarantee still holds for the served plan.
        let opt = engine.optimize_untracked(&sv);
        let so = engine.recost_untracked(&choice.plan, &sv) / opt.cost;
        assert!(so <= 1.5 * 1.001, "restored cache served SO = {so}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = restore(ScrConfig::new(1.5).unwrap(), &mut &b"NOTACACHE"[..]).unwrap_err();
        assert!(matches!(err, RestoreError::BadHeader), "{err}");
    }

    #[test]
    fn unknown_version_gets_typed_error() {
        let t = fixture();
        let (scr, _) = warmed(&t, 5);
        let mut buf = Vec::new();
        save(&scr, 0, &mut buf).unwrap();
        for version in [b'4', b'7', b'9', b'0'] {
            let mut evil = buf.clone();
            evil[7] = version;
            let err = restore(ScrConfig::new(1.5).unwrap(), &mut evil.as_slice()).unwrap_err();
            assert!(
                matches!(err, RestoreError::UnsupportedVersion { version: v } if v == version),
                "version {}: {err}",
                char::from(version)
            );
        }
        // A non-digit trailing byte is not a version at all.
        let mut evil = buf.clone();
        evil[7] = b'X';
        let err = restore(ScrConfig::new(1.5).unwrap(), &mut evil.as_slice()).unwrap_err();
        assert!(matches!(err, RestoreError::BadHeader), "{err}");
    }

    #[test]
    fn generation_stamp_roundtrips_and_v1_reads_as_zero() {
        let t = fixture();
        let (scr, _) = warmed(&t, 10);
        let mut buf = Vec::new();
        save(&scr, 42, &mut buf).unwrap();
        let (restored, generation) =
            restore_with_generation(ScrConfig::new(1.5).unwrap(), &mut buf.as_slice()).unwrap();
        assert_eq!(generation, 42);
        assert_eq!(restored.cache().num_plans(), scr.cache().num_plans());

        // A v1 blob (magic digit '1', no generation/policy fields) restores
        // with generation 0: splice the v3 header out.
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC_V1);
        v1.extend_from_slice(&buf[17..]);
        let (from_v1, generation) =
            restore_with_generation(ScrConfig::new(1.5).unwrap(), &mut v1.as_slice()).unwrap();
        assert_eq!(generation, 0);
        assert_eq!(from_v1.cache().num_plans(), scr.cache().num_plans());
        assert_eq!(from_v1.cache().num_instances(), scr.cache().num_instances());
    }

    #[test]
    fn header_tags_of_retired_policies_are_refused_by_name() {
        let t = fixture();
        let (scr, _) = warmed(&t, 10);
        let mut buf = Vec::new();
        save(&scr, 0, &mut buf).unwrap();
        assert_eq!(buf[16], SCR_TAG, "header policy tag");
        let with_tag = |tag: u8| {
            let mut blob = buf.clone();
            blob[16] = tag;
            restore(ScrConfig::new(1.5).unwrap(), &mut blob.as_slice())
        };
        assert!(with_tag(SCR_TAG).is_ok());
        for (tag, name) in [(1, "lec"), (2, "penalty")] {
            let err = with_tag(tag).unwrap_err();
            assert!(
                matches!(err, RestoreError::PolicyMismatch { found } if found == name),
                "tag {tag}: {err}"
            );
            // The workspace-wide error keeps the mismatch typed (not folded
            // into Persist), naming both policies.
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
        for tag in [3, 0xEE] {
            let err = with_tag(tag).unwrap_err();
            assert!(matches!(err, RestoreError::Corrupt(_)), "tag {tag}: {err}");
            assert!(err.to_string().contains("policy tag"), "{err}");
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let t = fixture();
        let (scr, _) = warmed(&t, 10);
        let mut buf = Vec::new();
        save(&scr, 0, &mut buf).unwrap();
        for cut in [9, buf.len() / 2, buf.len() - 1] {
            let err = restore(ScrConfig::new(1.5).unwrap(), &mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, RestoreError::Io(_) | RestoreError::Corrupt(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn entries_of_mixed_arity_are_rejected() {
        let t = fixture();
        let (scr, _) = warmed(&t, 10);
        let mut buf = Vec::new();
        save(&scr, 0, &mut buf).unwrap();
        // The blob ends with a 2-d entry (plan, arity, two selectivities,
        // C, S, U, flag) and the accumulators: make that entry 1-d.
        let entry = buf.len() - 16 - 49;
        assert_eq!(buf[entry + 4..entry + 8], 2u32.to_le_bytes());
        buf[entry + 4] = 1;
        buf.drain(entry + 16..entry + 24);
        let err = restore(ScrConfig::new(1.5).unwrap(), &mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(&err, RestoreError::Corrupt(m) if m.contains("dimensions")),
            "{err}"
        );
    }

    #[test]
    fn corrupt_selectivity_is_rejected() {
        let t = fixture();
        let (scr, _) = warmed(&t, 5);
        let mut buf = Vec::new();
        save(&scr, 0, &mut buf).unwrap();
        // Flip an instance selectivity to an invalid value: locate the
        // first entry's first selectivity. Layout: 8 magic + 4 count +
        // plans... easier: just corrupt every f64-aligned slot and assert
        // no restore panics (errors are fine).
        for i in (8..buf.len().saturating_sub(8)).step_by(17) {
            let mut evil = buf.clone();
            evil[i] ^= 0xFF;
            let _ = restore(ScrConfig::new(1.5).unwrap(), &mut evil.as_slice());
            // must not panic
        }
    }

    #[test]
    fn roundtrip_preserves_arena_form_and_prepared_recost() {
        // The compact encoding round-trips the *arena* plan representation:
        // decoded plans must match node-for-node (op and subtree extent),
        // and the prepared-recost path over a restored cache must produce
        // bit-identical costs to the original technique's plans.
        let t = fixture();
        let (scr, engine) = warmed(&t, 40);
        let mut buf = Vec::new();
        save(&scr, 0, &mut buf).unwrap();
        let restored = restore(ScrConfig::new(1.5).unwrap(), &mut buf.as_slice()).unwrap();

        let mut originals: Vec<_> = scr.cache().plans().collect();
        originals.sort_by_key(|p| p.fingerprint());
        let mut restored_plans: Vec<_> = restored.cache().plans().collect();
        restored_plans.sort_by_key(|p| p.fingerprint());
        assert!(!originals.is_empty());
        assert_eq!(originals.len(), restored_plans.len());

        let mut scratch_a = pqo_optimizer::recost::RecostScratch::new();
        let mut scratch_b = pqo_optimizer::recost::RecostScratch::new();
        let probes = [[0.05, 0.3], [0.47, 0.3], [0.9, 0.3], [0.2, 0.8]];
        for (a, b) in originals.iter().zip(&restored_plans) {
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_eq!(a.nodes(), b.nodes(), "arena layout changed in transit");
            let pa = engine.prepare_recost(a);
            let pb = engine.prepare_recost(b);
            for target in &probes {
                let inst = instance_for_target(&t, target);
                let sv = compute_svector(&t, &inst);
                let ca = engine.recost_prepared_untracked(&pa, &sv, &mut scratch_a);
                let cb = engine.recost_prepared_untracked(&pb, &sv, &mut scratch_b);
                assert_eq!(
                    ca.to_bits(),
                    cb.to_bits(),
                    "prepared recost diverged after round-trip at {target:?}"
                );
            }
        }
    }

    #[test]
    fn empty_cache_roundtrips() {
        let scr = Scr::new(2.0).unwrap();
        let mut buf = Vec::new();
        save(&scr, 0, &mut buf).unwrap();
        let restored = restore(ScrConfig::new(2.0).unwrap(), &mut buf.as_slice()).unwrap();
        assert_eq!(restored.cache().num_plans(), 0);
        assert_eq!(restored.cache().num_instances(), 0);
    }
}
