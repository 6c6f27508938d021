//! On-disk format compatibility: *committed* snapshot fixtures.
//!
//! The inline `persist` tests prove save/restore roundtrips within one
//! build; this suite pins the format across builds. The fixtures under
//! `tests/fixtures/` were produced by the `regenerate_fixture` test below
//! and are checked into the repository — today's reader must load the
//! current-version (v3) bytes exactly, reproduce them bit-for-bit on
//! re-save, keep loading the older v2 fixture through the compat path, and
//! reject a bumped version digit with the typed
//! [`RestoreError::UnsupportedVersion`] error rather than a decode crash.
//!
//! If the wire format ever changes intentionally, bump the magic to a new
//! version, keep these fixtures loading via compat paths, and commit an
//! additional fixture for the new version — never overwrite these ones
//! silently.

use std::sync::Arc;

use pqo_core::persist::{restore_with_generation, save, RestoreError};
use pqo_core::scr::{Scr, ScrConfig};
use pqo_core::OnlinePqo;
use pqo_optimizer::engine::QueryEngine;
use pqo_optimizer::svector::{compute_svector, instance_for_target};
use pqo_optimizer::template::{QueryTemplate, RangeOp, TemplateBuilder};

/// v3 bytes as committed; regenerated only by `regenerate_fixture`.
const FIXTURE_V3: &[u8] = include_bytes!("fixtures/scr_cache_v3.pqo-cache");
/// v2 bytes as committed by the release that wrote them (no policy tag);
/// pinned forever as the compat-path fixture.
const FIXTURE_V2: &[u8] = include_bytes!("fixtures/scr_cache_v2.pqo-cache");

/// λ the fixtures were warmed under (part of the fixture contract).
const LAMBDA: f64 = 1.5;
/// Generation stamp the fixtures were captured at.
const GENERATION: u64 = 7;

/// The canonical orders ⋈ lineitem fixture template (mirrors the crate's
/// internal test fixture, rebuilt here because integration tests cannot
/// see `#[cfg(test)]` helpers).
fn fixture_template() -> Arc<QueryTemplate> {
    let cat = pqo_catalog::schemas::tpch_skew();
    let mut b = TemplateBuilder::new("persist_fixture");
    let o = b.relation(cat.expect_table("orders"), "o");
    let l = b.relation(cat.expect_table("lineitem"), "l");
    b.join((o, "orders_pk"), (l, "orders_fk"));
    b.param(o, "o_totalprice", RangeOp::Le);
    b.param(l, "l_extendedprice", RangeOp::Le);
    b.build()
}

/// Deterministically warm an SCR with the fixed workload the fixtures were
/// built from: 24 instances swept across the first selectivity axis.
fn warmed_scr() -> Scr {
    let t = fixture_template();
    let engine = QueryEngine::new(Arc::clone(&t));
    let mut scr = Scr::new(LAMBDA).expect("valid λ");
    for i in 0..24 {
        let target = [0.03 + 0.85 * (i as f64 / 24.0), 0.35];
        let inst = instance_for_target(&t, &target);
        let sv = compute_svector(&t, &inst);
        let _ = scr.get_plan(&inst, &sv, &engine);
    }
    scr
}

#[test]
fn committed_fixture_restores_and_resaves_bit_identically() {
    let (scr, generation) = restore_with_generation(
        ScrConfig::new(LAMBDA).expect("valid λ"),
        &mut &FIXTURE_V3[..],
    )
    .expect("committed v3 fixture must keep loading");
    assert_eq!(generation, GENERATION, "generation stamp drifted");
    assert!(scr.cache().num_plans() > 0, "fixture carries no plans");
    assert!(
        scr.cache().num_instances() > 0,
        "fixture carries no entries"
    );
    scr.cache()
        .check_invariants()
        .expect("restored cache invariants");

    // Round the restored state back through the writer: the bytes must be
    // identical to what is committed, proving the format is stable in both
    // directions (no silent field reordering, renumbering, or re-encoding).
    let mut resaved = Vec::new();
    save(&scr, generation, &mut resaved).expect("re-save");
    assert_eq!(
        resaved, FIXTURE_V3,
        "re-saving the restored fixture changed its bytes: the on-disk \
         format drifted — add a new version instead"
    );
}

#[test]
fn committed_v2_fixture_keeps_loading_through_compat_path() {
    // The v2 fixture predates the policy tag: it must restore as SCR with
    // the same generation and the same cache shape as the v3 fixture (both
    // were built from the identical warm workload).
    let (scr, generation) = restore_with_generation(
        ScrConfig::new(LAMBDA).expect("valid λ"),
        &mut &FIXTURE_V2[..],
    )
    .expect("committed v2 fixture must keep loading");
    assert_eq!(generation, GENERATION, "generation stamp drifted");
    scr.cache()
        .check_invariants()
        .expect("restored cache invariants");

    let (v3, _) = restore_with_generation(
        ScrConfig::new(LAMBDA).expect("valid λ"),
        &mut &FIXTURE_V3[..],
    )
    .expect("v3 fixture loads");
    assert_eq!(scr.cache().num_plans(), v3.cache().num_plans());
    assert_eq!(scr.cache().num_instances(), v3.cache().num_instances());

    // It restores as SCR: re-saved, it is the v3 fixture to the byte —
    // policy tag 0 included.
    let mut resaved = Vec::new();
    save(&scr, generation, &mut resaved).expect("re-save");
    assert_eq!(resaved[16], 0, "a v2 blob must restore as SCR");
    assert_eq!(resaved, FIXTURE_V3, "v2 fixture re-saved differs from v3");
}

#[test]
fn restored_fixture_serves_its_warm_region() {
    let mut scr = restore_with_generation(
        ScrConfig::new(LAMBDA).expect("valid λ"),
        &mut &FIXTURE_V3[..],
    )
    .expect("fixture loads")
    .0;
    let t = fixture_template();
    let engine = QueryEngine::new(Arc::clone(&t));
    let inst = instance_for_target(&t, &[0.45, 0.35]);
    let sv = compute_svector(&t, &inst);
    let choice = scr.get_plan(&inst, &sv, &engine);
    assert!(
        !choice.optimized,
        "an instance inside the fixture's warm region re-optimized: the \
         restored entries are not being consulted"
    );
}

#[test]
fn bumped_version_digit_is_rejected_with_typed_error() {
    let mut bumped = FIXTURE_V3.to_vec();
    assert_eq!(&bumped[..8], b"PQOCACH3", "fixture header moved");
    bumped[7] = b'4';
    let err = restore_with_generation(
        ScrConfig::new(LAMBDA).expect("valid λ"),
        &mut bumped.as_slice(),
    )
    .expect_err("a future version must not decode");
    assert!(
        matches!(err, RestoreError::UnsupportedVersion { version: b'4' }),
        "expected UnsupportedVersion, got: {err}"
    );
    // The error message names the version so operators can tell a
    // too-new snapshot from corruption.
    assert!(err.to_string().contains('4'), "undiagnosable error: {err}");
}

/// Regenerates `tests/fixtures/scr_cache_v3.pqo-cache`. Run explicitly via
/// `cargo test -p pqo-core --test persist_fixture regenerate -- --ignored`
/// *only* when intentionally re-baselining, then commit the new bytes. The
/// v2 fixture is never rewritten — it pins the historical format.
#[test]
#[ignore = "writes the committed fixture; run only to re-baseline"]
fn regenerate_fixture() {
    let scr = warmed_scr();
    let mut bytes = Vec::new();
    save(&scr, GENERATION, &mut bytes).expect("serialize");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/scr_cache_v3.pqo-cache");
    std::fs::create_dir_all(path.parent().unwrap()).expect("fixtures dir");
    std::fs::write(&path, &bytes).expect("write fixture");
    println!("wrote {} bytes to {}", bytes.len(), path.display());
}
