//! Satellite: persist v1 blobs must restore through the *full* service
//! warm-restart path — `pqo serve --snapshot-dir` over a v1 file — not
//! just through the unit-level fixture tests. The v1 format predates both
//! the generation stamp (v2) and the policy tag (v3), so a successful
//! warm restart proves the whole compat chain: v1 header → generation 0 →
//! implied SCR policy → registered service → snapshot re-flushed as the
//! current version on graceful shutdown.
//!
//! A second leg pins the policy tag at the same level: a v3 blob whose tag
//! names the retired `lec` policy must refuse startup with the typed
//! mismatch diagnostic rather than serving a cache that policy built.
//!
//! A third leg pins how a flush replaces the file: a flush that cannot write
//! leaves the previous snapshot whole, and the next start restores from it.
//!
//! A fourth pins the file a template is flushed to and restored from: one
//! name for both sides, so a `--templates-dir` stem that is not a plain
//! name (`orders.v2`) restarts warm, and two names one character apart
//! (`a_b`, `a.b`) each restore their own cache.

use std::ffi::OsStr;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const TEMPLATE: &str = "tpch_skew_A_d2";
const MAGIC_V1: &[u8; 8] = b"PQOCACH1";
const MAGIC_V3: &[u8; 8] = b"PQOCACH3";
/// v3 header: 8 magic + 8 generation + 1 policy tag.
const V3_HEADER_LEN: usize = 17;

fn pqo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pqo"))
}

fn unique_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pqo-warm-restart-v1-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Warm a cache through `pqo run --save-cache` and return its (v3) bytes.
fn saved_blob(dir: &Path) -> Vec<u8> {
    let current = dir.join("current.pqo-cache");
    let out = pqo()
        .args([
            "run",
            "--template",
            TEMPLATE,
            "--m",
            "40",
            "--seed",
            "7",
            "--save-cache",
        ])
        .arg(&current)
        .output()
        .expect("run pqo run");
    assert!(
        out.status.success(),
        "warming run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&current).expect("read saved cache");
    assert_eq!(&bytes[..8], MAGIC_V3, "save no longer writes v3");
    bytes
}

/// The path `pqo serve --snapshot-dir dir` restores the template from.
fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(format!("{TEMPLATE}.pqo-cache"))
}

/// Build a v1 cache blob the way an old release would have written it:
/// splice the v1 magic onto the body of a current blob. The body layout is
/// unchanged across versions — v2 added the generation stamp and v3 the
/// policy tag, both strictly inside the header — so this reproduces
/// genuine v1 bytes.
fn write_v1_blob(dir: &Path) {
    let bytes = saved_blob(dir);
    let mut v1 = MAGIC_V1.to_vec();
    v1.extend_from_slice(&bytes[V3_HEADER_LEN..]);
    std::fs::write(snapshot_path(dir), &v1).expect("write v1 blob");
}

/// Spawn `pqo serve` over `dir` and wait for the startup banner, returning
/// the child, its ephemeral address, every banner line seen, and the live
/// stdout reader (which must stay open until exit — closing it would kill
/// the server's exit summary with a broken pipe).
fn spawn_serve(
    dir: &Path,
    extra: &[&str],
) -> (
    Child,
    String,
    Vec<String>,
    BufReader<std::process::ChildStdout>,
) {
    let mut args: Vec<&OsStr> = vec!["--template".as_ref(), TEMPLATE.as_ref()];
    args.extend(extra.iter().map(OsStr::new));
    spawn_serve_with(dir, &args)
}

/// [`spawn_serve`] over `dir` with `args` in place of the template.
fn spawn_serve_with(
    dir: &Path,
    args: &[&OsStr],
) -> (
    Child,
    String,
    Vec<String>,
    BufReader<std::process::ChildStdout>,
) {
    let mut child = pqo()
        .args(["serve", "--listen", "127.0.0.1:0"])
        .arg("--snapshot-dir")
        .arg(dir)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pqo serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut lines = Vec::new();
    let mut addr = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read server banner") == 0 {
            break;
        }
        let line = line.trim_end().to_string();
        if let Some(a) = line.strip_prefix("listening on ") {
            addr = a.to_string();
        }
        let done = line.starts_with("serving ");
        lines.push(line);
        if done {
            break;
        }
    }
    assert!(!addr.is_empty(), "no listen line in banner: {lines:?}");
    (child, addr, lines, reader)
}

/// Ask the server at `addr` to shut down, drain its exit summary (so it
/// never sees a broken pipe) and return the summary once it exited cleanly.
fn shutdown(addr: &str, child: &mut Child, server_out: &mut impl std::io::Read) -> String {
    let out = pqo()
        .args(["client", "--connect", addr, "--op", "shutdown"])
        .output()
        .expect("run pqo client shutdown");
    assert!(out.status.success(), "shutdown failed");
    let mut summary = String::new();
    server_out
        .read_to_string(&mut summary)
        .expect("drain exit summary");
    assert!(wait_exit(child).success(), "server exited non-zero");
    summary
}

fn wait_exit(child: &mut Child) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            return status;
        }
        assert!(Instant::now() < deadline, "server did not exit in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn v1_blob_warm_restarts_through_pqo_serve_and_reflushes_as_v3() {
    let dir = unique_dir("restore");
    write_v1_blob(&dir);

    let (mut child, addr, banner, mut server_out) = spawn_serve(&dir, &[]);
    assert!(
        banner.iter().any(|l| l.starts_with("restored ")),
        "server did not report restoring the v1 blob: {banner:?}"
    );

    // The restored cache must actually serve: a STATS round trip through a
    // real client shows plans.
    let out = pqo()
        .args(["client", "--connect", &addr, "--template", TEMPLATE])
        .output()
        .expect("run pqo client stats");
    assert!(
        out.status.success(),
        "stats against warm server failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stats = String::from_utf8_lossy(&out.stdout).to_string();
    let field = |name: &str| -> u64 {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .unwrap_or_else(|| panic!("no `{name}` in stats:\n{stats}"))
            .trim_start()
            .trim_start_matches(':')
            .trim()
            .parse()
            .expect("numeric stat")
    };
    assert!(field("num_plans") > 0, "restored cache serves no plans");

    shutdown(&addr, &mut child, &mut server_out);

    // Graceful shutdown re-flushes the snapshot in the current format: the
    // v1 file on disk has been upgraded to v3 with an SCR policy tag.
    let bytes = std::fs::read(snapshot_path(&dir)).expect("flushed blob");
    assert_eq!(&bytes[..8], MAGIC_V3, "flush did not upgrade v1 to v3");
    assert_eq!(bytes[16], 0, "flushed policy tag is not SCR");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_blob_tagged_with_a_retired_policy_refuses_startup() {
    let dir = unique_dir("retired");
    let mut bytes = saved_blob(&dir);
    // Tag 1 named the retired `lec` policy.
    bytes[V3_HEADER_LEN - 1] = 1;
    std::fs::write(snapshot_path(&dir), &bytes).expect("write lec-tagged blob");

    let out = pqo()
        .args(["serve", "--listen", "127.0.0.1:0", "--template", TEMPLATE])
        .arg("--snapshot-dir")
        .arg(&dir)
        .output()
        .expect("run pqo serve");
    assert!(
        !out.status.success(),
        "a cache the lec policy built must not be served"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("policy mismatch") && stderr.contains("`lec`") && stderr.contains("`scr`"),
        "undiagnosable refusal: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flush_that_cannot_write_keeps_the_previous_snapshot() {
    let dir = unique_dir("flush");
    let previous = saved_blob(&dir);
    std::fs::write(snapshot_path(&dir), &previous).expect("write snapshot");
    // The flush writes `<file>.tmp` first; a directory there fails it.
    let tmp = dir.join(format!("{TEMPLATE}.pqo-cache.tmp"));
    std::fs::create_dir(&tmp).expect("create blocking dir");

    let (mut child, addr, banner, mut server_out) = spawn_serve(&dir, &[]);
    assert!(
        banner.iter().any(|l| l.starts_with("restored ")),
        "no restore: {banner:?}"
    );
    // New instances change the cache, so a flush that went through would
    // change the file.
    let out = pqo()
        .args(["client", "--connect", &addr, "--template", TEMPLATE])
        .args(["--m", "200", "--seed", "11"])
        .output()
        .expect("run pqo client");
    assert!(
        out.status.success(),
        "client run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = shutdown(&addr, &mut child, &mut server_out);
    assert!(
        summary.contains("snapshots flushed   : 0"),
        "the blocked flush was counted:\n{summary}"
    );
    assert!(
        std::fs::read(snapshot_path(&dir)).expect("snapshot still there") == previous,
        "a failed flush changed the previous snapshot"
    );
    assert!(
        tmp.is_dir(),
        "the flush removed a directory it did not make"
    );

    // The next start restores from the previous snapshot.
    let (mut child, addr, banner, mut server_out) = spawn_serve(&dir, &[]);
    let plans = banner
        .iter()
        .find_map(|l| l.strip_prefix("restored "))
        .unwrap_or_else(|| panic!("no restore after the failed flush: {banner:?}"));
    assert!(!plans.contains("(0 plans)"), "restored nothing: {plans}");
    shutdown(&addr, &mut child, &mut server_out);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A templates dir holding the committed `templates/tpch_orders_lineitem.sql`
/// once per stem in `stems`.
fn templates_dir(label: &str, stems: &[&str]) -> PathBuf {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../templates/tpch_orders_lineitem.sql");
    let dir = unique_dir(label);
    for stem in stems {
        std::fs::copy(&fixture, dir.join(format!("{stem}.sql"))).expect("copy the fixture");
    }
    dir
}

/// Run `n` instances of the template in `sql` against the server at `addr`.
fn warm(addr: &str, sql: &Path, n: usize) {
    let out = pqo()
        .args(["client", "--connect", addr, "--sql-file"])
        .arg(sql)
        .args(["--m", &n.to_string(), "--seed", "5"])
        .output()
        .expect("run pqo client");
    assert!(
        out.status.success(),
        "client run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The plan count of each `restored <name> from <file> (<n> plans)` line.
fn restored(banner: &[String]) -> Vec<(String, u64)> {
    banner
        .iter()
        .filter_map(|l| l.strip_prefix("restored "))
        .map(|rest| {
            let name = rest.split(' ').next().expect("a name").to_string();
            let plans = rest
                .rsplit_once('(')
                .and_then(|(_, p)| p.strip_suffix(" plans)"))
                .and_then(|p| p.parse().ok())
                .unwrap_or_else(|| panic!("no plan count in `{rest}`"));
            (name, plans)
        })
        .collect()
}

#[test]
fn a_templates_dir_stem_with_a_dot_restarts_warm() {
    let tdir = templates_dir("dotted-sql", &["orders.v2"]);
    let sdir = unique_dir("dotted-snap");
    let args: [&OsStr; 2] = ["--templates-dir".as_ref(), tdir.as_os_str()];

    // Each server is shut down before anything is asserted of it, so a
    // failing check leaves no server running.
    let (mut child, addr, banner, mut server_out) = spawn_serve_with(&sdir, &args);
    warm(&addr, &tdir.join("orders.v2.sql"), 80);
    shutdown(&addr, &mut child, &mut server_out);
    assert!(
        restored(&banner).is_empty(),
        "nothing to restore yet: {banner:?}"
    );
    assert!(
        sdir.join(pqo_server::snapshot_file_name("orders.v2"))
            .is_file(),
        "no snapshot under the template's file name"
    );

    let (mut child, addr, banner, mut server_out) = spawn_serve_with(&sdir, &args);
    shutdown(&addr, &mut child, &mut server_out);
    let restored = restored(&banner);
    assert_eq!(
        restored.len(),
        1,
        "orders.v2 did not restart warm: {banner:?}"
    );
    assert_eq!(restored[0].0, "orders.v2");
    assert!(restored[0].1 > 0, "restored an empty cache: {banner:?}");

    let _ = std::fs::remove_dir_all(&tdir);
    let _ = std::fs::remove_dir_all(&sdir);
}

#[test]
fn names_one_character_apart_restore_their_own_caches() {
    let tdir = templates_dir("pair-sql", &["a_b", "a.b"]);
    let sdir = unique_dir("pair-snap");
    let args: [&OsStr; 2] = ["--templates-dir".as_ref(), tdir.as_os_str()];

    // Only `a.b` sees instances: its cache has plans, `a_b`'s has none.
    // Each server is shut down before anything is asserted of it.
    let (mut child, addr, _, mut server_out) = spawn_serve_with(&sdir, &args);
    warm(&addr, &tdir.join("a.b.sql"), 80);
    let summary = shutdown(&addr, &mut child, &mut server_out);
    assert!(
        summary.contains("snapshots flushed   : 2"),
        "both snapshots flushed:\n{summary}"
    );

    let (mut child, addr, banner, mut server_out) = spawn_serve_with(&sdir, &args);
    shutdown(&addr, &mut child, &mut server_out);
    let mut restored = restored(&banner);
    restored.sort();
    assert_eq!(restored.len(), 2, "each name restores: {banner:?}");
    assert_eq!(restored[0].0, "a.b");
    assert!(restored[0].1 > 0, "a.b lost its plans: {banner:?}");
    assert_eq!(restored[1], ("a_b".to_string(), 0), "{banner:?}");

    let _ = std::fs::remove_dir_all(&tdir);
    let _ = std::fs::remove_dir_all(&sdir);
}
