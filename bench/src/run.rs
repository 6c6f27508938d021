//! One run of one workload: set-up (several times, the median is reported),
//! the timed phases, the output checks.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::affinity;
use crate::embedded;
use crate::estimator;
use crate::inputs::{self, Env, Workload};
use crate::layers;
use crate::replica;
use crate::report::Report;
use crate::wire;

/// Set-ups a run repeats in child processes, beside its own, so `setup_s` is
/// a median of `SETUP_REPEATS + 1` launches.
pub const SETUP_REPEATS: u64 = 4;

/// Where a run finds what it needs outside its own binary.
pub struct Paths {
    /// The `pqo` binary under test.
    pub pqo: PathBuf,
    /// The `bench/` directory (templates in, traces out).
    pub bench_dir: PathBuf,
}

/// What a set-up leaves behind for the timed phases.
pub enum Ready {
    Embedded,
    WireHit(wire::Warmed),
    Replica(replica::Fleet),
}

/// What one set-up measured.
pub struct SetupSample {
    pub ready_s: f64,
    /// Decisions set-up compared with the oracle, and how many differed
    /// (`wire_hit`; the run that keeps the server reports its own).
    pub attempted: u64,
    pub failed: u64,
}

/// Launch → ready for `workload`: inputs from the seed, then whatever the
/// workload serves through started and warmed.
pub fn set_up(
    workload: Workload,
    seed: u64,
    seconds: f64,
    paths: &Paths,
    launched: Instant,
) -> Result<(Env, Ready, SetupSample), String> {
    let env = inputs::setup(workload, seed, seconds, &paths.bench_dir)?;
    let mut sample = SetupSample {
        ready_s: 0.0,
        attempted: 0,
        failed: 0,
    };
    let ready = match workload {
        Workload::EmbeddedBigjoin | Workload::EmbeddedCorpus => Ready::Embedded,
        Workload::WireHit => {
            let warmed = wire::warm_server(&env.served(), paths)?;
            sample.attempted = warmed.checker.compared;
            sample.failed = warmed.checker.failed;
            Ready::WireHit(warmed)
        }
        Workload::ReplicaFollow => Ready::Replica(replica::start_fleet(&env.served(), paths)?),
    };
    sample.ready_s = launched.elapsed().as_secs_f64();
    Ok((env, ready, sample))
}

/// `--setup-only`: set up, print what it measured on one line, tear down.
pub fn setup_only(
    workload: Workload,
    seed: u64,
    seconds: f64,
    paths: &Paths,
    launched: Instant,
) -> Result<(), String> {
    let (_env, ready, s) = set_up(workload, seed, seconds, paths, launched)?;
    println!(
        "setup ready_s={} attempted={} failed={}",
        s.ready_s, s.attempted, s.failed
    );
    tear_down(ready)
}

fn tear_down(ready: Ready) -> Result<(), String> {
    match ready {
        Ready::Embedded => Ok(()),
        Ready::WireHit(warmed) => warmed.server.shutdown().map(|_| ()),
        Ready::Replica(fleet) => replica::stop_fleet(fleet),
    }
}

/// Parse the line [`setup_only`] prints.
pub fn parse_setup_line(line: &str) -> Option<SetupSample> {
    let mut fields = line.strip_prefix("setup ")?.split_ascii_whitespace();
    let mut next = |key: &str| -> Option<&str> {
        let (k, v) = fields.next()?.split_once('=')?;
        (k == key).then_some(v)
    };
    Some(SetupSample {
        ready_s: next("ready_s")?.parse().ok()?,
        attempted: next("attempted")?.parse().ok()?,
        failed: next("failed")?.parse().ok()?,
    })
}

/// Run this executable with `--setup-only` and read its sample back.
fn setup_in_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    paths: &Paths,
) -> Result<SetupSample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-only", "1", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--pqo-bin")
        .arg(&paths.pqo)
        .arg("--bench-dir")
        .arg(&paths.bench_dir)
        .output()
        .map_err(|e| format!("spawning a set-up run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up run failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(parse_setup_line)
        .ok_or_else(|| "set-up run printed no sample".to_string())
}

/// The gated run (`--trace 0`): every end-to-end metric.
pub fn gated(
    workload: Workload,
    seed: u64,
    seconds: f64,
    paths: &Paths,
    launched: Instant,
) -> Result<Report, String> {
    let mut report = Report::default();
    let (env, ready, own) = set_up(workload, seed, seconds, paths, launched)?;

    let mut ready_s = vec![own.ready_s];
    for k in 0..SETUP_REPEATS {
        // Each repeat on the next CPU (the child inherits this thread's).
        affinity::turn(k as usize + 1)
            .and_then(|cpu| cpu.pin_current_thread())
            .map_err(|e| format!("moving to the next CPU: {e}"))?;
        let s = setup_in_child(workload, seed, seconds, paths)?;
        ready_s.push(s.ready_s);
        report.attempted += s.attempted;
        report.failed += s.failed;
    }
    // Back to where this run's own servers are.
    affinity::turn(0)
        .and_then(|cpu| cpu.pin_current_thread())
        .map_err(|e| format!("moving back to the first CPU: {e}"))?;
    report.set("setup_s", estimator::median(&ready_s), ready_s.len() as u64);
    report.note(format!("set-ups (s): {ready_s:.4?}"));

    match ready {
        Ready::Embedded => embedded::run(&env, seconds, &mut report)?,
        Ready::WireHit(warmed) => wire::run(&env.served(), warmed, seconds, &mut report)?,
        Ready::Replica(fleet) => {
            let writes_per_template = env.templates[0].instances.len();
            replica::follow(&env.served(), &fleet, writes_per_template, &mut report)?;
            replica::stop_fleet(fleet)?;
        }
    }
    Ok(report)
}

/// The traced run (`--trace 1`): every per-layer metric.
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    paths: &Paths,
) -> Result<Report, String> {
    let env = inputs::setup(workload, seed, seconds, &paths.bench_dir)?;
    layers::run(&env, seed, seconds, paths)
}

/// Where traces and `layers.md` go.
pub fn out_dir(bench_dir: &Path) -> PathBuf {
    bench_dir.join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_line_round_trips() {
        let s = parse_setup_line("setup ready_s=0.125 attempted=600 failed=0").unwrap();
        assert_eq!(s.ready_s, 0.125);
        assert_eq!((s.attempted, s.failed), (600, 0));
        assert!(parse_setup_line("setup ready_s=1").is_none());
        assert!(parse_setup_line("listening on 127.0.0.1:1").is_none());
    }
}
