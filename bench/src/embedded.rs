//! The embedded workloads: an engine that links `PqoService` in and pays
//! `get_plan` latency on every query's critical path. One thread; each pass
//! (round) serves every template's stream into a fresh service, template by
//! template, as the paper evaluates.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pqo_core::scr::{Scr, ScrConfig};
use pqo_core::{OnlinePqo, PlanChoice, PqoService};
use pqo_optimizer::engine::QueryEngine;

use crate::affinity;
use crate::estimator::{self, BestSegments, Window};
use crate::inputs::Env;
use crate::procfs;
use crate::quality::{self, Checker, Decision};
use crate::report::Report;

/// Fewest passes of a run, however short `--seconds` is: the estimator needs
/// windows to choose from.
const MIN_PASSES: usize = 4;

/// The sequential `Scr` technique over the same streams: the reference every
/// serving path has to reproduce decision by decision.
fn sequential_oracle(env: &Env) -> Vec<Vec<PlanChoice>> {
    env.templates
        .iter()
        .map(|t| {
            let engine = QueryEngine::new(Arc::clone(&t.template));
            let config = ScrConfig::new(env.lambda).expect("workload λ is valid");
            let mut scr = Scr::with_config(config).expect("default config is valid");
            t.instances
                .iter()
                .map(|q| {
                    let sv = engine.compute_svector(q);
                    scr.get_plan(q, &sv, &engine)
                })
                .collect()
        })
        .collect()
}

/// What one pass measured.
struct Pass {
    /// Per segment of the pass: its wall time, the latency of every decision
    /// in it, and the CPU time this thread spent on it.
    segments: Vec<Window>,
    decisions: Vec<Vec<PlanChoice>>,
    /// The service the pass filled (pass 0's is the oracle of the others).
    service: PqoService,
}

/// One timed pass over the seed's instances into a fresh service, cut into
/// segments of `segment_len` decisions. Pass 0 (`reference` is `None`) keeps
/// its decisions; every later pass serves the same instances into a fresh
/// cache, so it has to decide as pass 0 did, and is compared with it on the
/// spot.
fn timed_pass(
    env: &Env,
    segment_len: usize,
    mut reference: Option<(&Pass, &mut Checker)>,
) -> Result<Pass, String> {
    let own_cpu = || procfs::own_thread_run_ns().map_err(|e| e.to_string());
    let service = quality::fresh_service(&env.all(), env.lambda);
    let mut decisions = Vec::new();
    let mut segments = Vec::new();
    let mut latencies_ns = Vec::with_capacity(segment_len);
    let mut cpu0 = own_cpu()?;
    let mut start = Instant::now();
    for (ti, t) in env.templates.iter().enumerate() {
        let mut kept = Vec::with_capacity(if reference.is_none() {
            t.instances.len()
        } else {
            0
        });
        for (i, q) in t.instances.iter().enumerate() {
            let t0 = Instant::now();
            let choice = service.get_plan(&t.id, q).expect("template is registered");
            latencies_ns.push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
            match &mut reference {
                Some((first, checker)) => checker.check(
                    ti,
                    &first.decisions[ti][i],
                    Decision::from(&choice),
                    &first.service,
                ),
                None => kept.push(choice),
            }
            if latencies_ns.len() == segment_len {
                let wall = start.elapsed();
                let cpu = own_cpu()?;
                let full = std::mem::replace(&mut latencies_ns, Vec::with_capacity(segment_len));
                segments.push(Window {
                    wall,
                    latencies_ns: full,
                    cpu_ns: cpu - cpu0,
                    other_ops: 0,
                });
                cpu0 = cpu;
                start = Instant::now();
            }
        }
        decisions.push(kept);
    }
    Ok(Pass {
        segments,
        decisions,
        service,
    })
}

/// The reference streams through a fresh service, scored against ground
/// truth: the quality metrics. Untimed.
fn reference_quality(env: &Env, report: &mut Report) {
    let templates = env.all();
    let streams: Vec<_> = templates
        .iter()
        .map(|t| t.reference(t.instances.len()))
        .collect();
    let service = quality::fresh_service(&templates, env.lambda);
    let decisions = quality::oracle_decisions(&service, &templates, &streams);
    let scored = quality::score(&templates, env.lambda, &service, &streams, &decisions);
    if scored.optimizer_calls != service.total_optimizer_calls() {
        report.violations.push(format!(
            "engine counted {} optimizer calls, decisions say {}",
            service.total_optimizer_calls(),
            scored.optimizer_calls
        ));
    }
    scored.report(report);
    report
        .violations
        .extend(scored.guarantee_violation(env.lambda));
}

/// The gated run of an embedded workload.
pub fn run(env: &Env, seconds: f64, report: &mut Report) -> Result<(), String> {
    let pid = std::process::id();
    let budget = Duration::from_secs_f64(seconds);
    let per_pass = env.decisions_per_pass();
    let segments = env.workload.segments();
    assert_eq!(per_pass % segments, 0, "segments divide a pass evenly");
    let mut checker = Checker::new(&env.all());
    let mut best = BestSegments::new(segments);
    // Offers a pass' segments to `best`; returns the pass' wall time, s.
    let mut keep = |pass: &mut Pass| -> f64 {
        let mut wall = Duration::ZERO;
        for (k, window) in pass.segments.drain(..).enumerate() {
            wall += window.wall;
            best.offer(k, window);
        }
        wall.as_secs_f64()
    };

    procfs::reset_own_peak_rss();
    let started = Instant::now();
    let mut first = timed_pass(env, per_pass / segments, None)?;
    // Wall time of every pass, for the raw figures.
    let mut walls = vec![keep(&mut first)];
    while walls.len() < MIN_PASSES || started.elapsed() < budget {
        // Pass by pass round the CPUs (see `affinity`).
        affinity::turn(walls.len())
            .and_then(|cpu| cpu.pin_current_thread())
            .map_err(|e| format!("moving to the next CPU: {e}"))?;
        let mut pass = timed_pass(env, per_pass / segments, Some((&first, &mut checker)))?;
        walls.push(keep(&mut pass));
    }
    let rss = procfs::peak_rss_mib(pid).map_err(|e| e.to_string())?;

    // Output checks, untimed: pass 0 against the sequential technique.
    let oracle = sequential_oracle(env);
    for (ti, (wanted, got)) in oracle.iter().zip(&first.decisions).enumerate() {
        for (want, got) in wanted.iter().zip(got) {
            checker.check(ti, want, Decision::from(got), &first.service);
        }
    }
    reference_quality(env, report);

    let stitched = best.summary().ok_or("no timed pass")?;
    let passes = walls.len();
    report.attempted += checker.compared;
    report.failed += checker.failed;
    report.notes.extend(checker.note());
    report.set("throughput_rps", stitched.rate, passes as u64);
    report.set("p50_us", stitched.p50_us, stitched.samples as u64);
    report.set("p99_us", stitched.p99_us, stitched.samples as u64);
    report.set("cpu_us_per_req", stitched.cpu_us_per_op, passes as u64);
    report.set("rss_mib", rss, 1);
    report.note(format!(
        "{passes} passes of {per_pass} decisions in {segments} segments, each segment's fastest \
         rendition stitched into the pass reported; raw: whole phase {:.0} 1/s, median pass \
         {:.0} 1/s, best pass {:.0} 1/s",
        (passes * per_pass) as f64 / walls.iter().sum::<f64>(),
        per_pass as f64 / estimator::median(&walls),
        per_pass as f64 / estimator::quantile(&walls, 0.0),
    ));
    Ok(())
}
