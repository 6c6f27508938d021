//! `replica_follow`: a primary taking paced, miss-heavy writes while a
//! closed-loop reader asks a replica about instances the primary has already
//! answered. Publication, replication records and apply run beside reads.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pqo_core::PqoService;
use pqo_optimizer::template::QueryInstance;

use crate::affinity;
use crate::estimator::{self, WindowedLoop};
use crate::inputs::{Served, TemplateInput, REPLICA_WRITER_RATE, WARM};
use crate::quality::{self, Checker};
use crate::report::Report;
use crate::run::Paths;
use crate::servers::{Role, Server};
use crate::wire::{Decision, WINDOW, WINDOWS_PER_TURN};

/// How many of the writer's most recently optimized instances the reader
/// replays.
const RECENT: usize = 64;
/// How long the replica may take to converge once the writes stop.
const QUIESCE: Duration = Duration::from_secs(5);

pub struct Fleet {
    pub primary: Server,
    pub replica: Server,
    /// Per template: the reference stream set-up served through the primary,
    /// and the decisions the primary made on it.
    streams: Vec<Vec<QueryInstance>>,
    warm: Vec<Vec<Decision>>,
}

/// Launch → ready: spawn the primary and its replica, serve every template's
/// reference stream through the primary (the warm-up, and the stream the
/// quality metrics are scored on), and wait until the replica reports the
/// primary's generation for each — proof that the subscription is live.
pub fn start_fleet(served: &Served<'_>, paths: &Paths) -> Result<Fleet, String> {
    let spawn = |role| Server::spawn(&paths.pqo, served.serve, served.lambda, role);
    let primary = spawn(Role::Primary)?;
    let replica = spawn(Role::ReplicaOf(&primary.addr))?;
    let mut writer = primary.connect()?;
    let streams: Vec<_> = served.templates.iter().map(|t| t.reference(WARM)).collect();
    let mut warm = Vec::with_capacity(streams.len());
    for (t, stream) in served.templates.iter().zip(&streams) {
        let mut decisions = Vec::with_capacity(stream.len());
        for q in stream {
            let choice = writer
                .get_plan(&t.id, &q.values)
                .map_err(|e| format!("warm-up on {}: {e}", t.id))?;
            decisions.push(Decision::from(&choice));
        }
        warm.push(decisions);
    }
    let fleet = Fleet {
        primary,
        replica,
        streams,
        warm,
    };
    let lagging = converge(served, &fleet, QUIESCE)?;
    if lagging > 0 {
        return Err(format!(
            "replica never caught up on {lagging} template(s) at start"
        ));
    }
    Ok(fleet)
}

/// Poll both servers' `STATS` until, for every template, the replica's
/// generation equals the primary's and it reports no lag, or `limit` passes.
/// Returns how many templates had not converged.
pub fn converge(served: &Served<'_>, fleet: &Fleet, limit: Duration) -> Result<u64, String> {
    let mut p = fleet.primary.connect()?;
    let mut r = fleet.replica.connect()?;
    let deadline = Instant::now() + limit;
    loop {
        let mut lagging = 0;
        for t in &served.templates {
            let ps = p.stats(&t.id).map_err(|e| format!("primary STATS: {e}"))?;
            let rs = r.stats(&t.id).map_err(|e| format!("replica STATS: {e}"))?;
            lagging += (rs.generation != ps.generation || rs.replica_lag != 0) as u64;
        }
        if lagging == 0 || Instant::now() >= deadline {
            return Ok(lagging);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One acknowledged write.
struct Write {
    template: usize,
    decision: Decision,
    generation: u64,
    sent: Instant,
    acked: Instant,
}

/// One answer the reader got from the replica.
struct Read {
    template: usize,
    decision: Decision,
    generation: u64,
    at: Instant,
}

/// Replication lag as a reader experiences it, per generation the writes
/// produced: from the write's acknowledgement, or from its send, to the
/// reader's first replica answer at that generation or later. Generations
/// the reader never saw again are skipped.
fn lags_us(writes: &[Write], reads: &[Read], templates: usize) -> Lags {
    let mut lags = Lags::default();
    for template in 0..templates {
        // The reads of this template at which its generation rose: in time
        // order with rising generations.
        let mut seen: Vec<&Read> = Vec::new();
        for r in reads.iter().filter(|r| r.template == template) {
            if seen.last().is_none_or(|s| r.generation > s.generation) {
                seen.push(r);
            }
        }
        let mut produced = 0u64;
        for w in writes.iter().filter(|w| w.template == template) {
            if w.generation <= produced {
                continue;
            }
            produced = w.generation;
            let k = seen.partition_point(|s| s.generation < w.generation);
            if let Some(s) = seen.get(k) {
                let since = |t: Instant| s.at.saturating_duration_since(t).as_secs_f64() * 1e6;
                lags.ack_to_seen_us.push(since(w.acked));
                lags.send_to_seen_us.push(since(w.sent));
            }
        }
        // How many generations behind the acknowledged writes each read was.
        let writes: Vec<&Write> = writes.iter().filter(|w| w.template == template).collect();
        for r in reads.iter().filter(|r| r.template == template) {
            let k = writes.partition_point(|w| w.acked <= r.at);
            if let Some(w) = k.checked_sub(1).map(|k| writes[k]) {
                lags.max_generations_behind = lags
                    .max_generations_behind
                    .max(w.generation.saturating_sub(r.generation));
            }
        }
    }
    lags
}

#[derive(Default)]
struct Lags {
    ack_to_seen_us: Vec<f64>,
    send_to_seen_us: Vec<f64>,
    max_generations_behind: u64,
}

/// What the timed phase measured besides the gated metrics (the traced run
/// reports these as layer metrics).
#[derive(Default)]
pub struct FollowStats {
    pub lag_p50_us: f64,
    pub fresh_visible_p50_us: f64,
    pub generations: u64,
    /// Most generations any read was behind the writes acknowledged by then.
    pub lag_gens_max: u64,
    pub reads: u64,
}

/// The timed phase: the writer sends `writes_per_template` instances of each
/// template to the primary at a fixed pace; the reader asks the replica, in a
/// closed loop, about the instances the writer most recently got optimized.
/// Those reads never change the cache, so the writer's stream stays
/// comparable with the oracle.
pub fn follow(
    served: &Served<'_>,
    fleet: &Fleet,
    writes_per_template: usize,
    report: &mut Report,
) -> Result<FollowStats, String> {
    let templates = &served.templates;
    let n_templates = templates.len();
    let total = writes_per_template * n_templates;
    let pace = Duration::from_secs_f64(1.0 / REPLICA_WRITER_RATE as f64);
    // Instances (with their template) the reader may ask about, newest last.
    // To begin with, every template's first reference instance: the first
    // instance a cache sees is always optimized.
    let recent: Mutex<VecDeque<(usize, &QueryInstance)>> = Mutex::new(
        fleet
            .streams
            .iter()
            .enumerate()
            .map(|(t, stream)| (t, &stream[0]))
            .collect(),
    );
    let done = AtomicBool::new(false);
    // Which turn on the CPUs the phase is in (see `affinity`): the reader
    // moves itself and both servers, the writer follows.
    let turn = AtomicUsize::new(0);

    let written = AtomicU64::new(0);
    let mut writer_client = fleet.primary.connect()?;
    let mut reader_client = fleet.replica.connect()?;
    let start = Instant::now() + Duration::from_millis(20);

    type ReaderOut = (Vec<estimator::Window>, Vec<Read>);
    let (writes, reader): (Result<Vec<Write>, String>, Result<ReaderOut, String>) =
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| -> Result<Vec<Write>, String> {
                let mut writes = Vec::with_capacity(total);
                let mut my_turn = 0;
                let result = (|| {
                    for k in 0..total {
                        let now_turn = turn.load(Ordering::Relaxed);
                        if now_turn != my_turn {
                            my_turn = now_turn;
                            let cpu = affinity::turn(my_turn).map_err(|e| e.to_string())?;
                            cpu.pin_current_thread().map_err(|e| e.to_string())?;
                        }
                        let (template, instance) = (k % n_templates, k / n_templates);
                        let due = start + pace * k as u32;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let t = templates[template];
                        let q = &t.instances[instance];
                        let sent = Instant::now();
                        let choice = writer_client
                            .get_plan(&t.id, &q.values)
                            .map_err(|e| format!("write on {}: {e}", t.id))?;
                        written.fetch_add(1, Ordering::Relaxed);
                        writes.push(Write {
                            template,
                            decision: Decision::from(&choice),
                            generation: choice.generation,
                            sent,
                            acked: Instant::now(),
                        });
                        // Only instances the primary optimized: each is stored
                        // in the cache, so reading it again is a selectivity hit
                        // on itself that changes nothing. (A repeat of an
                        // instance served by the cost check can miss once its
                        // nearest neighbours have changed, and would then
                        // write.) These are also exactly the instances whose
                        // generation the reader is waiting to see.
                        if choice.optimized {
                            let mut recent = recent.lock().expect("recent list poisoned");
                            recent.push_back((template, q));
                            if recent.len() > RECENT {
                                recent.pop_front();
                            }
                        }
                    }
                    Ok(())
                })();
                done.store(true, Ordering::SeqCst);
                result.map(|()| writes)
            });
            let reader = scope.spawn(|| -> Result<ReaderOut, String> {
                let mut windows = WindowedLoop::new(WINDOW, start);
                let mut reads = Vec::with_capacity(256 * 1024);
                let mut cursor = 0usize;
                let servers_cpu = || -> Result<u64, String> {
                    Ok(fleet.primary.run_ns()? + fleet.replica.run_ns()?)
                };
                let (mut cpu_mark, mut writes_mark): (u64, u64) = (servers_cpu()?, 0);
                std::thread::sleep(start.saturating_duration_since(Instant::now()));
                while !done.load(Ordering::SeqCst) {
                    let (template, q) = {
                        let recent = recent.lock().expect("recent list poisoned");
                        cursor = (cursor + 1) % recent.len();
                        // Newest first: index from the back.
                        recent[recent.len() - 1 - cursor]
                    };
                    let t = templates[template];
                    let t0 = Instant::now();
                    let choice = reader_client
                        .get_plan(&t.id, &q.values)
                        .map_err(|e| format!("read on {}: {e}", t.id))?;
                    let now = Instant::now();
                    if windows.record(now, now - t0) {
                        // A window has just ended: what both servers spent in
                        // it, on its reads and on the writes beside them.
                        let (cpu, writes) = (servers_cpu()?, written.load(Ordering::Relaxed));
                        if let Some(ended) = windows.last_completed() {
                            ended.cpu_ns = cpu - cpu_mark;
                            ended.other_ops = writes - writes_mark;
                        }
                        (cpu_mark, writes_mark) = (cpu, writes);
                        if windows.completed().is_multiple_of(WINDOWS_PER_TURN) {
                            let n = windows.completed() / WINDOWS_PER_TURN;
                            let cpu = affinity::turn(n).map_err(|e| e.to_string())?;
                            cpu.pin_current_thread().map_err(|e| e.to_string())?;
                            fleet.primary.pin(&cpu)?;
                            fleet.replica.pin(&cpu)?;
                            turn.store(n, Ordering::Relaxed);
                        }
                    }
                    reads.push(Read {
                        template,
                        decision: Decision::from(&choice),
                        generation: choice.generation,
                        at: now,
                    });
                }
                Ok((windows.finish(), reads))
            });
            (
                writer.join().expect("writer panicked"),
                reader.join().expect("reader panicked"),
            )
        });
    // Back to the CPU the caller runs on, whatever the threads returned.
    let home = affinity::turn(0).map_err(|e| e.to_string())?;
    fleet.primary.pin(&home)?;
    fleet.replica.pin(&home)?;
    let writes = writes?;
    let (mut windows, reads) = reader?;

    // Output checks, untimed. What the primary served against the oracle, in
    // the order it served it: the reference streams, then the paced writes.
    let oracle = quality::fresh_service(templates, served.lambda);
    let mut checker = Checker::new(templates);
    let expected = quality::oracle_decisions(&oracle, templates, &fleet.streams);
    for (ti, (wanted, got)) in expected.iter().zip(&fleet.warm).enumerate() {
        for (want, got) in wanted.iter().zip(got) {
            checker.check(ti, want, *got, &oracle);
        }
    }
    let quality = quality::score(templates, served.lambda, &oracle, &fleet.streams, &expected);
    for (k, w) in writes.iter().enumerate() {
        let t = templates[w.template];
        let q = &t.instances[k / n_templates];
        let want = oracle.get_plan(&t.id, q).expect("registered");
        checker.check(w.template, &want, w.decision, &oracle);
    }
    let mut failed = checker.failed;
    report.notes.extend(checker.note());
    // A read of an instance the primary optimized is a cache hit on a plan
    // the primary holds, whichever generation the replica answered from.
    failed += reads_off_cache(&oracle, templates, &reads);
    // Quiesce: the replica has to reach the primary's generation.
    failed += converge(served, fleet, QUIESCE)?;

    let lags = lags_us(&writes, &reads, n_templates);
    if lags.ack_to_seen_us.is_empty() {
        return Err("the reader saw no generation the writer produced".into());
    }
    let summary = estimator::summarize(&mut windows).ok_or("the reader completed no window")?;
    report.attempted += checker.compared + reads.len() as u64 + n_templates as u64;
    report.failed += failed;
    report.set("throughput_rps", summary.rate, summary.quiet as u64);
    report.set("p50_us", summary.p50_us, summary.samples as u64);
    report.set("p99_us", summary.p99_us, summary.samples as u64);
    report.set(
        "cpu_us_per_req",
        summary.cpu_us_per_op,
        summary.quiet as u64,
    );
    report.set(
        "rss_mib",
        fleet.primary.peak_rss_mib()? + fleet.replica.peak_rss_mib()?,
        2,
    );
    quality.report(report);
    report
        .violations
        .extend(quality.guarantee_violation(served.lambda));
    let stats = FollowStats {
        lag_p50_us: estimator::median(&lags.ack_to_seen_us),
        fresh_visible_p50_us: estimator::median(&lags.send_to_seen_us),
        generations: lags.ack_to_seen_us.len() as u64,
        lag_gens_max: lags.max_generations_behind,
        reads: reads.len() as u64,
    };
    report.note(format!(
        "reader: {} of {} windows of {} ms are quiet and reported; raw: whole phase {:.0} 1/s, \
         p50 {:.3} us, p99 {:.3} us, servers' CPU per decision {:.3} us; writer: {} writes at {} \
         1/s",
        summary.quiet,
        summary.windows,
        WINDOW.as_millis(),
        summary.raw_rate,
        summary.raw_p50_us,
        summary.raw_p99_us,
        summary.raw_cpu_us_per_op,
        writes.len(),
        REPLICA_WRITER_RATE
    ));
    report.note(format!(
        "replication lag p50 {:.1} us over {} generations (ack -> first replica answer at that \
         generation); send -> visible p50 {:.1} us; at most {} generations behind",
        stats.lag_p50_us, stats.generations, stats.fresh_visible_p50_us, stats.lag_gens_max
    ));
    Ok(stats)
}

/// Reads that forced an optimizer call or named a plan the primary's cache
/// (mirrored by the oracle) does not hold.
fn reads_off_cache(oracle: &PqoService, templates: &[&TemplateInput], reads: &[Read]) -> u64 {
    let plans: Vec<BTreeSet<u64>> = templates
        .iter()
        .map(|t| {
            let snapshot = oracle.snapshot(&t.id).expect("registered");
            snapshot
                .cache()
                .plans()
                .map(|p| p.fingerprint().0)
                .collect()
        })
        .collect();
    reads
        .iter()
        .filter(|r| r.decision.optimized || !plans[r.template].contains(&r.decision.fingerprint))
        .count() as u64
}

/// Shut both servers down (replica first, so it never sees its primary die).
pub fn stop_fleet(fleet: Fleet) -> Result<(), String> {
    fleet.replica.shutdown()?;
    fleet.primary.shutdown()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_runs_to_the_first_answer_at_that_generation_or_later() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let d = Decision {
            fingerprint: 1,
            optimized: true,
        };
        let write = |generation, sent, acked| Write {
            template: 0,
            decision: d,
            generation,
            sent: at(sent),
            acked: at(acked),
        };
        // Generation 1 acked at 100, 2 at 300 (a hit at 400 repeats 2), 3 at 500.
        let writes = vec![
            write(1, 0, 100),
            write(2, 200, 300),
            write(2, 350, 400),
            write(3, 450, 500),
        ];
        // The reader still sees generation 0 at 150 (one behind the write
        // acknowledged at 100), jumps to 2 at 600 and never sees 3.
        let read = |generation, us| Read {
            template: 0,
            decision: d,
            generation,
            at: at(us),
        };
        let reads = vec![read(0, 150), read(2, 600), read(2, 650)];
        let lags = lags_us(&writes, &reads, 1);
        assert_eq!(lags.ack_to_seen_us, vec![500.0, 300.0]);
        assert_eq!(lags.send_to_seen_us, vec![600.0, 400.0]);
        assert_eq!(lags.max_generations_behind, 1);
    }
}
