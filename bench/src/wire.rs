//! `wire_hit`: an application calling `pqo serve` over TCP, one round trip
//! per decision on one connection, every timed request a repeat.
//!
//! One connection sends everything, so the order in which the server saw the
//! requests is known and its decisions can be replayed through an in-process
//! oracle and compared one by one.

use std::time::{Duration, Instant};

use pqo_core::PqoService;
use pqo_server::client::RemoteChoice;

use crate::affinity;
use crate::estimator::{self, WindowedLoop};
use crate::inputs::{wire_hit_request, Served, WARM, WIRE_HIT_LAP};
use crate::quality::{self, Checker, Quality};
use crate::report::Report;
use crate::run::Paths;
use crate::servers::{Role, Server};

/// Window length of every phase that is cut on the clock: short, so that
/// some windows fall between the neighbours' bursts, yet a couple of thousand
/// round trips long.
pub const WINDOW: Duration = Duration::from_millis(50);

pub use crate::quality::Decision;

impl From<&RemoteChoice> for Decision {
    fn from(c: &RemoteChoice) -> Self {
        Decision {
            fingerprint: c.fingerprint.0,
            optimized: c.optimized,
        }
    }
}

/// A warmed `wire_hit` server with the oracle that mirrors its caches.
pub struct Warmed {
    pub server: Server,
    pub oracle: PqoService,
    /// Quality of the reference stream, as the server decided it.
    pub quality: Quality,
    /// Set-up's decisions compared with the oracle; the timed phase adds to it.
    pub checker: Checker,
}

/// Launch → ready for `wire_hit`: spawn the server, connect, serve every
/// template's reference stream one `GET_PLAN` at a time (compared with the
/// oracle and scored: the quality metrics), then one lap of the timed stream,
/// so that every timed request is a repeat.
pub fn warm_server(served: &Served<'_>, paths: &Paths) -> Result<Warmed, String> {
    let templates = &served.templates;
    let server = Server::spawn(&paths.pqo, served.serve, served.lambda, Role::Standalone)?;
    let mut client = server.connect()?;
    let streams: Vec<_> = templates.iter().map(|t| t.reference(WARM)).collect();
    let mut got: Vec<Vec<Decision>> = Vec::with_capacity(templates.len());
    for (t, stream) in templates.iter().zip(&streams) {
        let mut decisions = Vec::with_capacity(stream.len());
        for q in stream {
            let choice = client
                .get_plan(&t.id, &q.values)
                .map_err(|e| format!("warm-up on {}: {e}", t.id))?;
            decisions.push(Decision::from(&choice));
        }
        got.push(decisions);
    }

    let oracle = quality::fresh_service(templates, served.lambda);
    let expected = quality::oracle_decisions(&oracle, templates, &streams);
    let mut checker = Checker::new(templates);
    for (ti, (wanted, got)) in expected.iter().zip(&got).enumerate() {
        for (want, got) in wanted.iter().zip(got) {
            checker.check(ti, want, *got, &oracle);
        }
    }
    let quality = quality::score(templates, served.lambda, &oracle, &streams, &expected);

    for i in 0..WIRE_HIT_LAP as u64 {
        let (ti, k) = wire_hit_request(templates.len(), i);
        let (t, q) = (templates[ti], &templates[ti].instances[k]);
        let got = client
            .get_plan(&t.id, &q.values)
            .map_err(|e| format!("warm-up lap on {}: {e}", t.id))?;
        let want = oracle.get_plan(&t.id, q).expect("template is registered");
        checker.check(ti, &want, Decision::from(&got), &oracle);
    }
    Ok(Warmed {
        server,
        oracle,
        quality,
        checker,
    })
}

/// Windows in one turn on a CPU (see `affinity`).
pub const WINDOWS_PER_TURN: usize = (affinity::TURN.as_millis() / WINDOW.as_millis()) as usize;

/// The gated run: one connection in a closed loop over the laps of the timed
/// stream, cut into windows on the clock. The server's CPU time is read when
/// a window ends; every [`WINDOWS_PER_TURN`] windows client and server move to
/// the next CPU together.
pub fn run(
    served: &Served<'_>,
    warmed: Warmed,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let Warmed {
        server,
        oracle,
        quality,
        mut checker,
    } = warmed;
    let templates = &served.templates;
    let mut client = server.connect()?;
    let mut decisions: Vec<Decision> = Vec::with_capacity(2 << 20);
    let mut cpu_mark = server.run_ns()?;

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut windows = WindowedLoop::new(WINDOW, start);
    loop {
        let (ti, k) = wire_hit_request(templates.len(), decisions.len() as u64);
        let t = templates[ti];
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let choice = client
            .get_plan(&t.id, &t.instances[k].values)
            .map_err(|e| format!("GET_PLAN on {}: {e}", t.id))?;
        let now = Instant::now();
        decisions.push(Decision::from(&choice));
        if windows.record(now, now - t0) {
            // A window has just ended: what the server spent in it.
            let cpu = server.run_ns()?;
            if let Some(ended) = windows.last_completed() {
                ended.cpu_ns = cpu - cpu_mark;
            }
            cpu_mark = cpu;
            if windows.completed().is_multiple_of(WINDOWS_PER_TURN) {
                let cpu = affinity::turn(windows.completed() / WINDOWS_PER_TURN)
                    .map_err(|e| e.to_string())?;
                cpu.pin_current_thread().map_err(|e| e.to_string())?;
                server.pin(&cpu)?;
            }
        }
    }
    drop(client);
    let rss = server.peak_rss_mib()?;

    // Output check, untimed: every timed decision against the oracle, in the
    // order the server saw the requests.
    for (i, got) in decisions.iter().enumerate() {
        let (ti, k) = wire_hit_request(templates.len(), i as u64);
        let t = templates[ti];
        let want = oracle
            .get_plan(&t.id, &t.instances[k])
            .expect("template is registered");
        checker.check(ti, &want, *got, &oracle);
    }
    server.shutdown()?;

    let mut windows = windows.finish();
    let phase = estimator::summarize(&mut windows).ok_or("the timed phase completed no window")?;
    report.attempted += checker.compared;
    report.failed += checker.failed;
    report.notes.extend(checker.note());
    report.set("throughput_rps", phase.rate, phase.quiet as u64);
    report.set("p50_us", phase.p50_us, phase.samples as u64);
    report.set("p99_us", phase.p99_us, phase.samples as u64);
    report.set("cpu_us_per_req", phase.cpu_us_per_op, phase.quiet as u64);
    report.set("rss_mib", rss, 1);
    quality.report(report);
    report
        .violations
        .extend(quality.guarantee_violation(served.lambda));
    report.note(format!(
        "1 connection: {} of {} windows of {} ms are quiet and reported; raw: whole phase {:.0} \
         1/s, p50 {:.3} us, p99 {:.3} us, server CPU per request {:.3} us",
        phase.quiet,
        phase.windows,
        WINDOW.as_millis(),
        phase.raw_rate,
        phase.raw_p50_us,
        phase.raw_p99_us,
        phase.raw_cpu_us_per_op
    ));
    Ok(())
}
