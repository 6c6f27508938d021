//! The traced run (`--trace 1`): where a request's time goes, layer by
//! layer, timed by the benchmark around the public calls into each layer.
//!
//! Three parts, each on the workload's own templates and instances:
//!
//! * **A — staged `get_plan`.** A replica of `PqoService::get_plan` built
//!   only from public calls (`compute_svector` → `SnapshotCell::load` →
//!   `try_cached_plan_with` → `optimize` → `CacheWriter::manage_cache_entry`)
//!   with a span around each, its decisions asserted equal to the service's.
//! * **B — in-process probes** of the layers the staged path does not
//!   isolate: catalogs, SQL compile, optimizer by relation count, Recost,
//!   batching, replication records, persistence, the wire codec.
//! * **C — wire probes** against a primary and a replica serving the same
//!   templates: a short `replica_follow`, the echo floor, the staged client,
//!   two connections, batches, connects, one probe that is not pinned to a
//!   CPU and an open-loop ladder.
//!
//! Part lengths scale with `--seconds`; at the benchmark's 20 s a traced
//! run measures for about as long as a gated one.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pqo_core::scr::{GetPlanScratch, Scr, ScrConfig, ScrStats};
use pqo_core::{CacheWriter, PlanChoice, PqoService, SnapshotCell};
use pqo_optimizer::engine::QueryEngine;
use pqo_optimizer::recost::RecostScratch;
use pqo_optimizer::template::{QueryInstance, QueryTemplate};
use pqo_workload::corpus::corpus;
use pqo_workload::regions;

use crate::affinity;
use crate::estimator::{self, median};
use crate::inputs::{
    self, mix, wire_hit_request, Env, Served, TemplateInput, Workload, REPLICA_WRITER_RATE, WARM,
};
use crate::quality::{self, Checker};
use crate::replica;
use crate::report::{Report, PER_LAYER};
use crate::run::{out_dir, Paths};
use crate::servers::{Role, Server};
use crate::spans::{by_layer, LayerTotals, Recorder};
use crate::wire::Decision;
use crate::wireprobes::{self, HitStream, OpenLoopStep};

/// Spans written to `trace_<workload>.jsonl`; the totals cover all of them.
const TRACE_FILE_SPANS: usize = 100_000;
/// Instances per template that warm the wire probes' servers.
const PROBE_WARM: usize = 200;
/// Open-loop arrival rates, requests per second.
const LADDER: [u64; 3] = [4000, 8000, 12000];
/// Latency limit for `client.max_rate_ok_rps`: p99 within a millisecond.
const LADDER_LIMIT_P99_US: f64 = 1000.0;

// ------------------------------------------------------------------ part A

/// One template's serving state, as `PqoService` keeps it per shard, held
/// in the open so every stage can be timed from outside.
struct StagedShard {
    engine: QueryEngine,
    published: SnapshotCell,
    writer: CacheWriter,
    scratch: GetPlanScratch,
}

impl StagedShard {
    fn new(template: &Arc<QueryTemplate>, lambda: f64) -> StagedShard {
        let config = ScrConfig::new(lambda).expect("workload λ is valid");
        let scr = Scr::with_config(config).expect("default config is valid");
        let (writer, first) = CacheWriter::new(scr);
        StagedShard {
            engine: QueryEngine::new(Arc::clone(template)),
            published: SnapshotCell::new(first),
            writer,
            scratch: GetPlanScratch::new(),
        }
    }

    /// `PqoService::get_plan`, stage by stage. Clock readings are shared by
    /// adjacent stages and the spans are stored after the last reading, so
    /// the recorder's own work falls outside every stage.
    fn get_plan(&mut self, q: &QueryInstance, rec: &mut Recorder, request: u64) -> PlanChoice {
        let t0 = rec.now();
        let sv = self.engine.compute_svector(q);
        let t1 = rec.now();
        let snapshot = self.published.load();
        let t2 = rec.now();
        let hit = snapshot.try_cached_plan_with(&sv, &self.engine, &mut self.scratch);
        let t3 = rec.now();
        let root = rec.open("get_plan", t0, request);
        rec.push("svector", t0, t1, root, request);
        rec.push("snapshot_load", t1, t2, root, request);
        if let Some(choice) = hit {
            rec.push("decide_hit", t2, t3, root, request);
            rec.close(root, t3);
            return choice;
        }
        let optimized = self.engine.optimize(&sv);
        let t4 = rec.now();
        let plan = Arc::clone(&optimized.plan);
        self.writer
            .manage_cache_entry(&sv, optimized, &self.engine, &self.published);
        let t5 = rec.now();
        rec.push("decide_miss", t2, t3, root, request);
        rec.push("optimize", t3, t4, root, request);
        rec.push("manage_publish", t4, t5, root, request);
        rec.close(root, t5);
        PlanChoice {
            plan,
            optimized: true,
        }
    }
}

/// The stream part A serves on template `t`: the seed's instances; on
/// `wire_hit` what that workload's server sees — the reference stream, the
/// seed's instances once, then a stretch of repeats, which is what the
/// workload mostly consists of.
fn traced_stream(env: &Env, t: &TemplateInput) -> Vec<QueryInstance> {
    if env.workload != Workload::WireHit {
        return t.instances.clone();
    }
    let mut stream = t.reference(WARM);
    stream.extend(t.instances.iter().cloned());
    stream.extend((0..20_000).map(|i| t.instances[wire_hit_request(1, i).1].clone()));
    stream
}

struct PartA {
    /// Spans of the kept staged pass, and their totals by stage.
    rec: Recorder,
    layers: std::collections::BTreeMap<&'static str, LayerTotals>,
    /// Decisions per pass, and passes run of each kind.
    decisions: u64,
    passes: u64,
    /// Wall time of the kept staged pass and of the kept `PqoService` pass.
    staged_wall: Duration,
    service_wall: Duration,
    /// Counters of the kept service pass, summed over templates.
    stats: ScrStats,
    instances_cached: u64,
    /// The kept service pass' service, for the probes that need warm caches.
    service: PqoService,
    /// Staged decisions compared with the service's.
    checker: Checker,
}

fn add_stats(total: &mut ScrStats, s: &ScrStats) {
    total.selectivity_hits += s.selectivity_hits;
    total.cost_hits += s.cost_hits;
    total.optimizer_calls += s.optimizer_calls;
    total.redundant_plans_discarded += s.redundant_plans_discarded;
    total.getplan_recost_calls += s.getplan_recost_calls;
    total.publishes += s.publishes;
    total.publish_nanos += s.publish_nanos;
}

/// Staged and plain passes alternate until `budget` is spent. Of each kind
/// the pass with the shortest wall time is kept — the one the neighbours
/// disturbed least — so that the two are compared on equal terms.
fn part_a(env: &Env, budget: Duration) -> PartA {
    let streams: Vec<Vec<QueryInstance>> = env
        .templates
        .iter()
        .map(|t| traced_stream(env, t))
        .collect();
    let per_pass: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let started = Instant::now();
    let mut passes = 0u64;
    let mut checker = Checker::new(&env.all());
    let mut best_staged: Option<(Duration, Recorder)> = None;
    let mut best_service: Option<(Duration, PqoService)> = None;
    while passes == 0 || started.elapsed() < budget {
        // Staged pass, traced.
        let mut rec = Recorder::with_capacity(8 * per_pass as usize);
        let mut shards: Vec<StagedShard> = env
            .templates
            .iter()
            .map(|t| StagedShard::new(&t.template, env.lambda))
            .collect();
        let mut staged: Vec<PlanChoice> = Vec::with_capacity(per_pass as usize);
        let t0 = Instant::now();
        for (shard, stream) in shards.iter_mut().zip(&streams) {
            for q in stream {
                let request = staged.len() as u64;
                staged.push(shard.get_plan(q, &mut rec, request));
            }
        }
        let wall = t0.elapsed();
        drop(shards);
        if best_staged.as_ref().is_none_or(|(best, _)| wall < *best) {
            best_staged = Some((wall, rec));
        }

        // The same streams through the service, untraced.
        let service = quality::fresh_service(&env.all(), env.lambda);
        let mut k = 0;
        let t0 = Instant::now();
        for (ti, (t, stream)) in env.templates.iter().zip(&streams).enumerate() {
            for q in stream {
                let choice = service.get_plan(&t.id, q).expect("template is registered");
                checker.check(ti, &choice, Decision::from(&staged[k]), &service);
                k += 1;
            }
        }
        let wall = t0.elapsed();
        if best_service.as_ref().is_none_or(|(best, _)| wall < *best) {
            best_service = Some((wall, service));
        }
        passes += 1;
    }
    let (staged_wall, rec) = best_staged.expect("at least one pass ran");
    let (service_wall, service) = best_service.expect("at least one pass ran");
    let mut stats = ScrStats::default();
    let mut instances_cached = 0u64;
    for t in &env.templates {
        add_stats(&mut stats, &service.scr_stats(&t.id).expect("registered"));
        let snapshot = service.snapshot(&t.id).expect("registered");
        instances_cached += snapshot.cache().num_instances() as u64;
    }
    PartA {
        layers: by_layer(rec.spans()),
        rec,
        decisions: per_pass,
        passes,
        staged_wall,
        service_wall,
        stats,
        instances_cached,
        service,
        checker,
    }
}

// ------------------------------------------------------------------ part B

/// Median nanoseconds of one `QueryEngine::optimize` call on `template`,
/// over seeded instances.
fn optimize_ns(template: &Arc<QueryTemplate>, seed: u64, calls: usize) -> f64 {
    let engine = QueryEngine::new(Arc::clone(template));
    let samples: Vec<f64> = regions::generate(template, calls, seed)
        .iter()
        .map(|q| {
            let sv = engine.compute_svector(q);
            let t0 = Instant::now();
            std::hint::black_box(engine.optimize(&sv));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Mean ns of `prepare_recost` per cached plan and of `recost_prepared` per
/// call, over the plans `service` holds for (up to 12 of) the templates.
fn recost_ns(env: &Env, service: &PqoService) -> (f64, f64, u64) {
    let (mut prepare, mut prepares) = (Duration::ZERO, 0u64);
    let (mut recost, mut recosts) = (Duration::ZERO, 0u64);
    for t in env.templates.iter().take(12) {
        let engine = QueryEngine::new(Arc::clone(&t.template));
        let snapshot = service.snapshot(&t.id).expect("registered");
        let svs: Vec<_> = t
            .instances
            .iter()
            .take(200)
            .map(|q| engine.compute_svector(q))
            .collect();
        let mut scratch = RecostScratch::new();
        for plan in snapshot.cache().plans() {
            let t0 = Instant::now();
            let prepared = engine.prepare_recost(plan);
            prepare += t0.elapsed();
            prepares += 1;
            let t0 = Instant::now();
            for sv in &svs {
                std::hint::black_box(engine.recost_prepared(&prepared, sv, &mut scratch));
            }
            recost += t0.elapsed();
            recosts += svs.len() as u64;
        }
    }
    (
        prepare.as_nanos() as f64 / prepares.max(1) as f64,
        recost.as_nanos() as f64 / recosts.max(1) as f64,
        recosts,
    )
}

/// Nanoseconds per instance of `get_plan_batch` in frames of 32.
fn batch_ns(env: &Env) -> (f64, u64) {
    let service = quality::fresh_service(&env.all(), env.lambda);
    let (mut wall, mut n) = (Duration::ZERO, 0u64);
    for t in &env.templates {
        let head = &t.instances[..t.instances.len().min(512)];
        let t0 = Instant::now();
        for frame in head.chunks(32) {
            std::hint::black_box(service.get_plan_batch(&t.id, frame).expect("registered"));
        }
        wall += t0.elapsed();
        n += head.len() as u64;
    }
    (wall.as_nanos() as f64 / n as f64, n)
}

#[derive(Default)]
struct ReplicationCosts {
    encode_delta_ns: Vec<f64>,
    encode_full_ns: Vec<f64>,
    apply_ns: Vec<f64>,
    delta_bytes: Vec<f64>,
    full_bytes: Vec<f64>,
}

/// Replay (up to 12 of) the templates through a primary service and ship
/// every generation it publishes to a follower, as the servers do.
fn replication_costs(env: &Env) -> Result<ReplicationCosts, String> {
    let templates: Vec<&TemplateInput> = env.templates.iter().take(12).collect();
    let primary = quality::fresh_service(&templates, env.lambda);
    let follower = quality::fresh_service(&templates, env.lambda);
    let mut costs = ReplicationCosts::default();
    for t in &templates {
        let mut applied = 0u64;
        for q in t.instances.iter().take(400) {
            let (_, generation) = primary
                .get_plan_with_generation(&t.id, q)
                .map_err(|e| e.to_string())?;
            if generation <= applied {
                continue;
            }
            let t0 = Instant::now();
            let (record, _) = primary
                .generation_record(&t.id, Some(applied))
                .map_err(|e| e.to_string())?;
            costs.encode_delta_ns.push(t0.elapsed().as_nanos() as f64);
            costs.delta_bytes.push(record.len() as f64);
            let t0 = Instant::now();
            applied = follower
                .apply_generation(&t.id, &record)
                .map_err(|e| format!("apply on {}: {e}", t.id))?;
            costs.apply_ns.push(t0.elapsed().as_nanos() as f64);
            if applied % 16 == 1 {
                let t0 = Instant::now();
                let (full, _) = primary
                    .generation_record(&t.id, None)
                    .map_err(|e| e.to_string())?;
                costs.encode_full_ns.push(t0.elapsed().as_nanos() as f64);
                costs.full_bytes.push(full.len() as f64);
            }
        }
        if follower.generation(&t.id) != primary.generation(&t.id) {
            return Err(format!("in-process follower diverged on {}", t.id));
        }
    }
    Ok(costs)
}

/// Save and restore (up to 12 of) the warm caches of `service`.
fn persist_costs(env: &Env, service: &PqoService) -> Result<(f64, f64, f64, u64), String> {
    let (mut save, mut restore, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for t in env.templates.iter().take(12) {
        let mut blob = Vec::new();
        let t0 = Instant::now();
        service.save(&t.id, &mut blob).map_err(|e| e.to_string())?;
        save.push(t0.elapsed().as_secs_f64() * 1e6);
        bytes.push(blob.len() as f64);
        let restored = PqoService::new();
        let config = ScrConfig::new(env.lambda).expect("workload λ is valid");
        let t0 = Instant::now();
        restored
            .register_restored(Arc::clone(&t.template), config, &mut blob.as_slice())
            .map_err(|e| format!("restore {}: {e}", t.id))?;
        restore.push(t0.elapsed().as_secs_f64() * 1e6);
        if quality::plans_of(&restored, &t.id) != quality::plans_of(service, &t.id) {
            return Err(format!("restored cache of {} lost plans", t.id));
        }
    }
    let n = save.len() as u64;
    Ok((median(&save), median(&restore), median(&bytes), n))
}

// ------------------------------------------------------------------ part C

struct PartC {
    follow: replica::FollowStats,
    forward_rtt_us: f64,
    local_hit_share: f64,
    connect_us: f64,
    echo_us: f64,
    rtt: estimator::PhaseSummary,
    client: std::collections::BTreeMap<&'static str, LayerTotals>,
    traced_rate: f64,
    plain_rate: f64,
    ctx_per_req: f64,
    user_us_per_req: f64,
    sys_us_per_req: f64,
    batch_rtt_us: f64,
    parallel: Parallel,
    /// In-process `get_plan` on the stream the wire loops send, ns.
    hit_path_ns: f64,
    ladder: Vec<OpenLoopStep>,
    primary_exit: crate::servers::ExitSummary,
    replica_exit: crate::servers::ExitSummary,
}

/// Mean nanoseconds `PqoService::get_plan` takes in-process on the hit-only
/// stream the wire loops send: the program's own share of one round trip.
fn inprocess_hit_ns(t: &TemplateInput, lambda: f64, warm: usize, seed: u64) -> Result<f64, String> {
    let service = quality::fresh_service(&[t], lambda);
    let hits = HitStream::warm(t, warm, seed, |q| {
        Ok(service.get_plan(&t.id, q).expect("registered").optimized)
    })?;
    let n = 20_000u64;
    let t0 = Instant::now();
    for i in 0..n {
        let q = hits.request(i);
        std::hint::black_box(service.get_plan(&t.id, q).expect("registered"));
    }
    Ok(t0.elapsed().as_nanos() as f64 / n as f64)
}

/// A plain `PqoClient` closed loop over a hit-only stream.
fn plain_closed_loop(
    addr: &str,
    hits: &HitStream<'_>,
    length: Duration,
) -> Result<(f64, Vec<Decision>), String> {
    let mut client =
        pqo_server::PqoClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut decisions = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < length {
        let choice = client
            .get_plan(hits.id, &hits.request(i).values)
            .map_err(|e| format!("GET_PLAN on {}: {e}", hits.id))?;
        decisions.push(Decision::from(&choice));
        i += 1;
    }
    Ok((i as f64 / start.elapsed().as_secs_f64(), decisions))
}

/// Warm `server` on `warm` never-seen instances of each template and return
/// the hit-only streams over what it optimized.
fn warm_hits<'a>(
    server: &Server,
    templates: &[&'a TemplateInput],
    warm: usize,
    seed: u64,
) -> Result<Vec<HitStream<'a>>, String> {
    let mut client = server.connect()?;
    templates
        .iter()
        .map(|t| {
            HitStream::warm(t, warm, seed, |q| {
                client
                    .get_plan(&t.id, &q.values)
                    .map(|choice| choice.optimized)
                    .map_err(|e| format!("probe warm-up on {}: {e}", t.id))
            })
        })
        .collect()
}

/// What the one probe that is not pinned measured.
struct Parallel {
    /// Sum of the two connections' upper-quartile window rates.
    rps: f64,
    /// Mean of the two connections' lower-quartile window medians, µs.
    p50_us: f64,
    windows: u64,
}

/// Parallel capacity, as far as a 2-CPU sandbox shows it: a server of its
/// own and two closed-loop connections, one template each, all of them free
/// to run on every CPU (see `affinity`). Ungated: the same build measured
/// round trips of 25 to 88 µs this way.
fn parallel_probe(
    served: &Served<'_>,
    paths: &Paths,
    warm: usize,
    seed: u64,
    length: Duration,
) -> Result<Parallel, String> {
    let server = Server::spawn(&paths.pqo, served.serve, served.lambda, Role::Standalone)?;
    let pair = warm_hits(
        &server,
        &served.templates[..served.templates.len().min(2)],
        warm,
        seed,
    )?;
    let results: Vec<Result<estimator::PhaseSummary, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = pair
            .iter()
            .map(|hits| {
                let server = &server;
                scope.spawn(move || {
                    let mut client = server.connect()?;
                    let start = Instant::now();
                    let mut windows = estimator::WindowedLoop::new(crate::wire::WINDOW, start);
                    let mut i = 0u64;
                    while start.elapsed() < length {
                        let q = hits.request(i);
                        let t0 = Instant::now();
                        client
                            .get_plan(hits.id, &q.values)
                            .map_err(|e| format!("GET_PLAN on {}: {e}", hits.id))?;
                        let now = Instant::now();
                        windows.record(now, now - t0);
                        i += 1;
                    }
                    estimator::summarize(&mut windows.finish())
                        .ok_or_else(|| "the parallel probe completed no window".to_string())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    server.shutdown()?;
    let mut parallel = Parallel {
        rps: 0.0,
        p50_us: 0.0,
        windows: 0,
    };
    for r in results {
        let s = r?;
        parallel.rps += s.rate;
        parallel.p50_us += s.p50_us / pair.len() as f64;
        parallel.windows += s.windows as u64;
    }
    Ok(parallel)
}

fn part_c(
    env: &Env,
    seed: u64,
    unit: f64,
    paths: &Paths,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<PartC, String> {
    let served: Served<'_> = env.served();
    let secs = |s: f64| Duration::from_secs_f64(s * unit);
    // A short replica_follow on a fresh fleet, checked like the gated one.
    let fleet = replica::start_fleet(&served, paths)?;
    let shortest = served
        .templates
        .iter()
        .map(|t| t.instances.len())
        .min()
        .expect("a workload serves templates");
    let wanted = (REPLICA_WRITER_RATE as f64 * 3.0 * unit) as usize / served.templates.len();
    let writes_per_template = wanted.clamp(1, shortest);
    let hits_before = replica_hits(&served, &fleet)?;
    let mut scratch_report = Report::default();
    let follow = replica::follow(&served, &fleet, writes_per_template, &mut scratch_report)?;
    report.attempted += scratch_report.attempted;
    report.failed += scratch_report.failed;
    report.notes.append(&mut scratch_report.notes);
    let local_hits = replica_hits(&served, &fleet)? - hits_before;
    let local_hit_share = local_hits as f64 / follow.reads.max(1) as f64;

    // Never-seen instances through the replica: local misses, forwarded to
    // the primary, answered once the new generation has been applied.
    let t0 = served.templates[0];
    let fresh = regions::generate(&t0.template, 200, mix(seed, 77));
    let mut reader = fleet.replica.connect()?;
    let (mut forwarded, mut any) = (Vec::new(), Vec::new());
    for q in &fresh {
        let sent = Instant::now();
        let choice = reader
            .get_plan(&t0.id, &q.values)
            .map_err(|e| format!("fresh read on the replica: {e}"))?;
        let us = sent.elapsed().as_secs_f64() * 1e6;
        any.push(us);
        if choice.optimized {
            forwarded.push(us);
        }
    }
    drop(reader);
    let forward_rtt_us = median(if forwarded.is_empty() {
        &any
    } else {
        &forwarded
    });
    report.attempted += fresh.len() as u64;

    // The rest probes the primary. Warm it on every served template first.
    let addr = fleet.primary.addr.clone();
    let warm = PROBE_WARM;
    let hits = warm_hits(&fleet.primary, &served.templates, warm, mix(seed, 78))?;
    let hits0 = &hits[0];

    let mut connects = Vec::new();
    for _ in 0..20 {
        let sent = Instant::now();
        let c = fleet.primary.connect()?;
        connects.push(sent.elapsed().as_secs_f64() * 1e6);
        drop(c);
    }

    let (request_len, response_len) = wireprobes::frame_lengths(&t0.id, &t0.instances[0]);
    let (echo_us, _) = wireprobes::echo_rtt_us(request_len, response_len, secs(1.0))?;

    // One connection, staged and traced; then the same stream untraced.
    let cpu0 = fleet.primary.cpu()?;
    let ctx0 = fleet.primary.ctx_switches()?;
    let (mut windows, traced_decisions) =
        wireprobes::traced_closed_loop(&addr, hits0, secs(3.0), rec)?;
    let cpu = fleet.primary.cpu()?.since(&cpu0);
    let ctx = fleet.primary.ctx_switches()? - ctx0;
    let requests = traced_decisions.len().max(1) as f64;
    let rtt = estimator::summarize(&mut windows).ok_or("the traced loop completed no window")?;
    let (plain_rate, plain_decisions) = plain_closed_loop(&addr, hits0, secs(2.0))?;
    // Both loops ask the same questions of an unchanging cache.
    report.attempted += (traced_decisions.len() + plain_decisions.len()) as u64;
    report.failed += traced_decisions
        .iter()
        .zip(&plain_decisions)
        .filter(|(a, b)| a != b)
        .count() as u64;
    report.failed += traced_decisions.iter().filter(|d| d.optimized).count() as u64;

    // Two connections, one template each (queueing shows in STATS).
    let results: Vec<Result<(f64, Vec<Decision>), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = hits
            .iter()
            .take(2)
            .map(|hits| {
                let addr = addr.as_str();
                scope.spawn(move || plain_closed_loop(addr, hits, secs(2.0)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    for r in results {
        report.attempted += r?.1.len() as u64;
    }

    // Frames of 32.
    let mut client = fleet.primary.connect()?;
    let batch: Vec<Vec<f64>> = (0..32).map(|i| hits0.request(i).values.clone()).collect();
    let mut batch_rtts = Vec::new();
    let started = Instant::now();
    while started.elapsed() < secs(1.0) {
        let sent = Instant::now();
        let answers = client
            .get_plan_batch(&t0.id, &batch)
            .map_err(|e| format!("GET_PLAN_BATCH: {e}"))?;
        batch_rtts.push(sent.elapsed().as_secs_f64() * 1e6);
        report.attempted += answers.len() as u64;
    }
    drop(client);

    let parallel =
        affinity::unpinned(|| parallel_probe(&served, paths, warm, mix(seed, 78), secs(2.0)))
            .map_err(|e| format!("unpinning: {e}"))??;

    let mut ladder = Vec::new();
    for rate in LADDER {
        ladder.push(wireprobes::open_loop(&addr, hits0, rate, secs(2.0))?);
    }
    report.attempted += ladder.iter().map(|s| s.samples).sum::<u64>();

    let replica_exit = fleet.replica.shutdown()?;
    let primary_exit = fleet.primary.shutdown()?;
    Ok(PartC {
        follow,
        forward_rtt_us,
        local_hit_share,
        connect_us: median(&connects),
        echo_us,
        traced_rate: rtt.raw_rate,
        rtt,
        client: by_layer(rec.spans()),
        plain_rate,
        ctx_per_req: ctx as f64 / requests,
        user_us_per_req: cpu.user_us / requests,
        sys_us_per_req: cpu.sys_us / requests,
        batch_rtt_us: median(&batch_rtts),
        parallel,
        hit_path_ns: inprocess_hit_ns(t0, served.lambda, warm, mix(seed, 78))?,
        ladder,
        primary_exit,
        replica_exit,
    })
}

/// Decisions the replica answered from its own cache so far, all templates.
fn replica_hits(served: &Served<'_>, fleet: &replica::Fleet) -> Result<u64, String> {
    let mut client = fleet.replica.connect()?;
    let mut hits = 0;
    for t in &served.templates {
        let s = client
            .stats(&t.id)
            .map_err(|e| format!("replica STATS: {e}"))?;
        hits += s.selectivity_hits + s.cost_hits;
    }
    Ok(hits)
}

// ------------------------------------------------------------- the pipeline

fn mean_self(layers: &std::collections::BTreeMap<&'static str, LayerTotals>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, LayerTotals::mean_self_ns)
}

fn total(layers: &std::collections::BTreeMap<&'static str, LayerTotals>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, |t| t.total_ns as f64)
}

fn count(layers: &std::collections::BTreeMap<&'static str, LayerTotals>, name: &str) -> u64 {
    layers.get(name).map_or(0, |t| t.count)
}

pub fn run(env: &Env, seed: u64, seconds: f64, paths: &Paths) -> Result<Report, String> {
    let unit = seconds / 20.0;
    let mut report = Report::default();

    let a = part_a(env, Duration::from_secs_f64(3.0 * unit));
    report.attempted += 2 * a.decisions * a.passes;
    report.failed += a.checker.failed;
    report.notes.extend(a.checker.note());

    let per_decision = |ns: f64| ns / a.decisions as f64;
    let stage_sum = [
        "svector",
        "snapshot_load",
        "decide_hit",
        "decide_miss",
        "optimize",
        "manage_publish",
    ]
    .iter()
    .map(|s| total(&a.layers, s))
    .sum::<f64>();
    let root_total = total(&a.layers, "get_plan");
    let get_plan_ns = per_decision(a.service_wall.as_nanos() as f64);
    let glue_ns = get_plan_ns - per_decision(stage_sum);
    let decisions_last = a.stats.selectivity_hits + a.stats.cost_hits + a.stats.optimizer_calls;
    let share = |n: u64| n as f64 / decisions_last.max(1) as f64;

    report.set(
        "optimizer.svector_ns",
        mean_self(&a.layers, "svector"),
        count(&a.layers, "svector"),
    );
    report.set(
        "core.snapshot_load_ns",
        mean_self(&a.layers, "snapshot_load"),
        count(&a.layers, "snapshot_load"),
    );
    report.set(
        "core.decide_hit_ns",
        mean_self(&a.layers, "decide_hit"),
        count(&a.layers, "decide_hit"),
    );
    report.set(
        "core.decide_miss_ns",
        mean_self(&a.layers, "decide_miss"),
        count(&a.layers, "decide_miss"),
    );
    report.set(
        "optimizer.optimize_ns",
        mean_self(&a.layers, "optimize"),
        count(&a.layers, "optimize"),
    );
    report.set(
        "optimizer.optimize_calls",
        a.stats.optimizer_calls as f64,
        decisions_last,
    );
    report.set(
        "optimizer.optimize_time_share",
        total(&a.layers, "optimize") / root_total,
        a.decisions,
    );
    report.set(
        "core.decide_time_share",
        (total(&a.layers, "decide_hit") + total(&a.layers, "decide_miss")) / root_total,
        a.decisions,
    );
    report.set(
        "core.manage_publish_ns",
        mean_self(&a.layers, "manage_publish"),
        count(&a.layers, "manage_publish"),
    );
    report.set("core.get_plan_ns", get_plan_ns, a.decisions);
    report.set("core.service_glue_ns", glue_ns, a.decisions);
    report.set(
        "core.sel_hit_share",
        share(a.stats.selectivity_hits),
        decisions_last,
    );
    report.set(
        "core.cost_hit_share",
        share(a.stats.cost_hits),
        decisions_last,
    );
    report.set(
        "core.recosts_per_decision",
        share(a.stats.getplan_recost_calls),
        decisions_last,
    );
    report.set(
        "core.redundant_discard_share",
        a.stats.redundant_plans_discarded as f64 / a.stats.optimizer_calls.max(1) as f64,
        a.stats.optimizer_calls,
    );
    report.set(
        "core.publish_ns",
        a.stats.publish_nanos as f64 / a.stats.publishes.max(1) as f64,
        a.stats.publishes,
    );
    report.set(
        "core.instances_cached",
        a.instances_cached as f64,
        decisions_last,
    );
    let reconciles = (glue_ns / get_plan_ns).abs() <= 0.15;
    report.note(format!(
        "part A: {} passes of {} decisions, staged and through PqoService, the fastest of each \
         kept; stages sum to {:.0} ns/decision, PqoService::get_plan takes {:.0} ns/decision \
         ({}reconciled within 15%)",
        a.passes,
        a.decisions,
        per_decision(stage_sum),
        get_plan_ns,
        if reconciles { "" } else { "NOT " }
    ));

    // Part B.
    let tpch = pqo_catalog::schemas::tpch_skew();
    let tpcds = pqo_catalog::schemas::tpcds();
    let compiled = inputs::compile_sql_templates(&paths.bench_dir, &[tpch, tpcds])?;
    let compile_us: Vec<f64> = compiled.iter().map(|c| c.compile_us).collect();
    report.set("catalog.build_ms", env.timings.catalog_build_ms, 1);
    report.set(
        "sql.compile_us",
        median(&compile_us),
        compile_us.len() as u64,
    );
    report.set(
        "workload.generate_ns",
        env.timings.generate_ns,
        env.decisions_per_pass() as u64,
    );
    let by_relations = |n: usize| -> Result<Arc<QueryTemplate>, String> {
        corpus()
            .iter()
            .map(|s| &s.template)
            .chain(compiled.iter().map(|c| &c.template))
            .find(|t| t.num_relations() == n)
            .cloned()
            .ok_or_else(|| format!("no probe template with {n} relations"))
    };
    for (name, n) in [
        ("optimizer.optimize_ns.n3", 3),
        ("optimizer.optimize_ns.n5", 5),
        ("optimizer.optimize_ns.n8", 8),
    ] {
        let calls = 300;
        report.set(
            name,
            optimize_ns(&by_relations(n)?, mix(seed, n as u64), calls),
            calls as u64,
        );
    }
    let (prepare_ns, recost_prepared_ns, recosts) = recost_ns(env, &a.service);
    report.set("optimizer.prepare_recost_ns", prepare_ns, recosts / 200);
    report.set("optimizer.recost_prepared_ns", recost_prepared_ns, recosts);
    let (batch, batched) = batch_ns(env);
    report.set("core.get_plan_batch_ns", batch, batched);
    let repl = replication_costs(env)?;
    if repl.encode_delta_ns.is_empty() || repl.encode_full_ns.is_empty() {
        return Err("the replication probe published no generation".into());
    }
    report.set(
        "core.repl_encode_delta_ns",
        median(&repl.encode_delta_ns),
        repl.encode_delta_ns.len() as u64,
    );
    report.set(
        "core.repl_encode_full_ns",
        median(&repl.encode_full_ns),
        repl.encode_full_ns.len() as u64,
    );
    report.set(
        "core.repl_apply_ns",
        median(&repl.apply_ns),
        repl.apply_ns.len() as u64,
    );
    report.set(
        "core.repl_delta_bytes",
        median(&repl.delta_bytes),
        repl.delta_bytes.len() as u64,
    );
    report.set(
        "core.repl_full_bytes",
        median(&repl.full_bytes),
        repl.full_bytes.len() as u64,
    );
    let (save_us, restore_us, persist_bytes, persisted) = persist_costs(env, &a.service)?;
    report.set("core.persist_save_us", save_us, persisted);
    report.set("core.persist_restore_us", restore_us, persisted);
    report.set("core.persist_bytes", persist_bytes, persisted);
    let t0 = &env.templates[0];
    let codec_sample = &t0.instances[..t0.instances.len().min(2000)];
    let codec = wireprobes::codec_ns(&t0.id, codec_sample);
    for (name, ns) in [
        "wire.encode_request_ns",
        "wire.decode_request_ns",
        "wire.encode_response_ns",
        "wire.decode_response_ns",
        "conn.frame_assemble_ns",
    ]
    .into_iter()
    .zip(codec)
    {
        report.set(name, ns, codec_sample.len() as u64);
    }

    // Part C, with a recorder of its own.
    let mut rec_c = Recorder::with_capacity(1 << 20);
    let c = part_c(env, seed, unit, paths, &mut rec_c, &mut report)?;
    for (name, span) in [
        ("client.encode_ns", "client.encode"),
        ("client.write_ns", "client.write"),
        ("client.read_wait_ns", "client.read_wait"),
        ("client.decode_ns", "client.decode"),
    ] {
        report.set(name, mean_self(&c.client, span), count(&c.client, span));
    }
    // What of one round trip is the program's own serving path and codec;
    // the rest is the loopback floor (echo) and what pqo-server adds to it.
    let hit_path_us = c.hit_path_ns / 1e3;
    let codec_us = codec.iter().sum::<f64>() / 1e3;
    let dispatch_us = c.rtt.p50_us - c.echo_us - hit_path_us - codec_us;
    report.set("core.hit_get_plan_ns", c.hit_path_ns, 20_000);
    report.set("server.rtt_p50_us", c.rtt.p50_us, c.rtt.samples as u64);
    report.set("server.echo_rtt_us", c.echo_us, 1);
    report.set(
        "server.dispatch_overhead_us",
        dispatch_us,
        c.rtt.samples as u64,
    );
    report.set(
        "server.ctx_switches_per_req",
        c.ctx_per_req,
        c.rtt.samples as u64,
    );
    report.set(
        "server.user_us_per_req",
        c.user_us_per_req,
        c.rtt.samples as u64,
    );
    report.set(
        "server.sys_us_per_req",
        c.sys_us_per_req,
        c.rtt.samples as u64,
    );
    report.set(
        "server.poll_wakeups_per_frame",
        c.primary_exit.poll_wakeups as f64 / c.primary_exit.frames_served.max(1) as f64,
        c.primary_exit.frames_served,
    );
    report.set(
        "server.peak_queue_depth",
        c.primary_exit.peak_queue_depth as f64,
        1,
    );
    report.set("server.batch32_rtt_us", c.batch_rtt_us, 1);
    report.set("server.batch32_ns_per_inst", c.batch_rtt_us * 1e3 / 32.0, 1);
    report.set("server.connect_hello_us", c.connect_us, 20);
    report.set("server.parallel_rps", c.parallel.rps, c.parallel.windows);
    report.set(
        "server.parallel_p50_us",
        c.parallel.p50_us,
        c.parallel.windows,
    );
    report.set("replica.local_hit_share", c.local_hit_share, c.follow.reads);
    report.set("replica.forward_rtt_us", c.forward_rtt_us, 200);
    report.set(
        "replica.lag_p50_us",
        c.follow.lag_p50_us,
        c.follow.generations,
    );
    report.set(
        "replica.fresh_visible_p50_us",
        c.follow.fresh_visible_p50_us,
        c.follow.generations,
    );
    report.set(
        "replica.lag_gens_max",
        c.follow.lag_gens_max as f64,
        c.follow.reads,
    );
    report.set(
        "replica.bytes_per_gen",
        c.primary_exit.replication_out_bytes as f64 / c.primary_exit.gens_pushed.max(1) as f64,
        c.primary_exit.gens_pushed,
    );
    report.set(
        "replica.gens_applied",
        c.replica_exit.gens_applied as f64,
        1,
    );
    let mut late: Vec<u32> = Vec::new();
    for step in &c.ladder {
        let (p50, p99) = match step.rate {
            4000 => ("client.open_p50_us.r4000", "client.open_p99_us.r4000"),
            8000 => ("client.open_p50_us.r8000", "client.open_p99_us.r8000"),
            _ => ("client.open_p50_us.r12000", "client.open_p99_us.r12000"),
        };
        report.set(p50, step.p50_us, step.samples);
        report.set(p99, step.p99_us, step.samples);
        late.extend_from_slice(&step.send_late_ns);
    }
    let late_samples = late.len() as u64;
    report.set(
        "client.sched_late_p99_us",
        estimator::percentile_us(&mut late, 99.0),
        late_samples,
    );
    let max_ok = c
        .ladder
        .iter()
        .filter(|s| s.p99_us <= LADDER_LIMIT_P99_US)
        .map(|s| s.rate)
        .max()
        .unwrap_or(0);
    report.set(
        "client.max_rate_ok_rps",
        max_ok as f64,
        c.ladder.len() as u64,
    );
    // Tracing's own cost, on the path this workload is made of.
    let overhead = if env.workload.is_embedded() {
        1.0 - a.service_wall.as_secs_f64() / a.staged_wall.as_secs_f64()
    } else {
        1.0 - c.traced_rate / c.plain_rate
    };
    report.set("trace.overhead_share", overhead, a.decisions);

    for layer in PER_LAYER {
        if !report.metrics.contains_key(layer.name) {
            return Err(format!("layer metric `{}` was not measured", layer.name));
        }
    }
    write_outputs(env, paths, &a.rec, &rec_c, &report, hit_path_us, codec_us)?;
    Ok(report)
}

/// `trace_<workload>.jsonl` and `layers_<workload>.md` under `bench/out/`.
fn write_outputs(
    env: &Env,
    paths: &Paths,
    rec_a: &Recorder,
    rec_c: &Recorder,
    report: &Report,
    hit_path_us: f64,
    codec_us: f64,
) -> Result<(), String> {
    let dir = out_dir(&paths.bench_dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let name = env.workload.name();

    let trace = dir.join(format!("trace_{name}.jsonl"));
    let file = std::fs::File::create(&trace).map_err(|e| format!("{}: {e}", trace.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("{}: {e}", trace.display());
    let written = rec_a
        .write_jsonl(&mut w, 0, TRACE_FILE_SPANS / 2)
        .map_err(io)?;
    rec_c
        .write_jsonl(&mut w, written, TRACE_FILE_SPANS / 2)
        .map_err(io)?;
    std::io::Write::flush(&mut w).map_err(io)?;

    let v = |metric: &str| report.metrics.get(metric).map_or(f64::NAN, |m| m.value);
    let mut md = String::new();
    let _ = writeln!(md, "# Layers of `{name}`\n");
    let _ = writeln!(
        md,
        "Generated by the traced run; times are the benchmark's own spans around public calls.\n"
    );
    let _ = writeln!(md, "## In-process `get_plan`, by stage (self time)\n");
    let _ = writeln!(
        md,
        "| stage | calls | mean self ns | share of staged time |"
    );
    let _ = writeln!(md, "|---|---|---|---|");
    let layers = by_layer(rec_a.spans());
    let root = layers.get("get_plan").map_or(1, |t| t.total_ns.max(1)) as f64;
    for (stage, t) in &layers {
        let _ = writeln!(
            md,
            "| {stage} | {} | {:.0} | {:.1}% |",
            t.count,
            t.mean_self_ns(),
            100.0 * t.self_ns as f64 / root
        );
    }
    let _ = writeln!(
        md,
        "\n`PqoService::get_plan` as a whole: {:.0} ns/decision; stages leave {:.0} ns of glue \
         (registry lock, `Arc` clones, accounting).\n",
        v("core.get_plan_ns"),
        v("core.service_glue_ns")
    );
    let _ = writeln!(
        md,
        "## One wire round trip (1 connection, hits), by stage\n"
    );
    let _ = writeln!(md, "| stage | µs | of the round trip |");
    let _ = writeln!(md, "|---|---|---|");
    let rtt = v("server.rtt_p50_us");
    for (stage, us) in [
        ("round trip (p50)", rtt),
        (
            "loopback floor: raw echo with the same frames",
            v("server.echo_rtt_us"),
        ),
        (
            "wire codec (both directions, both ends) + frame reassembly",
            codec_us,
        ),
        ("pqo-core serving path on a hit", hit_path_us),
        (
            "pqo-server dispatch (residual: event loop, worker hand-off, wake-ups)",
            v("server.dispatch_overhead_us"),
        ),
    ] {
        let _ = writeln!(md, "| {stage} | {us:.2} | {:.1}% |", 100.0 * us / rtt);
    }
    let _ = writeln!(
        md,
        "\nPer request the server made {:.2} context switches and spent {:.2} µs in user and \
         {:.2} µs in system mode; the client waited {:.2} µs blocked in `read`.\n",
        v("server.ctx_switches_per_req"),
        v("server.user_us_per_req"),
        v("server.sys_us_per_req"),
        v("client.read_wait_ns") / 1e3
    );
    let _ = writeln!(md, "## Every layer metric\n");
    let _ = writeln!(md, "| metric | value | unit | samples |");
    let _ = writeln!(md, "|---|---|---|---|");
    for layer in PER_LAYER {
        let m = &report.metrics[layer.name];
        let _ = writeln!(
            md,
            "| `{}` | {:.4} | {} | {} |",
            layer.name, m.value, layer.unit, m.samples
        );
    }
    let path = dir.join(format!("layers_{name}.md"));
    std::fs::write(&path, md).map_err(|e| format!("{}: {e}", path.display()))
}
