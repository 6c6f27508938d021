//! Loopback stress: the network layer must be a *transparent* front end.
//!
//! Eight concurrent TCP clients (each owning one template, mixing single
//! and batched frames) must receive exactly the per-instance decision
//! stream the sequential in-process [`PqoService`] oracle produces — while
//! fuzzer connections inject garbage frames that must each earn a
//! `MALFORMED` error without killing the server or their own connection.
//! Graceful shutdown must drain the storm and flush a restorable snapshot
//! per template.
//!
//! The split `GET_PLAN` path — hits answered on the event-loop thread,
//! misses finished by the pool — is held to the same oracle under
//! pipelining, counted (no hit reaches the pool, a miss is decided once),
//! and shown not to stall behind a blocked worker, on both poller backends;
//! the codec's one-call-per-frame contract and the client's buffered reads
//! are driven against hand-scripted peers.

use std::io::{IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pqo_core::scr::ScrConfig;
use pqo_core::service::Cached;
use pqo_core::{persist, OnlinePqo, PqoService, Scr};
use pqo_optimizer::engine::QueryEngine;
use pqo_optimizer::template::QueryInstance;
use pqo_rand::{Rng, SeedableRng};
use pqo_server::wire::{
    self, code, decode_response, encode_request, encode_response, Request, Response, WireChoice,
    WireStats,
};
use pqo_server::{ClientError, PqoClient, PqoServer, ServerConfig};
use pqo_workload::corpus::{corpus, TemplateSpec};

const IDS: [&str; 8] = [
    "tpch_skew_A_d2",
    "tpch_skew_B_d2",
    "tpch_skew_C_d2",
    "tpch_skew_D_d2",
    "tpch_skew_F_d2",
    "tpcds_V_d2",
    "tpcds_G_d2",
    "tpcds_G_d3",
];
const PER_CLIENT: usize = 120;
const LAMBDA: f64 = 2.0;

fn spec_for(id: &str) -> &'static TemplateSpec {
    corpus()
        .iter()
        .find(|s| s.id == id)
        .expect("corpus template")
}

fn fresh_service(ids: &[&str]) -> Arc<PqoService> {
    service_at(ids, LAMBDA)
}

fn service_at(ids: &[&str], lambda: f64) -> Arc<PqoService> {
    let service = Arc::new(PqoService::new());
    for id in ids {
        service
            .register(
                Arc::clone(&spec_for(id).template),
                ScrConfig::new(lambda).expect("valid λ"),
            )
            .expect("fresh template registers");
    }
    service
}

/// Run `scenario` once per poller backend. The backend is chosen by the
/// process-global `PQO_FORCE_POLL` when a server's loop thread starts, so
/// the scenarios that flip it are serialized and each holds its setting
/// until its servers have been joined.
fn on_both_backends(scenario: impl Fn()) {
    static ENV: Mutex<()> = Mutex::new(());
    for force_poll in [false, true] {
        let _env = ENV.lock().unwrap_or_else(|e| e.into_inner());
        if force_poll {
            std::env::set_var("PQO_FORCE_POLL", "1");
        } else {
            std::env::remove_var("PQO_FORCE_POLL");
        }
        scenario();
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pqo_loopback_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Drive one template's instance stream through the wire, mixing single
/// `GET_PLAN` frames and `GET_PLAN_BATCH` chunks, and return the decision
/// stream in instance order.
fn drive_over_wire(
    addr: std::net::SocketAddr,
    id: &str,
    instances: &[pqo_optimizer::template::QueryInstance],
) -> Vec<(u64, bool)> {
    let mut client = PqoClient::connect(addr).expect("client connects");
    assert!(client.server_templates().iter().any(|t| t == id));
    let mut got = Vec::with_capacity(instances.len());
    for (i, chunk) in instances.chunks(6).enumerate() {
        if i % 2 == 0 {
            // Batched frame: one snapshot load server-side.
            let values: Vec<Vec<f64>> = chunk.iter().map(|q| q.values.clone()).collect();
            let choices = client.get_plan_batch(id, &values).expect("batch served");
            assert_eq!(choices.len(), chunk.len());
            got.extend(choices.iter().map(|c| (c.fingerprint.0, c.optimized)));
        } else {
            for q in chunk {
                let c = client.get_plan(id, &q.values).expect("instance served");
                got.push((c.fingerprint.0, c.optimized));
            }
        }
    }
    got
}

/// A fuzzer connection: seeded garbage frames must each earn `MALFORMED`
/// while the connection — and the server — survive; a valid request
/// afterwards must still be served.
fn fuzz_connection(addr: std::net::SocketAddr, seed: u64, probe_id: &str, probe: &[f64]) {
    let mut rng = pqo_rand::rngs::StdRng::seed_from_u64(seed);
    let mut stream = TcpStream::connect(addr).expect("fuzzer connects");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut frame = Vec::new();
    for _ in 0..40 {
        let len = rng.gen_range(1usize..64);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        // Force an opcode no request uses so the frame can never be valid.
        let mut body = vec![0x7Fu8];
        body.extend_from_slice(&garbage);
        wire::write_frame(&mut stream, &body).expect("garbage frame written");
        stream.flush().unwrap();
        assert!(
            wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_BYTES, &mut frame)
                .expect("server answers garbage"),
            "server closed on recoverable garbage"
        );
        match decode_response(&frame).expect("server frame decodes") {
            Response::Error { code: c, .. } => assert_eq!(c, code::MALFORMED),
            other => panic!("garbage earned {other:?}"),
        }
    }
    // The connection survived the garbage: a well-formed request on the
    // same socket must be served.
    let mut body = Vec::new();
    encode_request(
        &Request::GetPlan {
            template: probe_id.into(),
            values: probe.to_vec(),
        },
        &mut body,
    );
    wire::write_frame(&mut stream, &body).unwrap();
    stream.flush().unwrap();
    assert!(wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_BYTES, &mut frame).unwrap());
    match decode_response(&frame).expect("server frame decodes") {
        Response::Plan(_) => {}
        other => panic!("valid probe after garbage earned {other:?}"),
    }
}

#[test]
fn wire_decisions_match_in_process_oracle_under_storm() {
    let dir = scratch_dir("storm");
    let service = fresh_service(&IDS);
    let config = ServerConfig {
        snapshot_dir: Some(dir.clone()),
        max_connections: 32,
        ..ServerConfig::default()
    };
    let server =
        PqoServer::bind(Arc::clone(&service), "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();

    // Per-template seeded instance streams, generated up front so the wire
    // clients and the oracle see byte-identical sequences.
    let workloads: Vec<Vec<pqo_optimizer::template::QueryInstance>> = IDS
        .iter()
        .enumerate()
        .map(|(k, id)| spec_for(id).generate(PER_CLIENT, 7000 + k as u64))
        .collect();

    let wire_streams: Vec<Vec<(u64, bool)>> = std::thread::scope(|scope| {
        // Two fuzzer connections storm garbage alongside the real clients.
        for (f, seed) in [(0u64, 0xFEED), (1, 0xC0FFEE)] {
            scope.spawn(move || {
                fuzz_connection(addr, seed + f, "tpch_skew_A_d2", &[50_000.0, 900.0]);
            });
        }
        let handles: Vec<_> = IDS
            .iter()
            .zip(&workloads)
            .map(|(id, insts)| scope.spawn(move || drive_over_wire(addr, id, insts)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Oracle: a fresh in-process service, each template driven
    // sequentially over the same instances, must produce the identical
    // per-instance decision stream.
    let oracle = fresh_service(&IDS);
    for ((id, insts), wire_stream) in IDS.iter().zip(&workloads).zip(&wire_streams) {
        assert_eq!(wire_stream.len(), insts.len());
        for (i, (inst, &(fp, optimized))) in insts.iter().zip(wire_stream).enumerate() {
            let expect = oracle.get_plan(id, inst).expect("oracle serves");
            assert_eq!(
                optimized, expect.optimized,
                "{id} instance {i}: reuse/optimize decision diverged over the wire"
            );
            assert_eq!(
                fp,
                expect.plan.fingerprint().0,
                "{id} instance {i}: different plan served over the wire"
            );
        }
    }

    // The batched-serving counters surfaced through STATS must reflect the
    // storm's batch frames.
    let mut observer = PqoClient::connect(addr).expect("observer connects");
    for id in IDS {
        let stats = observer.stats(id).expect("stats served");
        assert!(stats.batches_served > 0, "{id}: no batches counted");
        assert!(stats.max_batch_size <= 6, "{id}: impossible batch size");
        assert!(
            stats.batch_instances >= stats.batches_served,
            "{id}: batch instance count below frame count"
        );
        assert_eq!(
            stats.num_plans,
            service
                .with_scr(id, |s| s.cache().num_plans() as u64)
                .unwrap()
        );
    }
    drop(observer);

    // Graceful shutdown over the wire: drain, flush, exit.
    PqoClient::connect(addr)
        .expect("shutdown client connects")
        .shutdown_server()
        .expect("shutdown acknowledged");
    let summary = server.join();
    assert_eq!(
        summary.malformed_frames, 80,
        "two fuzzers × 40 garbage frames must each count once"
    );
    assert!(
        summary.plans_served >= (IDS.len() * PER_CLIENT) as u64,
        "undercounted plans: {}",
        summary.plans_served
    );
    assert_eq!(summary.snapshots_flushed, IDS.len() as u64);

    // The flushed snapshots restore into the exact cache state the server
    // held at shutdown.
    for id in IDS {
        let path = dir.join(format!("{id}.pqo-cache"));
        let mut file = std::fs::File::open(&path)
            .unwrap_or_else(|e| panic!("flushed snapshot {path:?} missing: {e}"));
        let restored = persist::restore(ScrConfig::new(LAMBDA).unwrap(), &mut file)
            .expect("snapshot restores");
        assert_eq!(
            restored.cache().num_plans(),
            service.with_scr(id, |s| s.cache().num_plans()).unwrap(),
            "{id}: restored plan count diverged"
        );
        assert!(restored.cache().check_invariants().is_ok());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn limits_and_error_frames() {
    let id = "tpch_skew_A_d2";
    let service = fresh_service(&[id]);
    let config = ServerConfig {
        max_connections: 1,
        max_frame_bytes: 4096,
        ..ServerConfig::default()
    };
    let server = PqoServer::bind(service, "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();

    // Version negotiation: a client speaking a future protocol is refused
    // with a stable code, not garbage.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut body = Vec::new();
        encode_request(&Request::Hello { version: 99 }, &mut body);
        wire::write_frame(&mut stream, &body).unwrap();
        stream.flush().unwrap();
        let mut frame = Vec::new();
        assert!(wire::read_frame(&mut stream, 4096, &mut frame).unwrap());
        match decode_response(&frame).unwrap() {
            Response::Error { code: c, .. } => assert_eq!(c, code::UNSUPPORTED_VERSION),
            other => panic!("got {other:?}"),
        }
    }
    // Give the server a poll tick to notice the closed socket and free the
    // connection slot.
    std::thread::sleep(Duration::from_millis(200));

    let mut client = PqoClient::connect(addr).expect("first client fits");

    // Second concurrent connection exceeds the limit → one BUSY frame.
    match PqoClient::connect(addr) {
        Err(ClientError::Server { code: c, .. }) => assert_eq!(c, code::BUSY),
        Err(other) => panic!("over-limit connect yielded {other:?}"),
        Ok(_) => panic!("over-limit connect was accepted"),
    }

    // Typed serving errors map to their pinned codes.
    match client.get_plan("nope", &[0.5, 0.5]) {
        Err(ClientError::Server { code: c, message }) => {
            assert_eq!(c, code::UNKNOWN_TEMPLATE);
            assert!(message.contains("nope"));
        }
        other => panic!("unknown template yielded {other:?}"),
    }
    match client.get_plan(id, &[0.5]) {
        Err(ClientError::Server { code: c, message }) => {
            assert_eq!(c, code::MALFORMED);
            assert!(message.contains("parameters"), "{message}");
        }
        other => panic!("arity mismatch yielded {other:?}"),
    }
    match client.get_plan(id, &[f64::NAN, 0.5]) {
        Err(ClientError::Server { code: c, .. }) => assert_eq!(c, code::MALFORMED),
        other => panic!("NaN parameter yielded {other:?}"),
    }
    // The connection survived every error frame.
    let choice = client.get_plan(id, &[50_000.0, 900.0]).expect("served");
    assert!(choice.optimized, "cold cache must optimize");

    // An oversized frame announcement gets MALFORMED and the connection is
    // closed (framing cannot resync) — on a fresh connection so the main
    // client stays usable.
    drop(client);
    std::thread::sleep(Duration::from_millis(200));
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
        stream.flush().unwrap();
        let mut frame = Vec::new();
        assert!(wire::read_frame(&mut stream, 4096, &mut frame).unwrap());
        match decode_response(&frame).unwrap() {
            Response::Error { code: c, message } => {
                assert_eq!(c, code::MALFORMED);
                assert!(message.contains("exceeds"), "{message}");
            }
            other => panic!("got {other:?}"),
        }
        // Server closes after the error frame.
        assert!(!wire::read_frame(&mut stream, 4096, &mut frame).unwrap_or(false));
    }

    server.shutdown();
    let summary = server.join();
    assert!(summary.connections_rejected_busy >= 1);
    assert!(summary.error_frames >= 5);
}

/// The v6 EXPLAIN path: the decision must match the `GET_PLAN` stream, the
/// rendered SQL must carry the chosen plan's fingerprint in every dialect,
/// and an unknown dialect tag earns a recoverable `MALFORMED` frame.
#[test]
fn explain_round_trips_over_the_wire() {
    let id = "tpch_skew_A_d2";
    let service = fresh_service(&[id]);
    let server =
        PqoServer::bind(service, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let mut client = PqoClient::connect(server.local_addr()).expect("connects");

    let values = [50_000.0, 900.0];
    let first = client.explain(id, &values, 0).expect("explain served");
    assert!(first.choice.optimized, "cold cache must optimize");

    for tag in 0u8..3 {
        let explain = client.explain(id, &values, tag).expect("explain served");
        // Warm now: the decision matches the plain GET_PLAN stream.
        let plan = client.get_plan(id, &values).expect("served");
        assert_eq!(explain.choice.fingerprint, plan.fingerprint);
        assert!(!explain.choice.optimized, "warm cache");
        let fp = format!("{}", explain.choice.fingerprint);
        assert!(
            explain.sql.contains(&format!("-- plan: {fp}")),
            "fingerprint hint missing from:\n{}",
            explain.sql
        );
        assert!(explain.sql.contains("SELECT"), "{}", explain.sql);
        // Values are inlined as literals, not placeholders.
        assert!(explain.sql.contains("50000"), "{}", explain.sql);
    }
    // Dialect-specific rendering: mysql (tag 1) backticks + `?`-free text.
    let mysql = client.explain(id, &values, 1).expect("served");
    assert!(mysql.sql.contains("-- dialect: mysql"), "{}", mysql.sql);

    match client.explain(id, &values, 9) {
        Err(ClientError::Server { code: c, message }) => {
            assert_eq!(c, code::MALFORMED);
            assert!(message.contains("dialect"), "{message}");
        }
        other => panic!("unknown dialect tag yielded {other:?}"),
    }
    // The connection survived the error frame.
    client.explain(id, &values, 2).expect("still served");

    server.shutdown();
    server.join();
}

#[test]
fn idle_connections_are_dropped() {
    let id = "tpch_skew_A_d2";
    let service = fresh_service(&[id]);
    let config = ServerConfig {
        read_timeout: Duration::from_millis(300),
        poll_interval: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let server = PqoServer::bind(service, "127.0.0.1:0", config).expect("bind loopback");
    let mut client = PqoClient::connect(server.local_addr()).expect("connects");
    client.get_plan(id, &[50_000.0, 900.0]).expect("served");
    // Stay silent past the idle limit: the server reclaims the connection.
    std::thread::sleep(Duration::from_millis(1200));
    assert!(
        client.get_plan(id, &[50_000.0, 900.0]).is_err(),
        "idle connection must be dropped"
    );
    server.shutdown();
    server.join();
}

/// Slow-loris coverage: a client that announces a frame and then stalls
/// mid-body must be deadlined out with the `TIMEOUT` error code — while
/// other connections keep being served the whole time (a per-connection
/// deadline, not a loop stall).
#[test]
fn slow_loris_is_deadlined_without_stalling_others() {
    let id = "tpch_skew_A_d2";
    let service = fresh_service(&[id]);
    let config = ServerConfig {
        read_timeout: Duration::from_millis(400),
        poll_interval: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let server = PqoServer::bind(service, "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();

    // The loris: a valid 20-byte announcement plus one body byte, then
    // silence — the connection is forever mid-frame.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loris.write_all(&20u32.to_le_bytes()).unwrap();
    loris.write_all(&[wire::opcode::GET_PLAN]).unwrap();
    loris.flush().unwrap();

    // While the loris stalls, a healthy connection is served throughout.
    let mut client = PqoClient::connect(addr).expect("healthy client connects");
    for _ in 0..20 {
        client
            .get_plan(id, &[50_000.0, 900.0])
            .expect("served while the loris stalls");
    }

    // The loris is evicted with one TIMEOUT frame, then EOF.
    let mut frame = Vec::new();
    assert!(wire::read_frame(&mut loris, 4096, &mut frame).unwrap());
    match decode_response(&frame).unwrap() {
        Response::Error { code: c, message } => {
            assert_eq!(c, code::TIMEOUT, "loris must get the TIMEOUT code");
            assert!(message.contains("mid-frame"), "{message}");
        }
        other => panic!("loris got {other:?}"),
    }
    assert!(
        !wire::read_frame(&mut loris, 4096, &mut frame).unwrap_or(false),
        "connection must close after the TIMEOUT frame"
    );

    // The server is still healthy for new connections afterwards.
    let mut after = PqoClient::connect(addr).expect("post-loris client connects");
    after
        .get_plan(id, &[50_000.0, 900.0])
        .expect("still served");

    server.shutdown();
    let summary = server.join();
    assert!(summary.timeouts >= 1, "timeout must be counted");
}

fn get_plan_frame(out: &mut Vec<u8>, id: &str, q: &QueryInstance) {
    let mut body = Vec::new();
    encode_request(
        &Request::GetPlan {
            template: id.into(),
            values: q.values.clone(),
        },
        &mut body,
    );
    wire::write_frame(out, &body).expect("vec write");
}

/// Pipelining across the split: `[hit, miss, hit on the plan the miss adds,
/// hit]` and the mirror `[miss, hit, hit, hit]`, each sent as one segment.
/// The hits behind a miss must wait for it — responses in request order,
/// every decision and generation what an in-process service fed the same
/// stream answers.
#[test]
fn pipelined_hits_and_misses_keep_order_and_generations() {
    on_both_backends(|| {
        let id = "tpcds_G_d3";
        let server = PqoServer::bind(fresh_service(&[id]), "127.0.0.1:0", ServerConfig::default())
            .expect("bind loopback");
        let oracle = fresh_service(&[id]);

        // Three instances that each miss a cache holding the ones before.
        let probe = fresh_service(&[id]);
        let misses: Vec<QueryInstance> = spec_for(id)
            .generate(400, 4242)
            .into_iter()
            .filter(|q| probe.get_plan(id, q).expect("probe serves").optimized)
            .take(3)
            .collect();
        let [warm, m1, m2] = &misses[..] else {
            panic!("the stream holds fewer than three misses");
        };

        let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut frame = Vec::new();
        let mut exchange = |burst: &[&QueryInstance], optimized: &[bool]| {
            let mut segment = Vec::new();
            for q in burst {
                get_plan_frame(&mut segment, id, q);
            }
            stream.write_all(&segment).expect("burst written");
            for (i, (q, &optimized)) in burst.iter().zip(optimized).enumerate() {
                assert!(
                    wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_BYTES, &mut frame)
                        .expect("response arrives")
                );
                let Response::Plan(got) = decode_response(&frame).expect("decodes") else {
                    panic!("request {i} was not answered with PLAN");
                };
                let (want, generation) = oracle
                    .get_plan_with_generation(id, q)
                    .expect("oracle serves");
                assert_eq!(
                    got.optimized, optimized,
                    "request {i}: not the case under test"
                );
                assert_eq!(
                    (got.fingerprint, got.optimized, got.generation),
                    (want.plan.fingerprint().0, want.optimized, generation),
                    "request {i} diverged from the in-process stream"
                );
            }
        };
        exchange(&[warm], &[true]);
        exchange(&[warm, m1, m1, warm], &[false, true, false, false]);
        exchange(&[m2, m2, warm, m1], &[true, false, false, false]);

        server.shutdown();
        server.join();
    });
}

/// No hit reaches the pool, and each costs the loop one wake-up.
#[test]
fn hits_are_answered_without_the_pool() {
    on_both_backends(|| {
        let id = "tpch_skew_A_d2";
        let config = ServerConfig::default();
        let poll_interval = config.poll_interval;
        let server =
            PqoServer::bind(fresh_service(&[id]), "127.0.0.1:0", config).expect("bind loopback");
        let mut client = PqoClient::connect(server.local_addr()).expect("connects");
        let warm = spec_for(id).generate(24, 77);
        for q in &warm {
            client.get_plan(id, &q.values).expect("warm-up served");
        }

        let before = server.stats();
        let start = Instant::now();
        for i in 0..2000 {
            let choice = client
                .get_plan(id, &warm[i % warm.len()].values)
                .expect("hit served");
            assert!(!choice.optimized, "request {i} is a repeat");
        }
        let ticks = (start.elapsed().as_nanos() / poll_interval.as_nanos()) as u64;
        let after = server.stats();
        assert_eq!(after.frames_served - before.frames_served, 2000);
        assert_eq!(after.plans_served - before.plans_served, 2000);
        assert_eq!(
            after.pool_frames, before.pool_frames,
            "a cache hit was handed to the worker pool"
        );
        let wakeups = after.poll_wakeups - before.poll_wakeups;
        assert!(
            wakeups <= 2000 + 16 + ticks,
            "{wakeups} wake-ups for 2000 frames ({ticks} idle ticks)"
        );

        server.shutdown();
        server.join();
    });
}

/// A miss is decided once: the loop's decide is carried to the worker, not
/// repeated there, so the technique's counters equal exactly those of the
/// sequential [`Scr`], which has no halves to decide twice in.
#[test]
fn a_miss_heavy_stream_is_decided_once_per_instance() {
    on_both_backends(|| {
        let id = "tpcds_G_d3";
        let lambda = 1.05;
        let server = PqoServer::bind(
            service_at(&[id], lambda),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .expect("bind loopback");
        let engine = QueryEngine::new(Arc::clone(&spec_for(id).template));
        let mut oracle = Scr::with_config(ScrConfig::new(lambda).unwrap()).unwrap();
        let mut client = PqoClient::connect(server.local_addr()).expect("connects");
        for q in spec_for(id).generate(300, 5150) {
            let got = client.get_plan(id, &q.values).expect("served");
            let want = oracle.get_plan(&q, &engine.compute_svector(&q), &engine);
            assert_eq!(got.optimized, want.optimized);
        }
        let got = client.stats(id).expect("stats served");
        let want = oracle.stats();
        assert!(
            want.optimizer_calls >= 100,
            "not miss-heavy: {} optimizer calls",
            want.optimizer_calls
        );
        assert_eq!(
            (
                got.selectivity_hits,
                got.cost_hits,
                got.optimizer_calls,
                got.getplan_recost_calls
            ),
            (
                want.selectivity_hits,
                want.cost_hits,
                want.optimizer_calls,
                want.getplan_recost_calls
            ),
            "the wire path did not decide what the sequential technique decides"
        );

        drop(client);
        server.shutdown();
        server.join();
    });
}

/// A replica whose primary accepts connections and never answers: a miss
/// sits in a worker for the whole forwarding timeout, and meanwhile every
/// hit on another connection is answered by the loop thread.
#[test]
fn hits_are_served_while_a_miss_waits_on_a_dead_primary() {
    on_both_backends(|| {
        let id = "tpch_skew_A_d2";
        let silent_primary = TcpListener::bind("127.0.0.1:0").expect("bind silent primary");
        let service = fresh_service(&[id]);
        let stream = spec_for(id).generate(200, 31337);
        let (warm, rest) = stream.split_at(40);
        for q in warm {
            service.get_plan(id, q).expect("warmed in process");
        }
        let cold = rest
            .iter()
            .find(|q| matches!(service.serve_cached(id, q), Ok(Cached::Miss(_))))
            .expect("the stream leaves the warm region somewhere");
        let replica = PqoServer::bind(
            service,
            "127.0.0.1:0",
            ServerConfig {
                replica_of: Some(silent_primary.local_addr().unwrap().to_string()),
                read_timeout: Duration::from_millis(1500),
                poll_interval: Duration::from_millis(10),
                ..ServerConfig::default()
            },
        )
        .expect("bind replica");
        let addr = replica.local_addr();

        std::thread::scope(|scope| {
            let mut a = PqoClient::connect(addr).expect("A connects");
            let miss = scope.spawn(move || a.get_plan(id, &cold.values));
            // Let the miss reach its worker before B starts.
            while replica.stats().pool_frames < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut b = PqoClient::connect(addr).expect("B connects");
            for i in 0..500 {
                let t0 = Instant::now();
                let choice = b
                    .get_plan(id, &warm[i % warm.len()].values)
                    .expect("hit served while the miss waits");
                assert!(!choice.optimized);
                assert!(
                    t0.elapsed() < Duration::from_millis(50),
                    "hit {i} took {:?} beside a blocked worker",
                    t0.elapsed()
                );
            }
            assert!(!miss.is_finished(), "the miss did not wait on the primary");
            match miss.join().expect("A's thread") {
                Err(ClientError::Server { code: c, .. }) => {
                    assert_eq!(c, code::PRIMARY_UNREACHABLE)
                }
                other => panic!("a miss with no primary yielded {other:?}"),
            }
        });

        // Resets the subscriber's pending handshake, so join does not wait
        // for its timeout.
        drop(silent_primary);
        replica.shutdown();
        replica.join();
    });
}

/// A `Write` that counts calls and accepts at most `limit` bytes per call.
struct CountingWriter {
    calls: usize,
    limit: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        self.calls += 1;
        let mut room = self.limit;
        for buf in bufs {
            let n = buf.len().min(room);
            self.bytes.extend_from_slice(&buf[..n]);
            room -= n;
        }
        Ok(self.limit - room)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn write_frame_hands_a_frame_over_in_one_call() {
    for len in [0usize, 22, 70_000] {
        let body: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let mut want = (len as u32).to_le_bytes().to_vec();
        want.extend_from_slice(&body);
        for limit in [usize::MAX, 1] {
            let mut w = CountingWriter {
                calls: 0,
                limit,
                bytes: Vec::new(),
            };
            wire::write_frame(&mut w, &body).expect("frame written");
            assert_eq!(w.bytes, want, "{len}-byte body, {limit} bytes per call");
            if limit == usize::MAX {
                assert_eq!(w.calls, 1, "{len}-byte body took {} calls", w.calls);
            }
        }
    }
}

/// A hand-driven peer for [`PqoClient`]: accepts one connection, answers
/// the handshake, then runs `script` on the raw stream.
fn scripted_server(
    script: impl FnOnce(&mut TcpStream) + Send + 'static,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted server");
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("client connects");
        stream.set_nodelay(true).unwrap();
        expect_request(&mut stream);
        send(
            &mut stream,
            &[Response::HelloOk {
                version: wire::PROTOCOL_VERSION,
                templates: vec!["t".into()],
            }],
        );
        script(&mut stream);
    });
    (addr, handle)
}

fn expect_request(stream: &mut TcpStream) -> Request {
    let mut frame = Vec::new();
    assert!(
        wire::read_frame(stream, wire::DEFAULT_MAX_FRAME_BYTES, &mut frame).expect("request read")
    );
    wire::decode_request(&frame).expect("request decodes")
}

/// `responses` as back-to-back frames in one `write`: one segment.
fn send(stream: &mut TcpStream, responses: &[Response]) {
    let mut segment = Vec::new();
    let mut body = Vec::new();
    for resp in responses {
        encode_response(resp, &mut body);
        wire::write_frame(&mut segment, &body).expect("vec write");
    }
    stream.write_all(&segment).expect("segment written");
}

const CHOICE: WireChoice = WireChoice {
    fingerprint: 0xC0DE,
    optimized: false,
    generation: 3,
};

/// A push that rides in the segment of a response is read with it, and
/// `poll_push` must find it there: the socket will never become readable
/// for it.
#[test]
fn client_finds_a_push_that_arrived_with_a_response() {
    let (addr, server) = scripted_server(|stream| {
        expect_request(stream);
        send(
            stream,
            &[
                Response::Plan(CHOICE),
                Response::SnapshotPush {
                    template: "t".into(),
                    generation: 4,
                    record: vec![7; 100],
                },
            ],
        );
        // Hold the connection until the client is done with it.
        let _ = wire::read_frame(stream, wire::DEFAULT_MAX_FRAME_BYTES, &mut Vec::new());
    });
    let mut client = PqoClient::connect(addr).expect("handshake");
    let choice = client.get_plan("t", &[1.0]).expect("response decoded");
    assert_eq!((choice.fingerprint.0, choice.generation), (0xC0DE, 3));
    let push = client
        .poll_push(Duration::from_millis(200))
        .expect("stream intact")
        .expect("the push was in the buffer");
    assert_eq!((push.generation, push.record.len()), (4, 100));
    assert!(client
        .poll_push(Duration::from_millis(1))
        .expect("stream intact")
        .is_none());
    drop(client);
    server.join().expect("scripted server");
}

#[test]
fn client_reassembles_a_response_delivered_one_byte_at_a_time() {
    let (addr, server) = scripted_server(|stream| {
        expect_request(stream);
        let mut body = Vec::new();
        encode_response(&Response::Plan(CHOICE), &mut body);
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, &body).expect("vec write");
        for byte in frame {
            stream.write_all(&[byte]).expect("byte written");
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let mut client = PqoClient::connect(addr).expect("handshake");
    let choice = client.get_plan("t", &[1.0]).expect("response reassembled");
    assert_eq!((choice.fingerprint.0, choice.generation), (0xC0DE, 3));
    server.join().expect("scripted server");
}

/// Regression: `poll_push` used to leave its idle wait installed as the
/// socket's read timeout, so the next call on the connection ran under a
/// 1 ms deadline and failed mid-exchange against any server slower than
/// that.
#[test]
fn an_idle_poll_push_leaves_the_read_deadline_alone() {
    let (addr, server) = scripted_server(|stream| {
        expect_request(stream);
        std::thread::sleep(Duration::from_millis(20));
        send(stream, &[Response::Stats(WireStats::default())]);
    });
    let mut client = PqoClient::connect(addr).expect("handshake");
    assert!(client
        .poll_push(Duration::from_millis(1))
        .expect("an idle stream is not an error")
        .is_none());
    client
        .stats("t")
        .expect("a call after an idle poll_push runs under the connection's deadline");
    server.join().expect("scripted server");
}
