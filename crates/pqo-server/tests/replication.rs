//! Loopback replication fleet: the read path must be *location
//! transparent*.
//!
//! A primary plus two replicas serve seeded per-template instance streams
//! through the replicas only. Each replica serves cache hits from its
//! locally applied generation and forwards misses to the primary, holding
//! the reply until the resulting generation has been applied — so every
//! per-template decision stream received over the wire must be
//! byte-identical to a fresh sequential in-process [`PqoService`] oracle,
//! at a generation lag of at most one. The same guarantee must survive a
//! replica restart (warm from its flushed snapshot, catching up over the
//! subscription).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pqo_core::scr::ScrConfig;
use pqo_core::PqoService;
use pqo_server::{PqoClient, PqoServer, ServerConfig};
use pqo_workload::corpus::{corpus, TemplateSpec};

const LAMBDA: f64 = 2.0;

fn spec_for(id: &str) -> &'static TemplateSpec {
    corpus()
        .iter()
        .find(|s| s.id == id)
        .expect("corpus template")
}

fn fresh_service(ids: &[&str]) -> Arc<PqoService> {
    let service = Arc::new(PqoService::new());
    for id in ids {
        service
            .register(
                Arc::clone(&spec_for(id).template),
                ScrConfig::new(LAMBDA).expect("valid λ"),
            )
            .expect("fresh template registers");
    }
    service
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pqo_repl_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn replica_config(primary: std::net::SocketAddr) -> ServerConfig {
    ServerConfig {
        replica_of: Some(primary.to_string()),
        poll_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    }
}

/// Drive one template's instance stream through a replica, mixing single
/// and batched frames, returning `(fingerprint, optimized, generation)`
/// per instance in stream order.
fn drive_replica(
    addr: std::net::SocketAddr,
    id: &str,
    instances: &[pqo_optimizer::template::QueryInstance],
) -> Vec<(u64, bool, u64)> {
    let mut client = PqoClient::connect(addr).expect("replica client connects");
    let mut got = Vec::with_capacity(instances.len());
    for (i, chunk) in instances.chunks(5).enumerate() {
        if i % 2 == 0 {
            let values: Vec<Vec<f64>> = chunk.iter().map(|q| q.values.clone()).collect();
            let choices = client.get_plan_batch(id, &values).expect("batch served");
            assert_eq!(choices.len(), chunk.len());
            got.extend(
                choices
                    .iter()
                    .map(|c| (c.fingerprint.0, c.optimized, c.generation)),
            );
        } else {
            for q in chunk {
                let c = client.get_plan(id, &q.values).expect("instance served");
                got.push((c.fingerprint.0, c.optimized, c.generation));
            }
        }
    }
    got
}

/// Assert one wire stream equals the oracle's sequential decisions, and
/// that the generation stamps never run ahead of the server-side count of
/// decisions (each instance publishes at most one generation).
fn assert_matches_oracle(
    oracle: &PqoService,
    id: &str,
    instances: &[pqo_optimizer::template::QueryInstance],
    stream: &[(u64, bool, u64)],
) {
    assert_eq!(stream.len(), instances.len());
    let mut last_gen = 0u64;
    for (i, (inst, &(fp, optimized, generation))) in instances.iter().zip(stream).enumerate() {
        let expect = oracle.get_plan(id, inst).expect("oracle serves");
        assert_eq!(
            optimized, expect.optimized,
            "{id} instance {i}: reuse/optimize decision diverged through the replica"
        );
        assert_eq!(
            fp,
            expect.plan.fingerprint().0,
            "{id} instance {i}: different plan served through the replica"
        );
        assert!(
            generation >= last_gen,
            "{id} instance {i}: generation went backwards ({generation} < {last_gen})"
        );
        last_gen = generation;
    }
    assert_eq!(
        last_gen,
        oracle.generation(id).expect("oracle generation"),
        "{id}: final replica generation diverged from the oracle's"
    );
}

/// Poll a replica until its generation lag reaches zero for `id`.
fn await_caught_up(client: &mut PqoClient, id: &str) -> pqo_server::WireStats {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats(id).expect("replica stats");
        if stats.replica_lag == 0 {
            return stats;
        }
        assert!(Instant::now() < deadline, "{id}: replica never caught up");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn replica_fleet_matches_oracle() {
    let ids = ["tpch_skew_A_d2", "tpch_skew_B_d2", "tpcds_G_d3"];
    let primary = PqoServer::bind(
        fresh_service(&ids),
        "127.0.0.1:0",
        ServerConfig {
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    )
    .expect("bind primary");
    let paddr = primary.local_addr();
    let r1 = PqoServer::bind(fresh_service(&ids), "127.0.0.1:0", replica_config(paddr))
        .expect("bind replica 1");
    let r2 = PqoServer::bind(fresh_service(&ids), "127.0.0.1:0", replica_config(paddr))
        .expect("bind replica 2");

    let workloads: Vec<Vec<pqo_optimizer::template::QueryInstance>> = ids
        .iter()
        .enumerate()
        .map(|(k, id)| spec_for(id).generate(90, 9100 + k as u64))
        .collect();

    // Each template's sequential stream flows through one replica (the
    // guarantee is per-template stream equality); the two replicas run
    // concurrently over disjoint templates.
    let streams: Vec<Vec<(u64, bool, u64)>> = std::thread::scope(|scope| {
        let targets = [r1.local_addr(), r2.local_addr(), r1.local_addr()];
        let handles: Vec<_> = ids
            .iter()
            .zip(&workloads)
            .zip(targets)
            .map(|((id, insts), addr)| scope.spawn(move || drive_replica(addr, id, insts)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let oracle = fresh_service(&ids);
    for ((id, insts), stream) in ids.iter().zip(&workloads).zip(&streams) {
        assert_matches_oracle(&oracle, id, insts, stream);
    }

    // Replication accounting: the primary pushed, the replicas applied,
    // and every replica shard converged onto the primary's generation.
    let mut pc = PqoClient::connect(paddr).expect("primary observer");
    let mut c1 = PqoClient::connect(r1.local_addr()).expect("replica 1 observer");
    let mut c2 = PqoClient::connect(r2.local_addr()).expect("replica 2 observer");
    for id in ids {
        let p = pc.stats(id).expect("primary stats");
        assert_eq!(p.replica_lag, 0, "{id}: a primary has no lag");
        for rc in [&mut c1, &mut c2] {
            let r = await_caught_up(rc, id);
            assert_eq!(
                r.generation, p.generation,
                "{id}: replica generation diverged after catch-up"
            );
            assert!(r.gens_applied > 0, "{id}: replica applied nothing");
            assert!(r.replication_bytes_in > 0);
        }
        assert!(p.gens_pushed > 0, "no pushes counted on the primary");
        assert!(p.replication_bytes_out > 0);
    }
    drop((pc, c1, c2));

    for server in [r1, r2, primary] {
        server.shutdown();
        server.join();
    }
}

/// A replica restart mid-stream: the first half of the workload is served,
/// the replica shuts down gracefully (flushing its applied generation),
/// restarts warm from that snapshot, catches up over the subscription, and
/// the second half continues the *same* oracle stream.
#[test]
fn replica_restart_preserves_the_stream() {
    let id = "tpch_skew_C_d2";
    let dir = scratch_dir("restart");
    let primary = PqoServer::bind(fresh_service(&[id]), "127.0.0.1:0", ServerConfig::default())
        .expect("bind primary");
    let paddr = primary.local_addr();

    let workload = spec_for(id).generate(120, 9300);
    let (first, second) = workload.split_at(60);

    let replica = PqoServer::bind(
        fresh_service(&[id]),
        "127.0.0.1:0",
        ServerConfig {
            snapshot_dir: Some(dir.clone()),
            ..replica_config(paddr)
        },
    )
    .expect("bind replica");
    let mut stream = drive_replica(replica.local_addr(), id, first);
    let halfway_gen = stream.last().expect("non-empty half").2;
    replica.shutdown();
    replica.join();

    // Warm restart: restore the flushed snapshot (its embedded generation
    // is the subscription resume point), then continue the stream.
    let restored = Arc::new(PqoService::new());
    let mut file = std::fs::File::open(dir.join(format!("{id}.pqo-cache")))
        .expect("replica flushed a snapshot");
    restored
        .register_restored(
            Arc::clone(&spec_for(id).template),
            ScrConfig::new(LAMBDA).expect("valid λ"),
            &mut file,
        )
        .expect("snapshot restores");
    assert_eq!(
        restored.generation(id).expect("restored generation"),
        halfway_gen,
        "flushed snapshot must carry the applied generation"
    );
    let replica = PqoServer::bind(Arc::clone(&restored), "127.0.0.1:0", replica_config(paddr))
        .expect("rebind replica");
    stream.extend(drive_replica(replica.local_addr(), id, second));

    let oracle = fresh_service(&[id]);
    assert_matches_oracle(&oracle, id, &workload, &stream);

    for server in [replica, primary] {
        server.shutdown();
        server.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
