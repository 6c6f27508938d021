//! Stress and equivalence tests for the snapshot-published read path.
//!
//! The serving layer publishes immutable [`CacheSnapshot`] generations and
//! readers decide against a loaded generation with no lock held — so the
//! things worth attacking are (1) *consistency*: no interleaving of eight
//! storming threads may ever expose a half-applied cache mutation through
//! a published snapshot; (2) *equivalence*: `get_plan_batch` must make
//! exactly the per-instance reuse/optimize decisions the sequential
//! [`Scr`] technique makes over the same seeded sequence; and (3)
//! *non-blocking reads*: cache-hit readers must proceed while a writer
//! holds the writer lock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use pqo::core::engine::QueryEngine;
use pqo::core::scr::ScrConfig;
use pqo::core::{OnlinePqo, Scr};
use pqo::workload::corpus::corpus;
use pqo::PqoService;

const IDS: [&str; 3] = ["tpch_skew_A_d2", "tpch_skew_B_d2", "tpcds_G_d3"];
const LAMBDA: f64 = 2.0;
const THREADS: usize = 8;
const PER_THREAD: usize = 250;

fn spec_for(id: &str) -> &'static pqo::workload::corpus::TemplateSpec {
    corpus()
        .iter()
        .find(|s| s.id == id)
        .expect("corpus template")
}

/// Eight threads storm the service while every thread also *audits*: each
/// loads the currently-published snapshot and checks the full Figure 5
/// structural invariants on it. A torn publication (entry without its
/// plan, index out of sync, half-applied eviction) would surface here.
#[test]
fn snapshot_readers_always_observe_consistent_cache() {
    let service = Arc::new(PqoService::with_global_budget(10).expect("non-zero budget"));
    for id in IDS {
        let spec = spec_for(id);
        let cfg = ScrConfig::new(LAMBDA).expect("λ > 1");
        service
            .register(Arc::clone(&spec.template), cfg)
            .expect("fresh template registers");
    }

    let audits = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let service = Arc::clone(&service);
            let audits = &audits;
            scope.spawn(move || {
                let home = IDS[t % IDS.len()];
                let instances = spec_for(home).generate(PER_THREAD, 1000 + t as u64);
                for (i, inst) in instances.iter().enumerate() {
                    if i % 4 == 3 {
                        // Batched path: a chunk through one shared pass.
                        let chunk = std::slice::from_ref(inst);
                        let choices = service
                            .get_plan_batch(home, chunk)
                            .expect("registered template");
                        assert_eq!(choices.len(), 1);
                    } else {
                        let _ = service.get_plan(home, inst).expect("registered template");
                    }
                    // Audit the generation published *right now*, racing
                    // the other threads' commits and global evictions.
                    let snapshot = service.snapshot(home).expect("registered template");
                    snapshot
                        .cache()
                        .check_invariants()
                        .expect("published snapshot violates cache invariants");
                    audits.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(audits.load(Ordering::Relaxed), THREADS * PER_THREAD);

    // Quiescent: the canonical caches are sound and the O(1) total matches
    // a recount across shards.
    let recount: usize = service
        .templates()
        .iter()
        .map(|name| {
            service
                .with_scr(name, |scr| {
                    scr.cache().check_invariants().expect("canonical cache");
                    scr.cache().num_plans()
                })
                .expect("registered template")
        })
        .sum();
    assert_eq!(service.total_plans(), recount);
    assert!(service.total_plans() <= 10, "global budget violated");
}

/// Single-threaded: batched serving must make *exactly* the decisions the
/// sequential `Scr` oracle makes over the same seeded sequence — same
/// reuse/optimize verdict and same plan for every instance, because each
/// miss publishes before the next batch element is decided.
#[test]
fn batch_results_equal_sequential_scr_oracle() {
    for batch in [1usize, 7, 32] {
        let id = "tpch_skew_A_d2";
        let spec = spec_for(id);
        let instances = spec.generate(400, 99);

        let service = PqoService::new();
        service
            .register(Arc::clone(&spec.template), ScrConfig::new(LAMBDA).unwrap())
            .expect("fresh template registers");
        let mut batched = Vec::with_capacity(instances.len());
        for chunk in instances.chunks(batch) {
            batched.extend(service.get_plan_batch(id, chunk).expect("registered"));
        }

        let oracle_engine = QueryEngine::new(Arc::clone(&spec.template));
        let mut oracle = Scr::with_config(ScrConfig::new(LAMBDA).unwrap()).unwrap();
        for (i, inst) in instances.iter().enumerate() {
            let sv = oracle_engine.compute_svector(inst);
            let expect = oracle.get_plan(inst, &sv, &oracle_engine);
            let got = &batched[i];
            assert_eq!(
                got.optimized, expect.optimized,
                "batch={batch} instance {i}: reuse/optimize decision diverged"
            );
            assert_eq!(
                got.plan.fingerprint(),
                expect.plan.fingerprint(),
                "batch={batch} instance {i}: different plan served"
            );
        }
        assert_eq!(
            service.with_scr(id, |s| s.cache().num_plans()).unwrap(),
            oracle.cache().num_plans(),
            "batch={batch}: final plan caches diverged"
        );
        assert_eq!(
            service.with_scr(id, |s| s.cache().num_instances()).unwrap(),
            oracle.cache().num_instances(),
            "batch={batch}: final instance lists diverged"
        );
    }
}

/// Cache-hit readers proceed while a writer holds the writer lock: one
/// thread parks inside `with_scr` (which owns the shard's writer mutex)
/// until a second thread completes a run of warm `get_plan` hits. If the
/// read path took the writer lock, this would deadlock; the timeout turns
/// that bug into a failure instead of a hang.
#[test]
fn cache_hits_proceed_while_writer_lock_is_held() {
    let id = "tpch_skew_A_d2";
    let spec = spec_for(id);
    let service = Arc::new(PqoService::new());
    service
        .register(Arc::clone(&spec.template), ScrConfig::new(LAMBDA).unwrap())
        .expect("fresh template registers");

    // Warm the cache so the reader's traffic is all hits.
    let instances = spec.generate(64, 5);
    for inst in &instances {
        let _ = service.get_plan(id, inst).expect("registered");
    }

    let (reader_done_tx, reader_done_rx) = mpsc::channel::<usize>();
    std::thread::scope(|scope| {
        let writer_service = Arc::clone(&service);
        scope.spawn(move || {
            writer_service
                .with_scr(id, |_scr| {
                    // Writer lock held: wait for the reader to finish its
                    // warm pass through the published snapshot.
                    reader_done_rx
                        .recv_timeout(Duration::from_secs(60))
                        .expect("cache-hit readers blocked behind the writer lock")
                })
                .expect("registered template");
        });

        let reader_service = Arc::clone(&service);
        let reader_instances = &instances;
        scope.spawn(move || {
            // Give the writer thread a moment to take the lock first.
            std::thread::sleep(Duration::from_millis(50));
            let mut hits = 0;
            for inst in reader_instances {
                let choice = reader_service.get_plan(id, inst).expect("registered");
                assert!(!choice.optimized, "warm instance must be a cache hit");
                hits += 1;
            }
            reader_done_tx.send(hits).expect("writer waits for us");
        });
    });
}
