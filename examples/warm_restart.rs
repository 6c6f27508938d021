//! Warm restarts: persist the plan cache across process lifetimes.
//!
//! ```sh
//! cargo run --release --example warm_restart
//! ```
//!
//! A service learns its inference regions during the day; after a restart
//! it should not pay hundreds of optimizer calls to re-learn them. This
//! example runs SCR over a workload, snapshots the cache (plans in the
//! Appendix B compact encoding + the instance 5-tuples), "restarts", and
//! shows the restored cache serving a second workload with almost no
//! optimizer calls — while still honouring the λ-optimality guarantee.

use std::sync::Arc;

use pqo::core::engine::QueryEngine;
use pqo::core::persist;
use pqo::core::runner::{run_sequence, GroundTruth};
use pqo::core::scr::{Scr, ScrConfig};
use pqo::workload::corpus::corpus;

fn main() {
    let spec = corpus()
        .iter()
        .find(|s| s.id == "tpcds_G_d3")
        .expect("corpus template");
    let lambda = 1.5;

    // --- Day one: learn the workload ---------------------------------------
    let day1 = spec.generate(1500, 1);
    let engine = QueryEngine::new(Arc::clone(&spec.template));
    let gt1 = GroundTruth::compute(&engine, &day1);
    let mut scr = Scr::new(lambda).expect("valid λ");
    let r1 = run_sequence(&mut scr, &engine, &day1, &gt1);
    println!(
        "day 1: {} optimizer calls ({:.1}%), {} plans cached, MSO {:.3}",
        r1.num_opt,
        r1.num_opt_pct(),
        r1.num_plans,
        r1.mso()
    );

    // --- Snapshot ------------------------------------------------------------
    let mut snapshot = Vec::new();
    persist::save(&scr, 0, &mut snapshot).expect("serialize cache");
    println!(
        "snapshot: {} bytes for {} plans + {} instance entries",
        snapshot.len(),
        scr.cache().num_plans(),
        scr.cache().num_instances()
    );
    drop(scr); // the process "exits"

    // --- Restart: restore and serve day two --------------------------------
    let mut warm = persist::restore(
        ScrConfig::new(lambda).expect("valid λ"),
        &mut snapshot.as_slice(),
    )
    .expect("restore cache");
    let day2 = spec.generate(1500, 2); // fresh instances, same distribution
    let gt2 = GroundTruth::compute(&engine, &day2);
    let r2 = run_sequence(&mut warm, &engine, &day2, &gt2);
    println!(
        "day 2 (warm): {} optimizer calls ({:.1}%), {} plans cached, MSO {:.3}",
        r2.num_opt,
        r2.num_opt_pct(),
        r2.num_plans,
        r2.mso()
    );

    // --- Contrast with a cold restart ---------------------------------------
    let mut cold = Scr::new(lambda).expect("valid λ");
    let r2c = run_sequence(&mut cold, &engine, &day2, &gt2);
    println!(
        "day 2 (cold): {} optimizer calls ({:.1}%)",
        r2c.num_opt,
        r2c.num_opt_pct()
    );

    assert!(
        r2.num_opt <= r2c.num_opt,
        "warm cache cannot need more optimizations"
    );
    assert!(
        r2.mso() <= lambda * 1.01,
        "restored cache must keep the guarantee"
    );
    println!(
        "\nwarm restart saved {} optimizer calls while keeping SO ≤ {lambda}",
        r2c.num_opt - r2.num_opt
    );
}
