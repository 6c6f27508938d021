//! The committed optimizer golden.
//!
//! `tests/decision_golden.rs` pins which plan each request is served;
//! this file pins what the optimizer call itself returns, so a change to the
//! join enumeration that is meant to keep plans has something to leave
//! byte-identical: per template, one hash over the `(fingerprint, cost bits,
//! groups_explored, alternatives_costed)` of `optimizer::optimize` at seeded
//! sVectors — 300 for each of the paper's 90 corpus templates, 400 for each
//! of the `bench/templates` joins — against
//! `tests/fixtures/optimizer_plans.golden`.

// The other goldens' helpers come with it.
#[allow(dead_code)]
mod common;

use std::fmt::Write as _;

use common::{bigjoin_templates, fnv1a, FNV_OFFSET};
use pqo::optimizer::cost::CostModel;
use pqo::optimizer::optimizer::optimize;
use pqo::optimizer::svector::compute_svector;
use pqo::optimizer::template::{QueryInstance, QueryTemplate};
use pqo::workload::corpus::corpus;
use pqo::workload::regions;

fn line(label: &str, template: &QueryTemplate, instances: &[QueryInstance]) -> String {
    let model = CostModel::default();
    let mut hash = FNV_OFFSET;
    for q in instances {
        let r = optimize(template, &model, &compute_svector(template, q));
        for word in [
            r.plan.fingerprint().0,
            r.cost.to_bits(),
            r.groups_explored as u64,
            r.alternatives_costed as u64,
        ] {
            fnv1a(&mut hash, word.to_le_bytes());
        }
    }
    format!("{label} {hash:016x}")
}

#[test]
fn optimizer_results_match_the_committed_golden() {
    let mut actual = String::new();
    for s in corpus() {
        let label = format!("corpus {}", s.id);
        writeln!(actual, "{}", line(&label, &s.template, &s.generate(300, 3))).unwrap();
    }
    for (id, template) in bigjoin_templates() {
        let label = format!("bigjoin {id}");
        let instances = regions::generate(&template, 400, 99);
        writeln!(actual, "{}", line(&label, &template, &instances)).unwrap();
    }
    common::assert_matches_golden("optimizer_plans", &actual);
}
