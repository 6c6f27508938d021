//! The committed optimizer golden.
//!
//! `tests/decision_golden.rs` pins which plan each request is served;
//! this file pins what the optimizer call itself returns, so a change to the
//! join enumeration that is meant to keep plans has something to leave
//! byte-identical: per template, one hash over the `(fingerprint, cost bits,
//! groups_explored, alternatives_costed)` of `optimizer::optimize` at seeded
//! sVectors — 300 for each of the paper's 90 corpus templates, 400 for each
//! of the `bench/templates` joins — against
//! `tests/fixtures/optimizer_plans.golden`. Every probe is also optimized
//! through `QueryEngine::optimize_within` under the two bounds a cost check
//! hands it — the optimum's own cost with the serving path's margin, and the
//! previous probe's plan re-costed here — and must come back the same.

// The other goldens' helpers come with it.
#[allow(dead_code)]
mod common;

use std::fmt::Write as _;
use std::sync::Arc;

use common::{bigjoin_templates, fnv1a, FNV_OFFSET};
use pqo::core::engine::QueryEngine;
use pqo::optimizer::cost::CostModel;
use pqo::optimizer::optimizer::optimize;
use pqo::optimizer::svector::compute_svector;
use pqo::optimizer::template::{QueryInstance, QueryTemplate};
use pqo::workload::corpus::corpus;
use pqo::workload::regions;

fn line(label: &str, template: &Arc<QueryTemplate>, instances: &[QueryInstance]) -> String {
    let model = CostModel::default();
    let engine = QueryEngine::new(Arc::clone(template));
    let mut hash = FNV_OFFSET;
    let mut previous = None;
    for q in instances {
        let sv = compute_svector(template, q);
        let r = optimize(template, &model, &sv);
        for word in [
            r.plan.fingerprint().0,
            r.cost.to_bits(),
            r.groups_explored as u64,
            r.alternatives_costed as u64,
        ] {
            fnv1a(&mut hash, word.to_le_bytes());
        }
        let margin = r.cost * (1.0 + 1e-6);
        let elsewhere = previous.map(|p| engine.recost_untracked(&p, &sv));
        for bound in std::iter::once(margin).chain(elsewhere) {
            let bounded = engine.optimize_within(&sv, bound);
            assert_eq!(
                (bounded.plan.fingerprint(), bounded.cost.to_bits()),
                (r.plan.fingerprint(), r.cost.to_bits()),
                "{label} at {:?} under {bound}",
                sv.0
            );
        }
        previous = Some(r.plan);
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
