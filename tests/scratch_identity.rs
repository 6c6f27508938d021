//! One thread, one `GetPlanScratch`, many engines.
//!
//! `PqoService` decides in a per-thread scratch whose Recost state memoizes
//! one engine's base cardinalities and is refreshed only for the relations
//! whose sVector dimensions changed bits — so a scratch that moves to
//! another engine of the same arity without noticing keeps re-costing with
//! the previous template's row counts wherever a relation has no
//! parameterized predicate. The scratch notices by `QueryEngine::id`, not by
//! address: here a service is dropped and another, over a *different*
//! template of the same arity, is built straight after it, which the
//! allocator places where the old one was. Every decision must still be the
//! sequential `Scr`'s.

use std::sync::Arc;

use pqo::core::engine::QueryEngine;
use pqo::core::scr::{Scr, ScrConfig};
use pqo::core::{OnlinePqo, PqoService};
use pqo::optimizer::template::QueryInstance;
use pqo::workload::corpus::{corpus, TemplateSpec};

const LAMBDA: f64 = 1.2;
const ROUNDS: u64 = 20;

/// A service over one template beside the sequential technique fed the same
/// requests.
struct Checked {
    spec: &'static TemplateSpec,
    service: PqoService,
    engine: QueryEngine,
    oracle: Scr,
    served: usize,
}

impl Checked {
    fn new(spec: &'static TemplateSpec) -> Self {
        let config = ScrConfig::new(LAMBDA).expect("valid λ");
        let service = PqoService::new();
        service
            .register(Arc::clone(&spec.template), config.clone())
            .expect("fresh service");
        Checked {
            spec,
            service,
            engine: QueryEngine::new(Arc::clone(&spec.template)),
            oracle: Scr::with_config(config).expect("valid config"),
            served: 0,
        }
    }

    fn serve(&mut self, q: &QueryInstance) {
        let got = self
            .service
            .get_plan(&self.spec.template.name, q)
            .expect("registered");
        let sv = self.engine.compute_svector(q);
        let want = self.oracle.get_plan(q, &sv, &self.engine);
        assert_eq!(
            (got.plan.fingerprint(), got.optimized),
            (want.plan.fingerprint(), want.optimized),
            "{} diverged from the sequential technique at its request {}",
            self.spec.id,
            self.served
        );
        self.served += 1;
    }
}

#[test]
fn one_thread_serves_same_arity_templates_through_rebuilt_services() {
    let spec = |id: &str| -> &'static TemplateSpec {
        corpus().iter().find(|s| s.id == id).expect("corpus id")
    };
    // Two dimensions over three relations each: one relation per template
    // keeps whatever base cardinality the scratch last derived for it.
    let specs = [spec("tpch_skew_D_d2"), spec("tpcds_G_d2")];
    for s in specs {
        let t = &s.template;
        assert_eq!((t.dimensions(), t.num_relations()), (2, 3));
    }
    let streams = specs.map(|s| s.generate(1000, 5));
    let mut next = [0usize; 2];
    let mut draw = |which: usize| -> &QueryInstance {
        next[which] += 1;
        &streams[which][next[which] - 1]
    };

    let mut kept = Checked::new(specs[0]);
    let mut optimized = 0;
    for round in 0..ROUNDS {
        // The rebuilt service alternates templates, so the engine the
        // thread's scratch served last and the one built where it was never
        // share a template.
        let which = (round % 2) as usize;
        let mut rebuilt = Checked::new(specs[which]);
        // Straight after the rebuild, a run on the new engine alone...
        for _ in 0..30 {
            rebuilt.serve(draw(which));
        }
        // ...then the two live services in turn, the dropped one last.
        for _ in 0..15 {
            kept.serve(draw(0));
            rebuilt.serve(draw(which));
        }
        optimized += rebuilt.oracle.stats().optimizer_calls;
        assert!(
            rebuilt.oracle.stats().getplan_recost_calls > 0,
            "round {round} never reached the cost check"
        );
    }
    assert!(
        optimized < ROUNDS * 45,
        "the rebuilt services never reused a plan"
    );
}
