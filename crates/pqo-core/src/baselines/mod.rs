//! The competing techniques of the paper's Table 2.
//!
//! | name | behaviour |
//! |---|---|
//! | [`OptimizeAlways`] | optimize every instance (the oracle; numOpt = m) |
//! | [`OptimizeOnce`]   | optimize the first instance, reuse its plan forever |
//! | [`Pcm`]            | bounded PPQO: reuse guaranteed through dominating pairs |
//! | [`Ellipse`]        | PPQO heuristic: elliptical neighbourhoods (Δ = 0.9) |
//! | [`Density`]        | density-based clustering (radius 0.1, confidence 0.5) |
//! | [`Ranges`]         | cursor-sharing style MBRs (± 0.01 selectivity) |
//! | [`ReoptBind`]      | single plan, re-optimized on selectivity drift (related work \[25\]) |
//!
//! Every heuristic can optionally be augmented with SCR's Recost-based
//! redundancy check (Appendix H.6 / Figure 21) via `with_redundancy`: when
//! a fresh optimization produces a new plan, the store substitutes an
//! existing plan that is within `λr` of optimal at the instance. That
//! shrinks `numPlans` (and often `numOpt`, because the surviving plans get
//! larger inference regions) but lets sub-optimality degrade — exactly the
//! trade-off Figure 21 shows.

mod density;
mod ellipse;
mod opt_always;
mod opt_once;
mod pcm;
mod ranges;
mod reopt_bind;

pub use density::Density;
pub use ellipse::Ellipse;
pub use opt_always::OptimizeAlways;
pub use opt_once::OptimizeOnce;
pub use pcm::Pcm;
pub use ranges::Ranges;
pub use reopt_bind::ReoptBind;

use std::collections::HashMap;
use std::sync::Arc;

use pqo_optimizer::engine::{OptimizedPlan, QueryEngine};
use pqo_optimizer::plan::{Plan, PlanFingerprint};
use pqo_optimizer::svector::SVector;

/// One optimized instance as the heuristic techniques remember it.
#[derive(Debug, Clone)]
pub(crate) struct OptimizedInstance {
    /// Selectivity vector of the optimized instance.
    pub svector: SVector,
    /// Plan recorded for the instance (its optimal plan, unless the
    /// redundancy augmentation substituted a cached one).
    pub plan: PlanFingerprint,
    /// Optimizer-estimated optimal cost at the instance.
    pub opt_cost: f64,
}

/// Shared storage for the baseline techniques: plan list + optimized
/// instance list, with the optional Recost redundancy augmentation.
#[derive(Debug, Default)]
pub(crate) struct BaselineStore {
    plans: HashMap<PlanFingerprint, Arc<Plan>>,
    instances: Vec<OptimizedInstance>,
    max_plans: usize,
    redundancy_lambda_r: Option<f64>,
}

impl BaselineStore {
    pub fn new(redundancy_lambda_r: Option<f64>) -> Self {
        if let Some(lr) = redundancy_lambda_r {
            assert!(lr >= 1.0, "λr must be at least 1 when enabled");
        }
        BaselineStore {
            redundancy_lambda_r,
            ..Default::default()
        }
    }

    pub fn plans_cached(&self) -> usize {
        self.plans.len()
    }

    pub fn max_plans_cached(&self) -> usize {
        self.max_plans
    }

    pub fn instances(&self) -> &[OptimizedInstance] {
        &self.instances
    }

    pub fn plan(&self, fp: PlanFingerprint) -> Arc<Plan> {
        Arc::clone(self.plans.get(&fp).expect("instance points to stored plan"))
    }

    /// Record a fresh optimization. With the redundancy augmentation, a new
    /// plan is discarded when some cached plan is within `λr` of optimal at
    /// the instance, and the instance is recorded under that plan instead.
    pub fn record(&mut self, sv: &SVector, opt: &OptimizedPlan, engine: &QueryEngine) {
        let mut fp = opt.plan.fingerprint();
        if !self.plans.contains_key(&fp) {
            if let Some(lr) = self.redundancy_lambda_r {
                if let Some((min_fp, min_cost)) = self
                    .plans
                    .values()
                    .map(|p| (p.fingerprint(), engine.recost(p, sv)))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                {
                    if min_cost / opt.cost <= lr {
                        fp = min_fp;
                    }
                }
            }
        }
        if fp == opt.plan.fingerprint() {
            self.plans
                .entry(fp)
                .or_insert_with(|| Arc::clone(&opt.plan));
            self.max_plans = self.max_plans.max(self.plans.len());
        }
        self.instances.push(OptimizedInstance {
            svector: sv.clone(),
            plan: fp,
            opt_cost: opt.cost,
        });
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::Arc;

    use pqo_optimizer::engine::QueryEngine;
    use pqo_optimizer::svector::{compute_svector, instance_for_target};
    use pqo_optimizer::template::{QueryTemplate, RangeOp, TemplateBuilder};

    use crate::{OnlinePqo, PlanChoice};

    pub fn fixture() -> Arc<QueryTemplate> {
        let cat = pqo_catalog::schemas::tpch_skew();
        let mut b = TemplateBuilder::new("baseline_test");
        let o = b.relation(cat.expect_table("orders"), "o");
        let l = b.relation(cat.expect_table("lineitem"), "l");
        b.join((o, "orders_pk"), (l, "orders_fk"));
        b.param(o, "o_totalprice", RangeOp::Le);
        b.param(l, "l_extendedprice", RangeOp::Le);
        b.build()
    }

    pub fn run_point<T: OnlinePqo>(
        tech: &mut T,
        engine: &QueryEngine,
        target: &[f64],
    ) -> PlanChoice {
        let t = Arc::clone(engine.template());
        let inst = instance_for_target(&t, target);
        let sv = compute_svector(&t, &inst);
        tech.get_plan(&inst, &sv, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use pqo_optimizer::svector::{compute_svector, instance_for_target};

    #[test]
    fn store_records_and_interns_plans() {
        let t = fixture();
        let engine = QueryEngine::new(Arc::clone(&t));
        let mut store = BaselineStore::new(None);
        for target in [[0.1, 0.1], [0.11, 0.11], [0.9, 0.9]] {
            let sv = compute_svector(&t, &instance_for_target(&t, &target));
            let opt = engine.optimize(&sv);
            store.record(&sv, &opt, &engine);
        }
        assert_eq!(store.instances().len(), 3);
        assert!(store.plans_cached() <= 3);
        assert!(store.max_plans_cached() >= store.plans_cached());
    }

    #[test]
    fn redundancy_augmentation_reduces_plans() {
        let t = fixture();
        let engine_a = QueryEngine::new(Arc::clone(&t));
        let engine_b = QueryEngine::new(Arc::clone(&t));
        let mut plain = BaselineStore::new(None);
        let mut lean = BaselineStore::new(Some(4.0));
        for i in 1..=20 {
            let target = [0.048 * i as f64, 0.04 * i as f64];
            let sv = compute_svector(&t, &instance_for_target(&t, &target));
            let oa = engine_a.optimize(&sv);
            plain.record(&sv, &oa, &engine_a);
            let ob = engine_b.optimize(&sv);
            lean.record(&sv, &ob, &engine_b);
        }
        assert!(lean.plans_cached() <= plain.plans_cached());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn redundancy_below_one_rejected() {
        let _ = BaselineStore::new(Some(0.5));
    }
}
