//! The paper's contribution: online parametric query optimization with
//! guarantees.
//!
//! Given a parameterized query and a tolerable cost sub-optimality bound
//! `λ ≥ 1`, an online PQO technique decides *per query instance* whether to
//! reuse a cached plan or invoke the optimizer. Three metrics matter
//! (Section 2.1):
//!
//! 1. **cost sub-optimality** — `SO(q) = Cost(P(q), q) / Cost(Popt(q), q)`,
//!    summarized as `MSO` (max) and `TotalCostRatio` (cost-weighted mean);
//! 2. **optimization overheads** — `numOpt`, the number of optimizer calls;
//! 3. **number of plans cached** — `numPlans`.
//!
//! [`scr::Scr`] implements the paper's SCR technique (Selectivity check,
//! Cost check, Redundancy check) with the λ-optimality guarantee under the
//! Bounded Cost Growth assumption; it is the sequential oracle.
//! [`service::PqoService`] is the concurrent, multi-template serving layer
//! over the same [`scr::CacheState`]. These two are the crate's only
//! `getPlan` implementations for SCR. [`baselines`] implements every technique
//! the paper compares against (Table 2): Optimize-Always, Optimize-Once,
//! PCM, Ellipse, Density and Ranges. [`runner`] executes a technique over a
//! workload sequence against a ground-truth oracle and produces
//! [`metrics::RunResult`]s.

pub mod baselines;
pub mod cache;
pub mod metrics;
pub mod persist;
pub mod replication;
pub mod runner;
pub mod scr;
pub mod service;
pub mod snapshot;
pub mod spatial;

pub use pqo_optimizer::engine;
pub use pqo_optimizer::error::PqoError;
pub use scr::{CacheState, Scr};
pub use service::PqoService;
pub use snapshot::{CacheSnapshot, CacheWriter, SnapshotCell};

use std::sync::Arc;

use pqo_optimizer::engine::QueryEngine;
use pqo_optimizer::plan::Plan;
use pqo_optimizer::svector::SVector;
use pqo_optimizer::template::QueryInstance;

/// The plan an online technique selected for one query instance.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// The selected plan.
    pub plan: Arc<Plan>,
    /// Whether a full optimizer call was made for this instance.
    pub optimized: bool,
}

/// An online PQO technique: the `getPlan` interface of Figure 2.
///
/// Implementations receive the instance, its pre-computed selectivity vector
/// and the engine (for optimizer / Recost calls), and must return a plan for
/// every instance. Cache management (`manageCache`) is internal to the
/// implementation.
pub trait OnlinePqo {
    /// Display name, e.g. `"SCR2"` or `"PCM1.1"`.
    fn name(&self) -> String;

    /// Choose a plan for the incoming instance `qc`. The engine is shared
    /// (`&QueryEngine` — its APIs are interior-mutable), so techniques never
    /// require exclusive optimizer access.
    fn get_plan(
        &mut self,
        instance: &QueryInstance,
        sv: &SVector,
        engine: &QueryEngine,
    ) -> PlanChoice;

    /// Number of plans currently cached.
    fn plans_cached(&self) -> usize;

    /// Maximum number of plans ever cached simultaneously (the paper's
    /// `numPlans` metric).
    fn max_plans_cached(&self) -> usize;
}

/// Shared test fixtures: the template shapes that the scr / persist /
/// service tests all exercise, built once here
/// instead of per-module copies.
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::Arc;

    use pqo_optimizer::engine::QueryEngine;
    use pqo_optimizer::svector::{compute_svector, instance_for_target};
    use pqo_optimizer::template::{QueryInstance, QueryTemplate, RangeOp, TemplateBuilder};

    use crate::{OnlinePqo, PlanChoice};

    /// The canonical two-dimensional join fixture (orders ⋈ lineitem with a
    /// range parameter on each side) used across the crate's tests.
    pub fn fixture_template(name: &str) -> Arc<QueryTemplate> {
        let cat = pqo_catalog::schemas::tpch_skew();
        let mut b = TemplateBuilder::new(name);
        let o = b.relation(cat.expect_table("orders"), "o");
        let l = b.relation(cat.expect_table("lineitem"), "l");
        b.join((o, "orders_pk"), (l, "orders_fk"));
        b.param(o, "o_totalprice", RangeOp::Le);
        b.param(l, "l_extendedprice", RangeOp::Le);
        b.build()
    }

    /// Single-relation fixture with two range parameters on `table`, for
    /// multi-template tests that want distinct per-template plan spaces.
    pub fn single_rel_template(
        name: &str,
        table: &str,
        col_a: &str,
        col_b: &str,
    ) -> Arc<QueryTemplate> {
        let cat = pqo_catalog::schemas::tpch_skew();
        let mut b = TemplateBuilder::new(name);
        let r = b.relation(cat.expect_table(table), "t");
        b.param(r, col_a, RangeOp::Le);
        b.param(r, col_b, RangeOp::Le);
        b.build()
    }

    /// Instance of `template` placed at the given selectivity target.
    pub fn inst_at(template: &Arc<QueryTemplate>, target: &[f64]) -> QueryInstance {
        instance_for_target(template, target)
    }

    /// Drive one `get_plan` through a technique at a selectivity target.
    pub fn run_point(
        technique: &mut dyn OnlinePqo,
        engine: &QueryEngine,
        target: &[f64],
    ) -> PlanChoice {
        let t = Arc::clone(engine.template());
        let inst = instance_for_target(&t, target);
        let sv = compute_svector(&t, &inst);
        technique.get_plan(&inst, &sv, engine)
    }
}
