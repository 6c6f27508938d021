//! The in-process oracle and the paper's quality metrics.
//!
//! Every decision a workload serves is compared with a fresh in-process
//! `PqoService` fed the same instances in the same order. The quality
//! metrics are scored on each workload's **reference stream**
//! (`inputs::REFERENCE_SEED`: the same instances in every run) against
//! per-instance ground truth (`optimize_untracked` + `recost_untracked`),
//! outside the technique's own accounting.

use std::sync::Arc;

use pqo_core::runner::GroundTruth;
use pqo_core::scr::ScrConfig;
use pqo_core::{PlanChoice, PqoService};
use pqo_optimizer::engine::QueryEngine;
use pqo_optimizer::template::QueryInstance;

use crate::inputs::TemplateInput;
use crate::report::Report;

/// What crossed a serving path for one decision: the plan's fingerprint and
/// whether the instance forced an optimizer call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    pub fingerprint: u64,
    pub optimized: bool,
}

impl From<&PlanChoice> for Decision {
    fn from(c: &PlanChoice) -> Self {
        Decision {
            fingerprint: c.plan.fingerprint().0,
            optimized: c.optimized,
        }
    }
}

/// Compares served decisions with the oracle's, one by one.
///
/// Two serving paths fed the same instances have to make the same decisions
/// — except where the program itself does not: when two cached plans cost
/// exactly the same at an instance, SCR's redundancy check stores the
/// instance with whichever `min_by` meets first in
/// `PlanCache::cached_plans()`, a `HashMap` whose iteration order differs
/// from one service instance to the next. From then on the two caches answer
/// through different plans and drift apart. So a mismatch on a template whose
/// oracle cache holds such a tie is counted apart (`tie_affected`) and is
/// not a failure; a mismatch on any other template is.
pub struct Checker {
    ids: Vec<String>,
    engines: Vec<QueryEngine>,
    /// Per template: does the oracle's cache hold a tie? Looked for at the
    /// template's first mismatch.
    tie_prone: Vec<Option<bool>>,
    pub compared: u64,
    pub failed: u64,
    pub tie_affected: u64,
}

impl Checker {
    pub fn new(templates: &[&TemplateInput]) -> Checker {
        Checker {
            ids: templates.iter().map(|t| t.id.clone()).collect(),
            engines: templates
                .iter()
                .map(|t| QueryEngine::new(Arc::clone(&t.template)))
                .collect(),
            tie_prone: vec![None; templates.len()],
            compared: 0,
            failed: 0,
            tie_affected: 0,
        }
    }

    /// Compare what was served (`got`) with what the oracle chose (`want`)
    /// for an instance of template number `template`; `oracle` holds the
    /// oracle's cache of that template.
    pub fn check(
        &mut self,
        template: usize,
        want: &PlanChoice,
        got: Decision,
        oracle: &PqoService,
    ) {
        self.compared += 1;
        if Decision::from(want) == got {
            return;
        }
        let tie_prone = match self.tie_prone[template] {
            Some(known) => known,
            None => {
                let found = self.holds_a_tie(template, oracle);
                self.tie_prone[template] = Some(found);
                found
            }
        };
        if tie_prone {
            self.tie_affected += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Is there a stored instance at which another cached plan costs exactly
    /// what the plan it is stored with costs?
    fn holds_a_tie(&self, template: usize, oracle: &PqoService) -> bool {
        let engine = &self.engines[template];
        let snapshot = oracle
            .snapshot(&self.ids[template])
            .expect("template is registered");
        let cache = snapshot.cache();
        cache.instances().iter().any(|entry| {
            let Some(stored) = cache.plan(entry.plan) else {
                return false;
            };
            let cost = engine.recost_untracked(stored, &entry.svector);
            cache.plans().any(|other| {
                other.fingerprint() != entry.plan && {
                    let c = engine.recost_untracked(other, &entry.svector);
                    (c - cost).abs() <= 1e-12 * cost.abs().max(c.abs())
                }
            })
        })
    }

    /// One line for the report when ties were met.
    pub fn note(&self) -> Option<String> {
        (self.tie_affected > 0).then(|| {
            let templates: Vec<&str> = self
                .tie_prone
                .iter()
                .zip(&self.ids)
                .filter(|(prone, _)| **prone == Some(true))
                .map(|(_, id)| id.as_str())
                .collect();
            format!(
                "{} of {} compared decisions differ on templates whose cache holds two plans of \
                 exactly equal cost at a stored instance ({}): the program breaks that tie by \
                 hash-map order; not counted as failures",
                self.tie_affected,
                self.compared,
                templates.join(", ")
            )
        })
    }
}

/// A fresh service with `templates` registered at λ = `lambda`.
pub fn fresh_service(templates: &[&TemplateInput], lambda: f64) -> PqoService {
    let service = PqoService::new();
    for t in templates {
        let config = ScrConfig::new(lambda).expect("workload λ is valid");
        service
            .register(Arc::clone(&t.template), config)
            .expect("template ids are distinct");
    }
    service
}

/// The paper's evaluation metrics over one or more scored streams.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    pub decisions: u64,
    /// numOpt: decisions that needed an optimizer call.
    pub optimizer_calls: u64,
    /// numPlans: plans cached when the streams ended, summed over templates.
    pub plans_cached: u64,
    /// Σ Cost(chosen, q) and Σ Cost(opt, q).
    pub chosen_cost: f64,
    pub optimal_cost: f64,
    /// MSO: the largest Cost(chosen, q) / Cost(opt, q).
    pub max_so: f64,
    /// Decisions whose sub-optimality exceeded λ. The guarantee holds under
    /// the bounded-cost-growth assumption, which the cost model breaks in
    /// rare spots on purpose (sort super-linearity, spills), as the paper's
    /// engine does; `tests/guarantee.rs` allows 1% and so does the benchmark.
    pub over_lambda: u64,
}

/// Largest share of a scored stream that may exceed λ (see
/// [`Quality::over_lambda`]).
pub const OVER_LAMBDA_ALLOWED: f64 = 0.01;

impl Quality {
    pub fn optimizer_call_share(&self) -> f64 {
        self.optimizer_calls as f64 / self.decisions as f64
    }

    pub fn total_cost_ratio(&self) -> f64 {
        self.chosen_cost / self.optimal_cost
    }

    /// The four quality metrics, as every workload reports them.
    pub fn report(&self, report: &mut Report) {
        report.set(
            "optimizer_call_share",
            self.optimizer_call_share(),
            self.decisions,
        );
        report.set("plans_cached", self.plans_cached as f64, self.decisions);
        report.set("total_cost_ratio", self.total_cost_ratio(), self.decisions);
        report.set("max_so", self.max_so, self.decisions);
    }

    pub fn add(&mut self, other: &Quality) {
        self.decisions += other.decisions;
        self.optimizer_calls += other.optimizer_calls;
        self.plans_cached += other.plans_cached;
        self.chosen_cost += other.chosen_cost;
        self.optimal_cost += other.optimal_cost;
        self.max_so = self.max_so.max(other.max_so);
        self.over_lambda += other.over_lambda;
    }

    /// Why the guarantee check fails on these streams, if it does.
    pub fn guarantee_violation(&self, lambda: f64) -> Option<String> {
        let share = self.over_lambda as f64 / self.decisions.max(1) as f64;
        (share > OVER_LAMBDA_ALLOWED).then(|| {
            format!(
                "{} of {} scored decisions exceeded λ = {lambda} (max_so {})",
                self.over_lambda, self.decisions, self.max_so
            )
        })
    }
}

/// Score `choices` (the oracle's decisions for `instances`, in order)
/// against ground truth on one template.
pub fn score_stream(
    t: &TemplateInput,
    lambda: f64,
    instances: &[QueryInstance],
    choices: &[PlanChoice],
    plans_cached: usize,
) -> Quality {
    assert_eq!(instances.len(), choices.len());
    let engine = QueryEngine::new(Arc::clone(&t.template));
    let mut q = Quality {
        decisions: instances.len() as u64,
        plans_cached: plans_cached as u64,
        max_so: 1.0,
        ..Quality::default()
    };
    // The repository's own evaluation oracle: one untracked optimizer call
    // per instance.
    let truth = GroundTruth::compute(&engine, instances);
    for (i, choice) in choices.iter().enumerate() {
        let optimal = truth.opt_costs[i];
        let chosen = if choice.plan.fingerprint() == truth.opt_plans[i].fingerprint() {
            optimal
        } else {
            engine
                .recost_untracked(&choice.plan, &truth.svectors[i])
                .max(optimal)
        };
        q.optimizer_calls += choice.optimized as u64;
        q.chosen_cost += chosen;
        q.optimal_cost += optimal;
        let so = chosen / optimal;
        q.max_so = q.max_so.max(so);
        // Room for rounding only, as `tests/guarantee.rs` leaves.
        q.over_lambda += (so > lambda * 1.001) as u64;
    }
    q
}

/// Serve `streams[k]` on template `k` through `service` (template by
/// template, as the paper evaluates) and return the decisions.
pub fn oracle_decisions(
    service: &PqoService,
    templates: &[&TemplateInput],
    streams: &[Vec<QueryInstance>],
) -> Vec<Vec<PlanChoice>> {
    templates
        .iter()
        .zip(streams)
        .map(|(t, stream)| {
            stream
                .iter()
                .map(|q| service.get_plan(&t.id, q).expect("template is registered"))
                .collect()
        })
        .collect()
}

/// Plans `service` holds for template `id`.
pub fn plans_of(service: &PqoService, id: &str) -> usize {
    service
        .snapshot(id)
        .expect("template is registered")
        .cache()
        .num_plans()
}

/// Quality of `decisions` (one list per template, for `streams[k]` in
/// order), with `service` holding the caches as those decisions left them.
pub fn score(
    templates: &[&TemplateInput],
    lambda: f64,
    service: &PqoService,
    streams: &[Vec<QueryInstance>],
    decisions: &[Vec<PlanChoice>],
) -> Quality {
    let mut total = Quality::default();
    for ((t, stream), choices) in templates.iter().zip(streams).zip(decisions) {
        total.add(&score_stream(
            t,
            lambda,
            stream,
            choices,
            plans_of(service, &t.id),
        ));
    }
    total
}
