//! The committed decision-stream golden, and run-to-run determinism.
//!
//! `Scr` and `PqoService` share one `CacheState`, so every oracle suite that
//! compares one serving path with another passes just as well when a change
//! moves *both* streams. This file pins the streams themselves: a hash of
//! every `(fingerprint, optimized)` decision of the sequential technique over
//! the paper's corpus, the `bench/templates` joins, the `lec` / `penalty`
//! policies and a handful of non-default configurations, against
//! `tests/fixtures/decision_stream.golden`. A change to the candidate search,
//! the cost check or `manageCache` that is meant to keep decisions has to
//! leave that file byte-identical; a change that means to move them
//! regenerates it (the failing test writes the new text beside the test
//! binaries and prints where) and says so.

mod common;

use std::fmt::Write as _;
use std::sync::Arc;

use common::{bigjoin_templates, fnv1a, lambda, mix, on_two_threads, spec, FNV_OFFSET};
use pqo::core::engine::QueryEngine;
use pqo::core::scr::{CandidateOrder, DynamicLambda, Scr, ScrConfig};
use pqo::core::{OnlinePqo, PolicyId, PqoService};
use pqo::optimizer::template::{QueryInstance, QueryTemplate};
use pqo::workload::corpus::{corpus, TemplateSpec};
use pqo::workload::regions;

/// FNV-1a over one decision: the served plan's fingerprint (little-endian)
/// and whether the optimizer was called.
fn fold_decision(hash: &mut u64, fingerprint: u64, optimized: bool) {
    fnv1a(
        hash,
        fingerprint
            .to_le_bytes()
            .into_iter()
            .chain([u8::from(optimized)]),
    );
}

/// One line of the golden: a stream served into a fresh `Scr`.
struct Job {
    label: String,
    template: Arc<QueryTemplate>,
    config: ScrConfig,
    instances: Vec<QueryInstance>,
}

impl Job {
    fn run(&self) -> u64 {
        let engine = QueryEngine::new(Arc::clone(&self.template));
        let mut scr = Scr::with_config(self.config.clone()).expect("golden configs are valid");
        let mut hash = FNV_OFFSET;
        for q in &self.instances {
            let sv = engine.compute_svector(q);
            let choice = scr.get_plan(q, &sv, &engine);
            fold_decision(&mut hash, choice.plan.fingerprint().0, choice.optimized);
        }
        hash
    }
}

fn jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    // The paper's evaluation: every corpus template at λ = 2 (what
    // `embedded_corpus` serves), on two seeds.
    for seed in [1u64, 7] {
        for s in corpus() {
            jobs.push(Job {
                label: format!("corpus seed={seed} {}", s.id),
                template: Arc::clone(&s.template),
                config: lambda(2.0),
                instances: s.generate(s.default_len(), seed),
            });
        }
    }
    // The 8-relation SQL templates at λ = 1.05 (what `embedded_bigjoin`
    // serves).
    let bigjoin = bigjoin_templates();
    for seed in [1u64, 7] {
        for (index, (id, template)) in bigjoin.iter().enumerate() {
            jobs.push(Job {
                label: format!("bigjoin seed={seed} {id}"),
                template: Arc::clone(template),
                config: lambda(1.05),
                instances: regions::generate(template, 1000, mix(seed, 100 + index as u64)),
            });
        }
    }
    // The two other policies share the candidate search.
    let three = ["rd2_R_d5", "rd2_S_d6", "rd2_T_d7"];
    for policy in [PolicyId::Lec, PolicyId::Penalty] {
        for id in three {
            let s = spec(id);
            jobs.push(Job {
                label: format!("policy={policy} seed=1 {id}"),
                template: Arc::clone(&s.template),
                config: lambda(2.0).with_policy(policy),
                instances: s.generate(s.default_len(), 1),
            });
        }
    }
    // Configurations no benchmark workload runs, each through code the
    // default never reaches, at λ = 1.2 on templates that mark Appendix G
    // violations in lists long enough for the nearest-first search (at λ = 2
    // only lists under 64 entries do): the two other candidate orders, the
    // nearest-first search from the first instance on, Appendix F's
    // simulated getPlan, dynamic λ, budget evictions (instance-list
    // compaction), the smallest violation window, Appendix G switched off.
    type Variant = (&'static str, usize, fn(&mut ScrConfig));
    let variants: [Variant; 8] = [
        ("nearest-first", 2000, |c| c.spatial_index_threshold = 0),
        ("linear-usage", 2000, |c| {
            c.spatial_index_threshold = usize::MAX;
            c.candidate_order = CandidateOrder::UsageDescending;
        }),
        ("linear-area", 2000, |c| {
            c.spatial_index_threshold = usize::MAX;
            c.candidate_order = CandidateOrder::AreaDescending;
        }),
        ("sweep", 400, |c| {
            c.spatial_index_threshold = 0;
            c.existing_plan_redundancy = true;
        }),
        ("dynamic-lambda", 2000, |c| {
            c.dynamic_lambda = Some(DynamicLambda {
                lambda_min: 1.1,
                lambda_max: 4.0,
            });
        }),
        ("budget-4", 2000, |c| c.plan_budget = Some(4)),
        // Two candidates, in the violation window's floor of 16 rows.
        ("fetch-1", 2000, |c| c.max_recost_candidates = 2),
        ("no-appendix-g", 2000, |c| c.violation_handling = false),
    ];
    for (name, len, tweak) in variants {
        for id in ["tpch_skew_C_d2", "tpch_skew_D_d3v", "rd2_T_d7"] {
            let s = spec(id);
            let mut config = lambda(1.2);
            tweak(&mut config);
            jobs.push(Job {
                label: format!("variant={name} seed=1 {id}"),
                template: Arc::clone(&s.template),
                config,
                instances: s.generate(len, 1),
            });
        }
    }
    jobs
}

#[test]
fn decision_streams_match_the_committed_golden() {
    let jobs = jobs();
    let mut actual = String::new();
    for (job, hash) in jobs.iter().zip(on_two_threads(&jobs, Job::run)) {
        writeln!(actual, "{} {hash:016x}", job.label).unwrap();
    }
    common::assert_matches_golden("decision_stream", &actual);
}

/// Decisions — and everything published on the way — are a function of the
/// request stream: the redundancy check once broke an exact cost tie between
/// two cached plans by `HashMap` iteration order, so two services fed the
/// same stream could keep different plans. These templates hold such ties on
/// these seeds. The plan list is ordered now, so sixteen fresh services must
/// agree on the decisions, on every delta record and on the persisted bytes.
#[test]
fn tie_holding_templates_decide_identically_in_every_service() {
    let cases: Vec<(&TemplateSpec, u64)> = ["rd2_R_d6", "rd2_P_d8", "rd2_R_d8"]
        .into_iter()
        .flat_map(|id| [16u64, 105, 110].map(|seed| (spec(id), seed)))
        .collect();
    on_two_threads(&cases, |&(s, seed)| {
        let instances = s.generate(s.default_len(), seed);
        // Decisions, delta records in publication order, persisted bytes.
        type Served = (Vec<(u64, bool)>, Vec<Vec<u8>>, Vec<u8>);
        let serve = || -> Served {
            let service = PqoService::new();
            service
                .register(Arc::clone(&s.template), lambda(2.0))
                .expect("fresh name");
            let (mut published, mut deltas) = (0u64, Vec::new());
            let decisions = instances
                .iter()
                .map(|q| {
                    let (c, generation) = service
                        .get_plan_with_generation(&s.id, q)
                        .expect("registered");
                    if generation > published {
                        let (record, _) = service
                            .generation_record(&s.id, Some(published))
                            .expect("registered");
                        deltas.push(record);
                        published = generation;
                    }
                    (c.plan.fingerprint().0, c.optimized)
                })
                .collect();
            let mut blob = Vec::new();
            service.save(&s.id, &mut blob).expect("registered");
            (decisions, deltas, blob)
        };
        let first = serve();
        for service in 1..16 {
            let again = serve();
            let at = first.0.iter().zip(&again.0).position(|(a, b)| a != b);
            assert!(
                at.is_none(),
                "{} seed {seed}: service {service} diverged at decision {at:?}",
                s.id
            );
            let at = first.1.iter().zip(&again.1).position(|(a, b)| a != b);
            assert!(
                at.is_none() && first.1.len() == again.1.len(),
                "{} seed {seed}: service {service} published another delta record at {at:?}",
                s.id
            );
            assert!(
                first.2 == again.2,
                "{} seed {seed}: service {service} persisted other bytes",
                s.id
            );
        }
    });
}
