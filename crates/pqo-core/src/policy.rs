//! The plan-selection policy layer (DESIGN.md §8).
//!
//! A policy is two functions the serving core calls —
//!
//! * **decide-on-hit**: given the published cache view and an incoming
//!   instance, serve a cached plan or return `None` to route the instance
//!   to the optimizer. Runs on the lock-free read path (`&CacheState`), so
//!   it may only touch atomics.
//! * **admit-on-miss**: after an optimizer call, mutate the cache
//!   (store/discard the new plan, evict for budget). Runs under the writer
//!   lock (`&mut CacheState`).
//!
//! Every policy shares the substrate built for SCR: the prepared/delta
//! Recost machinery ([`GetPlanScratch`]), the published
//! [`crate::snapshot::CacheSnapshot`] read path, and the candidate search
//! (`CacheState::list_candidates`, under the same crossover rule SCR
//! uses). Dispatch is a `match` on [`PolicyId`] at the two choke points in
//! `scr.rs` (`try_cached_plan_with` and `admit`): SCR's arms call
//! `scr_decide` / `scr_admit`, the others call this module's `lec_decide`,
//! `lec_admit` and `penalty_decide`. Static, no `dyn` in the hot loop.
//!
//! Policy identity travels with the cache: [`ScrConfig::policy`](crate::scr::ScrConfig::policy) at
//! construction, a tag byte in the persist header (v3) so a warm restart
//! refuses a mismatched policy, and a tag byte in every replication record
//! so replicas reject cross-policy generation streams with a typed error.
//!
//! # The serving-grade policies
//!
//! * [`PolicyId::Scr`] — the paper's technique, λ-guaranteed.
//! * [`PolicyId::Lec`] — least expected cost (Chu/Halpern/Seshadri): over
//!   the usage-weighted empirical neighbourhood of the query point, serve
//!   the cached plan with minimum expected Recost. No per-instance
//!   guarantee; optimizes when the neighbourhood is empty or too far.
//! * [`PolicyId::Penalty`] — PARQO-flavored robust selection: penalize
//!   each candidate plan by its recosted *regret* against the cached
//!   frontier across the neighbourhood, serve the minimax-regret plan,
//!   gated by λ-competitiveness with the frontier at the query point.
//!   Admission reuses SCR's `manageCache` (redundancy check + budget).

use std::time::Instant;

use pqo_optimizer::engine::{OptimizedPlan, QueryEngine};
use pqo_optimizer::plan::PlanFingerprint;
use pqo_optimizer::svector::SVector;

use crate::cache::InstanceEntry;
use crate::scr::{CacheState, CandidateOrder, CandidateSearch, GetPlanScratch};
use crate::PlanChoice;

/// Identity of a serving policy — threaded through [`ScrConfig`](crate::scr::ScrConfig), the
/// persist header, replication records, wire STATS and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyId {
    /// The paper's SCR technique (selectivity/cost/redundancy checks).
    #[default]
    Scr,
    /// Least-expected-cost selection over the empirical neighbourhood.
    Lec,
    /// Penalty-aware (minimax recosted regret) selection.
    Penalty,
}

impl PolicyId {
    /// Stable one-byte tag used in the persist header and replication
    /// records. Never renumber: persisted snapshots carry these bytes.
    pub fn as_tag(self) -> u8 {
        match self {
            PolicyId::Scr => 0,
            PolicyId::Lec => 1,
            PolicyId::Penalty => 2,
        }
    }

    /// Inverse of [`PolicyId::as_tag`]; `None` for an unknown tag (a
    /// snapshot from a future build).
    pub fn from_tag(tag: u8) -> Option<PolicyId> {
        match tag {
            0 => Some(PolicyId::Scr),
            1 => Some(PolicyId::Lec),
            2 => Some(PolicyId::Penalty),
            _ => None,
        }
    }

    /// The CLI/wire name (`scr` | `lec` | `penalty`).
    pub fn name(self) -> &'static str {
        match self {
            PolicyId::Scr => "scr",
            PolicyId::Lec => "lec",
            PolicyId::Penalty => "penalty",
        }
    }

    /// Parse a CLI/wire name, case-insensitively (`scr`, `LEC`, `Penalty`
    /// all work; see [`PolicyId::name`] for the canonical spellings).
    pub fn parse(s: &str) -> Option<PolicyId> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scr" => Some(PolicyId::Scr),
            "lec" => Some(PolicyId::Lec),
            "penalty" => Some(PolicyId::Penalty),
            _ => None,
        }
    }
}

impl std::fmt::Display for PolicyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The candidate neighbourhood both non-SCR policies decide over: the
/// nearest (smallest G·L) non-violation-disabled entries, at most
/// `max_recost_candidates`, gathered by the search SCR uses under the same
/// crossover — without its selectivity check. Left in `scratch.cands` as
/// `(G·L, entry index)` ascending.
fn candidate_entries(view: &CacheState, sv: &SVector, scratch: &mut GetPlanScratch) {
    let search = CandidateSearch {
        log_form: view.uses_log_form(),
        selectivity_check: false,
        order: CandidateOrder::GlAscending,
        k: view.config.max_recost_candidates.max(1),
    };
    let hit = view.list_candidates(sv, search, scratch);
    debug_assert!(hit.is_none(), "no selectivity check was asked for");
    if search.log_form {
        // The log form keys by distance: G·L = e^distance.
        for c in &mut scratch.cands {
            c.0 = c.0.exp();
        }
    }
}

/// Distinct plans referenced by the candidate entries, in fingerprint
/// order (deterministic regardless of entry order).
fn candidate_plans(view: &CacheState, cands: &[(f64, usize)]) -> Vec<PlanFingerprint> {
    let mut plans: Vec<PlanFingerprint> = cands
        .iter()
        .map(|&(_, idx)| view.cache.instances()[idx].plan)
        .collect();
    plans.sort();
    plans.dedup();
    plans
}

/// Serve through the nearest candidate entry holding `fp` (bumps that
/// entry's usage, exactly like SCR's serve path).
fn serve_entry_with_plan(
    view: &CacheState,
    cands: &[(f64, usize)],
    fp: PlanFingerprint,
) -> Option<PlanChoice> {
    cands
        .iter()
        .find(|&&(_, idx)| view.cache.instances()[idx].plan == fp)
        .map(|&(_, idx)| view.serve(idx))
}

/// Whether the neighbourhood is close enough to decide from at all: the
/// nearest entry must lie within ln λ in log-selectivity space (G·L ≤ λ,
/// with λ taken per-entry so dynamic λ composes). Beyond that, both
/// policies route to the optimizer — a distant neighbourhood carries no
/// evidence about the query point.
fn within_decision_radius(view: &CacheState, cands: &[(f64, usize)]) -> bool {
    cands.first().is_some_and(|&(gl, idx)| {
        let e = &view.cache.instances()[idx];
        gl <= view.effective_lambda(e.opt_cost)
    })
}

/// Least-expected-cost selection (Chu/Halpern/Seshadri, adapted online):
/// the per-template instance distribution is the *empirical* one the cache
/// already tracks — stored entries weighted by their usage counters. Over
/// the query's neighbourhood, each distinct cached plan is recosted at the
/// query point (weight 1) and at every neighbour entry (weight = usage),
/// and the plan with minimum expected cost serves. At most
/// `(K+1)·K` prepared Recosts per decision, K = `max_recost_candidates`.
pub(crate) fn lec_decide(
    view: &CacheState,
    sv: &SVector,
    engine: &QueryEngine,
    scratch: &mut GetPlanScratch,
) -> Option<PlanChoice> {
    candidate_entries(view, sv, scratch);
    let GetPlanScratch { cands, recost, .. } = scratch;
    if cands.is_empty() {
        return None; // cold cache: nothing to decide over
    }
    if !within_decision_radius(view, cands) {
        view.stats.record_policy_reject();
        return None;
    }
    let t0 = Instant::now();
    let mut recosts = 0u64;
    let mut best: Option<(f64, PlanFingerprint)> = None;
    for fp in candidate_plans(view, cands) {
        let cached = view
            .cache
            .cached(fp)
            .expect("candidate points to live plan");
        let prepared = cached.prepared(engine);
        let mut expected = engine.recost_prepared(prepared, sv, recost);
        recosts += 1;
        for &(_, idx) in cands.iter() {
            let e = &view.cache.instances()[idx];
            expected += e.usage() as f64 * engine.recost_prepared(prepared, &e.svector, recost);
            recosts += 1;
        }
        if best.is_none_or(|(c, _)| expected < c) {
            best = Some((expected, fp));
        }
    }
    view.stats
        .record_recosts(recosts, t0.elapsed().as_nanos() as u64);
    let (_, fp) = best?;
    let choice = serve_entry_with_plan(view, cands, fp)?;
    view.stats.record_policy_hit();
    Some(choice)
}

/// LEC's admission keeps every optimized plan (no redundancy check —
/// expected-cost selection wants the full frontier to choose from),
/// enforcing only the plan budget.
pub(crate) fn lec_admit(
    state: &mut CacheState,
    sv: &SVector,
    opt: OptimizedPlan,
    engine: &QueryEngine,
) {
    let fp = opt.plan.fingerprint();
    if state.cache.contains_plan(fp) {
        state
            .cache
            .push_instance(InstanceEntry::new(sv.clone(), fp, opt.cost, 1.0, 1));
        return;
    }
    state.enforce_plan_budget();
    state.cache.insert_plan(opt.plan);
    if let Some(c) = state.cache.cached(fp) {
        let _ = c.prepared(engine);
    }
    state
        .cache
        .push_instance(InstanceEntry::new(sv.clone(), fp, opt.cost, 1.0, 1));
    debug_assert!(state.cache.check_invariants().is_ok());
}

/// Penalty-aware (PARQO-flavored) robust selection: each candidate plan is
/// penalized by its recosted *regret* against the cached frontier — the
/// pointwise minimum over candidate plans — across the neighbourhood and
/// the query point. The minimax-regret plan serves only if it is
/// λ-competitive with the frontier at the query point itself; otherwise
/// the instance optimizes. Admission reuses SCR's `manageCache`
/// (redundancy check, budget eviction), so the cached frontier stays
/// non-redundant. At most `K·(K+1)` prepared Recosts per decision.
pub(crate) fn penalty_decide(
    view: &CacheState,
    sv: &SVector,
    engine: &QueryEngine,
    scratch: &mut GetPlanScratch,
) -> Option<PlanChoice> {
    candidate_entries(view, sv, scratch);
    let GetPlanScratch { cands, recost, .. } = scratch;
    if cands.is_empty() {
        return None;
    }
    if !within_decision_radius(view, cands) {
        view.stats.record_policy_reject();
        return None;
    }
    let t0 = Instant::now();
    let mut recosts = 0u64;
    let plans = candidate_plans(view, cands);
    // Cost matrix: each plan recosted at the query point and at every
    // candidate entry's sVector.
    let mut at_sv: Vec<f64> = Vec::with_capacity(plans.len());
    let mut matrix: Vec<Vec<f64>> = Vec::with_capacity(plans.len());
    for &fp in &plans {
        let cached = view
            .cache
            .cached(fp)
            .expect("candidate points to live plan");
        let prepared = cached.prepared(engine);
        at_sv.push(engine.recost_prepared(prepared, sv, recost));
        recosts += 1;
        let row: Vec<f64> = cands
            .iter()
            .map(|&(_, idx)| {
                recosts += 1;
                let e = &view.cache.instances()[idx];
                engine.recost_prepared(prepared, &e.svector, recost)
            })
            .collect();
        matrix.push(row);
    }
    view.stats
        .record_recosts(recosts, t0.elapsed().as_nanos() as u64);
    // Frontier: pointwise minimum over the candidate plans.
    let frontier_at_sv = at_sv.iter().copied().fold(f64::INFINITY, f64::min);
    let frontier: Vec<f64> = (0..cands.len())
        .map(|j| {
            matrix
                .iter()
                .map(|row| row[j])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    // Minimax recosted regret, including the query point.
    let mut best: Option<(f64, usize)> = None;
    for i in 0..plans.len() {
        let mut regret = at_sv[i] - frontier_at_sv;
        for (j, m) in frontier.iter().enumerate() {
            regret = regret.max(matrix[i][j] - m);
        }
        if best.is_none_or(|(r, _)| regret < r) {
            best = Some((regret, i));
        }
    }
    let (_, i) = best?;
    // λ-gate at the query point: serving a robust-but-bad plan here
    // would trade the current instance for hypothetical future ones.
    if at_sv[i] > view.config.lambda * frontier_at_sv {
        view.stats.record_policy_reject();
        return None;
    }
    let choice = serve_entry_with_plan(view, cands, plans[i])?;
    view.stats.record_policy_hit();
    Some(choice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scr::Scr;
    use crate::scr::ScrConfig;
    use crate::testutil::{fixture_template, run_point};
    use crate::OnlinePqo;
    use std::sync::Arc;

    #[test]
    fn tags_and_names_roundtrip() {
        for p in [PolicyId::Scr, PolicyId::Lec, PolicyId::Penalty] {
            assert_eq!(PolicyId::from_tag(p.as_tag()), Some(p));
            assert_eq!(PolicyId::parse(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(PolicyId::from_tag(3), None);
        // The tag bytes are a persisted format: pin them.
        assert_eq!(PolicyId::Scr.as_tag(), 0);
        assert_eq!(PolicyId::Lec.as_tag(), 1);
        assert_eq!(PolicyId::Penalty.as_tag(), 2);
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!(PolicyId::parse("SCR"), Some(PolicyId::Scr));
        assert_eq!(PolicyId::parse("LEC"), Some(PolicyId::Lec));
        assert_eq!(PolicyId::parse("Penalty"), Some(PolicyId::Penalty));
        assert_eq!(PolicyId::parse(" lec "), Some(PolicyId::Lec));
        assert_eq!(PolicyId::parse("pcm"), None);
        // Canonical names stay lowercase — wire/persist tags are unaffected.
        assert_eq!(PolicyId::parse("SCR").unwrap().name(), "scr");
    }

    fn warmed(policy: PolicyId) -> (Scr, pqo_optimizer::engine::QueryEngine) {
        let t = fixture_template("policy_test");
        let engine = pqo_optimizer::engine::QueryEngine::new(Arc::clone(&t));
        let cfg = ScrConfig::new(2.0).unwrap().with_policy(policy);
        let mut scr = Scr::with_config(cfg).unwrap();
        for i in 0..10 {
            let _ = run_point(&mut scr, &engine, &[0.05 + 0.09 * i as f64, 0.4]);
        }
        (scr, engine)
    }

    #[test]
    fn lec_serves_warm_neighbourhood_without_optimizing() {
        let (mut scr, engine) = warmed(PolicyId::Lec);
        assert_eq!(scr.name(), "LEC2");
        let before = scr.stats().optimizer_calls;
        let c = run_point(&mut scr, &engine, &[0.23, 0.4]);
        assert!(!c.optimized, "a warm neighbour must serve under LEC");
        assert_eq!(scr.stats().optimizer_calls, before);
        assert!(scr.stats().policy_hits > 0);
    }

    #[test]
    fn penalty_serves_warm_neighbourhood_and_gates_distant_points() {
        let (mut scr, engine) = warmed(PolicyId::Penalty);
        assert_eq!(scr.name(), "PEN2");
        let c = run_point(&mut scr, &engine, &[0.23, 0.4]);
        assert!(!c.optimized, "a warm neighbour must serve under Penalty");
        assert!(scr.stats().policy_hits > 0);
        // A point far outside the warmed band must route to the optimizer.
        let before = scr.stats().optimizer_calls;
        let c = run_point(&mut scr, &engine, &[0.97, 0.97]);
        assert!(c.optimized);
        assert_eq!(scr.stats().optimizer_calls, before + 1);
    }

    #[test]
    fn lec_skips_redundancy_check_entirely() {
        let (scr, _) = warmed(PolicyId::Lec);
        assert_eq!(
            scr.stats().redundant_plans_discarded,
            0,
            "LEC admission must not run the redundancy check"
        );
    }

    #[test]
    fn scr_policy_leaves_policy_counters_at_zero() {
        // Byte-identity guard: under PolicyId::Scr the new counters never
        // move, so pre- and post-refactor stat streams agree too.
        let (scr, _) = warmed(PolicyId::Scr);
        assert_eq!(scr.stats().policy_hits, 0);
        assert_eq!(scr.stats().policy_rejects, 0);
    }

    #[test]
    fn policies_enforce_plan_budget() {
        let t = fixture_template("policy_budget");
        let engine = pqo_optimizer::engine::QueryEngine::new(Arc::clone(&t));
        for policy in [PolicyId::Lec, PolicyId::Penalty] {
            let mut cfg = ScrConfig::new(1.05).unwrap().with_policy(policy);
            cfg.plan_budget = Some(2);
            cfg.lambda_r = 0.0;
            let mut scr = Scr::with_config(cfg).unwrap();
            for i in 1..=12 {
                let _ = run_point(&mut scr, &engine, &[0.08 * i as f64, 0.08 * i as f64]);
                assert!(scr.plans_cached() <= 2, "{policy}: budget violated");
                assert!(scr.cache().check_invariants().is_ok());
            }
        }
    }
}
