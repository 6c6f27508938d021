//! Regenerates every table and figure of the paper's evaluation
//! (Section 7 + Appendices D, E, H).
//!
//! Usage:
//!   cargo run --release -p pqo-bench --bin figures -- EXP [EXP...] [--quick]
//!
//! Experiments: fig1 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//!              fig15 fig16 fig17 fig18 fig19 fig20 fig21 tab3 appd appe
//!              sec73 all — plus extensions appf sec61 tab3x drift
//!
//! `--quick` runs a reduced corpus (every 6th template) with short
//! sequences — a smoke mode for CI. Full mode reproduces the paper's scale:
//! 90 templates × 5 orderings, m = 1000 (2000 for d > 3).
//!
//! Results are printed as paper-style summary tables and written to
//! `results/<exp>.csv`.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use pqo_bench::eval::{running_num_opt, EvalPlan, SeqSummary};
use pqo_bench::exec_sim::{simulate, ExecSimConfig};
use pqo_bench::report::{
    aggregate_by_technique, print_aggregates, summary_rows, write_csv, SUMMARY_HEADER,
};
use pqo_bench::techniques::TechSpec;
use pqo_core::engine::QueryEngine;
use pqo_core::metrics::{mean, percentile};
use pqo_core::runner::{run_sequence, GroundTruth};
use pqo_core::scr::{Scr, ScrConfig};
use pqo_core::OnlinePqo;
use pqo_workload::corpus::{corpus, corpus_with_dimensions, TemplateSpec};
use pqo_workload::orderings::Ordering;

struct Harness {
    quick: bool,
    dir: PathBuf,
    headline: OnceLock<Vec<SeqSummary>>,
    scr_sweep: OnceLock<Vec<SeqSummary>>,
}

impl Harness {
    fn new(quick: bool) -> Self {
        Harness {
            quick,
            dir: PathBuf::from("results"),
            headline: OnceLock::new(),
            scr_sweep: OnceLock::new(),
        }
    }

    fn specs(&self) -> Vec<&'static TemplateSpec> {
        if self.quick {
            corpus().iter().step_by(6).collect()
        } else {
            corpus().iter().collect()
        }
    }

    fn m_override(&self) -> Option<usize> {
        self.quick.then_some(150)
    }

    fn plan(&self, techniques: Vec<TechSpec>) -> EvalPlan<'static> {
        let mut p = EvalPlan::new(self.specs(), techniques);
        p.m_override = self.m_override();
        p
    }

    /// The headline run shared by Figures 6, 7, 9, 12, 13, 15, 16, 17, 20:
    /// the six Table 2 techniques over the full corpus and all orderings.
    fn headline(&self) -> &Vec<SeqSummary> {
        self.headline.get_or_init(|| {
            let t = Instant::now();
            let out = self.plan(TechSpec::headline()).run();
            eprintln!(
                "[headline run: {} sequences x 6 techniques in {:?}]",
                out.len() / 6,
                t.elapsed()
            );
            out
        })
    }

    /// The SCR λ-sweep run shared by Figures 8, 10, 14.
    fn scr_sweep(&self) -> &Vec<SeqSummary> {
        self.scr_sweep.get_or_init(|| {
            let t = Instant::now();
            let out = self.plan(TechSpec::scr_lambda_sweep()).run();
            eprintln!("[λ-sweep run in {:?}]", t.elapsed());
            out
        })
    }

    fn save(&self, name: &str, rows: &[SeqSummary]) {
        let path = write_csv(&self.dir, name, SUMMARY_HEADER, &summary_rows(rows)).expect("csv");
        println!("[csv] {}", path.display());
    }

    fn spec_by_id(&self, id: &str) -> &'static TemplateSpec {
        corpus()
            .iter()
            .find(|s| s.id == id)
            .unwrap_or_else(|| panic!("unknown template {id}"))
    }
}

fn filter<'a>(rows: &'a [SeqSummary], tech: &str) -> Vec<&'a SeqSummary> {
    rows.iter().filter(|r| r.technique == tech).collect()
}

// ---------------------------------------------------------------------------
// Figure 1: the motivating example — a 2-d workload processed by every
// technique, reporting who optimizes which instance.
// ---------------------------------------------------------------------------
fn fig1(h: &Harness) {
    println!("\n=== Figure 1: example 2-d workload, 13 instances ===");
    let spec = h.spec_by_id("tpch_skew_B_d2");
    // Hand-placed 2-d instances sketching Figure 1's layout: clusters that
    // admit reuse plus excursions that demand new plans.
    let targets: [[f64; 2]; 13] = [
        [0.020, 0.030], // q1
        [0.500, 0.500], // q2
        [0.026, 0.036], // q3  (near q1: cost check territory)
        [0.520, 0.480], // q4  (near q2: selectivity check)
        [0.022, 0.028], // q5
        [0.030, 0.024], // q6
        [0.150, 0.020], // q7  (same row as q1 cluster, farther out)
        [0.180, 0.025], // q8
        [0.900, 0.900], // q9  (far corner)
        [0.024, 0.033], // q10
        [0.510, 0.520], // q11
        [0.028, 0.030], // q12
        [0.060, 0.015], // q13
    ];
    let instances: Vec<_> = targets
        .iter()
        .map(|t| pqo_optimizer::svector::instance_for_target(&spec.template, t))
        .collect();
    let engine = QueryEngine::new(Arc::clone(&spec.template));
    let gt = GroundTruth::compute(&engine, &instances);
    println!(
        "distinct optimal plans in the example: {}",
        gt.distinct_plans()
    );
    println!(
        "{:<12} {:>8} {:>9}  per-instance decisions (O = optimizer call, . = reuse)",
        "technique", "numOpt", "MSO"
    );
    let mut csv = Vec::new();
    for tech in [
        TechSpec::Scr {
            lambda: 2.0,
            budget: None,
        },
        TechSpec::Pcm { lambda: 2.0 },
        TechSpec::Ellipse { delta: 0.9 },
        TechSpec::Density,
        TechSpec::Ranges { margin: 0.01 },
        TechSpec::OptOnce,
    ] {
        let mut t = tech.build();
        engine.reset_stats();
        let mut marks = String::new();
        let mut worst: f64 = 1.0;
        for (i, inst) in instances.iter().enumerate() {
            let sv = engine.compute_svector(inst);
            let c = t.get_plan(inst, &sv, &engine);
            marks.push(if c.optimized { 'O' } else { '.' });
            let so = if c.plan.fingerprint() == gt.opt_plans[i].fingerprint() {
                1.0
            } else {
                engine.recost_untracked(&c.plan, &gt.svectors[i]) / gt.opt_costs[i]
            };
            worst = worst.max(so);
        }
        println!(
            "{:<12} {:>8} {:>9.2}  {}",
            tech.label(),
            engine.stats().optimize_calls,
            worst,
            marks
        );
        csv.push(vec![
            tech.label(),
            engine.stats().optimize_calls.to_string(),
            format!("{worst:.4}"),
            marks,
        ]);
    }
    let p = write_csv(
        &h.dir,
        "fig1",
        &["technique", "num_opt", "mso", "decisions"],
        &csv,
    )
    .unwrap();
    println!("[csv] {}", p.display());
    println!("(paper: SCR optimizes 6 of 13; PCM 12; best heuristic 8)");
}

// ---------------------------------------------------------------------------
// Figures 6 & 7: MSO / TotalCostRatio distributions.
// ---------------------------------------------------------------------------
fn dist_figure(h: &Harness, name: &str, techs: [&str; 2], bound: Option<f64>) {
    let rows = h.headline();
    println!("\n=== {name}: MSO and TotalCostRatio distributions ===");
    let mut csv_rows = Vec::new();
    for tech in techs {
        let sel = filter(rows, tech);
        let msos: Vec<f64> = sel.iter().map(|r| r.mso).collect();
        let tcrs: Vec<f64> = sel.iter().map(|r| r.tcr).collect();
        println!(
            "{:<12} seqs={:<4} MSO p50/p95/max = {:.2}/{:.2}/{:.2}   TC p50/p95/p99/max = {:.3}/{:.3}/{:.3}/{:.3}",
            tech,
            sel.len(),
            percentile(&msos, 50.0).unwrap_or(f64::NAN),
            percentile(&msos, 95.0).unwrap_or(f64::NAN),
            msos.iter().cloned().fold(f64::NAN, f64::max),
            percentile(&tcrs, 50.0).unwrap_or(f64::NAN),
            percentile(&tcrs, 95.0).unwrap_or(f64::NAN),
            percentile(&tcrs, 99.0).unwrap_or(f64::NAN),
            tcrs.iter().cloned().fold(f64::NAN, f64::max),
        );
        let over10 = tcrs.iter().filter(|&&t| t > 10.0).count();
        println!(
            "{:<12} sequences with TC > 10: {}/{}",
            "",
            over10,
            sel.len()
        );
        if let Some(b) = bound {
            let viol = msos.iter().filter(|&&m| m > b * (1.0 + 1e-9)).count();
            println!(
                "{:<12} sequences with MSO > λ={b}: {}/{} (assumption-violation cases)",
                "",
                viol,
                sel.len()
            );
        }
        for r in sel {
            csv_rows.push((
                r.tcr,
                vec![
                    tech.to_string(),
                    r.template_id.clone(),
                    r.ordering.to_string(),
                    format!("{:.6}", r.mso),
                    format!("{:.6}", r.tcr),
                ],
            ));
        }
    }
    // The paper plots sequences in increasing TotalCostRatio order.
    csv_rows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let rows_only: Vec<Vec<String>> = csv_rows.into_iter().map(|(_, r)| r).collect();
    let p = write_csv(
        &h.dir,
        name,
        &["technique", "template", "ordering", "mso", "tcr"],
        &rows_only,
    )
    .unwrap();
    println!("[csv] {}", p.display());
}

fn fig6(h: &Harness) {
    dist_figure(h, "fig6", ["OptOnce", "Ellipse0.9"], None);
    println!("(paper: OptOnce has many sequences with very large MSO/TC; Ellipse cuts TC but keeps high-MSO tails)");
}

fn fig7(h: &Harness) {
    dist_figure(h, "fig7", ["PCM2", "SCR2"], Some(2.0));
    println!("(paper: both bounded, violations rare; SCR violates less; 99% of SCR2 sequences have TC < 2.16)");
}

// ---------------------------------------------------------------------------
// Figures 8 / 10 / 14: SCR λ sweep.
// ---------------------------------------------------------------------------
fn sweep_figure(h: &Harness, name: &str, metric: &str) {
    let rows = h.scr_sweep();
    println!("\n=== {name}: SCR with λ in {{1.1, 1.2, 1.5, 2}} — {metric} ===");
    let mut csv = Vec::new();
    for lambda in ["SCR1.1", "SCR1.2", "SCR1.5", "SCR2"] {
        let sel = filter(rows, lambda);
        let vals: Vec<f64> = match metric {
            "tcr" => sel.iter().map(|r| r.tcr).collect(),
            "num_opt_pct" => sel.iter().map(|r| r.num_opt_pct).collect(),
            "num_plans" => sel.iter().map(|r| r.num_plans as f64).collect(),
            _ => unreachable!(),
        };
        println!(
            "{:<8} avg = {:>8.3}   p50 = {:>8.3}   p95 = {:>8.3}   max = {:>8.3}",
            lambda,
            mean(&vals).unwrap_or(f64::NAN),
            percentile(&vals, 50.0).unwrap_or(f64::NAN),
            percentile(&vals, 95.0).unwrap_or(f64::NAN),
            vals.iter().cloned().fold(f64::NAN, f64::max)
        );
        csv.push(vec![
            lambda.to_string(),
            format!("{:.4}", mean(&vals).unwrap_or(f64::NAN)),
            format!("{:.4}", percentile(&vals, 50.0).unwrap_or(f64::NAN)),
            format!("{:.4}", percentile(&vals, 95.0).unwrap_or(f64::NAN)),
            format!("{:.4}", vals.iter().cloned().fold(f64::NAN, f64::max)),
        ]);
    }
    let p = write_csv(
        &h.dir,
        name,
        &["technique", "avg", "p50", "p95", "max"],
        &csv,
    )
    .unwrap();
    println!("[csv] {}", p.display());
}

fn fig8(h: &Harness) {
    sweep_figure(h, "fig8", "tcr");
    println!("(paper: TC stays well below λ and the gap widens with λ; avg TC ≈ 1.1 at λ=2)");
}

fn fig10(h: &Harness) {
    sweep_figure(h, "fig10", "num_opt_pct");
    println!("(paper: avg numOpt improves from 12% at λ=1.1 to ~3% at λ=2)");
}

fn fig14(h: &Harness) {
    sweep_figure(h, "fig14", "num_plans");
    println!("(paper: stored plans shrink significantly as λ grows)");
}

// ---------------------------------------------------------------------------
// Figure 9 / 13 / 16 / 17: aggregate comparisons across techniques.
// ---------------------------------------------------------------------------
fn fig9(h: &Harness) {
    let aggs = aggregate_by_technique(h.headline());
    print_aggregates("Figure 9: optimizer overheads (numOpt %)", &aggs);
    h.save("fig9", h.headline());
    println!(
        "(paper: SCR2 avg 3.7% / p95 13.9%; best heuristic avg 3.2% / p95 10.9%; PCM avg > 30%)"
    );
}

fn fig13(h: &Harness) {
    let aggs = aggregate_by_technique(h.headline());
    print_aggregates("Figure 13: numPlans (log-scale in the paper)", &aggs);
    h.save("fig13", h.headline());
    println!("(paper p95: SCR 15 plans, best heuristic 93, PCM 219)");
}

fn fig16(h: &Harness) {
    let aggs = aggregate_by_technique(h.headline());
    print_aggregates("Figure 16: aggregate MSO", &aggs);
    println!("(paper: heuristics an order of magnitude worse than SCR2 on average)");
}

fn fig17(h: &Harness) {
    let aggs = aggregate_by_technique(h.headline());
    print_aggregates("Figure 17: aggregate TotalCostRatio", &aggs);
    println!("(paper: SCR2 avg TC ≈ 1.1; PCM2 ≈ 3; heuristics skewed much higher)");
}

// ---------------------------------------------------------------------------
// Figure 11: 4-d example query, numOpt% as m grows.
// ---------------------------------------------------------------------------
fn fig11(h: &Harness) {
    println!("\n=== Figure 11: 4-d example query — numOpt% vs m ===");
    let spec = h.spec_by_id("tpch_skew_B_d4");
    let max_m = if h.quick { 2000 } else { 10_000 };
    let checkpoints: Vec<usize> = [1000, 2000, 5000, 10_000]
        .into_iter()
        .filter(|&c| c <= max_m)
        .collect();
    let mut csv = Vec::new();
    println!(
        "{:<8} {}",
        "tech",
        checkpoints
            .iter()
            .map(|c| format!("{c:>9}"))
            .collect::<String>()
    );
    for tech in [
        TechSpec::Scr {
            lambda: 1.1,
            budget: None,
        },
        TechSpec::Scr {
            lambda: 2.0,
            budget: None,
        },
        TechSpec::Pcm { lambda: 2.0 },
    ] {
        let curve = running_num_opt(spec, &tech, max_m, 11, &checkpoints);
        print!("{:<8}", tech.label());
        for (_, pct) in &curve {
            print!("{pct:>8.1}%");
        }
        println!();
        for (m, pct) in curve {
            csv.push(vec![tech.label(), m.to_string(), format!("{pct:.3}")]);
        }
    }
    let p = write_csv(&h.dir, "fig11", &["technique", "m", "num_opt_pct"], &csv).unwrap();
    println!("[csv] {}", p.display());
    println!("(paper: SCR2 improves from 6.5% to <1% with m; SCR1.1 matches PCM2 at large m)");
}

// ---------------------------------------------------------------------------
// Figure 12: numOpt% vs dimensions.
// ---------------------------------------------------------------------------
fn fig12(h: &Harness) {
    println!("\n=== Figure 12: numOpt% vs dimensions d (SCR2 vs PCM2) ===");
    let rows = h.headline();
    let mut csv = Vec::new();
    println!("{:<4} {:>10} {:>10} {:>6}", "d", "SCR2", "PCM2", "seqs");
    for d in 1..=10 {
        if corpus_with_dimensions(d).is_empty() {
            continue;
        }
        let scr: Vec<f64> = rows
            .iter()
            .filter(|r| r.dimensions == d && r.technique == "SCR2")
            .map(|r| r.num_opt_pct)
            .collect();
        let pcm: Vec<f64> = rows
            .iter()
            .filter(|r| r.dimensions == d && r.technique == "PCM2")
            .map(|r| r.num_opt_pct)
            .collect();
        if scr.is_empty() {
            continue;
        }
        let (s, p) = (mean(&scr).unwrap(), mean(&pcm).unwrap_or(f64::NAN));
        println!("{:<4} {:>9.1}% {:>9.1}% {:>6}", d, s, p, scr.len());
        csv.push(vec![
            d.to_string(),
            format!("{s:.3}"),
            format!("{p:.3}"),
            scr.len().to_string(),
        ]);
    }
    let p = write_csv(
        &h.dir,
        "fig12",
        &["d", "scr2_num_opt_pct", "pcm2_num_opt_pct", "sequences"],
        &csv,
    )
    .unwrap();
    println!("[csv] {}", p.display());
    println!(
        "(paper: PCM adds ≈10%/dimension (>50% at d=10); SCR starts at 6% and adds ≈5%/dimension)"
    );
}

// ---------------------------------------------------------------------------
// Figure 15: sequences where Optimize-Once is already good (MSO < 2).
// ---------------------------------------------------------------------------
fn fig15(h: &Harness) {
    println!("\n=== Figure 15: sequences where OptOnce has MSO < 2 ===");
    let rows = h.headline();
    let easy: std::collections::BTreeSet<(String, String)> = rows
        .iter()
        .filter(|r| r.technique == "OptOnce" && r.mso < 2.0)
        .map(|r| (r.template_id.clone(), r.ordering.to_string()))
        .collect();
    println!("easy sequences: {} of {}", easy.len(), rows.len() / 6);
    let subset: Vec<SeqSummary> = rows
        .iter()
        .filter(|r| easy.contains(&(r.template_id.clone(), r.ordering.to_string())))
        .cloned()
        .collect();
    let aggs = aggregate_by_technique(&subset);
    print_aggregates("per-technique behaviour on easy sequences", &aggs);
    h.save("fig15", &subset);
    println!("(paper: SCR stores <2 plans and optimizes 1.7% on these; others still store tens of plans / 10%+ calls)");
}

// ---------------------------------------------------------------------------
// Figure 18: 10-d example query, running numOpt% vs m.
// ---------------------------------------------------------------------------
fn fig18(h: &Harness) {
    println!("\n=== Figure 18: 10-d example query — running numOpt% ===");
    let spec = h.spec_by_id("rd2_T_d10");
    let max_m = if h.quick { 1000 } else { 5000 };
    let checkpoints: Vec<usize> = (1..=10).map(|k| k * max_m / 10).collect();
    let mut csv = Vec::new();
    for tech in [
        TechSpec::Scr {
            lambda: 2.0,
            budget: None,
        },
        TechSpec::Pcm { lambda: 2.0 },
        TechSpec::Ellipse { delta: 0.9 },
    ] {
        let curve = running_num_opt(spec, &tech, max_m, 18, &checkpoints);
        print!("{:<10}", tech.label());
        for (_, pct) in &curve {
            print!("{pct:>7.1}%");
        }
        println!();
        for (m, pct) in curve {
            csv.push(vec![tech.label(), m.to_string(), format!("{pct:.3}")]);
        }
    }
    let p = write_csv(&h.dir, "fig18", &["technique", "m", "num_opt_pct"], &csv).unwrap();
    println!("[csv] {}", p.display());
    println!("(paper: SCR2 tracks Ellipse (≈25% → ≈10%) while PCM2 stays ≈35% even at m=5000)");
}

// ---------------------------------------------------------------------------
// Figure 19: SCR2 numOpt% under plan-cache budgets.
// ---------------------------------------------------------------------------
fn fig19(h: &Harness) {
    println!("\n=== Figure 19: numOpt% vs plan budget k for SCR2 ===");
    let techs = vec![
        TechSpec::Scr {
            lambda: 2.0,
            budget: None,
        },
        TechSpec::Scr {
            lambda: 2.0,
            budget: Some(10),
        },
        TechSpec::Scr {
            lambda: 2.0,
            budget: Some(5),
        },
        TechSpec::Scr {
            lambda: 2.0,
            budget: Some(2),
        },
    ];
    let rows = h.plan(techs).run();
    let aggs = aggregate_by_technique(&rows);
    print_aggregates("SCR2 with plan budgets", &aggs);
    h.save("fig19", &rows);
    println!("(paper: k=10 and k=5 barely move numOpt; k=2 increases it significantly)");
}

// ---------------------------------------------------------------------------
// Figure 20: numOpt% restricted to random orderings.
// ---------------------------------------------------------------------------
fn fig20(h: &Harness) {
    println!("\n=== Figure 20: optimizer overheads, random orderings only ===");
    let rows: Vec<SeqSummary> = h
        .headline()
        .iter()
        .filter(|r| r.ordering == "random")
        .cloned()
        .collect();
    let aggs = aggregate_by_technique(&rows);
    print_aggregates("random-ordering subset", &aggs);
    h.save("fig20", &rows);
    println!(
        "(paper: PCM2 p95 drops 81%→39% on random orderings; SCR2 stays ≈12% across all orderings)"
    );
}

// ---------------------------------------------------------------------------
// Figure 21: Recost-based redundancy check added to the heuristics.
// ---------------------------------------------------------------------------
fn fig21(h: &Harness) {
    println!("\n=== Figure 21: heuristics with and without the Recost redundancy check ===");
    let lr = 2.0f64.sqrt();
    let techs = vec![
        TechSpec::Ellipse { delta: 0.9 },
        TechSpec::EllipseRedundant {
            delta: 0.9,
            lambda_r: lr,
        },
        TechSpec::Density,
        TechSpec::DensityRedundant { lambda_r: lr },
        TechSpec::Ranges { margin: 0.01 },
        TechSpec::RangesRedundant {
            margin: 0.01,
            lambda_r: lr,
        },
    ];
    let rows = h.plan(techs).run();
    let aggs = aggregate_by_technique(&rows);
    print_aggregates("heuristics ± redundancy check (λr = √2)", &aggs);
    h.save("fig21", &rows);
    println!("(paper: redundancy check shrinks numPlans (and often numOpt) but MSO/TC stay high or degrade)");
}

// ---------------------------------------------------------------------------
// Table 3: the execution-time simulation.
// ---------------------------------------------------------------------------
fn tab3(h: &Harness) {
    println!("\n=== Table 3: sample execution experiment (simulated execution) ===");
    let spec = h.spec_by_id("tpcds_G_d3");
    let m = if h.quick { 100 } else { 500 };
    let cfg = ExecSimConfig::default();
    let techs = [
        TechSpec::OptAlways,
        TechSpec::OptOnce,
        TechSpec::Ellipse { delta: 0.9 },
        TechSpec::Ellipse { delta: 0.7 },
        TechSpec::Scr {
            lambda: 1.1,
            budget: None,
        },
        TechSpec::Pcm { lambda: 1.1 },
        TechSpec::Ranges { margin: 0.01 },
    ];
    let rows = simulate(spec, m, &techs, &cfg, 33);
    println!(
        "{:<12} {:>10} {:>11} {:>10} {:>6}",
        "technique", "opt (s)", "exec (s)", "total (s)", "plans"
    );
    let mut csv = Vec::new();
    for r in &rows {
        println!(
            "{:<12} {:>10.1} {:>11.1} {:>10.1} {:>6}",
            r.technique, r.opt_time_s, r.exec_time_s, r.total_s, r.plans
        );
        csv.push(vec![
            r.technique.clone(),
            format!("{:.2}", r.opt_time_s),
            format!("{:.2}", r.exec_time_s),
            format!("{:.2}", r.total_s),
            r.plans.to_string(),
        ]);
    }
    let p = write_csv(
        &h.dir,
        "tab3",
        &["technique", "opt_s", "exec_s", "total_s", "plans"],
        &csv,
    )
    .unwrap();
    println!("[csv] {}", p.display());
    println!("(paper: OptAlways 188+230=418s/101 plans; OptOnce 543.5s; SCR1.1 280s/13 plans — the best total)");
}

// ---------------------------------------------------------------------------
// Appendix D: dynamic λ.
// ---------------------------------------------------------------------------
fn appd(h: &Harness) {
    println!("\n=== Appendix D: dynamic λ in [1.1, 10] vs static λ = 1.1 ===");
    // The paper uses TPC-DS Q25 (a dense template: 378 plans over 1000
    // instances); our densest TPC-DS shape plays that role.
    let spec = h.spec_by_id("tpcds_G_d4");
    let m = if h.quick { 300 } else { 1000 };
    let techs = vec![
        TechSpec::Scr {
            lambda: 1.1,
            budget: None,
        },
        TechSpec::ScrDynamic {
            lambda_min: 1.1,
            lambda_max: 10.0,
        },
    ];
    let mut plan = EvalPlan::new(vec![spec], techs);
    plan.orderings = vec![Ordering::Random];
    plan.m_override = Some(m);
    let rows = plan.run();
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>9}",
        "technique", "numOpt", "numPlans", "TC", "MSO"
    );
    let mut csv = Vec::new();
    for r in &rows {
        println!(
            "{:<14} {:>9} {:>9} {:>9.3} {:>9.2}",
            r.technique, r.num_opt, r.num_plans, r.tcr, r.mso
        );
        csv.push(vec![
            r.technique.clone(),
            r.num_opt.to_string(),
            r.num_plans.to_string(),
            format!("{:.4}", r.tcr),
            format!("{:.4}", r.mso),
        ]);
    }
    let p = write_csv(
        &h.dir,
        "appd",
        &["technique", "num_opt", "num_plans", "tcr", "mso"],
        &csv,
    )
    .unwrap();
    println!("[csv] {}", p.display());
    println!("(paper: dynamic λ improved numPlans 148→96 and numOpt 502→310 while TC only rose 1.03→1.08)");
}

// ---------------------------------------------------------------------------
// Appendix E + Section 7.3 overhead anatomy: λr sweep on a Q18-like
// template with direct access to SCR's internal counters.
// ---------------------------------------------------------------------------
fn run_scr_with_stats(
    spec: &TemplateSpec,
    m: usize,
    cfg: ScrConfig,
) -> (pqo_core::metrics::RunResult, pqo_core::scr::ScrStats, usize) {
    let instances = spec.generate(m, 99);
    let engine = QueryEngine::new(Arc::clone(&spec.template));
    let gt = GroundTruth::compute(&engine, &instances);
    let mut scr = Scr::with_config(cfg).expect("valid figure config");
    let r = run_sequence(&mut scr, &engine, &instances, &gt);
    (r, scr.stats(), scr.plans_cached())
}

fn appe(h: &Harness) {
    println!("\n=== Appendix E: choosing λr (Q18-like template, λ = 1.1) ===");
    let spec = h.spec_by_id("tpcds_G_d3");
    let m = if h.quick { 500 } else { 4000 };
    let lambda: f64 = 1.1;
    println!(
        "{:<10} {:>9} {:>12} {:>14} {:>9}",
        "λr", "plans", "numOpt", "maxRecost/gp", "TC"
    );
    let mut csv = Vec::new();
    for (label, lr) in [
        ("0", 0.0),
        ("1.01", 1.01),
        ("sqrt(λ)", lambda.sqrt()),
        ("λ", lambda),
    ] {
        let mut cfg = ScrConfig::new(lambda).expect("valid figure λ");
        cfg.lambda_r = lr;
        let (r, stats, plans) = run_scr_with_stats(spec, m, cfg);
        println!(
            "{:<10} {:>9} {:>12} {:>14} {:>9.3}",
            label,
            plans,
            r.num_opt,
            stats.max_recosts_per_getplan,
            r.total_cost_ratio()
        );
        csv.push(vec![
            label.to_string(),
            plans.to_string(),
            r.num_opt.to_string(),
            stats.max_recosts_per_getplan.to_string(),
            format!("{:.4}", r.total_cost_ratio()),
        ]);
    }
    let p = write_csv(
        &h.dir,
        "appe",
        &[
            "lambda_r",
            "plans",
            "num_opt",
            "max_recost_per_getplan",
            "tcr",
        ],
        &csv,
    )
    .unwrap();
    println!("[csv] {}", p.display());
    println!("(paper: λr=√λ retains 5 of 77 plans, ≤3 Recost calls per getPlan, TC 1.03→1.04)");
}

fn sec73(h: &Harness) {
    println!("\n=== Section 7.3: getPlan overhead anatomy (Q18-like, 4000 instances) ===");
    let spec = h.spec_by_id("tpcds_G_d3");
    let m = if h.quick { 500 } else { 4000 };
    let mut csv = Vec::new();
    for (label, lr, cap) in [
        ("λr=0, no GL pruning", 0.0, usize::MAX),
        ("λr=0, GL pruning(8)", 0.0, 8),
        ("λr=√λ, GL pruning(8)", 1.1f64.sqrt(), 8),
    ] {
        let mut cfg = ScrConfig::new(1.1).expect("valid figure λ");
        cfg.lambda_r = lr;
        cfg.max_recost_candidates = cap;
        let (r, stats, plans) = run_scr_with_stats(spec, m, cfg);
        println!(
            "{:<24} plans={:<5} numOpt={:<5} recostCalls={:<7} maxRecost/getPlan={:<4} selHits={:<5} costHits={:<5} TC={:.3}",
            label, plans, r.num_opt, r.recost_calls, stats.max_recosts_per_getplan,
            stats.selectivity_hits, stats.cost_hits, r.total_cost_ratio()
        );
        csv.push(vec![
            label.to_string(),
            plans.to_string(),
            r.num_opt.to_string(),
            r.recost_calls.to_string(),
            stats.max_recosts_per_getplan.to_string(),
            stats.selectivity_hits.to_string(),
            stats.cost_hits.to_string(),
            format!("{:.4}", r.total_cost_ratio()),
        ]);
    }
    let p = write_csv(
        &h.dir,
        "sec73",
        &[
            "config",
            "plans",
            "num_opt",
            "recost_calls",
            "max_recost_per_getplan",
            "sel_hits",
            "cost_hits",
            "tcr",
        ],
        &csv,
    )
    .unwrap();
    println!("[csv] {}", p.display());
    println!("(paper: pruning cuts worst-case Recost calls 162→8; λr=√λ further to ≤3 with only 5 plans)");
}

// ---------------------------------------------------------------------------
// Table 3 with REAL execution: the same experiment as tab3, but every chosen
// plan is actually executed against scaled synthetic data (pqo-exec), so the
// execution column is measured wall time, not cost-proportional simulation.
// Optimization time is charged per call at the paper's rates (an optimizer
// call on the paper's query costs ~376 ms; ours costs microseconds because
// the DP is small — the *trade-off*, not the absolute scale, is the point).
// ---------------------------------------------------------------------------
fn tab3x(h: &Harness) {
    println!("\n=== Table 3 (executed): real execution on scaled data ===");
    let spec = h.spec_by_id("tpcds_G_d3");
    let m = if h.quick { 100 } else { 500 };
    let divisor = if h.quick { 2000 } else { 500 };
    let db = pqo_exec::Database::build(&pqo_catalog::schemas::tpcds(), divisor, 99);
    println!(
        "scaled database: {} rows total (1/{divisor} scale)",
        db.total_rows()
    );
    let instances = spec.generate(m, 33);
    let engine = QueryEngine::new(Arc::clone(&spec.template));
    let (opt_ms, recost_ms, sv_ms) = (376.0, 5.0, 0.5);
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10} {:>6}",
        "technique", "opt chg (s)", "exec (s)", "total (s)", "out rows", "plans"
    );
    let mut csv = Vec::new();
    for tech in [
        TechSpec::OptAlways,
        TechSpec::OptOnce,
        TechSpec::Ellipse { delta: 0.9 },
        TechSpec::Scr {
            lambda: 1.1,
            budget: None,
        },
        TechSpec::Pcm { lambda: 1.1 },
        TechSpec::Ranges { margin: 0.01 },
    ] {
        let mut t = tech.build();
        engine.reset_stats();
        let mut exec_wall = std::time::Duration::ZERO;
        let mut out_rows = 0usize;
        for (i, inst) in instances.iter().enumerate() {
            let sv = engine.compute_svector(inst);
            let choice = t.get_plan(inst, &sv, &engine);
            let _ = i;
            let r = pqo_exec::execute(&db, &spec.template, &choice.plan, inst);
            exec_wall += r.wall;
            out_rows += r.rows;
        }
        let stats = engine.stats();
        let opt_charged_s = (stats.optimize_calls as f64 * opt_ms
            + stats.recost_calls as f64 * recost_ms
            + stats.svector_calls as f64 * sv_ms)
            / 1e3;
        let exec_s = exec_wall.as_secs_f64();
        println!(
            "{:<12} {:>12.1} {:>12.3} {:>12.1} {:>10} {:>6}",
            tech.label(),
            opt_charged_s,
            exec_s,
            opt_charged_s + exec_s,
            out_rows,
            t.max_plans_cached()
        );
        csv.push(vec![
            tech.label(),
            format!("{opt_charged_s:.2}"),
            format!("{exec_s:.4}"),
            format!("{:.2}", opt_charged_s + exec_s),
            out_rows.to_string(),
            t.max_plans_cached().to_string(),
        ]);
    }
    let p = write_csv(
        &h.dir,
        "tab3x",
        &[
            "technique",
            "opt_charged_s",
            "exec_wall_s",
            "total_s",
            "out_rows",
            "plans",
        ],
        &csv,
    )
    .unwrap();
    println!("[csv] {}", p.display());
    println!("note: identical out_rows across techniques = answers never change, only time;");
    println!("      at 1/{divisor} scale the execution seconds are small — compare ratios, not magnitudes.");
}

// ---------------------------------------------------------------------------
// Extension ablations (beyond the paper's figures, clearly marked):
//  appf  — Appendix F existing-plan redundancy sweep on/off.
//  sec61 — plan-cache memory accounting (tree vs Appendix B compact).
// ---------------------------------------------------------------------------

fn appf(h: &Harness) {
    println!("\n=== Appendix F (ablation): existing-plan redundancy sweep ===");
    let spec = h.spec_by_id("tpcds_G_d3");
    let m = if h.quick { 500 } else { 2000 };
    println!(
        "{:<10} {:>7} {:>9} {:>9} {:>12} {:>9}",
        "sweep", "plans", "dropped", "numOpt", "recostCalls", "TC"
    );
    let mut csv = Vec::new();
    for sweep in [false, true] {
        let mut cfg = ScrConfig::new(1.5).expect("valid figure λ");
        cfg.lambda_r = 0.0; // store aggressively so the sweep has work
        cfg.existing_plan_redundancy = sweep;
        let (r, stats, plans) = run_scr_with_stats(spec, m, cfg);
        println!(
            "{:<10} {:>7} {:>9} {:>9} {:>12} {:>9.3}",
            sweep,
            plans,
            stats.existing_plans_dropped,
            r.num_opt,
            r.recost_calls,
            r.total_cost_ratio()
        );
        csv.push(vec![
            sweep.to_string(),
            plans.to_string(),
            stats.existing_plans_dropped.to_string(),
            r.num_opt.to_string(),
            r.recost_calls.to_string(),
            format!("{:.4}", r.total_cost_ratio()),
        ]);
    }
    let p = write_csv(
        &h.dir,
        "appf",
        &[
            "sweep",
            "plans",
            "dropped",
            "num_opt",
            "recost_calls",
            "tcr",
        ],
        &csv,
    )
    .unwrap();
    println!("[csv] {}", p.display());
    println!("(extension: the paper describes the sweep but evaluates only new-plan redundancy)");
}

fn sec61(h: &Harness) {
    println!("\n=== Section 6.1 (ablation): plan-cache memory accounting ===");
    let spec = h.spec_by_id("tpcds_G_d3");
    let m = if h.quick { 500 } else { 2000 };
    println!(
        "{:<8} {:>7} {:>9} {:>14} {:>14} {:>16}",
        "λ", "plans", "entries", "instList (B)", "planList (B)", "planCompact (B)"
    );
    let mut csv = Vec::new();
    for lambda in [1.1, 2.0] {
        let instances = spec.generate(m, 99);
        let engine = QueryEngine::new(Arc::clone(&spec.template));
        let mut scr = Scr::new(lambda).expect("valid figure λ");
        for inst in &instances {
            let sv = engine.compute_svector(inst);
            let _ = scr.get_plan(inst, &sv, &engine);
        }
        let mem = scr.cache().memory_breakdown();
        println!(
            "{:<8} {:>7} {:>9} {:>14} {:>14} {:>16}",
            lambda,
            scr.cache().num_plans(),
            scr.cache().num_instances(),
            mem.instance_list_bytes,
            mem.plan_list_bytes,
            mem.plan_list_compact_bytes
        );
        csv.push(vec![
            lambda.to_string(),
            scr.cache().num_plans().to_string(),
            scr.cache().num_instances().to_string(),
            mem.instance_list_bytes.to_string(),
            mem.plan_list_bytes.to_string(),
            mem.plan_list_compact_bytes.to_string(),
        ]);
    }
    let p = write_csv(
        &h.dir,
        "sec61",
        &[
            "lambda",
            "plans",
            "instance_entries",
            "instance_list_bytes",
            "plan_list_bytes",
            "plan_list_compact_bytes",
        ],
        &csv,
    )
    .unwrap();
    println!("[csv] {}", p.display());
    println!("(Section 6.1: instance list is the small contributor; Appendix B encoding shrinks the plan list)");
}

// ---------------------------------------------------------------------------
// Extension: workload drift. Section 6.3.1's LFU eviction "is expected to
// perform well when future workload has the same query instance
// distribution as Wpast" — this experiment stresses the opposite: the
// instance distribution flips mid-sequence (selective → unselective
// region), and we watch each technique's optimizer calls per half, plus
// the single-plan ReoptBind baseline of the related work.
// ---------------------------------------------------------------------------
fn drift(h: &Harness) {
    use pqo_optimizer::svector::instance_for_target;
    use pqo_rand::rngs::StdRng;
    use pqo_rand::{Rng, SeedableRng};
    println!("\n=== Extension: workload drift (distribution flips at m/2) ===");
    let spec = h.spec_by_id("tpcds_G_d3");
    let m = if h.quick { 300 } else { 2000 };
    let d = spec.dimensions;
    let mut rng = StdRng::seed_from_u64(0xD21F7);
    let mut instances = Vec::with_capacity(m);
    for k in 0..m {
        let target: Vec<f64> = (0..d)
            .map(|_| {
                if k < m / 2 {
                    // Phase 1: selective region.
                    (0.001f64.ln() + rng.gen::<f64>() * (0.05f64.ln() - 0.001f64.ln())).exp()
                } else {
                    // Phase 2: unselective region.
                    rng.gen_range(0.2..=1.0)
                }
            })
            .collect();
        instances.push(instance_for_target(&spec.template, &target));
    }
    let engine = QueryEngine::new(Arc::clone(&spec.template));
    let gt = GroundTruth::compute(&engine, &instances);

    println!(
        "{:<14} {:>12} {:>12} {:>9} {:>9} {:>9}",
        "technique", "opt% 1st half", "opt% 2nd half", "plans", "MSO", "TC"
    );
    let mut csv = Vec::new();
    for tech in [
        TechSpec::Scr {
            lambda: 2.0,
            budget: None,
        },
        TechSpec::Scr {
            lambda: 2.0,
            budget: Some(5),
        },
        TechSpec::Pcm { lambda: 2.0 },
        TechSpec::Ranges { margin: 0.01 },
        TechSpec::ReoptBind { threshold: 4.0 },
        TechSpec::OptOnce,
    ] {
        let mut t = tech.build();
        engine.reset_stats();
        let mut opts = [0u64; 2];
        let mut worst: f64 = 1.0;
        let mut chosen_cost = 0.0;
        let mut opt_cost = 0.0;
        for (i, inst) in instances.iter().enumerate() {
            let sv = engine.compute_svector(inst);
            let choice = t.get_plan(inst, &sv, &engine);
            if choice.optimized {
                opts[if i < m / 2 { 0 } else { 1 }] += 1;
            }
            let so = if choice.plan.fingerprint() == gt.opt_plans[i].fingerprint() {
                1.0
            } else {
                (engine.recost_untracked(&choice.plan, &gt.svectors[i]) / gt.opt_costs[i]).max(1.0)
            };
            worst = worst.max(so);
            chosen_cost += so * gt.opt_costs[i];
            opt_cost += gt.opt_costs[i];
        }
        let half = (m / 2) as f64;
        println!(
            "{:<14} {:>11.1}% {:>11.1}% {:>9} {:>9.2} {:>9.3}",
            tech.label(),
            100.0 * opts[0] as f64 / half,
            100.0 * opts[1] as f64 / half,
            t.max_plans_cached(),
            worst,
            chosen_cost / opt_cost
        );
        csv.push(vec![
            tech.label(),
            format!("{:.3}", 100.0 * opts[0] as f64 / half),
            format!("{:.3}", 100.0 * opts[1] as f64 / half),
            t.max_plans_cached().to_string(),
            format!("{worst:.4}"),
            format!("{:.4}", chosen_cost / opt_cost),
        ]);
    }
    let p = write_csv(
        &h.dir,
        "drift",
        &[
            "technique",
            "opt_pct_phase1",
            "opt_pct_phase2",
            "plans",
            "mso",
            "tcr",
        ],
        &csv,
    )
    .unwrap();
    println!("[csv] {}", p.display());
    println!("(extension: SCR re-learns the new region with a burst of calls, then settles;");
    println!(" the k=5 budget forces LFU turnover at the flip; single-plan baselines stay cheap but unbounded)");
}

// ---------------------------------------------------------------------------

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let exps: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if exps.is_empty() {
        eprintln!("usage: figures [--quick] <fig1|fig6..fig21|tab3|tab3x|appd|appe|sec73|appf|sec61|drift|all> ...");
        std::process::exit(2);
    }
    let h = Harness::new(quick);
    let t0 = Instant::now();
    let all = [
        "fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
        "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "tab3", "appd", "appe",
        "sec73", "appf", "sec61", "tab3x", "drift",
    ];
    let run_list: Vec<&str> = if exps.contains(&"all") {
        all.to_vec()
    } else {
        exps
    };
    for exp in run_list {
        match exp {
            "fig1" => fig1(&h),
            "fig6" => fig6(&h),
            "fig7" => fig7(&h),
            "fig8" => fig8(&h),
            "fig9" => fig9(&h),
            "fig10" => fig10(&h),
            "fig11" => fig11(&h),
            "fig12" => fig12(&h),
            "fig13" => fig13(&h),
            "fig14" => fig14(&h),
            "fig15" => fig15(&h),
            "fig16" => fig16(&h),
            "fig17" => fig17(&h),
            "fig18" => fig18(&h),
            "fig19" => fig19(&h),
            "fig20" => fig20(&h),
            "fig21" => fig21(&h),
            "tab3" => tab3(&h),
            "appd" => appd(&h),
            "appe" => appe(&h),
            "sec73" => sec73(&h),
            "appf" => appf(&h),
            "tab3x" => tab3x(&h),
            "drift" => drift(&h),
            "sec61" => sec61(&h),
            other => eprintln!("unknown experiment `{other}` (skipped)"),
        }
    }
    eprintln!("\n[total: {:?}]", t0.elapsed());
}
