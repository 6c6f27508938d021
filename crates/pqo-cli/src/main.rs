//! `pqo` — command-line explorer for the PQO reproduction.
//!
//! ```text
//! pqo templates [--catalog NAME]
//! pqo explain  --template ID --sel S1,S2,...
//! pqo recost   --template ID --plan-at S1,... --at S1,...
//! pqo run      --template ID [--tech scr|pcm|ellipse|density|ranges|once]
//!              [--lambda X] [--m N] [--seed N]
//!              [--save-cache FILE] [--load-cache FILE]   (scr only)
//! pqo cache    --template ID [--lambda X] [--m N]
//! pqo serve    --template ID [--lambda X] [--m N] [--seed N] [--batch N]
//! pqo serve    --listen ADDR --template ID[,ID...] [--templates-dir DIR]
//!              [--lambda X] [--policy scr|lec|penalty] [--snapshot-dir DIR]
//!              [--max-conns N] [--workers N]
//!              [--primary | --replica-of ADDR]
//! pqo client   --connect ADDR
//!              [--op plan|run|stats|explain|follow-lag|shutdown|idle]
//!              [--template ID | --sql-file PATH] [--sel S1,...]
//!              [--dialect postgres|mysql|duckdb] [--m N] [--seed N]
//!              [--batch N] [--check BOOL] [--policy scr|lec|penalty]
//!              [--conns N] [--hold-ms T] [--count N] [--interval-ms T]
//! ```

use std::process::exit;
use std::sync::Arc;

use pqo_core::baselines::{Density, Ellipse, OptimizeOnce, Pcm, Ranges};
use pqo_core::engine::QueryEngine;
use pqo_core::runner::{run_sequence, GroundTruth};
use pqo_core::scr::Scr;
use pqo_core::OnlinePqo;
use pqo_optimizer::svector::{compute_svector, instance_for_target};
use pqo_workload::corpus::{corpus, TemplateSpec};

mod args;
mod net;
use args::Args;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
        exit(2);
    }
    let cmd = argv.remove(0);
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            exit(2);
        }
    };
    let result = match cmd.as_str() {
        "templates" => templates(&args),
        "explain" => explain(&args),
        "recost" => recost_cmd(&args),
        "run" => run_cmd(&args),
        "cache" => cache_cmd(&args),
        "serve" => serve_cmd(&args),
        "client" => net::client_cmd(&args),
        other => {
            eprintln!("error: unknown command `{other}`");
            usage();
            exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn usage() {
    eprintln!(
        "usage:\n  pqo templates [--catalog NAME]\n  pqo explain --template ID --sel S1,S2,...\n  \
         pqo recost --template ID --plan-at S1,... --at S1,...\n  \
         pqo run --template ID [--tech scr|pcm|ellipse|density|ranges|once] [--lambda X] [--m N] [--seed N]\n  \
                 [--save-cache FILE] [--load-cache FILE]\n  \
         pqo cache --template ID [--lambda X] [--m N]\n  \
         pqo serve --template ID [--lambda X] [--m N] [--seed N] [--batch N]\n  \
         pqo serve --listen ADDR --template ID[,ID...] [--templates-dir DIR] [--lambda X] [--policy scr|lec|penalty]\n  \
                 [--snapshot-dir DIR] [--max-conns N] [--workers N] [--primary | --replica-of ADDR]\n  \
         pqo client --connect ADDR [--op plan|run|stats|explain|follow-lag|shutdown|idle]\n  \
                 [--template ID | --sql-file PATH] [--sel S1,...] [--dialect postgres|mysql|duckdb]\n  \
                 [--m N] [--seed N] [--batch N] [--check BOOL] [--policy scr|lec|penalty] [--conns N] [--hold-ms T]\n  \
                 [--count N] [--interval-ms T]"
    );
}

pub(crate) fn spec(args: &Args) -> Result<&'static TemplateSpec, String> {
    let id = args.get("template")?;
    corpus()
        .iter()
        .find(|s| s.id == id)
        .ok_or_else(|| format!("unknown template `{id}` (try `pqo templates`)"))
}

pub(crate) fn sels(args: &Args, key: &str, d: usize) -> Result<Vec<f64>, String> {
    let raw = args.get(key)?;
    let v: Result<Vec<f64>, _> = raw
        .split(',')
        .map(str::trim)
        .map(str::parse::<f64>)
        .collect();
    let v = v.map_err(|e| format!("--{key}: {e}"))?;
    if v.len() != d {
        return Err(format!(
            "--{key}: expected {d} selectivities, got {}",
            v.len()
        ));
    }
    if v.iter().any(|s| !(*s > 0.0 && *s <= 1.0)) {
        return Err(format!("--{key}: selectivities must lie in (0, 1]"));
    }
    Ok(v)
}

/// SCR configuration from CLI flags: λ plus the optional
/// `--policy scr|lec|penalty` serving-policy selector.
pub(crate) fn scr_config(args: &Args, lambda: f64) -> Result<pqo_core::scr::ScrConfig, String> {
    let mut cfg = pqo_core::scr::ScrConfig::new(lambda).map_err(|e| e.to_string())?;
    if let Some(raw) = args.opt("policy") {
        let policy = pqo_core::PolicyId::parse(&raw)
            .ok_or_else(|| format!("--policy: unknown policy `{raw}` (scr|lec|penalty)"))?;
        cfg = cfg.with_policy(policy);
    }
    Ok(cfg)
}

fn templates(args: &Args) -> Result<(), String> {
    let filter = args.opt("catalog");
    println!(
        "{:<20} {:<10} {:>2} {:>5} {:>6}  relations",
        "id", "catalog", "d", "rels", "edges"
    );
    for s in corpus() {
        if let Some(c) = &filter {
            if s.catalog != *c {
                continue;
            }
        }
        let rels: Vec<&str> = s
            .template
            .relations
            .iter()
            .map(|r| r.alias.as_str())
            .collect();
        println!(
            "{:<20} {:<10} {:>2} {:>5} {:>6}  {}",
            s.id,
            s.catalog,
            s.dimensions,
            s.template.num_relations(),
            s.template.join_edges.len(),
            rels.join(", ")
        );
    }
    Ok(())
}

fn explain(args: &Args) -> Result<(), String> {
    let spec = spec(args)?;
    let target = sels(args, "sel", spec.dimensions)?;
    let inst = instance_for_target(&spec.template, &target);
    let engine = QueryEngine::new(Arc::clone(&spec.template));
    let sv = engine.compute_svector(&inst);
    let opt = engine.optimize(&sv);
    println!("template : {} (d = {})", spec.id, spec.dimensions);
    println!(
        "sVector  : {:?}",
        sv.0.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    );
    println!("cost     : {:.2}", opt.cost);
    println!("{}", opt.plan.display(&spec.template));
    Ok(())
}

fn recost_cmd(args: &Args) -> Result<(), String> {
    let spec = spec(args)?;
    let d = spec.dimensions;
    let at_e = sels(args, "plan-at", d)?;
    let at_c = sels(args, "at", d)?;
    let engine = QueryEngine::new(Arc::clone(&spec.template));
    let sv_e = compute_svector(&spec.template, &instance_for_target(&spec.template, &at_e));
    let sv_c = compute_svector(&spec.template, &instance_for_target(&spec.template, &at_c));
    let opt_e = engine.optimize(&sv_e);
    let opt_c = engine.optimize_untracked(&sv_c);
    let recost = engine.recost(&opt_e.plan, &sv_c);
    let (g, l) = sv_c.g_and_l(&sv_e);
    let r = recost / opt_e.cost;
    println!("plan optimized at {:?}  (cost {:.2})", at_e, opt_e.cost);
    println!(
        "re-costed at      {:?}  -> Cost(Pe, qc) = {:.2}",
        at_c, recost
    );
    println!(
        "optimal at qc                 -> Cost(Pc, qc) = {:.2}",
        opt_c.cost
    );
    println!();
    println!("G = {g:.4}  L = {l:.4}  R = {r:.4}");
    println!("selectivity bound  G*L = {:.4}", g * l);
    println!("recost bound       R*L = {:.4}", r * l);
    println!("true sub-optimality     = {:.4}", recost / opt_c.cost);
    Ok(())
}

fn run_cmd(args: &Args) -> Result<(), String> {
    let spec = spec(args)?;
    let lambda: f64 = args.parse_or("lambda", 2.0)?;
    let m: usize = args.parse_or("m", 1000)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let tech_name = args.opt("tech").unwrap_or_else(|| "scr".into());
    let load_cache = args.opt("load-cache");
    let save_cache = args.opt("save-cache");
    if (load_cache.is_some() || save_cache.is_some()) && tech_name != "scr" {
        return Err("--load-cache/--save-cache only apply to --tech scr".into());
    }

    let instances = spec.generate(m, seed);
    let engine = QueryEngine::new(Arc::clone(&spec.template));
    let gt = GroundTruth::compute(&engine, &instances);

    let print_result = |r: &pqo_core::metrics::RunResult| {
        println!(
            "template            : {} (d = {})",
            spec.id, spec.dimensions
        );
        println!("technique           : {}", r.technique);
        println!("instances           : {}", r.num_instances);
        println!("distinct opt. plans : {}", r.distinct_optimal_plans);
        println!(
            "optimizer calls     : {} ({:.1}%)",
            r.num_opt,
            r.num_opt_pct()
        );
        println!("plans cached        : {}", r.num_plans);
        println!("MSO                 : {:.4}", r.mso());
        println!("TotalCostRatio      : {:.4}", r.total_cost_ratio());
        println!("recost calls        : {}", r.recost_calls);
        println!("getPlan time        : {:?}", r.getplan_time);
    };

    if tech_name == "scr" {
        let cfg = scr_config(args, lambda)?;
        let mut scr = match &load_cache {
            Some(path) => {
                let mut f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
                let scr =
                    pqo_core::persist::restore(cfg, &mut f).map_err(|e| format!("{path}: {e}"))?;
                println!(
                    "loaded cache from {path}: {} plans, {} instance entries",
                    scr.cache().num_plans(),
                    scr.cache().num_instances()
                );
                scr
            }
            None => Scr::with_config(cfg).map_err(|e| e.to_string())?,
        };
        let r = run_sequence(&mut scr, &engine, &instances, &gt);
        print_result(&r);
        if let Some(path) = save_cache {
            let mut f = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
            pqo_core::persist::save(&scr, 0, &mut f).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "saved cache to {path}: {} plans, {} instance entries",
                scr.cache().num_plans(),
                scr.cache().num_instances()
            );
        }
        return Ok(());
    }

    let mut tech: Box<dyn OnlinePqo> = match tech_name.as_str() {
        "pcm" => Box::new(Pcm::new(lambda)),
        "ellipse" => Box::new(Ellipse::new(0.9)),
        "density" => Box::new(Density::new(0.1, 0.5)),
        "ranges" => Box::new(Ranges::new(0.01)),
        "once" => Box::new(OptimizeOnce::new()),
        other => return Err(format!("unknown technique `{other}`")),
    };
    let r = run_sequence(tech.as_mut(), &engine, &instances, &gt);
    print_result(&r);
    Ok(())
}

fn cache_cmd(args: &Args) -> Result<(), String> {
    let spec = spec(args)?;
    let lambda: f64 = args.parse_or("lambda", 2.0)?;
    let m: usize = args.parse_or("m", 500)?;
    let instances = spec.generate(m, 42);
    let engine = QueryEngine::new(Arc::clone(&spec.template));
    let mut scr = Scr::with_config(scr_config(args, lambda)?).map_err(|e| e.to_string())?;
    for inst in &instances {
        let sv = engine.compute_svector(inst);
        let _ = scr.get_plan(inst, &sv, &engine);
    }
    let cache = scr.cache();
    let mem = cache.memory_breakdown();
    println!("after {m} instances at λ = {lambda}:");
    println!("plans cached        : {}", cache.num_plans());
    println!("instance entries    : {}", cache.num_instances());
    println!("selectivity hits    : {}", scr.stats().selectivity_hits);
    println!("cost-check hits     : {}", scr.stats().cost_hits);
    println!("optimizer calls     : {}", scr.stats().optimizer_calls);
    println!(
        "redundant discards  : {}",
        scr.stats().redundant_plans_discarded
    );
    println!();
    println!("memory — instance list : {:>8} B", mem.instance_list_bytes);
    println!(
        "memory — plan list     : {:>8} B (tree)",
        mem.plan_list_bytes
    );
    println!(
        "memory — plan list     : {:>8} B (Appendix B compact encoding)",
        mem.plan_list_compact_bytes
    );
    println!();
    println!("{:<10} {:>10} {:>8} {:>8}", "plan", "usage", "entries", "");
    for plan in cache.plans() {
        let fp = plan.fingerprint();
        let entries = cache.instances().iter().filter(|e| e.plan == fp).count();
        println!(
            "{:<10} {:>10} {:>8}",
            fp.to_string(),
            cache.plan_usage(fp),
            entries
        );
    }
    Ok(())
}

/// Drive the snapshot-published serving layer over a generated workload:
/// instances flow through [`pqo_core::PqoService::get_plan_batch`] in
/// `--batch N` chunks (default 1 = per-instance `get_plan`), then the
/// published snapshot's counters are reported. This is the CLI surface for
/// the concurrent deployment path — same decisions as `pqo run --tech scr`,
/// different machinery. With `--listen ADDR` the workload loop is replaced
/// by the TCP server from `pqo-server` (see [`net::serve_listen`]).
fn serve_cmd(args: &Args) -> Result<(), String> {
    if let Some(listen) = args.opt("listen") {
        return net::serve_listen(args, &listen);
    }
    let spec = spec(args)?;
    let lambda: f64 = args.parse_or("lambda", 2.0)?;
    let m: usize = args.parse_or("m", 1000)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let batch: usize = args.parse_or("batch", 1)?;
    if batch == 0 {
        return Err("--batch must be >= 1".into());
    }

    let service = pqo_core::PqoService::new();
    service
        .register(Arc::clone(&spec.template), scr_config(args, lambda)?)
        .map_err(|e| e.to_string())?;

    let instances = spec.generate(m, seed);
    let start = std::time::Instant::now();
    let mut optimized = 0usize;
    if batch == 1 {
        for inst in &instances {
            let choice = service
                .get_plan(&spec.id, inst)
                .map_err(|e| e.to_string())?;
            optimized += usize::from(choice.optimized);
        }
    } else {
        for chunk in instances.chunks(batch) {
            let choices = service
                .get_plan_batch(&spec.id, chunk)
                .map_err(|e| e.to_string())?;
            optimized += choices.iter().filter(|c| c.optimized).count();
        }
    }
    let elapsed = start.elapsed();

    let stats = service.scr_stats(&spec.id).map_err(|e| e.to_string())?;
    let snapshot = service.snapshot(&spec.id).map_err(|e| e.to_string())?;
    println!(
        "template            : {} (d = {})",
        spec.id, spec.dimensions
    );
    println!("instances           : {m} (batch size {batch})");
    println!(
        "optimizer calls     : {optimized} ({:.1}%)",
        100.0 * optimized as f64 / m.max(1) as f64
    );
    println!("plans cached        : {}", snapshot.cache().num_plans());
    println!("instance entries    : {}", snapshot.cache().num_instances());
    println!("selectivity hits    : {}", stats.selectivity_hits);
    println!("cost-check hits     : {}", stats.cost_hits);
    println!("recost calls        : {}", stats.getplan_recost_calls);
    println!(
        "recost time         : {:?}",
        std::time::Duration::from_nanos(stats.recost_nanos)
    );
    println!(
        "optimize time       : {:?}",
        std::time::Duration::from_nanos(stats.optimize_nanos)
    );
    println!("serve time          : {elapsed:?}");
    println!(
        "per instance        : {:?}",
        elapsed.checked_div(m.max(1) as u32).unwrap_or_default()
    );
    Ok(())
}
