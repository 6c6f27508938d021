//! Network mode: `pqo serve --listen ADDR` runs the TCP server from
//! `pqo-server` over a [`pqo_core::PqoService`]; `pqo client` drives it
//! from another process.
//!
//! The serve side registers one plan cache per `--template` id (comma
//! separated) and one per `.sql` file under `--templates-dir` (compiled by
//! `pqo-sql`, named by file stem, bound against the catalog its
//! `-- pqo:catalog` directive declares), warm-restarts each from
//! `--snapshot-dir` when a prior snapshot exists (refusing snapshots
//! written under a retired serving policy), and prints a per-template counter
//! summary after a graceful shutdown (triggered by a client's `SHUTDOWN`
//! frame). With `--replica-of ADDR` the server runs as a read replica: it
//! subscribes to the primary's generation stream, serves hits from the
//! applied snapshots and forwards misses (`--primary` names the default
//! role explicitly). The client side offers ops — `plan`, `run`, `stats`,
//! `explain`, `follow-lag`, `shutdown`, `idle` — inferred from the flags
//! or forced with `--op`; targets come from the corpus (`--template ID`)
//! or from a local SQL file (`--sql-file PATH`, compiled exactly as the
//! server compiles it); `run --check true` replays the same generated
//! workload through an in-process oracle and fails on the first decision
//! divergence, reporting the diverging instance index and both decisions;
//! `explain` fetches the chosen plan rendered as dialect-specific hinted
//! SQL; `follow-lag` polls a replica's generation lag.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pqo_catalog::{schemas, Catalog};
use pqo_core::PqoService;
use pqo_optimizer::svector::instance_for_target;
use pqo_optimizer::template::{QueryInstance, QueryTemplate};
use pqo_server::{snapshot_file_name, PqoClient, PqoServer, ServerConfig};
use pqo_sql::DialectKind;
use pqo_workload::corpus::{corpus, TemplateSpec};
use pqo_workload::regions;

use crate::args::Args;
use crate::{scr_config, sels, spec};

fn spec_by_id(id: &str) -> Result<&'static TemplateSpec, String> {
    corpus()
        .iter()
        .find(|s| s.id == id)
        .ok_or_else(|| format!("unknown template `{id}` (try `pqo templates`)"))
}

/// Build a catalog by its directive name, memoizing across template files
/// (construction builds every column's histogram).
fn cached_catalog<'a>(cache: &'a mut Vec<Catalog>, name: &str) -> Result<&'a Catalog, String> {
    if let Some(i) = cache.iter().position(|c| c.name() == name) {
        return Ok(&cache[i]);
    }
    let built = match name {
        "tpch_skew" => schemas::tpch_skew(),
        "tpcds" => schemas::tpcds(),
        "rd1" => schemas::rd1(),
        "rd2" => schemas::rd2(),
        other => {
            return Err(format!(
                "unknown catalog `{other}` (tpch_skew|tpcds|rd1|rd2)"
            ))
        }
    };
    cache.push(built);
    Ok(cache.last().expect("just pushed"))
}

/// Compile one `.sql` template file: read, resolve the catalog its
/// `-- pqo:catalog` directive names, and bind. The template is named by
/// the file stem. Errors carry the file path plus the caret-rendered span.
fn compile_sql_file(
    path: &Path,
    catalogs: &mut Vec<Catalog>,
) -> Result<(String, pqo_sql::Compiled), String> {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .filter(|s| !s.is_empty())
        .ok_or_else(|| format!("{}: cannot derive a template name", path.display()))?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let dirs =
        pqo_sql::directives(&src).map_err(|e| format!("{}: {}", path.display(), e.render(&src)))?;
    let catalog_name = dirs.catalog.ok_or_else(|| {
        format!(
            "{}: missing `-- pqo:catalog <name>` directive (tpch_skew|tpcds|rd1|rd2)",
            path.display()
        )
    })?;
    let catalog =
        cached_catalog(catalogs, &catalog_name).map_err(|e| format!("{}: {e}", path.display()))?;
    let compiled = pqo_sql::compile(&stem, &src, catalog)
        .map_err(|e| format!("{}: {}", path.display(), e.render(&src)))?;
    Ok((stem, compiled))
}

/// The `.sql` files under `--templates-dir`, sorted by name so the
/// registration order (and the `HELLO` template list) is deterministic.
fn sql_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "sql"))
        .collect();
    files.sort();
    Ok(files)
}

/// `pqo serve --listen ADDR --template ID[,ID...] | --templates-dir DIR`:
/// serve registered templates over TCP until a client requests shutdown.
pub fn serve_listen(args: &Args, listen: &str) -> Result<(), String> {
    let ids = args.opt("template");
    let templates_dir = args.opt("templates-dir").map(PathBuf::from);
    if ids.is_none() && templates_dir.is_none() {
        return Err("pass --template ID[,ID...] and/or --templates-dir DIR".into());
    }
    let lambda: f64 = args.parse_or("lambda", 2.0)?;
    let snapshot_dir = args.opt("snapshot-dir").map(PathBuf::from);

    let mut config = ServerConfig {
        snapshot_dir: snapshot_dir.clone(),
        ..ServerConfig::default()
    };
    config.max_connections = args.parse_or("max-conns", config.max_connections)?;
    config.workers = args.parse_or("workers", config.workers)?;
    if config.workers == 0 {
        return Err("--workers must be >= 1".into());
    }
    let primary_flag: bool = args.parse_or("primary", false)?;
    config.replica_of = args.opt("replica-of");
    if primary_flag && config.replica_of.is_some() {
        return Err("--primary and --replica-of are mutually exclusive".into());
    }

    let service = Arc::new(PqoService::new());
    let mut names = Vec::new();
    let mut register = |id: &str, template: &Arc<QueryTemplate>| -> Result<(), String> {
        let cfg = scr_config(lambda)?;
        let warm = snapshot_dir
            .as_ref()
            .map(|d| d.join(snapshot_file_name(id)))
            .filter(|p| p.exists());
        match warm {
            Some(path) => {
                let mut f =
                    std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                service
                    .register_restored(Arc::clone(template), cfg, &mut f)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let plans = service
                    .snapshot(id)
                    .map_err(|e| e.to_string())?
                    .cache()
                    .num_plans();
                println!("restored {id} from {} ({plans} plans)", path.display());
            }
            None => {
                service
                    .register(Arc::clone(template), cfg)
                    .map_err(|e| e.to_string())?;
            }
        }
        names.push(id.to_string());
        Ok(())
    };
    for id in ids
        .as_deref()
        .unwrap_or("")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
    {
        let spec = spec_by_id(id)?;
        register(id, &spec.template)?;
    }
    if let Some(dir) = &templates_dir {
        let files = sql_files(dir)?;
        if files.is_empty() {
            return Err(format!("{}: no .sql template files", dir.display()));
        }
        let mut catalogs = Vec::new();
        for path in &files {
            let (stem, compiled) = compile_sql_file(path, &mut catalogs)?;
            register(&stem, &compiled.template)?;
            // Smoke scripts parse these lines to learn the registered set.
            println!(
                "compiled {stem} from {} ({} dialect, d = {})",
                path.display(),
                compiled.dialect,
                compiled.template.dimensions()
            );
        }
    }
    if names.is_empty() {
        return Err("--template: no template ids given".into());
    }

    let workers = config.workers;
    let role = match &config.replica_of {
        Some(primary) => format!("replica of {primary}"),
        None => "primary".to_string(),
    };
    let server = PqoServer::bind(Arc::clone(&service), listen, config)
        .map_err(|e| format!("bind {listen}: {e}"))?;
    // Smoke scripts parse this exact line to learn the ephemeral port.
    println!("listening on {}", server.local_addr());
    // Smoke scripts also grep the `role:` prefix.
    println!("role: {role}");
    println!(
        "serving {} template(s) at λ = {lambda} ({workers} workers); stop with `pqo client --connect {} --op shutdown`",
        names.len(),
        server.local_addr()
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    let stats = server.join();
    println!();
    println!("server exit summary");
    println!("connections accepted: {}", stats.connections_accepted);
    println!("rejected (busy)     : {}", stats.connections_rejected_busy);
    println!("frames served       : {}", stats.frames_served);
    println!("frames to pool      : {}", stats.pool_frames);
    println!("plans served        : {}", stats.plans_served);
    println!("batch frames        : {}", stats.batch_frames);
    println!("malformed frames    : {}", stats.malformed_frames);
    println!("error frames        : {}", stats.error_frames);
    println!("snapshots flushed   : {}", stats.snapshots_flushed);
    println!("poll wakeups        : {}", stats.poll_wakeups);
    println!("timeouts            : {}", stats.timeouts);
    println!("peak connections    : {}", stats.peak_connections);
    println!("peak queue depth    : {}", stats.peak_queue_depth);
    println!("generations pushed  : {}", stats.gens_pushed);
    println!("generations applied : {}", stats.gens_applied);
    println!("replication out     : {} B", stats.replication_bytes_out);
    println!("replication in      : {} B", stats.replication_bytes_in);
    for id in &names {
        let s = service.scr_stats(id).map_err(|e| e.to_string())?;
        let plans = service
            .snapshot(id)
            .map_err(|e| e.to_string())?
            .cache()
            .num_plans();
        println!();
        println!("[{id}]");
        println!("plans cached        : {plans}");
        println!("selectivity hits    : {}", s.selectivity_hits);
        println!("cost-check hits     : {}", s.cost_hits);
        println!("optimizer calls     : {}", s.optimizer_calls);
        println!("batches served      : {}", s.batches_served);
        println!("batch instances     : {}", s.batch_instances);
        println!("max batch size      : {}", s.max_batch_size);
        println!("snapshot re-loads   : {}", s.snapshot_reloads);
        println!("snapshot publishes  : {}", s.publishes);
        println!("publish nanos       : {}", s.publish_nanos);
        println!("coord blocks copied : {}", s.index_shard_rebuilds);
        println!("coord rows copied   : {}", s.index_points_rebuilt);
    }
    Ok(())
}

/// What a client op drives: a corpus template (`--template ID`) or a local
/// SQL file (`--sql-file PATH`) compiled exactly as `serve --templates-dir`
/// compiles it — so the client-side oracle and the server agree on the
/// template down to the name.
enum Target {
    Corpus(&'static TemplateSpec),
    Sql {
        id: String,
        compiled: pqo_sql::Compiled,
    },
}

impl Target {
    fn id(&self) -> &str {
        match self {
            Target::Corpus(s) => &s.id,
            Target::Sql { id, .. } => id,
        }
    }

    fn template(&self) -> &Arc<QueryTemplate> {
        match self {
            Target::Corpus(s) => &s.template,
            Target::Sql { compiled, .. } => &compiled.template,
        }
    }

    fn dimensions(&self) -> usize {
        self.template().dimensions()
    }

    /// The dialect to render `explain` output in when `--dialect` is not
    /// given: the file's declared dialect, postgres for corpus templates.
    fn default_dialect(&self) -> DialectKind {
        match self {
            Target::Corpus(_) => DialectKind::Postgres,
            Target::Sql { compiled, .. } => compiled.dialect,
        }
    }

    /// The same region-bucketized workload `pqo run` uses; corpus targets
    /// keep their per-template seed mixing.
    fn generate(&self, m: usize, seed: u64) -> Vec<QueryInstance> {
        match self {
            Target::Corpus(s) => s.generate(m, seed),
            Target::Sql { compiled, .. } => regions::generate(&compiled.template, m, seed),
        }
    }
}

fn target(args: &Args) -> Result<Target, String> {
    match args.opt("sql-file") {
        Some(path) => {
            let path = PathBuf::from(path);
            let mut catalogs = Vec::new();
            let (id, compiled) = compile_sql_file(&path, &mut catalogs)?;
            Ok(Target::Sql { id, compiled })
        }
        None => Ok(Target::Corpus(spec(args)?)),
    }
}

/// `pqo client --connect ADDR [...]`: one op per invocation.
pub fn client_cmd(args: &Args) -> Result<(), String> {
    let addr = args.get("connect")?;
    let op = match args.opt("op") {
        Some(op) => op,
        None if args.opt("sel").is_some() => "plan".into(),
        None if args.opt("m").is_some() => "run".into(),
        None if args.opt("template").is_some() || args.opt("sql-file").is_some() => "stats".into(),
        None => {
            return Err(
                "cannot infer op; pass --op plan|run|stats|explain|follow-lag|shutdown|idle".into(),
            )
        }
    };
    // The idle op never speaks the protocol (raw sockets, no handshake),
    // so handle it before a PqoClient is built.
    if op == "idle" {
        return client_idle(args, &addr);
    }
    let mut client =
        PqoClient::connect(&addr as &str).map_err(|e| format!("connect {addr}: {e}"))?;
    match op.as_str() {
        "plan" => {
            let t = target(args)?;
            let sel = sels(args, "sel", t.dimensions())?;
            let inst = instance_for_target(t.template(), &sel);
            let choice = client
                .get_plan(t.id(), &inst.values)
                .map_err(|e| e.to_string())?;
            println!("template  : {}", t.id());
            println!("plan      : {}", choice.fingerprint);
            println!("optimized : {}", choice.optimized);
            Ok(())
        }
        "explain" => client_explain(args, &mut client),
        "run" => client_run(args, &mut client),
        "stats" => {
            let id = match args.opt("template") {
                Some(id) => id,
                None => target(args)?.id().to_string(),
            };
            let s = client.stats(&id).map_err(|e| e.to_string())?;
            println!("[{id}]");
            // Driven by the wire field table: a field added to the STATS
            // payload shows up here with no printer change.
            for (name, value) in s.named_fields() {
                println!("{name:<22}: {value}");
            }
            Ok(())
        }
        "follow-lag" => client_follow_lag(args, &mut client),
        "shutdown" => {
            client.shutdown_server().map_err(|e| e.to_string())?;
            println!("server acknowledged shutdown");
            Ok(())
        }
        other => Err(format!(
            "unknown op `{other}` (plan|run|stats|explain|follow-lag|shutdown|idle)"
        )),
    }
}

/// `pqo client --connect ADDR --op explain --sel S1,... [--dialect NAME]`:
/// serve one instance and print the chosen plan as the server renders it —
/// dialect-specific hinted SQL with the parameter values inlined.
fn client_explain(args: &Args, client: &mut PqoClient) -> Result<(), String> {
    let t = target(args)?;
    let sel = sels(args, "sel", t.dimensions())?;
    let inst = instance_for_target(t.template(), &sel);
    let dialect = match args.opt("dialect") {
        Some(raw) => DialectKind::parse(&raw).map_err(|e| format!("--dialect: {e}"))?,
        None => t.default_dialect(),
    };
    let explain = client
        .explain(t.id(), &inst.values, dialect.as_tag())
        .map_err(|e| e.to_string())?;
    println!("template  : {}", t.id());
    println!("dialect   : {dialect}");
    println!("plan      : {}", explain.choice.fingerprint);
    println!("optimized : {}", explain.choice.optimized);
    println!();
    println!("{}", explain.sql);
    Ok(())
}

/// `pqo client --connect ADDR --op follow-lag --template ID [--count N]
/// [--interval-ms T]`: poll a replica's generation lag. Each sample prints
/// the published generation, the lag behind the primary, and the apply
/// counters; the final sample's lag is also the exit criterion smoke
/// scripts grep for.
fn client_follow_lag(args: &Args, client: &mut PqoClient) -> Result<(), String> {
    let id = args.get("template")?;
    let count: usize = args.parse_or("count", 10)?;
    let interval_ms: u64 = args.parse_or("interval-ms", 200)?;
    if count == 0 {
        return Err("--count must be >= 1".into());
    }
    for i in 0..count {
        let s = client.stats(&id).map_err(|e| e.to_string())?;
        println!(
            "[{i}] {id}: generation {} lag {} (applied {}, pushed {}, in {} B, out {} B)",
            s.generation,
            s.replica_lag,
            s.gens_applied,
            s.gens_pushed,
            s.replication_bytes_in,
            s.replication_bytes_out,
        );
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        if i + 1 < count {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    }
    Ok(())
}

/// `pqo client --connect ADDR --op idle --conns N --hold-ms T`: open N raw
/// TCP connections that never speak, hold them for T milliseconds, then
/// release. Exercises the server's idle-connection capacity (each held
/// socket costs the event loop one poll-set slot).
fn client_idle(args: &Args, addr: &str) -> Result<(), String> {
    let conns: usize = args.parse_or("conns", 256)?;
    let hold_ms: u64 = args.parse_or("hold-ms", 5_000)?;
    let mut held = Vec::with_capacity(conns);
    for i in 0..conns {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => held.push(s),
            Err(e) => return Err(format!("idle connect {i}/{conns}: {e}")),
        }
    }
    // Smoke scripts wait for this exact line before starting active work.
    println!("holding {} idle connections for {hold_ms} ms", held.len());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    std::thread::sleep(std::time::Duration::from_millis(hold_ms));
    let n = held.len();
    drop(held);
    println!("released {n} idle connections");
    Ok(())
}

/// Drive a generated workload over the wire; with `--check true`, replay
/// it through a fresh in-process service and require identical decisions.
///
/// The oracle assumes the server holds a *cold* cache with the same SCR
/// configuration (λ, thresholds) this invocation was given.
fn client_run(args: &Args, client: &mut PqoClient) -> Result<(), String> {
    let t = target(args)?;
    let m: usize = args.parse_or("m", 1000)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let batch: usize = args.parse_or("batch", 1)?;
    let check: bool = args.parse_or("check", false)?;
    if batch == 0 {
        return Err("--batch must be >= 1".into());
    }

    let instances = t.generate(m, seed);
    let start = std::time::Instant::now();
    let mut decisions: Vec<(u64, bool)> = Vec::with_capacity(m);
    if batch == 1 {
        for inst in &instances {
            let c = client
                .get_plan(t.id(), &inst.values)
                .map_err(|e| e.to_string())?;
            decisions.push((c.fingerprint.0, c.optimized));
        }
    } else {
        for chunk in instances.chunks(batch) {
            let values: Vec<Vec<f64>> = chunk.iter().map(|q| q.values.clone()).collect();
            let cs = client
                .get_plan_batch(t.id(), &values)
                .map_err(|e| e.to_string())?;
            decisions.extend(cs.iter().map(|c| (c.fingerprint.0, c.optimized)));
        }
    }
    let elapsed = start.elapsed();
    let optimized = decisions.iter().filter(|(_, o)| *o).count();

    println!("template            : {} (d = {})", t.id(), t.dimensions());
    println!("instances           : {m} (batch size {batch}, over TCP)");
    println!(
        "optimizer calls     : {optimized} ({:.1}%)",
        100.0 * optimized as f64 / m.max(1) as f64
    );
    println!("wall time           : {elapsed:?}");
    println!(
        "per instance        : {:?}",
        elapsed.checked_div(m.max(1) as u32).unwrap_or_default()
    );

    if check {
        let lambda: f64 = args.parse_or("lambda", 2.0)?;
        let oracle = PqoService::new();
        oracle
            .register(Arc::clone(t.template()), scr_config(lambda)?)
            .map_err(|e| e.to_string())?;
        for (i, (inst, &(fp, optimized))) in instances.iter().zip(&decisions).enumerate() {
            let expect = oracle.get_plan(t.id(), inst).map_err(|e| e.to_string())?;
            if fp != expect.plan.fingerprint().0 || optimized != expect.optimized {
                return Err(format!(
                    "oracle divergence at instance {i}: wire served plan {fp:#018x} \
                     (optimized: {optimized}), oracle chose {:#018x} (optimized: {})",
                    expect.plan.fingerprint().0,
                    expect.optimized
                ));
            }
        }
        println!(
            "oracle check        : OK ({} decisions identical to in-process SCR)",
            decisions.len()
        );
    }
    Ok(())
}
