//! `pqo-stackbench`: one run of one workload of the stack benchmark.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` prints the run's metrics
//! as a table and, on the last line of standard output, as one JSON object.
//! `bench/run.sh` builds this and the `pqo` binary under test and passes its
//! arguments through.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pqo_stackbench::inputs::Workload;
use pqo_stackbench::report::{self, RUN_SECONDS};
use pqo_stackbench::run::{self, Paths};
use pqo_stackbench::{aa, affinity, servers};

const USAGE: &str = "usage: pqo-stackbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       pqo-stackbench --aa 1 [--seed N] [--seconds S]
       pqo-stackbench --print-benchmark-json 1
  workloads: wire_hit embedded_bigjoin embedded_corpus replica_follow
  --pqo-bin PATH    the pqo binary under test (default: beside this executable)
  --bench-dir DIR   the bench/ directory (default: bench)";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    aa: bool,
    print_json: bool,
    pqo_bin: Option<String>,
    bench_dir: PathBuf,
}

fn flag(value: &str, key: &str) -> Result<bool, String> {
    match value {
        "0" | "false" => Ok(false),
        "1" | "true" => Ok(true),
        other => Err(format!("--{key}: expected 0 or 1, got `{other}`")),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        setup_only: false,
        aa: false,
        print_json: false,
        pqo_bin: None,
        bench_dir: PathBuf::from("bench"),
    };
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected `--key`, got `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        match key {
            "workload" => {
                args.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "trace" => args.trace = flag(value, key)?,
            "setup-only" => args.setup_only = flag(value, key)?,
            "aa" => args.aa = flag(value, key)?,
            "print-benchmark-json" => args.print_json = flag(value, key)?,
            "pqo-bin" => args.pqo_bin = Some(value.clone()),
            "bench-dir" => args.bench_dir = PathBuf::from(value),
            other => return Err(format!("unknown argument --{other}")),
        }
    }
    Ok(args)
}

fn real_main(launched: Instant) -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.print_json {
        print!("{}", report::benchmark_json());
        return Ok(true);
    }
    // One CPU for this process and everything it starts (see `affinity`).
    affinity::pin_to_one_cpu().map_err(|e| format!("pinning to one CPU: {e}"))?;
    let paths = Paths {
        pqo: servers::pqo_binary(args.pqo_bin.as_deref())?,
        bench_dir: args.bench_dir,
    };
    if args.aa {
        return aa::run(args.seed, args.seconds, &paths);
    }
    let workload = args
        .workload
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if args.setup_only {
        run::setup_only(workload, args.seed, args.seconds, &paths, launched)?;
        return Ok(true);
    }
    let (report, names) = if args.trace {
        (
            run::traced(workload, args.seed, args.seconds, &paths)?,
            report::per_layer_names(),
        )
    } else {
        (
            run::gated(workload, args.seed, args.seconds, &paths, launched)?,
            report::end_to_end_names(),
        )
    };
    println!("{}", report::render(workload, &report, &names)?);
    Ok(report.correct())
}

fn main() -> ExitCode {
    match real_main(Instant::now()) {
        Ok(true) => ExitCode::SUCCESS,
        // The result was printed; the exit code says an output check failed.
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("pqo-stackbench: {e}");
            ExitCode::FAILURE
        }
    }
}
