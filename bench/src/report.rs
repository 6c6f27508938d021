//! The metric tables (the single source `BENCHMARK.json` is generated from)
//! and what one run prints: a table for people, then one JSON object on the
//! last line for the driver.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::inputs::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated end-to-end metric: `bound` is the share of the parent's median by
/// which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The quality metrics are scored on the reference streams, which are the
/// same in every run (`inputs::REFERENCE_SEED`): they repeat exactly, so any
/// increase at all is a regression (`EXACT` leaves room for rounding in the
/// last place only).
///
/// The timed metrics cannot be held to the issue's 7–10%. The driver accepts
/// a bound only if the quartile distance of ten runs, made over some forty
/// minutes, stays inside it. On this host one or two runs in ten fall wholly
/// into the slow regime (`estimator`), where even the best window is 30–60%
/// slower; two such runs alone put the quartile distance at a quarter of
/// that excess, 8–15%, on top of the 3–6% the quiet runs spread by. README.md
/// lists the spreads measured. `setup_s` is mostly process start-up, is a
/// median of five launches per run, and has to have the largest bound.
pub const EXACT: f64 = 1e-9;

pub const END_TO_END: &[EndToEnd] = &[
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("throughput_rps", "1/s", Better::Higher, 0.25),
    gated("p50_us", "us", Better::Lower, 0.25),
    gated("p99_us", "us", Better::Lower, 0.25),
    gated("cpu_us_per_req", "us", Better::Lower, 0.25),
    gated("rss_mib", "MiB", Better::Lower, 0.1),
    gated("optimizer_call_share", "ratio", Better::Lower, EXACT),
    gated("plans_cached", "count", Better::Lower, EXACT),
    gated("total_cost_ratio", "ratio", Better::Lower, EXACT),
    gated("max_so", "ratio", Better::Lower, EXACT),
];

/// An ungated per-layer metric of the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: &[Layer] = &[
    lower("catalog.build_ms", "ms"),
    lower("sql.compile_us", "us"),
    lower("workload.generate_ns", "ns"),
    lower("optimizer.svector_ns", "ns"),
    lower("optimizer.optimize_ns", "ns"),
    lower("optimizer.optimize_ns.n3", "ns"),
    lower("optimizer.optimize_ns.n5", "ns"),
    lower("optimizer.optimize_ns.n8", "ns"),
    lower("optimizer.optimize_calls", "count"),
    lower("optimizer.optimize_time_share", "ratio"),
    lower("optimizer.recost_prepared_ns", "ns"),
    lower("optimizer.prepare_recost_ns", "ns"),
    lower("core.get_plan_ns", "ns"),
    lower("core.hit_get_plan_ns", "ns"),
    lower("core.decide_hit_ns", "ns"),
    lower("core.decide_miss_ns", "ns"),
    lower("core.decide_time_share", "ratio"),
    lower("core.snapshot_load_ns", "ns"),
    higher("core.sel_hit_share", "ratio"),
    higher("core.cost_hit_share", "ratio"),
    lower("core.recosts_per_decision", "count"),
    lower("core.redundant_discard_share", "ratio"),
    lower("core.manage_publish_ns", "ns"),
    lower("core.publish_ns", "ns"),
    lower("core.instances_cached", "count"),
    lower("core.service_glue_ns", "ns"),
    lower("core.get_plan_batch_ns", "ns"),
    lower("core.repl_encode_delta_ns", "ns"),
    lower("core.repl_encode_full_ns", "ns"),
    lower("core.repl_apply_ns", "ns"),
    lower("core.repl_delta_bytes", "B"),
    lower("core.repl_full_bytes", "B"),
    lower("core.persist_save_us", "us"),
    lower("core.persist_restore_us", "us"),
    lower("core.persist_bytes", "B"),
    lower("wire.encode_request_ns", "ns"),
    lower("wire.decode_request_ns", "ns"),
    lower("wire.encode_response_ns", "ns"),
    lower("wire.decode_response_ns", "ns"),
    lower("conn.frame_assemble_ns", "ns"),
    lower("client.encode_ns", "ns"),
    lower("client.write_ns", "ns"),
    lower("client.read_wait_ns", "ns"),
    lower("client.decode_ns", "ns"),
    lower("server.rtt_p50_us", "us"),
    lower("server.echo_rtt_us", "us"),
    lower("server.dispatch_overhead_us", "us"),
    lower("server.ctx_switches_per_req", "count"),
    lower("server.user_us_per_req", "us"),
    lower("server.sys_us_per_req", "us"),
    lower("server.poll_wakeups_per_frame", "count"),
    lower("server.peak_queue_depth", "count"),
    lower("server.batch32_rtt_us", "us"),
    lower("server.batch32_ns_per_inst", "ns"),
    lower("server.connect_hello_us", "us"),
    higher("server.parallel_rps", "1/s"),
    lower("server.parallel_p50_us", "us"),
    higher("replica.local_hit_share", "ratio"),
    lower("replica.forward_rtt_us", "us"),
    lower("replica.lag_p50_us", "us"),
    lower("replica.fresh_visible_p50_us", "us"),
    lower("replica.lag_gens_max", "count"),
    lower("replica.bytes_per_gen", "B"),
    higher("replica.gens_applied", "count"),
    lower("client.open_p50_us.r4000", "us"),
    lower("client.open_p50_us.r8000", "us"),
    lower("client.open_p50_us.r12000", "us"),
    lower("client.open_p99_us.r4000", "us"),
    lower("client.open_p99_us.r8000", "us"),
    lower("client.open_p99_us.r12000", "us"),
    lower("client.sched_late_p99_us", "us"),
    higher("client.max_rate_ok_rps", "1/s"),
    lower("trace.overhead_share", "ratio"),
];

/// One measured value and how many samples stand behind it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub samples: u64,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that are not per-operation (e.g. the guarantee held).
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, Measured>,
    /// Ungated figures printed beside the metrics (raw whole-phase numbers).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.insert(name, Measured { value, samples });
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The table for people and, as the last line, the JSON object the driver
/// reads. `names` is the metric table this run has to fill, in order. Fails
/// when a metric is missing or is not a finite number.
pub fn render(
    workload: Workload,
    report: &Report,
    names: &[(&'static str, &'static str)],
) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "workload {}", workload.name());
    let _ = writeln!(
        out,
        "  {:<34} {:>18} {:<6} {:>9}",
        "metric", "value", "unit", "samples"
    );
    let mut json = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let m = report
            .metrics
            .get(name)
            .ok_or_else(|| format!("{}: metric `{name}` was not measured", workload.name()))?;
        if !m.value.is_finite() {
            return Err(format!(
                "{}: metric `{name}` is not a number ({})",
                workload.name(),
                m.value
            ));
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>18.4} {:<6} {:>9}",
            name, m.value, unit, m.samples
        );
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_escape(name),
            m.value,
            json_escape(unit)
        );
    }
    for note in &report.notes {
        let _ = writeln!(out, "  # {note}");
    }
    for v in &report.violations {
        let _ = writeln!(out, "  ! {v}");
    }
    let _ = writeln!(
        out,
        "  attempted {} failed {} correct {}",
        report.attempted,
        report.failed,
        report.correct()
    );
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        json
    );
    Ok(out)
}

pub fn end_to_end_names() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

/// The text of `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"bench/run.sh\"],\n");
    s.push_str("  \"paths\": [\"bench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name(),
            json_escape(w.why()),
            if i + 1 < Workload::ALL.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better.name(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in end_to_end_names().into_iter().chain(per_layer_names()) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        // The bounds, exactly: the quality metrics may not rise at all;
        // nothing exceeds the contract's quarter; set-up has the largest.
        let bounds: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, m.bound)).collect();
        assert_eq!(
            bounds,
            [
                ("setup_s", 0.25),
                ("throughput_rps", 0.25),
                ("p50_us", 0.25),
                ("p99_us", 0.25),
                ("cpu_us_per_req", 0.25),
                ("rss_mib", 0.1),
                ("optimizer_call_share", 1e-9),
                ("plans_cached", 1e-9),
                ("total_cost_ratio", 1e-9),
                ("max_so", 1e-9),
            ]
        );
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for w in Workload::ALL {
            assert!(w.why().len() <= 200, "{}", w.name());
        }
    }

    #[test]
    fn render_ends_with_the_result_object_and_refuses_gaps() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.set("a", 1.25, 3);
        let text = render(Workload::WireHit, &r, &[("a", "us")]).unwrap();
        assert_eq!(
            text.lines().last().unwrap(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"us\"}}}"
        );
        assert!(render(Workload::WireHit, &r, &[("b", "us")]).is_err());
        r.set("a", f64::NAN, 0);
        assert!(render(Workload::WireHit, &r, &[("a", "us")]).is_err());
    }
}
