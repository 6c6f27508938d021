//! `--aa`: does the benchmark agree with itself? Two sets of three full
//! gated runs of the same build, same seeds in both; for every workload and
//! end-to-end metric the two medians must not differ by more than the
//! metric's bound. A metric that fails here cannot gate a change.

use std::fmt::Write as _;
use std::time::Instant;

use crate::estimator::median;
use crate::inputs::Workload;
use crate::report::{Better, END_TO_END};
use crate::run::{self, out_dir, Paths};

const RUNS_PER_SET: u64 = 3;

/// By how much of `first` the second median is worse (negative: better).
pub fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

pub fn run(seed: u64, seconds: f64, paths: &Paths) -> Result<bool, String> {
    let mut text = String::new();
    let mut agreed = true;
    for workload in Workload::ALL {
        // values[set][metric] = one value per run
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for set in values.iter_mut() {
            for k in 0..RUNS_PER_SET {
                let report = run::gated(workload, seed + k, seconds, paths, Instant::now())?;
                if !report.correct() {
                    return Err(format!(
                        "{}: output checks failed on seed {} ({} of {} operations; {:?})",
                        workload.name(),
                        seed + k,
                        report.failed,
                        report.attempted,
                        report.violations
                    ));
                }
                for (slot, metric) in set.iter_mut().zip(END_TO_END) {
                    slot.push(report.metrics[metric.name].value);
                }
            }
        }
        let _ = writeln!(text, "workload {}", workload.name());
        let _ = writeln!(
            text,
            "  {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
            "metric", "median A", "median B", "worse by", "bound"
        );
        for (i, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (median(&values[0][i]), median(&values[1][i]));
            // A/A has no first and second: neither set may look worse.
            let worse = worse_by(metric.better, a, b).max(worse_by(metric.better, b, a));
            let ok = worse <= metric.bound;
            agreed &= ok;
            let _ = writeln!(
                text,
                "  {:<22} {:>16.4} {:>16.4} {:>8.2}% {:>6.0}%  {}",
                metric.name,
                a,
                b,
                100.0 * worse,
                100.0 * metric.bound,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    print!("{text}");
    let dir = out_dir(&paths.bench_dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("aa.txt");
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{}",
        if agreed {
            "A/A: every gated metric agrees within its bound"
        } else {
            "A/A: at least one gated metric disagrees beyond its bound"
        }
    );
    Ok(agreed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_follows_the_metric_direction() {
        assert_eq!(worse_by(Better::Lower, 100.0, 110.0), 0.1);
        assert_eq!(worse_by(Better::Lower, 100.0, 90.0), -0.1);
        assert_eq!(worse_by(Better::Higher, 100.0, 90.0), 0.1);
        assert_eq!(worse_by(Better::Higher, 100.0, 125.0), -0.25);
    }
}
