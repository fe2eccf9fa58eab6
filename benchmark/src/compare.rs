//! `benchmark --compare A.jsonl B.jsonl`: per workload × end-to-end metric,
//! both medians, the ratio with its base, and a verdict against the
//! metric's bound. A and B are files of `--out` lines (one run each, any
//! number of seeds per workload); A is the base.

use std::process::ExitCode;

use serde_json::Value;

use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{least, median, most, relative_spread};

/// One `--trace 0` run read back from a result file.
struct Run {
    workload: String,
    seed: u64,
    metrics: Vec<(String, f64)>,
}

fn read_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut runs = Vec::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", number + 1);
        let json: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        if json.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let workload = json
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let seed = json
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| bad("no seed"))?;
        let result = json.get("result").ok_or_else(|| bad("no result"))?;
        let mut metrics = Vec::new();
        for m in &END_TO_END {
            let value = result
                .get("metrics")
                .and_then(|all| all.get(m.name))
                .and_then(|metric| metric.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| bad(&format!("no metric {}", m.name)))?;
            metrics.push((m.name.to_string(), value));
        }
        runs.push(Run {
            workload: workload.to_string(),
            seed,
            metrics,
        });
    }
    Ok(runs)
}

impl Run {
    /// The run's reading of `metric`; `read_runs` stored every end-to-end one.
    fn value(&self, metric: &str) -> f64 {
        let found = self.metrics.iter().find(|(name, _)| name == metric);
        found.expect("every end-to-end metric was read").1
    }
}

fn values(runs: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .map(|r| r.value(metric))
        .collect()
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Pass,
    /// Spread wider than the bound, but every run of B beats every run of A.
    PassEveryRunBetter,
    /// Spread wider than the bound: neither "unchanged" nor "regressed".
    Unresolved,
    Fail,
}

/// Judges B against base A for one metric.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (base, change) = (median(a), median(b));
    let worse_by = match metric.better {
        Better::Lower => (change - base) / base.abs(),
        Better::Higher => (base - change) / base.abs(),
    };
    let spread = relative_spread(a).max(relative_spread(b));
    if spread > metric.bound {
        let every_run_better = match metric.better {
            Better::Lower => most(b) < least(a),
            Better::Higher => least(b) > most(a),
        };
        if every_run_better {
            Verdict::PassEveryRunBetter
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > metric.bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    }
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (read_runs(path_a), read_runs(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("base A = {path_a}, B = {path_b}; ratio = median B / median A");
    println!(
        "{:<20} {:<14} {:>3} {:>14} {:>8} {:>3} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "median A",
        "iqr A",
        "nB",
        "median B",
        "iqr B",
        "ratio",
        "bound"
    );
    let mut failed = false;
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let va = values(&a, workload.name, metric.name);
            let vb = values(&b, workload.name, metric.name);
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(metric, &va, &vb);
            failed |= verdict == Verdict::Fail;
            println!(
                "{:<20} {:<14} {:>3} {:>14.6} {:>7.2}% {:>3} {:>14.6} {:>7.2}% {:>8.4} {:>5.0}%  {}",
                workload.name,
                metric.name,
                va.len(),
                median(&va),
                relative_spread(&va) * 100.0,
                vb.len(),
                median(&vb),
                relative_spread(&vb) * 100.0,
                median(&vb) / median(&va),
                metric.bound * 100.0,
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::PassEveryRunBetter => "pass (every run of B better)",
                    Verdict::Unresolved => "unresolved (spread > bound)",
                    Verdict::Fail => "FAIL",
                }
            );
        }
        // The modelled latency is a pure function of the seed: on shared
        // seeds the two sides must agree to the last digit.
        let shared: Vec<(f64, f64)> = a
            .iter()
            .filter(|r| r.workload == workload.name)
            .filter_map(|ra| {
                let rb = b
                    .iter()
                    .find(|rb| rb.workload == ra.workload && rb.seed == ra.seed)?;
                Some((ra.value("model_mean_s"), rb.value("model_mean_s")))
            })
            .collect();
        if !shared.is_empty() {
            let equal = shared.iter().filter(|(x, y)| x == y).count();
            println!(
                "{:<20} model_mean_s identical on {equal} of {} shared seeds",
                workload.name,
                shared.len()
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).expect("metric")
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let latency = metric("op_mean_us"); // lower is better, bound 25 %
        let tight_a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            judge(latency, &tight_a, &[114.0, 115.0, 113.0, 114.5]),
            Verdict::Pass
        );
        assert_eq!(
            judge(latency, &tight_a, &[130.0, 131.0, 129.0, 130.5]),
            Verdict::Fail
        );
        assert_eq!(
            judge(latency, &tight_a, &[80.0, 81.0, 79.0, 80.5]),
            Verdict::Pass
        );
        // Spread wider than the bound: not "unchanged" ...
        let wide = [100.0, 160.0, 60.0, 130.0];
        assert_eq!(judge(latency, &tight_a, &wide), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(latency, &tight_a, &[40.0, 60.0, 30.0, 55.0]),
            Verdict::PassEveryRunBetter
        );
        let throughput = metric("sat_ops_per_s"); // higher is better
        assert_eq!(
            judge(throughput, &tight_a, &[70.0, 71.0, 69.0, 70.5]),
            Verdict::Fail
        );
        assert_eq!(
            judge(throughput, &tight_a, &[120.0, 121.0, 119.0, 120.5]),
            Verdict::Pass
        );
    }
}
