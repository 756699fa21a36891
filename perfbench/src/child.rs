//! An untraced run as a parent over child processes.
//!
//! On a shared host a busy neighbour can slow a whole process for tens of
//! seconds, and no statistic inside that process can tell. So an untraced
//! run is split into [`CHILDREN`] child processes of this same program, run
//! one after another on the same inputs, each measuring an equal share of
//! the time. Each end-to-end metric is the best child's figure (`setup_s`:
//! the median child's), and every child must pass its checks.

use std::process::{Command, Stdio};

use crate::metrics::END_TO_END;
use crate::report::{Outcomes, Report};
use crate::stats::median;

pub const CHILDREN: u32 = 3;

/// The line a child prints just before its result line: its counted
/// outcomes, for the parent's failure accounting.
pub fn outcomes_line(o: &Outcomes) -> String {
    format!(
        "outcomes {} {} {} {} {} {}",
        o.attempted, o.ok, o.busy, o.budget, o.error, o.timeout
    )
}

fn parse_outcomes(line: &str) -> Option<Outcomes> {
    let fields: Vec<u64> = line
        .strip_prefix("outcomes ")?
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    match fields[..] {
        [attempted, ok, busy, budget, error, timeout] => Some(Outcomes {
            attempted,
            ok,
            busy,
            budget,
            error,
            timeout,
        }),
        _ => None,
    }
}

/// The value of metric `name` in a result line this program printed.
fn parse_metric(result: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = result.find(&key)? + key.len();
    let rest = &result[start..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs the children and reports the best child's figure per metric.
pub fn run(workload: &str, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(workload, false);
    report.context("seed", seed);
    report.context("child_processes", CHILDREN);
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let exe = std::env::current_exe().expect("the running program's path");
    for child in 0..CHILDREN {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &(seconds / f64::from(CHILDREN)).to_string()])
            .args(["--trace", "0", "--child", &child.to_string()])
            .stderr(Stdio::inherit())
            .output();
        let name = format!("child{child}");
        let Ok(output) = output else {
            report.check(&name, false, "the child process did not start");
            continue;
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        let (result, before) = lines.split_last().unwrap_or((&"", &[]));
        for line in before {
            println!("  {name} | {line}");
        }
        if let Some(outcomes) = before.last().and_then(|l| parse_outcomes(l)) {
            report.phase(&name, outcomes, true);
        }
        let correct = output.status.success() && result.starts_with("{\"correct\": true");
        report.check(
            &name,
            correct,
            format!("{}, checks passed: {correct}", output.status),
        );
        for (metric, values) in END_TO_END.iter().zip(&mut values) {
            if let Some(value) = parse_metric(result, metric.name) {
                values.push(value);
                report.detail(&format!("{name}.{}", metric.name), value, metric.unit);
            }
        }
    }
    for (metric, values) in END_TO_END.iter().zip(&values) {
        let value = if values.len() < CHILDREN as usize {
            f64::NAN
        } else if metric.name == "setup_s" {
            median(values)
        } else if metric.higher_is_better {
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        } else {
            values.iter().copied().fold(f64::INFINITY, f64::min)
        };
        report.metric(metric.name, value);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_a_child_prints() {
        let line = outcomes_line(&Outcomes {
            attempted: 9,
            ok: 7,
            busy: 1,
            budget: 0,
            error: 1,
            timeout: 0,
        });
        let parsed = parse_outcomes(&line).expect("round trip");
        assert_eq!((parsed.attempted, parsed.failed()), (9, 2));
        let result = "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
                      {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
                      \"op_p50_us\": {\"value\": 101.5, \"unit\": \"us\"}}}";
        assert_eq!(parse_metric(result, "setup_s"), Some(0.25));
        assert_eq!(parse_metric(result, "op_p50_us"), Some(101.5));
        assert_eq!(parse_metric(result, "ops_per_s"), None);
    }
}
