//! The serving-stack benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wire-open|audited-hot-users|query-sliding> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics with
//! no spans recorded, in child processes of its own (see `child`). With
//! `--trace 1` it replays the workload's own requests up the layer ladder
//! and through standalone layer replays, recording a span around every call
//! into a layer. Either way it prints a readable report, writes a detail
//! file under `perfbench/out/`, and prints the one-line JSON result last.
//! It exits non-zero when a correctness check fails.

mod child;
mod common;
mod hot;
mod ladder;
mod layers;
mod metrics;
mod obs;
mod query;
mod report;
mod stats;
mod sys;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = [wire::NAME, hot::NAME, query::NAME];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process of an untraced run: its index.
    child: Option<u32>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut child = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--child" => child = Some(value()?.parse().map_err(|e| format!("--child: {e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child,
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn file_stem(report: &Report, seed: u64, child: Option<u32>) -> String {
    let child = child.map_or_else(String::new, |c| format!("-child{c}"));
    format!(
        "{}-seed{seed}-trace{}{child}",
        report.workload,
        u8::from(report.traced)
    )
}

/// Writes the traced run's spans, one JSON object per line.
pub fn write_spans(report: &Report, seed: u64, tracer: &Tracer) {
    let path = out_dir().join(format!("{}.spans.jsonl", file_stem(report, seed, None)));
    if std::fs::create_dir_all(out_dir()).is_ok() {
        if let Err(error) = tracer.write_jsonl(&path) {
            eprintln!("writing {}: {error}", path.display());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let report = match (args.workload.as_str(), args.trace) {
        (workload, false) if args.child.is_none() => child::run(workload, args.seed, args.seconds),
        (wire::NAME, false) => wire::run(args.seed, args.seconds),
        (wire::NAME, true) => wire::run_traced(args.seed, args.seconds),
        (hot::NAME, false) => hot::run(args.seed, args.seconds),
        (hot::NAME, true) => hot::run_traced(args.seed, args.seconds),
        (query::NAME, false) => query::run(args.seed, args.seconds),
        (_, _) => query::run_traced(args.seed, args.seconds),
    };
    for name in report.expected_names() {
        assert!(
            report.metrics.contains_key(name),
            "{} did not report {name}",
            report.workload
        );
    }
    print!("{}", report.readable());
    let path = out_dir().join(format!(
        "{}.json",
        file_stem(&report, args.seed, args.child)
    ));
    match std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, report.detail_json()))
    {
        Ok(()) => println!("  detail   {}", path.display()),
        Err(error) => eprintln!("writing {}: {error}", path.display()),
    }
    if args.child.is_some() {
        println!("{}", child::outcomes_line(&report.totals()));
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = args(&[
            "--workload",
            "wire-open",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (
                parsed.workload.as_str(),
                parsed.seed,
                parsed.seconds,
                parsed.trace
            ),
            ("wire-open", 3, 10.0, true)
        );
        assert_eq!(parsed.child, None);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "wire-open", "--trace", "2"]).is_err());
    }
}
