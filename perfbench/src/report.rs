//! What one run reports: failure accounting per phase, correctness checks,
//! the metrics, the values the numbers depend on, and the ladder findings.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{self, END_TO_END, PER_LAYER};

/// Operations of one phase, by outcome. Refusals are counted, never turned
/// into panics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcomes {
    pub attempted: u64,
    pub ok: u64,
    /// Admission refused for capacity (queue full, pipeline limit).
    pub busy: u64,
    /// Refused by the ε budget.
    pub budget: u64,
    /// Malformed frames, mechanism failures and other typed errors.
    pub error: u64,
    /// No answer within the phase's deadline.
    pub timeout: u64,
}

impl Outcomes {
    pub fn failed(&self) -> u64 {
        self.busy + self.budget + self.error + self.timeout
    }

    pub fn add(&mut self, other: &Outcomes) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.busy += other.busy;
        self.budget += other.budget;
        self.error += other.error;
        self.timeout += other.timeout;
    }

    fn json(&self) -> String {
        format!(
            "{{\"attempted\": {}, \"ok\": {}, \"busy\": {}, \"budget\": {}, \"error\": {}, \
             \"timeout\": {}}}",
            self.attempted, self.ok, self.busy, self.budget, self.error, self.timeout
        )
    }
}

/// One run's findings.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub traced: bool,
    /// Values the numbers depend on, as preformatted JSON values.
    pub context: Vec<(String, String)>,
    /// Measured phases, in order. Phases named in `counted` feed the
    /// `attempted`/`failed` totals of the result line.
    pub phases: Vec<(String, Outcomes, bool)>,
    /// Correctness checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Metrics of the result line, by catalogue name.
    pub metrics: BTreeMap<String, f64>,
    /// Per-layer metrics that the workload does not exercise (reported as 0).
    pub not_applicable: Vec<String>,
    /// Further named values for the detail file and the readable report
    /// (each metric's name on this workload, rung spreads, ...).
    pub details: Vec<(String, f64, String)>,
    /// Named findings: ladder inversions and unattributed time.
    pub findings: Vec<String>,
    /// Extra JSON sections for the detail file.
    pub sections: Vec<(String, String)>,
}

impl Report {
    pub fn new(workload: &str, traced: bool) -> Self {
        Report {
            workload: workload.to_string(),
            traced,
            ..Report::default()
        }
    }

    pub fn context(&mut self, name: &str, json_value: impl std::fmt::Display) {
        self.context
            .push((name.to_string(), json_value.to_string()));
    }

    pub fn phase(&mut self, name: &str, outcomes: Outcomes, counted: bool) {
        self.phases.push((name.to_string(), outcomes, counted));
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        assert!(
            metrics::valid_name(name) && metrics::unit_of(name).is_some_and(metrics::valid_unit),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name.to_string(), value);
    }

    pub fn not_applicable(&mut self, name: &str) {
        self.metric(name, 0.0);
        self.not_applicable.push(name.to_string());
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &str) {
        self.details
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn finding(&mut self, text: impl Into<String>) {
        self.findings.push(text.into());
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, passed, _)| *passed)
    }

    pub fn totals(&self) -> Outcomes {
        let mut total = Outcomes::default();
        for (_, outcomes, counted) in &self.phases {
            if *counted {
                total.add(outcomes);
            }
        }
        total
    }

    /// Names the run must report: the end-to-end catalogue untraced, the
    /// per-layer catalogue traced.
    pub fn expected_names(&self) -> Vec<&'static str> {
        if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// The one-line result: `correct`, `attempted`, `failed`, and every
    /// expected metric with its unit.
    pub fn result_line(&self) -> String {
        let totals = self.totals();
        let mut metrics = String::new();
        for (i, name) in self.expected_names().into_iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            let unit = metrics::unit_of(name).expect("catalogued");
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            totals.attempted.max(1),
            totals.failed()
        )
    }

    /// The human-readable report printed before the result line.
    pub fn readable(&self) -> String {
        let mut out = String::new();
        let mode = if self.traced { "traced" } else { "untraced" };
        let _ = writeln!(out, "== {} ({mode}) ==", self.workload);
        for (name, value) in &self.context {
            let _ = writeln!(out, "  context  {name} = {value}");
        }
        for (name, outcomes, _) in &self.phases {
            let failed_ratio = outcomes.failed() as f64 / outcomes.attempted.max(1) as f64;
            let _ = writeln!(
                out,
                "  phase    {name}: attempted {} ok {} busy {} budget {} error {} timeout {} \
                 (failed_ratio {failed_ratio:.6})",
                outcomes.attempted,
                outcomes.ok,
                outcomes.busy,
                outcomes.budget,
                outcomes.error,
                outcomes.timeout
            );
        }
        for (name, value, unit) in &self.details {
            let _ = writeln!(out, "  detail   {name} = {value:.4} {unit}");
        }
        for name in self.expected_names() {
            let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            let unit = metrics::unit_of(name).expect("catalogued");
            let note = if self.not_applicable.iter().any(|n| n == name) {
                "  (not exercised by this workload)"
            } else {
                ""
            };
            let _ = writeln!(out, "  metric   {name} = {value:.4} {unit}{note}");
        }
        for (name, passed, detail) in &self.checks {
            let verdict = if *passed { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "  check    {verdict} {name}: {detail}");
        }
        for finding in &self.findings {
            let _ = writeln!(out, "  finding  {finding}");
        }
        out
    }

    /// The detail file: everything above as one JSON document.
    pub fn detail_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(out, "  \"traced\": {},", self.traced);
        let context: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(out, "  \"context\": {{{}}},", context.join(", "));
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(name, o, counted)| {
                format!(
                    "    {{\"phase\": \"{name}\", \"counted\": {counted}, \"outcomes\": {}, \
                     \"failed_ratio\": {}}}",
                    o.json(),
                    json_number(o.failed() as f64 / o.attempted.max(1) as f64)
                )
            })
            .collect();
        let _ = writeln!(out, "  \"phases\": [\n{}\n  ],", phases.join(",\n"));
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(name, passed, detail)| {
                format!(
                    "    {{\"check\": \"{name}\", \"passed\": {passed}, \"detail\": \"{}\"}}",
                    escape(detail)
                )
            })
            .collect();
        let _ = writeln!(out, "  \"checks\": [\n{}\n  ],", checks.join(",\n"));
        let metric_rows: Vec<String> = self
            .expected_names()
            .into_iter()
            .map(|name| {
                let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                let applies = !self.not_applicable.iter().any(|n| n == name);
                let described = match (
                    END_TO_END.iter().find(|m| m.name == name),
                    PER_LAYER.iter().find(|m| m.name == name),
                ) {
                    (Some(m), _) => format!(
                        "\"unit\": \"{}\", \"better\": \"{}\", \"meaning\": \"{}\"",
                        m.unit,
                        better(m.higher_is_better),
                        escape(m.meaning)
                    ),
                    (None, Some(m)) => format!(
                        "\"unit\": \"{}\", \"better\": \"{}\", \"layer\": \"{}\", \
                         \"rung\": \"{}\", \"target\": \"{}\", \"applies\": {applies}",
                        m.unit,
                        better(m.higher_is_better),
                        m.layer,
                        escape(m.rung),
                        escape(m.target)
                    ),
                    (None, None) => unreachable!("expected names come from the catalogue"),
                };
                format!(
                    "    {{\"name\": \"{name}\", \"value\": {}, {described}}}",
                    json_number(value)
                )
            })
            .collect();
        let _ = writeln!(out, "  \"metrics\": [\n{}\n  ],", metric_rows.join(",\n"));
        let details: Vec<String> = self
            .details
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "    {{\"name\": \"{name}\", \"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        let _ = writeln!(out, "  \"details\": [\n{}\n  ],", details.join(",\n"));
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| format!("    \"{}\"", escape(f)))
            .collect();
        let _ = write!(out, "  \"findings\": [\n{}\n  ]", findings.join(",\n"));
        for (name, json) in &self.sections {
            let _ = write!(out, ",\n  \"{name}\": {json}");
        }
        out.push_str("\n}\n");
        out
    }
}

fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// A JSON number with every digit Rust prints; non-finite values become
/// `null`, which the result-line consumer rejects.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        let text = format!("{value}");
        if text.contains('.') || text.contains('e') {
            text
        } else {
            format!("{text}.0")
        }
    } else {
        "null".to_string()
    }
}

pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_keep_digits() {
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn totals_count_only_counted_phases() {
        let mut report = Report::new("w", false);
        report.phase(
            "a",
            Outcomes {
                attempted: 10,
                ok: 9,
                busy: 1,
                ..Outcomes::default()
            },
            true,
        );
        report.phase(
            "b",
            Outcomes {
                attempted: 5,
                ok: 5,
                ..Outcomes::default()
            },
            false,
        );
        let totals = report.totals();
        assert_eq!((totals.attempted, totals.failed()), (10, 1));
    }
}
