//! The metric catalogue: every metric the benchmark reports, with its unit,
//! its direction and, for a per-layer metric, the rung of the ladder it is
//! measured on and the end-to-end metric it should move.
//!
//! `BENCHMARK.json` lists the same names; the benchmark's own tests check
//! that the two agree.

/// `true` when a larger value is better.
pub type HigherIsBetter = bool;

/// An end-to-end metric: measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: HigherIsBetter,
    /// What the metric is on each workload.
    pub meaning: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        meaning: "median of three full set-ups: inputs, engines with their cold calibrations, \
                  services, server and connections",
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        higher_is_better: false,
        meaning: "median latency: release_p50_us at the reference rate (wire-open, timed from \
                  the due time), release_p50_us (audited-hot-users), query_p50_us \
                  (query-sliding)",
    },
    EndToEnd {
        name: "op_p90_us",
        unit: "us",
        higher_is_better: false,
        meaning: "90th-percentile latency, as op_p50_us; the 99th percentile and the highest \
                  percentile with ten samples beyond it are in the report",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        meaning: "completed work per second: releases delivered at the top offered rate \
                  (wire-open), release_rps (audited-hot-users), query_windows_per_s \
                  (query-sliding)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        meaning: "peak resident set size of the benchmark process",
    },
];

/// A per-layer metric: measured in the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: HigherIsBetter,
    /// The layer (crate) the metric belongs to.
    pub layer: &'static str,
    /// The ladder rung or standalone replay it is measured on.
    pub rung: &'static str,
    /// The end-to-end metric it should move, and on which workload.
    pub target: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: HigherIsBetter,
    layer: &'static str,
    rung: &'static str,
    target: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
        layer,
        rung,
        target,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    layer(
        "core.calibrate_ms",
        "ms",
        false,
        "core",
        "standalone: cold ReleaseEngine::mechanism per key",
        "setup_s on query-sliding and audited-hot-users",
    ),
    layer(
        "core.release_ns",
        "ns",
        false,
        "core",
        "engine",
        "ops_per_s (query_windows_per_s) on query-sliding; no change predicted on wire-open",
    ),
    layer(
        "core.cache_hit_ratio",
        "ratio",
        true,
        "core",
        "traced workload loop",
        "none: 1.0 in every measured phase",
    ),
    layer(
        "service.budget.try_spend_p50_ns",
        "ns",
        false,
        "service",
        "standalone: budget replay",
        "ops_per_s and op_p90_us on audited-hot-users; flat on wire-open",
    ),
    layer(
        "service.budget.try_spend_p99_ns",
        "ns",
        false,
        "service",
        "standalone: budget replay",
        "op_p90_us on audited-hot-users; flat on wire-open",
    ),
    layer(
        "service.budget.history_max",
        "count",
        false,
        "service",
        "standalone: budget replay",
        "none: records the history depth the replay reached",
    ),
    layer(
        "service.submit_ns",
        "ns",
        false,
        "service",
        "service",
        "op_p50_us on audited-hot-users",
    ),
    layer(
        "service.wait_ns",
        "ns",
        false,
        "service",
        "service",
        "op_p50_us on audited-hot-users",
    ),
    layer(
        "service.queue_high_water",
        "count",
        false,
        "service",
        "traced workload loop",
        "op_p90_us on audited-hot-users and wire-open",
    ),
    layer(
        "net.encode_ns",
        "ns",
        false,
        "net",
        "codec",
        "op_p50_us on wire-open",
    ),
    layer(
        "net.decode_ns",
        "ns",
        false,
        "net",
        "codec",
        "op_p50_us on wire-open",
    ),
    layer(
        "net.wire_minus_service_us",
        "us",
        false,
        "net",
        "wire - service",
        "op_p50_us and sustained_rps on wire-open",
    ),
    layer(
        "net.busy_frames",
        "count",
        false,
        "net",
        "traced workload loop",
        "failed_ratio on wire-open",
    ),
    layer(
        "net.bytes_per_release",
        "bytes",
        false,
        "net",
        "codec",
        "op_p50_us on wire-open",
    ),
    layer(
        "query.plan_us",
        "us",
        false,
        "query",
        "standalone: warm QueryService::plan",
        "op_p50_us (query_p50_us) on query-sliding",
    ),
    layer(
        "query.execute_us",
        "us",
        false,
        "query",
        "standalone: QueryService::execute",
        "op_p50_us and ops_per_s on query-sliding",
    ),
    layer(
        "query.cold_plan_ms",
        "ms",
        false,
        "query",
        "standalone: cold plan per statement shape",
        "setup_s on query-sliding",
    ),
    layer(
        "parallel.exec_serial_us",
        "us",
        false,
        "parallel",
        "standalone: execute_plan_with Serial",
        "op_p90_us on query-sliding",
    ),
    layer(
        "parallel.exec_2t_us",
        "us",
        false,
        "parallel",
        "standalone: execute_plan_with Threads(2)",
        "op_p90_us on query-sliding",
    ),
    layer(
        "parallel.speedup",
        "ratio",
        true,
        "parallel",
        "exec_serial_us / exec_2t_us",
        "op_p90_us on query-sliding",
    ),
    layer(
        "telemetry.ledger_record_ns",
        "ns",
        false,
        "telemetry",
        "standalone: EpsilonLedger::record replay",
        "ops_per_s on audited-hot-users",
    ),
    layer(
        "telemetry.overhead_ratio",
        "ratio",
        false,
        "telemetry",
        "service rung, observability on / off",
        "ops_per_s on audited-hot-users",
    ),
    layer(
        "telemetry.unattributed_us",
        "us",
        false,
        "telemetry",
        "observed service rung",
        "none: time no stage histogram accounts for is an observability bug",
    ),
    layer(
        "monitor.observe_ns",
        "ns",
        false,
        "monitor",
        "standalone: ServiceMonitor::observe_release",
        "ops_per_s on audited-hot-users",
    ),
    layer(
        "rung.engine_us",
        "us",
        false,
        "core",
        "engine",
        "the base of the ladder",
    ),
    layer(
        "rung.budget_us",
        "us",
        false,
        "service",
        "budget",
        "budget_us - engine_us is admission's cost",
    ),
    layer(
        "rung.service_us",
        "us",
        false,
        "service",
        "service",
        "service_us - budget_us is the queue and worker hand-off",
    ),
    layer(
        "rung.codec_us",
        "us",
        false,
        "net",
        "codec",
        "codec_us - service_us is the frame codec",
    ),
    layer(
        "rung.wire_us",
        "us",
        false,
        "net",
        "wire",
        "wire_us - codec_us is the socket and connection threads",
    ),
    layer(
        "bench.trace_overhead_ratio",
        "ratio",
        false,
        "bench",
        "traced / untraced workload loop",
        "none: the cost of the benchmark's own spans",
    ),
    layer(
        "bench.gen_lag_p99_us",
        "us",
        false,
        "bench",
        "open-loop generator",
        "none: how late the generator sent (wire-open; 0 for closed loops)",
    ),
];

/// Whether `name` is a valid metric name: a letter or digit first, then at
/// most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "duplicate metric {name}");
        }
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("net.encode_ns"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(valid_unit("1/s"));
        assert!(!valid_unit("µs"));
    }
}
