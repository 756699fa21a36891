//! Order statistics over measured samples.

/// A timing distribution: the median, the spread around it, and the highest
/// percentile that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    pub p10: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// The highest percentile with at least ten samples above it (`p50`
    /// when the sample has fewer than eleven values).
    pub top_pct: f64,
    /// The value at `top_pct`.
    pub top: f64,
}

/// Nearest-rank percentile of an ascending slice; `p` in `0..=100`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and summarises them.
pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let (top_pct, top) = if n >= 11 {
        // Index n-11 leaves exactly ten samples above it.
        let pct = 100.0 * (n - 10) as f64 / n as f64;
        (pct, samples[n - 11])
    } else {
        (50.0, percentile(samples, 50.0))
    };
    Summary {
        n,
        p10: percentile(samples, 10.0),
        p50: percentile(samples, 50.0),
        p90: percentile(samples, 90.0),
        p99: percentile(samples, 99.0),
        top_pct,
        top,
    }
}

/// Median of a small set of repetitions (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// A latency histogram with buckets 1% wide, for a whole phase in constant
/// memory: percentiles come out within 1% of the exact sample percentile.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

/// Bucket growth factor and the number of buckets: 1 ns to over 10 s.
const BUCKET_GROWTH: f64 = 1.01;
const BUCKETS: usize = 2400;

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl LogHistogram {
    pub fn record(&mut self, value: f64) {
        let bucket = (value.max(1.0).ln() / BUCKET_GROWTH.ln()) as usize;
        self.counts[bucket.min(BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// Nearest-rank percentile, as the geometric middle of its bucket.
    pub fn percentile(&self, p: f64) -> f64 {
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return BUCKET_GROWTH.powf(bucket as f64 + 0.5);
            }
        }
        0.0
    }

    /// The median, and the highest percentile with at least ten samples
    /// above it (`p50` when there are fewer than eleven samples).
    pub fn summary(&self) -> Summary {
        let n = self.total as usize;
        let top_pct = if n >= 11 {
            100.0 * (n - 10) as f64 / n as f64
        } else {
            50.0
        };
        Summary {
            n,
            p10: self.percentile(10.0),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            top_pct,
            top: self.percentile(top_pct),
        }
    }
}

/// The better decile of per-window figures: the 10th percentile when lower
/// is better, the 90th otherwise.
///
/// The host is shared, and a busy neighbour slows every figure for seconds
/// at a time. Neighbours only ever make a window worse, so the better
/// decile of a run's windows tracks the program and not the neighbours, as
/// long as a tenth of the run's windows are quiet. A change to the program
/// moves every window, the better decile with them.
pub fn better_decile(values: &[f64], lower_is_better: bool) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, if lower_is_better { 10.0 } else { 90.0 })
}

/// The better decile of one figure over `windows`.
pub fn window_figure(windows: &[Window], figure: fn(&Window) -> f64, lower_is_better: bool) -> f64 {
    better_decile(
        &windows.iter().map(figure).collect::<Vec<f64>>(),
        lower_is_better,
    )
}

/// One time window of a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Latency percentiles of those operations (ns).
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Work completed per second (work is counted by the workload: releases
    /// or released windows).
    pub rate: f64,
    /// Process CPU seconds per completed operation.
    pub cpu_per_op: f64,
}

/// Cuts a measured phase into windows as operations complete: into
/// fixed-length time windows, or, for a workload with a cycle of its own,
/// at the points the workload cuts.
pub struct Windows {
    length: Option<std::time::Duration>,
    start: std::time::Instant,
    cpu_start: f64,
    latencies: Vec<f64>,
    work: f64,
    done: Vec<Window>,
}

impl Windows {
    /// Windows of `seconds` each.
    pub fn timed(seconds: f64) -> Self {
        Windows::with_length(Some(std::time::Duration::from_secs_f64(seconds)))
    }

    /// Windows that end only at [`Windows::cut`].
    pub fn cut_by_caller() -> Self {
        Windows::with_length(None)
    }

    fn with_length(length: Option<std::time::Duration>) -> Self {
        Windows {
            length,
            start: std::time::Instant::now(),
            cpu_start: crate::sys::cpu_seconds().unwrap_or(0.0),
            latencies: Vec::new(),
            work: 0.0,
            done: Vec::new(),
        }
    }

    /// Records one completed operation of `latency_ns` that did `work`.
    pub fn record(&mut self, now: std::time::Instant, latency_ns: f64, work: f64) {
        self.latencies.push(latency_ns);
        self.work += work;
        if self
            .length
            .is_some_and(|length| now.duration_since(self.start) >= length)
        {
            self.close(now);
        }
    }

    fn close(&mut self, now: std::time::Instant) {
        if self.latencies.is_empty() {
            return;
        }
        let cpu = crate::sys::cpu_seconds().unwrap_or(0.0);
        let ops = self.latencies.len() as f64;
        let summary = summarize(&mut self.latencies);
        self.done.push(Window {
            p50: summary.p50,
            p90: summary.p90,
            p99: summary.p99,
            rate: self.work / now.duration_since(self.start).as_secs_f64().max(1e-9),
            cpu_per_op: (cpu - self.cpu_start) / ops,
        });
        self.latencies.clear();
        self.work = 0.0;
        self.start = now;
        self.cpu_start = cpu;
    }

    /// Ends the current window now; the next starts at [`Windows::resume`].
    pub fn cut(&mut self) {
        self.close(std::time::Instant::now());
    }

    /// Starts the next window after a pause that must not count.
    pub fn resume(&mut self) {
        self.start = std::time::Instant::now();
        self.cpu_start = crate::sys::cpu_seconds().unwrap_or(0.0);
    }

    /// Returns every window. The last one is kept if it is the only one or,
    /// for timed windows, at least half full.
    pub fn finish(mut self) -> Vec<Window> {
        let now = std::time::Instant::now();
        let half_full = self
            .length
            .is_none_or(|length| now.duration_since(self.start) >= length / 2);
        if self.done.is_empty() || half_full && self.length.is_some() {
            self.close(now);
        }
        self.done
    }
}

/// Per-window figures as a JSON list, for the detail file.
pub fn windows_json(windows: &[Window]) -> String {
    let rows: Vec<String> = windows
        .iter()
        .map(|w| {
            format!(
                "{{\"p50_us\": {:.3}, \"p90_us\": {:.3}, \"p99_us\": {:.3}, \"rate\": {:.1}, \
                 \"cpu_us_per_op\": {:.4}}}",
                w.p50 / 1e3,
                w.p90 / 1e3,
                w.p99 / 1e3,
                w.rate,
                w.cpu_per_op * 1e6
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_is_within_one_percent() {
        let mut histogram = LogHistogram::default();
        for v in 1..=1000 {
            histogram.record(f64::from(v) * 1000.0);
        }
        let summary = histogram.summary();
        assert_eq!(summary.n, 1000);
        assert!((summary.p50 / 500_000.0 - 1.0).abs() < 0.01);
        assert!((summary.top / 990_000.0 - 1.0).abs() < 0.01);
    }

    #[test]
    fn better_decile_ignores_slow_windows() {
        let mut values: Vec<f64> = (1..=20).map(|v| f64::from(v) * 10.0).collect();
        values[5] = 1.0;
        assert_eq!(better_decile(&values, true), 10.0);
        assert_eq!(better_decile(&values, false), 180.0);
    }

    #[test]
    fn windows_close_on_time() {
        let mut windows = Windows::timed(0.0);
        let now = std::time::Instant::now();
        windows.record(now, 5.0, 1.0);
        windows.record(now, 7.0, 1.0);
        let done = windows.finish();
        assert_eq!(done.len(), 2);
        assert_eq!((done[0].p50, done[1].p50), (5.0, 7.0));
    }

    #[test]
    fn caller_cut_windows_close_only_at_cuts() {
        let mut windows = Windows::cut_by_caller();
        let now = std::time::Instant::now();
        windows.record(now, 5.0, 1.0);
        windows.record(now, 9.0, 1.0);
        windows.cut();
        windows.resume();
        windows.record(now, 7.0, 1.0);
        let done = windows.finish();
        // The partial last window is dropped once a full one exists.
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].p50, 5.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&mut samples);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
        // Ten samples (91..=100) lie above the top percentile's value.
        assert_eq!(s.top, 90.0);
        assert_eq!(s.top_pct, 90.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
