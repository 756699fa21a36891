//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the process
//! clock origin), the request id it belongs to and the span that caused it.
//! Spans live in memory per thread and are written out when the run ends.
//! A layer's self time is its span's duration minus the time its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// At most this many spans are kept per tracer; later spans are counted
/// but not stored, so a long run cannot grow without bound.
const MAX_SPANS: usize = 1_000_000;
/// At most this many spans are written to the spans file; the summary
/// covers every kept span.
const MAX_WRITTEN: usize = 100_000;

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the process clock origin.
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span handle: `None` when tracing is off or the tracer is full.
pub type SpanId = Option<usize>;

/// A per-thread span recorder. When off, `open`/`close` cost one branch.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            request,
            parent,
            start: now_ns(),
            end: 0,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(index) = id {
            self.spans[index].end = now_ns();
        }
    }

    /// Runs `body` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        body: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = body();
        self.close(id);
        out
    }

    /// Moves another tracer's spans into this one, keeping parent links,
    /// up to the span limit.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let room = MAX_SPANS.saturating_sub(base);
        self.dropped += other.dropped + other.spans.len().saturating_sub(room) as u64;
        self.spans
            .extend(other.spans.into_iter().take(room).map(|mut span| {
                span.parent = span.parent.filter(|&p| p < room).map(|p| p + base);
                span
            }));
    }

    /// Durations (ns) of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end >= s.start && s.end != 0)
            .map(|s| s.duration() as f64)
            .collect()
    }

    /// Self time (ns) of every closed span, grouped by name: the span's
    /// duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start.max(p.start);
                let end = span.end.min(p.end);
                covered[parent] += end.saturating_sub(start);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            if span.end == 0 {
                continue;
            }
            out.entry(span.name)
                .or_default()
                .push(span.duration().saturating_sub(covered) as f64);
        }
        out
    }

    /// Writes the first spans as one JSON object per line, then one summary
    /// line per span name over every kept span: count, and median duration
    /// and self time in nanoseconds.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate().take(MAX_WRITTEN) {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.request, span.start, span.end
            )?;
        }
        for (name, mut self_times) in self.self_times() {
            let mut durations = self.durations(name);
            writeln!(
                out,
                "{{\"summary\": \"{name}\", \"count\": {}, \"p50_ns\": {}, \"self_p50_ns\": {}}}",
                durations.len(),
                crate::stats::summarize(&mut durations).p50,
                crate::stats::summarize(&mut self_times).p50
            )?;
        }
        writeln!(
            out,
            "{{\"kept\": {}, \"written\": {}, \"dropped\": {}}}",
            self.spans.len(),
            self.spans.len().min(MAX_WRITTEN),
            self.dropped
        )?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(true);
        tracer.spans.push(Span {
            name: "outer",
            request: 1,
            parent: None,
            start: 100,
            end: 200,
        });
        tracer.spans.push(Span {
            name: "inner",
            request: 1,
            parent: Some(0),
            start: 120,
            end: 150,
        });
        let self_times = tracer.self_times();
        assert_eq!(self_times["outer"], vec![70.0]);
        assert_eq!(self_times["inner"], vec![30.0]);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.open("x", 0, None);
        tracer.close(id);
        assert!(tracer.spans.is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new(true);
        let root = a.open("a", 0, None);
        a.close(root);
        let mut b = Tracer::new(true);
        let outer = b.open("b", 1, None);
        let inner = b.open("c", 1, outer);
        b.close(inner);
        b.close(outer);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
