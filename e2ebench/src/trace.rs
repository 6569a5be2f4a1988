//! In-memory span log of a traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! name, start, end and the span that was open when it began. Spans stay
//! in memory until the run ends; layer totals and per-call samples are
//! computed from them, and the log is written out as JSON lines. Ledger
//! residuals (self time) subtract the replayed layers' totals from their
//! parent's, with both bases printed.

use std::fmt::Write as _;

use dcat_obs::CycleSource;

use crate::measure::Samples;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// Opens a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, clock: &mut dyn CycleSource, name: &'static str) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: clock.now_cycles(),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self, clock: &mut dyn CycleSource) {
        let now = clock.now_cycles();
        if let Some(span) = self.open.pop().and_then(|i| self.spans.get_mut(i)) {
            span.end = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        clock: &mut dyn CycleSource,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(clock, name);
        let v = f();
        self.exit(clock);
        v
    }

    /// Records an already-measured span under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
        });
    }

    /// Durations of every span named `name`.
    pub fn samples(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            s.push(span.ns());
        }
        s
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.samples(name).total_ns()
    }

    /// The log as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcat_bench::perf::harness::FakeClock;

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut clock = FakeClock::new(10);
        let mut log = SpanLog::default();
        log.enter(&mut clock, "outer"); // 10
        log.span(&mut clock, "inner", || ()); // 20..30
        log.exit(&mut clock); // 40
        assert_eq!(log.total("outer"), 30);
        assert_eq!(log.total("inner"), 10);
        assert!(log.to_jsonl().contains("\"parent\":0"));
    }
}
