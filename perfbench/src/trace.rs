//! In-memory span recording for the traced run.
//!
//! Each span is a call into one layer's public function, recorded from
//! the benchmark's side of the call: name, start, end, the enclosing
//! span and the iteration ("pass id") it belongs to. Spans stay in
//! memory while the run measures and are written out once at the end.

use crate::stats::median;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the span that encloses one traced pass.
pub const PASS: &str = "pass";

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer metric name, e.g. `core.diagnose`.
    pub name: &'static str,
    /// Iteration the span belongs to.
    pub pass: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: usize,
}

impl Tracer {
    /// An empty tracer; spans are timed from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Tags every span recorded from now on with `pass`.
    pub fn set_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    /// Runs `body` inside a span named `name`, nested under whatever
    /// span is open.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Total milliseconds spent in spans called `name` during `pass`.
    fn total_ms(&self, name: &str, pass: usize) -> f64 {
        self.spans
            .iter()
            .filter(|span| span.pass == pass && span.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Median over the traced iterations of each iteration's total
    /// milliseconds in spans called `name`.
    pub fn median_ms(&self, name: &str) -> f64 {
        let passes: BTreeSet<usize> = self.spans.iter().map(|span| span.pass).collect();
        let totals: Vec<f64> = passes.iter().map(|&pass| self.total_ms(name, pass)).collect();
        median(&totals)
    }

    /// Inserts each `(metric, span name)` layer's [`Tracer::median_ms`]
    /// and the `trace.*` summary: the traced pass time, its overhead
    /// against the untraced pass times, and the median share of a pass
    /// that no layer span covers.
    pub fn insert_metrics(
        &self,
        layers: &[(&'static str, &str)],
        untraced: &[f64],
        metrics: &mut BTreeMap<&'static str, f64>,
    ) {
        for &(metric, span) in layers {
            metrics.insert(metric, self.median_ms(span));
        }
        let pass_ms = self.median_ms(PASS);
        let untraced_p50 = median(untraced);
        let unattributed: Vec<f64> = (0..self.spans.len())
            .filter(|&index| self.spans[index].name == PASS)
            .map(|index| self.self_ms(index) / self.spans[index].ms())
            .collect();
        metrics.insert("trace.pass_ms", pass_ms);
        metrics.insert("trace.overhead_frac", (pass_ms - untraced_p50) / untraced_p50);
        metrics.insert("trace.unattributed_frac", median(&unattributed));
    }

    /// A span's self time in milliseconds: its duration minus the part
    /// its direct children cover (children never overlap, since spans
    /// nest on one thread).
    fn self_ms(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|span| span.parent == Some(index))
            .map(Span::ms)
            .sum();
        self.spans[index].ms() - children
    }

    /// The spans as JSON lines: one object per span with its index.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or("null".to_string(), |parent| parent.to_string());
            writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"pass\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.pass, span.start_ns, span.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tracer = Tracer::new();
        tracer.set_pass(3);
        let value = tracer.span(PASS, |tracer| {
            tracer.span("a", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            tracer.span("b", |_| 7)
        });
        assert_eq!(value, 7);
        let spans = &tracer.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|span| span.pass == 3 && span.end_ns >= span.start_ns));
        let self_ms = tracer.self_ms(0);
        assert!(self_ms >= 0.0 && self_ms < spans[0].ms());
        assert!(tracer.total_ms("a", 3) >= 2.0);
        assert_eq!(tracer.total_ms("a", 4), 0.0);
        assert_eq!(tracer.to_json_lines().lines().count(), 3);
        let mut metrics = BTreeMap::new();
        tracer.insert_metrics(&[("a_ms", "a")], &[spans[0].ms()], &mut metrics);
        assert_eq!(metrics["a_ms"], tracer.total_ms("a", 3));
        assert_eq!(metrics["trace.overhead_frac"], 0.0);
        assert!(metrics["trace.unattributed_frac"] < 1.0);
    }
}
