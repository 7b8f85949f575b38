//! Spans recorded by the harness around calls into each layer's public
//! functions. Spans stay in memory and are written out once, when the
//! traced pass ends; nothing inside the measured program is instrumented.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One timed interval. `parent` is the `id` of the span that caused it;
/// spans of one traced invocation share `invocation`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub id: u64,
    pub name: String,
    pub parent: Option<u64>,
    pub invocation: u64,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Duration minus the part its child spans cover; filled in by
    /// [`Tracer::finish`].
    pub self_us: f64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// What `trace-<workload>.json` holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceFile {
    pub workload: String,
    pub seed: u64,
    pub spans: Vec<Span>,
}

/// The id [`Tracer::open`] returns while tracing is off.
pub const NO_SPAN: u64 = u64::MAX;

/// In-memory span recorder for one thread: a span opened while another
/// is open is its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    invocation: u64,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            invocation: 0,
            enabled: true,
        }
    }

    /// Turn recording off or on. While off, the same calls run and
    /// nothing is recorded: the untraced side of the overhead ratio, and
    /// work the traced pass repeats only to rebuild an input.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Spans opened from now on belong to a new invocation.
    pub fn next_invocation(&mut self) {
        self.invocation += 1;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_nanos() as f64 / 1e3
    }

    /// Start a span under the innermost open one; it ends at
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &str) -> u64 {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as u64;
        let now = self.now_us();
        self.spans.push(Span {
            id,
            name: name.to_string(),
            parent: self.open.last().copied(),
            invocation: self.invocation,
            start_us: now,
            end_us: now,
            self_us: 0.0,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: u64) {
        if id == NO_SPAN {
            return;
        }
        let now = self.now_us();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_us = now;
    }

    /// Record a leaf span around `f`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// End the trace: every span gets its self time.
    pub fn finish(mut self) -> Vec<Span> {
        for i in 0..self.spans.len() {
            self.spans[i].self_us = self_time_ms(&self.spans, self.spans[i].id) * 1e3;
        }
        self.spans
    }
}

/// A span's duration minus the part of its interval that its child spans
/// cover. Overlapping children (threads) are counted once.
pub fn self_time_ms(spans: &[Span], id: u64) -> f64 {
    let Some(span) = spans.iter().find(|s| s.id == id) else {
        return f64::NAN;
    };
    let mut covered: Vec<(f64, f64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
        .filter(|(s, e)| e > s)
        .collect();
    covered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (s, e) in covered {
        if e > reach {
            total += e - s.max(reach);
            reach = e;
        }
    }
    (span.end_us - span.start_us - total) / 1e3
}

/// For each invocation, the summed duration of its spans named `name`;
/// the smallest of these sums, in milliseconds. `None` when no span has
/// the name. A repeated invocation thus reports its quietest repetition.
pub fn min_over_invocations_ms(spans: &[Span], name: &str) -> Option<f64> {
    let mut sums: Vec<(u64, f64)> = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        match sums.iter_mut().find(|(inv, _)| *inv == s.invocation) {
            Some((_, sum)) => *sum += s.duration_ms(),
            None => sums.push((s.invocation, s.duration_ms())),
        }
    }
    sums.into_iter().map(|(_, ms)| ms).reduce(f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            name: format!("s{id}"),
            parent,
            invocation: 0,
            start_us,
            end_us,
            self_us: 0.0,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        let spans = [
            span(0, None, 0.0, 10_000.0),
            span(1, Some(0), 1_000.0, 3_000.0),
            span(2, Some(0), 5_000.0, 6_000.0),
        ];
        assert_eq!(self_time_ms(&spans, 0), 7.0);
        assert_eq!(self_time_ms(&spans, 1), 2.0);
    }

    #[test]
    fn self_time_ignores_grandchildren_and_counts_overlap_once() {
        let spans = [
            span(0, None, 0.0, 10_000.0),
            span(1, Some(0), 1_000.0, 6_000.0),
            // Nested in span 1: already covered from span 0's view.
            span(2, Some(1), 2_000.0, 3_000.0),
            // Overlaps span 1 between 4 and 6 ms.
            span(3, Some(0), 4_000.0, 8_000.0),
        ];
        assert_eq!(self_time_ms(&spans, 0), 3.0);
        assert_eq!(self_time_ms(&spans, 1), 4.0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_interval() {
        let spans = [
            span(0, None, 1_000.0, 2_000.0),
            span(1, Some(0), 0.0, 1_500.0),
        ];
        assert_eq!(self_time_ms(&spans, 0), 0.5);
        assert!(self_time_ms(&spans, 9).is_nan());
    }

    #[test]
    fn repeated_invocations_report_the_quietest() {
        let mut a = span(0, None, 0.0, 3_000.0);
        let mut b = span(1, None, 0.0, 1_000.0);
        let mut c = span(2, None, 1_000.0, 1_500.0);
        for (s, inv) in [(&mut a, 0), (&mut b, 1), (&mut c, 1)] {
            s.name = "x".into();
            s.invocation = inv;
        }
        let spans = [a, b, c];
        assert_eq!(min_over_invocations_ms(&spans, "x"), Some(1.5));
        assert_eq!(min_over_invocations_ms(&spans, "y"), None);
    }

    #[test]
    fn tracer_records_name_parent_and_invocation() {
        let mut t = Tracer::new();
        t.next_invocation();
        let root = t.open("root");
        let v = t.time("leaf", || 41 + 1);
        t.close(root);
        let sibling = t.open("sibling");
        t.close(sibling);
        assert_eq!(v, 42);
        t.set_enabled(false);
        let off = t.open("unrecorded");
        t.close(off);
        assert_eq!(off, NO_SPAN);
        let spans = t.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(root)));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[1].invocation, 1);
        assert!(spans[0].end_us >= spans[1].end_us);
        let root_us = spans[0].end_us - spans[0].start_us;
        let leaf_us = spans[1].end_us - spans[1].start_us;
        assert!((spans[0].self_us - (root_us - leaf_us)).abs() < 1e-6);
        assert!((spans[1].self_us - leaf_us).abs() < 1e-6);
        let file = TraceFile {
            workload: "w".into(),
            seed: 1,
            spans,
        };
        let text = serde_json::to_string(&file).unwrap();
        assert_eq!(serde_json::from_str::<TraceFile>(&text).unwrap(), file);
    }
}
