//! The recorder trait, the in-memory recorder, and the `Telemetry`
//! handle engines carry.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A metrics sink. Implementations must be cheap and thread-safe: a
/// [`Telemetry`] handle is `Send + Sync` and its clones share one
/// recorder, so any clone may record from any thread.
///
/// All methods take `&self`; stateful recorders use interior mutability.
pub trait Recorder: Send + Sync {
    /// Add `delta` to the named monotone counter.
    fn counter(&self, name: &str, delta: u64);
    /// Set the named gauge to `value`.
    fn gauge(&self, name: &str, value: u64);
    /// Raise the named gauge to `value` if it is higher (high-water mark).
    fn gauge_max(&self, name: &str, value: u64);
    /// Record one observation into the named log-linear histogram.
    fn observe(&self, name: &str, value: u64);
    /// Record one timed span of `elapsed_ns` under the named phase.
    fn span_ns(&self, name: &str, elapsed_ns: u64);
}

/// The handle engines carry: either disabled (a `None` — every probe is
/// one branch and nothing else) or an [`Arc`] to a live [`Recorder`].
///
/// Disabled is the default, and the zero-cost argument is structural:
/// every probe method starts with `let Some(r) = &self.0 else { return }`,
/// no probe allocates or computes before that check, and the engines
/// never branch on telemetry for anything that affects the simulation
/// state — so a disabled run executes the exact instruction stream of a
/// pre-telemetry build plus dead branches. `RunResult` bit-identity
/// between off and on is enforced by `tests/telemetry.rs`.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<dyn Recorder>>);

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "Telemetry(enabled)"
        } else {
            "Telemetry(disabled)"
        })
    }
}

impl Telemetry {
    /// The disabled handle (all probes are no-ops).
    pub fn disabled() -> Telemetry {
        Telemetry(None)
    }

    /// A handle recording into `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> Telemetry {
        Telemetry(Some(recorder))
    }

    /// Whether a recorder is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(r) = &self.0 {
            r.counter(name, delta);
        }
    }

    /// Set a gauge.
    #[inline]
    pub fn gauge(&self, name: &str, value: u64) {
        if let Some(r) = &self.0 {
            r.gauge(name, value);
        }
    }

    /// Raise a gauge to a new high-water mark.
    #[inline]
    pub fn gauge_max(&self, name: &str, value: u64) {
        if let Some(r) = &self.0 {
            r.gauge_max(name, value);
        }
    }

    /// Record a histogram observation.
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(r) = &self.0 {
            r.observe(name, value);
        }
    }

    /// Record an already-measured span.
    #[inline]
    pub fn span_ns(&self, name: &str, elapsed_ns: u64) {
        if let Some(r) = &self.0 {
            r.span_ns(name, elapsed_ns);
        }
    }

    /// Start a timed span; the guard records its elapsed wall time under
    /// `name` when dropped. Disabled handles return an inert guard that
    /// never reads the clock.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            active: self
                .0
                .as_ref()
                .map(|r| (Arc::clone(r), name, Instant::now())),
        }
    }
}

/// RAII timer from [`Telemetry::span`].
pub struct SpanGuard {
    active: Option<(Arc<dyn Recorder>, &'static str, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((recorder, name, start)) = self.active.take() {
            recorder.span_ns(name, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Aggregate statistics for one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Spans recorded.
    pub count: u64,
    /// Total elapsed nanoseconds (saturating).
    pub total_ns: u64,
    /// Fastest span.
    pub min_ns: u64,
    /// Slowest span.
    pub max_ns: u64,
}

impl SpanStats {
    fn record(&mut self, elapsed_ns: u64) {
        if self.count == 0 {
            self.min_ns = elapsed_ns;
            self.max_ns = elapsed_ns;
        } else {
            self.min_ns = self.min_ns.min(elapsed_ns);
            self.max_ns = self.max_ns.max(elapsed_ns);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(elapsed_ns);
    }

    /// Merge `other` into `self`, as if every span behind both had been
    /// recorded under one name: counts and totals add (saturating),
    /// `min_ns`/`max_ns` fold.
    pub fn merge(&mut self, other: &SpanStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count = self.count.saturating_add(other.count);
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }
}

/// Everything a recorder accumulated, keyed by metric name. `BTreeMap`s
/// keep export order deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time / high-water-mark gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Log-linear histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Timed phases.
    pub spans: BTreeMap<String, SpanStats>,
}

impl MetricsSnapshot {
    /// Counter value (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name, rebuilt from its snapshot.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms.get(name).map(Histogram::from_snapshot)
    }

    /// Events per second for a `(counter, span)` pair, if both exist and
    /// the span has nonzero total time — e.g. DES ticks/sec from
    /// [`crate::names::DES_EVENTS`] over [`crate::names::DES_RUN`].
    pub fn rate_per_sec(&self, counter: &str, span: &str) -> Option<f64> {
        let n = self.counters.get(counter).copied()?;
        let s = self.spans.get(span)?;
        if s.total_ns == 0 {
            return None;
        }
        Some(n as f64 / (s.total_ns as f64 / 1e9))
    }
}

#[derive(Default)]
struct MemoryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStats>,
}

/// A [`Recorder`] accumulating everything in memory behind a mutex, for
/// later export via [`MemoryRecorder::snapshot`].
#[derive(Default)]
pub struct MemoryRecorder {
    inner: Mutex<MemoryInner>,
}

impl MemoryRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    /// Shared handle plus the [`Telemetry`] facade over it, the usual
    /// way to instrument a run.
    pub fn handle() -> (Arc<MemoryRecorder>, Telemetry) {
        let rec = Arc::new(MemoryRecorder::new());
        let tel = Telemetry::new(rec.clone() as Arc<dyn Recorder>);
        (rec, tel)
    }

    /// Export everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("telemetry mutex poisoned");
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            spans: inner.spans.clone(),
        }
    }
}

impl Recorder for MemoryRecorder {
    fn counter(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("telemetry mutex poisoned");
        if let Some(c) = inner.counters.get_mut(name) {
            *c += delta;
        } else {
            inner.counters.insert(name.to_string(), delta);
        }
    }

    fn gauge(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("telemetry mutex poisoned");
        inner.gauges.insert(name.to_string(), value);
    }

    fn gauge_max(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("telemetry mutex poisoned");
        if let Some(g) = inner.gauges.get_mut(name) {
            *g = (*g).max(value);
        } else {
            inner.gauges.insert(name.to_string(), value);
        }
    }

    fn observe(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("telemetry mutex poisoned");
        if let Some(h) = inner.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            inner.histograms.insert(name.to_string(), h);
        }
    }

    fn span_ns(&self, name: &str, elapsed_ns: u64) {
        let mut inner = self.inner.lock().expect("telemetry mutex poisoned");
        if let Some(s) = inner.spans.get_mut(name) {
            s.record(elapsed_ns);
        } else {
            let mut s = SpanStats::default();
            s.record(elapsed_ns);
            inner.spans.insert(name.to_string(), s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        tel.counter("x", 1);
        tel.gauge("x", 1);
        tel.gauge_max("x", 1);
        tel.observe("x", 1);
        tel.span_ns("x", 1);
        drop(tel.span("x"));
        // Nothing to snapshot — there is no recorder at all.
    }

    #[test]
    fn memory_recorder_accumulates() {
        let (rec, tel) = MemoryRecorder::handle();
        tel.counter("a", 2);
        tel.counter("a", 3);
        tel.gauge("g", 7);
        tel.gauge_max("g", 4); // lower: keeps 7
        tel.gauge_max("g", 9);
        tel.observe("h", 10);
        tel.observe("h", 20);
        tel.span_ns("s", 100);
        tel.span_ns("s", 50);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.gauges["g"], 9);
        let h = snap.histogram("h").unwrap();
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (2, 30, 10, 20));
        let s = snap.spans["s"];
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (2, 150, 50, 100));
    }

    #[test]
    fn span_guard_records_on_drop() {
        let (rec, tel) = MemoryRecorder::handle();
        {
            let _g = tel.span("phase");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans["phase"].count, 1);
    }

    #[test]
    fn rate_per_sec_needs_both_metrics() {
        let (rec, tel) = MemoryRecorder::handle();
        tel.counter(names::DES_EVENTS, 1000);
        tel.span_ns(names::DES_RUN, 500_000_000);
        let snap = rec.snapshot();
        let rate = snap
            .rate_per_sec(names::DES_EVENTS, names::DES_RUN)
            .unwrap();
        assert!((rate - 2000.0).abs() < 1e-9);
        assert!(snap.rate_per_sec("missing", names::DES_RUN).is_none());
    }

    #[test]
    fn shared_across_threads() {
        let (rec, tel) = MemoryRecorder::handle();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let tel = tel.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        tel.counter("n", 1);
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().counter("n"), 400);
    }
}
