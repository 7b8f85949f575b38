//! JSONL export and import of a [`MetricsSnapshot`].
//!
//! One metric per line, self-describing via a `"kind"` field:
//!
//! ```text
//! {"kind":"counter","name":"engine.deliveries","value":96000}
//! {"kind":"gauge","name":"des.queue_depth_max","value":4096}
//! {"kind":"histogram","name":"engine.buffer_occupancy","count":…,"sum":…,"min":…,"max":…,"buckets":[[lo,hi,c],…]}
//! {"kind":"span","name":"engine.run","count":1,"total_ns":…,"min_ns":…,"max_ns":…}
//! ```
//!
//! Lines are emitted in kind order (counters, gauges, histograms, spans)
//! and name order within a kind, so exports of the same run are
//! byte-identical. Unknown kinds are skipped on import so newer files
//! stay readable by older readers.

use crate::histogram::HistogramSnapshot;
use crate::recorder::{MetricsSnapshot, SpanStats};
use serde::{DeError, Deserialize, Serialize, Value};

#[derive(Serialize, Deserialize)]
struct CounterLine {
    kind: String,
    name: String,
    value: u64,
}

#[derive(Serialize, Deserialize)]
struct GaugeLine {
    kind: String,
    name: String,
    value: u64,
}

#[derive(Serialize, Deserialize)]
struct HistogramLine {
    kind: String,
    name: String,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<(u64, u64, u64)>,
}

#[derive(Serialize, Deserialize)]
struct SpanLine {
    kind: String,
    name: String,
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// The shim's `Value` does not itself implement the serde traits; this
/// wrapper lets a line be parsed once and then dispatched on its `kind`.
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Raw(v.clone()))
    }
}

/// Render a snapshot as JSONL (one metric per line, trailing newline).
pub fn to_jsonl(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut push = |line: Result<String, serde_json::Error>| {
        out.push_str(&line.expect("metric line is serializable"));
        out.push('\n');
    };
    for (name, &value) in &snapshot.counters {
        push(serde_json::to_string(&CounterLine {
            kind: "counter".into(),
            name: name.clone(),
            value,
        }));
    }
    for (name, &value) in &snapshot.gauges {
        push(serde_json::to_string(&GaugeLine {
            kind: "gauge".into(),
            name: name.clone(),
            value,
        }));
    }
    for (name, h) in &snapshot.histograms {
        push(serde_json::to_string(&HistogramLine {
            kind: "histogram".into(),
            name: name.clone(),
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            buckets: h.buckets.clone(),
        }));
    }
    for (name, s) in &snapshot.spans {
        push(serde_json::to_string(&SpanLine {
            kind: "span".into(),
            name: name.clone(),
            count: s.count,
            total_ns: s.total_ns,
            min_ns: s.min_ns,
            max_ns: s.max_ns,
        }));
    }
    out
}

/// Parse a JSONL metrics file back into a snapshot.
///
/// Blank lines and lines with an unrecognized `kind` are skipped;
/// malformed JSON, a known kind with missing fields or a histogram whose
/// fields contradict each other is an error naming the offending line
/// number. A name may repeat (two exports concatenated): counters add,
/// histograms and spans merge — all saturating — and the last gauge
/// wins.
pub fn from_jsonl(text: &str) -> Result<MetricsSnapshot, String> {
    let mut snap = MetricsSnapshot::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = |e: &dyn std::fmt::Display| format!("line {}: {e}", lineno + 1);
        let raw: Raw = serde_json::from_str(line).map_err(|e| at(&e))?;
        let kind = match raw.0.field("kind").map_err(|e| at(&e))? {
            Value::Str(s) => s.clone(),
            _ => return Err(at(&"metric line has no string \"kind\" field")),
        };
        match kind.as_str() {
            "counter" => {
                let l = CounterLine::from_value(&raw.0).map_err(|e| at(&e))?;
                let c = snap.counters.entry(l.name).or_insert(0);
                *c = c.saturating_add(l.value);
            }
            "gauge" => {
                let l = GaugeLine::from_value(&raw.0).map_err(|e| at(&e))?;
                snap.gauges.insert(l.name, l.value);
            }
            "histogram" => {
                let l = HistogramLine::from_value(&raw.0).map_err(|e| at(&e))?;
                let h = HistogramSnapshot {
                    count: l.count,
                    sum: l.sum,
                    min: l.min,
                    max: l.max,
                    buckets: l.buckets,
                };
                h.check_coherent().map_err(|e| at(&e))?;
                // Duplicate lines (concatenated per-worker exports) merge
                // like counters do, keeping the exact min/max rather than
                // letting the last line win.
                snap.histograms.entry(l.name).or_default().merge(&h);
            }
            "span" => {
                let l = SpanLine::from_value(&raw.0).map_err(|e| at(&e))?;
                snap.spans.entry(l.name).or_default().merge(&SpanStats {
                    count: l.count,
                    total_ns: l.total_ns,
                    min_ns: l.min_ns,
                    max_ns: l.max_ns,
                });
            }
            _ => {} // forward compatibility: ignore unknown kinds
        }
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::MemoryRecorder;

    fn sample() -> MetricsSnapshot {
        let (rec, tel) = MemoryRecorder::handle();
        tel.counter("b.count", 3);
        tel.counter("a.count", 7);
        tel.gauge_max("q.depth", 12);
        tel.observe("h.delay", 1);
        tel.observe("h.delay", 40);
        tel.span_ns("run", 1_000);
        tel.span_ns("run", 3_000);
        rec.snapshot()
    }

    #[test]
    fn jsonl_round_trips() {
        let snap = sample();
        let text = to_jsonl(&snap);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn export_is_deterministic_and_sorted() {
        let text = to_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        // Counters first, name-sorted, then gauges, histograms, spans.
        assert!(lines[0].contains("\"a.count\""), "{}", lines[0]);
        assert!(lines[1].contains("\"b.count\""), "{}", lines[1]);
        assert!(lines[2].contains("\"gauge\""), "{}", lines[2]);
        assert!(lines[3].contains("\"histogram\""), "{}", lines[3]);
        assert!(lines[4].contains("\"span\""), "{}", lines[4]);
        assert_eq!(text, to_jsonl(&sample()));
    }

    #[test]
    fn unknown_kinds_and_blank_lines_skipped() {
        let text = "\n{\"kind\":\"frobnicator\",\"name\":\"x\"}\n{\"kind\":\"counter\",\"name\":\"c\",\"value\":2}\n";
        let snap = from_jsonl(text).unwrap();
        assert_eq!(snap.counter("c"), 2);
        assert_eq!(snap.counters.len(), 1);
    }

    #[test]
    fn malformed_line_is_an_error_with_line_number() {
        let err = from_jsonl("{\"kind\":\"counter\"\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err =
            from_jsonl("{\"kind\":\"counter\",\"name\":\"c\",\"value\":2}\nnope\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn repeated_counter_lines_accumulate() {
        // Sweep workers may export per-worker files that get concatenated.
        let text = "{\"kind\":\"counter\",\"name\":\"c\",\"value\":2}\n{\"kind\":\"counter\",\"name\":\"c\",\"value\":3}\n";
        assert_eq!(from_jsonl(text).unwrap().counter("c"), 5);
    }

    #[test]
    fn repeated_histogram_lines_merge_and_keep_exact_max() {
        // Two workers observed the same histogram; worker A saw the true
        // maximum 33 — one past the [32, 36) octave boundary, so bucket
        // edges cannot reconstruct it. The import used to keep only the
        // last line, silently dropping A's data and its exact max.
        let (rec_a, tel_a) = MemoryRecorder::handle();
        tel_a.observe("h.delay", 33);
        tel_a.observe("h.delay", 4);
        let (rec_b, tel_b) = MemoryRecorder::handle();
        tel_b.observe("h.delay", 9);
        let text = format!(
            "{}{}",
            to_jsonl(&rec_a.snapshot()),
            to_jsonl(&rec_b.snapshot())
        );
        let merged = from_jsonl(&text).unwrap();
        let h = &merged.histograms["h.delay"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 46);
        assert_eq!(h.min, 4);
        assert_eq!(h.max, 33, "exact max, not the bucket edge 35 or B's 9");
        assert_eq!(h.buckets, vec![(4, 5, 1), (9, 10, 1), (32, 36, 1)]);
    }

    #[test]
    fn repeated_lines_saturate_instead_of_overflowing() {
        // `value: u64::MAX` then `5` used to panic in a debug build and
        // wrap to 4 in a release one.
        let counter = |v: u64| format!("{{\"kind\":\"counter\",\"name\":\"c\",\"value\":{v}}}\n");
        let text = format!("{}{}", counter(u64::MAX), counter(5));
        assert_eq!(from_jsonl(&text).unwrap().counter("c"), u64::MAX);

        let hist = |count: u64| {
            format!(
                "{{\"kind\":\"histogram\",\"name\":\"h\",\"count\":{count},\"sum\":{count},\
                 \"min\":1,\"max\":1,\"buckets\":[[1,2,{count}]]}}\n"
            )
        };
        let text = format!("{}{}", hist(u64::MAX), hist(5));
        let snap = from_jsonl(&text).unwrap();
        let h = &snap.histograms["h"];
        assert_eq!((h.count, h.sum), (u64::MAX, u64::MAX));
        assert_eq!(h.buckets, vec![(1, 2, u64::MAX)]);
        // And the rebuilt histogram answers queries without overflowing.
        assert_eq!(snap.histogram("h").unwrap().quantile(0.5), 1);

        let span = |n: u64| {
            format!(
                "{{\"kind\":\"span\",\"name\":\"s\",\"count\":{n},\"total_ns\":{n},\
                 \"min_ns\":1,\"max_ns\":1}}\n"
            )
        };
        let text = format!("{}{}", span(u64::MAX), span(5));
        let s = from_jsonl(&text).unwrap().spans["s"];
        assert_eq!((s.count, s.total_ns), (u64::MAX, u64::MAX));
    }

    #[test]
    fn repeated_span_lines_merge() {
        // Two exports of one 1-count span each used to report `1 ×`: the
        // last line overwrote the first while counters added up.
        let (rec_a, tel_a) = MemoryRecorder::handle();
        tel_a.span_ns("run", 700);
        let (rec_b, tel_b) = MemoryRecorder::handle();
        tel_b.span_ns("run", 200);
        tel_b.span_ns("run", 900);
        let text = format!(
            "{}{}",
            to_jsonl(&rec_a.snapshot()),
            to_jsonl(&rec_b.snapshot())
        );
        let s = from_jsonl(&text).unwrap().spans["run"];
        assert_eq!(
            (s.count, s.total_ns, s.min_ns, s.max_ns),
            (3, 1_800, 200, 900)
        );
    }

    #[test]
    fn incoherent_histogram_lines_are_rejected_with_their_line_number() {
        let line = |min: u64, max: u64, count: u64, buckets: &str| {
            format!(
                "{{\"kind\":\"histogram\",\"name\":\"h\",\"count\":{count},\"sum\":9,\
                 \"min\":{min},\"max\":{max},\"buckets\":{buckets}}}\n"
            )
        };
        let good = line(2, 5, 3, "[[2,3,1],[5,6,2]]");
        assert!(from_jsonl(&good).is_ok());
        for (bad, why) in [
            (line(6, 5, 3, "[[2,3,1],[5,6,2]]"), "min 6 > max 5"),
            (line(2, 5, 3, "[[3,3,1],[5,6,2]]"), "bucket [3, 3) is empty"),
            (line(2, 5, 3, "[[4,3,1],[5,6,2]]"), "bucket [4, 3) is empty"),
            // `receivers : 2` above a distribution of 7.
            (
                line(2, 5, 2, "[[2,3,4],[5,6,3]]"),
                "sum to 7, not to count 2",
            ),
            (
                line(2, 5, 3, "[[2,3,18446744073709551615],[5,6,4]]"),
                "sum to more than u64::MAX",
            ),
        ] {
            let err = from_jsonl(&format!("{good}{bad}")).unwrap_err();
            assert!(err.starts_with("line 2: "), "{err}");
            assert!(err.contains(why), "{err} (wanted {why:?})");
        }
    }
}
