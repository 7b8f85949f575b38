//! Totality of the trace import boundary: `EventTrace::from_jsonl` reads
//! exported files, so whatever the bytes it returns a trace or an error
//! naming a line — it never panics. A valid export cut between two lines
//! reads back as its first lines; cut inside one, it names that line.

use clustream::sim::trace::{EventTrace, TraceEvent};
use proptest::prelude::*;

/// `((slot, from), (to, packet, latency))` per event.
type Fields = ((u64, u32), (u32, u64, u32));

fn trace_from(events: &[Fields]) -> EventTrace {
    EventTrace {
        events: events
            .iter()
            .map(|&((slot, from), (to, packet, latency))| TraceEvent {
                slot,
                from,
                to,
                packet,
                latency,
            })
            .collect(),
    }
}

fn events() -> impl Strategy<Value = Vec<Fields>> {
    let head = (any::<u64>(), any::<u32>());
    let tail = (any::<u32>(), any::<u64>(), any::<u32>());
    proptest::collection::vec((head, tail), 0..24)
}

/// The 1-based line a `from_jsonl` error names, if it names one.
fn named_line(err: &str) -> Option<usize> {
    err.strip_prefix("line ")
        .and_then(|rest| rest.split_once(": "))
        .and_then(|(n, _)| n.parse().ok())
}

/// `Err` must name a line of the input; `Ok` is fine whatever it holds.
fn assert_total(text: &str) -> Result<(), TestCaseError> {
    if let Err(e) = EventTrace::from_jsonl(text) {
        prop_assert!(
            named_line(&e).is_some_and(|n| (1..=text.lines().count()).contains(&n)),
            "error names no line of the input: {e}"
        );
    }
    Ok(())
}

/// The pieces a trace line is made of.
const TOKENS: [&str; 20] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\n",
    " ",
    "\"slot\"",
    "\"from\"",
    "\"to\"",
    "\"packet\"",
    "\"latency\"",
    "0",
    "7",
    "4294967296",
    "18446744073709551616",
    "-1",
    "1e400",
    "null",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        assert_total(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(0usize..20, 0..40)) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        assert_total(&text)?;
    }

    #[test]
    fn exports_round_trip(evs in events()) {
        let t = trace_from(&evs);
        prop_assert_eq!(EventTrace::from_jsonl(&t.to_jsonl()), Ok(t));
    }

    #[test]
    fn a_cut_export_is_a_prefix_or_names_the_cut_line(evs in events(), cut in any::<usize>()) {
        let t = trace_from(&evs);
        let text = t.to_jsonl();
        let cut = cut % (text.len() + 1);
        let (head, bytes) = (&text[..cut], text.as_bytes());
        let complete = head.lines().count();
        let at_boundary = cut == 0
            || cut == text.len()
            || bytes[cut] == b'\n'
            || bytes[cut - 1] == b'\n';
        match EventTrace::from_jsonl(head) {
            Ok(got) => {
                prop_assert!(at_boundary, "a line cut at byte {cut} parsed");
                prop_assert_eq!(&got.events[..], &t.events[..complete]);
            }
            Err(e) => {
                prop_assert!(!at_boundary, "a cut between lines failed: {e}");
                prop_assert_eq!(named_line(&e), Some(complete));
            }
        }
    }
}

/// Each field past its type's range, and nesting past the JSON reader's
/// 128-level cap, is an error on its own line — after valid lines, not
/// instead of reading them.
#[test]
fn out_of_range_fields_and_deep_nesting_are_errors() {
    let ok = r#"{"slot":3,"from":0,"to":1,"packet":3,"latency":1}"#;
    let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    for bad in [
        r#"{"slot":3,"from":0,"to":1,"packet":3,"latency":4294967296}"#.to_string(),
        r#"{"slot":3,"from":0,"to":4294967296,"packet":3,"latency":1}"#.to_string(),
        r#"{"slot":18446744073709551616,"from":0,"to":1,"packet":3,"latency":1}"#.to_string(),
        r#"{"slot":-1,"from":0,"to":1,"packet":3,"latency":1}"#.to_string(),
        r#"{"slot":3,"from":0,"to":1,"packet":1e400,"latency":1}"#.to_string(),
        format!(
            r#"{{"slot":3,"from":0,"to":1,"packet":3,"latency":{}}}"#,
            deep(129)
        ),
        deep(129),
        deep(128),
    ] {
        let text = format!("{ok}\n\n{bad}\n{ok}");
        let err = EventTrace::from_jsonl(&text).unwrap_err();
        assert_eq!(named_line(&err), Some(3), "{bad}: {err}");
    }
    // The cap, not the shape, is what stops the 129-deep line.
    let depth_err = |n| EventTrace::from_jsonl(&deep(n)).unwrap_err();
    assert!(
        depth_err(129).contains("nesting deeper than 128"),
        "{}",
        depth_err(129)
    );
    assert!(!depth_err(128).contains("nesting"), "{}", depth_err(128));
    let at_max =
        r#"{"slot":18446744073709551615,"from":4294967295,"to":0,"packet":0,"latency":4294967295}"#;
    let t = EventTrace::from_jsonl(at_max).unwrap();
    assert_eq!(
        (t.events[0].slot, t.events[0].latency),
        (u64::MAX, u32::MAX)
    );
}

/// A file of a million `[` is an error on its line, not a stack overflow.
#[test]
fn runaway_nesting_is_an_error() {
    let text = format!("\n{}\n", "[".repeat(1_000_000));
    let err = EventTrace::from_jsonl(&text).unwrap_err();
    assert!(err.starts_with("line 2: "), "{}", &err[..err.len().min(80)]);
}
