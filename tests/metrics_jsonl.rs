//! Totality of the metrics import boundary: `telemetry::from_jsonl`
//! reads files (`clustream report FILE`), so whatever the bytes it
//! returns a snapshot or an error naming a line — it never panics — and
//! what `to_jsonl` wrote it reads back exactly.

use clustream::telemetry::{from_jsonl, to_jsonl, MemoryRecorder, MetricsSnapshot};
use proptest::prelude::*;

/// A snapshot as a recorder would hold it: a few series of every kind
/// under names that need escaping, values from all over the `u64` range.
fn snapshot_from(ops: &[(u8, u8, u64)]) -> MetricsSnapshot {
    const NAMES: [&str; 5] = ["engine.run", "a\"b\\c", "tab\there", "ünï.cødé", ""];
    let (rec, tel) = MemoryRecorder::handle();
    for &(kind, name, value) in ops {
        let name = NAMES[name as usize % NAMES.len()];
        // Shift by a value-dependent amount: magnitudes from the exact
        // unit buckets up to the top octave.
        let value = value >> (value % 64);
        match kind % 5 {
            // Counters are monotone sums; keep one run's total in range.
            0 => tel.counter(name, value >> 8),
            1 => tel.gauge(name, value),
            2 => tel.gauge_max(name, value),
            3 => tel.observe(name, value),
            _ => tel.span_ns(name, value),
        }
    }
    rec.snapshot()
}

/// `Err` must say which line; `Ok` is fine whatever it holds.
fn assert_total(text: &str) -> Result<(), TestCaseError> {
    if let Err(e) = from_jsonl(text) {
        let n = e
            .strip_prefix("line ")
            .and_then(|rest| rest.split_once(": "))
            .and_then(|(n, _)| n.parse::<usize>().ok());
        prop_assert!(
            n.is_some_and(|n| (1..=text.lines().count()).contains(&n)),
            "error names no line of the input: {e}"
        );
    }
    Ok(())
}

/// The pieces a metrics line is made of, for inputs that get past the
/// first byte more often than raw noise does.
const TOKENS: [&str; 28] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\n",
    " ",
    "\"kind\"",
    "\"name\"",
    "\"value\"",
    "\"count\"",
    "\"sum\"",
    "\"min\"",
    "\"max\"",
    "\"buckets\"",
    "\"counter\"",
    "\"gauge\"",
    "\"histogram\"",
    "\"span\"",
    "\"x\"",
    "0",
    "7",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1e400",
    "\"\\u12",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        assert_total(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(0usize..28, 0..40)) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        assert_total(&text)?;
    }

    #[test]
    fn exports_round_trip(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..40),
    ) {
        let snap = snapshot_from(&ops);
        let text = to_jsonl(&snap);
        prop_assert_eq!(from_jsonl(&text), Ok(snap));
    }

    #[test]
    fn truncated_exports_never_panic(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 1..40),
        cut in any::<usize>(),
    ) {
        let text = to_jsonl(&snapshot_from(&ops));
        // Any prefix, at a character boundary (the names are not ASCII).
        let mut cut = cut % (text.len() + 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        assert_total(&text[..cut])?;
    }

    #[test]
    fn one_field_at_an_extreme_never_panics(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 1..40),
        which in any::<usize>(),
        extreme in 0usize..6,
        twice in any::<bool>(),
    ) {
        const EXTREMES: [&str; 6] =
            ["18446744073709551615", "0", "18446744073709551616", "-1", "1e400", "null"];
        let text = to_jsonl(&snapshot_from(&ops));
        // Numeric fields start after a `:` or inside the bucket arrays.
        let starts: Vec<usize> = text
            .char_indices()
            .filter(|&(i, c)| {
                c.is_ascii_digit()
                    && i > 0
                    && matches!(text.as_bytes()[i - 1], b':' | b'[' | b',')
            })
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!starts.is_empty());
        let at = starts[which % starts.len()];
        let len = text[at..].bytes().take_while(u8::is_ascii_digit).count();
        let mutated = format!("{}{}{}", &text[..at], EXTREMES[extreme], &text[at + len..]);
        // Alone, and concatenated with itself (the documented input that
        // makes every series add or merge with an extreme).
        assert_total(&mutated)?;
        if twice {
            assert_total(&format!("{mutated}{mutated}"))?;
        }
    }
}

/// A file of a million `[` is an error on its line, not a stack overflow.
#[test]
fn runaway_nesting_is_an_error() {
    let text = format!("\n{}\n", "[".repeat(1_000_000));
    let err = from_jsonl(&text).unwrap_err();
    assert!(err.starts_with("line 2: "), "{}", &err[..err.len().min(80)]);
}
