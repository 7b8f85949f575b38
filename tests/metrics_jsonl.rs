//! Totality of the metrics import boundary: `telemetry::from_jsonl`
//! reads files (`clustream report FILE`), so whatever the bytes it
//! returns a snapshot or an error naming a line — it never panics — and
//! what `to_jsonl` wrote it reads back exactly. The last tests close the
//! loop through the CLI: `simulate --metrics-out` writes the file and
//! `report` reads it back into the run's own summary lines.

use clustream::telemetry::{from_jsonl, names as tm, to_jsonl, MemoryRecorder, MetricsSnapshot};
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

fn cli(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    clustream_cli::run(&argv).unwrap_or_else(|e| panic!("`clustream {}`: {e}", args.join(" ")))
}

/// A per-process file under the temp dir, for one test's metrics.
fn metrics_path(tag: &str) -> String {
    let name = format!("clustream-{tag}-{}.jsonl", std::process::id());
    std::env::temp_dir()
        .join(name)
        .to_str()
        .unwrap()
        .to_string()
}

#[test]
fn metrics_out_writes_file_and_report_reproduces_the_summary() {
    let path = metrics_path("metrics-roundtrip");
    let sim = cli(&[
        "simulate",
        "--scheme",
        "chain",
        "--n",
        "5",
        "--metrics-out",
        &path,
    ]);
    assert!(sim.contains(&format!("metrics     : {path}")), "{sim}");
    let rep = cli(&["report", &path]);
    // The report of the run's metrics file reproduces the run's own
    // delay/buffer summary lines, verbatim.
    for label in ["max delay", "avg delay", "max buffer"] {
        let line = sim
            .lines()
            .find(|l| l.starts_with(label))
            .unwrap_or_else(|| panic!("simulate lacks `{label}`: {sim}"));
        assert!(rep.contains(line), "report lacks `{line}`:\n{rep}");
    }
    // The metrics file does not perturb the run itself.
    let plain = cli(&["simulate", "--scheme", "chain", "--n", "5"]);
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.starts_with("metrics"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&sim), strip(&plain));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn report_pins_hand_computed_summary() {
    let (rec, tel) = MemoryRecorder::handle();
    // A hand-built run: 5 receivers with delays 1..=5 slots, buffer
    // occupancies peaking at 2, 9 slots, 25 transmissions.
    for d in 1..=5u64 {
        tel.observe(tm::ENGINE_PLAYBACK_DELAY, d);
    }
    for b in [1u64, 2, 2, 1, 1] {
        tel.observe(tm::ENGINE_BUFFER_OCCUPANCY, b);
    }
    tel.counter(tm::ENGINE_SLOTS, 9);
    tel.counter(tm::ENGINE_TRANSMISSIONS, 25);
    tel.counter(tm::ENGINE_DELIVERIES, 25);
    let path = metrics_path("report-pinned");
    std::fs::write(&path, to_jsonl(&rec.snapshot())).unwrap();
    let rep = cli(&["report", &path]);
    for line in [
        "receivers   : 5",
        "slots run   : 9",
        "max delay   : 5 slots",
        "avg delay   : 3.00 slots",
        "delay p50/90: 3 / 5 slots",
        "max buffer  : 2 packets",
        "avg buffer  : 1.40 packets",
        "transmissions: 25",
        "deliveries  : 25",
    ] {
        assert!(rep.contains(line), "missing `{line}` in:\n{rep}");
    }
    // The delay distribution table lists the five unit buckets.
    for row in ["[     1,      2)  1", "[     5,      6)  1"] {
        assert!(rep.contains(row), "missing `{row}` in:\n{rep}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn metrics_out_covers_des_and_recovery_series() {
    let path = metrics_path("metrics-des");
    let run = "simulate --scheme multitree --n 30 --d 3 --track 32 --runtime des \
               --recovery repair+nack --churn-leave 0.002 --churn-slots 160 --churn-seed 7";
    let mut argv: Vec<&str> = run.split_whitespace().collect();
    argv.extend(["--metrics-out", &path]);
    cli(&argv);
    let rep = cli(&["report", &path]);
    for part in ["des events", "playback_tick", "recovery:", "control msgs"] {
        assert!(rep.contains(part), "missing `{part}` in:\n{rep}");
    }
    let _ = std::fs::remove_file(&path);
}
