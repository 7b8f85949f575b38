//! Correctness of a worker's output: the simulated statistics a command
//! prints are pinned, so a change that alters them is a failed invocation
//! however fast it ran.

/// `(label, value)` pairs a command must print, e.g.
/// `("transmissions", "26862784")`.
pub type Pins = &'static [(&'static str, &'static str)];

/// Parse `label : value` lines. The label is the text before the first
/// colon, the value the text after it, both trimmed.
pub fn fields(stdout: &str) -> Vec<(&str, &str)> {
    stdout
        .lines()
        .filter_map(|line| line.split_once(':'))
        .map(|(label, value)| (label.trim(), value.trim()))
        .collect()
}

/// The value printed for `label`, if any.
pub fn field<'a>(stdout: &'a str, label: &str) -> Option<&'a str> {
    fields(stdout)
        .into_iter()
        .find(|(l, _)| *l == label)
        .map(|(_, v)| v)
}

/// Every pinned field that is missing or differs, as a readable message;
/// empty when the output is correct.
pub fn mismatches(stdout: &str, pins: Pins) -> Vec<String> {
    pins.iter()
        .filter_map(|(label, want)| match field(stdout, label) {
            Some(got) if got == *want => None,
            Some(got) => Some(format!("`{label}` is `{got}`, pinned `{want}`")),
            None => Some(format!("`{label}` missing, pinned `{want}`")),
        })
        .collect()
}

/// `report`'s summary must repeat `simulate`'s: every label both outputs
/// print among `labels` must carry the same value, and at least one must
/// be shared.
pub fn report_mismatches(simulate: &str, report: &str, labels: &[&str]) -> Vec<String> {
    let mut shared = 0;
    let mut out = Vec::new();
    for label in labels {
        if let (Some(a), Some(b)) = (field(simulate, label), field(report, label)) {
            shared += 1;
            if a != b {
                out.push(format!("report `{label}` is `{b}`, simulate printed `{a}`"));
            }
        }
    }
    if shared == 0 {
        out.push("report shares no summary line with simulate".to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUT: &str = "scheme      : multi-tree(d=3, prerecorded)\n\
                       engine      : mega\n\
                       slots run   : 287\n\
                       max delay   : 31 slots\n\
                       transmissions: 26862784\n\
                       #vmhwm_kib 1234\n";
    const PINS: Pins = &[
        ("slots run", "287"),
        ("max delay", "31 slots"),
        ("transmissions", "26862784"),
    ];

    #[test]
    fn parses_labels_and_values() {
        assert_eq!(field(OUT, "engine"), Some("mega"));
        assert_eq!(field(OUT, "transmissions"), Some("26862784"));
        assert_eq!(field(OUT, "des events"), None);
        assert_eq!(fields(OUT).len(), 5);
    }

    #[test]
    fn pinned_output_passes() {
        assert!(mismatches(OUT, PINS).is_empty());
    }

    #[test]
    fn changed_transmissions_or_delay_is_a_failure() {
        let fewer = OUT.replace("26862784", "26862783");
        let bad = mismatches(&fewer, PINS);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("transmissions"), "{bad:?}");

        let slower = OUT.replace("31 slots", "32 slots");
        assert!(mismatches(&slower, PINS)[0].contains("max delay"));

        let dropped = OUT.replace("slots run   : 287\n", "");
        assert!(mismatches(&dropped, PINS)[0].contains("missing"));
    }

    #[test]
    fn report_must_repeat_simulate() {
        let report = "receivers   : 100000\nslots run   : 287\nmax delay   : 31 slots\n";
        let labels = ["slots run", "max delay", "max peers"];
        assert!(report_mismatches(OUT, report, &labels).is_empty());
        let drifted = report.replace("287", "288");
        assert_eq!(report_mismatches(OUT, &drifted, &labels).len(), 1);
        assert_eq!(report_mismatches(OUT, "nothing here\n", &labels).len(), 1);
    }
}
