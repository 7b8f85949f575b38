//! Golden stdout: every catalog item must render, byte for byte, what
//! its per-figure binary printed before the catalog replaced the 22
//! binaries (`tests/golden/<id>.txt`, captured from their release
//! builds at 16e974a), and the whole catalog's verdicts must pass.
//!
//! In a debug build every fast-engine run inside is also cross-checked
//! against the reference engine (`simulate_fast`), so this is the
//! slowest test of the crate.

use clustream_bench::catalog::{catalog, summarize};
use std::path::Path;

fn golden(id: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{id}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("no golden file for `{id}`: {e}"))
}

#[test]
fn deterministic_items_render_the_golden_stdout_and_every_verdict_passes() {
    let mut items = catalog();
    items.retain(|i| i.id != "scale_sweep");
    assert_eq!(items.len(), 20);
    let reports: Vec<_> = items.iter().map(|i| (i.id, (i.run)())).collect();
    for (id, report) in &reports {
        assert_eq!(
            report.text,
            golden(id),
            "`{id}` drifted from its golden stdout"
        );
    }
    let (text, failed) = summarize(&reports);
    assert!(failed.is_empty(), "untouched catalog must pass:\n{text}");
}

/// The one item that prints wall times: its golden file is the
/// closed-form table, and the deterministic parts of the timed lines
/// are pinned by hand.
#[test]
fn scale_sweep_pins_its_deterministic_parts_and_passes() {
    let items = catalog();
    let item = items.iter().find(|i| i.id == "scale_sweep").unwrap();
    let report = (item.run)();
    assert!(report.text.starts_with(&golden(item.id)), "{}", report.text);
    for pin in [
        "max delay 31 (bound 33)",
        "1133989 transmissions",
        "2133619 transmissions",
    ] {
        assert!(report.text.contains(pin), "lost `{pin}`:\n{}", report.text);
    }
    let (text, failed) = summarize(&[(item.id, report)]);
    assert!(failed.is_empty(), "{text}");
}
