//! Golden stdout: every catalog item must render, byte for byte, its
//! `tests/golden/<id>.txt`, and the whole catalog's verdicts must pass.
//! Twenty files are what the per-figure binaries printed before the
//! catalog replaced them (release builds at 16e974a); `scale_sweep`,
//! `ext_jitter_sweep` and `ext_recovery_tiers` were recorded at 943288e;
//! `ext_flash_crowd` and `ext_heterogeneity` are the stdout of the side
//! binaries they replaced, less their wall times and JSON notices.
//!
//! In a debug build every mega run inside is also cross-checked
//! against the reference engine (`simulate_mega`), so this is the
//! slowest test of the crate.

use clustream_bench::catalog::{catalog, summarize};
use std::path::Path;

fn golden(id: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{id}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("no golden file for `{id}`: {e}"))
}

#[test]
fn deterministic_items_render_the_golden_stdout_and_every_verdict_passes() {
    let items = catalog();
    assert_eq!(items.len(), 25);
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
