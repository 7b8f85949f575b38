//! Doc pin: every runnable name README.md, EXPERIMENTS.md and DESIGN.md
//! cite must exist — a `--bin <name>` must be a binary of this
//! workspace, an `experiments <id>` must be a catalog id, and a bare
//! target in DESIGN.md §5's "Regeneration target" column must be one or
//! the other. (DESIGN.md §5 once named four targets that never existed.)

use clustream_bench::catalog::catalog;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(name: &str) -> String {
    std::fs::read_to_string(root().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Binary targets of the workspace: every `crates/*/src/bin/*.rs` stem
/// plus the one explicitly-pathed binary, the `clustream` CLI.
fn binaries() -> Vec<String> {
    let mut bins = vec!["clustream".to_string()];
    for krate in std::fs::read_dir(root().join("crates")).unwrap() {
        let Ok(dir) = std::fs::read_dir(krate.unwrap().path().join("src/bin")) else {
            continue;
        };
        bins.extend(dir.map(|f| {
            f.unwrap()
                .path()
                .file_stem()
                .unwrap()
                .to_string_lossy()
                .into()
        }));
    }
    bins
}

/// The leading `[a-z0-9_-]+` of `s`.
fn name(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-'))
        .unwrap_or(s.len());
    &s[..end]
}

/// The names following each occurrence of `marker` in `text`; with
/// `many`, every further space-separated name on the same line, up to
/// the first word that is not purely a name (a closing backtick, a `#`).
fn cited<'a>(text: &'a str, marker: &str, many: bool) -> Vec<&'a str> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices(marker) {
        let line = text[at + marker.len()..].lines().next().unwrap_or("");
        for word in line.split(' ') {
            if !name(word).is_empty() {
                out.push(name(word));
            }
            if name(word) != word || !many {
                break;
            }
        }
    }
    out
}

#[test]
fn every_cited_binary_and_experiment_id_exists() {
    let bins = binaries();
    let items = catalog();
    let is_id = |n: &str| items.iter().any(|i| i.id == n);
    let mut dead = Vec::new();
    let mut checked = 0;
    for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
        let text = read(doc);
        for bin in cited(&text, "--bin ", false) {
            checked += 1;
            if !bins.iter().any(|b| b == bin) {
                dead.push(format!("{doc}: `--bin {bin}` is not a binary"));
            }
        }
        let by_id = [
            cited(&text, "--bin experiments -- ", true),
            cited(&text, "`experiments ", true),
        ];
        for id in by_id.concat() {
            checked += 1;
            if !is_id(id) {
                dead.push(format!("{doc}: `experiments {id}` is not a catalog id"));
            }
        }
    }

    // DESIGN.md §5: the last cell of each table row; its backticked
    // single-word spans are the bare regeneration targets.
    let design = read("DESIGN.md");
    let section = design
        .split("\n## 5. ")
        .nth(1)
        .and_then(|rest| rest.split("\n## 6. ").next())
        .expect("DESIGN.md lost §5");
    for row in section.lines().filter(|l| l.starts_with("| ")) {
        let target = row.trim_end_matches('|').rsplit('|').next().unwrap();
        for span in target.split('`').skip(1).step_by(2) {
            if name(span) == span {
                checked += 1;
                if !is_id(span) && !bins.iter().any(|b| b == span) {
                    dead.push(format!("DESIGN.md §5: target `{span}` does not exist"));
                }
            }
        }
    }
    assert!(
        dead.is_empty(),
        "dead names in the docs:\n{}",
        dead.join("\n")
    );
    assert!(
        checked > 60,
        "the scan went blind: only {checked} names seen"
    );
}
