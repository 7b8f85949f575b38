//! Byte-for-byte golden outputs of the CLI.
//!
//! `tests/cli_golden/cases.txt` lists command lines; the stdout each
//! printed at commit 1812eb7 — before `simulate` was rebuilt on
//! `RunPlan` — is committed next to it (the block of exact slot /
//! transmission / event counts of the engine, DES and scaling workloads
//! at 943288e; the comments in cases.txt date the later blocks). Every
//! refactor of the parse → validate → run → render path must leave each
//! of them unchanged.
//!
//! `tests/cli_golden/errors.txt` is the second table: command lines that
//! must fail, each with the exact `Display` of its `CliError`.

use std::path::Path;

#[test]
fn every_recorded_command_prints_what_it_printed_before_runplan() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/cli_golden");
    let cases = std::fs::read_to_string(dir.join("cases.txt")).unwrap();
    let mut checked = 0;
    for line in cases.lines().filter(|l| !l.starts_with('#')) {
        let mut words = line.split_whitespace().map(str::to_string);
        let name = words.next().expect("a case has a name");
        let argv: Vec<String> = words.collect();
        let want = std::fs::read_to_string(dir.join(format!("{name}.txt")))
            .unwrap_or_else(|e| panic!("{name}: no recorded output: {e}"));
        let got = clustream_cli::run(&argv).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(got, want, "{name}: `clustream {}`", argv.join(" "));
        checked += 1;
    }
    assert_eq!(checked, 55, "cases.txt lost or gained a line");
}

#[test]
fn every_recorded_error_is_reported_in_the_same_words() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/cli_golden");
    let table = std::fs::read_to_string(dir.join("errors.txt")).unwrap();
    let mut checked = 0;
    for line in table.lines().filter(|l| !l.starts_with('#')) {
        let [name, argv, want] = line.split('\t').collect::<Vec<_>>()[..] else {
            panic!("an error case is NAME, argv and message between tabs: `{line}`");
        };
        let argv: Vec<String> = argv.split_whitespace().map(str::to_string).collect();
        let got = match clustream_cli::run(&argv) {
            Ok(out) => panic!("{name}: `clustream {}` succeeded:\n{out}", argv.join(" ")),
            Err(e) => e.to_string(),
        };
        assert_eq!(got, want, "{name}: `clustream {}`", argv.join(" "));
        checked += 1;
    }
    assert_eq!(checked, 153, "errors.txt lost or gained a line");
}
