//! An unwritable `--out` is a reported error (exit 1, one line), not a
//! panic: both JSON-emitting binaries used to run to the end and then
//! exit 101 with a backtrace from the report writer.

use std::process::Command;

#[test]
fn an_unwritable_out_path_exits_1_with_one_line() {
    let out = "/nonexistent-dir/x.json";
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_ext_flash_crowd"),
            &["--n0", "20", "--d", "3", "--joins", "10"][..],
        ),
        (
            env!("CARGO_BIN_EXE_ext_heterogeneity"),
            &["--n", "20", "--d", "3", "--classes", "fiber"][..],
        ),
    ] {
        let run = Command::new(bin)
            .args(args)
            .args(["--out", out])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{bin}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{bin}: {stderr}");
        assert!(
            stderr.starts_with(&format!("cannot write --out `{out}`: ")),
            "{bin}: {stderr}"
        );
    }
}
