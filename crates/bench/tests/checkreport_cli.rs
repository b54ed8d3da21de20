//! Pins `feral-paper check`'s flag handling: a flag it does not know is a
//! usage error (exit 2, `feral_cli::EXIT_USAGE`, usage on stderr), never
//! silently ignored — a stale `check --load x.json` or `check --audit
//! x.json` must not gate `x.json` as a table1 report. The fixture is the
//! checked-in table1 golden, which passes the default gate, so only the
//! flag can fail these runs.

use std::process::{Command, Output};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/BENCH_table1.golden.json"
);

fn checkreport(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_feral-paper"))
        .arg("check")
        .args(args)
        .output()
        .expect("run feral-paper check")
}

fn assert_usage_error(out: &Output, flag: &str) {
    assert_eq!(
        out.status.code(),
        Some(feral_cli::EXIT_USAGE.into()),
        "{flag} must exit with the usage code"
    );
    assert!(out.stdout.is_empty(), "{flag} must not report a verdict");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("unknown flag `{flag}`")),
        "names the flag: {err}"
    );
    assert!(
        err.contains("usage: feral-paper check"),
        "prints usage: {err}"
    );
}

#[test]
fn the_fixture_passes_the_default_gate() {
    let out = checkreport(&[GOLDEN]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    assert_usage_error(&checkreport(&["--bogus", GOLDEN]), "--bogus");
}

#[test]
fn the_retired_load_mode_is_a_usage_error() {
    for flag in ["--load", "--audit"] {
        assert_usage_error(&checkreport(&[flag, GOLDEN]), flag);
    }
}

#[test]
fn a_missing_file_is_a_gate_failure() {
    let out = checkreport(&["/nonexistent/BENCH_table1.json"]);
    assert_eq!(out.status.code(), Some(feral_cli::EXIT_DEVIATION.into()));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("reading /nonexistent/BENCH_table1.json"),
        "{err}"
    );
}
