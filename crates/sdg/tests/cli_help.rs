//! Pins the house `--help` contract for feral-sdg: the binary answers
//! `--help` on stdout with help text in the shared format, ending with
//! the standard-flags block every tool carries, and exits 0.

use std::process::Command;

#[test]
fn help_ends_with_the_standard_flags_block() {
    let out = Command::new(env!("CARGO_BIN_EXE_feral-sdg"))
        .arg("--help")
        .output()
        .expect("run feral-sdg --help");
    assert!(out.status.success(), "--help must exit 0");
    let text = String::from_utf8(out.stdout).expect("utf-8 help text");
    assert!(
        text.starts_with("feral-sdg \u{2014} "),
        "help opens with `feral-sdg \u{2014} <about>`: {text:?}"
    );
    assert!(text.contains("\nUsage:\n"));
    assert!(
        text.ends_with(feral_cli::STANDARD_FLAGS),
        "help must close with the shared standard-flags block verbatim"
    );
}

/// A flag the tool does not read is refused, naming it: `--seeds` went
/// with the random witness search, and must not be accepted silently.
#[test]
fn a_retired_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_feral-sdg"))
        .args(["matrix", "--seeds", "5"])
        .output()
        .expect("run feral-sdg matrix --seeds 5");
    assert_eq!(out.status.code(), Some(feral_cli::EXIT_USAGE.into()));
    assert!(out.stdout.is_empty(), "the matrix must not run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown flag `--seeds`"),
        "names the flag: {err}"
    );
}
