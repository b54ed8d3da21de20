//! Pins the house `--help` contract for feral-sdg: the binary answers
//! `--help` on stdout with help text in the shared format, closing with
//! a standard-flags block, and exits 0; and every flag the help lists is
//! one the parser accepts.

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
    assert!(text.contains("\nStandard flags:\n"));
    assert!(text.ends_with("  --help            this text\n"));
}

fn help_text() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_feral-sdg"))
        .arg("--help")
        .output()
        .expect("run feral-sdg --help");
    String::from_utf8(out.stdout).expect("utf-8 help text")
}

/// Every `--flag` the help text names, `--help` aside.
fn flags_in(text: &str) -> Vec<String> {
    let mut flags: Vec<String> = text
        .split("--")
        .skip(1)
        .map(|rest| {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            format!("--{name}")
        })
        .filter(|f| f != "--" && f != "--help")
        .collect();
    flags.sort();
    flags.dedup();
    flags
}

/// Every flag the help lists gets past the parser: followed by a flag
/// no tool reads, the run is refused naming that one, not the listed
/// flag.
#[test]
fn every_flag_the_help_lists_is_accepted() {
    let flags = flags_in(&help_text());
    assert!(!flags.is_empty());
    for flag in flags {
        let out = Command::new(env!("CARGO_BIN_EXE_feral-sdg"))
            .args(["matrix", &flag, "--no-such-flag"])
            .output()
            .expect("run feral-sdg");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(feral_cli::EXIT_USAGE.into()));
        assert!(
            err.contains("unknown flag `--no-such-flag`"),
            "the help lists {flag}, which the parser refuses: {err}"
        );
    }
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

/// `templates` reads no flag, and the help offers it no `--smoke`: a
/// standard flag the tool does not read is neither listed nor accepted.
#[test]
fn a_standard_flag_the_tool_does_not_read_is_neither_listed_nor_accepted() {
    assert!(!help_text().contains("--smoke"));
    let out = Command::new(env!("CARGO_BIN_EXE_feral-sdg"))
        .args(["templates", "--smoke"])
        .output()
        .expect("run feral-sdg templates --smoke");
    assert_eq!(out.status.code(), Some(feral_cli::EXIT_USAGE.into()));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--smoke`"));
}
