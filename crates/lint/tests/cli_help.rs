//! Pins the house `--help` contract for feral-lint: the binary answers
//! `--help` on stdout with help text in the shared format, closing with
//! a standard-flags block, and exits 0; and every flag the help lists is
//! one the parser accepts.

use std::process::Command;

#[test]
fn help_ends_with_the_standard_flags_block() {
    let out = Command::new(env!("CARGO_BIN_EXE_feral-lint"))
        .arg("--help")
        .output()
        .expect("run feral-lint --help");
    assert!(out.status.success(), "--help must exit 0");
    let text = String::from_utf8(out.stdout).expect("utf-8 help text");
    assert!(
        text.starts_with("feral-lint \u{2014} "),
        "help opens with `feral-lint \u{2014} <about>`: {text:?}"
    );
    assert!(text.contains("\nUsage:\n"));
    assert!(text.contains("\nStandard flags:\n"));
    assert!(text.ends_with("  --help            this text\n"));
}

fn help_text() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_feral-lint"))
        .arg("--help")
        .output()
        .expect("run feral-lint --help");
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
        let out = Command::new(env!("CARGO_BIN_EXE_feral-lint"))
            .args(["report", &flag, "--no-such-flag"])
            .output()
            .expect("run feral-lint");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(feral_cli::EXIT_USAGE.into()));
        assert!(
            err.contains("unknown flag `--no-such-flag`"),
            "the help lists {flag}, which the parser refuses: {err}"
        );
    }
}
