//! Pins the house `--help` contract for feral-audit: the binary answers
//! `--help` on stdout with help text in the shared format, and exits 0.
//! Its parser is hand-rolled (it cannot link feral-cli), so its
//! standard-flags block is hand-copied: it must be the block
//! `feral_cli::render_help` prints for the standard flags the parser
//! matches, and every flag the help lists must get past that parser.

use std::process::Command;

fn help_text() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_feral-audit"))
        .arg("--help")
        .output()
        .expect("run feral-audit --help");
    assert!(out.status.success(), "--help must exit 0");
    String::from_utf8(out.stdout).expect("utf-8 help text")
}

#[test]
fn help_ends_with_the_standard_flags_block() {
    let text = help_text();
    assert!(
        text.starts_with("feral-audit \u{2014} "),
        "help opens with `feral-audit \u{2014} <about>`: {text:?}"
    );
    assert!(text.contains("\nUsage:\n"));
    let shared = feral_cli::render_help("", "", "", "", &["json", "out", "validate", "smoke"]);
    let block = &shared[shared.find("\nStandard flags:\n").unwrap()..];
    assert!(
        text.ends_with(block),
        "help must close with feral-cli's block for the flags it reads:\n{block}"
    );
}

/// Every flag line of the help gets past the parser: followed by an
/// argument the parser does not know, the run fails on that argument,
/// not on the flag.
#[test]
fn every_flag_the_help_lists_is_accepted() {
    let text = help_text();
    let lines: Vec<Vec<&str>> = text
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|words| words.first().is_some_and(|w| w.starts_with("--")) && words[0] != "--help")
        .collect();
    assert!(lines.len() >= 7, "{text}");
    for words in lines {
        let mut args = vec!["report", words[0]];
        // a value-taking flag names its value in capitals: `--in FILE`
        if words[1].chars().all(|c| c.is_ascii_uppercase()) {
            args.push("x");
        }
        args.push("--no-such-flag");
        let out = Command::new(env!("CARGO_BIN_EXE_feral-audit"))
            .args(&args)
            .output()
            .expect("run feral-audit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown argument '--no-such-flag'"),
            "the help lists {}, which the parser refuses: {err}",
            words[0]
        );
    }
}
