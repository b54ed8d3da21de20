//! Pins the house `--help` contract for feral-net: the binary answers
//! `--help` on stdout with help text in the shared format, closing with
//! a standard-flags block, and exits 0; and every flag the help lists is
//! one the parser accepts.

use std::process::Command;

#[test]
fn help_ends_with_the_standard_flags_block() {
    let out = Command::new(env!("CARGO_BIN_EXE_feral-net"))
        .arg("--help")
        .output()
        .expect("run feral-net --help");
    assert!(out.status.success(), "--help must exit 0");
    let text = String::from_utf8(out.stdout).expect("utf-8 help text");
    assert!(
        text.starts_with("feral-net \u{2014} "),
        "help opens with `feral-net \u{2014} <about>`: {text:?}"
    );
    assert!(text.contains("\nUsage:\n"));
    assert!(text.contains("\nStandard flags:\n"));
    assert!(text.ends_with("  --help            this text\n"));
}

fn help_text() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_feral-net"))
        .arg("--help")
        .output()
        .expect("run feral-net --help");
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
        let out = Command::new(env!("CARGO_BIN_EXE_feral-net"))
            .args(["serve", &flag, "--no-such-flag"])
            .output()
            .expect("run feral-net");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(feral_cli::EXIT_USAGE.into()));
        assert!(
            err.contains("unknown flag `--no-such-flag`"),
            "the help lists {flag}, which the parser refuses: {err}"
        );
    }
}

/// Every flag `serve` reads, taken from its source, so a flag added to
/// `serve` without a help line fails here.
fn flags_serve_reads() -> Vec<String> {
    let source = include_str!("../src/bin/feral-net.rs");
    let start = source.find("fn serve(").expect("serve in the binary");
    let body = &source[start..];
    let body = &body[..body.find("\n}\n").expect("end of serve")];
    let mut flags = Vec::new();
    for getter in ["get_str(\"", "get_usize(\"", "get_u64(\"", "has(\""] {
        for (at, _) in body.match_indices(getter) {
            let name = &body[at + getter.len()..];
            flags.push(format!(
                "--{}",
                &name[..name.find('"').expect("closing quote")]
            ));
        }
    }
    flags
}

#[test]
fn help_lists_every_flag_serve_reads() {
    let out = Command::new(env!("CARGO_BIN_EXE_feral-net"))
        .arg("--help")
        .output()
        .expect("run feral-net --help");
    let text = String::from_utf8(out.stdout).expect("utf-8 help text");
    let flags = flags_serve_reads();
    for flag in [
        "--addr",
        "--executors",
        "--max-conns",
        "--queue",
        "--inflight",
        "--sample",
    ] {
        assert!(flags.iter().any(|f| f == flag), "serve reads {flag}");
    }
    for flag in &flags {
        assert!(
            text.contains(&format!("\n  {flag} ")),
            "help has no option line for {flag}: {text}"
        );
    }
}

/// `serve` reads no standard flag, and the help offers none: `--json`
/// is neither listed nor accepted.
#[test]
fn a_standard_flag_the_tool_does_not_read_is_neither_listed_nor_accepted() {
    assert!(!help_text().contains("--json"));
    let out = Command::new(env!("CARGO_BIN_EXE_feral-net"))
        .args(["serve", "--json"])
        .output()
        .expect("run feral-net serve --json");
    assert_eq!(out.status.code(), Some(feral_cli::EXIT_USAGE.into()));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--json`"));
}
