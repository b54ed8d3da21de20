//! Pins the house `--help` contract for feral-net: the binary answers
//! `--help` on stdout with help text in the shared format, ending with
//! the standard-flags block every tool carries, and exits 0.

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
    assert!(
        text.ends_with(feral_cli::STANDARD_FLAGS),
        "help must close with the shared standard-flags block verbatim"
    );
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
