//! Pins the house `--help` contract for feral-paper: the binary answers
//! `--help` on stdout with help text in the shared format, listing every
//! subcommand and ending with the standard-flags block every tool
//! carries, and exits 0.

use std::process::Command;

#[test]
fn help_lists_every_command_and_ends_with_the_standard_flags_block() {
    let out = Command::new(env!("CARGO_BIN_EXE_feral-paper"))
        .arg("--help")
        .output()
        .expect("run feral-paper --help");
    assert!(out.status.success(), "--help must exit 0");
    let text = String::from_utf8(out.stdout).expect("utf-8 help text");
    assert!(
        text.starts_with("feral-paper \u{2014} "),
        "help opens with `feral-paper \u{2014} <about>`: {text:?}"
    );
    assert!(text.contains("\nUsage:\n"));
    for command in [
        "table1",
        "table2",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "frameworks",
        "ablation",
        "check",
    ] {
        assert!(
            text.contains(&format!("\n  {command} ")),
            "help lists no `{command}`: {text}"
        );
    }
    assert!(
        text.ends_with(feral_cli::STANDARD_FLAGS),
        "help must close with the shared standard-flags block verbatim"
    );
}
