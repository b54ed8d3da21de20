//! Pins the house `--help` contract for feral-paper: the binary answers
//! `--help` on stdout with help text in the shared format, listing every
//! subcommand with the flags it reads and closing with a standard-flags
//! block, and exits 0; and each subcommand accepts every flag listed
//! under it.

use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_feral-paper"))
        .args(args)
        .output()
        .expect("run feral-paper")
}

fn help_text() -> String {
    let out = paper(&["--help"]);
    assert!(out.status.success(), "--help must exit 0");
    String::from_utf8(out.stdout).expect("utf-8 help text")
}

/// Each subcommand the help lists, with the `--flags` on the line under
/// it.
fn commands_in(text: &str) -> Vec<(String, Vec<String>)> {
    let section = &text[text.find("\nCommands").expect("a Commands section")..];
    let mut commands: Vec<(String, Vec<String>)> = Vec::new();
    for line in section.lines().skip(2).take_while(|l| !l.is_empty()) {
        let words: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with("  ") && !line.starts_with("   ") {
            commands.push((words[0].to_string(), Vec::new()));
        } else if let Some((_, flags)) = commands.last_mut() {
            flags.extend(
                words
                    .iter()
                    .filter(|w| w.starts_with("--"))
                    .map(|w| w.to_string()),
            );
        }
    }
    commands
}

#[test]
fn help_lists_every_command_and_ends_with_the_standard_flags_block() {
    let text = help_text();
    assert!(
        text.starts_with("feral-paper \u{2014} "),
        "help opens with `feral-paper \u{2014} <about>`: {text:?}"
    );
    assert!(text.contains("\nUsage:\n"));
    let listed: Vec<String> = commands_in(&text).into_iter().map(|(c, _)| c).collect();
    assert_eq!(
        listed,
        [
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
        ]
    );
    assert!(text.contains("\nStandard flags:\n"));
    assert!(text.ends_with("  --help            this text\n"));
}

/// Every flag listed under a subcommand gets past that subcommand's
/// parser: followed by a flag no subcommand reads, the run is refused
/// naming that one, not the listed flag.
#[test]
fn every_command_accepts_the_flags_listed_under_it() {
    for (command, flags) in commands_in(&help_text()) {
        if command == "check" {
            assert!(flags.is_empty(), "check reads no flag");
            continue;
        }
        assert!(flags.contains(&"--smoke".to_string()), "{command}");
        for flag in &flags {
            let out = paper(&[&command, flag, "--no-such-flag"]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(feral_cli::EXIT_USAGE.into()));
            assert!(
                err.contains("unknown flag `--no-such-flag`"),
                "{command} lists {flag}, which it refuses: {err}"
            );
        }
    }
}

/// `fig1` does not read `--json`, and the help does not offer it.
#[test]
fn a_standard_flag_no_command_reads_is_neither_listed_nor_accepted() {
    assert!(!help_text().contains("--json"));
    let out = paper(&["fig1", "--json"]);
    assert_eq!(out.status.code(), Some(feral_cli::EXIT_USAGE.into()));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--json`"));
}
