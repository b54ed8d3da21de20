//! Every `feral-paper` subcommand runs once at `--smoke`: it exits 0 and
//! prints its table's title. An unknown subcommand, a flag no subcommand
//! reads, and a flag of another subcommand are usage errors (exit 2,
//! `feral_cli::EXIT_USAGE`).

use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_feral-paper"))
        .args(args)
        .output()
        .expect("run feral-paper")
}

/// Run `args` and require exit 0 and `title` on stdout.
fn assert_prints(args: &[&str], title: &str) {
    let out = paper(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(title),
        "{args:?} printed no `{title}`:\n{stdout}"
    );
}

#[test]
fn table1_writes_a_report_that_check_passes() {
    let report = std::env::temp_dir().join(format!("paper_cli_table1_{}.json", std::process::id()));
    let report = report.to_str().expect("utf-8 temp path");
    assert_prints(
        &["table1", "--smoke", "--out", report],
        "== Table 1: built-in validation usage and I-confluence ==",
    );
    assert_prints(&["check", report], "OK (5 cells");
    std::fs::remove_file(report).expect("remove the report");
}

#[test]
fn the_corpus_commands_print_their_tables() {
    for (command, title) in [
        (
            "table2",
            "== Table 2: measured per-application mechanism usage",
        ),
        ("fig1", "== Figure 1: per-application mechanism usage"),
        ("fig6", "== Figure 6: median % of final occurrences"),
        ("fig7", "== Figure 7: average authorship CDFs =="),
    ] {
        assert_prints(&[command, "--smoke"], title);
    }
}

#[test]
fn the_stress_commands_print_their_tables() {
    for (command, title) in [
        (
            "fig2",
            "== Figure 2: duplicate records vs number of Rails workers ==",
        ),
        (
            "fig3",
            "== Figure 3: duplicate records vs number of possible keys ==",
        ),
        (
            "fig4",
            "== Figure 4: orphaned users vs number of Rails workers ==",
        ),
        (
            "fig5",
            "== Figure 5: orphaned users vs number of departments ==",
        ),
        (
            "frameworks",
            "== Section 6: cross-framework uniqueness enforcement",
        ),
        ("ablation", "== Section 7 ablation:"),
    ] {
        assert_prints(&[command, "--smoke"], title);
    }
}

#[test]
fn unknown_commands_and_flags_are_usage_errors() {
    for (args, named) in [
        (&["fig9"][..], "unknown command `fig9`"),
        (&["fig2", "--rounds", "4"][..], "unknown flag `--rounds`"),
        (&["fig1", "--seed", "7"][..], "unknown flag `--seed`"),
        // a flag of another subcommand
        (&["fig1", "--out", "x.json"][..], "unknown flag `--out`"),
        (&["fig2", "--smoke", "--full"][..], "exclusive"),
    ] {
        let out = paper(args);
        assert_eq!(
            out.status.code(),
            Some(feral_cli::EXIT_USAGE.into()),
            "{args:?} must exit with the usage code"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?}: {err}");
    }
}
