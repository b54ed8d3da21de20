//! Printed replay commands replay through the binary: a witness's
//! `replay_command()`, and the replay line `feral-sim random` prints,
//! are run word for word through the `feral-sim` CLI's own parser and
//! must fire the same oracle.

use feral_db::IsolationLevel::{ReadCommitted, Serializable, Snapshot};
use feral_sim::scenarios::{Guard, ScenarioKind, ScenarioSpec, SessionLevels};
use std::process::Command;

/// Run `feral-sim` with the words of `command` after its leading
/// `feral-sim`; return the exit code and stdout.
fn run_printed(command: &str) -> (Option<i32>, String) {
    let mut words = command.split_whitespace();
    assert_eq!(
        words.next(),
        Some("feral-sim"),
        "not a feral-sim command: {command}"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_feral-sim"))
        .args(words)
        .output()
        .expect("spawn feral-sim");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

fn assert_fires(command: &str, label: &str, message: &str) {
    let (code, stdout) = run_printed(command);
    assert_eq!(
        code,
        Some(1),
        "`{command}` must exit 1 (oracle fired):\n{stdout}"
    );
    let expected = format!("{label}: oracle fired: {message}");
    assert!(
        stdout.trim_end().ends_with(&expected),
        "`{command}` must end with `{expected}`:\n{stdout}"
    );
}

#[test]
fn witness_replay_commands_replay_through_the_binary() {
    let specs = [
        ScenarioSpec {
            kind: ScenarioKind::Uniqueness,
            levels: SessionLevels::Uniform(Snapshot),
            guard: Guard::Feral,
            workers: 2,
        },
        ScenarioSpec {
            kind: ScenarioKind::Orphans,
            levels: SessionLevels::PerSlot([ReadCommitted, Serializable]),
            guard: Guard::Feral,
            workers: 1,
        },
    ];
    for spec in specs {
        let w = spec
            .find_witness(64, 50_000)
            .expect("anomaly cell yields a witness");
        assert_fires(&w.replay_command(), &spec.label(), &w.message);
    }
}

#[test]
fn random_search_prints_a_replay_command_that_replays() {
    let (code, stdout) =
        run_printed("feral-sim random --scenario uniqueness --isolation read-committed --seeds 50");
    assert_eq!(
        code,
        Some(1),
        "random search must find the anomaly:\n{stdout}"
    );
    let mut lines = stdout.lines();
    let found = lines.next().expect("anomaly line");
    let (label, message) = found
        .split_once(": ANOMALY at seed ")
        .and_then(|(label, rest)| Some((label, rest.split_once("): ")?.1)))
        .unwrap_or_else(|| panic!("unexpected anomaly line: {found}"));
    let replay = lines.next().expect("replay line").trim();
    assert!(replay.starts_with("feral-sim replay "), "{replay}");
    assert_fires(replay, label, message);
}
