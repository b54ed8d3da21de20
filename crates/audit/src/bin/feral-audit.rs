//! `feral-audit` — read back a saved audit snapshot and render it.
//!
//! ```text
//! feral-audit report --in FILE          # human-readable
//! feral-audit report --in FILE --prom   # Prometheus text
//! feral-audit report --in FILE --json   # validated JSON
//! feral-audit report --demo             # staged anomaly
//! ```
//!
//! `--in` reads a snapshot as `AuditSnapshot::to_json` writes it (what
//! `--demo --json` prints). This binary hand-rolls its argument parsing:
//! it cannot use feral-cli, which (transitively) depends on the engine
//! that depends on this crate.

use feral_audit::{
    AuditMode, AuditSnapshot, Auditor, ReadRecord, ReadTarget, TxnFootprint, WriteRecord,
};
use std::process::ExitCode;

const USAGE: &str = "usage: feral-audit report (--in FILE | --demo) [--prom | --json] \
                     [--out PATH] [--validate] (--help for details)";

/// The house `--help` text. This binary cannot link feral-cli
/// (dependency cycle), so its closing block is a copy of what
/// `feral_cli::render_help` prints for the standard flags the parser
/// below matches; the `cli_help` integration test pins both.
const HELP: &str = "feral-audit — render and validate saved runtime-audit snapshots

Usage:
  feral-audit report (--in FILE | --demo) [--prom]

Options:
  --in FILE         a snapshot as `--json` writes it
  --demo            stage the paper's motivating duplicate-signup race
  --prom            Prometheus text exposition instead of text/JSON

Standard flags:
  --json            emit machine-readable JSON
  --out PATH        write the artifact to PATH instead of stdout
  --validate        self-validate the artifact and exit nonzero on schema drift
  --smoke           small fast run for CI gates
  --help            this text
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) != Some("report") {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut input: Option<String> = None;
    let mut out: Option<String> = None;
    let mut demo = false;
    let mut validate = false;
    let mut format = "text";
    let mut it = argv[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--in" => match it.next() {
                Some(path) => input = Some(path.clone()),
                None => {
                    eprintln!("--in needs a file path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("--out needs a file path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--demo" => demo = true,
            "--prom" => format = "prom",
            "--json" => format = "json",
            "--validate" => validate = true,
            "--smoke" => {} // this tool has no slow mode
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let snap = if demo {
        demo_snapshot()
    } else {
        let Some(path) = input else {
            eprintln!("need --in FILE or --demo\n{USAGE}");
            return ExitCode::FAILURE;
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("cannot read {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        match AuditSnapshot::from_json(&text) {
            Ok(snap) => snap,
            Err(err) => {
                eprintln!("{path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    };
    if validate {
        if let Err(err) = AuditSnapshot::from_json(&snap.to_json()) {
            eprintln!("feral-audit: snapshot fails the export schema: {err}");
            return ExitCode::FAILURE;
        }
    }
    let rendered = match format {
        "prom" => snap.to_prometheus(),
        "json" => format!("{}\n", snap.to_json()),
        _ => snap.render_text(),
    };
    match out {
        Some(path) => {
            if let Err(err) = std::fs::write(&path, &rendered) {
                eprintln!("feral-audit: cannot write {path}: {err}");
                return ExitCode::FAILURE;
            }
            eprintln!("feral-audit: wrote {path}");
        }
        None => print!("{rendered}"),
    }
    if snap.cycles > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// Stage the paper's motivating race — two Read Committed signups
/// probe-then-insert the same email — and run it through a real
/// [`Auditor`] so the demo exercises the live pipeline end to end.
fn demo_snapshot() -> AuditSnapshot {
    let auditor = Auditor::new(AuditMode::Full);
    let table = feral_trace::fnv64(b"signups");
    let email = feral_audit::column_value_hash(1, b"casey@example.com");
    let probe = |read_ts| ReadRecord {
        table,
        target: ReadTarget::Pred(vec![email]),
        read_ts,
    };
    let insert = |row| WriteRecord {
        table,
        row,
        old: None,
        new: Some(vec![email]),
    };
    auditor.observe_begin(7, 10);
    auditor.observe_begin(8, 10);
    // Both probes run at ts 10 and see no row; both inserts commit.
    auditor.observe_commit(TxnFootprint {
        txn: 7,
        begin_ts: 10,
        commit_ts: 11,
        isolation: "read-committed",
        template: Some("uniqueness-probe-insert:signups.email"),
        reads: vec![probe(10)],
        writes: vec![insert(100)],
        sampled_out: false,
    });
    auditor.observe_commit(TxnFootprint {
        txn: 8,
        begin_ts: 10,
        commit_ts: 12,
        isolation: "read-committed",
        template: Some("uniqueness-probe-insert:signups.email"),
        reads: vec![probe(10)],
        writes: vec![insert(101)],
        sampled_out: false,
    });
    auditor.snapshot()
}
