//! `feral-racer` — atomics and `unsafe` discipline checks for the
//! workspace's own concurrency core.
//!
//! ```text
//! feral-racer check [--root DIR] [--json | --sarif] [--out PATH] [--validate]
//! ```
//!
//! `check` analyzes `<root>/crates/*/src`, prints the report (text by
//! default, `--json` for the golden inventory, `--sarif`
//! for SARIF 2.1.0), and exits 1 when findings exist. `--validate`
//! additionally runs the seeded-fault fixture gate: every FERALRS rule
//! must fire on its fixture, or the analyzer itself is broken.

use feral_cli::{die, write_out, Args, EXIT_DEVIATION};
use std::path::{Path, PathBuf};

const TOOL: &str = "feral-racer";

fn help() -> String {
    feral_cli::render_help(
        TOOL,
        "atomics and unsafe discipline checks for the workspace's concurrency core",
        "  feral-racer check [--root DIR] [--sarif]\n",
        "  --root DIR        repo root (default: nearest ancestor with crates/)\n\
         \x20 --sarif           SARIF 2.1.0 output instead of text/JSON\n",
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help") {
        print!("{}", help());
        return;
    }
    match argv.first().map(String::as_str) {
        Some("check") => check(Args::from_iter(argv.into_iter().skip(1))),
        Some(other) => die(TOOL, &format!("unknown command `{other}` (try `check`)")),
        None => die(
            TOOL,
            "usage: feral-racer check [--root DIR] [--json|--sarif] [--out PATH] [--validate] \
             (--help for details)",
        ),
    }
}

/// The repo root: `--root`, or the nearest ancestor with `crates/`.
fn find_root(args: &Args) -> PathBuf {
    if let Some(r) = args.get_str("root") {
        return PathBuf::from(r);
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|e| die(TOOL, &e.to_string()));
    loop {
        if dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            die(TOOL, "no crates/ directory found; pass --root");
        }
    }
}

fn check(args: Args) {
    let root = find_root(&args);
    let analysis = feral_racer::analyze_root(&root)
        .unwrap_or_else(|e| die(TOOL, &format!("scan failed: {e}")));
    let rendered = if args.has("json") {
        feral_racer::report::render_inventory(&analysis)
    } else if args.has("sarif") {
        feral_racer::report::render_sarif_report(&analysis)
    } else {
        feral_racer::report::render_text(&analysis)
    };
    write_out(TOOL, args.get_str("out"), &rendered);

    let mut deviation = !analysis.findings.is_empty();
    if deviation {
        eprintln!(
            "{TOOL}: {} finding(s) on the live tree",
            analysis.findings.len()
        );
    }
    if args.has("validate") {
        let fixtures = fixtures_dir(&root);
        let results = feral_racer::validate(&fixtures)
            .unwrap_or_else(|e| die(TOOL, &format!("fixture validation failed: {e}")));
        for r in &results {
            if r.fired {
                eprintln!("{TOOL}: {} fired on {}", r.rule, r.fixture);
            } else {
                eprintln!(
                    "{TOOL}: {} DID NOT FIRE on {} — rule or fixture broken",
                    r.rule, r.fixture
                );
                deviation = true;
            }
        }
    }
    if deviation {
        std::process::exit(EXIT_DEVIATION as i32);
    }
}

fn fixtures_dir(root: &Path) -> PathBuf {
    root.join("crates").join("racer").join("fixtures")
}
