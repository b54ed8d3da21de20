//! `feral-sdg` — static dependency-graph anomaly prediction from the
//! command line.
//!
//! ```text
//! feral-sdg matrix [--json] [--out PATH] [--validate]
//!         [--max-runs N]
//!     Print the pair × isolation verdict matrix. With --json, emit the
//!     BENCH_sdg.json artifact (to stdout or --out). With --validate,
//!     cross-check every cell: UNSAFE cells must produce a replaying
//!     feral-sim witness (a sleep-set DPOR sweep directed toward the
//!     predicted cycle's tables), SAFE cells must
//!     survive a complete partial-order-reduced sweep, and every row
//!     must agree with its invariant-confluence derivation — any
//!     disagreement exits non-zero.
//!
//! feral-sdg graph --pair P [--isolation LEVEL] [--dot]
//!     Dump one cell's dependency graph (text or Graphviz dot).
//!
//! feral-sdg templates
//!     List the transaction templates of every pair.
//! ```
//!
//! Pairs: `uniqueness`, `orphans`, `lock-rmw`, `sibling-inserts`.
//! Isolation levels: `read-committed`, `repeatable-read`, `snapshot`,
//! `serializable`.

use feral_cli::Args;
use feral_db::IsolationLevel;
use feral_sdg::matrix::{build_matrix, decide, iconfluence_agreement, validate_cell, PairKind};
use feral_sdg::report::{render_dot, render_graph_text, render_json, render_matrix_text};
use std::process::ExitCode;

const TOOL: &str = "feral-sdg";

/// Every flag a subcommand reads; any other is a usage error.
const FLAGS: &[&str] = &[
    "max-runs",
    "validate",
    "json",
    "out",
    "pair",
    "isolation",
    "dot",
];

fn die(msg: &str) -> ! {
    feral_cli::die(TOOL, msg)
}

fn help() -> String {
    feral_cli::render_help(
        TOOL,
        "static dependency-graph anomaly prediction",
        "  feral-sdg matrix [--max-runs N]\n\
         \x20 feral-sdg graph --pair P [--isolation LEVEL] [--dot]\n\
         \x20 feral-sdg templates\n",
        "  --pair P          uniqueness|orphans|lock-rmw|sibling-inserts\n\
         \x20 --isolation L     read-committed|repeatable-read|snapshot|serializable\n\
         \x20 --max-runs N      schedule budget per validated cell\n\
         \x20 --dot             Graphviz output for `graph`\n",
    )
}

fn cmd_matrix(args: &Args) -> ExitCode {
    let matrix = build_matrix();

    let evidence = if args.has("validate") {
        let max_runs = args.get_usize("max-runs", 200_000);
        let mut collected = Vec::with_capacity(matrix.len());
        let mut failures = 0;
        for cell in &matrix {
            match validate_cell(cell, max_runs) {
                Ok(evidence) => collected.push(evidence),
                Err(msg) => {
                    eprintln!("feral-sdg: validation FAILED: {msg}");
                    failures += 1;
                }
            }
        }
        for pair in PairKind::all() {
            let row: Vec<_> = matrix.iter().filter(|c| c.pair == pair).cloned().collect();
            if let Err(msg) = iconfluence_agreement(&row) {
                eprintln!("feral-sdg: iconfluence disagreement: {msg}");
                failures += 1;
            }
        }
        if failures > 0 {
            eprintln!("feral-sdg: {failures} validation failure(s)");
            return ExitCode::from(feral_cli::EXIT_DEVIATION);
        }
        Some(collected)
    } else {
        None
    };

    let rendered = if args.has("json") {
        render_json(&matrix, evidence.as_deref())
    } else {
        let mut text = render_matrix_text(&matrix);
        if evidence.is_some() {
            text.push_str(
                "validated: every UNSAFE cell replayed a witness, every SAFE cell swept \
                 exhaustively, every row agrees with iconfluence\n",
            );
        }
        text
    };
    feral_cli::write_out(TOOL, args.get_str("out"), &rendered);
    ExitCode::SUCCESS
}

fn cmd_graph(args: &Args) -> ExitCode {
    let pair = match args.get_str("pair") {
        Some(name) => PairKind::parse(name).unwrap_or_else(|| {
            die(&format!(
                "unknown pair `{name}` (uniqueness|orphans|lock-rmw|sibling-inserts)"
            ))
        }),
        None => die("--pair is required"),
    };
    let isolation = args
        .get_str("isolation")
        .map(|s| feral_cli::parse_isolation(TOOL, s))
        .unwrap_or(IsolationLevel::ReadCommitted);
    let cell = decide(pair, isolation);
    if args.has("dot") {
        print!("{}", render_dot(&cell));
    } else {
        print!("{}", render_graph_text(&cell));
    }
    ExitCode::SUCCESS
}

fn cmd_templates() -> ExitCode {
    for pair in PairKind::all() {
        println!("pair {}", pair.name());
        for t in pair.templates() {
            println!("  txn {}", t.name);
            for s in &t.steps {
                println!("    {:<24} {}", s.label, s.access);
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    let Some(command) = argv.first() else {
        die("usage: feral-sdg <matrix|graph|templates> [flags] (--help for details)")
    };
    let args = Args::parse(TOOL, argv[1..].iter().cloned(), FLAGS);
    match command.as_str() {
        "matrix" => cmd_matrix(&args),
        "graph" => cmd_graph(&args),
        "templates" => cmd_templates(),
        other => die(&format!("unknown command `{other}`")),
    }
}
