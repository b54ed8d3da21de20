//! `feral-sim` — deterministic anomaly exploration from the command line.
//!
//! ```text
//! feral-sim matrix [--strategy dfs|dpor|directed] [--max-runs N] [--json]
//!     Run the paper's safety matrix under exhaustive schedule
//!     exploration (partial-order reduced by default); exit non-zero
//!     if any cell deviates.
//!
//! feral-sim systematic --scenario uniqueness|orphans|lost-update|sibling-inserts
//!         [--isolation LEVEL | --levels L0,L1] [--guard feral|database]
//!         [--workers N] [--strategy dfs|dpor|directed] [--max-runs N] [--json]
//!     Exhaustively explore one scenario; print the first anomalous
//!     schedule (with its replay choices) if one exists. `dpor` prunes
//!     Mazurkiewicz-equivalent schedules; `directed` additionally
//!     biases backtracking toward the scenario's critical tables.
//!     `--levels` runs the two template slots of the pair at *different*
//!     levels (feral-plan's mixed configurations) instead of one
//!     uniform `--isolation`.
//!
//! feral-sim random --scenario ... [--seeds N] [...]
//!     Seeded random search; print the firing seed and the `feral-sim
//!     replay` command reproducing it.
//!
//! feral-sim replay --scenario ... --seed S [...]
//! feral-sim replay --scenario ... --choices 1,0,2 [...]
//!     Re-run one schedule byte-identically and print its trace.
//! ```
//!
//! Isolation levels: `read-committed`, `repeatable-read`, `snapshot`,
//! `serializable`.

use feral_cli::Args;
use feral_db::IsolationLevel;
use feral_sim::report::ExplorationReport;
use feral_sim::scenarios::{Guard, ScenarioKind, ScenarioSpec, SessionLevels};
use feral_sim::{
    explore_dpor, explore_random, explore_systematic, run_with_choices, run_with_seed,
};
use std::process::ExitCode;

const TOOL: &str = "feral-sim";

/// Every flag a subcommand reads; any other is a usage error.
const FLAGS: &[&str] = &[
    "strategy",
    "max-runs",
    "smoke",
    "json",
    "out",
    "scenario",
    "levels",
    "isolation",
    "guard",
    "workers",
    "seeds",
    "seed",
    "choices",
];

fn die(msg: &str) -> ! {
    feral_cli::die(TOOL, msg)
}

fn help() -> String {
    feral_cli::render_help(
        TOOL,
        "deterministic anomaly exploration over feral-db schedules",
        "  feral-sim matrix [--strategy dfs|dpor|directed] [--max-runs N]\n\
         \x20 feral-sim systematic --scenario NAME [--isolation LEVEL | --levels L0,L1]\n\
         \x20     [--guard feral|database] [--workers N] [--strategy S] [--max-runs N]\n\
         \x20 feral-sim random --scenario NAME [--seeds N]\n\
         \x20 feral-sim replay --scenario NAME (--seed S | --choices 1,0,2)\n",
        "  --scenario NAME   uniqueness|orphans|lost-update|sibling-inserts\n\
         \x20 --isolation L     read-committed|repeatable-read|snapshot|serializable\n\
         \x20 --levels L0,L1    run the pair's two template slots at different levels\n\
         \x20 --strategy S      dfs|dpor|directed schedule exploration\n\
         \x20 --max-runs N      schedule budget before declaring the sweep bounded\n",
        FLAGS,
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    Dfs,
    Dpor,
    Directed,
}

fn strategy_arg(args: &Args, default: Strategy) -> Strategy {
    match args.get_str("strategy") {
        None => default,
        Some("dfs") => Strategy::Dfs,
        Some("dpor") => Strategy::Dpor,
        Some("directed") => Strategy::Directed,
        Some(other) => die(&format!("unknown strategy `{other}` (dfs|dpor|directed)")),
    }
}

fn scenario_cfg(args: &Args) -> ScenarioSpec {
    let kind = match args.get_str("scenario") {
        Some(name) => ScenarioKind::parse(name).unwrap_or_else(|| {
            die(&format!(
                "unknown scenario `{name}` (uniqueness|orphans|lost-update|sibling-inserts)"
            ))
        }),
        None => die("--scenario is required"),
    };
    let levels = match (args.get_str("levels"), args.get_str("isolation")) {
        (Some(_), Some(_)) => die("--levels and --isolation are mutually exclusive"),
        (Some(levels), None) => SessionLevels::PerSlot(feral_cli::parse_levels(TOOL, levels)),
        (None, isolation) => SessionLevels::Uniform(
            isolation
                .map(|s| feral_cli::parse_isolation(TOOL, s))
                .unwrap_or(IsolationLevel::ReadCommitted),
        ),
    };
    ScenarioSpec {
        kind,
        levels,
        guard: match args.get_str("guard") {
            Some("database") => Guard::Database,
            Some("feral") | None => Guard::Feral,
            Some(other) => die(&format!("unknown guard `{other}` (feral|database)")),
        },
        workers: args.get_usize("workers", 2),
    }
}

/// Explore `cfg` under `strategy` and normalize the outcome to a report.
fn explore(cfg: &ScenarioSpec, strategy: Strategy, max_runs: usize) -> ExplorationReport {
    match strategy {
        Strategy::Dfs => {
            let outcome = explore_systematic(|| cfg.build(), max_runs);
            ExplorationReport::from_systematic(cfg, &outcome)
        }
        Strategy::Dpor | Strategy::Directed => {
            let mut dc = cfg.dpor_config(max_runs);
            if strategy == Strategy::Directed {
                dc = dc.directed(cfg.direction_hint());
            }
            let outcome = explore_dpor(|| cfg.build(), &dc);
            ExplorationReport::from_dpor(cfg, dc.strategy(), &outcome)
        }
    }
}

/// Human-readable counter suffix for reducing strategies.
fn pruning_note(report: &ExplorationReport) -> String {
    if report.strategy == "dfs" {
        String::new()
    } else {
        format!(
            ", {} equivalent schedule(s) pruned{}",
            report.stats.schedules_pruned,
            if report.stats.pruned_exact {
                ""
            } else {
                " (lower bound)"
            }
        )
    }
}

fn cmd_systematic(cfg: ScenarioSpec, args: &Args) -> ExitCode {
    let strategy = strategy_arg(args, Strategy::Dfs);
    let report = explore(&cfg, strategy, args.get_usize("max-runs", 200_000));
    if args.has("json") {
        let rendered = format!("{}\n", report.to_json());
        feral_cli::write_out(TOOL, args.get_str("out"), &rendered);
        return ExitCode::from(u8::from(report.violation.is_some()));
    }
    match &report.violation {
        Some(v) => {
            println!(
                "{}: ANOMALY after {} schedules [{}]: {}",
                report.scenario, report.runs, report.strategy, v.message
            );
            println!("  {}", v.replay_command());
            ExitCode::from(feral_cli::EXIT_DEVIATION)
        }
        None => {
            println!(
                "{}: no anomaly in {} schedules [{}] ({}{})",
                report.scenario,
                report.runs,
                report.strategy,
                if report.complete {
                    "exhaustive"
                } else {
                    "bounded — NOT exhaustive"
                },
                pruning_note(&report)
            );
            ExitCode::SUCCESS
        }
    }
}

fn cmd_random(cfg: ScenarioSpec, seeds: u64) -> ExitCode {
    let label = cfg.label();
    let outcome = explore_random(|| cfg.build(), 0..seeds);
    match outcome.violation {
        Some(v) => {
            println!(
                "{}: ANOMALY at seed {} (run {} of {}): {}",
                label,
                v.seed.unwrap(),
                outcome.runs,
                seeds,
                v.message
            );
            println!("  {}", cfg.replay_command(v.seed, &v.choices));
            ExitCode::from(feral_cli::EXIT_DEVIATION)
        }
        None => {
            println!("{}: no anomaly in {} seeded runs", label, outcome.runs);
            ExitCode::SUCCESS
        }
    }
}

fn cmd_replay(cfg: ScenarioSpec, args: &Args) -> ExitCode {
    let label = cfg.label();
    let (run, verdict) = if let Some(seed) = args.get_str("seed") {
        let seed = seed
            .parse()
            .unwrap_or_else(|_| die(&format!("--seed wants a number, got `{seed}`")));
        run_with_seed(cfg.build(), seed)
    } else if let Some(choices) = args.get_str("choices") {
        let choices: Vec<usize> = choices
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| die(&format!("bad choice `{s}` in --choices")))
            })
            .collect();
        run_with_choices(cfg.build(), &choices)
    } else {
        die("replay needs --seed or --choices");
    };
    println!("{}", run.trace_text());
    match verdict {
        Ok(()) => {
            println!("{label}: oracle silent");
            ExitCode::SUCCESS
        }
        Err(message) => {
            println!("{label}: oracle fired: {message}");
            ExitCode::from(feral_cli::EXIT_DEVIATION)
        }
    }
}

fn cmd_matrix(args: &Args) -> ExitCode {
    use IsolationLevel::{ReadCommitted, Serializable};
    // (scenario cfg, anomaly expected?)
    use ScenarioKind::{Orphans, Uniqueness};
    let strategy = strategy_arg(args, Strategy::Dpor);
    // --smoke keeps the sweep bounded tightly enough for CI gates; every
    // cell is exhaustive well under this budget, so verdicts are identical
    let max_runs = args.get_usize("max-runs", if args.has("smoke") { 50_000 } else { 200_000 });
    let json = args.has("json");
    let mut json_lines = String::new();
    let cells: Vec<(ScenarioSpec, bool)> = vec![
        (cell(Uniqueness, ReadCommitted, Guard::Feral), true),
        (cell(Uniqueness, Serializable, Guard::Feral), false),
        (cell(Uniqueness, ReadCommitted, Guard::Database), false),
        (cell(Orphans, ReadCommitted, Guard::Feral), true),
        (cell(Orphans, Serializable, Guard::Feral), false),
        (cell(Orphans, ReadCommitted, Guard::Database), false),
    ];
    let mut failures = 0;
    for (cfg, expect_anomaly) in cells {
        let report = explore(&cfg, strategy, max_runs);
        let found = report.violation.is_some();
        if json {
            json_lines.push_str(&report.to_json());
            json_lines.push('\n');
        } else {
            let verdict = if found == expect_anomaly {
                "ok"
            } else {
                "FAIL"
            };
            let detail = match &report.violation {
                Some(v) => format!("anomaly: {} ({})", v.message, v.replay_command()),
                None if report.complete => format!(
                    "safe across all {} schedules{}",
                    report.runs,
                    pruning_note(&report)
                ),
                None => format!("no anomaly in {} schedules (bounded)", report.runs),
            };
            println!("[{verdict:>4}] {:<38} {detail}", cfg.label());
        }
        if found != expect_anomaly {
            failures += 1;
        }
    }
    if json {
        feral_cli::write_out(TOOL, args.get_str("out"), &json_lines);
    }
    if failures == 0 {
        if !json {
            println!("safety matrix: all cells as the paper predicts");
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            println!("safety matrix: {failures} cell(s) deviate");
        }
        ExitCode::from(feral_cli::EXIT_DEVIATION)
    }
}

fn cell(kind: ScenarioKind, isolation: IsolationLevel, guard: Guard) -> ScenarioSpec {
    ScenarioSpec {
        kind,
        levels: SessionLevels::Uniform(isolation),
        guard,
        workers: match kind {
            ScenarioKind::Orphans => 1,
            _ => 2,
        },
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    let Some(command) = argv.first() else {
        die("usage: feral-sim <matrix|systematic|random|replay> [flags] (--help for details)")
    };
    let args = Args::parse(TOOL, argv[1..].iter().cloned(), FLAGS);
    match command.as_str() {
        "matrix" => cmd_matrix(&args),
        "systematic" => cmd_systematic(scenario_cfg(&args), &args),
        "random" => cmd_random(scenario_cfg(&args), args.get_u64("seeds", 500)),
        "replay" => cmd_replay(scenario_cfg(&args), &args),
        other => die(&format!("unknown command `{other}`")),
    }
}
