//! `feral-paper` — regenerate the paper's tables and figures, one
//! subcommand each.
//!
//! ```text
//! feral-paper <command> [--smoke | --full]
//! feral-paper table1 [--out PATH] [--prom PATH]
//! feral-paper fig2 [--isolation LEVEL] [--pg-ssi-bug]
//! feral-paper check REPORT.json
//! ```
//!
//! Every command prints its table(s) on stdout and its progress on
//! stderr. Sizes are one vocabulary: the default, `--full` (the paper's
//! sizes, where the paper gives one) and `--smoke` (small and fast, for
//! tests and CI). Each plotted point of Figures 2–5 is the mean and
//! standard deviation of [`RUNS`] runs, as the paper plots them.
//!
//! `table1` also runs the trace-instrumented uniqueness cells and writes
//! the machine-readable run report (`BENCH_table1.json`, or `--out`;
//! Prometheus text with `--prom`), once it reads back through
//! [`RunReport::from_json`]; `check` runs that same reader over a saved
//! report.

use feral_bench::apps::{Enforcement, ExperimentEnv};
use feral_bench::association::{association_stress, association_workload};
use feral_bench::report::RunReport;
use feral_bench::trace_report::{run_trace_cells, CellShape, CELL_GRID};
use feral_bench::uniqueness::{uniqueness_stress, uniqueness_workload};
use feral_bench::{mean_std, print_table};
use feral_cli::{die, Args};
use feral_corpus::{authorship, history, survey, synthesize_corpus, TABLE_TWO};
use feral_db::{Config, Database, Datum, IsolationLevel};
use feral_iconfluence::{
    classify_validator, coordination_free, derive_safety, OperationMix, Safety, TABLE_ONE,
};
use feral_lint::rules::{rule_meta, Severity, RULES};
use feral_lint::{lint_apps, LintOptions};
use feral_orm::frameworks::all_profiles;
use feral_orm::{App, ModelDef};
use feral_workloads::by_name;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Instant;

const TOOL: &str = "feral-paper";

/// The seed the 67-application corpus is synthesized from.
const CORPUS_SEED: u64 = 2015;

/// Runs averaged per plotted point: "the average and standard deviation
/// of three runs per experiment".
const RUNS: u64 = 3;

const CHECK_USAGE: &str = "usage: feral-paper check <report.json>";

/// How big a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    Smoke,
    Default,
    Full,
}

impl Size {
    fn pick<T>(self, smoke: T, default: T, full: T) -> T {
        match self {
            Size::Smoke => smoke,
            Size::Default => default,
            Size::Full => full,
        }
    }
}

/// What a subcommand runs, at the size its flags ask for.
type Body = fn(&Args, Size);

/// The body of subcommand `name` (any but `check`), and the flags it
/// reads beyond `--smoke`/`--full`.
fn command(name: &str) -> Option<(Body, &'static [&'static str])> {
    Some(match name {
        "table1" => (table1, &["out", "prom"]),
        "table2" => (table2, &[]),
        "fig1" => (fig1, &[]),
        "fig2" => (fig2, &["isolation", "pg-ssi-bug"]),
        "fig3" => (fig3, &[]),
        "fig4" => (fig4, &[]),
        "fig5" => (fig5, &[]),
        "fig6" => (fig6, &[]),
        "fig7" => (fig7, &[]),
        "frameworks" => (frameworks, &[]),
        "ablation" => (ablation, &[]),
        _ => return None,
    })
}

fn help() -> String {
    feral_cli::render_help(
        TOOL,
        "regenerate the paper's tables and figures",
        "  feral-paper <command> [flags]\n\
         \x20 feral-paper check REPORT.json\n\
         \nCommands (each with the flags it reads):\n\
         \x20 table1      Table 1: validator usage, I-confluence, run report\n\
         \x20               --smoke --full --out PATH --prom PATH\n\
         \x20 table2      Table 2: the per-application survey and its averages\n\
         \x20               --smoke --full\n\
         \x20 fig1        Figure 1: per-application mechanism usage\n\
         \x20               --smoke --full\n\
         \x20 fig2        Figure 2: uniqueness stress\n\
         \x20               --smoke --full --isolation LEVEL --pg-ssi-bug\n\
         \x20 fig3        Figure 3: uniqueness workload across key distributions\n\
         \x20               --smoke --full\n\
         \x20 fig4        Figure 4: association stress\n\
         \x20               --smoke --full\n\
         \x20 fig5        Figure 5: association workload vs #departments\n\
         \x20               --smoke --full\n\
         \x20 fig6        Figure 6: longitudinal mechanism history\n\
         \x20               --smoke --full\n\
         \x20 fig7        Figure 7: authorship CDFs\n\
         \x20               --smoke --full\n\
         \x20 frameworks  Section 6: cross-framework survey, executed\n\
         \x20               --smoke --full\n\
         \x20 ablation    Section 7: feral vs in-DB vs domesticated\n\
         \x20               --smoke --full\n\
         \x20 check       gate a table1 run report\n",
        "  --smoke           small and fast, for tests and CI\n\
         \x20 --full            the paper's sizes (Figures 2-5; the rest run at the default)\n\
         \x20 --out PATH        where table1 writes its run report (default BENCH_table1.json)\n\
         \x20 --prom PATH       also write table1's report as Prometheus text\n\
         \x20 --isolation L     fig2: read-committed|repeatable-read|snapshot|serializable\n\
         \x20 --pg-ssi-bug      fig2: reproduce PostgreSQL bug #11732 under serializable\n",
        // each command's flags are listed under it
        &[],
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    let Some(name) = argv.first() else {
        die(
            TOOL,
            "usage: feral-paper <command> [flags] (--help for details)",
        )
    };
    if name == "check" {
        return check(&argv[1..]);
    }
    let Some((run, flags)) = command(name) else {
        die(TOOL, &format!("unknown command `{name}`"))
    };
    let known: Vec<&str> = ["smoke", "full"].iter().chain(flags).copied().collect();
    let args = Args::parse(TOOL, argv[1..].iter().cloned(), &known);
    let size = match (args.has("smoke"), args.has("full")) {
        (true, true) => die(TOOL, "--smoke and --full are exclusive"),
        (true, false) => Size::Smoke,
        (false, true) => Size::Full,
        (false, false) => Size::Default,
    };
    run(&args, size);
    ExitCode::SUCCESS
}

/// `check REPORT.json`: gate a table1 run report. It reads no flag, so
/// a retired mode (`--load`, `--audit`) cannot quietly gate its file as
/// a table1 report.
fn check(args: &[String]) -> ExitCode {
    if let Some(flag) = feral_cli::unknown_flag(args, &[]) {
        die(TOOL, &format!("unknown flag `{flag}`\n{CHECK_USAGE}"));
    }
    let Some(path) = args.first() else {
        die(TOOL, CHECK_USAGE)
    };
    let read = std::fs::read_to_string(path)
        .map_err(|e| format!("reading {path}: {e}"))
        .and_then(|text| RunReport::from_json(&text).map_err(|e| format!("{path}: {e}")));
    match read {
        Ok(report) => {
            println!(
                "check: {path} OK ({} cells, {} witnessed provenance records)",
                report.cells.len(),
                report.witnessed()
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{TOOL}: check: {msg}");
            ExitCode::from(feral_cli::EXIT_DEVIATION)
        }
    }
}

/// For every series and every x, the mean and standard deviation of
/// [`RUNS`] measurements `measure(series, x, run)`: one table row each.
fn sweep<S: Copy>(
    series: &[(S, &str)],
    x_name: &str,
    xs: &[u64],
    measure: impl Fn(S, u64, u64) -> u64,
) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for &(s, label) in series {
        for &x in xs {
            let samples: Vec<f64> = (0..RUNS).map(|run| measure(s, x, run) as f64).collect();
            let (mean, std) = mean_std(&samples);
            eprintln!("  {label} {x_name}={x}: {mean:.1} ± {std:.1}");
            rows.push(vec![
                label.to_string(),
                x.to_string(),
                format!("{mean:.1}"),
                format!("{std:.1}"),
            ]);
        }
    }
    rows
}

/// Enforcement series, labelled as the figures plot them.
fn enforcement_series(enforcements: &[Enforcement]) -> Vec<(Enforcement, &'static str)> {
    enforcements.iter().map(|&e| (e, e.label())).collect()
}

/// Figures 2 and 4: rounds, concurrent requests per round, worker counts.
fn stress_shape(size: Size) -> (usize, usize, &'static [u64]) {
    size.pick(
        (4, 8, &[1, 2, 4]),
        (30, 32, &[1, 2, 4, 8, 16]),
        (100, 64, &[1, 2, 4, 8, 16, 32, 64]),
    )
}

/// Figures 3 and 5: clients, and operations per client.
fn workload_shape(size: Size) -> (usize, usize) {
    size.pick((4, 5), (16, 50), (64, 100))
}

fn verdict_name(kind: &str) -> &'static str {
    let ins = classify_validator(kind, OperationMix::InsertionsOnly);
    let del = classify_validator(kind, OperationMix::WithDeletions);
    match (ins, del) {
        (Safety::IConfluent, Safety::IConfluent) => "Yes",
        (Safety::NotIConfluent, _) => "No",
        (Safety::IConfluent, Safety::NotIConfluent) => "Depends",
    }
}

/// **Table 1**: synthesize the corpus, run the static analyzer,
/// aggregate validator kinds and classify each with the model checker;
/// then a lint-measured companion table (how much of the corpus's feral
/// enforcement a database constraint backs), and the trace-instrumented
/// uniqueness cells, written as the run report.
fn table1(args: &Args, size: Size) {
    eprintln!(
        "synthesizing 67-application corpus (seed {CORPUS_SEED}) and running the analyzer..."
    );
    let corpus = synthesize_corpus(CORPUS_SEED);
    let s = survey(&corpus);
    let (top, other, custom) = s.table_one(10);

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (name, count) in &top {
        let checker = match derive_safety(name, OperationMix::WithDeletions) {
            Some(Safety::IConfluent) => "confluent",
            Some(Safety::NotIConfluent) => "counterexample",
            None => "-",
        };
        rows.push(vec![
            name.clone(),
            count.to_string(),
            verdict_name(name).to_string(),
            checker.to_string(),
        ]);
    }
    rows.push(vec![
        "Other".into(),
        other.to_string(),
        String::new(),
        String::new(),
    ]);
    rows.push(vec![
        "custom (UDF)".into(),
        custom.to_string(),
        "42 of 60 I-confluent (paper §4.3)".into(),
        String::new(),
    ]);
    print_table(
        "Table 1: built-in validation usage and I-confluence",
        &[
            "validator",
            "occurrences",
            "I-confluent?",
            "checker(with deletions)",
        ],
        &rows,
    );

    println!("\npaper reference (Table 1):");
    for r in TABLE_ONE {
        println!("  {:40} {:>5}", r.name, r.occurrences);
    }
    let total: usize = top.iter().map(|(_, c)| c).sum::<usize>() + other + custom;
    println!("\ntotal validations: {total} (paper: 3505, of which 60 UDFs)");
    let ins = feral_iconfluence::safe_fraction(OperationMix::InsertionsOnly) * 100.0;
    let del = feral_iconfluence::safe_fraction(OperationMix::WithDeletions) * 100.0;
    println!("I-confluent share under insertions: {ins:.1}% (paper: 86.9%)");
    println!("I-confluent share under deletions:  {del:.1}% (paper: 36.6%)");

    eprintln!("\nlinting the corpus (feral-lint, witnesses off)...");
    let run = lint_apps(&corpus, &LintOptions { witnesses: false });
    let mut lint_rows: Vec<Vec<String>> = Vec::new();
    for rule in RULES {
        let findings: Vec<_> = run
            .apps
            .iter()
            .flat_map(|a| &a.findings)
            .filter(|f| f.rule == rule.id)
            .collect();
        let apps = run
            .apps
            .iter()
            .filter(|a| a.findings.iter().any(|f| f.rule == rule.id))
            .count();
        let sev = findings
            .first()
            .map(|f| match f.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            })
            .unwrap_or("-");
        lint_rows.push(vec![
            format!("{} {}", rule.id, rule_meta(rule.id).name),
            findings.len().to_string(),
            apps.to_string(),
            sev.to_string(),
        ]);
    }
    print_table(
        "Lint companion: unbacked feral enforcement across the corpus (DESIGN.md §7)",
        &["rule", "findings", "apps", "severity"],
        &lint_rows,
    );

    let smoke = size == Size::Smoke;
    let shape = if smoke {
        CellShape::smoke()
    } else {
        CellShape::full()
    };
    eprintln!(
        "\nrunning {} trace-instrumented uniqueness cells ({} workers x {} rounds x {} concurrent{})...",
        CELL_GRID.len(),
        shape.workers,
        shape.rounds,
        shape.concurrent,
        if smoke { ", smoke" } else { "" }
    );
    let report = run_trace_cells(shape, CORPUS_SEED, smoke);

    let mut cell_rows: Vec<Vec<String>> = Vec::new();
    for c in &report.cells {
        let stat = |name: &str| {
            c.stats
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let request_p95 = c
            .histograms
            .iter()
            .find(|(n, _)| n == "request")
            .map(|(_, h)| h.quantile(0.95))
            .unwrap_or(0);
        cell_rows.push(vec![
            c.label.clone(),
            c.duplicates.to_string(),
            c.rows.to_string(),
            c.rejected.to_string(),
            stat("commits").to_string(),
            stat("validation_probes").to_string(),
            format!("{:.2}", request_p95 as f64 / 1e6),
            c.provenance.len().to_string(),
        ]);
    }
    print_table(
        "Trace cells: uniqueness stress per isolation level (run report)",
        &[
            "cell",
            "dups",
            "rows",
            "rejected",
            "commits",
            "probes",
            "req p95 (ms)",
            "explained",
        ],
        &cell_rows,
    );

    let json = report.to_json();
    if let Err(e) = RunReport::from_json(&json) {
        eprintln!("generated run report fails its own reader: {e}");
        std::process::exit(feral_cli::EXIT_DEVIATION.into());
    }
    let out = args.get_str("out").unwrap_or("BENCH_table1.json");
    std::fs::write(out, &json).unwrap_or_else(|e| die(TOOL, &format!("writing {out}: {e}")));
    println!(
        "\nrun report written to {out} ({} cells, self-validated)",
        report.cells.len()
    );
    if let Some(prom) = args.get_str("prom") {
        std::fs::write(prom, report.to_prometheus())
            .unwrap_or_else(|e| die(TOOL, &format!("writing {prom}: {e}")));
        println!("prometheus metrics written to {prom}");
    }
}

/// **Table 2**: the per-application survey of models, transactions,
/// locks, validations and associations, with the corpus-wide averages,
/// Figure 1's per-model dotted lines and the feral-vs-transactional
/// usage ratios.
fn table2(_: &Args, _: Size) {
    eprintln!("synthesizing corpus (seed {CORPUS_SEED}) and running the syntactic analyzer...");
    let s = survey(&synthesize_corpus(CORPUS_SEED));

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (row, truth) in s.rows.iter().zip(TABLE_TWO.iter()) {
        rows.push(vec![
            row.name.clone(),
            row.models.to_string(),
            row.transactions.to_string(),
            row.pessimistic_locks.to_string(),
            row.optimistic_locks.to_string(),
            row.validations.to_string(),
            row.associations.to_string(),
            // measured-vs-paper check mark
            if row.models as u32 == truth.models
                && row.transactions as u32 == truth.transactions
                && row.validations as u32 == truth.validations
                && row.associations as u32 == truth.associations
            {
                "ok".into()
            } else {
                "MISMATCH".into()
            },
        ]);
    }
    print_table(
        "Table 2: measured per-application mechanism usage (M/T/PL/OL/V/A)",
        &["application", "M", "T", "PL", "OL", "V", "A", "vs paper"],
        &rows,
    );

    let (m, t, pl, ol, v, a) = s.averages();
    println!("\naverages per application (paper values in parentheses):");
    println!("  models        {m:8.2}  (29.07)");
    println!("  transactions  {t:8.2}  (3.84)");
    println!("  pess. locks   {pl:8.2}  (0.24)");
    println!("  opt. locks    {ol:8.2}  (0.10)");
    println!("  validations   {v:8.2}  (52.31)");
    println!("  associations  {a:8.2}  (92.87)");

    let (tpm, lpm, vpm, apm) = s.per_model();
    println!("\nFigure 1 dotted lines — per-model usage (paper values):");
    println!("  transactions/model  {tpm:6.3}  (0.13)");
    println!("  locks/model         {lpm:6.3}  (0.01)");
    println!("  validations/model   {vpm:6.3}  (1.80)");
    println!("  associations/model  {apm:6.3}  (3.19)");

    let (vr, ar) = s.feral_ratios();
    println!("\nferal-vs-transactional ratios (paper values):");
    println!("  validations / transactions   {vr:6.1}x  (13.6x)");
    println!("  associations / transactions  {ar:6.1}x  (24.2x)");
    println!("  combined                     {:6.1}x  (>37x)", vr + ar);
    println!(
        "\napplications using transactions: {:.1}% (paper: 68.7%); using locks: {} (paper: 6)",
        s.fraction_with_transactions() * 100.0,
        s.apps_with_locks()
    );
}

/// **Figure 1**: the per-application series (models, and transactions,
/// validations and associations per model) in Table 2's order, with the
/// corpus averages (the paper's dotted lines).
fn fig1(_: &Args, _: Size) {
    eprintln!("synthesizing corpus (seed {CORPUS_SEED}) and measuring the Figure 1 series...");
    let s = survey(&synthesize_corpus(CORPUS_SEED));

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, row) in s.rows.iter().enumerate() {
        let m = row.models.max(1) as f64;
        rows.push(vec![
            format!("{}", i + 1),
            row.name.clone(),
            row.models.to_string(),
            format!("{:.2}", row.transactions as f64 / m),
            format!("{:.2}", row.validations as f64 / m),
            format!("{:.2}", row.associations as f64 / m),
        ]);
    }
    print_table(
        "Figure 1: per-application mechanism usage (project order = Table 2)",
        &[
            "#",
            "application",
            "models",
            "txns/model",
            "validations/model",
            "assoc/model",
        ],
        &rows,
    );

    let (tpm, _lpm, vpm, apm) = s.per_model();
    let (m_avg, ..) = s.averages();
    println!("\ndotted-line averages (paper values in parentheses):");
    println!("  models per app       {m_avg:6.2}  (29.07)");
    println!("  transactions/model   {tpm:6.3}  (0.13)");
    println!("  validations/model    {vpm:6.3}  (1.80)");
    println!("  associations/model   {apm:6.3}  (3.19)");
}

/// **Figure 2**: rounds of same-key insertions against a growing worker
/// pool, without validation, with the feral validation, and with the
/// in-database unique index. `--isolation serializable` is anomaly-free;
/// adding `--pg-ssi-bug` reproduces footnote 8.
///
/// Paper reference (`--full`): without validation 6300 duplicates at
/// every P; with validation 0 at P=1, 70 at P=2, 249 at P=3, peaking near
/// P=16 under ~700; the unique index admits zero.
fn fig2(args: &Args, size: Size) {
    let (rounds, concurrent, workers) = stress_shape(size);
    let env = ExperimentEnv {
        isolation: args
            .get_str("isolation")
            .map(|s| feral_cli::parse_isolation(TOOL, s))
            .unwrap_or(IsolationLevel::ReadCommitted),
        pg_ssi_bug: args.has("pg-ssi-bug"),
        ..ExperimentEnv::default()
    };
    eprintln!(
        "fig2: {rounds} rounds x {concurrent} concurrent inserts, isolation={}, \
         pg_ssi_bug={}, {RUNS} runs/point",
        env.isolation, env.pg_ssi_bug
    );
    let series = [Enforcement::None, Enforcement::Feral, Enforcement::Database];
    let rows = sweep(&enforcement_series(&series), "P", workers, |e, p, run| {
        let seed = 0xF162 + run * 7919 + p;
        uniqueness_stress(e, &env, p as usize, rounds, concurrent, seed).duplicates
    });
    print_table(
        "Figure 2: duplicate records vs number of Rails workers",
        &["series", "workers", "duplicates(mean)", "stddev"],
        &rows,
    );
    println!(
        "\nexpected shape: without-validation = rounds*(concurrent-1) everywhere; \
         with-validation = 0 at P=1, rising with P but ~an order of magnitude lower; \
         with-db-constraint = 0 everywhere."
    );
}

/// **Figure 3**: duplicates of the feral-validated uniqueness workload
/// across key distributions (Uniform, YCSB Zipfian, LinkBench insert and
/// update traffic) as the number of possible keys grows.
///
/// Paper reference: uniform is a non-monotone hump (≈2.3 duplicates at 1
/// key, ≈26 at 1000, 0 at 1M); YCSB's hot key keeps duplicates high;
/// LinkBench falls off faster.
fn fig3(_: &Args, size: Size) {
    let (clients, ops) = workload_shape(size);
    let keys: &[u64] = size.pick(
        &[1, 10, 100],
        &[1, 10, 100, 1_000, 10_000],
        &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000],
    );
    eprintln!("fig3: {clients} clients x {ops} ops, {RUNS} runs/point (feral validation)");
    let env = ExperimentEnv::default();
    let series = ["uniform", "ycsb", "linkbench-insert", "linkbench-update"].map(|d| (d, d));
    let rows = sweep(&series, "keys", keys, |dist, keys, run| {
        let seed = 0xF163 ^ (keys << 8) ^ run;
        let chooser = |c: usize| by_name(dist, keys, seed + c as u64 * 131).expect("distribution");
        uniqueness_workload(Enforcement::Feral, &env, clients, ops, chooser, seed).duplicates
    });
    print_table(
        "Figure 3: duplicate records vs number of possible keys",
        &["distribution", "keys", "duplicates(mean)", "stddev"],
        &rows,
    );
    println!(
        "\nexpected shape: uniform is non-monotone (collision probability falls while \
         post-write visibility rises) and reaches ~0 by 1M keys; YCSB stays high \
         (one very hot key); LinkBench decays faster than YCSB."
    );
}

/// **Figure 4**: per department, one department destroy racing
/// concurrent user creations against a growing worker pool; orphaned
/// users counted by Appendix C.5's LEFT OUTER JOIN.
///
/// Paper reference (`--full`): without constraints 6400 orphans; the
/// feral association's orphans grow with the worker count; the
/// in-database FK admits zero.
fn fig4(_: &Args, size: Size) {
    let (rounds, inserters, workers) = stress_shape(size);
    eprintln!("fig4: {rounds} departments x (1 destroy + {inserters} inserts), {RUNS} runs/point");
    let env = ExperimentEnv::default();
    let series = [Enforcement::None, Enforcement::Feral, Enforcement::Database];
    let rows = sweep(&enforcement_series(&series), "P", workers, |e, p, run| {
        let seed = 0xF164 + run * 104729 + p;
        association_stress(e, &env, p as usize, rounds, inserters, seed).orphans
    });
    print_table(
        "Figure 4: orphaned users vs number of Rails workers",
        &["series", "workers", "orphans(mean)", "stddev"],
        &rows,
    );
    println!(
        "\nexpected shape: without-validation = rounds*inserters everywhere; \
         with-validation grows with worker parallelism toward the unprotected series; \
         with-db-constraint = 0 everywhere."
    );
}

/// **Figure 5**: clients issue user creations and department destroys
/// at 10:1 over a varying number of departments (Appendix C.6); orphaned
/// users counted.
///
/// Paper reference: with one department everything contends; as
/// departments increase a racing insert and delete grow rarer, so
/// orphans fall.
fn fig5(_: &Args, size: Size) {
    let (clients, ops) = workload_shape(size);
    let departments: &[u64] = size.pick(
        &[1, 10, 100],
        &[1, 10, 100, 1_000],
        &[1, 10, 100, 1_000, 10_000],
    );
    eprintln!("fig5: {clients} clients x {ops} ops at 10:1 create:destroy, {RUNS} runs/point");
    let env = ExperimentEnv::default();
    let series = [Enforcement::Feral, Enforcement::Database];
    let rows = sweep(
        &enforcement_series(&series),
        "departments",
        departments,
        |e, d, run| {
            let seed = 0xF165 + run * 7 + d;
            association_workload(e, &env, clients, ops, d, seed).orphans
        },
    );
    print_table(
        "Figure 5: orphaned users vs number of departments",
        &["series", "departments", "orphans(mean)", "stddev"],
        &rows,
    );
    println!(
        "\nexpected shape: feral orphans peak at moderate department counts and \
         fall as contention disperses; the in-database FK admits zero."
    );
}

/// **Figure 6**: the median fraction of final models, validations,
/// associations and transactions present at each point of a project's
/// commit history.
///
/// Paper reference: "additions to the data model precede (often by a
/// considerable amount) additional uses of transactions, validations, and
/// associations."
fn fig6(_: &Args, size: Size) {
    let (apps, checkpoints) = size.pick((8, 4), (67, 10), (67, 10));
    eprintln!("fig6: synthesizing corpus and re-analyzing at {checkpoints} checkpoints...");
    let corpus: Vec<_> = synthesize_corpus(CORPUS_SEED)
        .into_iter()
        .take(apps)
        .collect();
    let rows: Vec<Vec<String>> = history(&corpus, checkpoints)
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.commit_fraction * 100.0),
                format!("{:.1}%", p.models * 100.0),
                format!("{:.1}%", p.validations * 100.0),
                format!("{:.1}%", p.associations * 100.0),
                format!("{:.1}%", p.transactions * 100.0),
            ]
        })
        .collect();
    print_table(
        "Figure 6: median % of final occurrences vs % of commit history",
        &[
            "history",
            "models",
            "validations",
            "associations",
            "transactions",
        ],
        &rows,
    );
    println!(
        "\nexpected shape: the models curve dominates the concurrency-control curves \
         through the middle of each project's history (data model stabilizes first)."
    );
}

/// **Figure 7**: CDFs of the authorship of invariants (validations plus
/// associations) against that of commits.
///
/// Paper reference: "95% of all commits are authored by 42.4% of authors
/// \[but\] 95% of invariants ... are authored by only 20.3% of authors".
fn fig7(_: &Args, _: Size) {
    eprintln!("fig7: computing authorship CDFs over the synthesized corpus...");
    let cdf = authorship(&synthesize_corpus(CORPUS_SEED), 20);
    let rows: Vec<Vec<String>> = cdf
        .author_fraction
        .iter()
        .zip(cdf.commits.iter().zip(cdf.invariants.iter()))
        .map(|(x, (c, i))| {
            vec![
                format!("{:.0}%", x * 100.0),
                format!("{:.1}%", c * 100.0),
                format!("{:.1}%", i * 100.0),
            ]
        })
        .collect();
    print_table(
        "Figure 7: average authorship CDFs",
        &["top authors", "commits covered", "invariants covered"],
        &rows,
    );
    let c95 = cdf.authors_for_commit_share(0.95) * 100.0;
    let i95 = cdf.authors_for_invariant_share(0.95) * 100.0;
    println!("\n95% of commits need the top {c95:.1}% of authors (paper: 42.4%)");
    println!("95% of invariants need the top {i95:.1}% of authors (paper: 20.3%)");
}

/// Race `threads` same-login signups per round for `rounds` rounds;
/// return the accounts beyond one per login.
fn race_duplicates(app: &App, threads: usize, rounds: usize) -> usize {
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for r in 0..rounds {
                    barrier.wait();
                    let mut s = app.session();
                    let _ = s.create("Account", &[("login", Datum::text(format!("u{r}")))]);
                }
            });
        }
    });
    let accounts = app.session().count("Account").expect("count accounts");
    accounts - rounds.min(accounts)
}

/// **Section 6**: the cross-framework survey, executed — each
/// framework's enforcement profile is applied to the same application
/// and a concurrent duplicate signup race shows which profiles admit
/// anomalies.
fn frameworks(_: &Args, size: Size) {
    let (threads, rounds) = size.pick((4, 5), (8, 30), (8, 30));
    let env = ExperimentEnv::default();
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let app = App::new(Database::new(Config::default()));
        app.define(
            ModelDef::build("Account")
                .string("login")
                .validates_presence_of("login")
                .validates_uniqueness_of("login")
                .finish(),
        )
        .expect("define Account");
        profile
            .apply_uniqueness(&app, "Account", "login")
            .expect("apply the profile");
        app.set_validation_write_delay(env.delay);
        let dups = race_duplicates(&app, threads, rounds);
        let safe = profile.uniqueness == feral_orm::frameworks::Enforcement::Database;
        rows.push(vec![
            format!("{} {}", profile.name, profile.version),
            format!("{:?}", profile.uniqueness),
            format!("{:?}", profile.foreign_keys),
            profile.validations_in_transaction.to_string(),
            dups.to_string(),
            if safe { "safe" } else { "unsafe" }.into(),
        ]);
        eprintln!("  {}: {dups} duplicates", profile.name);
    }
    print_table(
        "Section 6: cross-framework uniqueness enforcement, executed",
        &[
            "framework",
            "uniqueness",
            "foreign keys",
            "validations in txn",
            "measured dups",
            "verdict",
        ],
        &rows,
    );
    println!(
        "\nframeworks with Database uniqueness enforcement (JPA, Django, Waterline) \
         measure zero duplicates; Application/ManualSchema profiles (Rails, Hibernate, \
         CakePHP, Laravel) can race."
    );
}

/// The validators `KeyValue` declares, in declaration order.
const DECLARED: [&str; 3] = [
    "validates_presence_of_attribute",
    "validates_length_of",
    "validates_uniqueness_of",
];

/// **Section 7 ablation**: feral-only vs always-database vs the
/// invariant-aware *domesticated* configuration, which routes each of
/// `KeyValue`'s declared validators with [`coordination_free`] (the
/// paper's "Depends" verdicts resolved against deletions) and backs only
/// the non-I-confluent ones with a database constraint. Every row runs
/// the same [`uniqueness_stress`] load.
fn ablation(_: &Args, size: Size) {
    let (workers, rounds, concurrent) = size.pick((4, 4, 8), (8, 40, 16), (8, 40, 16));
    let mix = OperationMix::WithDeletions;
    let env = ExperimentEnv::default();

    let coordinated: Vec<&str> = DECLARED
        .into_iter()
        .filter(|kind| !coordination_free(kind, mix))
        .collect();
    // the only database constraint `KeyValue` can carry is the unique
    // index on `key`, which backs uniqueness
    let domesticated = match coordinated.as_slice() {
        [] => Enforcement::Feral,
        ["validates_uniqueness_of"] => Enforcement::Database,
        other => panic!("no database constraint backs {other:?}"),
    };

    let rows: Vec<Vec<String>> = [
        ("feral-only", Enforcement::Feral, "no coordination".into()),
        (
            "always-database",
            Enforcement::Database,
            "uniqueness coordinated".into(),
        ),
        (
            "domesticated",
            domesticated,
            format!(
                "{} of {} invariants coordinated",
                coordinated.len(),
                DECLARED.len()
            ),
        ),
    ]
    .into_iter()
    .map(|(label, enforcement, coordination)| {
        let start = Instant::now();
        let r = uniqueness_stress(enforcement, &env, workers, rounds, concurrent, 0xAB1A);
        vec![
            label.to_string(),
            r.duplicates.to_string(),
            format!("{:.2}s", start.elapsed().as_secs_f64()),
            coordination,
        ]
    })
    .collect();

    print_table(
        "Section 7 ablation: anomalies and coordination by enforcement strategy",
        &["strategy", "duplicates", "wall time", "coordination"],
        &rows,
    );
    for kind in DECLARED {
        let route = if coordinated.contains(&kind) {
            "database unique index"
        } else {
            "coordination-free"
        };
        let source = if derive_safety(kind, mix).is_some() {
            "checker-derived"
        } else {
            "Table 1"
        };
        println!("  plan: KeyValue {kind} -> {route} ({source})");
    }
}
