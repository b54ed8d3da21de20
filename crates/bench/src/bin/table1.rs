//! Regenerate **Table 1**: use of and invariant confluence of built-in
//! validations — by synthesizing the corpus, running the static analyzer,
//! aggregating validator kinds, and classifying each with the model
//! checker — plus a lint-measured companion table: how much of the
//! corpus's feral enforcement is actually backed by database
//! constraints, per `feral-lint`'s rule catalog.
//!
//! The run also executes the trace-instrumented uniqueness cells
//! (every isolation level, feral and database enforcement) and writes
//! the machine-readable run report to `BENCH_table1.json` (override
//! with `--out`, Prometheus text with `--prom`). `--smoke` shrinks the
//! cell shape for the tier-1 gate.

use feral_bench::trace_report::{run_trace_cells, CellShape, CELL_GRID};
use feral_bench::{print_table, Args};
use feral_corpus::{survey, synthesize_corpus};
use feral_iconfluence::{classify_validator, derive_safety, OperationMix, Safety, TABLE_ONE};
use feral_lint::rules::{rule_meta, Severity, RULES};
use feral_lint::{lint_apps, LintOptions};

fn verdict_name(kind: &str) -> &'static str {
    let ins = classify_validator(kind, OperationMix::InsertionsOnly);
    let del = classify_validator(kind, OperationMix::WithDeletions);
    match (ins, del) {
        (Safety::IConfluent, Safety::IConfluent) => "Yes",
        (Safety::NotIConfluent, _) => "No",
        (Safety::IConfluent, Safety::NotIConfluent) => "Depends",
    }
}

fn main() {
    let args = Args::from_env();
    let seed = args.get_u64("seed", 2015);
    eprintln!("synthesizing 67-application corpus (seed {seed}) and running the analyzer...");
    let corpus = synthesize_corpus(seed);
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

    let smoke = args.has("smoke");
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
    let report = run_trace_cells(shape, seed, smoke);

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
    if let Err(e) = feral_trace::report::validate_report(&json) {
        eprintln!("generated run report failed self-validation: {e}");
        std::process::exit(feral_cli::EXIT_DEVIATION.into());
    }
    let out = args.get_str("out").unwrap_or("BENCH_table1.json");
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!(
        "\nrun report written to {out} ({} cells, self-validated)",
        report.cells.len()
    );
    if let Some(prom) = args.get_str("prom") {
        std::fs::write(prom, report.to_prometheus())
            .unwrap_or_else(|e| panic!("writing {prom}: {e}"));
        println!("prometheus metrics written to {prom}");
    }
}
