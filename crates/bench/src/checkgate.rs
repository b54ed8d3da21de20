//! The tier-1 run-report gate as a library: schema-validate a
//! `BENCH_table1.json` artifact and enforce the smoke-gate invariants
//! from the *outside*, independent of the writer's self-validation.
//! `feral-paper check` is a thin wrapper; the failure paths live here
//! where they are testable.

use feral_trace::json::Json;
use feral_trace::report::validate_report;

/// What a passing gate saw, for the one-line OK message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateSummary {
    /// Cells in the report.
    pub cells: usize,
    /// Provenance records carrying a replayable witness.
    pub witnessed: usize,
}

/// Gate a report's JSON text: parse + schema-validate via
/// `feral_trace::report::validate_report`, then require that every cell
/// committed work and that at least one provenance record explains its
/// anomaly with a replayable `feral-sim` witness.
pub fn check_report_text(text: &str) -> Result<GateSummary, String> {
    let doc = validate_report(text)?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| "report has no cells array".to_string())?;
    let mut witnessed = 0usize;
    for cell in cells {
        let label = cell
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| "cell without a label".to_string())?;
        let commits = cell
            .get("stats")
            .and_then(|s| s.get("commits"))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("cell {label}: no commits counter"))?;
        if commits == 0 {
            return Err(format!("cell {label}: zero commits"));
        }
        let provenance = cell
            .get("provenance")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("cell {label}: no provenance array"))?;
        for p in provenance {
            let has_witness = p.get("witness").map(|w| *w != Json::Null).unwrap_or(false);
            if has_witness {
                witnessed += 1;
            }
        }
    }
    if witnessed == 0 {
        return Err("no provenance record carries a replayable witness".to_string());
    }
    Ok(GateSummary {
        cells: cells.len(),
        witnessed,
    })
}

/// File-path variant: read, then gate. A missing or unreadable file is
/// a gate failure, not a panic.
pub fn check_report_file(path: &str) -> Result<GateSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    check_report_text(&text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_trace::hist::Histogram;
    use feral_trace::provenance::{ProvenanceRecord, RacingTxn, Witness};
    use feral_trace::report::{CellReport, RunReport};

    /// A minimal well-formed report: one committed cell, one witnessed
    /// provenance record. Mirrors the writer-side `sample_report` in
    /// `feral_trace::report`.
    fn passing_report() -> RunReport {
        let latency = Histogram::new();
        latency.record(1_000);
        latency.record(2_000);
        RunReport {
            report: "table1-smoke".to_string(),
            smoke: true,
            seed: 42,
            cells: vec![CellReport {
                label: "uniqueness/feral".to_string(),
                isolation: "read committed".to_string(),
                enforcement: "feral".to_string(),
                workers: 2,
                rounds: 8,
                concurrent: 2,
                duplicates: 1,
                rows: 9,
                rejected: 0,
                stats: vec![("commits".to_string(), 9), ("aborts".to_string(), 0)],
                histograms: vec![("txn_latency".to_string(), latency.snapshot())],
                provenance: vec![ProvenanceRecord {
                    anomaly: "duplicate-key".to_string(),
                    table: "key_values".to_string(),
                    key: "dup".to_string(),
                    key_hash: 7,
                    racing: vec![
                        RacingTxn {
                            worker: 0,
                            txn: 1,
                            probe_seq: 1,
                            probe_ts: 10,
                            write_seq: 3,
                            write_ts: 30,
                        },
                        RacingTxn {
                            worker: 1,
                            txn: 2,
                            probe_seq: 2,
                            probe_ts: 20,
                            write_seq: 4,
                            write_ts: 40,
                        },
                    ],
                    overlap_nanos: 20,
                    witness: Some(Witness {
                        scenario: "uniqueness".to_string(),
                        isolation: "read-committed".to_string(),
                        guard: "feral".to_string(),
                        workers: 2,
                        replay: "feral-sim replay --scenario uniqueness --seed 3".to_string(),
                        message: "duplicate key admitted".to_string(),
                    }),
                    flight: vec!["w0 probe".to_string(), "w1 probe".to_string()],
                }],
            }],
        }
    }

    #[test]
    fn well_formed_witnessed_report_passes() {
        let summary = check_report_text(&passing_report().to_json()).expect("gate passes");
        assert_eq!(
            summary,
            GateSummary {
                cells: 1,
                witnessed: 1
            }
        );
    }

    #[test]
    fn missing_file_is_a_gate_failure() {
        let err = check_report_file("/nonexistent/BENCH_table1.json").unwrap_err();
        assert!(
            err.contains("reading /nonexistent/BENCH_table1.json"),
            "{err}"
        );
    }

    #[test]
    fn invalid_json_is_a_gate_failure() {
        assert!(check_report_text("{not json").is_err());
        assert!(check_report_text("").is_err());
        // valid JSON, wrong schema
        assert!(check_report_text("{\"tool\":\"other\"}").is_err());
    }

    #[test]
    fn zero_commit_cell_fails_the_gate() {
        let mut report = passing_report();
        report.cells[0].stats = vec![("commits".to_string(), 0)];
        let err = check_report_text(&report.to_json()).unwrap_err();
        assert!(err.contains("zero commits"), "{err}");

        // a cell with no commits counter at all is equally fatal
        let mut report = passing_report();
        report.cells[0].stats = vec![("aborts".to_string(), 3)];
        let err = check_report_text(&report.to_json()).unwrap_err();
        assert!(err.contains("no commits counter"), "{err}");
    }

    #[test]
    fn report_without_any_witness_fails_the_gate() {
        let mut report = passing_report();
        report.cells[0].provenance[0].witness = None;
        let err = check_report_text(&report.to_json()).unwrap_err();
        assert!(
            err.contains("no provenance record carries a replayable witness"),
            "{err}"
        );
    }
}
