//! The tier-1 run-report gate as a library: schema-validate a
//! `BENCH_table1.json` artifact and enforce the smoke-gate invariants
//! from the *outside*, independent of the writer's self-validation.
//! The `checkreport` binary is a thin wrapper; the failure paths live
//! here where they are testable.

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

/// What a passing audit-bench gate saw, for the one-line OK message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditGateSummary {
    /// Auditor configurations in the artifact.
    pub configs: usize,
    /// Sampled-mode throughput relative to auditor-off.
    pub sampled_vs_off: f64,
}

/// Gate a `BENCH_audit.json` artifact from the outside, independent of
/// the writer's self-gating: well-formed envelope, one row per auditor
/// mode with committed work, every audited row embedding a
/// schema-valid audit snapshot with zero anomaly cycles (the certified
/// plan must audit clean), and the writer's own gate verdicts all true
/// with the sampled-overhead ratio meeting its recorded requirement.
pub fn check_audit_bench_text(text: &str) -> Result<AuditGateSummary, String> {
    let doc = feral_trace::json::parse(text)?;
    if doc.get("bench").and_then(Json::as_str) != Some("audit") {
        return Err("not an audit bench artifact (bench != \"audit\")".to_string());
    }
    let configs = doc
        .get("configs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "artifact has no configs array".to_string())?;
    let mut modes_seen = Vec::new();
    for c in configs {
        let name = c
            .get("config")
            .and_then(Json::as_str)
            .ok_or_else(|| "config row without a name".to_string())?;
        let mode = c
            .get("audit_mode")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("config {name}: no audit_mode"))?;
        modes_seen.push(mode.split('/').next().unwrap_or(mode).to_string());
        let committed = c
            .get("committed")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("config {name}: no committed counter"))?;
        if committed == 0 {
            return Err(format!("config {name}: zero committed transactions"));
        }
        let snapshot = c
            .get("audit")
            .ok_or_else(|| format!("config {name}: no audit member"))?;
        if mode == "off" {
            continue;
        }
        if *snapshot == Json::Null {
            return Err(format!("config {name}: audited mode without a snapshot"));
        }
        feral_audit::validate_audit(snapshot).map_err(|e| format!("config {name}: {e}"))?;
        let cycles = c
            .get("cycles")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("config {name}: no cycles counter"))?;
        if cycles != 0 {
            return Err(format!(
                "config {name}: certified plan produced {cycles} anomaly cycles"
            ));
        }
    }
    for required in ["off", "sampled", "full"] {
        if !modes_seen.iter().any(|m| m == required) {
            return Err(format!("artifact is missing the {required} auditor mode"));
        }
    }
    let gates = doc
        .get("gates")
        .ok_or_else(|| "artifact has no gates object".to_string())?;
    for verdict in ["overhead", "planned_runs_clean", "audit_schema", "pass"] {
        if gates.get(verdict).and_then(Json::as_bool) != Some(true) {
            return Err(format!("gate verdict {verdict} is not true"));
        }
    }
    let ratio = gates
        .get("sampled_vs_off_ratio")
        .and_then(Json::as_f64)
        .ok_or_else(|| "gates object has no sampled_vs_off_ratio".to_string())?;
    let required = gates
        .get("required")
        .and_then(Json::as_f64)
        .ok_or_else(|| "gates object has no required ratio".to_string())?;
    if ratio < required {
        return Err(format!(
            "sampled_vs_off_ratio {ratio:.3} is below the required {required}"
        ));
    }
    Ok(AuditGateSummary {
        configs: configs.len(),
        sampled_vs_off: ratio,
    })
}

/// File-path variant of [`check_audit_bench_text`].
pub fn check_audit_bench_file(path: &str) -> Result<AuditGateSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    check_audit_bench_text(&text).map_err(|e| format!("{path}: {e}"))
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

    /// A minimal well-formed audit bench artifact: three auditor modes,
    /// committed work everywhere, a real (schema-valid) embedded
    /// snapshot on the audited rows, and all writer gates true. With
    /// `full_has_snapshot: false` the full row's snapshot is nulled —
    /// the shape the gate must reject.
    fn audit_artifact(full_has_snapshot: bool) -> String {
        let auditor = feral_audit::Auditor::new(feral_audit::AuditMode::Full);
        auditor.observe_begin(1, 1);
        auditor.observe_commit(feral_audit::TxnFootprint {
            txn: 1,
            begin_ts: 1,
            commit_ts: 2,
            isolation: "serializable",
            template: Some("T_TEST"),
            reads: Vec::new(),
            writes: Vec::new(),
            sampled_out: false,
        });
        let snap = auditor.snapshot().to_json();
        let audited = |name: &str, mode: &str, snapshot: &str| {
            format!(
                "{{\"config\": \"{name}\", \"audit_mode\": \"{mode}\", \"committed\": 640, \
                 \"cycles\": 0, \"audit\": {snapshot}}}"
            )
        };
        format!(
            "{{\"bench\": \"audit\", \"configs\": [\
             {{\"config\": \"auditor-off\", \"audit_mode\": \"off\", \"committed\": 640, \
             \"audit\": null}}, {}, {}],\n\
             \"gates\": {{\"sampled_vs_off_ratio\": 0.973, \"required\": 0.95, \
             \"full_vs_off_ratio\": 0.61, \"overhead\": true, \"planned_runs_clean\": true, \
             \"audit_schema\": true, \"pass\": true}}}}",
            audited("sampled", "sampled/64", &snap),
            audited(
                "full",
                "full",
                if full_has_snapshot { &snap } else { "null" }
            ),
        )
    }

    #[test]
    fn well_formed_audit_artifact_passes() {
        let summary = check_audit_bench_text(&audit_artifact(true)).expect("gate passes");
        assert_eq!(summary.configs, 3);
        assert!((summary.sampled_vs_off - 0.973).abs() < 1e-9);
    }

    #[test]
    fn audit_artifact_failures_are_gate_failures() {
        // not an audit artifact at all
        assert!(check_audit_bench_text("{\"bench\": \"other\"}").is_err());
        let good = audit_artifact(true);
        // an anomaly cycle on an audited row (the pattern includes the
        // neighbouring keys so the embedded snapshot's own cycles
        // counter is left alone)
        let err = check_audit_bench_text(
            &good.replace(", \"cycles\": 0, \"audit\"", ", \"cycles\": 2, \"audit\""),
        )
        .unwrap_err();
        assert!(err.contains("anomaly cycles"), "{err}");
        // a failed writer-side verdict
        let err =
            check_audit_bench_text(&good.replace("\"pass\": true", "\"pass\": false")).unwrap_err();
        assert!(err.contains("pass"), "{err}");
        // an overhead ratio below the recorded requirement
        let err = check_audit_bench_text(&good.replace(
            "\"sampled_vs_off_ratio\": 0.973",
            "\"sampled_vs_off_ratio\": 0.91",
        ))
        .unwrap_err();
        assert!(err.contains("below the required"), "{err}");
        // an audited mode whose snapshot went missing
        let err = check_audit_bench_text(&audit_artifact(false)).unwrap_err();
        assert!(err.contains("without a snapshot"), "{err}");
        // a missing mode row
        let err = check_audit_bench_text(
            &good.replace("\"audit_mode\": \"sampled/64\"", "\"audit_mode\": \"full\""),
        )
        .unwrap_err();
        assert!(err.contains("missing the sampled"), "{err}");
        // unreadable file
        assert!(check_audit_bench_file("/nonexistent/BENCH_audit.json").is_err());
    }
}
