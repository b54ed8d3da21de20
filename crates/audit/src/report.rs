//! Export surface: JSON snapshot, Prometheus text, human-readable
//! rendering, and schema validation of the runtime auditor's snapshot
//! (`Database::audit_snapshot`).

use crate::graph::AnomalyVerdict;
use feral_trace::json::{self, escape, require, require_u64, Json};
use feral_trace::report::escape_label;

/// Per plan-cell audit counters in export form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellAudit {
    /// Template key (`"?"` for unlabelled transactions).
    pub template: String,
    /// Isolation level name the cell ran at.
    pub isolation: String,
    /// Committed transactions attributed to the cell.
    pub commits: u64,
    /// Anomaly cycles touching the cell.
    pub anomalies: u64,
}

/// Point-in-time copy of the whole audit surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditSnapshot {
    /// Capture mode name (`off` / `sampled/N` / `full`).
    pub mode: String,
    /// Committed-transaction footprints ingested.
    pub footprints: u64,
    /// Dependency edges observed.
    pub edges: u64,
    /// Anomaly cycles found.
    pub cycles: u64,
    /// Footprints dropped on buffer saturation.
    pub drops: u64,
    /// Completed nodes reclaimed by watermark GC.
    pub gc_reclaims: u64,
    /// Live nodes in the window right now.
    pub window_depth: u64,
    /// Peak live nodes over the run.
    pub window_peak: u64,
    /// Current GC watermark timestamp.
    pub watermark: u64,
    /// Per plan-cell counters, template-then-isolation ordered.
    pub cells: Vec<CellAudit>,
    /// Retained anomaly verdicts (capped at
    /// [`crate::MAX_VERDICTS`]; `cycles` keeps counting past the cap).
    pub verdicts: Vec<AnomalyVerdict>,
}

impl AuditSnapshot {
    /// Serialise as a JSON object (what `feral-audit report --json`
    /// prints and `feral-audit report --in` reads back).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", escape(&self.mode)));
        out.push_str(&format!("  \"footprints\": {},\n", self.footprints));
        out.push_str(&format!("  \"edges\": {},\n", self.edges));
        out.push_str(&format!("  \"cycles\": {},\n", self.cycles));
        out.push_str(&format!("  \"drops\": {},\n", self.drops));
        out.push_str(&format!("  \"gc_reclaims\": {},\n", self.gc_reclaims));
        out.push_str(&format!("  \"window_depth\": {},\n", self.window_depth));
        out.push_str(&format!("  \"window_peak\": {},\n", self.window_peak));
        out.push_str(&format!("  \"watermark\": {},\n", self.watermark));
        out.push_str("  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"template\": \"{}\", \"isolation\": \"{}\", \"commits\": {}, \"anomalies\": {}}}",
                escape(&c.template),
                escape(&c.isolation),
                c.commits,
                c.anomalies
            ));
        }
        out.push_str(if self.cells.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"verdicts\": [");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&verdict_json(v));
        }
        out.push_str(if self.verdicts.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push('}');
        out
    }

    /// Rebuild a snapshot from validated JSON (the inverse of
    /// [`AuditSnapshot::to_json`]); used by `feral-audit report` to
    /// render saved snapshots. Call [`validate_audit`] first — this
    /// assumes the schema already checked out.
    pub fn from_json(doc: &Json) -> Result<AuditSnapshot, String> {
        validate_audit(doc)?;
        let u = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
        let mut cells = Vec::new();
        for c in doc.get("cells").and_then(Json::as_arr).unwrap_or(&[]) {
            cells.push(CellAudit {
                template: c
                    .get("template")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                isolation: c
                    .get("isolation")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                commits: c.get("commits").and_then(Json::as_u64).unwrap_or(0),
                anomalies: c.get("anomalies").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        let mut verdicts = Vec::new();
        for v in doc.get("verdicts").and_then(Json::as_arr).unwrap_or(&[]) {
            let racing = v.get("racing").and_then(Json::as_arr).unwrap_or(&[]);
            let mut cycle = Vec::new();
            for e in v.get("cycle").and_then(Json::as_arr).unwrap_or(&[]) {
                let kind = match e.get("kind").and_then(Json::as_str) {
                    Some("wr") => crate::graph::EdgeKind::WriteRead,
                    Some("ww") => crate::graph::EdgeKind::WriteWrite,
                    _ => crate::graph::EdgeKind::ReadWrite,
                };
                cycle.push(crate::graph::CycleEdge {
                    from: e.get("from").and_then(Json::as_u64).unwrap_or(0),
                    to: e.get("to").and_then(Json::as_u64).unwrap_or(0),
                    kind,
                });
            }
            let strings = |key: &str| -> Vec<String> {
                v.get(key)
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            };
            verdicts.push(AnomalyVerdict {
                cycle,
                txns: v
                    .get("txns")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_u64)
                    .collect(),
                racing: (
                    racing.first().and_then(Json::as_u64).unwrap_or(0),
                    racing.get(1).and_then(Json::as_u64).unwrap_or(0),
                ),
                templates: strings("templates"),
                cells: strings("cells"),
                detected_at: v.get("detected_at").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        Ok(AuditSnapshot {
            mode: doc
                .get("mode")
                .and_then(Json::as_str)
                .unwrap_or("off")
                .to_string(),
            footprints: u("footprints"),
            edges: u("edges"),
            cycles: u("cycles"),
            drops: u("drops"),
            gc_reclaims: u("gc_reclaims"),
            window_depth: u("window_depth"),
            window_peak: u("window_peak"),
            watermark: u("watermark"),
            cells,
            verdicts,
        })
    }

    /// Prometheus text exposition of the audit surface, with
    /// `# HELP`/`# TYPE` headers and escaped label values.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        counter(
            &mut out,
            "feral_audit_footprints_total",
            "Committed-transaction footprints ingested by the runtime auditor.",
            self.footprints,
        );
        counter(
            &mut out,
            "feral_audit_edges_total",
            "Dependency edges (wr/ww/rw) observed in the runtime graph.",
            self.edges,
        );
        counter(
            &mut out,
            "feral_audit_cycles_total",
            "Critical anomaly cycles detected in live executions.",
            self.cycles,
        );
        counter(
            &mut out,
            "feral_audit_drops_total",
            "Footprints dropped on audit buffer saturation.",
            self.drops,
        );
        counter(
            &mut out,
            "feral_audit_gc_reclaims_total",
            "Completed transactions reclaimed by watermark GC.",
            self.gc_reclaims,
        );
        gauge(
            &mut out,
            "feral_audit_window_depth",
            "Live transactions in the audit window.",
            self.window_depth,
        );
        gauge(
            &mut out,
            "feral_audit_window_peak",
            "Peak live transactions in the audit window.",
            self.window_peak,
        );
        gauge(
            &mut out,
            "feral_audit_watermark",
            "Current watermark timestamp of the audit GC.",
            self.watermark,
        );
        out.push_str("# HELP feral_audit_cell_commits_total Committed transactions per isolation-plan cell.\n");
        out.push_str("# TYPE feral_audit_cell_commits_total counter\n");
        for c in &self.cells {
            out.push_str(&format!(
                "feral_audit_cell_commits_total{{template=\"{}\",isolation=\"{}\"}} {}\n",
                escape_label(&c.template),
                escape_label(&c.isolation),
                c.commits
            ));
        }
        out.push_str(
            "# HELP feral_audit_cell_anomalies_total Anomaly cycles per isolation-plan cell.\n",
        );
        out.push_str("# TYPE feral_audit_cell_anomalies_total counter\n");
        for c in &self.cells {
            out.push_str(&format!(
                "feral_audit_cell_anomalies_total{{template=\"{}\",isolation=\"{}\"}} {}\n",
                escape_label(&c.template),
                escape_label(&c.isolation),
                c.anomalies
            ));
        }
        out
    }

    /// Human-readable rendering for `feral-audit report`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "audit mode {} | footprints {} | edges {} | cycles {} | drops {}\n",
            self.mode, self.footprints, self.edges, self.cycles, self.drops
        ));
        out.push_str(&format!(
            "window depth {} (peak {}) | gc reclaims {} | watermark {}\n",
            self.window_depth, self.window_peak, self.gc_reclaims, self.watermark
        ));
        out.push_str("plan cells:\n");
        for c in &self.cells {
            out.push_str(&format!(
                "  {:<44} @{:<16} commits {:>8}  anomalies {:>4}{}\n",
                c.template,
                c.isolation,
                c.commits,
                c.anomalies,
                if c.anomalies > 0 { "  <-- UNSAFE" } else { "" }
            ));
        }
        if self.verdicts.is_empty() {
            out.push_str("verdict: CLEAN — no anomaly cycle observed\n");
        } else {
            for (i, v) in self.verdicts.iter().enumerate() {
                out.push_str(&format!(
                    "verdict #{i}: ANOMALY at ts {} — racing txns {} (read) vs {} (write)\n",
                    v.detected_at, v.racing.0, v.racing.1
                ));
                out.push_str("  cycle: ");
                for (j, e) in v.cycle.iter().enumerate() {
                    if j > 0 {
                        out.push_str(" ; ");
                    }
                    out.push_str(&format!("txn {} -{}-> txn {}", e.from, e.kind.name(), e.to));
                }
                out.push('\n');
                out.push_str(&format!("  templates: {}\n", v.templates.join(", ")));
                out.push_str(&format!("  plan cells: {}\n", v.cells.join(", ")));
            }
        }
        out
    }
}

fn verdict_json(v: &AnomalyVerdict) -> String {
    let mut out = String::new();
    out.push('{');
    out.push_str(&format!("\"detected_at\": {}, ", v.detected_at));
    out.push_str(&format!("\"racing\": [{}, {}], ", v.racing.0, v.racing.1));
    out.push_str("\"txns\": [");
    for (i, t) in v.txns.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&t.to_string());
    }
    out.push_str("], \"cycle\": [");
    for (i, e) in v.cycle.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"from\": {}, \"to\": {}, \"kind\": \"{}\"}}",
            e.from,
            e.to,
            e.kind.name()
        ));
    }
    out.push_str("], \"templates\": [");
    for (i, t) in v.templates.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", escape(t)));
    }
    out.push_str("], \"cells\": [");
    for (i, c) in v.cells.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", escape(c)));
    }
    out.push_str("]}");
    out
}

/// Schema-check a serialised [`AuditSnapshot`] (an already-parsed JSON
/// value). Beyond structure this enforces the snapshot's integrity
/// claims: per-cell anomaly counts require a matching global cycle
/// count, every verdict's cycle has at least two distinct
/// transactions, at least one rw edge, and racing endpoints drawn
/// from the cycle.
pub fn validate_audit(doc: &Json) -> Result<(), String> {
    let ctx = "audit";
    let mode = require(doc, "mode", ctx)?
        .as_str()
        .ok_or("audit: 'mode' is not a string")?;
    if crate::AuditMode::parse(mode).is_none() {
        return Err(format!("audit: unknown mode '{mode}'"));
    }
    for key in [
        "footprints",
        "edges",
        "cycles",
        "drops",
        "gc_reclaims",
        "window_depth",
        "window_peak",
        "watermark",
    ] {
        require_u64(doc, key, ctx)?;
    }
    let cycles = require_u64(doc, "cycles", ctx)?;
    let cells = require(doc, "cells", ctx)?
        .as_arr()
        .ok_or("audit: 'cells' is not an array")?;
    let mut cell_anomalies = 0u64;
    for c in cells {
        let t = require(c, "template", "audit cell")?
            .as_str()
            .ok_or("audit cell: 'template' is not a string")?;
        require(c, "isolation", &format!("audit cell '{t}'"))?
            .as_str()
            .ok_or(format!("audit cell '{t}': 'isolation' is not a string"))?;
        require_u64(c, "commits", &format!("audit cell '{t}'"))?;
        cell_anomalies += require_u64(c, "anomalies", &format!("audit cell '{t}'"))?;
    }
    if cell_anomalies > 0 && cycles == 0 {
        return Err("audit: cells carry anomalies but 'cycles' is 0".into());
    }
    let verdicts = require(doc, "verdicts", ctx)?
        .as_arr()
        .ok_or("audit: 'verdicts' is not an array")?;
    if cycles > 0 && verdicts.is_empty() {
        return Err("audit: cycles found but no verdict retained".into());
    }
    for (i, v) in verdicts.iter().enumerate() {
        let vctx = format!("audit verdict #{i}");
        require_u64(v, "detected_at", &vctx)?;
        let racing = require(v, "racing", &vctx)?
            .as_arr()
            .ok_or(format!("{vctx}: 'racing' is not an array"))?;
        if racing.len() != 2 {
            return Err(format!("{vctx}: racing pair must have two txns"));
        }
        let txns = require(v, "txns", &vctx)?
            .as_arr()
            .ok_or(format!("{vctx}: 'txns' is not an array"))?;
        let ids: Vec<u64> = txns.iter().filter_map(|t| t.as_u64()).collect();
        if ids.len() < 2 {
            return Err(format!("{vctx}: cycle names fewer than two txns"));
        }
        for r in racing {
            let r = r
                .as_u64()
                .ok_or(format!("{vctx}: racing txn is not an integer"))?;
            if !ids.contains(&r) {
                return Err(format!("{vctx}: racing txn {r} not on the cycle"));
            }
        }
        let cycle = require(v, "cycle", &vctx)?
            .as_arr()
            .ok_or(format!("{vctx}: 'cycle' is not an array"))?;
        if cycle.len() != ids.len() {
            return Err(format!("{vctx}: cycle edge count != txn count"));
        }
        let mut has_rw = false;
        for e in cycle {
            require_u64(e, "from", &vctx)?;
            require_u64(e, "to", &vctx)?;
            let kind = require(e, "kind", &vctx)?
                .as_str()
                .ok_or(format!("{vctx}: edge 'kind' is not a string"))?;
            if !["wr", "ww", "rw"].contains(&kind) {
                return Err(format!("{vctx}: unknown edge kind '{kind}'"));
            }
            has_rw |= kind == "rw";
        }
        if !has_rw {
            return Err(format!(
                "{vctx}: cycle has no rw anti-dependency (impossible in this engine)"
            ));
        }
        for key in ["templates", "cells"] {
            let arr = require(v, key, &vctx)?
                .as_arr()
                .ok_or(format!("{vctx}: '{key}' is not an array"))?;
            if arr.is_empty() {
                return Err(format!("{vctx}: '{key}' is empty"));
            }
        }
    }
    Ok(())
}

/// Parse and validate a serialised [`AuditSnapshot`]; returns the
/// parsed document.
pub fn validate_audit_json(text: &str) -> Result<Json, String> {
    let doc = json::parse(text)?;
    validate_audit(&doc)?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CycleEdge, EdgeKind};

    fn sample() -> AuditSnapshot {
        AuditSnapshot {
            mode: "full".into(),
            footprints: 10,
            edges: 7,
            cycles: 1,
            drops: 0,
            gc_reclaims: 4,
            window_depth: 3,
            window_peak: 6,
            watermark: 42,
            cells: vec![CellAudit {
                template: "uniqueness-probe-insert:signups.email".into(),
                isolation: "read-committed".into(),
                commits: 9,
                anomalies: 1,
            }],
            verdicts: vec![AnomalyVerdict {
                cycle: vec![
                    CycleEdge {
                        from: 3,
                        to: 4,
                        kind: EdgeKind::ReadWrite,
                    },
                    CycleEdge {
                        from: 4,
                        to: 3,
                        kind: EdgeKind::ReadWrite,
                    },
                ],
                txns: vec![3, 4],
                racing: (3, 4),
                templates: vec!["uniqueness-probe-insert:signups.email".into()],
                cells: vec!["uniqueness-probe-insert:signups.email@read-committed".into()],
                detected_at: 17,
            }],
        }
    }

    #[test]
    fn snapshot_json_roundtrips_through_validation() {
        let snap = sample();
        let doc = validate_audit_json(&snap.to_json()).expect("valid");
        assert_eq!(doc.get("cycles").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("mode").unwrap().as_str(), Some("full"),);
    }

    #[test]
    fn validation_rejects_cycle_without_rw() {
        let mut snap = sample();
        for e in &mut snap.verdicts[0].cycle {
            e.kind = EdgeKind::WriteWrite;
        }
        let err = validate_audit_json(&snap.to_json()).unwrap_err();
        assert!(err.contains("no rw"), "{err}");
    }

    #[test]
    fn validation_rejects_anomalies_without_cycles() {
        let mut snap = sample();
        snap.cycles = 0;
        snap.verdicts.clear();
        let err = validate_audit_json(&snap.to_json()).unwrap_err();
        assert!(err.contains("anomalies"), "{err}");
    }

    #[test]
    fn validation_rejects_offcycle_racing_txn() {
        let mut snap = sample();
        snap.verdicts[0].racing = (3, 99);
        let err = validate_audit_json(&snap.to_json()).unwrap_err();
        assert!(err.contains("not on the cycle"), "{err}");
    }

    #[test]
    fn prometheus_export_is_strict_parser_safe() {
        let text = sample().to_prometheus();
        assert!(text.contains("# HELP feral_audit_cycles_total"));
        assert!(text.contains("# TYPE feral_audit_cycles_total counter"));
        assert!(text.contains("feral_audit_cycles_total 1"));
        assert!(text.contains(
            "feral_audit_cell_anomalies_total{template=\"uniqueness-probe-insert:signups.email\",isolation=\"read-committed\"} 1"
        ));
    }

    #[test]
    fn render_text_names_the_racing_pair() {
        let text = sample().render_text();
        assert!(text.contains("racing txns 3 (read) vs 4 (write)"));
        assert!(text.contains("txn 3 -rw-> txn 4"));
    }

    #[test]
    fn mode_names_roundtrip() {
        use crate::AuditMode;
        for mode in [AuditMode::Off, AuditMode::Sampled(8), AuditMode::Full] {
            assert_eq!(AuditMode::parse(&mode.name()), Some(mode));
        }
        assert_eq!(AuditMode::parse("sampled/0"), None);
        assert_eq!(AuditMode::parse("bogus"), None);
    }
}
