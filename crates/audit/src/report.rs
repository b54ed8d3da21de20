//! Export surface of the runtime auditor's snapshot
//! (`Database::audit_snapshot`): its JSON writer and the one reader
//! beside it, Prometheus text, and a human-readable rendering.

use crate::graph::{AnomalyVerdict, CycleEdge, EdgeKind};
use feral_trace::escape_label;
use feral_trace::json::{self, escape, require_arr, require_str, require_u64, Json};

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

    /// Read a snapshot as [`AuditSnapshot::to_json`] writes it (what
    /// `feral-audit report --in` renders). Beyond structure this holds
    /// the snapshot to its integrity claims: a mode
    /// [`crate::AuditMode::parse`] knows, per-cell anomalies only with a
    /// global cycle count, a retained verdict whenever cycles were
    /// found, and every verdict a cycle of at least two transactions
    /// with one edge per transaction, at least one rw edge, racing
    /// endpoints drawn from the cycle, and non-empty templates and
    /// cells.
    pub fn from_json(text: &str) -> Result<AuditSnapshot, String> {
        let doc = json::parse(text)?;
        let ctx = "audit";
        let mode = require_str(&doc, "mode", ctx)?.to_string();
        if crate::AuditMode::parse(&mode).is_none() {
            return Err(format!("audit: unknown mode '{mode}'"));
        }
        let cells = require_arr(&doc, "cells", ctx)?
            .iter()
            .map(|c| {
                let template = require_str(c, "template", "audit cell")?.to_string();
                let cctx = format!("audit cell '{template}'");
                Ok(CellAudit {
                    isolation: require_str(c, "isolation", &cctx)?.into(),
                    commits: require_u64(c, "commits", &cctx)?,
                    anomalies: require_u64(c, "anomalies", &cctx)?,
                    template,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let verdicts = require_arr(&doc, "verdicts", ctx)?
            .iter()
            .enumerate()
            .map(|(i, v)| read_verdict(v, &format!("audit verdict #{i}")))
            .collect::<Result<Vec<_>, String>>()?;
        let snap = AuditSnapshot {
            mode,
            footprints: require_u64(&doc, "footprints", ctx)?,
            edges: require_u64(&doc, "edges", ctx)?,
            cycles: require_u64(&doc, "cycles", ctx)?,
            drops: require_u64(&doc, "drops", ctx)?,
            gc_reclaims: require_u64(&doc, "gc_reclaims", ctx)?,
            window_depth: require_u64(&doc, "window_depth", ctx)?,
            window_peak: require_u64(&doc, "window_peak", ctx)?,
            watermark: require_u64(&doc, "watermark", ctx)?,
            cells,
            verdicts,
        };
        if snap.cycles == 0 && snap.cells.iter().any(|c| c.anomalies > 0) {
            return Err("audit: cells carry anomalies but 'cycles' is 0".into());
        }
        if snap.cycles > 0 && snap.verdicts.is_empty() {
            return Err("audit: cycles found but no verdict retained".into());
        }
        Ok(snap)
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

fn read_verdict(v: &Json, ctx: &str) -> Result<AnomalyVerdict, String> {
    let txns = require_arr(v, "txns", ctx)?
        .iter()
        .map(|t| t.as_u64().ok_or(format!("{ctx}: txn id is not an integer")))
        .collect::<Result<Vec<_>, _>>()?;
    if txns.len() < 2 {
        return Err(format!("{ctx}: cycle names fewer than two txns"));
    }
    let racing = require_arr(v, "racing", ctx)?
        .iter()
        .map(|r| {
            let r = r
                .as_u64()
                .ok_or(format!("{ctx}: racing txn is not an integer"))?;
            if txns.contains(&r) {
                Ok(r)
            } else {
                Err(format!("{ctx}: racing txn {r} not on the cycle"))
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let [reader, writer] = racing[..] else {
        return Err(format!("{ctx}: racing pair must have two txns"));
    };
    let cycle = require_arr(v, "cycle", ctx)?
        .iter()
        .map(|e| {
            let kind = match require_str(e, "kind", ctx)? {
                "wr" => EdgeKind::WriteRead,
                "ww" => EdgeKind::WriteWrite,
                "rw" => EdgeKind::ReadWrite,
                other => return Err(format!("{ctx}: unknown edge kind '{other}'")),
            };
            Ok(CycleEdge {
                from: require_u64(e, "from", ctx)?,
                to: require_u64(e, "to", ctx)?,
                kind,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if cycle.len() != txns.len() {
        return Err(format!("{ctx}: cycle edge count != txn count"));
    }
    if !cycle.iter().any(|e| e.kind == EdgeKind::ReadWrite) {
        return Err(format!(
            "{ctx}: cycle has no rw anti-dependency (impossible in this engine)"
        ));
    }
    let strings = |key: &str| -> Result<Vec<String>, String> {
        let arr = require_arr(v, key, ctx)?;
        if arr.is_empty() {
            return Err(format!("{ctx}: '{key}' is empty"));
        }
        arr.iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or(format!("{ctx}: '{key}' entry is not a string"))
            })
            .collect()
    };
    Ok(AnomalyVerdict {
        cycle,
        txns,
        racing: (reader, writer),
        templates: strings("templates")?,
        cells: strings("cells")?,
        detected_at: require_u64(v, "detected_at", ctx)?,
    })
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
        let text = snap.to_json();
        let read = AuditSnapshot::from_json(&text).expect("valid");
        assert_eq!(read, snap);
        assert_eq!(read.to_json(), text);
    }

    /// Asserts the reader refuses `snap`'s JSON with an error naming `want`.
    fn assert_refused(snap: &AuditSnapshot, want: &str) {
        match AuditSnapshot::from_json(&snap.to_json()) {
            Ok(_) => panic!("the reader accepted it; wanted '{want}'"),
            Err(e) => assert!(e.contains(want), "{e}"),
        }
    }

    #[test]
    fn validation_rejects_cycle_without_rw() {
        let mut snap = sample();
        for e in &mut snap.verdicts[0].cycle {
            e.kind = EdgeKind::WriteWrite;
        }
        assert_refused(&snap, "no rw");
    }

    #[test]
    fn validation_rejects_anomalies_without_cycles() {
        let mut snap = sample();
        snap.cycles = 0;
        snap.verdicts.clear();
        assert_refused(&snap, "cells carry anomalies but 'cycles' is 0");
    }

    #[test]
    fn validation_rejects_offcycle_racing_txn() {
        let mut snap = sample();
        snap.verdicts[0].racing = (3, 99);
        assert_refused(&snap, "racing txn 99 not on the cycle");
    }

    /// Every other document the reader refuses, each with the words its
    /// refusal must contain. Each case edits one field of `sample()`,
    /// in the snapshot or in its JSON text.
    #[test]
    fn from_json_refuses_every_malformed_snapshot() {
        type Edit = fn(&mut AuditSnapshot);
        let snapshot_cases: [(&str, Edit, &str); 6] = [
            (
                "unknown mode",
                |s| s.mode = "bogus".into(),
                "unknown mode 'bogus'",
            ),
            (
                "cycles without a verdict",
                |s| s.verdicts.clear(),
                "no verdict retained",
            ),
            (
                "a one-transaction cycle",
                |s| s.verdicts[0].txns.truncate(1),
                "fewer than two txns",
            ),
            (
                "fewer edges than txns",
                |s| {
                    s.verdicts[0].cycle.pop();
                },
                "cycle edge count != txn count",
            ),
            (
                "no templates",
                |s| s.verdicts[0].templates.clear(),
                "'templates' is empty",
            ),
            (
                "no cells",
                |s| s.verdicts[0].cells.clear(),
                "'cells' is empty",
            ),
        ];
        let text_cases: [(&str, &str, &str, &str); 14] = [
            ("not json", "{", "{{", ""),
            ("no mode", "\"mode\": \"full\",", "", "missing key 'mode'"),
            (
                "mode not a string",
                "\"mode\": \"full\"",
                "\"mode\": 3",
                "'mode' is not a string",
            ),
            (
                "no counter",
                "\"footprints\": 10,",
                "",
                "missing key 'footprints'",
            ),
            (
                "negative counter",
                "\"edges\": 7",
                "\"edges\": -7",
                "'edges' is not a non-negative integer",
            ),
            (
                "cells not an array",
                "  \"cells\": [",
                "  \"cells\": {}, \"old\": [",
                "'cells' is not an array",
            ),
            (
                "template not a string",
                "\"template\": ",
                "\"template\": 5, \"old\": ",
                "'template' is not a string",
            ),
            (
                "cell without isolation",
                "\"isolation\": \"read-committed\", ",
                "",
                "missing key 'isolation'",
            ),
            (
                "cell without commits",
                "\"commits\": 9, ",
                "",
                "missing key 'commits'",
            ),
            (
                "no verdicts",
                "\"verdicts\"",
                "\"old\"",
                "missing key 'verdicts'",
            ),
            (
                "verdict without detection",
                "\"detected_at\": 17, ",
                "",
                "missing key 'detected_at'",
            ),
            (
                "three racing txns",
                "\"racing\": [3, 4]",
                "\"racing\": [3, 4, 3]",
                "racing pair must have two txns",
            ),
            (
                "unknown edge kind",
                "\"kind\": \"rw\"",
                "\"kind\": \"xx\"",
                "unknown edge kind 'xx'",
            ),
            (
                "edge without a source",
                "{\"from\": 3, ",
                "{",
                "missing key 'from'",
            ),
        ];
        let mut cases: Vec<(&str, String, &str)> = Vec::new();
        for (name, edit, want) in snapshot_cases {
            let mut snap = sample();
            edit(&mut snap);
            cases.push((name, snap.to_json(), want));
        }
        for (name, from, to, want) in text_cases {
            let text = sample().to_json();
            assert!(text.contains(from), "{name}: `{from}` not in the sample");
            cases.push((name, text.replacen(from, to, 1), want));
        }
        for (name, text, want) in cases {
            match AuditSnapshot::from_json(&text) {
                Ok(_) => panic!("{name}: the reader accepted it"),
                Err(e) => assert!(e.contains(want), "{name}: {e}"),
            }
        }
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
