//! Run-report exporters: the machine-readable artifact every
//! experiment run leaves behind.
//!
//! A [`RunReport`] is a list of experiment cells, each carrying its
//! workload shape, anomaly counts, a windowed engine-stats diff,
//! per-phase latency histogram summaries, and any anomaly provenance
//! records. Two wire formats:
//!
//! - **JSON** ([`RunReport::to_json`]): written as `BENCH_table1.json`
//!   by the table1 bench; [`validate_report`] re-parses and
//!   schema-checks a document (used by the tier-1 smoke gate and the
//!   golden-report test).
//! - **Prometheus text** ([`RunReport::to_prometheus`]): counters and
//!   latency summaries, one labelled series per cell.
//!
//! 64-bit hashes are emitted as hex *strings* — the JSON number path
//! is `f64` and would silently lose precision above 2^53.

use crate::hist::HistogramSnapshot;
use crate::json::{self, require, require_u64, Json};
use crate::provenance::ProvenanceRecord;

/// Report schema version (bump on breaking JSON shape changes).
pub const REPORT_VERSION: u64 = 1;

/// One experiment cell: a workload run under one configuration.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Human label, e.g. `read-committed/feral`.
    pub label: String,
    /// Isolation level the cell ran under.
    pub isolation: String,
    /// Integrity enforcement (`feral`, `database`, `none`).
    pub enforcement: String,
    /// Worker threads.
    pub workers: usize,
    /// Rounds of the stress loop.
    pub rounds: usize,
    /// Concurrent same-key attempts per round.
    pub concurrent: usize,
    /// Duplicate keys materialised (anomaly count).
    pub duplicates: u64,
    /// Rows present at the end.
    pub rows: u64,
    /// Requests rejected by validation/constraints.
    pub rejected: u64,
    /// Windowed engine-stats diff, `(counter name, delta)` pairs.
    pub stats: Vec<(String, u64)>,
    /// Per-phase latency histograms, `(phase name, snapshot)` pairs.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Explained anomalies with replayable witnesses.
    pub provenance: Vec<ProvenanceRecord>,
}

/// A full run report: metadata plus one entry per cell.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Report name, e.g. `table1`.
    pub report: String,
    /// Whether this was a `--smoke` run.
    pub smoke: bool,
    /// Workload seed.
    pub seed: u64,
    /// The cells.
    pub cells: Vec<CellReport>,
}

fn push_kv_str(out: &mut String, indent: &str, key: &str, value: &str, comma: bool) {
    out.push_str(&format!(
        "{indent}\"{}\": \"{}\"{}\n",
        json::escape(key),
        json::escape(value),
        if comma { "," } else { "" }
    ));
}

fn push_kv_u64(out: &mut String, indent: &str, key: &str, value: u64, comma: bool) {
    out.push_str(&format!(
        "{indent}\"{}\": {value}{}\n",
        json::escape(key),
        if comma { "," } else { "" }
    ));
}

fn hist_json(s: &HistogramSnapshot, indent: &str) -> String {
    let buckets: Vec<String> = s
        .sparse()
        .iter()
        .map(|(i, c)| format!("[{i}, {c}]"))
        .collect();
    format!(
        "{{\n{indent}  \"count\": {},\n{indent}  \"sum\": {},\n{indent}  \"max\": {},\n{indent}  \"mean\": {:.3},\n{indent}  \"p50\": {},\n{indent}  \"p95\": {},\n{indent}  \"p99\": {},\n{indent}  \"buckets\": [{}]\n{indent}}}",
        s.count,
        s.sum,
        s.max,
        s.mean(),
        s.quantile(0.50),
        s.quantile(0.95),
        s.quantile(0.99),
        buckets.join(", ")
    )
}

fn provenance_json(p: &ProvenanceRecord, indent: &str) -> String {
    let mut out = String::from("{\n");
    let inner = format!("{indent}  ");
    push_kv_str(&mut out, &inner, "anomaly", &p.anomaly, true);
    push_kv_str(&mut out, &inner, "table", &p.table, true);
    push_kv_str(&mut out, &inner, "key", &p.key, true);
    push_kv_str(
        &mut out,
        &inner,
        "key_hash",
        &format!("{:#018x}", p.key_hash),
        true,
    );
    push_kv_u64(&mut out, &inner, "overlap_nanos", p.overlap_nanos, true);
    let racing: Vec<String> = p
        .racing
        .iter()
        .map(|r| {
            format!(
                "{{\"worker\": {}, \"txn\": {}, \"probe_seq\": {}, \"probe_ts\": {}, \"write_seq\": {}, \"write_ts\": {}}}",
                r.worker, r.txn, r.probe_seq, r.probe_ts, r.write_seq, r.write_ts
            )
        })
        .collect();
    out.push_str(&format!("{inner}\"racing\": [{}],\n", racing.join(", ")));
    match &p.witness {
        Some(w) => {
            out.push_str(&format!("{inner}\"witness\": {{\n"));
            let winner = format!("{inner}  ");
            push_kv_str(&mut out, &winner, "scenario", &w.scenario, true);
            push_kv_str(&mut out, &winner, "isolation", &w.isolation, true);
            push_kv_str(&mut out, &winner, "guard", &w.guard, true);
            push_kv_u64(&mut out, &winner, "workers", w.workers as u64, true);
            push_kv_str(&mut out, &winner, "replay", &w.replay, true);
            push_kv_str(&mut out, &winner, "message", &w.message, false);
            out.push_str(&format!("{inner}}},\n"));
        }
        None => out.push_str(&format!("{inner}\"witness\": null,\n")),
    }
    let flight: Vec<String> = p
        .flight
        .iter()
        .map(|line| format!("\"{}\"", json::escape(line)))
        .collect();
    out.push_str(&format!("{inner}\"flight\": [{}]\n", flight.join(", ")));
    out.push_str(&format!("{indent}}}"));
    out
}

impl RunReport {
    /// Serialise to the JSON wire format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        push_kv_str(&mut out, "  ", "report", &self.report, true);
        push_kv_u64(&mut out, "  ", "version", REPORT_VERSION, true);
        out.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        push_kv_u64(&mut out, "  ", "seed", self.seed, true);
        out.push_str("  \"cells\": [\n");
        for (ci, cell) in self.cells.iter().enumerate() {
            out.push_str("    {\n");
            push_kv_str(&mut out, "      ", "label", &cell.label, true);
            push_kv_str(&mut out, "      ", "isolation", &cell.isolation, true);
            push_kv_str(&mut out, "      ", "enforcement", &cell.enforcement, true);
            push_kv_u64(&mut out, "      ", "workers", cell.workers as u64, true);
            push_kv_u64(&mut out, "      ", "rounds", cell.rounds as u64, true);
            push_kv_u64(
                &mut out,
                "      ",
                "concurrent",
                cell.concurrent as u64,
                true,
            );
            push_kv_u64(&mut out, "      ", "duplicates", cell.duplicates, true);
            push_kv_u64(&mut out, "      ", "rows", cell.rows, true);
            push_kv_u64(&mut out, "      ", "rejected", cell.rejected, true);
            out.push_str("      \"stats\": {\n");
            for (si, (name, value)) in cell.stats.iter().enumerate() {
                push_kv_u64(
                    &mut out,
                    "        ",
                    name,
                    *value,
                    si + 1 < cell.stats.len(),
                );
            }
            out.push_str("      },\n");
            out.push_str("      \"histograms\": {\n");
            for (hi, (name, snap)) in cell.histograms.iter().enumerate() {
                out.push_str(&format!(
                    "        \"{}\": {}{}\n",
                    json::escape(name),
                    hist_json(snap, "        "),
                    if hi + 1 < cell.histograms.len() {
                        ","
                    } else {
                        ""
                    }
                ));
            }
            out.push_str("      },\n");
            let provenance: Vec<String> = cell
                .provenance
                .iter()
                .map(|p| provenance_json(p, "        "))
                .collect();
            if provenance.is_empty() {
                out.push_str("      \"provenance\": []\n");
            } else {
                out.push_str(&format!(
                    "      \"provenance\": [\n        {}\n      ]\n",
                    provenance.join(",\n        ")
                ));
            }
            out.push_str(&format!(
                "    }}{}\n",
                if ci + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Serialise to Prometheus text exposition format: anomaly and
    /// engine counters plus latency summaries, one labelled series per
    /// cell. Every metric carries `# HELP`/`# TYPE` headers and label
    /// values are escaped per the exposition-format rules, so the
    /// output survives a strict scrape parser.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# HELP feral_duplicates_total Duplicate rows admitted past a feral uniqueness check.\n");
        out.push_str("# TYPE feral_duplicates_total counter\n");
        for c in &self.cells {
            out.push_str(&format!(
                "feral_duplicates_total{{cell=\"{}\"}} {}\n",
                escape_label(&c.label),
                c.duplicates
            ));
        }
        out.push_str(
            "# HELP feral_rejected_total Writes rejected by a validation or constraint.\n",
        );
        out.push_str("# TYPE feral_rejected_total counter\n");
        for c in &self.cells {
            out.push_str(&format!(
                "feral_rejected_total{{cell=\"{}\"}} {}\n",
                escape_label(&c.label),
                c.rejected
            ));
        }
        out.push_str("# HELP feral_engine_events_total Engine statistics counters over the cell's measurement window.\n");
        out.push_str("# TYPE feral_engine_events_total counter\n");
        for c in &self.cells {
            for (name, value) in &c.stats {
                out.push_str(&format!(
                    "feral_engine_events_total{{cell=\"{}\",counter=\"{}\"}} {}\n",
                    escape_label(&c.label),
                    escape_label(name),
                    value
                ));
            }
        }
        out.push_str(
            "# HELP feral_phase_latency_nanos Per-phase latency distribution in nanoseconds.\n",
        );
        out.push_str("# TYPE feral_phase_latency_nanos summary\n");
        for c in &self.cells {
            for (phase, snap) in &c.histograms {
                for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                    out.push_str(&format!(
                        "feral_phase_latency_nanos{{cell=\"{}\",phase=\"{}\",quantile=\"{}\"}} {}\n",
                        escape_label(&c.label),
                        escape_label(phase),
                        label,
                        snap.quantile(q)
                    ));
                }
                out.push_str(&format!(
                    "feral_phase_latency_nanos_sum{{cell=\"{}\",phase=\"{}\"}} {}\n",
                    escape_label(&c.label),
                    escape_label(phase),
                    snap.sum
                ));
                out.push_str(&format!(
                    "feral_phase_latency_nanos_count{{cell=\"{}\",phase=\"{}\"}} {}\n",
                    escape_label(&c.label),
                    escape_label(phase),
                    snap.count
                ));
            }
        }
        out
    }
}

/// Escape a Prometheus label value: backslash, double-quote, and
/// line-feed must be backslash-escaped per the text exposition format.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn require_str<'j>(obj: &'j Json, key: &str, ctx: &str) -> Result<&'j str, String> {
    require(obj, key, ctx)?
        .as_str()
        .ok_or(format!("{ctx}: '{key}' is not a string"))
}

fn validate_histogram(h: &Json, ctx: &str) -> Result<(), String> {
    let count = require_u64(h, "count", ctx)?;
    let sum = require_u64(h, "sum", ctx)?;
    let max = require_u64(h, "max", ctx)?;
    let buckets = require(h, "buckets", ctx)?
        .as_arr()
        .ok_or(format!("{ctx}: 'buckets' is not an array"))?;
    let mut pairs = Vec::new();
    for b in buckets {
        let pair = b
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or(format!("{ctx}: bucket entry is not an [index, count] pair"))?;
        let idx = pair[0]
            .as_u64()
            .ok_or(format!("{ctx}: bucket index is not an integer"))?;
        let c = pair[1]
            .as_u64()
            .ok_or(format!("{ctx}: bucket count is not an integer"))?;
        pairs.push((idx as usize, c));
    }
    let snap = HistogramSnapshot::from_sparse(&pairs, count, sum, max)
        .map_err(|e| format!("{ctx}: {e}"))?;
    if !snap.well_formed() {
        return Err(format!(
            "{ctx}: bucket counts do not sum to 'count' ({count})"
        ));
    }
    let (p50, p95, p99) = (
        require_u64(h, "p50", ctx)?,
        require_u64(h, "p95", ctx)?,
        require_u64(h, "p99", ctx)?,
    );
    if !(p50 <= p95 && p95 <= p99 && p99 <= max.max(p99)) {
        return Err(format!(
            "{ctx}: quantiles not monotone (p50 {p50}, p95 {p95}, p99 {p99})"
        ));
    }
    for (q, claimed) in [(0.50, p50), (0.95, p95), (0.99, p99)] {
        let recomputed = snap.quantile(q);
        if recomputed != claimed {
            return Err(format!(
                "{ctx}: q{q} mismatch (claimed {claimed}, recomputed {recomputed})"
            ));
        }
    }
    Ok(())
}

fn validate_provenance(p: &Json, ctx: &str) -> Result<(), String> {
    for key in ["anomaly", "table", "key", "key_hash"] {
        require_str(p, key, ctx)?;
    }
    require_u64(p, "overlap_nanos", ctx)?;
    let racing = require(p, "racing", ctx)?
        .as_arr()
        .ok_or(format!("{ctx}: 'racing' is not an array"))?;
    if racing.len() < 2 {
        return Err(format!(
            "{ctx}: provenance names fewer than two racing txns"
        ));
    }
    for r in racing {
        for key in [
            "worker",
            "txn",
            "probe_seq",
            "probe_ts",
            "write_seq",
            "write_ts",
        ] {
            require_u64(r, key, ctx)?;
        }
    }
    let witness = require(p, "witness", ctx)?;
    if *witness != Json::Null {
        for key in ["scenario", "isolation", "guard", "replay", "message"] {
            require_str(witness, key, &format!("{ctx} witness"))?;
        }
        require_u64(witness, "workers", &format!("{ctx} witness"))?;
        if require_str(witness, "replay", ctx)?.is_empty() {
            return Err(format!("{ctx}: witness replay command is empty"));
        }
    }
    Ok(())
}

/// Parse and schema-check a serialised run report. Beyond structure,
/// this enforces the report's core integrity claims: every histogram
/// is internally consistent (bucket counts sum to `count`, quantiles
/// re-derivable and monotone) and every provenance record names at
/// least two racing transactions. Returns the parsed document.
pub fn validate_report(text: &str) -> Result<Json, String> {
    let doc = json::parse(text)?;
    require_str(&doc, "report", "report")?;
    let version = require_u64(&doc, "version", "report")?;
    if version != REPORT_VERSION {
        return Err(format!(
            "report: unsupported version {version} (expected {REPORT_VERSION})"
        ));
    }
    require(&doc, "smoke", "report")?;
    require_u64(&doc, "seed", "report")?;
    let cells = require(&doc, "cells", "report")?
        .as_arr()
        .ok_or("report: 'cells' is not an array")?;
    if cells.is_empty() {
        return Err("report: no cells".into());
    }
    for cell in cells {
        let label = require_str(cell, "label", "cell")?.to_string();
        let ctx = format!("cell '{label}'");
        for key in ["isolation", "enforcement"] {
            require_str(cell, key, &ctx)?;
        }
        for key in [
            "workers",
            "rounds",
            "concurrent",
            "duplicates",
            "rows",
            "rejected",
        ] {
            require_u64(cell, key, &ctx)?;
        }
        let stats = require(cell, "stats", &ctx)?;
        match stats {
            Json::Obj(pairs) if !pairs.is_empty() => {
                for (name, v) in pairs {
                    v.as_u64()
                        .ok_or(format!("{ctx}: stat '{name}' is not an integer"))?;
                }
            }
            _ => return Err(format!("{ctx}: 'stats' is not a non-empty object")),
        }
        let hists = require(cell, "histograms", &ctx)?;
        match hists {
            Json::Obj(pairs) => {
                for (name, h) in pairs {
                    validate_histogram(h, &format!("{ctx} histogram '{name}'"))?;
                }
            }
            _ => return Err(format!("{ctx}: 'histograms' is not an object")),
        }
        let provenance = require(cell, "provenance", &ctx)?
            .as_arr()
            .ok_or(format!("{ctx}: 'provenance' is not an array"))?;
        for p in provenance {
            validate_provenance(p, &format!("{ctx} provenance"))?;
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::provenance::{RacingTxn, Witness};

    fn sample_report() -> RunReport {
        let h = Histogram::new();
        for v in [120u64, 450, 900, 88_000] {
            h.record(v);
        }
        RunReport {
            report: "table1".into(),
            smoke: true,
            seed: 42,
            cells: vec![CellReport {
                label: "read-committed/feral".into(),
                isolation: "read-committed".into(),
                enforcement: "feral".into(),
                workers: 4,
                rounds: 10,
                concurrent: 8,
                duplicates: 3,
                rows: 13,
                rejected: 0,
                stats: vec![("commits".into(), 40), ("validation_probes".into(), 80)],
                histograms: vec![("request".into(), h.snapshot())],
                provenance: vec![ProvenanceRecord {
                    anomaly: "duplicate-key".into(),
                    table: "key_values".into(),
                    key: "key-1".into(),
                    key_hash: 0xdeadbeefcafef00d,
                    racing: vec![
                        RacingTxn {
                            worker: 1,
                            txn: 7,
                            probe_seq: 10,
                            probe_ts: 1000,
                            write_seq: 14,
                            write_ts: 1400,
                        },
                        RacingTxn {
                            worker: 2,
                            txn: 8,
                            probe_seq: 11,
                            probe_ts: 1100,
                            write_seq: 15,
                            write_ts: 1500,
                        },
                    ],
                    overlap_nanos: 300,
                    witness: Some(Witness {
                        scenario: "uniqueness/read-committed/feral/2w".into(),
                        isolation: "read-committed".into(),
                        guard: "feral".into(),
                        workers: 2,
                        replay: "feral-sim replay --scenario uniqueness --seed 3".into(),
                        message: "duplicate key: key-1".into(),
                    }),
                    flight: vec!["seq=10 t=1000ns w1 txn=7 unique-probe a=0x1 b=0x2".into()],
                }],
            }],
        }
    }

    #[test]
    fn json_roundtrips_and_validates() {
        let report = sample_report();
        let text = report.to_json();
        let doc = validate_report(&text).expect("valid report");
        let cells = doc.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].get("duplicates").unwrap().as_u64(), Some(3));
        let prov = cells[0].get("provenance").unwrap().as_arr().unwrap();
        assert_eq!(
            prov[0].get("key_hash").unwrap().as_str(),
            Some("0xdeadbeefcafef00d")
        );
    }

    #[test]
    fn validation_catches_corrupted_histograms() {
        let mut report = sample_report();
        report.cells[0].histograms[0].1.count += 1; // no longer sums
        assert!(validate_report(&report.to_json()).is_err());
    }

    #[test]
    fn validation_catches_singleton_racing_set() {
        let mut report = sample_report();
        report.cells[0].provenance[0].racing.truncate(1);
        assert!(validate_report(&report.to_json()).is_err());
    }

    #[test]
    fn prometheus_output_is_labelled_per_cell() {
        let text = sample_report().to_prometheus();
        assert!(text.contains("feral_duplicates_total{cell=\"read-committed/feral\"} 3"));
        assert!(text.contains(
            "feral_engine_events_total{cell=\"read-committed/feral\",counter=\"validation_probes\"} 80"
        ));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("feral_phase_latency_nanos_count"));
    }

    #[test]
    fn prometheus_output_has_help_and_type_headers() {
        let text = sample_report().to_prometheus();
        for metric in [
            "feral_duplicates_total",
            "feral_rejected_total",
            "feral_engine_events_total",
            "feral_phase_latency_nanos",
        ] {
            let help = format!("# HELP {metric} ");
            let typ = format!("# TYPE {metric} ");
            assert!(text.contains(&help), "missing HELP for {metric}");
            assert!(text.contains(&typ), "missing TYPE for {metric}");
            // HELP must precede TYPE which must precede the first sample.
            let h = text.find(&help).unwrap();
            let t = text.find(&typ).unwrap();
            let s = text.find(&format!("{metric}{{")).unwrap();
            assert!(h < t && t < s, "header order wrong for {metric}");
        }
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let mut report = sample_report();
        report.cells[0].label = "quote\" slash\\ line\nend".into();
        let text = report.to_prometheus();
        assert!(text.contains("cell=\"quote\\\" slash\\\\ line\\nend\""));
        // No raw (unescaped) newline may survive inside a sample line.
        for line in text.lines() {
            assert!(!line.contains("line\nend"));
        }
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
    }
}
