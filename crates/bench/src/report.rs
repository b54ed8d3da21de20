//! The table1 run report (`BENCH_table1.json`): its one writer and its
//! one reader, side by side; the reader ends in the gate
//! (`checkgate.rs`).
//!
//! A [`RunReport`] is a list of experiment cells, each carrying its
//! workload shape, anomaly counts, a windowed engine-stats diff,
//! per-phase latency histogram summaries, and any anomaly provenance
//! records ([`crate::provenance`]). Two wire formats:
//!
//! - **JSON** ([`RunReport::to_json`]): written by `feral-paper table1`;
//!   [`RunReport::from_json`] reads it back. The reader rebuilds every
//!   histogram from its buckets and refuses a claimed mean or quantile
//!   that does not recompute, then applies the gate: every cell exports exactly
//!   the engine's counters and committed work, and at least one
//!   provenance record carries a replayable witness. `table1` reads its
//!   own output back before writing it, and `feral-paper check` runs the
//!   same reader over a saved file.
//! - **Prometheus text** ([`RunReport::to_prometheus`]): counters and
//!   latency summaries, one labelled series per cell.
//!
//! 64-bit hashes are emitted as hex *strings* — the JSON number path
//! is `f64` and would silently lose precision above 2^53.

use crate::provenance::{ProvenanceRecord, RacingTxn, Witness};
use feral_trace::escape_label;
use feral_trace::json::{self, require, require_arr, require_str, require_u64, Json};
use feral_trace::HistogramSnapshot;

/// Report schema version (bump on breaking JSON shape changes).
pub const REPORT_VERSION: u64 = 1;

/// One experiment cell: a workload run under one configuration.
#[derive(Debug, Clone, PartialEq)]
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
    /// Windowed engine-stats diff, `(counter name, delta)` pairs in
    /// [`feral_db::StatsSnapshot::fields`] order.
    pub stats: Vec<(String, u64)>,
    /// Per-phase latency histograms, `(phase name, snapshot)` pairs.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Explained anomalies with replayable witnesses.
    pub provenance: Vec<ProvenanceRecord>,
}

/// A full run report: metadata plus one entry per cell.
#[derive(Debug, Clone, PartialEq)]
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

    /// Read a report as [`RunReport::to_json`] writes it, then gate it.
    /// Refuses a document that is malformed, names an unknown schema
    /// version or no cells, carries a histogram whose buckets do not
    /// sum to its count or whose claimed mean or quantiles do not
    /// recompute from its buckets, or a provenance record with fewer than two
    /// racing transactions or an empty replay command; and refuses a
    /// well-formed report that fails the gate: a cell whose counters
    /// are not exactly [`feral_db::StatsSnapshot::fields`], a cell that committed
    /// nothing, or no witnessed provenance record anywhere.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let doc = json::parse(text)?;
        let version = require_u64(&doc, "version", "report")?;
        if version != REPORT_VERSION {
            return Err(format!(
                "report: unsupported version {version} (expected {REPORT_VERSION})"
            ));
        }
        let cells = require_arr(&doc, "cells", "report")?;
        if cells.is_empty() {
            return Err("report: no cells".into());
        }
        let report = RunReport {
            report: require_str(&doc, "report", "report")?.into(),
            smoke: require(&doc, "smoke", "report")?
                .as_bool()
                .ok_or("report: 'smoke' is not a boolean")?,
            seed: require_u64(&doc, "seed", "report")?,
            cells: cells.iter().map(read_cell).collect::<Result<_, _>>()?,
        };
        report.gate()?;
        Ok(report)
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

/// The members of object `key` of `obj`, in document order.
fn require_obj<'j>(obj: &'j Json, key: &str, ctx: &str) -> Result<&'j [(String, Json)], String> {
    match require(obj, key, ctx)? {
        Json::Obj(pairs) => Ok(pairs),
        _ => Err(format!("{ctx}: '{key}' is not an object")),
    }
}

fn read_cell(cell: &Json) -> Result<CellReport, String> {
    let label = require_str(cell, "label", "cell")?.to_string();
    let ctx = format!("cell '{label}'");
    let stats = require_obj(cell, "stats", &ctx)?
        .iter()
        .map(|(name, v)| {
            v.as_u64()
                .map(|v| (name.clone(), v))
                .ok_or(format!("{ctx}: stat '{name}' is not an integer"))
        })
        .collect::<Result<_, _>>()?;
    let histograms = require_obj(cell, "histograms", &ctx)?
        .iter()
        .map(|(name, h)| {
            Ok((
                name.clone(),
                read_histogram(h, &format!("{ctx} histogram '{name}'"))?,
            ))
        })
        .collect::<Result<_, String>>()?;
    let provenance = require_arr(cell, "provenance", &ctx)?
        .iter()
        .map(|p| read_provenance(p, &format!("{ctx} provenance")))
        .collect::<Result<_, _>>()?;
    Ok(CellReport {
        isolation: require_str(cell, "isolation", &ctx)?.into(),
        enforcement: require_str(cell, "enforcement", &ctx)?.into(),
        workers: require_u64(cell, "workers", &ctx)? as usize,
        rounds: require_u64(cell, "rounds", &ctx)? as usize,
        concurrent: require_u64(cell, "concurrent", &ctx)? as usize,
        duplicates: require_u64(cell, "duplicates", &ctx)?,
        rows: require_u64(cell, "rows", &ctx)?,
        rejected: require_u64(cell, "rejected", &ctx)?,
        label,
        stats,
        histograms,
        provenance,
    })
}

/// Rebuild a histogram from its sparse buckets; the claimed `mean`,
/// `p50`, `p95` and `p99` must be what those buckets give.
fn read_histogram(h: &Json, ctx: &str) -> Result<HistogramSnapshot, String> {
    let count = require_u64(h, "count", ctx)?;
    let mut pairs = Vec::new();
    for b in require_arr(h, "buckets", ctx)? {
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
    let snap = HistogramSnapshot::from_sparse(
        &pairs,
        count,
        require_u64(h, "sum", ctx)?,
        require_u64(h, "max", ctx)?,
    )
    .map_err(|e| format!("{ctx}: {e}"))?;
    if !snap.well_formed() {
        return Err(format!(
            "{ctx}: bucket counts do not sum to 'count' ({count})"
        ));
    }
    let mean = require(h, "mean", ctx)?
        .as_f64()
        .ok_or(format!("{ctx}: 'mean' is not a number"))?;
    if format!("{mean:.3}") != format!("{:.3}", snap.mean()) {
        return Err(format!(
            "{ctx}: mean mismatch (claimed {mean}, recomputed {:.3})",
            snap.mean()
        ));
    }
    for (q, key) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
        let claimed = require_u64(h, key, ctx)?;
        let recomputed = snap.quantile(q);
        if recomputed != claimed {
            return Err(format!(
                "{ctx}: {key} mismatch (claimed {claimed}, recomputed {recomputed})"
            ));
        }
    }
    Ok(snap)
}

fn read_provenance(p: &Json, ctx: &str) -> Result<ProvenanceRecord, String> {
    let key_hash = require_str(p, "key_hash", ctx)?;
    let key_hash = key_hash
        .strip_prefix("0x")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or(format!("{ctx}: 'key_hash' {key_hash} is not a hex u64"))?;
    let racing = require_arr(p, "racing", ctx)?;
    if racing.len() < 2 {
        return Err(format!(
            "{ctx}: provenance names fewer than two racing txns"
        ));
    }
    let racing = racing
        .iter()
        .map(|r| {
            Ok(RacingTxn {
                worker: require_u64(r, "worker", ctx)?,
                txn: require_u64(r, "txn", ctx)?,
                probe_seq: require_u64(r, "probe_seq", ctx)?,
                probe_ts: require_u64(r, "probe_ts", ctx)?,
                write_seq: require_u64(r, "write_seq", ctx)?,
                write_ts: require_u64(r, "write_ts", ctx)?,
            })
        })
        .collect::<Result<_, String>>()?;
    let witness = match require(p, "witness", ctx)? {
        Json::Null => None,
        w => {
            let wctx = format!("{ctx} witness");
            let replay = require_str(w, "replay", &wctx)?.to_string();
            if replay.is_empty() {
                return Err(format!("{ctx}: witness replay command is empty"));
            }
            Some(Witness {
                scenario: require_str(w, "scenario", &wctx)?.into(),
                isolation: require_str(w, "isolation", &wctx)?.into(),
                guard: require_str(w, "guard", &wctx)?.into(),
                workers: require_u64(w, "workers", &wctx)? as usize,
                replay,
                message: require_str(w, "message", &wctx)?.into(),
            })
        }
    };
    let flight = require_arr(p, "flight", ctx)?
        .iter()
        .map(|line| {
            line.as_str()
                .map(str::to_string)
                .ok_or(format!("{ctx}: flight line is not a string"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ProvenanceRecord {
        anomaly: require_str(p, "anomaly", ctx)?.into(),
        table: require_str(p, "table", ctx)?.into(),
        key: require_str(p, "key", ctx)?.into(),
        key_hash,
        racing,
        overlap_nanos: require_u64(p, "overlap_nanos", ctx)?,
        witness,
        flight,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use feral_db::StatsSnapshot;
    use feral_trace::Histogram;

    /// A report that passes the reader and the gate: one committed
    /// cell, one witnessed provenance record.
    pub(crate) fn sample_report() -> RunReport {
        let h = Histogram::new();
        for v in [120u64, 450, 900, 88_000] {
            h.record(v);
        }
        let stats = StatsSnapshot {
            commits: 40,
            validation_probes: 80,
            ..StatsSnapshot::default()
        };
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
                stats: stats
                    .fields()
                    .into_iter()
                    .map(|(n, v)| (n.to_string(), v))
                    .collect(),
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
                        replay: "feral-sim replay --scenario uniqueness --choices 0,1".into(),
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
        assert!(text.contains("\"key_hash\": \"0xdeadbeefcafef00d\""));
        let read = RunReport::from_json(&text).expect("valid report");
        assert_eq!(read, report);
        assert_eq!(read.to_json(), text);
    }

    fn assert_refused(report: &RunReport, want: &str) {
        match RunReport::from_json(&report.to_json()) {
            Ok(_) => panic!("the reader accepted it; wanted '{want}'"),
            Err(e) => assert!(e.contains(want), "{e}"),
        }
    }

    #[test]
    fn validation_catches_corrupted_histograms() {
        let mut report = sample_report();
        report.cells[0].histograms[0].1.count += 1; // no longer sums
        assert_refused(&report, "do not sum");
    }

    #[test]
    fn validation_catches_singleton_racing_set() {
        let mut report = sample_report();
        report.cells[0].provenance[0].racing.truncate(1);
        assert_refused(&report, "fewer than two racing");
    }

    /// Every other document the reader refuses, each with the words its
    /// refusal must contain (the gate's own refusals are tested in
    /// [`crate::checkgate`]). Each case edits one field of a report that
    /// passes.
    #[test]
    fn from_json_refuses_every_malformed_or_ungated_report() {
        type Edit = fn(&mut RunReport);
        let text_cases: [(&str, String, &str); 1] = [(
            "no version",
            sample_report().to_json().replace("\"version\": 1,", ""),
            "missing key 'version'",
        )];
        let report_cases: [(&str, Edit, &str); 4] = [
            (
                "empty replay",
                |r| r.cells[0].provenance[0].witness.as_mut().unwrap().replay = String::new(),
                "replay command is empty",
            ),
            (
                "a cell lacking one engine counter",
                |r| {
                    r.cells[0].stats.pop();
                },
                "missing counter",
            ),
            (
                "a counter the engine does not have",
                |r| r.cells[0].stats.push(("bogus".into(), 1)),
                "unknown counter 'bogus'",
            ),
            ("no cells", |r| r.cells.clear(), "no cells"),
        ];
        let mut cases: Vec<(&str, String, &str)> = text_cases.into_iter().collect();
        for (name, edit, want) in report_cases {
            let mut report = sample_report();
            edit(&mut report);
            cases.push((name, report.to_json(), want));
        }
        // a mean or a quantile that does not recompute from the buckets
        let text = sample_report().to_json();
        let hist = &sample_report().cells[0].histograms[0].1;
        let p95 = hist.quantile(0.95);
        cases.push((
            "a quantile that does not recompute",
            text.replace(
                &format!("\"p95\": {p95},"),
                &format!("\"p95\": {},", p95 + 1),
            ),
            "p95 mismatch",
        ));
        cases.push((
            "a mean that does not recompute",
            text.replace(
                &format!("\"mean\": {:.3},", hist.mean()),
                "\"mean\": 1.000,",
            ),
            "mean mismatch",
        ));
        for (name, text, want) in cases {
            match RunReport::from_json(&text) {
                Ok(_) => panic!("{name}: the reader accepted it"),
                Err(e) => assert!(e.contains(want), "{name}: {e}"),
            }
        }
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
