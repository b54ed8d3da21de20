//! Renderers: text matrix, per-cell graph dumps, Graphviz dot, and the
//! `BENCH_sdg.json` machine-readable artifact (hand-rolled JSON — the
//! offline workspace has no serializer).

use crate::cycles::render_cycle;
use crate::graph::DepGraph;
use crate::matrix::{Cell, CellEvidence, PairKind, Verdict, LEVELS};
use feral_sim::scenarios::ScenarioSpec;
use std::fmt::Write as _;

/// Shared JSON string escaper (re-exported so existing callers keep
/// their `feral_sdg::report::json_escape` path).
pub use feral_cli::report::json_escape;

/// The `feral-sim systematic` invocation that probes a cell's scenario.
pub fn probe_command(spec: &ScenarioSpec) -> String {
    format!("feral-sim systematic {}", spec.flags())
}

fn short_verdict(cell: &Cell) -> String {
    match &cell.verdict {
        Verdict::Unsafe { .. } => "UNSAFE".to_string(),
        Verdict::Safe { reason } => format!("safe:{}", reason.name()),
    }
}

/// Render the matrix as an aligned text table.
pub fn render_matrix_text(cells: &[Cell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<28} {:<28} {:<28} {:<28}",
        "pair", "read committed", "repeatable read", "snapshot", "serializable"
    );
    for pair in PairKind::all() {
        let mut line = format!("{:<16}", pair.name());
        for level in LEVELS {
            let cell = cells
                .iter()
                .find(|c| c.pair == pair && c.isolation == level)
                .expect("full matrix");
            let _ = write!(line, " {:<28}", short_verdict(cell));
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Render one cell's graph, verdict, and scenario as text.
pub fn render_graph_text(cell: &Cell) -> String {
    let g = &cell.graph;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pair {} at {} — {}",
        cell.pair.name(),
        cell.isolation,
        short_verdict(cell)
    );
    for t in &g.templates {
        let _ = writeln!(out, "  txn {}", t.name);
        for s in &t.steps {
            let _ = writeln!(out, "    {:<24} {}", s.label, s.access);
        }
    }
    let _ = writeln!(
        out,
        "  overlaps: {} rw, {} ww",
        g.rw_overlaps.len(),
        g.ww_overlaps.len()
    );
    for o in &g.ww_overlaps {
        let _ = writeln!(
            out,
            "    ww {} <-> {} on {}",
            g.templates[o.a_txn].name, g.templates[o.b_txn].name, o.item
        );
    }
    let _ = writeln!(out, "  admitted edges: {}", g.edges.len());
    for e in &g.edges {
        let _ = writeln!(
            out,
            "    {} -{}[{}]-> {}  (overlap {})",
            g.templates[e.from].name,
            e.kind.label(),
            e.item,
            g.templates[e.to].name,
            e.overlap
        );
    }
    match &cell.verdict {
        Verdict::Unsafe { cycle } => {
            let _ = writeln!(out, "  critical cycle: {}", render_cycle(g, cycle));
        }
        Verdict::Safe { reason } => {
            let _ = writeln!(out, "  safe: {}", reason.name());
        }
    }
    let _ = writeln!(out, "  probe: {}", probe_command(&cell.scenario));
    out
}

/// Render one cell's graph as Graphviz dot (cycle edges bold).
pub fn render_dot(cell: &Cell) -> String {
    let g = &cell.graph;
    let cycle_edges: Vec<(usize, usize, usize)> = match &cell.verdict {
        Verdict::Unsafe { cycle } => cycle.iter().map(|e| (e.from, e.to, e.overlap)).collect(),
        Verdict::Safe { .. } => Vec::new(),
    };
    let mut out = String::new();
    let _ = writeln!(out, "digraph sdg {{");
    let _ = writeln!(
        out,
        "  label=\"{} at {} — {}\";",
        cell.pair.name(),
        cell.isolation,
        short_verdict(cell)
    );
    let _ = writeln!(out, "  rankdir=LR;");
    for (i, t) in g.templates.iter().enumerate() {
        let _ = writeln!(out, "  t{} [label=\"{}\", shape=box];", i, t.name);
    }
    for e in &g.edges {
        let in_cycle = cycle_edges.contains(&(e.from, e.to, e.overlap));
        let _ = writeln!(
            out,
            "  t{} -> t{} [label=\"{} {}\"{}];",
            e.from,
            e.to,
            e.kind.label(),
            e.item,
            if in_cycle {
                ", penwidth=2.5, color=red"
            } else {
                ""
            }
        );
    }
    for o in &g.ww_overlaps {
        let _ = writeln!(
            out,
            "  t{} -> t{} [label=\"ww {}\", dir=both, style=dashed];",
            o.a_txn, o.b_txn, o.item
        );
    }
    let _ = writeln!(out, "}}");
    out
}

fn json_mix(mix: feral_iconfluence::OperationMix) -> &'static str {
    match mix {
        feral_iconfluence::OperationMix::InsertionsOnly => "insertions-only",
        feral_iconfluence::OperationMix::WithDeletions => "with-deletions",
    }
}

fn json_safety(s: feral_iconfluence::Safety) -> &'static str {
    match s {
        feral_iconfluence::Safety::IConfluent => "iconfluent",
        feral_iconfluence::Safety::NotIConfluent => "not-iconfluent",
    }
}

fn json_templates(g: &DepGraph) -> String {
    let mut parts = Vec::new();
    for t in &g.templates {
        let steps: Vec<String> = t
            .steps
            .iter()
            .map(|s| {
                format!(
                    "{{\"label\":\"{}\",\"access\":\"{}\"}}",
                    json_escape(&s.label),
                    json_escape(&s.access.to_string())
                )
            })
            .collect();
        parts.push(format!(
            "{{\"name\":\"{}\",\"steps\":[{}]}}",
            json_escape(&t.name),
            steps.join(",")
        ));
    }
    format!("[{}]", parts.join(","))
}

fn json_cell(cell: &Cell, evidence: Option<&CellEvidence>) -> String {
    let g = &cell.graph;
    let (verdict, reason, cycle) = match &cell.verdict {
        Verdict::Unsafe { cycle } => {
            let edges: Vec<String> = cycle
                .iter()
                .map(|e| {
                    format!(
                        "{{\"kind\":\"{}\",\"from\":\"{}\",\"to\":\"{}\",\"item\":\"{}\"}}",
                        e.kind.label(),
                        json_escape(&g.templates[e.from].name),
                        json_escape(&g.templates[e.to].name),
                        json_escape(&e.item)
                    )
                })
                .collect();
            (
                "unsafe",
                "null".to_string(),
                format!("[{}]", edges.join(",")),
            )
        }
        Verdict::Safe { reason } => ("safe", format!("\"{}\"", reason.name()), "[]".to_string()),
    };
    let mut out = format!(
        "{{\"pair\":\"{}\",\"isolation\":\"{}\",\"verdict\":\"{}\",\"reason\":{},\"cycle\":{},\
         \"rw_overlaps\":{},\"ww_overlaps\":{},\"edges\":{},\"scenario\":\"{}\"",
        cell.pair.name(),
        cell.isolation,
        verdict,
        reason,
        cycle,
        g.rw_overlaps.len(),
        g.ww_overlaps.len(),
        g.edges.len(),
        json_escape(&probe_command(&cell.scenario))
    );
    if let Some(evidence) = evidence {
        out.push_str(",\"validation\":");
        let (kind, json) = match evidence {
            CellEvidence::Witness(w) => ("witness", w.to_json()),
            CellEvidence::Sweep(s) => ("sweep", s.to_json()),
        };
        let _ = write!(out, "{{\"{kind}\":{json}}}");
    }
    out.push('}');
    out
}

/// Render the full matrix as the `BENCH_sdg.json` artifact. Without
/// `evidence` the output is fully deterministic (the checked-in golden);
/// with it, each cell gains a `validation` object.
pub fn render_json(cells: &[Cell], evidence: Option<&[CellEvidence]>) -> String {
    let mut out = String::from("{\"tool\":\"feral-sdg\",\"version\":1,");
    let levels: Vec<String> = LEVELS.iter().map(|l| format!("\"{l}\"")).collect();
    let _ = write!(out, "\"isolations\":[{}],", levels.join(","));
    let mut pairs = Vec::new();
    for pair in PairKind::all() {
        let cell = cells.iter().find(|c| c.pair == pair).expect("full matrix");
        pairs.push(format!(
            "{{\"pair\":\"{}\",\"iconfluence\":{{\"validator\":\"{}\",\"mix\":\"{}\",\
             \"safety\":\"{}\"}},\"templates\":{}}}",
            pair.name(),
            cell.iconfluence.kind,
            json_mix(cell.iconfluence.mix),
            json_safety(cell.iconfluence.safety),
            json_templates(&cell.graph)
        ));
    }
    let _ = write!(out, "\"pairs\":[{}],", pairs.join(","));
    let cell_json: Vec<String> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| json_cell(c, evidence.map(|e| &e[i])))
        .collect();
    let _ = write!(out, "\"cells\":[{}]}}", cell_json.join(","));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::build_matrix;

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_artifact_is_deterministic_and_covers_every_cell() {
        let matrix = build_matrix();
        let a = render_json(&matrix, None);
        let b = render_json(&build_matrix(), None);
        assert_eq!(a, b);
        assert_eq!(a.matches("\"pair\":").count(), 4 + 16);
        // uniqueness 3 + orphans 3 + lock-rmw 2 unsafe cells
        assert_eq!(a.matches("\"verdict\":\"unsafe\"").count(), 8);
        assert!(!a.contains("\"validation\":"));
    }

    #[test]
    fn dot_marks_cycle_edges() {
        let matrix = build_matrix();
        let unsafe_cell = matrix
            .iter()
            .find(|c| c.verdict.is_unsafe())
            .expect("matrix has unsafe cells");
        let dot = render_dot(unsafe_cell);
        assert!(dot.contains("color=red"));
        assert!(dot.starts_with("digraph sdg {"));
    }
}
