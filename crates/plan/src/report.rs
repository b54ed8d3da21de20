//! Plan renderers: human-readable text, the `BENCH_plan` JSON artifact,
//! and a Graphviz dot view of the cell structure. All deterministic.

use crate::certify::{describe_cell, CellCert};
use crate::infer::{guard_str, Plan, PlanCell};
use feral_cli::isolation_flag;
use feral_db::IsolationLevel;
use feral_sdg::LEVELS;
use feral_trace::json::escape;
use std::fmt::Write as _;

/// Human-readable plan: the per-level census, every cell, and each
/// app's assignments.
pub fn render_text(plan: &Plan) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "feral-plan: corpus seed {}", plan.corpus_seed);
    let total: usize = plan.apps.iter().map(|a| a.assignments.len()).sum();
    let _ = writeln!(
        out,
        "{} apps, {} template assignments, {} cells",
        plan.apps.len(),
        total,
        plan.cells.len()
    );
    for level in LEVELS {
        let _ = writeln!(
            out,
            "  {:<16} {}",
            isolation_flag(level),
            plan.assignments_at(level)
        );
    }
    out.push('\n');
    for (i, cell) in plan.cells.iter().enumerate() {
        let _ = writeln!(out, "cell {i}: {}", describe_cell(cell));
    }
    out.push('\n');
    for app in &plan.apps {
        if app.assignments.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{} (transactions: {})", app.app, app.transactions);
        for a in &app.assignments {
            let cell = match a.cell {
                Some(i) => format!("cell {i}"),
                None => "static".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<52} {:<16} {:<24} {}",
                a.template.key(),
                isolation_flag(a.level),
                a.basis.label(),
                cell
            );
        }
    }
    out
}

fn json_levels(levels: [IsolationLevel; 2]) -> String {
    format!(
        "[\"{}\",\"{}\"]",
        isolation_flag(levels[0]),
        isolation_flag(levels[1])
    )
}

fn json_cell(cell: &PlanCell, cert: Option<&CellCert>) -> String {
    let mut s = format!(
        "{{\"pair\":\"{}\",\"guard\":\"{}\",\"levels\":{},\"gate\":\"{}\",\"escalated\":{}",
        cell.pair.name(),
        guard_str(cell.guard),
        json_levels(cell.levels),
        cell.gate.name(),
        cell.escalated()
    );
    if let Some(d) = cell.demoted() {
        let _ = write!(s, ",\"witness_levels\":{}", json_levels(d));
    }
    if let Some(cert) = cert {
        let _ = write!(s, ",\"certificate\":{{\"sweep\":{}", cert.sweep.to_json());
        if let Some(w) = &cert.witness {
            let _ = write!(s, ",\"witness\":{}", w.to_json());
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// The `BENCH_plan` JSON artifact. With certificates, every cell embeds
/// its sweep receipt and (when escalated) its replaying witness.
pub fn render_json(plan: &Plan, certs: Option<&[CellCert]>) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"tool\": \"feral-plan\",\n");
    let _ = writeln!(out, "  \"corpus_seed\": {},", plan.corpus_seed);
    let total: usize = plan.apps.iter().map(|a| a.assignments.len()).sum();
    let _ = writeln!(
        out,
        "  \"summary\": {{\"apps\": {}, \"assignments\": {}, \"cells\": {}, {}}},",
        plan.apps.len(),
        total,
        plan.cells.len(),
        LEVELS
            .map(|l| format!("\"{}\": {}", isolation_flag(l), plan.assignments_at(l)))
            .join(", ")
    );
    out.push_str("  \"cells\": [\n");
    for (i, cell) in plan.cells.iter().enumerate() {
        let cert = certs.map(|cs| &cs[i]);
        let comma = if i + 1 < plan.cells.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", json_cell(cell, cert));
    }
    out.push_str("  ],\n  \"apps\": [\n");
    for (ai, app) in plan.apps.iter().enumerate() {
        let mut s = format!(
            "{{\"app\":\"{}\",\"transactions\":{},\"assignments\":[",
            escape(&app.app),
            app.transactions
        );
        for (i, a) in app.assignments.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let cell = match a.cell {
                Some(i) => i.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                s,
                "{{\"template\":\"{}\",\"model\":\"{}\",\"file\":\"{}\",\
                 \"level\":\"{}\",\"basis\":\"{}\",\"cell\":{}}}",
                escape(&a.template.key()),
                escape(&a.template.model),
                escape(&a.template.file),
                isolation_flag(a.level),
                a.basis.label(),
                cell
            );
        }
        s.push_str("]}");
        let comma = if ai + 1 < plan.apps.len() { "," } else { "" };
        let _ = writeln!(out, "    {s}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Graphviz dot view: one node per cell (colored by the strongest slot
/// level), one node per template class that maps onto it, edges labeled
/// with the slot's assigned level.
pub fn render_dot(plan: &Plan) -> String {
    let mut out = String::from("digraph feral_plan {\n  rankdir=LR;\n  node [shape=box];\n");
    for (i, cell) in plan.cells.iter().enumerate() {
        let color = match *cell
            .levels
            .iter()
            .max_by_key(|l| crate::infer::rank(**l))
            .expect("two slots")
        {
            IsolationLevel::ReadCommitted => "palegreen",
            IsolationLevel::RepeatableRead => "khaki",
            IsolationLevel::Snapshot => "orange",
            IsolationLevel::Serializable => "lightcoral",
        };
        let _ = writeln!(
            out,
            "  cell{i} [label=\"{}/{}\\n{}+{}\\n{}\" style=filled fillcolor={color}];",
            cell.pair.name(),
            guard_str(cell.guard),
            isolation_flag(cell.levels[0]),
            isolation_flag(cell.levels[1]),
            cell.gate.name()
        );
    }
    // aggregate template->cell edges across apps, weighted by use count
    let mut edges: std::collections::BTreeMap<(String, usize, String), usize> =
        std::collections::BTreeMap::new();
    for app in &plan.apps {
        for a in &app.assignments {
            if let Some(cell) = a.cell {
                *edges
                    .entry((
                        a.template.class.name().to_string(),
                        cell,
                        isolation_flag(a.level),
                    ))
                    .or_insert(0) += 1;
            }
        }
    }
    let classes: std::collections::BTreeSet<&str> =
        edges.keys().map(|(c, _, _)| c.as_str()).collect();
    for class in classes {
        let _ = writeln!(out, "  \"{class}\" [shape=ellipse];");
    }
    for ((class, cell, level), count) in edges {
        let _ = writeln!(
            out,
            "  \"{class}\" -> cell{cell} [label=\"{level} x{count}\"];"
        );
    }
    out.push_str("}\n");
    out
}
