//! Rendering for `feral-racer check`: human text, the JSON inventory
//! (the golden-diffed artifact), and SARIF 2.1.0 through the shared
//! emitter in `feral_cli::report`.

use crate::rules::{Finding, RULES};
use crate::Analysis;
use feral_cli::report::{json_escape, render_sarif, SarifResult, SarifRule};

/// Human-readable summary.
pub fn render_text(a: &Analysis) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "feral-racer: {} files, {} functions\n",
        a.files,
        a.facts.len(),
    ));
    out.push_str(&format!(
        "declarations: {} publication, {} seqlock\n",
        a.decls.publications.len(),
        a.decls.seqlocks.len(),
    ));
    if a.findings.is_empty() {
        out.push_str("no findings\n");
    } else {
        for f in &a.findings {
            out.push_str(&format!(
                "{}: {}:{}: {}\n",
                f.rule, f.file, f.line, f.message
            ));
        }
    }
    out
}

/// The JSON inventory: what was scanned and every finding.
/// Deterministic field and element order — this is the golden artifact.
pub fn render_inventory(a: &Analysis) -> String {
    let findings: Vec<String> = a.findings.iter().map(finding_json).collect();
    format!(
        "{{\"tool\":\"feral-racer\",\"files\":{},\"functions\":{},\"findings\":[{}]}}\n",
        a.files,
        a.facts.len(),
        findings.join(",")
    )
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
        json_escape(f.rule),
        json_escape(&f.file),
        f.line,
        json_escape(&f.message)
    )
}

/// SARIF 2.1.0 through the shared emitter.
pub fn render_sarif_report(a: &Analysis) -> String {
    let rules: Vec<SarifRule<'_>> = RULES
        .iter()
        .map(|r| SarifRule {
            id: r.id,
            name: r.name,
            summary: r.summary,
            help_uri: r.anchor,
            citation: r.citation,
        })
        .collect();
    let results: Vec<SarifResult<'_>> = a
        .findings
        .iter()
        .map(|f| SarifResult {
            rule_id: f.rule,
            level: "error",
            message: f.message.clone(),
            uri: f.file.clone(),
            line: u64::from(f.line),
        })
        .collect();
    render_sarif(
        "feral-racer",
        "DESIGN.md#14-self-hosting-concurrency-analysis-feral-racer",
        &rules,
        &results,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_trace::json::parse;

    #[test]
    fn inventory_and_sarif_parse_for_an_empty_analysis() {
        let a = Analysis::default();
        let inv = parse(render_inventory(&a).trim()).expect("inventory parses");
        assert_eq!(
            inv.get("tool").and_then(|t| t.as_str()),
            Some("feral-racer")
        );
        assert_eq!(inv.get("files").and_then(|v| v.as_u64()), Some(0));
        let sarif = parse(render_sarif_report(&a).trim()).expect("sarif parses");
        let run = &sarif.get("runs").and_then(|r| r.as_arr()).unwrap()[0];
        let rules = run
            .get("tool")
            .unwrap()
            .get("driver")
            .unwrap()
            .get("rules")
            .and_then(|r| r.as_arr())
            .unwrap();
        assert_eq!(rules.len(), RULES.len());
    }
}
