//! Report rendering: human text, JSON, and SARIF 2.1.0.
//!
//! JSON is emitted by hand (the workspace is offline and has no
//! serializer); every dynamic string goes through
//! [`json_escape`].

use crate::rules::{rule_meta, Anomaly, Finding, Severity, RULES};
use crate::CorpusRun;
use feral_iconfluence::{PaperVerdict, Safety};
use feral_sim::Witness;
use std::fmt::Write as _;

/// Shared JSON string escaper (re-exported so existing callers keep
/// their `feral_lint::report::json_escape` path).
pub use feral_cli::report::json_escape;

fn verdict_str(v: PaperVerdict) -> &'static str {
    match v {
        PaperVerdict::Yes => "Yes",
        PaperVerdict::No => "No",
        PaperVerdict::Depends => "Depends",
    }
}

fn safety_str(s: Option<Safety>) -> &'static str {
    match s {
        Some(Safety::IConfluent) => "I-confluent",
        Some(Safety::NotIConfluent) => "not I-confluent",
        None => "not model-checked",
    }
}

/// Human-readable report: per-app findings plus a corpus rollup that
/// reads as a measured analogue of Table 1 crossed with Table 2.
pub fn render_report(run: &CorpusRun) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "feral-lint: {} applications analyzed", run.apps.len());
    let _ = writeln!(out);
    for app in &run.apps {
        if app.findings.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "{} ({} models, {} validations, {} associations, {} transactions)",
            app.app, app.models, app.validations, app.associations, app.transactions
        );
        for f in &app.findings {
            let meta = rule_meta(f.rule);
            let sev = match f.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            let _ = writeln!(out, "  {}: [{} {}] {}", sev, f.rule, meta.name, f.message);
            let _ = writeln!(
                out,
                "      verdict: {} ({}) — {}",
                verdict_str(f.verdict),
                safety_str(f.safety),
                meta.citation
            );
            if let Some(wi) = f.witness {
                if let Some(w) = run.witnesses.get(wi) {
                    let _ = writeln!(
                        out,
                        "      witness: {} after {} schedules — {}",
                        w.message.trim(),
                        w.schedules_searched,
                        w.replay_command()
                    );
                }
            }
        }
        let _ = writeln!(out);
    }
    render_summary(run, &mut out);
    out
}

fn render_summary(run: &CorpusRun, out: &mut String) {
    let total: usize = run.apps.iter().map(|a| a.findings.len()).sum();
    let errors: usize = run
        .apps
        .iter()
        .flat_map(|a| &a.findings)
        .filter(|f| f.severity == Severity::Error)
        .count();
    let _ = writeln!(out, "== corpus summary ==");
    let _ = writeln!(
        out,
        "{} findings ({} errors, {} warnings) across {} of {} applications",
        total,
        errors,
        total - errors,
        run.apps.iter().filter(|a| !a.findings.is_empty()).count(),
        run.apps.len()
    );
    for rule in RULES {
        let n: usize = run
            .apps
            .iter()
            .flat_map(|a| &a.findings)
            .filter(|f| f.rule == rule.id)
            .count();
        let apps = run
            .apps
            .iter()
            .filter(|a| a.findings.iter().any(|f| f.rule == rule.id))
            .count();
        let _ = writeln!(
            out,
            "  {} {:<32} {:>4} findings in {:>2} apps — {}",
            rule.id, rule.name, n, apps, rule.summary
        );
    }
    for anomaly in [
        Anomaly::DuplicateAdmitting,
        Anomaly::OrphanAdmitting,
        Anomaly::LostUpdateAdmitting,
    ] {
        let n = run
            .apps
            .iter()
            .flat_map(|a| &a.findings)
            .filter(|f| f.anomaly == Some(anomaly))
            .count();
        let _ = writeln!(out, "  {:<20} constructs: {}", anomaly.label(), n);
    }
    if !run.witnesses.is_empty() {
        let _ = writeln!(out, "== anomaly witnesses ==");
        for w in &run.witnesses {
            let _ = writeln!(
                out,
                "  {} fired after {} schedules: {}",
                w.spec.label(),
                w.schedules_searched,
                w.replay_command()
            );
        }
    }
}

fn json_witness(w: &Witness) -> String {
    let choices: Vec<String> = w.choices.iter().map(|c| c.to_string()).collect();
    format!(
        "{{\"scenario\":\"{}\",\"strategy\":\"{}\",\"seed\":null,\"choices\":[{}],\"schedules_searched\":{},\"message\":\"{}\",\"replay\":\"{}\"}}",
        json_escape(&w.spec.label()),
        w.strategy,
        choices.join(","),
        w.schedules_searched,
        json_escape(&w.message),
        json_escape(&w.replay_command())
    )
}

fn json_finding(f: &Finding, witnesses: &[Witness]) -> String {
    let meta = rule_meta(f.rule);
    let witness = f
        .witness
        .and_then(|wi| witnesses.get(wi))
        .map_or("null".to_string(), json_witness);
    format!(
        "{{\"rule\":\"{}\",\"name\":\"{}\",\"severity\":\"{}\",\"model\":\"{}\",\"file\":\"{}\",\"message\":\"{}\",\"verdict\":\"{}\",\"safety\":\"{}\",\"anomaly\":{},\"citation\":\"{}\",\"witness\":{}}}",
        f.rule,
        meta.name,
        f.severity.sarif_level(),
        json_escape(&f.model),
        json_escape(&f.file),
        json_escape(&f.message),
        verdict_str(f.verdict),
        safety_str(f.safety),
        f.anomaly
            .map_or("null".to_string(), |a| format!("\"{}\"", a.label())),
        json_escape(meta.citation),
        witness
    )
}

/// Machine-readable JSON: one object per app with nested findings.
pub fn render_json(run: &CorpusRun) -> String {
    let apps: Vec<String> = run
        .apps
        .iter()
        .map(|app| {
            let findings: Vec<String> = app
                .findings
                .iter()
                .map(|f| json_finding(f, &run.witnesses))
                .collect();
            format!(
                "{{\"app\":\"{}\",\"models\":{},\"validations\":{},\"associations\":{},\"transactions\":{},\"findings\":[{}]}}",
                json_escape(&app.app),
                app.models,
                app.validations,
                app.associations,
                app.transactions,
                findings.join(",")
            )
        })
        .collect();
    format!(
        "{{\"tool\":\"feral-lint\",\"apps\":[{}]}}\n",
        apps.join(",")
    )
}

/// SARIF 2.1.0: one run, the FERAL rule catalog in `tool.driver.rules`,
/// findings as `results` with physical locations `"{app}/{file}"` (a
/// corpus finding locates a model file, not a line, so no `region`).
pub fn render_sarif(run: &CorpusRun) -> String {
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
    let mut results = Vec::new();
    for app in &run.apps {
        for f in &app.findings {
            let mut message = f.message.clone();
            if let Some(w) = f.witness.and_then(|wi| run.witnesses.get(wi)) {
                let _ = write!(message, " [witness: {}]", w.replay_command());
            }
            results.push(SarifResult {
                rule_id: f.rule,
                level: f.severity.sarif_level(),
                message,
                uri: format!("{}/{}", app.app, f.file),
            });
        }
    }
    sarif_document(
        "feral-lint",
        "DESIGN.md#7-static-analysis-feral-lint",
        &rules,
        &results,
    )
}

/// Static metadata for one rule in a SARIF `tool.driver.rules` entry.
struct SarifRule<'a> {
    /// Stable id (`FERAL001`).
    id: &'a str,
    /// Short kebab name.
    name: &'a str,
    /// One-line description (SARIF `shortDescription`).
    summary: &'a str,
    /// Repo-relative design-doc anchor (SARIF `helpUri`).
    help_uri: &'a str,
    /// Citation carried in `properties.citation`.
    citation: &'a str,
}

/// One SARIF `result`.
struct SarifResult<'a> {
    /// Rule id; must name an entry in the rule catalog.
    rule_id: &'a str,
    /// SARIF level: `error`, `warning`, or `note`.
    level: &'a str,
    /// Finding message (`message.text`).
    message: String,
    /// Physical location (`artifactLocation.uri`).
    uri: String,
}

/// A complete SARIF 2.1.0 document: one run, the full rule catalog
/// under `tool.driver`, one `result` per finding.
fn sarif_document(
    tool: &str,
    information_uri: &str,
    rules: &[SarifRule<'_>],
    results: &[SarifResult<'_>],
) -> String {
    let rules_json: Vec<String> = rules
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":\"{}\",\"name\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}},\"helpUri\":\"{}\",\"properties\":{{\"citation\":\"{}\"}}}}",
                json_escape(r.id),
                json_escape(r.name),
                json_escape(r.summary),
                json_escape(r.help_uri),
                json_escape(r.citation)
            )
        })
        .collect();
    let results_json: Vec<String> = results
        .iter()
        .map(|f| {
            format!(
                "{{\"ruleId\":\"{}\",\"level\":\"{}\",\"message\":{{\"text\":\"{}\"}},\"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}}}}}}]}}",
                json_escape(f.rule_id),
                json_escape(f.level),
                json_escape(&f.message),
                json_escape(&f.uri)
            )
        })
        .collect();
    format!(
        "{{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"{}\",\"informationUri\":\"{}\",\"rules\":[{}]}}}},\"results\":[{}]}}]}}\n",
        json_escape(tool),
        json_escape(information_uri),
        rules_json.join(","),
        results_json.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_trace::json::{parse, Json};

    /// The SARIF schema test: the envelope parses, the driver is fully
    /// described, every result names a declared rule and locates a file,
    /// and no result carries a line `region`.
    #[test]
    fn sarif_envelope_is_wellformed_and_rule_closed() {
        let rules = [
            SarifRule {
                id: "T001",
                name: "first-rule",
                summary: "summary \"quoted\"",
                help_uri: "DESIGN.md#t",
                citation: "Someone et al.",
            },
            SarifRule {
                id: "T002",
                name: "second-rule",
                summary: "another",
                help_uri: "DESIGN.md#t",
                citation: "Someone else",
            },
        ];
        let results = [
            SarifResult {
                rule_id: "T002",
                level: "error",
                message: "bad\nthing".into(),
                uri: "app/user.rb".into(),
            },
            SarifResult {
                rule_id: "T001",
                level: "warning",
                message: "meh".into(),
                uri: "app/model.rb".into(),
            },
        ];
        let doc = parse(&sarif_document(
            "feral-test",
            "DESIGN.md#x",
            &rules,
            &results,
        ))
        .expect("emitter must produce parseable JSON");
        assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
        let run = &doc.get("runs").and_then(Json::as_arr).unwrap()[0];
        let driver = run.get("tool").unwrap().get("driver").unwrap();
        assert_eq!(
            driver.get("name").and_then(Json::as_str),
            Some("feral-test")
        );
        assert_eq!(
            driver.get("informationUri").and_then(Json::as_str),
            Some("DESIGN.md#x")
        );
        let declared: Vec<&str> = driver
            .get("rules")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| {
                assert!(r.get("shortDescription").unwrap().get("text").is_some());
                assert!(r.get("properties").unwrap().get("citation").is_some());
                r.get("id").and_then(Json::as_str).unwrap()
            })
            .collect();
        assert_eq!(declared, ["T001", "T002"]);
        let emitted = run.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(emitted.len(), 2);
        for r in emitted {
            let id = r.get("ruleId").and_then(Json::as_str).unwrap();
            assert!(declared.contains(&id), "result rule {id} not declared");
            let loc = &r.get("locations").and_then(Json::as_arr).unwrap()[0];
            let physical = loc.get("physicalLocation").unwrap();
            assert!(physical
                .get("artifactLocation")
                .unwrap()
                .get("uri")
                .is_some());
            assert!(physical.get("region").is_none());
        }
    }
}
