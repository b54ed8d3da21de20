//! Shared report emission for the analyzer catalogs.
//!
//! feral-lint (FERAL001–009), feral-sdg, and feral-racer
//! (FERALRS001–006) all emit hand-rolled JSON and SARIF 2.1.0 — the
//! workspace is offline and has no serde — and each used to carry its
//! own copy of the string escaper and the SARIF scaffolding. This
//! module is the one emitter they share: [`json_escape`] for every
//! dynamic string, and [`render_sarif`] for the fixed SARIF envelope
//! (one run, rule metadata in `tool.driver.rules`, findings as
//! `results` with physical locations). The schema test lives here too,
//! so a drive-by change to the envelope breaks one test, not three.

use std::fmt::Write as _;

/// Escape a string for embedding in a JSON literal (no surrounding
/// quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Static metadata for one rule in a SARIF `tool.driver.rules` entry.
#[derive(Debug, Clone, Copy)]
pub struct SarifRule<'a> {
    /// Stable id (`FERAL001`, `FERALRS003`).
    pub id: &'a str,
    /// Short kebab name.
    pub name: &'a str,
    /// One-line description (SARIF `shortDescription`).
    pub summary: &'a str,
    /// Repo-relative design-doc anchor (SARIF `helpUri`).
    pub help_uri: &'a str,
    /// Citation carried in `properties.citation`.
    pub citation: &'a str,
}

/// One SARIF `result`.
#[derive(Debug, Clone)]
pub struct SarifResult<'a> {
    /// Rule id; must name an entry in the rule catalog.
    pub rule_id: &'a str,
    /// SARIF level: `error`, `warning`, or `note`.
    pub level: &'a str,
    /// Finding message (`message.text`).
    pub message: String,
    /// Physical location (`artifactLocation.uri`).
    pub uri: String,
    /// 1-based line for `physicalLocation.region.startLine`; 0 omits
    /// the region (corpus findings locate a file, not a line).
    pub line: u64,
}

/// Render a complete SARIF 2.1.0 document: one run, the full rule
/// catalog under `tool.driver`, one `result` per finding.
pub fn render_sarif(
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
            let region = if f.line > 0 {
                format!(",\"region\":{{\"startLine\":{}}}", f.line)
            } else {
                String::new()
            };
            format!(
                "{{\"ruleId\":\"{}\",\"level\":\"{}\",\"message\":{{\"text\":\"{}\"}},\"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}}{}}}}}]}}",
                json_escape(f.rule_id),
                json_escape(f.level),
                json_escape(&f.message),
                json_escape(&f.uri),
                region
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

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    /// The one shared SARIF schema test: the envelope parses, the
    /// driver is fully described, every result names a declared rule,
    /// and regions appear exactly when a line is known.
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
                uri: "src/lib.rs".into(),
                line: 42,
            },
            SarifResult {
                rule_id: "T001",
                level: "warning",
                message: "meh".into(),
                uri: "app/model.rb".into(),
                line: 0,
            },
        ];
        let doc = parse(&render_sarif("feral-test", "DESIGN.md#x", &rules, &results))
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
            assert!(loc
                .get("physicalLocation")
                .unwrap()
                .get("artifactLocation")
                .unwrap()
                .get("uri")
                .is_some());
        }
        let with_region = emitted[0].get("locations").and_then(Json::as_arr).unwrap()[0]
            .get("physicalLocation")
            .unwrap();
        assert_eq!(
            with_region
                .get("region")
                .and_then(|reg| reg.get("startLine"))
                .and_then(Json::as_u64),
            Some(42)
        );
        let without = emitted[1].get("locations").and_then(Json::as_arr).unwrap()[0]
            .get("physicalLocation")
            .unwrap();
        assert!(without.get("region").is_none());
    }
}
