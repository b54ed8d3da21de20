//! `feral-lint`: a semantic safety analyzer for ActiveRecord-style
//! applications, bridging the three empirical pillars of *Feral
//! Concurrency Control* (Bailis et al., SIGMOD 2015):
//!
//! 1. the **corpus survey** (`feral_corpus`) supplies per-file syntactic
//!    facts — models, validations, associations, declared
//!    transactions/locks;
//! 2. the **invariant-confluence checker** (`feral_iconfluence`)
//!    supplies the safety verdict for each feral invariant, derived by
//!    model checking rather than table lookup;
//! 3. the **schedule-exploring simulator** (`feral_sim`) supplies a
//!    concrete, replayable anomaly witness for every unsafe finding.
//!
//! The pipeline: per-app sources + migration DDL → [`graph::ModelGraph`]
//! (typed IR) → [`rules`] catalog → findings with severity, Table 1
//! verdict, citation, and — for duplicate-/orphan-admitting constructs —
//! a searched feral-sim seed that replays the predicted anomaly.

#![warn(missing_docs)]

pub mod graph;
pub mod report;
pub mod rules;
pub mod templates;
pub mod witness;

use feral_corpus::ruby::ParseOptions;
use feral_corpus::synth::SyntheticApp;
use feral_sim::Witness;
use graph::{ModelGraph, SourceFile};
use rules::{Finding, SafetyCache};

/// Lint result for one application.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// Application name.
    pub app: String,
    /// Models resolved into the graph.
    pub models: usize,
    /// Validation uses across the graph.
    pub validations: usize,
    /// Association edges across the graph.
    pub associations: usize,
    /// Transaction-block uses across the application.
    pub transactions: usize,
    /// Findings, in rule-id order.
    pub findings: Vec<Finding>,
}

/// Lint results for a whole corpus run, plus the shared witness table
/// findings index into.
#[derive(Debug, Clone, Default)]
pub struct CorpusRun {
    /// Per-application reports, in corpus order.
    pub apps: Vec<AppReport>,
    /// Anomaly witnesses; `Finding::witness` indexes into this.
    pub witnesses: Vec<Witness>,
}

/// Options for a lint run.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Search feral-sim schedules and attach witnesses to unsafe
    /// findings.
    pub witnesses: bool,
    /// Random seeds to try before falling back to systematic
    /// enumeration.
    pub witness_seeds: u64,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            witnesses: true,
            witness_seeds: 1024,
        }
    }
}

/// Shared engine state across apps in one run: memoized model-checker
/// verdicts and the per-anomaly witness searches.
#[derive(Default)]
pub struct LintEngine {
    safety: SafetyCache,
    /// The witnesses found so far, in first-use order.
    witness_table: Vec<Witness>,
    /// One slot per anomaly kind: `None` until its witness is searched
    /// for, then where the search put it in `witness_table` — `None`
    /// when it found none, so each kind is searched at most once.
    witness_index: [Option<Option<usize>>; 3],
}

impl LintEngine {
    /// Lint one resolved graph.
    pub fn lint_graph(&mut self, graph: &ModelGraph, opts: &LintOptions) -> AppReport {
        let mut findings = rules::run_rules(graph, &mut self.safety);
        if opts.witnesses {
            for finding in &mut findings {
                let Some(anomaly) = finding.anomaly else {
                    continue;
                };
                finding.witness = self.witness_slot(anomaly, opts.witness_seeds);
            }
        }
        AppReport {
            app: graph.app.clone(),
            models: graph.models.len(),
            validations: graph.validation_count(),
            associations: graph.association_count(),
            transactions: graph.transactions,
            findings,
        }
    }

    fn witness_slot(&mut self, anomaly: rules::Anomaly, max_seeds: u64) -> Option<usize> {
        let slot = match anomaly {
            rules::Anomaly::DuplicateAdmitting => 0,
            rules::Anomaly::OrphanAdmitting => 1,
            rules::Anomaly::LostUpdateAdmitting => 2,
        };
        *self.witness_index[slot].get_or_insert_with(|| {
            let found = witness::spec_for(anomaly).find_witness(max_seeds, 50_000);
            found.ok().map(|w| {
                self.witness_table.push(w);
                self.witness_table.len() - 1
            })
        })
    }

    /// Hand the accumulated witness table over (ends the run).
    pub fn into_witnesses(self) -> Vec<Witness> {
        self.witness_table
    }
}

/// Resolve one application's sources + DDL and lint it standalone.
pub fn lint_app(app: &str, files: &[SourceFile], ddl: &[String], opts: &LintOptions) -> AppReport {
    let graph = ModelGraph::resolve(app, files, ddl);
    let mut engine = LintEngine::default();
    engine.lint_graph(&graph, opts)
}

/// Resolve a [`SyntheticApp`] into a model graph: render its sources,
/// analyze each file, render + split its migration DDL.
pub fn resolve_synthetic(app: &SyntheticApp) -> ModelGraph {
    let parse = ParseOptions::default();
    let files: Vec<SourceFile> = app
        .render(None)
        .into_iter()
        .map(|(path, source)| SourceFile {
            analysis: feral_corpus::analyze_source(&source, &parse),
            path,
        })
        .collect();
    let ddl: Vec<String> = app
        .render_schema(None)
        .into_iter()
        .flat_map(|(_, sql)| {
            sql.split(';')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect::<Vec<_>>()
        })
        .collect();
    ModelGraph::resolve(app.stats.name, &files, &ddl)
}

/// Lint the synthesized 67-application corpus (Table 2's population)
/// end to end: synthesize at `seed`, resolve every app, run the rule
/// catalog, attach shared anomaly witnesses.
pub fn lint_corpus(seed: u64, opts: &LintOptions) -> CorpusRun {
    lint_apps(&feral_corpus::synthesize_corpus(seed), opts)
}

/// Lint an explicit list of synthesized applications.
pub fn lint_apps(apps: &[SyntheticApp], opts: &LintOptions) -> CorpusRun {
    let mut engine = LintEngine::default();
    let reports = apps
        .iter()
        .map(|app| {
            let graph = resolve_synthetic(app);
            engine.lint_graph(&graph, opts)
        })
        .collect();
    CorpusRun {
        apps: reports,
        witnesses: engine.into_witnesses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_lint_is_deterministic_and_witnessed() {
        let opts = LintOptions {
            witnesses: true,
            witness_seeds: 256,
        };
        let apps = feral_corpus::synthesize_corpus(42);
        let one = lint_apps(&apps[..6], &opts);
        let two = lint_apps(&apps[..6], &opts);
        assert_eq!(one.apps.len(), 6);
        for (a, b) in one.apps.iter().zip(&two.apps) {
            assert_eq!(a.findings.len(), b.findings.len());
            for (fa, fb) in a.findings.iter().zip(&b.findings) {
                assert_eq!(fa.rule, fb.rule);
                assert_eq!(fa.message, fb.message);
                assert_eq!(fa.witness, fb.witness);
            }
        }
        assert_eq!(one.witnesses.len(), two.witnesses.len());
        for (wa, wb) in one.witnesses.iter().zip(&two.witnesses) {
            assert_eq!(wa.seed, wb.seed);
            assert_eq!(wa.choices, wb.choices);
        }
    }

    /// A kind's witness is searched for once per run: its slot holds the
    /// search's outcome, found or not.
    #[test]
    fn witness_cache_searches_once_per_kind() {
        let mut engine = LintEngine::default();
        let first = engine.witness_slot(rules::Anomaly::DuplicateAdmitting, 256);
        assert_eq!(first, Some(0), "the search fires");
        assert_eq!(
            engine.witness_slot(rules::Anomaly::DuplicateAdmitting, 256),
            first
        );
        assert_eq!(engine.witness_table.len(), 1);
        // a search that found nothing is remembered too: a slot that
        // records a miss is not searched again (were it, the orphan
        // search would find its witness)
        engine.witness_index[1] = Some(None);
        assert_eq!(
            engine.witness_slot(rules::Anomaly::OrphanAdmitting, 256),
            None
        );
        assert_eq!(engine.witness_table.len(), 1);
    }
}
