//! # feral-racer
//!
//! A self-hosting atomics and `unsafe` discipline analyzer for the
//! workspace's own concurrency core. The trace ring's correctness rests
//! on invariants the type system cannot see — a seqlock's version bumps
//! bracketing its payload, a publication index stored with release
//! ordering — the same "feral" position the paper finds application
//! invariants in: maintained by convention, in application code,
//! invisible to the infrastructure underneath (Bailis et al., SIGMOD
//! 2015). This crate turns those conventions into checked declarations.
//! Lock order is checked where the locks are taken instead: by the lock
//! validator in debug builds of the `parking_lot` shim, over every
//! acquisition the test suite makes.
//!
//! Pipeline: a hand-rolled Rust lexer ([`lexer`], in the house style of
//! `corpus::ruby`) → item/structure parsing ([`syntax`]) → per-function
//! fact extraction with class resolution ([`extract`], [`resolve`]) →
//! the FERALRS rule catalog ([`rules`]) checked against `racer:`
//! declarations ([`decl`]) → reports ([`report`]).
//!
//! Every rule is self-validated mutation-style: a seeded-fault fixture
//! under `fixtures/` must trip it, and the live tree must stay silent.

#![warn(missing_docs)]

pub mod decl;
pub mod extract;
pub mod lexer;
pub mod report;
pub mod resolve;
pub mod rules;
pub mod syntax;

use decl::Declarations;
use extract::FnFacts;
use lexer::Comment;
use resolve::Symbols;
use rules::Finding;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One source file handed to the analyzer.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path (used in reports and goldens).
    pub path: String,
    /// Crate directory name (`feraldb`).
    pub krate: String,
    /// File contents.
    pub text: String,
}

/// A complete analysis of one source set.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Files scanned.
    pub files: usize,
    /// Per-function facts.
    pub facts: Vec<FnFacts>,
    /// Parsed `racer:` declarations.
    pub decls: Declarations,
    /// Rule findings, sorted.
    pub findings: Vec<Finding>,
}

/// Analyze a set of in-memory sources.
pub fn analyze(sources: &[SourceFile]) -> Analysis {
    let mut sy = Symbols::default();
    let mut lexed = BTreeMap::new();
    let mut decls = Declarations::default();
    let mut comments: BTreeMap<String, Vec<Comment>> = BTreeMap::new();
    for s in sources {
        let lx = lexer::lex(&s.text);
        decls.absorb(&s.path, &lx.comments);
        comments.insert(s.path.clone(), lx.comments.clone());
        sy.absorb(syntax::parse_items(&lx, &s.krate, &s.path));
        lexed.insert(s.path.clone(), lx);
    }
    let facts = extract::extract_all(&sy, &lexed);
    let findings = rules::check(&facts, &decls, &comments);
    Analysis {
        files: sources.len(),
        facts,
        decls,
        findings,
    }
}

/// Collect the production sources under `<root>/crates/*/src`,
/// skipping `#[cfg(test)]` at parse time and fixture/test trees at
/// scan time. Sorted for deterministic output.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let crates = root.join("crates");
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let krate = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let src = dir.join("src");
        if src.is_dir() {
            walk_rs(&src, &krate, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for (krate, path) in files {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(SourceFile {
            path: rel,
            krate,
            text,
        });
    }
    Ok(out)
}

fn walk_rs(dir: &Path, krate: &str, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk_rs(&p, krate, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push((krate.to_string(), p));
        }
    }
    Ok(())
}

/// Analyze the workspace rooted at `root`.
pub fn analyze_root(root: &Path) -> std::io::Result<Analysis> {
    Ok(analyze(&collect_sources(root)?))
}

/// Outcome of validating one rule against its seeded-fault fixture.
#[derive(Debug)]
pub struct RuleValidation {
    /// Rule id.
    pub rule: &'static str,
    /// Fixture file name tried.
    pub fixture: String,
    /// Whether the rule fired on its fixture.
    pub fired: bool,
    /// Rules that fired but weren't expected to (noise check).
    pub findings: Vec<Finding>,
}

/// Mutation-style self-validation: each FERALRS rule must fire on its
/// seeded-fault fixture (`fixtures/feralrs00N.rs`). The analyzer is
/// only trusted on the live tree because this gate proves every rule
/// still detects the fault it was built for.
pub fn validate(fixtures_dir: &Path) -> std::io::Result<Vec<RuleValidation>> {
    let mut out = Vec::new();
    for r in &rules::RULES {
        let name = format!("{}.rs", r.id.to_lowercase());
        let path = fixtures_dir.join(&name);
        let text = std::fs::read_to_string(&path)?;
        let a = analyze(&[SourceFile {
            path: name.clone(),
            krate: "fixture".into(),
            text,
        }]);
        let fired = a.findings.iter().any(|f| f.rule == r.id);
        out.push(RuleValidation {
            rule: r.id,
            fixture: name,
            fired,
            findings: a.findings,
        });
    }
    Ok(out)
}
