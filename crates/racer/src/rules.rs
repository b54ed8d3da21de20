//! The FERALRS rule catalog: three atomics and `unsafe` discipline
//! checks over the extracted facts and the `racer:` declarations. Lock
//! order (the retired FERALRS001–003) is checked where the locks are
//! taken, by the lock validator in debug builds of the `parking_lot`
//! shim.
//!
//! Each rule is certified the same way `feral-lint` certifies its app
//! rules: a seeded-fault fixture must make it fire, and the live tree
//! must stay silent. `--validate` runs that gate.

use crate::decl::Declarations;
use crate::extract::FnFacts;
use crate::lexer::Comment;
use std::collections::BTreeMap;

/// Static metadata for one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Stable id (`FERALRS001`).
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Citation tying the rule to the literature.
    pub citation: &'static str,
    /// DESIGN.md anchor for the help URI.
    pub anchor: &'static str,
}

/// The full catalog, in id order.
pub const RULES: [RuleMeta; 3] = [
    RuleMeta {
        id: "FERALRS004",
        name: "relaxed-publication",
        summary: "A field declared racer:publication is stored without \
                  release ordering or loaded without acquire ordering \
                  (unvetted); a racer: directive that does not parse is \
                  reported here too.",
        citation: "Boehm & Adve 2008, \"Foundations of the C++ concurrency \
                   memory model\"",
        anchor: "DESIGN.md#144-atomics-discipline",
    },
    RuleMeta {
        id: "FERALRS005",
        name: "broken-seqlock-pairing",
        summary: "A racer:seqlock payload is written without both version \
                  bumps bracketing it, or read without bracketing acquire \
                  loads of the version word.",
        citation: "Boehm 2012, \"Can seqlocks get along with programming \
                   language memory models?\"",
        anchor: "DESIGN.md#144-atomics-discipline",
    },
    RuleMeta {
        id: "FERALRS006",
        name: "unvetted-unsafe",
        summary: "An unsafe block without a SAFETY: comment in the three \
                  lines above it (and no racer:allow vet).",
        citation: "Rust API guidelines C-SAFETY-DOC",
        anchor: "DESIGN.md#145-unsafe-vetting",
    },
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

/// Run every rule. `comments` maps file → its comments (for SAFETY
/// vetting). Output is sorted and deduped.
pub fn check(
    facts: &[FnFacts],
    decls: &Declarations,
    comments: &BTreeMap<String, Vec<Comment>>,
) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    rs004_publication(facts, decls, &mut out);
    rs005_seqlock(facts, decls, &mut out);
    rs006_unsafe(facts, comments, &mut out);
    out.retain(|f| !decls.is_vetted(&f.file, f.line, &format!("allow:{}", f.rule)));
    for (file, line, text) in &decls.malformed {
        out.push(Finding {
            rule: "FERALRS004",
            file: file.clone(),
            line: *line,
            message: format!("malformed racer: declaration `{text}`"),
        });
    }
    out.sort();
    out.dedup();
    out
}

fn rs004_publication(facts: &[FnFacts], decls: &Declarations, out: &mut Vec<Finding>) {
    for f in facts {
        for op in &f.atomics {
            if !decls.publications.contains(&op.class) {
                continue;
            }
            let Some(order) = op.orderings.first() else {
                continue;
            };
            if op.is_store() {
                if matches!(order.as_str(), "Relaxed" | "Acquire") {
                    out.push(Finding {
                        rule: "FERALRS004",
                        file: f.file.clone(),
                        line: op.line,
                        message: format!(
                            "publication field {} written with {} ordering in \
                             {} — readers may observe unpublished data",
                            op.class, order, f.key
                        ),
                    });
                }
            } else if matches!(order.as_str(), "Relaxed" | "Release")
                && !decls.is_vetted(&f.file, op.line, "owner-thread")
            {
                out.push(Finding {
                    rule: "FERALRS004",
                    file: f.file.clone(),
                    line: op.line,
                    message: format!(
                        "publication field {} loaded with {} ordering in {} \
                         without an owner-thread vet",
                        op.class, order, f.key
                    ),
                });
            }
        }
    }
}

fn rs005_seqlock(facts: &[FnFacts], decls: &Declarations, out: &mut Vec<Finding>) {
    for sl in &decls.seqlocks {
        for f in facts {
            let ver: Vec<_> = f.atomics.iter().filter(|a| a.class == sl.version).collect();
            let pay: Vec<_> = f.atomics.iter().filter(|a| a.class == sl.payload).collect();
            if pay.is_empty() {
                continue;
            }
            let writes = pay.iter().any(|a| a.is_store());
            let p_lines: Vec<u32> = pay.iter().map(|a| a.line).collect();
            let (p_min, p_max) = (
                *p_lines.iter().min().unwrap_or(&0),
                *p_lines.iter().max().unwrap_or(&0),
            );
            if writes {
                let v_stores: Vec<_> = ver.iter().filter(|a| a.is_store()).collect();
                let bracketed = v_stores.iter().any(|a| a.line < p_min)
                    && v_stores.iter().any(|a| a.line > p_max);
                if v_stores.len() < 2 || !bracketed {
                    out.push(Finding {
                        rule: "FERALRS005",
                        file: f.file.clone(),
                        line: p_min,
                        message: format!(
                            "{} writes payload {} without bracketing stores to \
                             version word {} (odd before, even after)",
                            f.key, sl.payload, sl.version
                        ),
                    });
                    continue;
                }
                for vs in &v_stores {
                    if vs
                        .orderings
                        .first()
                        .is_some_and(|o| !matches!(o.as_str(), "Release" | "SeqCst" | "AcqRel"))
                    {
                        out.push(Finding {
                            rule: "FERALRS005",
                            file: f.file.clone(),
                            line: vs.line,
                            message: format!(
                                "seqlock version {} stored without release \
                                 ordering in {}",
                                sl.version, f.key
                            ),
                        });
                    }
                }
            } else {
                let v_loads: Vec<_> = ver.iter().filter(|a| !a.is_store()).collect();
                let bracketed = v_loads.iter().any(|a| a.line < p_min)
                    && v_loads.iter().any(|a| a.line > p_max);
                if v_loads.len() < 2 || !bracketed {
                    out.push(Finding {
                        rule: "FERALRS005",
                        file: f.file.clone(),
                        line: p_min,
                        message: format!(
                            "{} reads payload {} without bracketing loads of \
                             version word {} (validate before and after)",
                            f.key, sl.payload, sl.version
                        ),
                    });
                    continue;
                }
                for vl in &v_loads {
                    if vl
                        .orderings
                        .first()
                        .is_some_and(|o| !matches!(o.as_str(), "Acquire" | "SeqCst"))
                    {
                        out.push(Finding {
                            rule: "FERALRS005",
                            file: f.file.clone(),
                            line: vl.line,
                            message: format!(
                                "seqlock version {} loaded without acquire \
                                 ordering in reader {}",
                                sl.version, f.key
                            ),
                        });
                    }
                }
            }
        }
    }
}

fn rs006_unsafe(
    facts: &[FnFacts],
    comments: &BTreeMap<String, Vec<Comment>>,
    out: &mut Vec<Finding>,
) {
    for f in facts {
        for site in &f.unsafes {
            let vetted = comments.get(&f.file).is_some_and(|cs| {
                cs.iter().any(|c| {
                    c.line + 3 >= site.line && c.line <= site.line && c.text.starts_with("SAFETY")
                })
            });
            if !vetted {
                out.push(Finding {
                    rule: "FERALRS006",
                    file: f.file.clone(),
                    line: site.line,
                    message: format!(
                        "unsafe block in {} without a SAFETY: comment above it",
                        f.key
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{AtomicOp, FnFacts};

    fn base_fn(key: &str) -> FnFacts {
        FnFacts {
            key: key.into(),
            file: "x.rs".into(),
            krate: "tc".into(),
            line: 1,
            ..FnFacts::default()
        }
    }

    fn op(class: &str, opname: &str, order: &str, line: u32) -> AtomicOp {
        AtomicOp {
            class: class.into(),
            op: opname.into(),
            orderings: vec![order.into()],
            line,
        }
    }

    #[test]
    fn publication_rule_flags_relaxed_store_not_vetted_load() {
        let mut decls = Declarations::default();
        decls.publications.insert("tc::R::head".into());
        let mut f = base_fn("R::push");
        f.atomics.push(op("tc::R::head", "store", "Relaxed", 5));
        f.atomics.push(op("tc::R::head", "load", "Acquire", 6));
        let findings = check(&[f], &decls, &BTreeMap::new());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "FERALRS004");
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn seqlock_rule_wants_bracketing_version_bumps() {
        let mut decls = Declarations::default();
        decls.seqlocks.push(crate::decl::SeqlockDecl {
            version: "tc::S::version".into(),
            payload: "tc::S::words".into(),
            file: "x.rs".into(),
        });
        // writer with only one version bump (the trailing one missing)
        let mut f = base_fn("S::push");
        f.atomics.push(op("tc::S::version", "store", "Release", 4));
        f.atomics.push(op("tc::S::words", "store", "Release", 5));
        let findings = check(&[f], &decls, &BTreeMap::new());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "FERALRS005");

        // well-formed writer and reader stay silent
        let mut w = base_fn("S::push");
        w.atomics.push(op("tc::S::version", "store", "Release", 4));
        w.atomics.push(op("tc::S::words", "store", "Release", 5));
        w.atomics.push(op("tc::S::version", "store", "Release", 6));
        let mut r = base_fn("S::snap");
        r.atomics.push(op("tc::S::version", "load", "Acquire", 9));
        r.atomics.push(op("tc::S::words", "load", "Acquire", 10));
        r.atomics.push(op("tc::S::version", "load", "Acquire", 11));
        let findings = check(&[w, r], &decls, &BTreeMap::new());
        assert!(findings.is_empty(), "findings: {findings:?}");
    }
}
