//! `racer:` discipline declarations, parsed out of ordinary comments.
//!
//! Publication fields and seqlock pairings are *declared in the source
//! they govern* — the same philosophy as the paper's observation that
//! feral invariants live in the application, not the database.
//! Declarations are workspace-wide facts; vets (`racer:owner-thread`,
//! `racer:allow RULE`) are scoped to the line they annotate (same line,
//! or the line directly below a comment-only line). Lock order is not
//! declared: the lock validator learns it from the acquisitions that run
//! (leaf locks are `parking_lot::Mutex::leaf`).
//!
//! Grammar (one directive per comment):
//!
//! ```text
//! racer:publication <class>            field publishes data cross-thread
//! racer:seqlock <class> guards <class> version word / payload pairing
//! racer:owner-thread                   vet: Relaxed is single-writer here
//! racer:allow <RULEID>                 vet: suppress one rule here
//! ```
//!
//! Classes are written `<crate>::<Struct>::<field>` for fields and
//! `<crate>::<NAME>` for statics, matching the analyzer's own class
//! naming exactly — a typo'd class simply never matches, and the
//! `--validate` fixture gate catches rules that stop firing.

use crate::lexer::Comment;
use std::collections::{BTreeMap, BTreeSet};

/// One `racer:seqlock V guards P` pairing.
#[derive(Debug, Clone)]
pub struct SeqlockDecl {
    /// The version-word class.
    pub version: String,
    /// The payload class guarded by the version word.
    pub payload: String,
    /// Repo-relative file the declaration lives in.
    pub file: String,
}

/// All declarations and vets recovered from the scanned tree.
#[derive(Debug, Default)]
pub struct Declarations {
    /// Atomic fields declared as publication points.
    pub publications: BTreeSet<String>,
    /// Declared seqlock version/payload pairings.
    pub seqlocks: Vec<SeqlockDecl>,
    /// Vetted lines: `(file, line) -> vet kinds` (`owner-thread`, or
    /// `allow:FERALRS004` style suppressions).
    vets: BTreeMap<(String, u32), BTreeSet<String>>,
    /// Malformed `racer:` comments, reported as configuration errors.
    pub malformed: Vec<(String, u32, String)>,
}

impl Declarations {
    /// Fold one file's comments into the declaration set.
    pub fn absorb(&mut self, file: &str, comments: &[Comment]) {
        for c in comments {
            if c.doc {
                continue; // documentation may quote the grammar freely
            }
            let Some(body) = c.text.strip_prefix("racer:") else {
                continue;
            };
            let words: Vec<&str> = body.split_whitespace().collect();
            match words.as_slice() {
                ["publication", class] => {
                    self.publications.insert((*class).into());
                }
                ["seqlock", version, "guards", payload] => self.seqlocks.push(SeqlockDecl {
                    version: (*version).into(),
                    payload: (*payload).into(),
                    file: file.into(),
                }),
                ["owner-thread", ..] => self.vet(file, c.line, "owner-thread"),
                ["allow", rule] => self.vet(file, c.line, &format!("allow:{rule}")),
                _ => self.malformed.push((file.into(), c.line, c.text.clone())),
            }
        }
    }

    fn vet(&mut self, file: &str, line: u32, kind: &str) {
        // A vet covers its own line (trailing comment) and the line
        // below (comment-only line annotating the next statement).
        for l in [line, line + 1] {
            self.vets
                .entry((file.into(), l))
                .or_default()
                .insert(kind.into());
        }
    }

    /// Whether `file:line` carries the given vet kind.
    pub fn is_vetted(&self, file: &str, line: u32, kind: &str) -> bool {
        self.vets
            .get(&(file.to_string(), line))
            .is_some_and(|k| k.contains(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_each_directive_form() {
        let src = "\
// racer:publication a::Ring::head
// racer:seqlock a::Slot::version guards a::Slot::words
// racer:owner-thread head is written by the owning worker only
// racer:allow FERALRS006
// racer:bogus directive
fn f() {}
";
        let mut d = Declarations::default();
        d.absorb("x.rs", &lex(src).comments);
        assert!(d.publications.contains("a::Ring::head"));
        assert_eq!(d.seqlocks[0].version, "a::Slot::version");
        assert_eq!(d.seqlocks[0].payload, "a::Slot::words");
        assert!(d.is_vetted("x.rs", 3, "owner-thread"));
        assert!(d.is_vetted("x.rs", 4, "owner-thread"), "covers next line");
        assert!(d.is_vetted("x.rs", 4, "allow:FERALRS006"));
        assert!(!d.is_vetted("x.rs", 7, "owner-thread"));
        assert_eq!(d.malformed.len(), 1);
        assert_eq!(d.malformed[0].1, 5);
    }

    #[test]
    fn trailing_comment_vets_its_own_line() {
        let src = "fn f() { x.load(Ordering::Relaxed); } // racer:owner-thread\n";
        let mut d = Declarations::default();
        d.absorb("y.rs", &lex(src).comments);
        assert!(d.is_vetted("y.rs", 1, "owner-thread"));
    }
}
