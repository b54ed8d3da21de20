//! Golden tests pinning feral-lint to the paper:
//!
//! 1. the lint's safety derivations agree with Table 1 for every
//!    validator kind the static classification covers — the rule engine
//!    never contradicts the model checker or the paper's verdict column;
//! 2. linting the synthesized 67-app corpus (the Table 2 population)
//!    surfaces at least one duplicate-admitting and one orphan-admitting
//!    construct, and every attached feral-sim witness replays its
//!    anomaly deterministically.

use feral_iconfluence::{classify_validator, OperationMix, Safety, TABLE_ONE};
use feral_lint::rules::{table_one_verdict, Anomaly, SafetyCache, Severity};
use feral_lint::{lint_corpus, LintOptions};

/// The lint's memoized `derive_safety` bridge re-derives every Table 1
/// verdict the checker can model, for both operation mixes, and always
/// agrees with the static classification when it produces an answer.
#[test]
fn lint_safety_cache_rederives_table_one() {
    let mut cache = SafetyCache::default();
    for row in TABLE_ONE {
        assert_eq!(table_one_verdict(row.name), row.verdict, "{}", row.name);
        for mix in [OperationMix::InsertionsOnly, OperationMix::WithDeletions] {
            let statically = classify_validator(row.name, mix);
            if let Some(derived) = cache.derive(row.name, mix) {
                assert_eq!(
                    derived, statically,
                    "{} under {mix:?}: checker-derived safety must match Table 1",
                    row.name
                );
            }
            // memoized path returns the identical answer
            assert_eq!(cache.derive(row.name, mix), cache.derive(row.name, mix));
        }
    }
    // the three load-bearing kinds for the rule catalog are checkable,
    // with the verdicts the rules rely on
    assert_eq!(
        cache.derive("validates_uniqueness_of", OperationMix::InsertionsOnly),
        Some(Safety::NotIConfluent)
    );
    assert_eq!(
        cache.derive("validates_presence_of", OperationMix::WithDeletions),
        Some(Safety::NotIConfluent)
    );
    assert_eq!(
        cache.derive("validates_presence_of", OperationMix::InsertionsOnly),
        Some(Safety::IConfluent)
    );
}

/// Corpus acceptance: the seeded 67-app corpus must yield at least one
/// finding of each unsafe kind, every unsafe finding carries a witness,
/// and each witness replays its anomaly bit-identically — twice.
#[test]
fn corpus_lint_flags_witnessed_unsafe_constructs() {
    let run = lint_corpus(42, &LintOptions { witnesses: true });
    assert_eq!(run.apps.len(), 67);

    let mut dup = 0usize;
    let mut orphan = 0usize;
    let mut lost = 0usize;
    for app in &run.apps {
        for f in &app.findings {
            match f.anomaly {
                Some(Anomaly::DuplicateAdmitting) => dup += 1,
                Some(Anomaly::OrphanAdmitting) => orphan += 1,
                Some(Anomaly::LostUpdateAdmitting) => lost += 1,
                None => continue,
            }
            // FERAL001/002 prove the anomaly reachable (errors); the
            // FERAL006-008 isolation-advice companions are warnings
            match f.rule {
                "FERAL001" | "FERAL002" => {
                    assert_eq!(f.severity, Severity::Error, "{}: {}", app.app, f.message);
                    assert_eq!(
                        f.verdict,
                        table_one_verdict(match f.anomaly.unwrap() {
                            Anomaly::DuplicateAdmitting => "validates_uniqueness_of",
                            Anomaly::OrphanAdmitting => "validates_presence_of",
                            Anomaly::LostUpdateAdmitting => unreachable!(),
                        })
                    );
                }
                _ => assert_eq!(f.severity, Severity::Warning, "{}: {}", app.app, f.message),
            }
            let wi = f
                .witness
                .unwrap_or_else(|| panic!("{}: unsafe finding without witness", f.message));
            assert!(wi < run.witnesses.len());
        }
    }
    assert!(
        dup >= 1,
        "corpus must contain a duplicate-admitting construct"
    );
    assert!(
        orphan >= 1,
        "corpus must contain an orphan-admitting construct"
    );
    assert!(
        lost >= 1,
        "corpus must contain a lost-update-admitting construct"
    );

    assert_eq!(
        run.witnesses.len(),
        3,
        "one shared witness per anomaly kind"
    );
    for w in &run.witnesses {
        // a witness search is a directed DPOR sweep and nothing else
        assert_eq!(w.strategy, "directed-dpor", "{}", w.spec.label());
        assert!(
            w.replays(),
            "witness for {} must replay its anomaly: {}",
            w.spec.label(),
            w.replay_command()
        );
        assert!(
            w.replays(),
            "witness for {} must replay deterministically on the second run",
            w.spec.label()
        );
        assert!(w
            .replay_command()
            .starts_with("feral-sim replay --scenario "));
    }
}
