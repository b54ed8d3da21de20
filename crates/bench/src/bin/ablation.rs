//! **Section 7 ablation**: feral-only vs always-database vs the
//! invariant-aware *domesticated* configuration — anomalies and
//! coordination cost side by side.
//!
//! The domesticated configuration routes each of `KeyValue`'s declared
//! validators with [`coordination_free`] and backs only the ones that are
//! not I-confluent with a database constraint. It matches the database
//! configuration on integrity (zero anomalies) while coordinating only the
//! non-I-confluent invariants. Every row runs the same
//! [`uniqueness_stress`] load.

use feral_bench::apps::{Enforcement, ExperimentEnv};
use feral_bench::uniqueness::uniqueness_stress;
use feral_bench::{print_table, Args};
use feral_iconfluence::{coordination_free, derive_safety, OperationMix};
use std::time::Instant;

/// The validators `KeyValue` declares, in declaration order.
const DECLARED: [&str; 3] = [
    "validates_presence_of_attribute",
    "validates_length_of",
    "validates_uniqueness_of",
];

/// The operation mix the routing assumes: the paper's "Depends" verdicts
/// resolve against deletions.
const MIX: OperationMix = OperationMix::WithDeletions;

fn main() {
    let args = Args::from_env();
    let workers = args.get_usize("workers", 8);
    let rounds = args.get_usize("rounds", 40);
    let concurrent = args.get_usize("concurrent", 16);
    let env = ExperimentEnv::default();

    let coordinated: Vec<&str> = DECLARED
        .into_iter()
        .filter(|kind| !coordination_free(kind, MIX))
        .collect();
    // the only database constraint `KeyValue` can carry is the unique
    // index on `key`, which backs uniqueness
    let domesticated = match coordinated.as_slice() {
        [] => Enforcement::Feral,
        ["validates_uniqueness_of"] => Enforcement::Database,
        other => panic!("no database constraint backs {other:?}"),
    };

    let rows: Vec<Vec<String>> = [
        ("feral-only", Enforcement::Feral, "no coordination".into()),
        (
            "always-database",
            Enforcement::Database,
            "uniqueness coordinated".into(),
        ),
        (
            "domesticated",
            domesticated,
            format!(
                "{} of {} invariants coordinated",
                coordinated.len(),
                DECLARED.len()
            ),
        ),
    ]
    .into_iter()
    .map(|(label, enforcement, coordination)| {
        let start = Instant::now();
        let r = uniqueness_stress(enforcement, &env, workers, rounds, concurrent, 0xAB1A);
        vec![
            label.to_string(),
            r.duplicates.to_string(),
            format!("{:.2}s", start.elapsed().as_secs_f64()),
            coordination,
        ]
    })
    .collect();

    print_table(
        "Section 7 ablation: anomalies and coordination by enforcement strategy",
        &["strategy", "duplicates", "wall time", "coordination"],
        &rows,
    );
    for kind in DECLARED {
        let route = if coordinated.contains(&kind) {
            "database unique index"
        } else {
            "coordination-free"
        };
        let source = if derive_safety(kind, MIX).is_some() {
            "checker-derived"
        } else {
            "Table 1"
        };
        println!("  plan: KeyValue {kind} -> {route} ({source})");
    }
}
