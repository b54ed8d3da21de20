//! Operation-mix driver: turns a key distribution plus op ratios into a
//! reproducible per-client operation stream — the shape of the paper's
//! Appendix C.3 (uniqueness workload) and C.6 (association workload)
//! loops.

use crate::KeyChooser;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The kind of request a workload step issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Create a record with the chosen key.
    Create,
    /// Delete the record(s) with the chosen key.
    Delete,
    /// Update the record(s) with the chosen key.
    Update,
    /// Read the record(s) with the chosen key.
    Read,
}

/// All op kinds, in [`OpKind::code`] order.
pub const OP_KINDS: [OpKind; 4] = [OpKind::Create, OpKind::Delete, OpKind::Update, OpKind::Read];

impl OpKind {
    /// Stable numeric code (trace-event payloads, counter indexing).
    pub fn code(self) -> u64 {
        match self {
            OpKind::Create => 0,
            OpKind::Delete => 1,
            OpKind::Update => 2,
            OpKind::Read => 3,
        }
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadOp {
    /// What to do.
    pub kind: OpKind,
    /// Which key to do it to.
    pub key: u64,
}

/// Generates a stream of operations: each step first picks the op kind by
/// weighted ratio, then draws a key from the distribution.
///
/// The paper's association workload is `MixDriver` with
/// `[(Create, 10), (Delete, 1)]` — "a 10:1 ratio of creations to
/// deletions" (Appendix C.6).
pub struct MixDriver {
    chooser: Box<dyn KeyChooser>,
    ratios: Vec<(OpKind, u32)>,
    total_weight: u32,
    rng: StdRng,
    generated: [u64; OP_KINDS.len()],
}

impl MixDriver {
    /// Build a driver. `ratios` are integer weights (e.g. `[(Create, 10),
    /// (Delete, 1)]`).
    pub fn new(chooser: Box<dyn KeyChooser>, ratios: &[(OpKind, u32)], seed: u64) -> Self {
        let total_weight: u32 = ratios.iter().map(|(_, w)| *w).sum();
        assert!(total_weight > 0, "ratios must have positive total weight");
        MixDriver {
            chooser,
            ratios: ratios.to_vec(),
            total_weight,
            rng: StdRng::seed_from_u64(seed),
            generated: [0; OP_KINDS.len()],
        }
    }

    /// An insert-only driver (the Figure 3 workload).
    pub fn insert_only(chooser: Box<dyn KeyChooser>, seed: u64) -> Self {
        MixDriver::new(chooser, &[(OpKind::Create, 1)], seed)
    }

    /// Draw the next operation.
    pub fn next_op(&mut self) -> WorkloadOp {
        let mut pick = self.rng.random_range(0..self.total_weight);
        let mut kind = self.ratios[0].0;
        for (k, w) in &self.ratios {
            if pick < *w {
                kind = *k;
                break;
            }
            pick -= w;
        }
        let op = WorkloadOp {
            kind,
            key: self.chooser.next_key(),
        };
        self.generated[kind.code() as usize] += 1;
        feral_trace::record(
            feral_trace::EventKind::WorkloadOp,
            0,
            op.kind.code(),
            op.key,
        );
        op
    }

    /// How many operations of each kind this driver has generated, as
    /// `(kind, count)` pairs in [`OP_KINDS`] order.
    pub fn op_counts(&self) -> Vec<(OpKind, u64)> {
        OP_KINDS
            .iter()
            .map(|&k| (k, self.generated[k.code() as usize]))
            .collect()
    }

    /// Generate a full stream of `n` operations.
    pub fn take(&mut self, n: usize) -> Vec<WorkloadOp> {
        (0..n).map(|_| self.next_op()).collect()
    }

    /// The underlying distribution's name.
    pub fn distribution_name(&self) -> &'static str {
        self.chooser.name()
    }
}

/// Seeded weighted choice over arbitrary alternatives — the generic
/// sibling of [`MixDriver`]'s op-kind pick, for workloads whose
/// alternatives aren't [`OpKind`]s (e.g. the planner workload's
/// `TemplateMix` drawing template *classes*). Returns the index of the
/// chosen weight.
pub struct WeightedChoice {
    weights: Vec<u32>,
    total: u32,
    rng: StdRng,
}

impl WeightedChoice {
    /// Build from integer weights (`[8, 1, 1]` → indices 0/1/2 drawn
    /// 8:1:1). Panics if the weights sum to zero.
    pub fn new(weights: &[u32], seed: u64) -> Self {
        let total: u32 = weights.iter().sum();
        assert!(total > 0, "weights must have positive total");
        WeightedChoice {
            weights: weights.to_vec(),
            total,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draw the next index, weighted.
    pub fn draw(&mut self) -> usize {
        let mut pick = self.rng.random_range(0..self.total);
        for (i, w) in self.weights.iter().enumerate() {
            if pick < *w {
                return i;
            }
            pick -= w;
        }
        self.weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Uniform;

    #[test]
    fn weighted_choice_tracks_its_weights() {
        let mut c = WeightedChoice::new(&[8, 1, 1], 3);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[c.draw()] += 1;
        }
        assert!(counts[0] > counts[1] * 4, "index 0 dominates: {counts:?}");
        assert!(counts[1] > 0 && counts[2] > 0);
        // seeded reproducibility
        let draws = |seed| {
            let mut c = WeightedChoice::new(&[2, 3], seed);
            (0..64).map(|_| c.draw()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn ratio_is_respected() {
        let mut d = MixDriver::new(
            Box::new(Uniform::new(10, 0)),
            &[(OpKind::Create, 10), (OpKind::Delete, 1)],
            7,
        );
        let ops = d.take(11_000);
        let creates = ops.iter().filter(|o| o.kind == OpKind::Create).count();
        let deletes = ops.iter().filter(|o| o.kind == OpKind::Delete).count();
        assert_eq!(creates + deletes, ops.len());
        let ratio = creates as f64 / deletes as f64;
        assert!(
            (8.0..12.5).contains(&ratio),
            "create:delete ratio {ratio:.1} should be near 10"
        );
    }

    #[test]
    fn insert_only_is_all_creates() {
        let mut d = MixDriver::insert_only(Box::new(Uniform::new(5, 0)), 1);
        assert!(d.take(500).iter().all(|o| o.kind == OpKind::Create));
    }

    #[test]
    fn keys_come_from_the_chooser_domain() {
        let mut d = MixDriver::insert_only(Box::new(Uniform::new(3, 0)), 2);
        assert!(d.take(100).iter().all(|o| o.key < 3));
        assert_eq!(d.distribution_name(), "uniform");
    }

    #[test]
    fn op_counts_account_for_every_draw() {
        let mut d = MixDriver::new(
            Box::new(Uniform::new(10, 0)),
            &[(OpKind::Create, 3), (OpKind::Read, 1)],
            9,
        );
        let ops = d.take(400);
        let counts = d.op_counts();
        assert_eq!(counts.iter().map(|(_, c)| c).sum::<u64>(), 400);
        for (kind, count) in counts {
            let observed = ops.iter().filter(|o| o.kind == kind).count() as u64;
            assert_eq!(count, observed, "{kind:?}");
        }
    }

    #[test]
    fn seeded_streams_reproduce() {
        let mk = || {
            MixDriver::new(
                Box::new(Uniform::new(100, 5)),
                &[(OpKind::Create, 3), (OpKind::Read, 1)],
                5,
            )
        };
        assert_eq!(mk().take(200), mk().take(200));
    }
}
