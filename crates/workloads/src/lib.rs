//! # feral-workloads
//!
//! Key-choice distributions and workload drivers for the paper's Figure 3
//! and Figure 5 experiments: uniform, YCSB's scrambled Zipfian
//! (workload-a, θ = 0.99), and LinkBench-style power-law access streams
//! for insert and update traffic.
//!
//! The Zipfian generator is Gray et al.'s incremental algorithm as used by
//! YCSB; the LinkBench generators are power-law approximations of the
//! Facebook-graph access distributions (the published trace itself is not
//! redistributable — see DESIGN.md §1 for the substitution rationale).

#![warn(missing_docs)]

pub mod mix;
pub mod zipf;

pub use mix::{MixDriver, OpKind, WeightedChoice, WorkloadOp};
pub use zipf::ZipfianGenerator;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A stream of keys drawn from `[0, domain)`.
pub trait KeyChooser: Send {
    /// Draw the next key.
    fn next_key(&mut self) -> u64;
    /// The (exclusive) upper bound of the key domain.
    fn domain(&self) -> u64;
    /// Human-readable distribution name for experiment output.
    fn name(&self) -> &'static str;
}

/// Uniformly random keys.
pub struct Uniform {
    rng: StdRng,
    domain: u64,
}

impl Uniform {
    /// Uniform over `[0, domain)` with a fixed seed.
    pub fn new(domain: u64, seed: u64) -> Self {
        assert!(domain > 0, "domain must be non-empty");
        Uniform {
            rng: StdRng::seed_from_u64(seed),
            domain,
        }
    }
}

impl KeyChooser for Uniform {
    fn next_key(&mut self) -> u64 {
        self.rng.random_range(0..self.domain)
    }
    fn domain(&self) -> u64 {
        self.domain
    }
    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// Strictly sequential keys (used by the stress tests, where every round
/// targets a fresh key).
pub struct Sequential {
    next: u64,
    domain: u64,
}

impl Sequential {
    /// Count up from zero, wrapping at `domain`.
    pub fn new(domain: u64) -> Self {
        assert!(domain > 0);
        Sequential { next: 0, domain }
    }
}

impl KeyChooser for Sequential {
    fn next_key(&mut self) -> u64 {
        let k = self.next % self.domain;
        self.next += 1;
        k
    }
    fn domain(&self) -> u64 {
        self.domain
    }
    fn name(&self) -> &'static str {
        "sequential"
    }
}

/// YCSB workload-a's key chooser: Zipfian with θ = 0.99, scrambled by
/// hashing so the hot keys are spread across the key space.
pub struct ScrambledZipfian {
    zipf: ZipfianGenerator,
    rng: StdRng,
    domain: u64,
}

/// The Zipfian constant YCSB uses ("an extremely high contention workload,
/// with a Zipfian constant of 0.99, resulting in one very hot key").
pub const YCSB_THETA: f64 = 0.99;

impl ScrambledZipfian {
    /// YCSB-style scrambled Zipfian over `[0, domain)`.
    pub fn new(domain: u64, seed: u64) -> Self {
        ScrambledZipfian {
            zipf: ZipfianGenerator::new(domain, YCSB_THETA),
            rng: StdRng::seed_from_u64(seed),
            domain,
        }
    }
}

/// FNV-1a 64-bit hash of `x`'s little-endian bytes, the scrambler YCSB
/// applies.
pub fn fnv1a(x: u64) -> u64 {
    feral_trace::fnv64(&x.to_le_bytes())
}

impl KeyChooser for ScrambledZipfian {
    fn next_key(&mut self) -> u64 {
        let rank = self.zipf.next(&mut self.rng);
        fnv1a(rank) % self.domain
    }
    fn domain(&self) -> u64 {
        self.domain
    }
    fn name(&self) -> &'static str {
        "ycsb-zipfian"
    }
}

/// LinkBench-style access distribution. LinkBench models Facebook-graph
/// access with per-operation power laws; insert traffic is close to
/// uniform-with-a-warm-head while update traffic concentrates more
/// heavily. We model both as (unscrambled) Zipfians with the exponents
/// below, which reproduces the paper's Figure 3 ordering: LinkBench sits
/// between uniform and YCSB, and its anomalies decay faster with more
/// keys.
pub struct LinkBench {
    zipf: ZipfianGenerator,
    rng: StdRng,
    domain: u64,
    which: LinkBenchOp,
}

/// Which LinkBench traffic stream to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkBenchOp {
    /// Node/link insert traffic (θ ≈ 0.4: mild skew).
    Insert,
    /// Node/link update traffic (θ ≈ 0.65: moderate skew).
    Update,
}

impl LinkBench {
    /// LinkBench-style chooser over `[0, domain)`.
    pub fn new(domain: u64, seed: u64, which: LinkBenchOp) -> Self {
        let theta = match which {
            LinkBenchOp::Insert => 0.4,
            LinkBenchOp::Update => 0.65,
        };
        LinkBench {
            zipf: ZipfianGenerator::new(domain, theta),
            rng: StdRng::seed_from_u64(seed),
            domain,
            which,
        }
    }
}

impl KeyChooser for LinkBench {
    fn next_key(&mut self) -> u64 {
        // LinkBench's hot items are the low ids (recent nodes); no scramble
        self.zipf.next(&mut self.rng)
    }
    fn domain(&self) -> u64 {
        self.domain
    }
    fn name(&self) -> &'static str {
        match self.which {
            LinkBenchOp::Insert => "linkbench-insert",
            LinkBenchOp::Update => "linkbench-update",
        }
    }
}

/// The four distributions of the paper's Figure 3, by name.
pub fn by_name(name: &str, domain: u64, seed: u64) -> Option<Box<dyn KeyChooser>> {
    match name {
        "uniform" => Some(Box::new(Uniform::new(domain, seed))),
        "ycsb" | "ycsb-zipfian" => Some(Box::new(ScrambledZipfian::new(domain, seed))),
        "linkbench-insert" => Some(Box::new(LinkBench::new(domain, seed, LinkBenchOp::Insert))),
        "linkbench-update" => Some(Box::new(LinkBench::new(domain, seed, LinkBenchOp::Update))),
        "sequential" => Some(Box::new(Sequential::new(domain))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The scrambler hashes the key's bytes low to high, as the
    /// byte-at-a-time loop it replaced did.
    #[test]
    fn the_scrambler_is_fnv1a_over_the_low_byte_first() {
        let by_bytes = |mut x: u64| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for _ in 0..8 {
                h ^= x & 0xff;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
                x >>= 8;
            }
            h
        };
        for x in [0, 1, 0xff, 0x0123_4567_89ab_cdef, u64::MAX] {
            assert_eq!(fnv1a(x), by_bytes(x), "{x:#x}");
        }
    }

    fn histogram(c: &mut dyn KeyChooser, n: usize) -> HashMap<u64, usize> {
        let mut h = HashMap::new();
        for _ in 0..n {
            let k = c.next_key();
            assert!(k < c.domain());
            *h.entry(k).or_insert(0) += 1;
        }
        h
    }

    #[test]
    fn uniform_covers_domain_evenly() {
        let mut u = Uniform::new(10, 42);
        let h = histogram(&mut u, 10_000);
        assert_eq!(h.len(), 10);
        for &c in h.values() {
            assert!((700..1300).contains(&c), "uniform bucket count {c}");
        }
    }

    #[test]
    fn sequential_cycles() {
        let mut s = Sequential::new(3);
        let got: Vec<u64> = (0..7).map(|_| s.next_key()).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn ycsb_zipfian_has_one_very_hot_key() {
        let mut z = ScrambledZipfian::new(1000, 7);
        let h = histogram(&mut z, 20_000);
        let max = *h.values().max().unwrap();
        // the hottest key should dominate: far above uniform share (20)
        assert!(max > 1000, "hottest key only drawn {max} times");
    }

    #[test]
    fn linkbench_is_less_skewed_than_ycsb() {
        let n = 30_000;
        let mut y = ScrambledZipfian::new(1000, 1);
        let mut li = LinkBench::new(1000, 1, LinkBenchOp::Insert);
        let mut lu = LinkBench::new(1000, 1, LinkBenchOp::Update);
        let hottest = |h: &HashMap<u64, usize>| *h.values().max().unwrap();
        let hy = hottest(&histogram(&mut y, n));
        let hi = hottest(&histogram(&mut li, n));
        let hu = hottest(&histogram(&mut lu, n));
        assert!(hy > hu, "ycsb ({hy}) should beat linkbench-update ({hu})");
        assert!(hu > hi, "update ({hu}) should beat insert ({hi})");
    }

    #[test]
    fn scramble_spreads_hot_keys() {
        // without scrambling, rank 0 is always key 0; scrambled, the hot
        // key should usually not be 0
        let mut z = ScrambledZipfian::new(1_000_000, 3);
        let h = histogram(&mut z, 5_000);
        let hot = h.iter().max_by_key(|(_, &c)| c).map(|(&k, _)| k).unwrap();
        assert_ne!(hot, 0, "scramble should displace the hot key");
    }

    #[test]
    fn by_name_resolves_the_figure3_set() {
        for name in ["uniform", "ycsb", "linkbench-insert", "linkbench-update"] {
            let c = by_name(name, 100, 0).unwrap();
            assert_eq!(c.domain(), 100);
        }
        assert!(by_name("nope", 100, 0).is_none());
    }

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = ScrambledZipfian::new(1000, 99);
        let mut b = ScrambledZipfian::new(1000, 99);
        let va: Vec<u64> = (0..100).map(|_| a.next_key()).collect();
        let vb: Vec<u64> = (0..100).map(|_| b.next_key()).collect();
        assert_eq!(va, vb);
    }
}
