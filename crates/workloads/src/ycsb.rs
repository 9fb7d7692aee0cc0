//! YCSB-style deterministic workload generation.
//!
//! Reproduces the parts of YCSB the paper's case studies rely on: a load
//! phase of unique keys in randomized order and an operation phase drawn
//! from a key distribution and an operation mix. Everything is
//! deterministic under a seed so experiments regenerate identically.

use simbase::SplitMix64;

/// Typed workload-generation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadError {
    /// An existing key was requested before any key was inserted.
    NoKeysInserted,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::NoKeysInserted => {
                write!(f, "cannot sample an existing key: no keys inserted yet")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Key popularity distribution for the operation phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Every loaded key equally likely.
    Uniform,
    /// Zipfian with the classic YCSB constant 0.99 (or a custom theta).
    Zipfian(f64),
    /// Skewed towards recently inserted keys.
    Latest,
}

/// Operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Insert a new key.
    Insert,
    /// Read an existing key.
    Read,
    /// Update an existing key.
    Update,
}

/// An operation mix (fractions must sum to 1).
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Fraction of inserts.
    pub insert: f64,
    /// Fraction of reads.
    pub read: f64,
    /// Fraction of updates.
    pub update: f64,
}

impl OpMix {
    /// 100% inserts (the paper's load phase).
    pub fn insert_only() -> Self {
        OpMix {
            insert: 1.0,
            read: 0.0,
            update: 0.0,
        }
    }

    /// YCSB-A: 50% reads, 50% updates.
    pub fn ycsb_a() -> Self {
        OpMix {
            insert: 0.0,
            read: 0.5,
            update: 0.5,
        }
    }

    /// YCSB-B: 95% reads, 5% updates.
    pub fn ycsb_b() -> Self {
        OpMix {
            insert: 0.0,
            read: 0.95,
            update: 0.05,
        }
    }

    /// YCSB-C: read only.
    pub fn ycsb_c() -> Self {
        OpMix {
            insert: 0.0,
            read: 1.0,
            update: 0.0,
        }
    }
}

/// Deterministic YCSB-style generator.
#[derive(Debug)]
pub struct YcsbGenerator {
    rng: SplitMix64,
    /// Sampler with its distribution-specific state embedded, so a
    /// zipfian sampler can never exist without its precomputed constants
    /// (no `Option` to unwrap at sample time).
    sampler: DistSampler,
    /// Number of keys inserted so far (insert keys are `hash(0..n)`).
    inserted: u64,
}

/// A key-popularity sampler with its state.
#[derive(Debug)]
enum DistSampler {
    /// Every loaded key equally likely.
    Uniform,
    /// Zipfian with precomputed constants.
    Zipfian(ZipfState),
    /// Skewed towards recently inserted keys.
    Latest,
}

#[derive(Debug)]
struct ZipfState {
    theta: f64,
    n: u64,
    zetan: f64,
    alpha: f64,
    eta: f64,
    zeta2: f64,
}

impl ZipfState {
    fn new(n: u64, theta: f64) -> Self {
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfState {
            theta,
            n,
            zetan,
            alpha,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for modest n, scaled approximation beyond.
        let cap = n.min(1_000_000);
        let mut z = 0.0;
        for i in 1..=cap {
            z += 1.0 / (i as f64).powf(theta);
        }
        if n > cap {
            // Integral approximation of the tail.
            let a = cap as f64;
            let b = n as f64;
            z += (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        }
        z
    }

    fn sample(&self, u: f64) -> u64 {
        // Gray et al. quick zipf sampling, as used by YCSB.
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let _ = self.zeta2;
        ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
    }
}

/// Hashes a key index into a well-spread 64-bit key (fmix64).
fn spread(idx: u64) -> u64 {
    let mut k = idx.wrapping_add(0x9E37_79B9_7F4A_7C15);
    k = (k ^ (k >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k = (k ^ (k >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^ (k >> 33)
}

impl YcsbGenerator {
    /// Creates a generator.
    pub fn new(seed: u64, distribution: KeyDistribution, expected_keys: u64) -> Self {
        let sampler = match distribution {
            KeyDistribution::Uniform => DistSampler::Uniform,
            KeyDistribution::Zipfian(theta) => {
                DistSampler::Zipfian(ZipfState::new(expected_keys.max(2), theta))
            }
            KeyDistribution::Latest => DistSampler::Latest,
        };
        YcsbGenerator {
            rng: SplitMix64::new(seed),
            sampler,
            inserted: 0,
        }
    }

    /// Standard zipfian constant used by YCSB.
    pub const ZIPFIAN_THETA: f64 = 0.99;

    /// Returns the key for the next insert (unique, well spread).
    pub fn next_insert_key(&mut self) -> u64 {
        let k = spread(self.inserted);
        self.inserted += 1;
        k
    }

    /// Returns the number of keys inserted so far.
    pub fn inserted(&mut self) -> u64 {
        self.inserted
    }

    /// Samples an existing key according to the distribution, or reports
    /// that no key exists to sample.
    pub fn try_sample_existing_key(&mut self) -> Result<u64, WorkloadError> {
        if self.inserted == 0 {
            return Err(WorkloadError::NoKeysInserted);
        }
        let idx = match &self.sampler {
            DistSampler::Uniform => self.rng.gen_range(self.inserted),
            DistSampler::Zipfian(z) => {
                let u = self.rng.gen_f64();
                z.sample(u).min(self.inserted - 1)
            }
            DistSampler::Latest => {
                // Exponentially biased to recent inserts.
                let u = self.rng.gen_f64();
                let back = ((-u.ln()) * (self.inserted as f64 / 8.0)) as u64;
                self.inserted - 1 - back.min(self.inserted - 1)
            }
        };
        Ok(spread(idx))
    }

    /// Samples an existing key according to the distribution.
    ///
    /// # Panics
    ///
    /// Panics if no key has been inserted yet; use
    /// [`YcsbGenerator::try_sample_existing_key`] to handle that case.
    pub fn sample_existing_key(&mut self) -> u64 {
        match self.try_sample_existing_key() {
            Ok(k) => k,
            Err(e) => panic!("{e}"),
        }
    }

    /// Draws the next operation from `mix`. When no key exists yet the
    /// operation degrades to an insert regardless of the mix.
    pub fn next_op(&mut self, mix: &OpMix) -> (OpKind, u64) {
        let u = self.rng.gen_f64();
        if u < mix.insert || self.inserted == 0 {
            return (OpKind::Insert, self.next_insert_key());
        }
        let read = u < mix.insert + mix.read;
        match self.try_sample_existing_key() {
            Ok(k) if read => (OpKind::Read, k),
            Ok(k) => (OpKind::Update, k),
            // Unreachable given the guard above, but degrade gracefully.
            Err(_) => (OpKind::Insert, self.next_insert_key()),
        }
    }

    /// Generates the full load-phase key sequence for `n` records.
    pub fn load_keys(n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(spread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keys_are_unique() {
        let mut g = YcsbGenerator::new(1, KeyDistribution::Uniform, 1000);
        let keys: Vec<u64> = (0..1000).map(|_| g.next_insert_key()).collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }

    #[test]
    fn generator_is_deterministic() {
        let run = || {
            let mut g = YcsbGenerator::new(7, KeyDistribution::Zipfian(0.99), 1000);
            for _ in 0..100 {
                g.next_insert_key();
            }
            (0..50).map(|_| g.sample_existing_key()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zipfian_is_skewed() {
        let mut g = YcsbGenerator::new(3, KeyDistribution::Zipfian(0.99), 10_000);
        for _ in 0..10_000 {
            g.next_insert_key();
        }
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(g.sample_existing_key()).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(
            max > 20_000 / 100,
            "hottest key should take >1% of accesses, got {max}"
        );
        assert!(counts.len() > 100, "but many keys are touched");
    }

    #[test]
    fn uniform_covers_key_space() {
        let mut g = YcsbGenerator::new(5, KeyDistribution::Uniform, 64);
        for _ in 0..64 {
            g.next_insert_key();
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            seen.insert(g.sample_existing_key());
        }
        assert!(seen.len() > 55, "uniform sampling reaches most keys");
    }

    #[test]
    fn latest_prefers_recent() {
        let mut g = YcsbGenerator::new(9, KeyDistribution::Latest, 1000);
        for _ in 0..1000 {
            g.next_insert_key();
        }
        let recent: std::collections::HashSet<u64> = (900..1000u64).map(spread).collect();
        let hits = (0..2000)
            .filter(|_| recent.contains(&g.sample_existing_key()))
            .count();
        assert!(
            hits > 600,
            "latest distribution should mostly hit the newest 10%: {hits}"
        );
    }

    #[test]
    fn op_mix_respects_fractions() {
        let mut g = YcsbGenerator::new(11, KeyDistribution::Uniform, 1000);
        g.next_insert_key();
        let mix = OpMix::ycsb_b();
        let mut reads = 0;
        let mut updates = 0;
        for _ in 0..10_000 {
            match g.next_op(&mix).0 {
                OpKind::Read => reads += 1,
                OpKind::Update => updates += 1,
                OpKind::Insert => {}
            }
        }
        assert!(reads > 9000 && updates < 1000, "r={reads} u={updates}");
    }

    #[test]
    fn sampling_before_any_insert_is_a_typed_error() {
        let mut g = YcsbGenerator::new(1, KeyDistribution::Zipfian(0.99), 100);
        assert_eq!(
            g.try_sample_existing_key(),
            Err(WorkloadError::NoKeysInserted)
        );
        g.next_insert_key();
        assert!(g.try_sample_existing_key().is_ok());
    }

    #[test]
    fn load_keys_matches_insert_stream() {
        let mut g = YcsbGenerator::new(0, KeyDistribution::Uniform, 10);
        let a: Vec<u64> = (0..10).map(|_| g.next_insert_key()).collect();
        let b: Vec<u64> = YcsbGenerator::load_keys(10).collect();
        assert_eq!(a, b);
    }
}
