//! Order statistics for host timings.
//!
//! Two rules from the benchmark's method live here. A timing is reported
//! as a median plus a tail percentile, and a tail percentile is only
//! trusted when at least [`MIN_TAIL`] samples lie beyond it
//! ([`supported_percentile`]). Run-to-run spread is the distance between
//! the first and third quartile, computed exactly as Python's
//! `statistics.quantiles(values, n=4)` does, so a spread printed here
//! matches one computed from the same numbers elsewhere.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL: usize = 10;

/// The percentiles a tail may be reported at, lowest first, in per mille
/// so the samples-beyond count is exact integer arithmetic.
const TAILS_PER_MILLE: [usize; 4] = [500, 900, 990, 999];

/// The highest of p50, p90, p99 and p99.9 with at least [`MIN_TAIL`]
/// of `n` samples beyond it, or `None` when even the median has fewer.
pub fn supported_percentile(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .rev()
        .find(|&&pm| n * (1000 - pm) / 1000 >= MIN_TAIL)
        .map(|&pm| pm as f64 / 10.0)
}

/// Sorts a copy of `values`; NaNs, which no timing produces, sort last.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile of sorted samples, interpolating linearly
/// between the two nearest ranks. `NaN` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (n - 1) as f64 * p.clamp(0.0, 100.0) / 100.0;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median, as Python's `statistics.median`: the middle value, or the
/// mean of the two middle values. `NaN` for no samples.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Buckets per power of two: about 4.4 % relative resolution.
const SUB_BUCKETS: f64 = 16.0;

/// A log-bucketed histogram of nanosecond durations: constant memory,
/// constant-time insert, percentiles to within one bucket (~4.4 %).
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: vec![0; 64 * SUB_BUCKETS as usize + 1],
            count: 0,
        }
    }
}

impl LogHistogram {
    fn bucket_of(ns: u64) -> usize {
        if ns <= 1 {
            0
        } else {
            ((ns as f64).log2() * SUB_BUCKETS) as usize + 1
        }
    }

    /// Records one duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let b = Self::bucket_of(ns).min(self.buckets.len() - 1);
        self.buckets[b] += 1;
        self.count += 1;
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `p`-th percentile (nearest rank), as the geometric centre of
    /// its bucket. `0` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if b == 0 {
                    1.0
                } else {
                    ((b as f64 - 0.5) / SUB_BUCKETS).exp2()
                };
            }
        }
        f64::NAN // unreachable: the buckets sum to `count`
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(2000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_percentile_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert!(median(&[]).is_nan());
        let s = sorted(&(0..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }

    #[test]
    fn histogram_percentiles_land_within_one_bucket() {
        let mut h = LogHistogram::default();
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 10_000);
        for (p, exact) in [(50.0, 5_000.0), (99.0, 9_900.0)] {
            let got = h.percentile(p);
            assert!((got / exact - 1.0).abs() < 0.045, "p{p}: {got} vs {exact}");
        }
        assert_eq!(LogHistogram::default().percentile(50.0), 0.0);
    }
}
