//! Per-request retry policy: seeded-jitter exponential backoff.
//!
//! The backoff multiplier saturates instead of overflowing: a request
//! stuck in a retry storm must flatten out at `max_backoff`, never panic
//! in a debug build because `attempt` pushed the shift past the bit width.
//! Jitter is drawn from the caller's seeded RNG, so two
//! runs at the same seed retry at identical simulated instants.

use simbase::SplitMix64;

/// Simulated-time ticks (same unit as machine cycles).
pub type Ticks = u64;

/// Retry policy for one request class.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per request, hedges included (1 = no retries).
    pub max_attempts: u32,
    /// Per-attempt response timeout: a reply not delivered within this
    /// window counts the attempt as failed.
    pub attempt_timeout: Ticks,
    /// Backoff before attempt N+1 is `base_backoff * 2^(N-1)`, saturated
    /// at [`RetryPolicy::max_backoff`].
    pub base_backoff: Ticks,
    /// Upper bound on the computed backoff (pre-jitter).
    pub max_backoff: Ticks,
    /// Jitter as a fraction of the computed backoff: the drawn delay is
    /// uniform in `[(1 - f) * b, (1 + f) * b]`.
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            attempt_timeout: 40_000,
            base_backoff: 4_000,
            max_backoff: 200_000,
            jitter_frac: 0.25,
        }
    }
}

impl RetryPolicy {
    /// Backoff before the attempt after the given (1-based) failed one.
    /// The exponential multiplier is computed with a checked shift and
    /// saturates — any attempt count, up to `u32::MAX`, yields a finite
    /// clamped delay.
    pub fn backoff_after(&self, attempt: u32, rng: &mut SplitMix64) -> Ticks {
        let shift = attempt.saturating_sub(1);
        let factor = 1u64.checked_shl(shift).unwrap_or(u64::MAX);
        let raw = self
            .base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff);
        let f = self.jitter_frac.clamp(0.0, 1.0);
        // Uniform in [(1-f)b, (1+f)b], rounded; at least 1 tick so a
        // retry never lands on the failure instant itself.
        let lo = (raw as f64) * (1.0 - f);
        let span = (raw as f64) * 2.0 * f;
        ((lo + span * rng.gen_f64()).round() as Ticks).max(1)
    }

    /// Whether a request that has consumed `attempts` attempts may retry.
    pub fn may_retry(&self, attempts: u32) -> bool {
        attempts < self.max_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_saturates() {
        let p = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = SplitMix64::new(1);
        assert_eq!(p.backoff_after(1, &mut rng), 4_000);
        assert_eq!(p.backoff_after(2, &mut rng), 8_000);
        assert_eq!(p.backoff_after(6, &mut rng), 128_000);
        // Clamped at max_backoff from attempt 7 on.
        assert_eq!(p.backoff_after(7, &mut rng), 200_000);
        assert_eq!(p.backoff_after(8, &mut rng), 200_000);
    }

    #[test]
    fn absurd_attempt_counts_do_not_overflow() {
        let p = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = SplitMix64::new(1);
        for attempt in [31, 32, 33, 64, 65, 1000, u32::MAX] {
            assert_eq!(p.backoff_after(attempt, &mut rng), p.max_backoff);
        }
    }

    #[test]
    fn jitter_stays_in_band_and_is_seeded() {
        let p = RetryPolicy {
            base_backoff: 10_000,
            max_backoff: 10_000,
            jitter_frac: 0.5,
            ..RetryPolicy::default()
        };
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for attempt in 1..50 {
            let d = p.backoff_after(attempt, &mut a);
            assert!((5_000..=15_000).contains(&d), "jitter out of band: {d}");
            assert_eq!(d, p.backoff_after(attempt, &mut b), "seeded jitter");
        }
    }

    #[test]
    fn may_retry_respects_budget() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        assert!(p.may_retry(1));
        assert!(p.may_retry(2));
        assert!(!p.may_retry(3));
    }
}
