//! Paired parent/change comparison.
//!
//! The rule for a host-time claim on a noisy, shared machine: run the
//! parent commit and the change alternately, at least [`MIN_PAIRS`]
//! times, and judge each (workload, metric) from the two samples.
//!
//! - **improved**: the change wins at least nine tenths of all pairs
//!   (ties count for neither side) and its median beats the parent's by
//!   more than the parent's own quartile spread;
//! - **unresolved**: otherwise, when the parent's quartile spread, as a
//!   share of its median, is wider than the metric's bound, unless every
//!   change run reads better than every parent run;
//! - **regressed**: otherwise, when the change's median is worse than the
//!   parent's by more than the bound;
//! - **no-worse**: everything else.

use crate::report::Better;
use crate::stats::quartiles;

/// Fewest pairs a verdict may rest on.
pub const MIN_PAIRS: usize = 10;

/// Verdict for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the paired rule.
    Improved,
    /// Within the bound.
    NoWorse,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case, hyphenated spelling used in the printed table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Both sides' quartiles, the pair tally and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    /// Parent `[q1, median, q3]`.
    pub parent: [f64; 3],
    /// Change `[q1, median, q3]`.
    pub change: [f64; 3],
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs the parent won.
    pub losses: usize,
    /// Pairs that tied.
    pub ties: usize,
    /// Change median's worsening as a share of the parent median
    /// (negative when it improved).
    pub worse_by: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let diff = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a != 0.0 {
        diff / a.abs()
    } else if diff == 0.0 {
        0.0
    } else {
        diff.signum() * f64::INFINITY
    }
}

/// Judges one metric from `parent[i]`/`change[i]` pairs.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: f64,
) -> Result<Judgement, String> {
    if parent.len() != change.len() {
        return Err(format!(
            "{} parent runs but {} change runs",
            parent.len(),
            change.len()
        ));
    }
    if parent.len() < MIN_PAIRS {
        return Err(format!(
            "{} pairs; at least {MIN_PAIRS} are needed",
            parent.len()
        ));
    }
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let (mut wins, mut losses, mut ties) = (0, 0, 0);
    for (&p, &c) in parent.iter().zip(change) {
        if beats(c, p) {
            wins += 1;
        } else if beats(p, c) {
            losses += 1;
        } else {
            ties += 1;
        }
    }
    let pq = quartiles(parent).ok_or("too few parent runs")?;
    let cq = quartiles(change).ok_or("too few change runs")?;
    let parent_spread = pq[2] - pq[0];
    let worse_by = worsening(pq[1], cq[1], better);
    let gain = match better {
        Better::Lower => pq[1] - cq[1],
        Better::Higher => cq[1] - pq[1],
    };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    let spread_share = if parent_spread == 0.0 {
        0.0
    } else {
        parent_spread / pq[1].abs()
    };
    let verdict = if wins * 10 >= parent.len() * 9 && gain > parent_spread {
        Verdict::Improved
    } else if spread_share > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::NoWorse
    };
    Ok(Judgement {
        parent: pq,
        change: cq,
        wins,
        losses,
        ties,
        worse_by,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten samples around `centre` with ±`jitter` alternating noise.
    fn runs(centre: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| centre + if i % 2 == 0 { jitter } else { -jitter } * (i as f64 / 10.0))
            .collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let j = judge(&runs(100.0, 1.0), &runs(80.0, 1.0), Better::Lower, 0.05).unwrap();
        assert_eq!(j.verdict, Verdict::Improved);
        assert_eq!((j.wins, j.losses, j.ties), (10, 0, 0));
        assert!(j.worse_by < -0.15);
        // The same numbers read as throughput are a regression.
        let j = judge(&runs(100.0, 1.0), &runs(80.0, 1.0), Better::Higher, 0.05).unwrap();
        assert_eq!(j.verdict, Verdict::Regressed);
    }

    #[test]
    fn small_shift_within_bound_is_no_worse() {
        let j = judge(&runs(100.0, 0.5), &runs(101.0, 0.5), Better::Lower, 0.05).unwrap();
        assert_eq!(j.verdict, Verdict::NoWorse);
    }

    #[test]
    fn wins_below_nine_tenths_do_not_claim_a_gain() {
        let parent = runs(100.0, 0.5);
        let mut change = runs(90.0, 0.5);
        change[0] = 120.0;
        change[1] = 120.0; // two losses: 8/10 wins
        let j = judge(&parent, &change, Better::Lower, 0.05).unwrap();
        assert_eq!(j.wins, 8);
        assert_ne!(j.verdict, Verdict::Improved);
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_every_run_wins() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + 4.0 * i as f64).collect();
        let change: Vec<f64> = parent.iter().map(|p| p + 1.0).collect();
        let j = judge(&parent, &change, Better::Lower, 0.05).unwrap();
        assert_eq!(j.verdict, Verdict::Unresolved);
        // Every change run faster than every parent run: the spread no
        // longer hides the comparison.
        let fast: Vec<f64> = (0..10).map(|i| 90.0 + 0.1 * i as f64).collect();
        let j = judge(&parent, &fast, Better::Lower, 0.05).unwrap();
        assert_eq!(j.verdict, Verdict::Improved);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let same = vec![7.0; 10];
        let j = judge(&same, &same, Better::Lower, 0.0).unwrap();
        assert_eq!((j.wins, j.losses, j.ties), (0, 0, 10));
        assert_eq!(j.verdict, Verdict::NoWorse);
        let worse = vec![7.5; 10];
        let j = judge(&same, &worse, Better::Lower, 0.0).unwrap();
        assert_eq!(j.verdict, Verdict::Regressed);
    }

    #[test]
    fn refuses_too_few_or_unmatched_pairs() {
        assert!(judge(&[1.0; 9], &[1.0; 9], Better::Lower, 0.1).is_err());
        assert!(judge(&[1.0; 10], &[1.0; 11], Better::Lower, 0.1).is_err());
    }
}
