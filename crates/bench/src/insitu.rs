//! E-INS (§4.2.1): in-situ per-trajectory statistics.
//!
//! "Attributes of min/max, median/average of properties (e.g. speed,
//! acceleration etc.) are generated on a per trajectory basis" to support
//! data-quality assessment. [`RunningStats`] maintains exact min/max/mean
//! and an exact streaming median (two-heap method). The median keeps every
//! observation, so its memory grows with the stream: the experiment checks
//! it against a sort-based reference, and the real-time layer does not
//! carry it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Exact streaming summary of one scalar property.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
    // Two-heap exact median: `lower` is a max-heap of the smaller half,
    // `upper` a min-heap of the larger half.
    lower: BinaryHeap<OrderedF64>,
    upper: BinaryHeap<Reverse<OrderedF64>>,
}

/// Total-order wrapper for finite f64 heap entries.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl RunningStats {
    /// An empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            lower: BinaryHeap::new(),
            upper: BinaryHeap::new(),
        }
    }

    /// Adds one observation. Non-finite values are ignored (they are already
    /// rejected upstream by cleaning; ignoring keeps the summary total).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.sum += x;
        // Median maintenance.
        if self.lower.peek().is_none_or(|m| x <= m.0) {
            self.lower.push(OrderedF64(x));
        } else {
            self.upper.push(Reverse(OrderedF64(x)));
        }
        // Rebalance so |lower| == |upper| or |lower| == |upper| + 1. The
        // length guards make the pops infallible; `if let` keeps this free
        // of panic paths regardless.
        if self.lower.len() > self.upper.len() + 1 {
            if let Some(moved) = self.lower.pop() {
                self.upper.push(Reverse(moved));
            }
        } else if self.upper.len() > self.lower.len() {
            if let Some(Reverse(moved)) = self.upper.pop() {
                self.lower.push(moved);
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Minimum; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Exact median (lower median for even counts averaged with upper);
    /// `None` when empty.
    pub fn median(&self) -> Option<f64> {
        let lo = self.lower.peek()?.0;
        if self.lower.len() > self.upper.len() {
            Some(lo)
        } else {
            // Balanced heaps: the upper median exists whenever the counts
            // are equal and non-zero; fall back to `lo` rather than panic.
            match self.upper.peek() {
                Some(&Reverse(OrderedF64(hi))) => Some((lo + hi) / 2.0),
                None => Some(lo),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_data::rng::SeededRng;

    #[test]
    fn running_stats_basic_moments() {
        let mut s = RunningStats::new();
        for x in [3.0, 1.0, 4.0, 1.0, 5.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
        assert!((s.mean().unwrap() - 2.8).abs() < 1e-12);
        assert_eq!(s.median(), Some(3.0));
    }

    #[test]
    fn median_even_count_averages() {
        let mut s = RunningStats::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.median(), Some(2.5));
    }

    /// The E-INS gate: every statistic equals a sort-based reference over
    /// a permutation stream and seeded speed-like streams of odd and even
    /// length, with ties.
    #[test]
    fn median_matches_sorted_reference() {
        let mut streams: Vec<Vec<f64>> =
            vec![(0..101).map(|i| ((i * 7919) % 101) as f64).collect()];
        for (seed, n) in [(1u64, 1_000usize), (42, 1_001), (0xDEAD_BEEF, 257)] {
            let mut rng = SeededRng::new(seed);
            streams.push(
                (0..n)
                    .map(|_| {
                        if rng.chance(0.2) {
                            rng.int_range(0, 20) as f64
                        } else {
                            rng.gaussian(8.0, 3.0)
                        }
                    })
                    .collect(),
            );
        }
        for xs in &streams {
            let mut s = RunningStats::new();
            for &x in xs {
                s.push(x);
            }
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            let n = sorted.len();
            let median = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
            };
            let mean = sorted.iter().sum::<f64>() / n as f64;
            assert_eq!(s.count(), n as u64);
            assert_eq!(s.min(), Some(sorted[0]), "n = {n}");
            assert_eq!(s.max(), Some(sorted[n - 1]), "n = {n}");
            assert_eq!(s.median(), Some(median), "n = {n}");
            let got = s.mean().unwrap();
            assert!(
                (got - mean).abs() <= 1e-9 * mean.abs().max(1.0),
                "n = {n}: mean {got} vs {mean}"
            );
        }
    }

    #[test]
    fn empty_stats_are_none() {
        let s = RunningStats::new();
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.median(), None);
    }

    #[test]
    fn non_finite_values_ignored() {
        let mut s = RunningStats::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(2.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.median(), Some(2.0));
    }
}
