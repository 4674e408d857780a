//! Estimators: quartiles over passes, the windowed latency percentile, and
//! the one-predictor least squares behind `cold_start_ns_per_entity`.

/// `(q1, median, q3)` by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so a spread computed
/// here reads the same as one computed from the result lines.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let at = |k: usize| {
        // Rank k*(n+1)/4, 1-based, interpolated between its neighbours (and,
        // like Python, extrapolated from the end pair when n < 3).
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The `p` percentile of `values`, read as the mean of the order statistics
/// whose rank lies within half a percent of `p` (one or two values when there are
/// fewer than a hundred): a single nearest-rank value at the tail jumps
/// from run to run, a narrow band around it does not. Sorts `values` in
/// place; 0 when there are none.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len() as f64;
    let rank = |q: f64| ((n * q).ceil() as usize).clamp(1, values.len());
    let band = &values[rank(p - 0.005) - 1..rank(p + 0.005).max(rank(p - 0.005))];
    band.iter().sum::<f64>() / band.len() as f64
}

/// Per chunk index, the median over passes of that chunk's latency. Every
/// pass of a closed loop hands the product the same chunks in the same
/// order, so chunk `i` is the same work each time: what recurs at an index
/// (a cold start, a map growing) stays, what hit one pass by chance (a
/// preempted thread) goes.
pub fn median_by_index(passes: &[&[u64]]) -> Vec<f64> {
    let chunks = passes.iter().map(|p| p.len()).min().unwrap_or(0);
    (0..chunks).map(|i| median(&passes.iter().map(|p| p[i] as f64).collect::<Vec<f64>>())).collect()
}

/// Latency samples of the open loop, grouped into fixed-width windows of
/// the schedule. The reported percentile is taken per window and then
/// across the calmer half of the windows (see [`estimate`](Self::estimate)):
/// a stall moves the windows it falls in, not the estimate, which is what
/// lets a p99 repeat within a tenth between runs.
#[derive(Debug, Default, Clone)]
pub struct LatencyWindows {
    windows: Vec<Vec<u64>>,
}

impl LatencyWindows {
    /// Adds one sample of `ns` to window `index`.
    pub fn record(&mut self, index: usize, ns: u64) {
        if self.windows.len() <= index {
            self.windows.resize_with(index + 1, Vec::new);
        }
        self.windows[index].push(ns);
    }

    /// Each non-empty window's nearest-rank `p` percentile, ns, in window order.
    pub fn per_window(&mut self, p: f64) -> Vec<f64> {
        self.windows
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| {
                w.sort_unstable();
                let rank = ((w.len() as f64 * p).ceil() as usize).clamp(1, w.len());
                w[rank - 1] as f64
            })
            .collect()
    }

    /// The `p` percentile, ns: the mean, over the calmer half of the
    /// non-empty windows, of each window's own `p` percentile. A stall lifts
    /// the windows it falls in into the upper half, which is left out; the
    /// mean of the rest moves smoothly where a median would jump between
    /// the 10 µs steps the open loop observes latency in.
    pub fn estimate(&mut self, p: f64) -> f64 {
        let mut per_window = self.per_window(p);
        per_window.sort_by(f64::total_cmp);
        let calm = &per_window[..per_window.len().div_ceil(2)];
        if calm.is_empty() {
            return 0.0;
        }
        calm.iter().sum::<f64>() / calm.len() as f64
    }

    pub fn window_count(&self) -> usize {
        self.windows.iter().filter(|w| !w.is_empty()).count()
    }

    pub fn sample_count(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// Samples in the smallest non-empty window: divided by 100 it is how
    /// many lie beyond that window's p99.
    pub fn min_window_samples(&self) -> usize {
        self.windows.iter().map(Vec::len).filter(|&n| n > 0).min().unwrap_or(0)
    }
}

/// Least squares `y = intercept + slope * x`. `None` when `x` does not vary.
pub fn least_squares(xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len().min(ys.len()) as f64;
    if n < 2.0 {
        return None;
    }
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let (mut sxx, mut sxy) = (0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
    }
    (sxx > 0.0).then(|| {
        let slope = sxy / sxx;
        (mean_y - slope * mean_x, slope)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]), (15.0, 30.0, 45.0));
        // statistics.quantiles([1, 4], n=4) == [0.25, 2.5, 4.75]
        assert_eq!(quartiles(&[4.0, 1.0]), (0.25, 2.5, 4.75));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn a_stall_in_one_window_does_not_move_the_windowed_p99() {
        let mut w = LatencyWindows::default();
        for window in 0..5 {
            for i in 0..100u64 {
                w.record(window, 100 + i);
            }
        }
        // Window 2 stalls: a fifth of its samples are 1000x slower.
        for _ in 0..25 {
            w.record(2, 200_000);
        }
        // Five windows: the calmer half is three of them, the stalled one is not among them.
        assert_eq!(w.estimate(0.99), 198.0);
        assert_eq!(w.estimate(0.50), 149.0);
        assert_eq!(w.window_count(), 5);
        assert_eq!(w.sample_count(), 525);
        assert_eq!(w.min_window_samples(), 100);
    }

    #[test]
    fn empty_windows_are_skipped() {
        let mut a = LatencyWindows::default();
        a.record(3, 50);
        a.record(5, 70);
        assert_eq!(a.window_count(), 2);
        assert_eq!(a.estimate(0.5), 50.0);
        assert_eq!(a.per_window(0.5), vec![50.0, 70.0]);
        assert_eq!(LatencyWindows::default().estimate(0.5), 0.0);
    }

    #[test]
    fn median_by_index_keeps_what_recurs_and_drops_what_hit_one_pass() {
        // Chunk 1 is slow in every pass (a cold start); pass B was preempted in chunk 2.
        let (a, b, c) = ([100, 900, 100, 110], [104, 950, 5_000, 100], [96, 910, 102, 120]);
        let by_index = median_by_index(&[&a, &b, &c]);
        assert_eq!(by_index, vec![100.0, 910.0, 102.0, 110.0]);
        // A pass cut short limits the comparison to the chunks all passes have.
        assert_eq!(median_by_index(&[&a, &b[..2]]).len(), 2);
        assert!(median_by_index(&[]).is_empty());
    }

    #[test]
    fn percentile_averages_the_ranks_within_half_a_percent() {
        // 1000 values: p99 is the mean of ranks 985..=995, p50 of ranks 495..=505.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.99), 990.0);
        assert_eq!(percentile(&mut v, 0.50), 500.0);
        // Too few values for a band: the nearest rank, or the two it falls between.
        let mut v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.99), 50.0);
        assert_eq!(percentile(&mut v, 0.50), 25.5);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn least_squares_recovers_a_line() {
        let xs = [0.0, 512.0, 0.0, 512.0, 256.0];
        let ys: Vec<f64> = xs.iter().map(|x| 300_000.0 + 700.0 * x).collect();
        let (intercept, slope) = least_squares(&xs, &ys).expect("x varies");
        assert!((intercept - 300_000.0).abs() < 1e-6 && (slope - 700.0).abs() < 1e-9);
        assert_eq!(least_squares(&[1.0, 1.0], &[2.0, 3.0]), None);
    }
}
