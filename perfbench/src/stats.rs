//! Order statistics used for every reported timing.

/// Median of `values` (the mean of the two middle values for an even
/// count), or `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Mean of the medians of consecutive windows of `values`. Window `i`
/// runs from `starts[i]` to the next start; a window from 0 precedes the
/// first start and the last runs to the end. Empty windows are skipped.
///
/// When the host changes speed between windows, this mean moves in
/// proportion to the windows spent at each speed. The median of the whole
/// run instead falls in whichever speed's cluster holds more samples, and
/// jumps between them. `None` when `values` is empty.
#[must_use]
pub fn window_median_mean(values: &[f64], starts: &[usize]) -> Option<f64> {
    let mut bounds: Vec<usize> = starts
        .iter()
        .copied()
        .filter(|&start| start < values.len())
        .chain([0, values.len()])
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    let medians: Vec<f64> = bounds
        .windows(2)
        .filter_map(|w| median(&values[w[0]..w[1]]))
        .collect();
    (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method). `None` for fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(values);
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        // Signed: the clamp can push `j` past `i·m/4`, and Python then
        // extrapolates from the two end values.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// A tail latency: the highest percentile (capped at p99) that still has at
/// least [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `(0, 99]`.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Minimum number of samples that must lie beyond a reported tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of `values` by the rule of [`Tail`]: p99 by nearest rank when
/// at least 1000 samples put ten beyond it, otherwise the sample with
/// exactly ten beyond it. `None` with fewer than eleven samples.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let p99_rank = (n * 99).div_ceil(100);
    let rank = p99_rank.min(n - TAIL_MIN_BEYOND);
    Some(Tail {
        percentile: if rank == p99_rank {
            99.0
        } else {
            100.0 * rank as f64 / n as f64
        },
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Most windows [`windowed_tail`] cuts a run into.
pub const MAX_WINDOWS: usize = 16;
/// Fewest samples a window of [`windowed_tail`] holds.
pub const MIN_WINDOW: usize = 120;

/// A tail taken as the median over consecutive windows of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedTail {
    /// Median of the windows' tails.
    pub value: f64,
    /// The tail of each window (all windows hold the same count).
    pub window: Tail,
    /// Number of windows.
    pub windows: usize,
}

/// The tail of `values`, taken in the order they were measured: the run is
/// cut into up to [`MAX_WINDOWS`] consecutive windows of at least
/// [`MIN_WINDOW`] samples, each window's [`tail`] is taken, and the median
/// of those is reported. A burst of host stalls confined to fewer than half
/// of the windows leaves it unchanged, where a single tail over the whole
/// run would report the burst. A run shorter than two windows is one
/// window. `None` when a window has fewer than eleven samples.
#[must_use]
pub fn windowed_tail(values: &[f64]) -> Option<WindowedTail> {
    let windows = (values.len() / MIN_WINDOW).clamp(1, MAX_WINDOWS);
    let per_window = values.len() / windows;
    let tails = values
        .chunks_exact(per_window.max(1))
        .take(windows)
        .map(tail)
        .collect::<Option<Vec<Tail>>>()?;
    let value = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>())?;
    Some(WindowedTail {
        value,
        window: *tails.first()?,
        windows,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn window_median_mean_weighs_windows_not_samples() {
        // A fast window with many samples and a slow one with few: the
        // whole-run median sits in the fast cluster, the window mean halfway.
        let mut values = vec![1.0; 7];
        values.extend([3.0; 3]);
        assert_eq!(median(&values), Some(1.0));
        assert_eq!(window_median_mean(&values, &[7]), Some(2.0));
        // No starts is one window; starts past the end and repeats add none.
        assert_eq!(window_median_mean(&values, &[]), median(&values));
        assert_eq!(window_median_mean(&values, &[7, 7, 0, 10, 99]), Some(2.0));
        assert_eq!(window_median_mean(&[], &[0]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&values).expect("tail");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 1980.0);
        assert_eq!((t.samples, t.beyond), (2000, 20));
        // Exactly 1000 samples: p99 still has ten beyond it.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values).expect("tail");
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&values).expect("tail");
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, TAIL_MIN_BEYOND);
        assert_eq!(t.samples, 200);
        assert!((t.percentile - 95.0).abs() < 1e-12);
        assert!(tail(&[1.0; 10]).is_none());
        let t = tail(&[1.0; 11]).expect("eleven samples suffice");
        assert_eq!((t.samples, t.beyond), (11, 10));
    }

    #[test]
    fn windowed_tail_ignores_a_burst_in_one_window() {
        // 480 samples of 1.0 → 4 windows of 120; a burst of 30 slow samples
        // lands in the second window only.
        let mut values = vec![1.0; 480];
        values[130..160].iter_mut().for_each(|v| *v = 9.0);
        let w = windowed_tail(&values).expect("tail");
        assert_eq!(w.windows, 4);
        assert_eq!((w.window.samples, w.window.beyond), (120, 10));
        assert_eq!(w.value, 1.0);
        // The single whole-run tail reports the burst.
        assert_eq!(tail(&values).map(|t| t.value), Some(9.0));
    }

    #[test]
    fn windowed_tail_caps_the_window_count_and_keeps_p99_on_long_runs() {
        let values: Vec<f64> = (0..32_000).map(|i| f64::from(i % 1000)).collect();
        let w = windowed_tail(&values).expect("tail");
        assert_eq!(w.windows, MAX_WINDOWS);
        assert_eq!(w.window.samples, 2000);
        assert_eq!(w.window.percentile, 99.0);
        assert_eq!(w.value, 989.0);
        // Short runs are a single window, identical to `tail`.
        let short: Vec<f64> = (1..=200).map(f64::from).collect();
        let w = windowed_tail(&short).expect("tail");
        assert_eq!(w.windows, 1);
        assert_eq!(Some(w.window), tail(&short));
        assert!(windowed_tail(&[1.0; 10]).is_none());
    }
}
