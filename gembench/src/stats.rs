//! Order statistics for latency samples.

/// Percentiles the tail metric may report, highest first.
const TAIL_CANDIDATES: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// 1-based nearest rank of the `p` percentile among `n` samples. The
/// epsilon keeps `0.95 * 200` from rounding up past 190.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of sorted samples (`0 < p <= 1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest-rank `p` percentile of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest candidate percentile with at least ten samples beyond it
/// among `n` samples, falling back to the median for tiny samples. The
/// benchmark fixes each tail level in advance; this rule only says whether
/// a run has the samples to support it.
pub fn max_tail_level(n: usize) -> f64 {
    TAIL_CANDIDATES.into_iter().find(|&p| beyond(n, p) >= 10).unwrap_or(0.5)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The run is cut into this many equal windows for the tail estimate.
pub const TAIL_WINDOWS: usize = 3;

/// Median and tail of a latency sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail: f64,
    /// Samples in the run's smallest window.
    pub smallest_window: usize,
}

/// Summarize `(seconds into the run, latency)` samples of a run of
/// `seconds`, with the tail at the fixed percentile `level`. The median
/// covers every sample. The tail is the `level` percentile of each of
/// [`TAIL_WINDOWS`] equal windows of the run, and the median of those
/// estimates is reported. A stall confined to one window (a host hiccup)
/// moves one estimate, not the result, while a cost that recurs through
/// the run moves them all. An error when some window has too few samples
/// for `level` by [`max_tail_level`].
pub fn summarize(samples: &[(f64, f64)], seconds: f64, level: f64) -> Result<Summary, String> {
    let mut windows = vec![Vec::new(); TAIL_WINDOWS];
    for &(at, v) in samples {
        let w = (at / seconds * TAIL_WINDOWS as f64).max(0.0) as usize;
        windows[w.min(TAIL_WINDOWS - 1)].push(v);
    }
    let smallest_window = windows.iter().map(Vec::len).min().unwrap_or(0);
    if level > max_tail_level(smallest_window) {
        return Err(format!(
            "{smallest_window} samples in the smallest window are too few for p{}",
            level * 100.0
        ));
    }
    windows.retain(|w| !w.is_empty());
    if windows.is_empty() {
        return Err("no samples".into());
    }
    let tails: Vec<f64> = windows
        .iter_mut()
        .map(|w| {
            w.sort_by(f64::total_cmp);
            percentile(w, level)
        })
        .collect();
    let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
    Ok(Summary { count: all.len(), p50: median(&all), tail: median(&tails), smallest_window })
}

/// Resident-set high-water mark of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_tail_level_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(max_tail_level(10_000), 0.999);
        assert_eq!(max_tail_level(9_999), 0.99);
        assert_eq!(max_tail_level(1_000), 0.99);
        assert_eq!(max_tail_level(999), 0.95);
        assert_eq!(max_tail_level(200), 0.95);
        assert_eq!(max_tail_level(199), 0.9);
        assert_eq!(max_tail_level(100), 0.9);
        assert_eq!(max_tail_level(99), 0.75);
        assert_eq!(max_tail_level(40), 0.75);
        assert_eq!(max_tail_level(39), 0.5);
        for n in 1..20_000 {
            let p = max_tail_level(n);
            if p > 0.5 {
                assert!(beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 1.0), 1_000.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_is_the_median_of_window_tails() {
        // 3 000 samples over 10 s, 1..=1000 in each window: p99 has ten
        // samples beyond it in every window. A stall of 20 huge samples in
        // one window does not move the reported tail.
        let mut v: Vec<(f64, f64)> =
            (0..3_000).map(|i| (i as f64 / 300.0, (i % 1_000 + 1) as f64)).collect();
        let s = summarize(&v, 10.0, 0.99).unwrap();
        assert_eq!((s.count, s.smallest_window, s.tail, s.p50), (3_000, 1_000, 990.0, 500.5));
        for x in v.iter_mut().take(20) {
            x.1 = 1e6;
        }
        assert_eq!(summarize(&v, 10.0, 0.99).unwrap().tail, 990.0);
        assert_eq!(summarize(&v, 10.0, 0.95).unwrap().tail, 950.0);
    }

    #[test]
    fn tail_level_is_fixed_and_checked_not_chosen() {
        // 600 samples: 200 per window. More samples never raise the level,
        // and too few for it fail instead of lowering it.
        let v: Vec<(f64, f64)> = (0..600).map(|i| (i as f64 / 60.0, (i % 200) as f64)).collect();
        assert_eq!(summarize(&v, 10.0, 0.9).unwrap().tail, 179.0);
        assert_eq!(summarize(&v, 10.0, 0.95).unwrap().tail, 189.0);
        assert!(summarize(&v, 10.0, 0.99).is_err());
        // An empty window supports only the median.
        let half: Vec<(f64, f64)> = v.iter().copied().filter(|s| s.0 < 5.0).collect();
        assert!(summarize(&half, 10.0, 0.75).is_err());
        assert_eq!(summarize(&half, 10.0, 0.5).unwrap().smallest_window, 0);
        assert!(summarize(&[], 10.0, 0.5).is_err());
    }
}
