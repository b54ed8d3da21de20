//! Order statistics: percentiles that refuse to report a tail the sample
//! cannot support, windowed medians, and the quartile rule the bound
//! calibration uses.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample.
pub struct Sorted(Vec<u64>);

impl Sorted {
    /// Sort `values`.
    pub fn new(mut values: Vec<u64>) -> Sorted {
        values.sort_unstable();
        Sorted(values)
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile: the smallest value with at least
    /// `q·n` samples at or below it. `None` when the sample is empty or
    /// fewer than [`MIN_BEYOND`] samples lie above that rank (a median
    /// asks for the same number on both sides).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= MIN_BEYOND).then(|| self.0[rank - 1])
    }

    /// [`Sorted::percentile`] in microseconds of a nanosecond sample,
    /// 0 when unsupported.
    pub fn percentile_us(&self, q: f64) -> f64 {
        self.percentile(q).map_or(0.0, |ns| ns as f64 / 1e3)
    }
}

/// Median of a float sample (mean of the middle two when even); 0 for
/// an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    // j is clamped first and the offset taken from the clamped j, so
    // tiny samples extrapolate exactly as Python's do
    let at = |i: i64| {
        let (n, m) = (n as i64, n as i64 + 1);
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4.0 - delta) + hi * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The value a share `q` of `values` lie at or below (nearest rank);
/// 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// Cut `samples` (in issue order) into `windows` equal-count windows and
/// return the lower quartile over windows of each window's `q`-th
/// percentile: a neighbour's burst on a shared box only ever makes a
/// window slower, so the better windows are the undisturbed ones. Also
/// returns the smallest window's sample count. Windows too small to
/// support the percentile are left out.
pub fn windowed_percentile(samples: &[u64], windows: usize, q: f64) -> (Option<f64>, usize) {
    let n = samples.len();
    let windows = windows.min(n).max(1);
    let mut per_window = Vec::with_capacity(windows);
    let mut smallest = n;
    for w in 0..windows {
        let chunk = &samples[n * w / windows..n * (w + 1) / windows];
        smallest = smallest.min(chunk.len());
        if let Some(p) = Sorted::new(chunk.to_vec()).percentile(q) {
            per_window.push(p as f64);
        }
    }
    (
        (!per_window.is_empty()).then(|| quantile(&per_window, 0.25)),
        smallest,
    )
}

/// Split `sorted_times` (completion instants, ascending) into `windows`
/// equal-count windows and return each window's completions per second
/// times `weight` (completions each instant stands for). The first
/// window starts at `start_ns`.
pub fn window_rates(sorted_times: &[u64], start_ns: u64, windows: usize, weight: f64) -> Vec<f64> {
    let n = sorted_times.len();
    let windows = windows.min(n).max(1);
    let mut rates = Vec::with_capacity(windows);
    let mut from_t = start_ns;
    let mut from_i = 0usize;
    for w in 1..=windows {
        let to_i = n * w / windows;
        if to_i == from_i {
            continue;
        }
        let to_t = sorted_times[to_i - 1];
        let secs = to_t.saturating_sub(from_t).max(1) as f64 / 1e9;
        rates.push((to_i - from_i) as f64 * weight / secs);
        from_t = to_t;
        from_i = to_i;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, spelled out the slow way.
    fn oracle(values: &[u64], q: f64) -> Option<u64> {
        let mut v = values.to_vec();
        v.sort_unstable();
        let need = q * v.len() as f64;
        let pos = v
            .iter()
            .enumerate()
            .position(|(i, _)| (i + 1) as f64 >= need)?;
        (v.len() - (pos + 1) >= MIN_BEYOND).then(|| v[pos])
    }

    #[test]
    fn percentile_matches_sorted_vector_oracle() {
        let mut x = 88172645463325252u64;
        for n in [0usize, 1, 9, 10, 11, 20, 21, 99, 100, 1000, 1001, 4097] {
            let values: Vec<u64> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x % 10_000
                })
                .collect();
            let s = Sorted::new(values.clone());
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(s.percentile(q), oracle(&values, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        let s = Sorted::new((1..=1000).collect());
        assert_eq!(s.percentile(0.99), Some(990));
        assert_eq!(s.percentile(0.999), None, "only one sample beyond p999");
        let s = Sorted::new((1..=10_000).collect());
        assert_eq!(s.percentile(0.999), Some(9990));
        assert_eq!(Sorted::new((1..=19).collect()).percentile(0.5), None);
        assert_eq!(Sorted::new((1..=20).collect()).percentile(0.5), Some(10));
        assert_eq!(s.percentile_us(0.5), 5.0);
    }

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&v), (1.5, 4.5));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    }

    #[test]
    fn windowed_percentile_shrugs_off_bad_windows() {
        // ten windows of 100 samples at 10, three of them all at 10_000
        let mut samples = vec![10u64; 1000];
        samples[300..500].fill(10_000);
        samples[800..900].fill(10_000);
        assert_eq!(windowed_percentile(&samples, 10, 0.5), (Some(10.0), 100));
        // p90 of the whole sample would be 10_000
        assert_eq!(Sorted::new(samples.clone()).percentile(0.9), Some(10_000));
        assert_eq!(windowed_percentile(&samples, 10, 0.9).0, Some(10.0));
        // windows of 10 cannot support any percentile
        assert_eq!(windowed_percentile(&samples[..100], 10, 0.5), (None, 10));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.25), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.75), 3.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn window_rates_split_by_count() {
        // 8 completions, one every 1 ms, each standing for 2 calls
        let times: Vec<u64> = (1..=8).map(|i| i * 1_000_000).collect();
        let rates = window_rates(&times, 0, 4, 2.0);
        assert_eq!(rates.len(), 4);
        for r in rates {
            assert!((r - 2000.0).abs() < 1e-6, "{r}");
        }
        assert_eq!(window_rates(&[], 0, 4, 1.0).len(), 0);
    }
}
