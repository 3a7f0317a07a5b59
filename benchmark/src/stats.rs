//! Sample statistics: the percentile rule, medians, and the quartile spread
//! the A/A comparison and the driver both use.

/// Samples required *beyond* a named percentile before it may be reported.
/// With fewer, the tail is one or two outliers, not a distribution.
pub const SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of an ascending slice, or `None`
/// when fewer than [`SAMPLES_BEYOND`] samples lie beyond it — an absent
/// percentile is reported as absent, never computed.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// Sorts a sample in place and returns it (NaN-free input assumed: every
/// sample is a measured duration or count).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_unstable_by(|a, b| a.total_cmp(b));
    v
}

/// Plain median (no minimum sample count): used for bucket medians and
/// replay costs, where the sample size is fixed by the harness.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method) so the
/// spreads printed by `--aa` are the ones the driver will compute.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *slot = s[j - 1] + (s[j] - s[j - 1]) * delta;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the repeatability
/// figure every bound is judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p50: the 20th sample is the first size with ten beyond the rank.
        assert_eq!(percentile(&ramp(19), 0.50), None);
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
        // p99: 1,000 samples leave exactly ten beyond rank 990.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&ramp(10)).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
