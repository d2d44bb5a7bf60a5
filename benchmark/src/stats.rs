//! Order statistics for timings: medians and quartiles (the same numbers
//! Python's `statistics.median` / `statistics.quantiles(n=4)` give) and
//! nearest-rank latency percentiles with the "ten samples beyond" rule.

/// Median of `xs`; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`. A single sample is its own
/// quartiles; an empty slice gives zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    // Python's integer arithmetic, extrapolating past the ends for
    // small samples exactly as it does.
    let m = n as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile `q` (in `0..=1`) of `xs`: the smallest sample
/// with at least `q` of all samples at or below it. 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    s[rank(s.len(), q) - 1]
}

/// [`percentile`] for a reported metric: panics unless ten samples lie
/// beyond it, so a run never reports a tail its sample cannot carry.
pub fn tail_percentile(xs: &[f64], q: f64) -> f64 {
    assert!(
        reportable(xs.len(), q),
        "{} samples cannot carry percentile {q}",
        xs.len()
    );
    percentile(xs, q)
}

/// Samples that lie strictly beyond the nearest-rank percentile `q` of
/// `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether `n` samples are enough to report percentile `q`: at least ten
/// samples must lie beyond it.
pub fn reportable(n: usize, q: f64) -> bool {
    beyond(n, q) >= 10
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps exact products such as 0.9 * 100 from rounding up
    // past the intended rank.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn ten_samples_beyond_p90_need_a_hundred_samples() {
        assert_eq!(beyond(100, 0.9), 10);
        assert!(reportable(100, 0.9));
        assert_eq!(beyond(99, 0.9), 9);
        assert!(!reportable(99, 0.9));
        assert!(reportable(20, 0.5));
        assert!(!reportable(19, 0.5));
        assert!(!reportable(0, 0.5));
    }

    #[test]
    #[should_panic(expected = "99 samples cannot carry percentile 0.9")]
    fn too_few_samples_for_a_tail_panic() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        tail_percentile(&xs, 0.9);
    }
}
