//! Sample statistics: percentiles, the tail rule and run-to-run spread.

/// Distribution of one timed quantity over the units of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile; `None` below 1,000 samples, where fewer than ten
    /// samples would lie beyond it.
    pub p99: Option<f64>,
    /// The highest percentile with at least ten samples beyond it (see
    /// [`tail_quantile`]).
    pub tail: f64,
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest quantile that leaves at least ten of `n` samples beyond
/// it, capped at the 99th percentile and floored at the median.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Summarizes `samples` (any order).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Summary {
        n,
        median: quantile(&s, 0.5),
        p10: quantile(&s, 0.1),
        p90: quantile(&s, 0.9),
        p99: (n >= 1000).then(|| quantile(&s, 0.99)),
        tail: quantile(&s, tail_quantile(n)),
    }
}

/// The sum over parts of each part's fastest time, where `parts[k]`
/// holds part `k`'s times over many units: the time of a unit none of
/// whose parts a slowdown of the machine hit.
pub fn best_of_parts(parts: &[Vec<f64>]) -> f64 {
    parts.iter().map(|p| fastest(p)).sum()
}

/// The smallest sample (infinite when there is none).
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// the ones external tooling computes from the same runs. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut d = values.to_vec();
    if d.len() < 2 {
        return None;
    }
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Run-to-run spread of a metric as a share of its median: the
/// interquartile distance with at least four runs, the full range with
/// two or three, and `None` with one.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    let width = if values.len() >= 4 {
        q3 - q1
    } else {
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        max - min
    };
    Some(width / q2.abs())
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert!((s.p10 - 1.4).abs() < 1e-12);
        assert!((s.p90 - 4.6).abs() < 1e-12);
    }

    #[test]
    fn p99_is_omitted_below_a_thousand_samples() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(summarize(&few).p99, None);
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = summarize(&many);
        assert_eq!(s.n, 1000);
        assert!((s.p99.expect("1000 samples carry a p99") - 989.01).abs() < 1e-9);
        assert_eq!(s.tail, s.p99.unwrap());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(20), 0.5);
        assert!((tail_quantile(100) - 0.9).abs() < 1e-12);
        assert_eq!(tail_quantile(100_000), 0.99);
        let s = summarize(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert!((s.tail - 90.1).abs() < 1e-9);
    }

    #[test]
    fn best_of_parts_skips_slowdowns_that_hit_every_unit() {
        // Three units of two parts; every unit has one part slowed 3x.
        let parts = vec![vec![1.0, 3.0, 1.0], vec![6.0, 2.0, 6.0]];
        assert_eq!(best_of_parts(&parts), 3.0);
        let units: Vec<f64> = (0..3).map(|u| parts[0][u] + parts[1][u]).collect();
        assert_eq!(fastest(&units), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        // == [2.75, 5.5, 8.25]
        let (q1, q2, q3) = quartiles(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((q1, q2, q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_uses_range_for_few_runs() {
        assert_eq!(relative_spread(&[1.0]), None);
        assert!((relative_spread(&[9.0, 11.0]).unwrap() - 0.2).abs() < 1e-12);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten).unwrap() - 5.5 / 5.5).abs() < 1e-12);
    }
}
