//! Percentile, median, spread and share arithmetic.

/// Exact percentile with linear interpolation between the two nearest
/// ranks (`p` in `[0, 1]`), sorting `values` in place. Returns 0 for an
/// empty slice. This is the definition the repository's own `Sample` uses,
/// so fault percentiles pooled here and inside `HostAgent` are comparable.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        values[lo]
    } else {
        let frac = rank - lo as f64;
        values[lo] * (1.0 - frac) + values[hi] * frac
    }
}

/// Median (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance procedure
/// uses to measure run-to-run spread. Needs at least two values.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let at = |i: usize| {
        // position i*(n+1)/4 on a 1-based scale, clamped into the data.
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &mut [f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// `part / whole`, 0 when `whole` is 0 — every reported ratio goes through
/// here so an idle layer reads 0 rather than NaN.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Mean of `(sum, count)` accumulators, 0 when nothing was recorded.
pub fn mean(sum: f64, count: f64) -> f64 {
    share(sum, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_like_the_repo_sample() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.5);
        assert!((percentile(&mut v, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_sorts_unsorted_input() {
        let mut v = vec![9.0, 1.0, 5.0];
        assert_eq!(median(&mut v), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&mut v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&mut [40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
        assert!((spread(&mut v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn share_of_nothing_is_zero() {
        assert_eq!(share(3.0, 0.0), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(mean(10.0, 4.0), 2.5);
    }
}
