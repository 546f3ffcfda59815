//! Order statistics for samples taken inside one run and for values taken
//! across runs.

/// Sort ascending; the samples are wall-clock readings, never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1). With
/// thousands of in-run samples the method is immaterial; nearest rank
/// never invents a value that was not measured.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the samples between the 45th and 55th percentile of an
/// ascending slice (the median itself when there are fewer than ten).
pub fn central_mean(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n < 10 {
        return percentile(sorted, 0.5);
    }
    let middle = &sorted[n * 45 / 100..n * 55 / 100];
    middle.iter().sum::<f64>() / middle.len() as f64
}

pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, 0.5)
}

/// First quartile, median, third quartile across runs, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so
/// `pmbench compare` and the acceptance driver read the same spread.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
    }

    #[test]
    fn central_mean_averages_the_middle_tenth() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(central_mean(&v), (45..55).sum::<i32>() as f64 / 10.0);
        assert_eq!(central_mean(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(central_mean(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
