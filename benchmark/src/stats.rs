//! Summary math: percentiles of lap samples and the quartile spread the
//! repeatability rule is stated in.

/// Sorts `v` ascending (samples are finite by construction).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Percentile `p` in `[0, 1]` of an ascending slice, linearly interpolated
/// between the two nearest ranks. 0 for an empty slice, so a layer that a
/// workload never enters reads 0 rather than failing the run.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them; the
/// acceptance rule for this benchmark is stated with that function.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    sort(&mut v);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let q = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// What one timed window reduces to.
#[derive(Debug, Clone, Default)]
pub struct LapSummary {
    pub samples: usize,
    pub p50: f64,
    pub p90: f64,
    /// Only with at least 1000 laps: ten samples beyond the percentile.
    pub p99: Option<f64>,
    /// Median of the first tenth of the laps over the last tenth, minus one,
    /// in percent: positive when the window started slower than it ended.
    pub warmup_drift_pct: f64,
}

pub fn summarize_laps(laps_ms: &[f64]) -> LapSummary {
    let mut sorted = laps_ms.to_vec();
    sort(&mut sorted);
    let tenth = (laps_ms.len() / 10).max(1).min(laps_ms.len());
    let drift = if laps_ms.is_empty() {
        0.0
    } else {
        let head = median(&laps_ms[..tenth]);
        let tail = median(&laps_ms[laps_ms.len() - tenth..]);
        (head / tail - 1.0) * 100.0
    };
    LapSummary {
        samples: sorted.len(),
        p50: percentile(&sorted, 0.5),
        p90: percentile(&sorted, 0.9),
        p99: (sorted.len() >= 1000).then(|| percentile(&sorted, 0.99)),
        warmup_drift_pct: drift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 2, 7, 4], n=4) == [2.5, 5.5, 9.25]
        let (q1, q3) = quartiles(&[10.0, 2.0, 7.0, 4.0]);
        assert!((q1 - 2.5).abs() < 1e-12 && (q3 - 9.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lap_summary_reports_p99_only_with_a_thousand_laps() {
        let few: Vec<f64> = (0..999).map(|i| 1.0 + f64::from(i % 7)).collect();
        assert!(summarize_laps(&few).p99.is_none());
        let many: Vec<f64> = (0..1000).map(|i| 1.0 + f64::from(i % 7)).collect();
        let s = summarize_laps(&many);
        assert_eq!(s.samples, 1000);
        assert!(s.p99.unwrap() >= s.p90 && s.p90 >= s.p50);
    }

    #[test]
    fn drift_compares_first_tenth_with_last_tenth() {
        let mut laps = vec![2.0; 10];
        laps.extend(vec![1.0; 90]);
        assert!((summarize_laps(&laps).warmup_drift_pct - 100.0).abs() < 1e-9);
        assert_eq!(summarize_laps(&[]).warmup_drift_pct, 0.0);
    }
}
