//! Order statistics over small samples.

/// Median (mean of the two middle values for an even count); 0 for an
/// empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` in `0..=100`: the smallest sample with at
/// least `p` % of the samples at or below it; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The quiet reading of repeated equal work: the first percentile of its
/// timings (the sample a hundredth of the way up the sorted list, so the
/// minimum for a hundred repeats or fewer); 0 for an empty sample.
///
/// On a shared host a neighbour only ever adds time to a reading, and it
/// does so for seconds to minutes at a stretch, so the slow readings of
/// equal work measure the neighbour and the fastest ones the program. A
/// percentile rather than the minimum, so that among a thousand readings
/// a lucky handful does not set the value.
pub fn quiet(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 100]
}

/// `(max − min) / median`; 0 for fewer than two samples.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values)
}

/// `numerator / denominator`, 0 when the denominator is 0 (a layer that
/// did no work on this workload).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 1 560 batches: the 99th percentile has 15 samples beyond it.
        let w: Vec<f64> = (1..=1560).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), 1545.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quiet_is_the_first_percentile() {
        assert_eq!(quiet(&[]), 0.0);
        assert_eq!(quiet(&[5.0, 3.0, 4.0]), 3.0);
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quiet(&twenty), 1.0);
        // 1 562 batches: 15 readings are faster than the quiet one.
        let batches: Vec<f64> = (1..=1562).map(f64::from).collect();
        assert_eq!(quiet(&batches), 16.0);
        // A neighbour that slows 49 readings in 50 leaves it alone.
        let mut noisy = vec![15.0; 980];
        noisy.extend([10.0; 20]);
        assert_eq!(quiet(&noisy), 10.0);
    }

    #[test]
    fn spread_and_ratio_edge_cases() {
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
