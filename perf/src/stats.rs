//! Order statistics used by every workload: nearest-rank percentiles
//! and the "at least ten samples beyond it" rule.

/// Samples that must lie strictly beyond a reported percentile for it
/// to be supported by the data.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest-rank index of percentile `p` (0 < p <= 100) among
/// `n` samples: the smallest rank whose share of the sample is >= p.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples ranked strictly above percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= MIN_BEYOND
}

/// Sort a sample ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timing is not NaN"));
    values
}

/// Median by nearest rank; 0 for an empty sample so an unexercised
/// layer reads as "no work" rather than aborting the report.
pub fn p50(values: &[f64]) -> f64 {
    pct_or_zero(values, 50.0)
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
pub fn pct_or_zero(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(&sorted(values.to_vec()), p)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn share(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Tracing overhead: how much higher the traced median latency reads
/// than the untraced reference median, as a share of the reference.
pub fn overhead_share(traced: &[f64], reference: &[f64]) -> f64 {
    let base = p50(reference);
    share(p50(traced) - base, base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // The classic five-value example: 15 20 35 40 50.
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
    }

    #[test]
    fn median_of_an_even_sample_is_the_lower_middle() {
        assert_eq!(p50(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(p50(&[]), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 needs 200 samples: rank 190 leaves exactly 10 above it.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(supports(200, 95.0));
        assert!(!supports(199, 95.0));
        // 240 asks leave 12 beyond p95; p99 would need 1000.
        assert_eq!(samples_beyond(240, 95.0), 12);
        assert!(!supports(240, 99.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_median() {
        assert_eq!(overhead_share(&[11.0, 11.0, 12.0], &[10.0, 10.0, 9.0]), 0.1);
        assert_eq!(overhead_share(&[1.0], &[]), 0.0);
    }

    #[test]
    fn share_of_nothing_is_zero() {
        assert_eq!(share(3.0, 0.0), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
    }
}
