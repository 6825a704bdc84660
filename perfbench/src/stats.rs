//! Order statistics used by every workload.
//!
//! Percentiles are *nearest-rank*: the `p`-th percentile of `n` sorted
//! samples is the sample at rank `ceil(p / 100 · n)` (1-based). Nothing
//! is interpolated, so a reported percentile is always a latency some
//! request actually saw.

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `values`.
/// Returns `None` for an empty input.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile's
/// rank — the guide for whether a tail percentile is worth reporting
/// (this benchmark asks for at least [`MIN_BEYOND_TAIL`]).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The tail percentile needs this many samples beyond its rank before a
/// run may stop.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The smallest sample count whose p99 has [`MIN_BEYOND_TAIL`] samples
/// beyond it.
pub fn min_samples_for_p99() -> usize {
    (1..)
        .find(|&n| samples_beyond(n, 99.0) >= MIN_BEYOND_TAIL)
        .expect("some finite sample count satisfies the tail rule")
}

/// The nearest-rank median of `values` (`0.0` for an empty input).
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(values, 50.0).unwrap_or(0.0)
}

/// `num / den`, or `0.0` when `den` is zero (a layer the workload never
/// ran reports zero rather than a non-number).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
