//! Branch-light structure-of-arrays fold kernels over distance columns.
//!
//! The prune and candidate-evaluation paths of the efficient solvers
//! reduce contiguous `f64` columns — arena rows, door-distance vectors,
//! client leg tables — with `min`, `min(a+b)` and `max`. Written as
//! one-at-a-time iterator folds those reductions carry a loop-carried
//! dependency per element, which keeps the optimizer from vectorizing
//! them. The kernels here break that dependency with a fixed number of
//! independent lane accumulators ([`LANES`]) over `chunks_exact` blocks
//! (no per-element bounds checks), then reduce the lanes and the
//! remainder in a pinned order.
//!
//! # Bit-identity
//!
//! Every kernel is bit-identical to its scalar left fold for the values
//! the tree produces (finite or `+inf`, never NaN): `f64::min` / `f64::max`
//! over non-NaN inputs always returns one of its operands, so the
//! reduction is associative and commutative and the lane schedule cannot
//! change the result by a bit. (IEEE-754 *addition* is not reassociative,
//! which is why there is no sum kernel in any answer path — see
//! DESIGN.md §14.) The scalar references live next to each kernel and the
//! equivalence is pinned by this module's tests plus the seeded-arena
//! property suite in `ifls-core`.
//!
//! NaN inputs are outside the contract: with NaN present the kernels may
//! differ from the scalar fold (both are then meaningless as distances).

/// Number of independent lane accumulators. Eight `f64` lanes fill one
/// AVX-512 register or two AVX2 registers — enough independent chains for
/// the hardware the benches run on, small enough that the lane-reduction
/// epilogue stays negligible for short columns.
pub const LANES: usize = 8;

/// Minimum of a column: the SoA kernel behind `iMinD` folds over
/// door-distance vectors. Empty input ⇒ `+inf` (the fold identity).
#[inline]
pub fn min_fold(xs: &[f64]) -> f64 {
    let mut lanes = [f64::INFINITY; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for i in 0..LANES {
            lanes[i] = lanes[i].min(chunk[i]);
        }
    }
    let mut best = lanes.iter().copied().fold(f64::INFINITY, f64::min);
    for &x in chunks.remainder() {
        best = best.min(x);
    }
    best
}

/// Scalar left-fold reference for [`min_fold`].
#[inline]
pub fn min_fold_scalar(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Minimum of the elementwise sum of two equal-length columns:
/// `min_i a[i] + b[i]`. This is the client-grouping combine (legs +
/// shared door vector) of §5 — the hottest fold in every objective.
///
/// The per-element *additions* are independent (each `a[i] + b[i]` is
/// computed exactly, in its own lane); only the subsequent `min` is
/// reassociated, which is bit-safe per the module contract.
#[inline]
pub fn min_add2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut lanes = [f64::INFINITY; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for i in 0..LANES {
            lanes[i] = lanes[i].min(xa[i] + xb[i]);
        }
    }
    let mut best = lanes.iter().copied().fold(f64::INFINITY, f64::min);
    for (&xa, &xb) in ca.remainder().iter().zip(cb.remainder()) {
        best = best.min(xa + xb);
    }
    best
}

/// Scalar left-fold reference for [`min_add2`].
#[inline]
pub fn min_add2_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&l, &d)| l + d)
        .fold(f64::INFINITY, f64::min)
}

/// Maximum of a column: the MinMax objective's fold over per-client
/// nearest-facility distances. Empty input ⇒ `0.0`, matching the solver
/// convention that an empty client set has objective 0 (distances are
/// non-negative, so `0.0` is the identity the callers fold from).
#[inline]
pub fn max_fold(xs: &[f64]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for i in 0..LANES {
            lanes[i] = lanes[i].max(chunk[i]);
        }
    }
    let mut best = lanes.iter().copied().fold(0.0, f64::max);
    for &x in chunks.remainder() {
        best = best.max(x);
    }
    best
}

/// Scalar left-fold reference for [`max_fold`].
#[inline]
pub fn max_fold_scalar(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Minimum and maximum of a column in one pass (min seeded at `+inf`,
/// max at `0.0`, per the two folds above). Used where both extremes of a
/// distance column are needed without walking it twice.
#[inline]
pub fn min_max_fold(xs: &[f64]) -> (f64, f64) {
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for i in 0..LANES {
            lo[i] = lo[i].min(chunk[i]);
            hi[i] = hi[i].max(chunk[i]);
        }
    }
    let mut min = lo.iter().copied().fold(f64::INFINITY, f64::min);
    let mut max = hi.iter().copied().fold(0.0, f64::max);
    for &x in chunks.remainder() {
        min = min.min(x);
        max = max.max(x);
    }
    (min, max)
}

/// Scalar reference for [`min_max_fold`].
#[inline]
pub fn min_max_fold_scalar(xs: &[f64]) -> (f64, f64) {
    (min_fold_scalar(xs), max_fold_scalar(xs))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xoshiro-free deterministic value stream (splitmix64 over an index).
    fn val(seed: u64, i: u64) -> f64 {
        let mut z = seed
            .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // Non-negative, occasionally +inf — the tree's value domain.
        if z.is_multiple_of(97) {
            f64::INFINITY
        } else {
            (z % 1_000_000) as f64 / 128.0
        }
    }

    fn column(seed: u64, len: usize) -> Vec<f64> {
        (0..len as u64).map(|i| val(seed, i)).collect()
    }

    #[test]
    fn kernels_match_scalar_reference_at_every_length() {
        // Lengths straddling every chunk boundary up to several blocks.
        for len in 0..70 {
            for seed in [1u64, 7, 42, 0xdead_beef] {
                let a = column(seed, len);
                let b = column(seed ^ 0x5555, len);
                assert_eq!(min_fold(&a).to_bits(), min_fold_scalar(&a).to_bits());
                assert_eq!(max_fold(&a).to_bits(), max_fold_scalar(&a).to_bits());
                assert_eq!(
                    min_add2(&a, &b).to_bits(),
                    min_add2_scalar(&a, &b).to_bits()
                );
                let (lo, hi) = min_max_fold(&a);
                let (slo, shi) = min_max_fold_scalar(&a);
                assert_eq!(lo.to_bits(), slo.to_bits());
                assert_eq!(hi.to_bits(), shi.to_bits());
            }
        }
    }

    #[test]
    fn empty_columns_return_fold_identities() {
        assert_eq!(min_fold(&[]), f64::INFINITY);
        assert_eq!(max_fold(&[]), 0.0);
        assert_eq!(min_add2(&[], &[]), f64::INFINITY);
        assert_eq!(min_max_fold(&[]), (f64::INFINITY, 0.0));
    }

    #[test]
    fn all_infinite_column_stays_infinite() {
        let a = vec![f64::INFINITY; 19];
        assert_eq!(min_fold(&a), f64::INFINITY);
        assert_eq!(min_add2(&a, &a), f64::INFINITY);
        assert_eq!(max_fold(&a), f64::INFINITY);
    }
}
