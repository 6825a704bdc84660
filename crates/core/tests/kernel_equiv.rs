//! Kernel-equivalence property suite: the structure-of-arrays fold
//! kernels in `ifls_viptree::kernels` must be **bitwise** equivalent to
//! their scalar references on every input shape, and swapping them into
//! the solvers must leave every objective's answers and
//! `dist_computations` untouched.
//!
//! The lane kernels are only legal because f64 `min`/`max` are
//! order-insensitive for non-NaN inputs; that argument says nothing about
//! rounding, so the checks here compare exact bits, not approximate
//! values.

use ifls_core::maxsum::{BruteForceMaxSum, EfficientMaxSum};
use ifls_core::mindist::{BruteForceMinDist, EfficientMinDist};
use ifls_core::{BruteForce, EfficientIfls};
use ifls_rng::StdRng;
use ifls_venues::GridVenueSpec;
use ifls_viptree::kernels;
use ifls_viptree::{VipTree, VipTreeConfig};
use ifls_workloads::WorkloadBuilder;

/// Distance-shaped data: non-negative, spanning many magnitudes, with a
/// sprinkle of exact zeros and infinities (unreachable partitions).
fn seeded_column(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.next_u64() % 16 {
            0 => 0.0,
            1 => f64::INFINITY,
            k => rng.next_f64() * 10f64.powi(k as i32 - 8),
        })
        .collect()
}

/// Every length around the kernels' lane width and chunk boundaries, plus
/// a few large ones: 8-lane kernels have remainders 0..=7, and the empty
/// column must hit the identity element.
fn lengths() -> Vec<usize> {
    let mut out: Vec<usize> = (0..=33).collect();
    out.extend([63, 64, 65, 127, 128, 129, 1000, 4096, 4099]);
    out
}

#[test]
fn min_fold_matches_scalar_bitwise() {
    for len in lengths() {
        for seed in 0..8u64 {
            let xs = seeded_column(0x5_ca1a_0000 + seed, len);
            assert_eq!(
                kernels::min_fold(&xs).to_bits(),
                kernels::min_fold_scalar(&xs).to_bits(),
                "len {len} seed {seed}"
            );
        }
    }
}

#[test]
fn max_fold_matches_scalar_bitwise() {
    for len in lengths() {
        for seed in 0..8u64 {
            let xs = seeded_column(0x5_ca1a_1000 + seed, len);
            assert_eq!(
                kernels::max_fold(&xs).to_bits(),
                kernels::max_fold_scalar(&xs).to_bits(),
                "len {len} seed {seed}"
            );
        }
    }
}

#[test]
fn min_max_fold_matches_scalar_bitwise() {
    for len in lengths() {
        for seed in 0..8u64 {
            let xs = seeded_column(0x5_ca1a_2000 + seed, len);
            let (lo, hi) = kernels::min_max_fold(&xs);
            let (slo, shi) = kernels::min_max_fold_scalar(&xs);
            assert_eq!(lo.to_bits(), slo.to_bits(), "min, len {len} seed {seed}");
            assert_eq!(hi.to_bits(), shi.to_bits(), "max, len {len} seed {seed}");
        }
    }
}

#[test]
fn min_add2_matches_scalar_bitwise() {
    for len in lengths() {
        for seed in 0..8u64 {
            let a = seeded_column(0x5_ca1a_3000 + seed, len);
            let b = seeded_column(0x5_ca1a_4000 + seed, len);
            assert_eq!(
                kernels::min_add2(&a, &b).to_bits(),
                kernels::min_add2_scalar(&a, &b).to_bits(),
                "len {len} seed {seed}"
            );
        }
    }
}

/// End-to-end: on seeded workloads over a real arena-backed index, each
/// efficient solver (whose prune and candidate-evaluation paths run the
/// lane kernels) must agree with its kernel-free brute-force oracle on
/// the chosen candidate for all three objectives, bit-for-bit on the
/// MinMax objective (a pure min/max reduction), and within the suite's
/// standard 1e-6 on the MinDist total (a sum the two algorithms
/// accumulate in different orders).
#[test]
fn all_three_objectives_agree_with_the_kernel_free_oracle() {
    let venue = GridVenueSpec::new("kernel-equiv", 2, 14).build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    for seed in 0..6u64 {
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(12 + (seed as usize % 7) * 5)
            .existing_uniform(3)
            .candidates_uniform(6)
            .seed(0x5_ca1a_5000 + seed)
            .build();

        let eff = EfficientIfls::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        let oracle = BruteForce::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        assert_eq!(eff.answer, oracle.answer, "minmax answer, seed {seed}");
        assert_eq!(
            eff.objective.to_bits(),
            oracle.objective.to_bits(),
            "minmax objective bits, seed {seed}"
        );

        // The MinDist total is a sum the two algorithms accumulate in
        // different orders, so it is compared with the same 1e-6 tolerance
        // as the rest of the suite; the kernels never touch the sum path.
        let eff = EfficientMinDist::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        let oracle = BruteForceMinDist::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        assert_eq!(eff.answer, oracle.answer, "mindist answer, seed {seed}");
        assert!(
            (eff.total - oracle.total).abs() < 1e-6,
            "mindist total, seed {seed}: {} vs {}",
            eff.total,
            oracle.total
        );

        let eff = EfficientMaxSum::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        let oracle = BruteForceMaxSum::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        assert_eq!(eff.answer, oracle.answer, "maxsum answer, seed {seed}");
        assert_eq!(eff.wins, oracle.wins, "maxsum wins, seed {seed}");
    }
}

/// `dist_computations` is part of the determinism contract: kernelized
/// evaluation must count exactly what the scalar path counted, so the
/// count must be reproducible run to run and identical across repeated
/// solves of the same workload.
#[test]
fn dist_computations_are_reproducible_under_the_kernels() {
    let venue = GridVenueSpec::new("kernel-equiv-dist", 1, 12).build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    let w = WorkloadBuilder::new(&venue)
        .clients_uniform(25)
        .existing_uniform(3)
        .candidates_uniform(8)
        .seed(0x5_ca1a_6000)
        .build();
    let first = EfficientIfls::new(&tree).run(&w.clients, &w.existing, &w.candidates);
    for _ in 0..3 {
        let again = EfficientIfls::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        assert_eq!(again.stats.dist_computations, first.stats.dist_computations);
        assert_eq!(again.answer, first.answer);
        assert_eq!(again.objective.to_bits(), first.objective.to_bits());
    }
}
