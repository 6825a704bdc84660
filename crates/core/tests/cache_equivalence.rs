//! The distance cache is invisible in answers.
//!
//! Property tests (seeded via `ifls-rng`) on random multi-level venues:
//! every distance the cache serves — door-distance vectors, partition
//! minima, point-to-partition distances — is bit-identical to the uncached
//! tree kernel, and all three objectives return bit-identical answers with
//! the cache on or off, serially, through a persistent serving-shaped
//! cache, and in the batch engine at 1/2/4/8 threads.

use ifls_core::maxsum::EfficientMaxSum;
use ifls_core::mindist::EfficientMinDist;
use ifls_core::{
    BatchRunner, Budget, EfficientConfig, EfficientIfls, IflsQuery, MinMax, QueryStats,
};
use ifls_indoor::{IndoorPoint, PartitionId, Venue};
use ifls_rng::StdRng;
use ifls_venues::RandomVenueSpec;
use ifls_viptree::{DistCache, VipTree, VipTreeConfig, DEFAULT_WARM_BUDGET_BYTES};
use ifls_workloads::WorkloadBuilder;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn random_venue(rng: &mut StdRng) -> Venue {
    RandomVenueSpec {
        cells_x: rng.random_range(2u32..5),
        cells_y: rng.random_range(2u32..4),
        levels: rng.random_range(1u32..4),
        extra_door_prob: rng.random_range(0.0..0.8),
        cell_size: 10.0,
    }
    .build(rng.next_u64())
}

struct Case {
    venue: Venue,
    clients: Vec<IndoorPoint>,
    existing: Vec<PartitionId>,
    candidates: Vec<PartitionId>,
}

fn random_case(rng: &mut StdRng) -> Case {
    let venue = random_venue(rng);
    let pool = ifls_workloads::eligible_facility_partitions(&venue).len();
    let fe = rng.random_range(0usize..4).min(pool / 3);
    let fn_ = rng.random_range(1usize..9).min((pool - fe).max(1)).max(1);
    let clients = rng.random_range(3usize..40);
    let w = WorkloadBuilder::new(&venue)
        .clients_uniform(clients)
        .existing_uniform(fe)
        .candidates_uniform(fn_)
        .seed(rng.next_u64())
        .build();
    Case {
        venue,
        clients: w.clients,
        existing: w.existing,
        candidates: w.candidates,
    }
}

fn config(dist_cache: bool) -> EfficientConfig {
    EfficientConfig {
        dist_cache,
        ..EfficientConfig::default()
    }
}

/// Every kernel the cache memoizes must return the exact bits the tree
/// would — on first fill (miss) and on re-serve (hit).
#[test]
fn cached_distances_are_bit_identical_to_tree_kernels() {
    let mut rng = StdRng::seed_from_u64(0xcac4_e001);
    for case_no in 0..8 {
        let case = random_case(&mut rng);
        let tree = VipTree::build(&case.venue, VipTreeConfig::default());
        let parts: Vec<PartitionId> = case.venue.partition_ids().collect();
        let pairs: Vec<(PartitionId, PartitionId)> = (0..40)
            .map(|_| {
                (
                    parts[rng.random_range(0..parts.len())],
                    parts[rng.random_range(0..parts.len())],
                )
            })
            .collect();

        let mut local = DistCache::new(1 << 12);
        // Two passes: the first fills (miss path), the second re-serves
        // (hit path). Both must match the uncached kernel bit for bit.
        for pass in 0..2 {
            for &(p, q) in &pairs {
                let want = tree.door_dists_to_partition(p, q);
                let got = local.door_dists(&tree, p, q);
                assert_eq!(
                    got.len(),
                    want.len(),
                    "case {case_no} pass {pass} local: vector length ({p}, {q})"
                );
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "case {case_no} pass {pass} local: door dist bits ({p}, {q})"
                    );
                }
                let got_min = local.min_dist_partition_to_partition(&tree, p, q);
                assert_eq!(
                    got_min.to_bits(),
                    tree.min_dist_partition_to_partition(p, q).to_bits(),
                    "case {case_no} pass {pass} local: min dist bits ({p}, {q})"
                );
            }
            for c in &case.clients {
                for &f in case.candidates.iter().chain(&case.existing) {
                    let want = tree.dist_point_to_partition(c, f);
                    let got = local.dist_point_to_partition(&tree, c, f);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "case {case_no} pass {pass}: point dist bits to {f}"
                    );
                }
            }
        }
    }
}

/// All three objectives answer bit-identically with the cache on or off,
/// both with fresh per-query caches and with one cache persisted across a
/// churning-client query stream (the serving shape `bench_core` measures).
#[test]
fn objectives_are_bit_identical_cache_on_and_off() {
    let mut rng = StdRng::seed_from_u64(0xcac4_e002);
    for case_no in 0..6 {
        let venue = random_venue(&mut rng);
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let pool = ifls_workloads::eligible_facility_partitions(&venue).len();
        let base = WorkloadBuilder::new(&venue)
            .clients_uniform(10)
            .existing_uniform(2.min(pool / 3))
            .candidates_uniform(4.min(pool.saturating_sub(2).max(1)))
            .seed(rng.next_u64())
            .build();

        // One persistent cache per objective, reused across the stream:
        // cross-query contamination must be impossible by construction.
        let mut minmax_cache = DistCache::new(1 << 12);
        let mut mindist_cache = DistCache::new(1 << 12);
        let mut maxsum_cache = DistCache::new(1 << 12);
        for query_no in 0..5 {
            // Facilities are overwritten below; request none so tiny random
            // venues can't trip the builder's pool-size precondition.
            let mut w = WorkloadBuilder::new(&venue)
                .clients_uniform(rng.random_range(3usize..25))
                .existing_uniform(0)
                .candidates_uniform(1)
                .seed(rng.next_u64())
                .build();
            w.existing = base.existing.clone();
            w.candidates = base.candidates.clone();
            let label = format!("case {case_no} query {query_no}");

            let off = EfficientIfls::with_config(&tree, config(false)).run(
                &w.clients,
                &w.existing,
                &w.candidates,
            );
            let fresh = EfficientIfls::with_config(&tree, config(true)).run(
                &w.clients,
                &w.existing,
                &w.candidates,
            );
            let warm = EfficientIfls::new(&tree).run_with_cache(
                &w.clients,
                &w.existing,
                &w.candidates,
                &mut minmax_cache,
                &Budget::unlimited(),
            );
            for (mode, got) in [("fresh", &fresh), ("warm", &warm)] {
                assert_eq!(got.answer, off.answer, "{label} minmax {mode}: answer");
                assert_eq!(
                    got.objective.to_bits(),
                    off.objective.to_bits(),
                    "{label} minmax {mode}: objective bits"
                );
            }

            let off = EfficientMinDist::with_config(&tree, config(false)).run(
                &w.clients,
                &w.existing,
                &w.candidates,
            );
            let fresh = EfficientMinDist::with_config(&tree, config(true)).run(
                &w.clients,
                &w.existing,
                &w.candidates,
            );
            let warm = EfficientMinDist::new(&tree).run_with_cache(
                &w.clients,
                &w.existing,
                &w.candidates,
                &mut mindist_cache,
                &Budget::unlimited(),
            );
            for (mode, got) in [("fresh", &fresh), ("warm", &warm)] {
                assert_eq!(got.answer, off.answer, "{label} mindist {mode}: answer");
                assert_eq!(
                    got.total.to_bits(),
                    off.total.to_bits(),
                    "{label} mindist {mode}: total bits"
                );
            }

            let off = EfficientMaxSum::with_config(&tree, config(false)).run(
                &w.clients,
                &w.existing,
                &w.candidates,
            );
            let fresh = EfficientMaxSum::with_config(&tree, config(true)).run(
                &w.clients,
                &w.existing,
                &w.candidates,
            );
            let warm = EfficientMaxSum::new(&tree).run_with_cache(
                &w.clients,
                &w.existing,
                &w.candidates,
                &mut maxsum_cache,
                &Budget::unlimited(),
            );
            for (mode, got) in [("fresh", &fresh), ("warm", &warm)] {
                assert_eq!(got.answer, off.answer, "{label} maxsum {mode}: answer");
                assert_eq!(got.wins, off.wins, "{label} maxsum {mode}: wins");
            }
        }
    }
}

/// Builds a second tree over the same venue with the snapshot-shipped warm
/// tier attached (what `index build --cache-warm` produces).
fn with_warm_tier(venue: &Venue) -> VipTree<'_> {
    let mut tree = VipTree::build(venue, VipTreeConfig::default());
    let tier = tree.build_warm_tier(DEFAULT_WARM_BUDGET_BYTES, 2);
    tree.set_warm_tier(Some(tier));
    tree
}

/// Cold and warm trees return bit-identical answers AND an identical
/// `dist_computations` count. `dist_computations` tallies logical kernel
/// evaluations at the call site, *before* the cache is consulted, so no
/// cache state may change it. On the warm tree every lookup is answered by
/// the warm tier alone: no miss, and no local-table bytes.
#[test]
fn admission_and_warm_modes_are_bit_identical_with_identical_work() {
    let mut rng = StdRng::seed_from_u64(0xcac4_e005);
    for case_no in 0..3 {
        let case = random_case(&mut rng);
        let cold = VipTree::build(&case.venue, VipTreeConfig::default());
        let warm = with_warm_tier(&case.venue);

        // Reference: cache fully off, serial, cold tree.
        let reference = EfficientIfls::with_config(&cold, config(false)).run(
            &case.clients,
            &case.existing,
            &case.candidates,
        );
        let ref_mindist = EfficientMinDist::with_config(&cold, config(false)).run(
            &case.clients,
            &case.existing,
            &case.candidates,
        );
        let ref_maxsum = EfficientMaxSum::with_config(&cold, config(false)).run(
            &case.clients,
            &case.existing,
            &case.candidates,
        );

        for (tree_label, tree) in [("cold", &cold), ("warm", &warm)] {
            let cfg = EfficientConfig::default();
            let label = format!("case {case_no} {tree_label}");
            // On the warm tree no query precomputes or computes a distance
            // vector, so none fills a local table.
            let warm_only = |stats: &QueryStats, objective: &str| {
                if tree_label == "warm" {
                    assert_eq!(stats.cache_misses, 0, "{label}: {objective} cache_misses");
                    assert_eq!(stats.cache_bytes, 0, "{label}: {objective} cache_bytes");
                }
            };

            let got = EfficientIfls::with_config(tree, cfg).run(
                &case.clients,
                &case.existing,
                &case.candidates,
            );
            assert_eq!(got.answer, reference.answer, "{label}: minmax answer");
            assert_eq!(
                got.objective.to_bits(),
                reference.objective.to_bits(),
                "{label}: minmax objective bits"
            );
            assert_eq!(
                got.stats.dist_computations, reference.stats.dist_computations,
                "{label}: minmax dist_computations"
            );
            warm_only(&got.stats, "minmax");

            let got = EfficientMinDist::with_config(tree, cfg).run(
                &case.clients,
                &case.existing,
                &case.candidates,
            );
            assert_eq!(got.answer, ref_mindist.answer, "{label}: mindist answer");
            assert_eq!(
                got.total.to_bits(),
                ref_mindist.total.to_bits(),
                "{label}: mindist total bits"
            );
            assert_eq!(
                got.stats.dist_computations, ref_mindist.stats.dist_computations,
                "{label}: mindist dist_computations"
            );
            warm_only(&got.stats, "mindist");

            let got = EfficientMaxSum::with_config(tree, cfg).run(
                &case.clients,
                &case.existing,
                &case.candidates,
            );
            assert_eq!(got.answer, ref_maxsum.answer, "{label}: maxsum answer");
            assert_eq!(got.wins, ref_maxsum.wins, "{label}: maxsum wins");
            assert_eq!(
                got.stats.dist_computations, ref_maxsum.stats.dist_computations,
                "{label}: maxsum dist_computations"
            );
            warm_only(&got.stats, "maxsum");
        }
    }
}

/// The warm tier serves the exact bits the live kernel computes: every
/// covered (source, target) pair gathered through the cache matches the
/// uncached tree kernel bit for bit, and a warm-tree cache never reports
/// a different answer than a cold one on the same lookup sequence.
#[test]
fn warm_tier_lookups_are_bit_identical_to_tree_kernels() {
    let mut rng = StdRng::seed_from_u64(0xcac4_e006);
    for case_no in 0..4 {
        let case = random_case(&mut rng);
        let warm = with_warm_tier(&case.venue);
        let tier = warm.warm_tier().expect("warm tier attached");
        assert!(tier.num_targets() > 0, "case {case_no}: empty warm tier");
        let parts: Vec<PartitionId> = case.venue.partition_ids().collect();
        let mut cache = DistCache::new(1 << 12);
        for &p in &parts {
            for &q in tier.targets() {
                let want = warm.door_dists_to_partition(p, q);
                let got = cache.door_dists(&warm, p, q);
                assert_eq!(got.len(), want.len(), "case {case_no} ({p}, {q}): len");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "case {case_no} ({p}, {q}): warm bits"
                    );
                }
            }
        }
        // Warm hits are real hits: the local tier never re-stores them.
        let stats = cache.stats();
        assert!(stats.hits > 0, "case {case_no}: no warm hits recorded");
    }
}

/// Batch workers keep their caches across the queries they happen to claim;
/// scheduling must not leak into answers at any thread count.
#[test]
fn batch_runner_bit_identical_across_threads_and_cache_modes() {
    let mut rng = StdRng::seed_from_u64(0xcac4_e004);
    let case = random_case(&mut rng);
    let tree = VipTree::build(&case.venue, VipTreeConfig::default());
    let queries: Vec<IflsQuery> = (0..10)
        .map(|_| {
            let mut w = WorkloadBuilder::new(&case.venue)
                .clients_uniform(rng.random_range(3usize..20))
                .existing_uniform(0)
                .candidates_uniform(1)
                .seed(rng.next_u64())
                .build();
            w.existing = case.existing.clone();
            w.candidates = case.candidates.clone();
            IflsQuery {
                clients: w.clients,
                existing: w.existing,
                candidates: w.candidates,
            }
        })
        .collect();
    let serial: Vec<_> = queries
        .iter()
        .map(|q| {
            EfficientIfls::with_config(&tree, config(false)).run(
                &q.clients,
                &q.existing,
                &q.candidates,
            )
        })
        .collect();
    for threads in THREAD_COUNTS {
        for dist_cache in [true, false] {
            let runner = BatchRunner::with_threads(&tree, threads).config(config(dist_cache));
            let got = runner.run::<MinMax>(&queries);
            assert_eq!(got.len(), serial.len());
            for (i, (g, s)) in got.iter().zip(&serial).enumerate() {
                assert_eq!(
                    g.answer, s.answer,
                    "query {i} t={threads} cache={dist_cache}: answer"
                );
                assert_eq!(
                    g.objective.to_bits(),
                    s.objective.to_bits(),
                    "query {i} t={threads} cache={dist_cache}: objective bits"
                );
            }
        }
    }
}
