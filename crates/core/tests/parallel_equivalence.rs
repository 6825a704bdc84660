//! Cross-solver equivalence and determinism for the parallel engine.
//!
//! On random venues, brute vs baseline vs efficient vs parallel must agree
//! for all three objectives, and the parallel solvers must be **bit
//! identical** to the serial efficient solvers at every thread count —
//! the contract that makes threading a pure throughput knob.

use ifls_core::maxsum::{BruteForceMaxSum, EfficientMaxSum};
use ifls_core::mindist::{BruteForceMinDist, EfficientMinDist};
use ifls_core::{
    evaluate_objective, BatchRunner, BruteForce, EfficientIfls, IflsQuery, MaxSum, MinDist, MinMax,
    ModifiedMinMax, ParallelSolver,
};
use ifls_indoor::{IndoorPoint, PartitionId, Venue};
use ifls_rng::StdRng;
use ifls_venues::{GridVenueSpec, RandomVenueSpec};
use ifls_viptree::{VipTree, VipTreeConfig};
use ifls_workloads::WorkloadBuilder;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn random_venue(rng: &mut StdRng) -> Venue {
    RandomVenueSpec {
        cells_x: rng.random_range(2u32..5),
        cells_y: rng.random_range(2u32..4),
        levels: rng.random_range(1u32..3),
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

/// Asserts the parallel solvers reproduce the serial efficient answers bit
/// for bit at every thread count, for all three objectives.
fn assert_parallel_bit_identical(tree: &VipTree<'_>, case: &Case, label: &str) {
    let minmax = EfficientIfls::new(tree).run(&case.clients, &case.existing, &case.candidates);
    let mindist = EfficientMinDist::new(tree).run(&case.clients, &case.existing, &case.candidates);
    let maxsum = EfficientMaxSum::new(tree).run(&case.clients, &case.existing, &case.candidates);
    for threads in THREAD_COUNTS {
        let par = ParallelSolver::with_threads(tree, threads);
        let p = par.run::<MinMax>(&case.clients, &case.existing, &case.candidates);
        assert_eq!(p.answer, minmax.answer, "{label} minmax answer t={threads}");
        assert_eq!(
            p.objective.to_bits(),
            minmax.objective.to_bits(),
            "{label} minmax objective t={threads}: {} vs {}",
            p.objective,
            minmax.objective
        );
        let p = par.run::<MinDist>(&case.clients, &case.existing, &case.candidates);
        assert_eq!(
            p.answer, mindist.answer,
            "{label} mindist answer t={threads}"
        );
        assert_eq!(
            p.total.to_bits(),
            mindist.total.to_bits(),
            "{label} mindist total t={threads}: {} vs {}",
            p.total,
            mindist.total
        );
        let p = par.run::<MaxSum>(&case.clients, &case.existing, &case.candidates);
        assert_eq!(p.answer, maxsum.answer, "{label} maxsum answer t={threads}");
        assert_eq!(p.wins, maxsum.wins, "{label} maxsum wins t={threads}");
    }
}

#[test]
fn all_solvers_agree_on_random_venues() {
    let mut rng = StdRng::seed_from_u64(0x9a11_0001);
    for case_no in 0..10 {
        let case = random_case(&mut rng);
        let tree = VipTree::build(&case.venue, VipTreeConfig::default());
        let label = format!("case {case_no}");

        // MinMax: brute is the oracle; baseline and efficient agree with it.
        let brute = BruteForce::new(&tree).run(&case.clients, &case.existing, &case.candidates);
        let base = ModifiedMinMax::new(&tree).run(&case.clients, &case.existing, &case.candidates);
        let eff = EfficientIfls::new(&tree).run(&case.clients, &case.existing, &case.candidates);
        assert!(
            (brute.objective - base.objective).abs() < 1e-6,
            "{label}: baseline {} vs brute {}",
            base.objective,
            brute.objective
        );
        assert!(
            (brute.objective - eff.objective).abs() < 1e-6,
            "{label}: efficient {} vs brute {}",
            eff.objective,
            brute.objective
        );

        // MinDist + MaxSum against their oracles.
        let bd = BruteForceMinDist::new(&tree).run(&case.clients, &case.existing, &case.candidates);
        let ed = EfficientMinDist::new(&tree).run(&case.clients, &case.existing, &case.candidates);
        assert!(
            (bd.total - ed.total).abs() < 1e-6,
            "{label}: mindist {} vs brute {}",
            ed.total,
            bd.total
        );
        let bs = BruteForceMaxSum::new(&tree).run(&case.clients, &case.existing, &case.candidates);
        let es = EfficientMaxSum::new(&tree).run(&case.clients, &case.existing, &case.candidates);
        assert_eq!(bs.wins, es.wins, "{label}: maxsum wins");

        // Parallel reproduces serial bit for bit at every thread count.
        assert_parallel_bit_identical(&tree, &case, &label);
    }
}

#[test]
fn degenerate_inputs_match_serial_at_every_thread_count() {
    let venue = GridVenueSpec::new("deg", 2, 24).build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    let w = WorkloadBuilder::new(&venue)
        .clients_uniform(25)
        .existing_uniform(3)
        .candidates_uniform(6)
        .seed(77)
        .build();

    let degenerates = [
        // Empty Fe: every client depends on the new facility alone.
        Case {
            venue: venue.clone(),
            clients: w.clients.clone(),
            existing: Vec::new(),
            candidates: w.candidates.clone(),
        },
        // Empty C: nothing constrains the answer.
        Case {
            venue: venue.clone(),
            clients: Vec::new(),
            existing: w.existing.clone(),
            candidates: w.candidates.clone(),
        },
        // |Fn| = 1: a single candidate shard.
        Case {
            venue: venue.clone(),
            clients: w.clients.clone(),
            existing: w.existing.clone(),
            candidates: w.candidates[..1].to_vec(),
        },
        // Empty Fn: the status quo is the only option.
        Case {
            venue: venue.clone(),
            clients: w.clients.clone(),
            existing: w.existing.clone(),
            candidates: Vec::new(),
        },
        // Everything empty at once.
        Case {
            venue: venue.clone(),
            clients: Vec::new(),
            existing: Vec::new(),
            candidates: Vec::new(),
        },
    ];
    for (i, case) in degenerates.iter().enumerate() {
        assert_parallel_bit_identical(&tree, case, &format!("degenerate {i}"));
    }
}

#[test]
fn parallel_is_deterministic_across_threads_and_repeats() {
    // ISSUE requirement: 1, 2, 4, 8 threads, 10 repeated runs, identical
    // candidate id and objective bits every time.
    let mut rng = StdRng::seed_from_u64(0x9a11_0002);
    for case_no in 0..3 {
        let case = random_case(&mut rng);
        let tree = VipTree::build(&case.venue, VipTreeConfig::default());
        let reference =
            EfficientIfls::new(&tree).run(&case.clients, &case.existing, &case.candidates);
        for threads in THREAD_COUNTS {
            let par = ParallelSolver::with_threads(&tree, threads);
            for run in 0..10 {
                let got = par.run::<MinMax>(&case.clients, &case.existing, &case.candidates);
                assert_eq!(
                    got.answer, reference.answer,
                    "case {case_no} t={threads} run {run}: answer"
                );
                assert_eq!(
                    got.objective.to_bits(),
                    reference.objective.to_bits(),
                    "case {case_no} t={threads} run {run}: objective bits"
                );
            }
        }
    }
}

#[test]
fn batch_runner_matches_serial_per_query() {
    let mut rng = StdRng::seed_from_u64(0x9a11_0003);
    let venue = GridVenueSpec::new("batch", 2, 30).build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    let queries: Vec<IflsQuery> = (0..12)
        .map(|_| {
            let w = WorkloadBuilder::new(&venue)
                .clients_uniform(rng.random_range(3usize..25))
                .existing_uniform(rng.random_range(0usize..4))
                .candidates_uniform(rng.random_range(1usize..6))
                .seed(rng.next_u64())
                .build();
            IflsQuery {
                clients: w.clients,
                existing: w.existing,
                candidates: w.candidates,
            }
        })
        .collect();
    let serial: Vec<_> = queries
        .iter()
        .map(|q| EfficientIfls::new(&tree).run(&q.clients, &q.existing, &q.candidates))
        .collect();
    for threads in THREAD_COUNTS {
        let runner = BatchRunner::with_threads(&tree, threads);
        let got = runner.run::<MinMax>(&queries);
        assert_eq!(got.len(), serial.len());
        for (i, (g, s)) in got.iter().zip(&serial).enumerate() {
            assert_eq!(g.answer, s.answer, "query {i} t={threads}");
            assert_eq!(
                g.objective.to_bits(),
                s.objective.to_bits(),
                "query {i} t={threads}"
            );
        }
        let d = runner.run::<MinDist>(&queries);
        let s = runner.run::<MaxSum>(&queries);
        assert_eq!(d.len(), queries.len());
        assert_eq!(s.len(), queries.len());
    }
}

#[test]
fn client_sharded_evaluation_matches_serial_oracle() {
    let mut rng = StdRng::seed_from_u64(0x9a11_0004);
    let case = random_case(&mut rng);
    let tree = VipTree::build(&case.venue, VipTreeConfig::default());
    for threads in THREAD_COUNTS {
        let par = ParallelSolver::with_threads(&tree, threads);
        for candidate in case.candidates.iter().map(|&n| Some(n)).chain([None]) {
            let serial = evaluate_objective(&tree, &case.clients, &case.existing, candidate);
            let sharded = par.evaluate_minmax_objective(&case.clients, &case.existing, candidate);
            assert_eq!(
                sharded.to_bits(),
                serial.to_bits(),
                "candidate {candidate:?} t={threads}: {sharded} vs {serial}"
            );
        }
    }
}

#[test]
fn parallel_tie_break_prefers_lowest_partition_id() {
    // Duplicate the same candidate partition under several ids by listing
    // every partition as a candidate: ties are then guaranteed for venues
    // with symmetric geometry, and the winner must be the lowest id among
    // the bit-equal optima — regardless of candidate order or threading.
    let venue = GridVenueSpec::new("tie", 1, 16).build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    let mut candidates: Vec<PartitionId> = venue.partition_ids().collect();
    // Present candidates in reverse order so slice order and id order differ.
    candidates.reverse();
    let w = WorkloadBuilder::new(&venue)
        .clients_uniform(12)
        .existing_uniform(2)
        .candidates_uniform(1)
        .seed(3)
        .build();
    let serial = EfficientIfls::new(&tree).run(&w.clients, &w.existing, &candidates);
    let brute = BruteForce::new(&tree).run(&w.clients, &w.existing, &candidates);
    if let (Some(s), Some(b)) = (serial.answer, brute.answer) {
        // Both serial solvers resolve ties toward the lowest id, so any
        // disagreement must come from a genuine (non-tied) difference.
        if (serial.objective - brute.objective).abs() < 1e-12 {
            assert_eq!(s, b, "serial tie-break disagrees with oracle");
        }
    }
    for threads in THREAD_COUNTS {
        let p = ParallelSolver::with_threads(&tree, threads).run::<MinMax>(
            &w.clients,
            &w.existing,
            &candidates,
        );
        assert_eq!(p.answer, serial.answer, "t={threads}");
        assert_eq!(
            p.objective.to_bits(),
            serial.objective.to_bits(),
            "t={threads}"
        );
    }
}
