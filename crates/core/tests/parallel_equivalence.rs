//! Cross-solver equivalence and determinism for the batch engine.
//!
//! On random venues, brute vs baseline vs efficient must agree for all
//! three objectives, and `BatchRunner` must be **bit identical** to the
//! serial efficient solvers at every thread count — the contract that
//! makes threading a pure throughput knob. One query always runs on one
//! thread.

use ifls_core::maxsum::{BruteForceMaxSum, EfficientMaxSum};
use ifls_core::mindist::{BruteForceMinDist, EfficientMinDist};
use ifls_core::{
    BatchRunner, BruteForce, EfficientIfls, IflsQuery, MaxSum, MinDist, MinMax, ModifiedMinMax,
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

/// Asserts `BatchRunner` reproduces the serial efficient answer of every
/// case bit for bit at every thread count, for all three objectives. The
/// cases share `tree` and run as one batch, so at two threads and more
/// they go through the worker path.
fn assert_batch_bit_identical(tree: &VipTree<'_>, cases: &[Case]) {
    let queries: Vec<IflsQuery> = cases
        .iter()
        .map(|c| IflsQuery {
            clients: c.clients.clone(),
            existing: c.existing.clone(),
            candidates: c.candidates.clone(),
        })
        .collect();
    let serial: Vec<_> = queries
        .iter()
        .map(|q| {
            let (c, e, n) = (&q.clients, &q.existing, &q.candidates);
            (
                EfficientIfls::new(tree).run(c, e, n),
                EfficientMinDist::new(tree).run(c, e, n),
                EfficientMaxSum::new(tree).run(c, e, n),
            )
        })
        .collect();
    for threads in THREAD_COUNTS {
        let runner = BatchRunner::with_threads(tree, threads);
        let minmax = runner.run::<MinMax>(&queries);
        let mindist = runner.run::<MinDist>(&queries);
        let maxsum = runner.run::<MaxSum>(&queries);
        for (i, (want_minmax, want_mindist, want_maxsum)) in serial.iter().enumerate() {
            let label = format!("case {i} t={threads}");
            assert_eq!(
                minmax[i].answer, want_minmax.answer,
                "{label}: minmax answer"
            );
            assert_eq!(
                minmax[i].objective.to_bits(),
                want_minmax.objective.to_bits(),
                "{label}: minmax objective {} vs {}",
                minmax[i].objective,
                want_minmax.objective
            );
            assert_eq!(
                mindist[i].answer, want_mindist.answer,
                "{label}: mindist answer"
            );
            assert_eq!(
                mindist[i].total.to_bits(),
                want_mindist.total.to_bits(),
                "{label}: mindist total {} vs {}",
                mindist[i].total,
                want_mindist.total
            );
            assert_eq!(
                maxsum[i].answer, want_maxsum.answer,
                "{label}: maxsum answer"
            );
            assert_eq!(maxsum[i].wins, want_maxsum.wins, "{label}: maxsum wins");
        }
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
        // |Fn| = 1: a single candidate.
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
    assert_batch_bit_identical(&tree, &degenerates);
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
fn tie_break_prefers_lowest_partition_id() {
    // Duplicate the same candidate partition under several ids by listing
    // every partition as a candidate: ties are then guaranteed for venues
    // with symmetric geometry, and the winner must be the lowest id among
    // the bit-equal optima — regardless of candidate order.
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
}
