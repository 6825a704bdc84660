//! A budget that never fires must be invisible.
//!
//! Threading a [`Budget`] through a solver may not change the answer, the
//! objective bits, or any deterministic stats counter — whether the budget
//! is literally unlimited (the fast path) or armed with limits the query
//! never reaches (the slow path). This is the contract that lets the CLI
//! pass a budget unconditionally.

use std::time::Duration;

use ifls_core::maxsum::{BruteForceMaxSum, EfficientMaxSum};
use ifls_core::mindist::{BruteForceMinDist, EfficientMinDist};
use ifls_core::{
    BatchRunner, BruteForce, Budget, EfficientIfls, IflsQuery, MaxSum, MinDist, MinMax,
    ModifiedMinMax, QueryStats,
};
use ifls_indoor::{IndoorPoint, PartitionId, Venue};
use ifls_venues::GridVenueSpec;
use ifls_viptree::{VipTree, VipTreeConfig};
use ifls_workloads::WorkloadBuilder;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The deterministic stats counters (everything except wall-clock time).
fn counters(s: &QueryStats) -> [u64; 6] {
    [
        s.dist_computations,
        s.point_via_lookups,
        s.facilities_retrieved,
        s.clients_pruned,
        s.cache_hits,
        s.cache_misses,
    ]
}

struct Case {
    venue: Venue,
    clients: Vec<IndoorPoint>,
    existing: Vec<PartitionId>,
    candidates: Vec<PartitionId>,
}

fn fixture() -> Case {
    let venue = GridVenueSpec::new("budget-eq", 2, 14).build();
    let w = WorkloadBuilder::new(&venue)
        .clients_uniform(30)
        .existing_uniform(3)
        .candidates_uniform(6)
        .seed(0xb0d6)
        .build();
    Case {
        venue,
        clients: w.clients,
        existing: w.existing,
        candidates: w.candidates,
    }
}

/// Budgets that can never fire on a query this small: armed, but inert.
fn inert_budgets() -> Vec<Budget> {
    vec![
        Budget::unlimited(),
        Budget::unlimited().with_dist_cap(u64::MAX),
        Budget::unlimited().with_deadline(Duration::from_secs(3600)),
        Budget::unlimited()
            .with_dist_cap(u64::MAX)
            .with_deadline(Duration::from_secs(3600)),
    ]
}

#[test]
fn serial_solvers_ignore_non_firing_budgets() {
    let case = fixture();
    let tree = VipTree::build(&case.venue, VipTreeConfig::default());
    let (c, e, n) = (&case.clients, &case.existing, &case.candidates);

    let minmax = EfficientIfls::new(&tree).run(c, e, n);
    let base = ModifiedMinMax::new(&tree).run(c, e, n);
    let brute = BruteForce::new(&tree).run(c, e, n);
    let mindist = EfficientMinDist::new(&tree).run(c, e, n);
    let bd = BruteForceMinDist::new(&tree).run(c, e, n);
    let maxsum = EfficientMaxSum::new(&tree).run(c, e, n);
    let bs = BruteForceMaxSum::new(&tree).run(c, e, n);

    for (i, budget) in inert_budgets().iter().enumerate() {
        let g = EfficientIfls::new(&tree).run_budgeted(c, e, n, budget);
        assert!(g.resolution.is_exact(), "budget {i}: efficient degraded");
        assert_eq!(g.answer, minmax.answer, "budget {i}");
        assert_eq!(g.objective.to_bits(), minmax.objective.to_bits());
        assert_eq!(counters(&g.stats), counters(&minmax.stats), "budget {i}");

        let g = ModifiedMinMax::new(&tree).run_budgeted(c, e, n, budget);
        assert!(g.resolution.is_exact(), "budget {i}: baseline degraded");
        assert_eq!(g.answer, base.answer);
        assert_eq!(g.objective.to_bits(), base.objective.to_bits());
        assert_eq!(counters(&g.stats), counters(&base.stats), "budget {i}");

        let g = BruteForce::new(&tree).run_budgeted(c, e, n, budget);
        assert!(g.resolution.is_exact(), "budget {i}: brute degraded");
        assert_eq!(g.answer, brute.answer);
        assert_eq!(g.objective.to_bits(), brute.objective.to_bits());
        assert_eq!(counters(&g.stats), counters(&brute.stats), "budget {i}");

        let g = EfficientMinDist::new(&tree).run_budgeted(c, e, n, budget);
        assert!(g.resolution.is_exact(), "budget {i}: mindist degraded");
        assert_eq!(g.answer, mindist.answer);
        assert_eq!(g.total.to_bits(), mindist.total.to_bits());
        assert_eq!(counters(&g.stats), counters(&mindist.stats), "budget {i}");

        let g = BruteForceMinDist::new(&tree).run_budgeted(c, e, n, budget);
        assert_eq!(g.answer, bd.answer);
        assert_eq!(g.total.to_bits(), bd.total.to_bits());

        let g = EfficientMaxSum::new(&tree).run_budgeted(c, e, n, budget);
        assert!(g.resolution.is_exact(), "budget {i}: maxsum degraded");
        assert_eq!(g.answer, maxsum.answer);
        assert_eq!(g.wins, maxsum.wins);
        assert_eq!(counters(&g.stats), counters(&maxsum.stats), "budget {i}");

        let g = BruteForceMaxSum::new(&tree).run_budgeted(c, e, n, budget);
        assert_eq!(g.answer, bs.answer);
        assert_eq!(g.wins, bs.wins);
    }
}

#[test]
fn batch_runner_budgeted_matches_serial_per_query() {
    let case = fixture();
    let tree = VipTree::build(&case.venue, VipTreeConfig::default());
    let queries: Vec<IflsQuery> = (0..6)
        .map(|i| {
            let w = WorkloadBuilder::new(&case.venue)
                .clients_uniform(8 + i)
                .existing_uniform(2)
                .candidates_uniform(3)
                .seed(900 + i as u64)
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
    let budget = Budget::unlimited().with_deadline(Duration::from_secs(3600));
    for threads in THREAD_COUNTS {
        let runner = BatchRunner::with_threads(&tree, threads);
        let got = runner.try_run::<MinMax>(&queries, &budget).unwrap();
        assert_eq!(got.len(), serial.len());
        for (i, (g, s)) in got.iter().zip(&serial).enumerate() {
            assert!(g.resolution.is_exact(), "query {i} t={threads}");
            assert_eq!(g.answer, s.answer, "query {i} t={threads}");
            assert_eq!(g.objective.to_bits(), s.objective.to_bits());
        }
        assert_eq!(
            runner.try_run::<MinDist>(&queries, &budget).unwrap().len(),
            6
        );
        assert_eq!(
            runner.try_run::<MaxSum>(&queries, &budget).unwrap().len(),
            6
        );
    }
}
