//! Observability is invisible in answers.
//!
//! Property tests (seeded via `ifls-rng`) on random multi-level venues:
//! every solver returns bit-identical answers with tracing enabled or
//! disabled, serially and through the batch engine at 1/2/4/8 threads —
//! record calls only *read* solver state, so flipping the global flag can
//! never perturb a result. The deterministic parts of the collected
//! metrics (span counts, work counters) are also identical across repeated
//! runs, and across thread counts in a batch: per-worker sinks merge by
//! element-wise addition, so scheduling cannot change totals.

use std::sync::Mutex;

use ifls_core::maxsum::EfficientMaxSum;
use ifls_core::mindist::EfficientMinDist;
use ifls_core::{BatchRunner, EfficientIfls, IflsQuery, MinMax};
use ifls_indoor::{IndoorPoint, PartitionId, Venue};
use ifls_obs::{Counter, Phase};
use ifls_rng::StdRng;
use ifls_venues::RandomVenueSpec;
use ifls_viptree::{VipTree, VipTreeConfig};
use ifls_workloads::WorkloadBuilder;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The enabled flag is process-global, so tests that flip it must not
/// interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

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

/// All three objectives answer bit-identically with tracing on and off.
#[test]
fn answers_bit_identical_obs_on_and_off() {
    let _guard = OBS_LOCK.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(0x0b5e_0001);
    for case_no in 0..4 {
        let case = random_case(&mut rng);
        let tree = VipTree::build(&case.venue, VipTreeConfig::default());

        ifls_obs::set_enabled(false);
        let off_minmax =
            EfficientIfls::new(&tree).run(&case.clients, &case.existing, &case.candidates);
        let off_mindist =
            EfficientMinDist::new(&tree).run(&case.clients, &case.existing, &case.candidates);
        let off_maxsum =
            EfficientMaxSum::new(&tree).run(&case.clients, &case.existing, &case.candidates);

        ifls_obs::set_enabled(true);
        let _ = ifls_obs::take_local();
        let on_minmax =
            EfficientIfls::new(&tree).run(&case.clients, &case.existing, &case.candidates);
        let on_mindist =
            EfficientMinDist::new(&tree).run(&case.clients, &case.existing, &case.candidates);
        let on_maxsum =
            EfficientMaxSum::new(&tree).run(&case.clients, &case.existing, &case.candidates);
        assert_eq!(
            on_minmax.answer, off_minmax.answer,
            "case {case_no}: minmax answer"
        );
        assert_eq!(
            on_minmax.objective.to_bits(),
            off_minmax.objective.to_bits(),
            "case {case_no}: minmax objective bits"
        );
        assert_eq!(
            on_mindist.answer, off_mindist.answer,
            "case {case_no}: mindist answer"
        );
        assert_eq!(
            on_mindist.total.to_bits(),
            off_mindist.total.to_bits(),
            "case {case_no}: mindist total bits"
        );
        assert_eq!(
            on_maxsum.answer, off_maxsum.answer,
            "case {case_no}: maxsum answer"
        );
        assert_eq!(
            on_maxsum.wins, off_maxsum.wins,
            "case {case_no}: maxsum wins"
        );

        let _ = ifls_obs::take_local();
        ifls_obs::set_enabled(false);
    }
}

/// A traced batch returns the same answers as an untraced one at every
/// thread count, and the sink the traced run leaves behind actually saw
/// the work (queries counted, spans recorded).
#[test]
fn batch_runner_bit_identical_and_sink_merged() {
    let _guard = OBS_LOCK.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(0x0b5e_0002);
    let case = random_case(&mut rng);
    let tree = VipTree::build(&case.venue, VipTreeConfig::default());
    let queries: Vec<IflsQuery> = (0..12)
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

    ifls_obs::set_enabled(false);
    let reference = BatchRunner::with_threads(&tree, 1).run::<MinMax>(&queries);

    ifls_obs::set_enabled(true);
    let mut single_thread_sink = None;
    for threads in THREAD_COUNTS {
        let _ = ifls_obs::take_local();
        let got = BatchRunner::with_threads(&tree, threads).run::<MinMax>(&queries);
        let sink = ifls_obs::take_local();
        assert_eq!(got.len(), reference.len());
        for (i, (g, s)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(g.answer, s.answer, "query {i} t={threads}: answer");
            assert_eq!(
                g.objective.to_bits(),
                s.objective.to_bits(),
                "query {i} t={threads}: objective bits"
            );
        }
        // Worker sinks were merged back at the join: every query ticked the
        // counter no matter which worker claimed it, and all countable work
        // matches the single-threaded totals exactly.
        assert_eq!(
            sink.counter(Counter::Queries),
            queries.len() as u64,
            "t={threads}"
        );
        match &single_thread_sink {
            None => single_thread_sink = Some(sink),
            Some(base) => {
                // Cache traffic legitimately depends on how queries are
                // spread over per-worker persistent caches, so only the
                // cache-independent phases and counters must agree.
                for phase in Phase::ALL {
                    if phase == Phase::CacheLookup {
                        continue;
                    }
                    assert_eq!(
                        sink.span(phase).count,
                        base.span(phase).count,
                        "t={threads}: span count for {}",
                        phase.name()
                    );
                }
                for counter in [Counter::Queries, Counter::KnnSteps] {
                    assert_eq!(
                        sink.counter(counter),
                        base.counter(counter),
                        "t={threads}: counter {}",
                        counter.name()
                    );
                }
            }
        }
    }
    ifls_obs::set_enabled(false);
}

/// Span counts and work counters are identical across repeated traced runs
/// (timings differ; the countable work does not).
#[test]
fn metric_counts_deterministic_across_runs() {
    let _guard = OBS_LOCK.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(0x0b5e_0003);
    let case = random_case(&mut rng);
    let tree = VipTree::build(&case.venue, VipTreeConfig::default());

    ifls_obs::set_enabled(true);
    let collect = || {
        let _ = ifls_obs::take_local();
        let (c, e, n) = (&case.clients, &case.existing, &case.candidates);
        EfficientIfls::new(&tree).run(c, e, n);
        EfficientMinDist::new(&tree).run(c, e, n);
        EfficientMaxSum::new(&tree).run(c, e, n);
        ifls_obs::take_local()
    };
    let a = collect();
    let b = collect();
    for phase in Phase::ALL {
        assert_eq!(
            a.span(phase).count,
            b.span(phase).count,
            "span count for {}",
            phase.name()
        );
    }
    for counter in Counter::ALL {
        assert_eq!(
            a.counter(counter),
            b.counter(counter),
            "counter {}",
            counter.name()
        );
    }
    ifls_obs::set_enabled(false);
}
