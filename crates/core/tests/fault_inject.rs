//! Deterministic fault-injection: injected worker panics are isolated,
//! retried once by the coordinator, and never change an answer.
//!
//! Compile with `--features fault-inject`; without the feature every fault
//! point is a constant `false` and this file is empty.

#![cfg(feature = "fault-inject")]

use std::sync::Mutex;

use ifls_core::{BatchRunner, Budget, IflsQuery, MaxSum, MinDist, MinMax, ObjectivePolicy};
use ifls_fault::FaultPoint;
use ifls_indoor::PartitionId;
use ifls_obs::Counter;
use ifls_venues::GridVenueSpec;
use ifls_viptree::{VipTree, VipTreeConfig};
use ifls_workloads::WorkloadBuilder;

/// The fault-arming table is process-global and crossed from worker
/// threads; every test here serializes on this lock and disarms on entry.
static LOCK: Mutex<()> = Mutex::new(());

/// A caught worker panic still unwinds through the default hook and spams
/// stderr; silence it for the duration of a test that *expects* panics.
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

fn batch_fixture(venue: &ifls_indoor::Venue) -> Vec<IflsQuery> {
    (0..16)
        .map(|i| {
            let w = WorkloadBuilder::new(venue)
                .clients_uniform(6 + i % 5)
                .existing_uniform(2)
                .candidates_uniform(3)
                .seed(0xfa_0017 + i as u64)
                .build();
            IflsQuery {
                clients: w.clients,
                existing: w.existing,
                candidates: w.candidates,
            }
        })
        .collect()
}

/// Runs `f` with observability on and a clean local sink, returning the
/// value of `counter` accumulated during the run.
fn counting<R>(counter: Counter, f: impl FnOnce() -> R) -> (R, u64) {
    ifls_obs::set_enabled(true);
    let _ = ifls_obs::take_local();
    let out = f();
    let sink = ifls_obs::take_local();
    ifls_obs::set_enabled(false);
    (out, sink.counter(counter))
}

/// Arms the scratch-allocation point so exactly one query's solve panics
/// inside whichever worker claims it, then checks the batch completes after
/// one coordinator retry with the fault-free answers. `key` renders an
/// outcome as `(answer, value bits, exact)`.
fn scratch_alloc_retry<P: ObjectivePolicy>(
    objective: &str,
    key: impl Fn(&P::Outcome) -> (Option<PartitionId>, u64, bool),
) {
    let venue = GridVenueSpec::new("fault-batch", 2, 12).build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    let queries = batch_fixture(&venue);
    let runner = BatchRunner::with_threads(&tree, 8);
    let reference = runner.run::<P>(&queries);

    ifls_fault::arm(FaultPoint::ScratchAlloc, 5);
    let (got, retries) = counting(Counter::WorkerRetries, || {
        with_quiet_panics(|| runner.try_run::<P>(&queries, &Budget::unlimited()))
    });
    let fired = ifls_fault::fired(FaultPoint::ScratchAlloc);
    ifls_fault::disarm_all();

    let got = got.expect("batch with a single injected panic must complete");
    assert_eq!(
        ifls_fault::fired(FaultPoint::ScratchAlloc),
        0,
        "{objective}: disarmed"
    );
    assert_eq!(fired, 1, "{objective}: exactly one injected panic");
    assert_eq!(retries, 1, "{objective}: exactly one coordinator retry");
    assert_eq!(got.len(), reference.len());
    for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
        let ((ga, gv, exact), (ra, rv, _)) = (key(g), key(r));
        assert_eq!(ga, ra, "{objective} query {i}: answer drifted under fault");
        assert_eq!(
            gv, rv,
            "{objective} query {i}: value bits drifted under fault"
        );
        assert!(exact, "{objective} query {i}: fault degraded the run");
    }
}

#[test]
fn scratch_alloc_panic_in_batch_is_retried_and_bit_identical() {
    // Every objective allocates its scratch state through the one search
    // driver, so each crosses the fault point.
    let _g = LOCK.lock().unwrap();
    ifls_fault::disarm_all();
    scratch_alloc_retry::<MinMax>("minmax", |o| {
        (o.answer, o.objective.to_bits(), o.resolution.is_exact())
    });
    scratch_alloc_retry::<MinDist>("mindist", |o| {
        (o.answer, o.total.to_bits(), o.resolution.is_exact())
    });
    scratch_alloc_retry::<MaxSum>("maxsum", |o| (o.answer, o.wins, o.resolution.is_exact()));
}

#[test]
fn worker_death_at_startup_is_absorbed_without_retries() {
    let _g = LOCK.lock().unwrap();
    ifls_fault::disarm_all();
    let venue = GridVenueSpec::new("fault-death", 2, 12).build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    let queries = batch_fixture(&venue);
    let runner = BatchRunner::with_threads(&tree, 8);
    let reference = runner.run::<MinMax>(&queries);

    // Kill one worker before it claims any item: the shared cursor lets
    // the surviving workers drain the whole batch, so nothing needs a
    // coordinator retry.
    ifls_fault::arm(FaultPoint::WorkerStart, 0);
    let (got, retries) = counting(Counter::WorkerRetries, || {
        with_quiet_panics(|| runner.try_run::<MinMax>(&queries, &Budget::unlimited()))
    });
    ifls_fault::disarm_all();

    let got = got.expect("batch with a dead worker must complete");
    assert_eq!(retries, 0, "a dead worker orphans no claimed items");
    for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
        assert_eq!(g.answer, r.answer, "query {i}");
        assert_eq!(g.objective.to_bits(), r.objective.to_bits(), "query {i}");
    }
}

#[test]
fn worker_panic_under_work_stealing_across_thread_counts() {
    let _g = LOCK.lock().unwrap();
    ifls_fault::disarm_all();
    let venue = GridVenueSpec::new("fault-steal", 2, 12).build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    let queries = batch_fixture(&venue);
    let reference = BatchRunner::with_threads(&tree, 1).run::<MinMax>(&queries);

    // One worker: the scheduler's serial path is deliberately
    // panic-transparent — the injected panic surfaces to the caller.
    ifls_fault::arm(FaultPoint::ScratchAlloc, 5);
    let unwound = with_quiet_panics(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BatchRunner::with_threads(&tree, 1).run::<MinMax>(&queries)
        }))
    });
    ifls_fault::disarm_all();
    assert!(
        unwound.is_err(),
        "the serial path must stay panic-transparent"
    );

    // Work-stealing runners: the panicked item is isolated on whichever
    // deque (owned or stolen) it was claimed from, retried exactly once
    // by the coordinator, and the answers never move.
    for threads in [2usize, 4, 8] {
        let runner = BatchRunner::with_threads(&tree, threads);
        ifls_fault::arm(FaultPoint::ScratchAlloc, 5);
        let (got, retries) = counting(Counter::WorkerRetries, || {
            with_quiet_panics(|| runner.try_run::<MinMax>(&queries, &Budget::unlimited()))
        });
        ifls_fault::disarm_all();
        let got = got.unwrap_or_else(|e| panic!("{threads} threads: {e}"));
        assert_eq!(
            retries, 1,
            "{threads} threads: exactly one coordinator retry"
        );
        assert_eq!(got.len(), reference.len());
        for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(g.answer, r.answer, "{threads} threads, query {i}");
            assert_eq!(
                g.objective.to_bits(),
                r.objective.to_bits(),
                "{threads} threads, query {i}"
            );
        }
    }
}

#[test]
fn seeded_fault_sweep_never_changes_an_answer() {
    // Reproducible sweep: arm each panic-style point at an ifls-rng-seeded
    // hit index and check the batch always completes with the reference
    // answers. (The retry-exhausted typed-error path is covered by the
    // always-panic unit test in `parallel::tests`, which a fire-once
    // arming table cannot express.)
    let _g = LOCK.lock().unwrap();
    ifls_fault::disarm_all();
    let venue = GridVenueSpec::new("fault-sweep", 1, 10).build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    let queries = batch_fixture(&venue);
    let runner = BatchRunner::with_threads(&tree, 4);
    let reference = runner.run::<MinMax>(&queries);

    for point in [FaultPoint::ScratchAlloc, FaultPoint::CacheInsert] {
        for seed in 0..4u64 {
            let trigger = ifls_fault::arm_seeded(point, seed, 12);
            let got =
                with_quiet_panics(|| runner.try_run::<MinMax>(&queries, &Budget::unlimited()));
            ifls_fault::disarm_all();
            let got = got
                .unwrap_or_else(|e| panic!("{} seed {seed} trigger {trigger}: {e}", point.name()));
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    g.answer,
                    r.answer,
                    "{} seed {seed} trigger {trigger} query {i}",
                    point.name()
                );
                assert_eq!(g.objective.to_bits(), r.objective.to_bits());
            }
        }
    }
}
