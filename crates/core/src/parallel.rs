//! Parallel batch query engine: scoped-thread sharding over a shared
//! [`VipTree`].
//!
//! The index is read-only after construction (no interior mutability
//! anywhere in `ifls-viptree`), so workers borrow it directly through
//! [`std::thread::scope`] — no `Arc`, no cloning, no external thread-pool
//! dependency. Two layers build on that:
//!
//! * [`ParallelSolver`] — answers *one* query faster by sharding the
//!   candidate set `Fn` across workers. Each worker runs the serial
//!   efficient solver on its contiguous shard; per-candidate objectives do
//!   not depend on which other candidates are in the run, so merging the
//!   shard winners by `(objective, PartitionId)` reproduces the serial
//!   answer **bit for bit** at every thread count (enforced by the
//!   equivalence and determinism tests). [`ParallelSolver::run`] and
//!   [`ParallelSolver::try_run`] take the objective as a policy type
//!   parameter (`run::<MinMax>`, `run::<MinDist>`, `run::<MaxSum>`), and
//!   one merge serves every policy. The dominated evaluation phases can
//!   additionally shard *clients* via
//!   [`ParallelSolver::evaluate_minmax_objective`], whose `max`-merge is
//!   order-independent.
//! * [`BatchRunner`] — answers *many independent* queries concurrently
//!   (the serving shape: each user's query is small, the stream is not).
//!   Queries are distributed by a work-stealing scheduler (see below), so
//!   uneven query costs balance across workers, and results are returned
//!   in input order. Queries sharing one client set also share one
//!   [`ClientLegs`] table, computed once per distinct set. Its
//!   [`BatchRunner::run`]/[`BatchRunner::try_run`] pair is generic over the
//!   objective policy the same way.
//!
//! # Work stealing
//!
//! Both layers schedule items through per-worker chunked deques: worker
//! `w` is seeded with the `w`-th contiguous chunk of the input and pops
//! from the front of its own deque; a worker whose deque runs dry scans
//! the other deques (starting at its right neighbour, wrapping) and
//! steals the back *half* of the first non-empty one it finds. Steal-half
//! keeps lock traffic logarithmic in the imbalance instead of linear, and
//! stealing from the back preserves the victim's front-to-back locality.
//! Each successful steal ticks the `steals` obs counter. Results land in
//! input-order slots, so the merge is independent of who computed what —
//! steal order can change *timing*, never *answers*.
//!
//! Determinism contract: worker outputs are merged with explicit
//! tie-breaking (lowest `PartitionId` wins at equal objective bits), and
//! every serial solver uses the same rule, so thread count and scheduling
//! never change an answer. Per-worker [`QueryStats`] are folded with
//! [`QueryStats::merge`]; wall-clock `elapsed` is the outer measurement,
//! while the work counters sum across workers (they can exceed the serial
//! counters because shards repeat the shared coverage phase).
//!
//! # Fault isolation
//!
//! A panic inside one worker item (one query, one candidate shard) must
//! not take down the whole batch. The sharded paths wrap every item in
//! [`std::panic::catch_unwind`]; a failed item is re-run **once** by the
//! coordinator, serially, on a fresh worker state (the panic may have left
//! the old state torn). Only when the retry fails too does the typed
//! [`WorkerPanic`] error surface — through the `try_run` methods, or as a
//! plain panic from the infallible `run` wrappers. Each retried item
//! ticks the `worker_retries` obs counter. A worker thread that dies
//! outright (before draining the work cursor) just leaves its share to
//! the surviving workers and the coordinator. The serial (`threads <= 1`)
//! path stays panic-transparent: isolation is a property of sharding.
//!
//! # Budgets
//!
//! The `try_run` methods take a [`Budget`]; every worker item runs under
//! its own [`Budget::clone`] (fresh checkpoint counter, shared cancel
//! token and deadline), so deterministic checkpoint trips behave the same
//! whether an item runs on a worker or on the coordinator's retry path.
//! Shard resolutions merge conservatively: the merged answer is `Exact`
//! only if every shard is, and a merged gap re-derives from the shards'
//! lower (resp. upper) bounds — see DESIGN.md §11.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use ifls_indoor::{IndoorPoint, PartitionId};
use ifls_viptree::cache::DEFAULT_CACHE_ENTRIES;
use ifls_viptree::{CacheAdmission, DistCache, SharedDistCache, VipTree};

use crate::budget::{Budget, Resolution};
use crate::explore::ClientLegs;
use crate::search::{EfficientConfig, EfficientSolver, ObjectivePolicy, Parts, Query};
use crate::{brute, QueryStats};

// The whole module rests on the index being shareable across workers;
// assert it where the borrow happens, not just in the index crate.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<VipTree<'static>>();
};

/// A worker item panicked twice: once on its worker and once on the
/// coordinator's serial retry. Carries the item index (query index for
/// [`BatchRunner`], shard index for [`ParallelSolver`]) and the panic
/// payload's message.
#[derive(Clone, Debug)]
pub struct WorkerPanic {
    /// Input-order index of the item that failed.
    pub index: usize,
    /// The panic message (or a placeholder for non-string payloads).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker item {} panicked twice (retry exhausted): {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 if it cannot be determined.
pub fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits `len` items into `workers` contiguous ranges of near-equal size.
fn chunk_ranges(len: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let workers = workers.min(len).max(1);
    let base = len / workers;
    let extra = len % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for i in 0..workers {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Locks a deque, recovering from poisoning: the queue holds plain item
/// indices, which cannot be torn by a panic elsewhere.
fn lock_deque(m: &Mutex<VecDeque<usize>>) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Claims the next work item for worker `w`: pop from the front of its own
/// deque, or — when that runs dry — steal the back half of the first
/// non-empty victim deque, scanning from the right neighbour and wrapping.
/// The first stolen item is returned and the rest (if any) refill `w`'s
/// own deque. Returns `None` only when every deque is empty.
///
/// Locks never nest (the victim guard drops before the own-deque guard is
/// taken), so stealing cannot deadlock. Each successful steal ticks the
/// `steals` obs counter once, whatever the number of items moved.
fn next_item(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = lock_deque(&deques[w]).pop_front() {
        return Some(i);
    }
    let workers = deques.len();
    for off in 1..workers {
        let victim = (w + off) % workers;
        let mut stolen = {
            let mut guard = lock_deque(&deques[victim]);
            let len = guard.len();
            if len == 0 {
                continue;
            }
            guard.split_off(len - len.div_ceil(2))
        };
        ifls_obs::counter_add(ifls_obs::Counter::Steals, 1);
        let first = stolen.pop_front().expect("stole at least one item");
        if !stolen.is_empty() {
            lock_deque(&deques[w]).extend(stolen);
        }
        return Some(first);
    }
    None
}

/// Runs `f(state, i)` for every `i in 0..n` on up to `threads` scoped
/// workers and returns the results in input order. Work is distributed
/// through per-worker deques with steal-half balancing (see the module
/// docs), so expensive items do not serialize behind a static split.
///
/// Every worker owns a mutable state built once by `init` and threaded
/// through all the items it claims — the hook that lets batch workers keep
/// a persistent [`DistCache`] across queries.
/// Which worker answers which query is scheduling-dependent, but cache
/// contents can never change an answer (every entry is a pure function of
/// the tree), so results stay deterministic.
///
/// Fault isolation: each `f(state, i)` call runs under `catch_unwind`. An
/// item that panics is rerun once by the coordinator after the workers
/// finish, serially and on a fresh state (ticking the `worker_retries`
/// counter); if the retry panics too, the error is returned. A worker
/// thread that dies outside an item (a panic in `init` or an injected
/// start fault) leaves its seeded deque behind; surviving workers steal
/// and finish it, so a dead-at-start worker costs no coordinator retries.
/// Only items a worker claimed and then lost to a panic reach the
/// coordinator's retry pass.
pub(crate) fn try_run_indexed_state<S, R, I, F>(
    threads: usize,
    n: usize,
    init: I,
    f: F,
) -> Result<Vec<R>, WorkerPanic>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let workers = threads.min(n);
    if workers <= 1 {
        // Serial path: panics propagate unchanged, exactly as a plain loop
        // would. Isolation (and retry) is a property of the sharded path.
        let mut state = init();
        return Ok((0..n).map(|i| f(&mut state, i)).collect());
    }
    // Per-worker deques, seeded with contiguous chunks so each worker
    // starts on its own cache-friendly range and only pays lock traffic
    // once imbalance actually develops.
    let deques: Vec<Mutex<VecDeque<usize>>> = chunk_ranges(n, workers)
        .into_iter()
        .map(|r| Mutex::new(r.collect()))
        .collect();
    let deques = &deques;
    let (init, f) = (&init, &f);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    if ifls_fault::should_fail(ifls_fault::FaultPoint::WorkerStart) {
                        panic!("injected fault: worker start");
                    }
                    let mut state = init();
                    let mut out = Vec::new();
                    while let Some(i) = next_item(deques, w) {
                        match catch_unwind(AssertUnwindSafe(|| f(&mut state, i))) {
                            Ok(r) => out.push((i, r)),
                            // Leave the slot empty for the coordinator's
                            // retry pass and rebuild the worker state: the
                            // panic may have left it torn mid-update.
                            Err(_) => state = init(),
                        }
                    }
                    // Hand the worker's observability sink back with its
                    // results: worker threads die at scope exit, so any
                    // spans/counters they recorded would be lost otherwise.
                    (out, ifls_obs::take_local())
                })
            })
            .collect();
        // Joining in spawn order keeps the fold deterministic; merging is
        // element-wise addition anyway, so scheduling cannot change totals.
        for h in handles {
            // A worker that died outright returned nothing; its deque was
            // stolen by survivors, and anything still missing (an item
            // lost to a mid-`f` panic) is recomputed below.
            if let Ok((out, sink)) = h.join() {
                for (i, r) in out {
                    slots[i] = Some(r);
                }
                ifls_obs::merge_local(&sink);
            }
        }
    });
    // Coordinator retry pass: recompute every empty slot serially, once,
    // on a fresh state shared across retried items. A second panic on the
    // same item surfaces as the typed error.
    let mut retry_state: Option<S> = None;
    for (i, slot) in slots.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        ifls_obs::counter_add(ifls_obs::Counter::WorkerRetries, 1);
        let state = retry_state.get_or_insert_with(&init);
        match catch_unwind(AssertUnwindSafe(|| f(state, i))) {
            Ok(r) => *slot = Some(r),
            Err(payload) => {
                return Err(WorkerPanic {
                    index: i,
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    }
    Ok(slots
        .into_iter()
        .map(|r| r.expect("every empty slot filled by the retry pass above"))
        .collect())
}

/// Merges the shards of one query under the policy `P`: the best value
/// wins (lowest, or highest for a [`MAXIMIZE`](ObjectivePolicy::MAXIMIZE)
/// policy), the lowest `PartitionId` on ties; with no answer anywhere,
/// every shard reports the same status-quo value, computed from the shared
/// coverage phase that does not depend on the candidate shard.
///
/// Every shard reports an *achieved* value (a really-evaluated placement
/// or the status quo) and a gap such that `achieved_i − gap_i`
/// lower-bounds (maximizing: `achieved_i + gap_i` upper-bounds) the shard's
/// true optimum; exact shards have gap 0, so the bound is tight. The global
/// optimum is the best shard optimum, hence the distance from the merged
/// answer to the best of those bounds bounds its error. The per-shard
/// degraded obs counter was already ticked inside each worker, so the merge
/// does not tick again.
pub(crate) fn merge_shards<P: ObjectivePolicy>(shards: &[Parts], stats: QueryStats) -> Parts {
    let best = shards
        .iter()
        .filter_map(|&(answer, v, ..)| answer.map(|n| (n, v)))
        .min_by(|a, b| {
            let by_value = if P::MAXIMIZE {
                b.1.total_cmp(&a.1)
            } else {
                a.1.total_cmp(&b.1)
            };
            by_value.then_with(|| a.0.cmp(&b.0))
        });
    let (answer, achieved) = match best {
        Some((n, v)) => (Some(n), v),
        None => (None, shards.first().expect("at least one shard").1),
    };
    let resolution = match shards.iter().find_map(|(_, _, r, _)| r.reason()) {
        None => Resolution::Exact,
        Some(reason) => {
            let gap = if P::MAXIMIZE {
                let upper = shards.iter().map(|(_, v, r, _)| v + r.gap());
                upper.fold(0.0, f64::max) - achieved
            } else {
                let lower = shards.iter().map(|(_, v, r, _)| v - r.gap());
                achieved - lower.fold(f64::INFINITY, f64::min)
            };
            Resolution::Degraded {
                gap: gap.max(0.0),
                reason,
            }
        }
    };
    (answer, achieved, resolution, stats)
}

/// Parallel IFLS solver: candidate-set sharding over scoped threads.
///
/// Produces answers bit-identical to the serial [`EfficientSolver`] under
/// the same objective policy for every thread count, with explicit
/// lowest-`PartitionId` tie-breaking.
#[derive(Clone, Copy)]
pub struct ParallelSolver<'t, 'v> {
    tree: &'t VipTree<'v>,
    threads: usize,
    config: EfficientConfig,
}

impl<'t, 'v> ParallelSolver<'t, 'v> {
    /// Creates a solver using every available hardware thread.
    pub fn new(tree: &'t VipTree<'v>) -> Self {
        Self::with_threads(tree, default_threads())
    }

    /// Creates a solver with an explicit worker count (`0` means "use the
    /// available parallelism").
    pub fn with_threads(tree: &'t VipTree<'v>, threads: usize) -> Self {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        Self {
            tree,
            threads,
            config: EfficientConfig::default(),
        }
    }

    /// Replaces the per-worker solver configuration (ablations).
    pub fn config(mut self, config: EfficientConfig) -> Self {
        self.config = config;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Precomputes the immutable cache tier every shard will consult:
    /// door-distance vectors from each distinct client partition to each
    /// facility (existing ∪ candidates). Built before workers spawn and
    /// shared by reference, so it adds no synchronization and — being a
    /// pure function of the tree — cannot perturb answers. `None` when the
    /// cache is disabled for ablation.
    fn shared_tier(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
    ) -> Option<SharedDistCache> {
        if !self.config.dist_cache {
            return None;
        }
        let mut sources: Vec<PartitionId> = clients.iter().map(|c| c.partition).collect();
        sources.sort_unstable();
        sources.dedup();
        let mut targets: Vec<PartitionId> = existing.iter().chain(candidates).copied().collect();
        targets.sort_unstable();
        targets.dedup();
        Some(SharedDistCache::build(
            self.tree,
            sources
                .iter()
                .flat_map(|&p| targets.iter().map(move |&q| (p, q))),
        ))
    }

    /// A per-shard overflow cache layered over the shared tier (or a
    /// pass-through when the cache is ablated away).
    fn worker_cache<'s>(&self, shared: Option<&'s SharedDistCache>) -> DistCache<'s> {
        match shared {
            Some(s) => DistCache::with_shared(DEFAULT_CACHE_ENTRIES, s),
            None => DistCache::with_enabled(self.config.dist_cache),
        }
        .admission_mode(self.config.cache_admission)
    }

    /// Answers the query under the objective policy `P`
    /// (`solver.run::<MinMax>(…)` for the paper's IFLS objective).
    pub fn run<P: ObjectivePolicy>(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
    ) -> P::Outcome {
        match self.try_run::<P>(clients, existing, candidates, &Budget::unlimited()) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`run`](Self::run) under a cooperative [`Budget`], with worker
    /// panics isolated per shard and retried once on the coordinator before
    /// surfacing as [`WorkerPanic`].
    pub fn try_run<P: ObjectivePolicy>(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
        budget: &Budget,
    ) -> Result<P::Outcome, WorkerPanic> {
        let start = Instant::now();
        let solver = EfficientSolver::<P>::with_config(self.tree, self.config);
        let ranges = chunk_ranges(candidates.len(), self.threads);
        if ranges.len() <= 1 || clients.is_empty() {
            return Ok(solver.run_budgeted(clients, existing, candidates, budget));
        }
        let shared = self.shared_tier(clients, existing, candidates);
        // Per-client door legs are identical across shards (pure geometry,
        // independent of the candidate shard), so build them once and
        // share read-only. Each shard still charges the legs bytes to its
        // own meter, keeping per-shard stats bit-identical to inline
        // construction.
        let legs = ClientLegs::build(self.tree, clients);
        let partials = try_run_indexed_state(
            ranges.len(),
            ranges.len(),
            || (),
            |(), i| {
                let mut cache = self.worker_cache(shared.as_ref());
                // Each shard polls its own clone: fresh checkpoint counter,
                // shared cancel token — so deterministic trips behave the
                // same on a worker and on the coordinator's retry path.
                let shard_budget = budget.clone();
                let shard =
                    Query::new(self.tree, clients, existing, &candidates[ranges[i].clone()]);
                P::into_parts(solver.solve(&shard, &mut cache, &shard_budget, Some(&legs)))
            },
        )?;
        let mut stats = QueryStats::default();
        for (_, _, _, shard_stats) in &partials {
            stats.merge(shard_stats);
        }
        // Workers report local-tier bytes only; count the shared tier once.
        stats.cache_bytes += shared.as_ref().map_or(0, SharedDistCache::approx_bytes);
        stats.elapsed = start.elapsed();
        Ok(P::from_parts(merge_shards::<P>(&partials, stats)))
    }

    /// Evaluates the MinMax objective of one placement by sharding the
    /// *client* set across workers (the dominated phase of the brute-force
    /// oracle). The merge is a plain `max`, which is order-independent, so
    /// the result is bit-identical to [`evaluate_objective`](crate::evaluate_objective)
    /// at every thread count.
    pub fn evaluate_minmax_objective(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidate: Option<PartitionId>,
    ) -> f64 {
        let ranges = chunk_ranges(clients.len(), self.threads);
        if ranges.len() <= 1 {
            return brute::evaluate_objective(self.tree, clients, existing, candidate);
        }
        let maxima = try_run_indexed_state(
            ranges.len(),
            ranges.len(),
            || (),
            |(), i| {
                brute::evaluate_objective(
                    self.tree,
                    &clients[ranges[i].clone()],
                    existing,
                    candidate,
                )
            },
        );
        match maxima {
            Ok(maxima) => maxima.into_iter().fold(0.0, f64::max),
            Err(e) => panic!("{e}"),
        }
    }
}

/// Bitwise identity key for one client position: the partition id plus
/// the exact coordinate bits. Two queries share a [`ClientLegs`] table
/// only when their client lists are bitwise identical element for element
/// — the only equivalence safe without tolerance reasoning.
type ClientKey = (u32, u64, u64, i32);

/// The dedupe key of a whole client set (order-sensitive: legs are
/// indexed by client position).
fn client_set_key(clients: &[IndoorPoint]) -> Vec<ClientKey> {
    clients
        .iter()
        .map(|c| {
            (
                c.partition.raw(),
                c.pos.x.to_bits(),
                c.pos.y.to_bits(),
                c.pos.level,
            )
        })
        .collect()
}

/// Builds one [`ClientLegs`] table per *distinct* client set (bitwise
/// identity, via [`client_set_key`]) and maps each input set to its table
/// index. Legs are pure geometry and tick no counters, so sharing is
/// stats-neutral: each query still charges the same legs bytes to its own
/// memory meter.
pub(crate) fn legs_pool<'a>(
    tree: &VipTree<'_>,
    client_sets: impl Iterator<Item = &'a [IndoorPoint]>,
) -> (Vec<ClientLegs>, Vec<usize>) {
    let mut pool: Vec<ClientLegs> = Vec::new();
    let mut by_key: HashMap<Vec<ClientKey>, usize> = HashMap::new();
    let mut by_set = Vec::new();
    for clients in client_sets {
        let idx = *by_key.entry(client_set_key(clients)).or_insert_with(|| {
            pool.push(ClientLegs::build(tree, clients));
            pool.len() - 1
        });
        by_set.push(idx);
    }
    (pool, by_set)
}

/// One independent IFLS query for [`BatchRunner`].
#[derive(Clone, Debug, Default)]
pub struct IflsQuery {
    /// Client positions `C`.
    pub clients: Vec<IndoorPoint>,
    /// Existing facilities `Fe`.
    pub existing: Vec<PartitionId>,
    /// Candidate locations `Fn`.
    pub candidates: Vec<PartitionId>,
}

/// Answers many independent IFLS queries concurrently over one shared
/// index — the serving shape where throughput, not single-query latency,
/// is the bottleneck.
///
/// Each query runs on the serial efficient solver (one query, one
/// worker), so every individual result is bit-identical to a serial run;
/// results come back in input order regardless of scheduling. A query that
/// panics is retried once on the coordinator without failing the batch
/// (see the module docs on fault isolation).
#[derive(Clone, Copy)]
pub struct BatchRunner<'t, 'v> {
    tree: &'t VipTree<'v>,
    threads: usize,
    config: EfficientConfig,
}

impl<'t, 'v> BatchRunner<'t, 'v> {
    /// Creates a runner using every available hardware thread.
    pub fn new(tree: &'t VipTree<'v>) -> Self {
        Self::with_threads(tree, default_threads())
    }

    /// Creates a runner with an explicit worker count (`0` means "use the
    /// available parallelism").
    pub fn with_threads(tree: &'t VipTree<'v>, threads: usize) -> Self {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        Self {
            tree,
            threads,
            config: EfficientConfig::default(),
        }
    }

    /// Replaces the per-query solver configuration.
    pub fn config(mut self, config: EfficientConfig) -> Self {
        self.config = config;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The admission mode for the persistent per-worker caches. A batch
    /// declares cross-query reuse upfront, so the *adaptive* heuristic —
    /// built to stop one-shot serving queries from paying insert costs on
    /// streams that never reuse — is resolved to always-admit: on a cold
    /// tree its sampling window sees the first query's near-zero hit rate
    /// and shuts insertion off exactly when the next query in the batch
    /// is about to reuse those entries. Explicit `AlwaysOn`/`AlwaysOff`
    /// configs (ablations) are honored unchanged; cached values are pure
    /// functions of the tree, so admission policy cannot change answers.
    fn worker_admission(&self) -> CacheAdmission {
        match self.config.cache_admission {
            CacheAdmission::Adaptive => CacheAdmission::AlwaysOn,
            explicit => explicit,
        }
    }

    /// Answers every query under the objective policy `P`, results in
    /// input order. Each worker keeps one [`DistCache`] alive across all
    /// the queries it claims, so door-distance vectors memoized for one
    /// query serve the next — the cross-query reuse the serving shape is
    /// built for.
    pub fn run<P: ObjectivePolicy>(&self, queries: &[IflsQuery]) -> Vec<P::Outcome> {
        match self.try_run::<P>(queries, &Budget::unlimited()) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`run`](Self::run) under a per-query [`Budget`] (every query polls
    /// its own [`Budget::clone`]), with worker panics isolated per query
    /// and retried once before failing the batch.
    pub fn try_run<P: ObjectivePolicy>(
        &self,
        queries: &[IflsQuery],
        budget: &Budget,
    ) -> Result<Vec<P::Outcome>, WorkerPanic> {
        let solver = EfficientSolver::<P>::with_config(self.tree, self.config);
        let worker_config = EfficientConfig {
            cache_admission: self.worker_admission(),
            ..self.config
        };
        // One legs table per *distinct* client set (see [`legs_pool`]):
        // micro-batches typically carry many queries against one client
        // population, so this collapses the batch's leg construction to a
        // single pass.
        let (pool, by_query) = legs_pool(self.tree, queries.iter().map(|q| q.clients.as_slice()));
        try_run_indexed_state(
            self.threads,
            queries.len(),
            || worker_config.fresh_cache(),
            |cache, i| {
                let q = &queries[i];
                let query_budget = budget.clone();
                let query = Query::new(self.tree, &q.clients, &q.existing, &q.candidates);
                solver.solve(&query, cache, &query_budget, Some(&pool[by_query[i]]))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParallelSolver<'static, 'static>>();
        assert_send_sync::<BatchRunner<'static, 'static>>();
        assert_send_sync::<IflsQuery>();
        assert_send_sync::<WorkerPanic>();
    };

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in 0..40usize {
            for workers in 1..10usize {
                let ranges = chunk_ranges(len, workers);
                assert!(ranges.len() <= workers.max(1));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty() || len == 0);
                    next = r.end;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn scheduler_preserves_order() {
        for threads in [1usize, 2, 4, 8] {
            let out = try_run_indexed_state(threads, 23, || (), |(), i| i * i).unwrap();
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panicked_item_is_retried_once_by_coordinator() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let fired = AtomicBool::new(false);
        let out = try_run_indexed_state(
            4,
            16,
            || (),
            |(), i| {
                if i == 7 && !fired.swap(true, Ordering::SeqCst) {
                    panic!("transient worker fault");
                }
                i * 2
            },
        )
        .expect("single panic is absorbed by the retry pass");
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn double_failure_surfaces_typed_error() {
        let err = try_run_indexed_state(
            4,
            8,
            || (),
            |(), i| {
                if i == 3 {
                    panic!("persistent worker fault");
                }
                i
            },
        )
        .expect_err("an item that always panics must fail the run");
        assert_eq!(err.index, 3);
        assert!(err.message.contains("persistent worker fault"), "{err}");
        assert!(err.to_string().contains("item 3"));
    }

    #[test]
    fn idle_worker_steals_from_a_busy_one() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // deque0 = [0, 1], deque1 = [2]. Item 0 blocks until item 1 has
        // run; worker 0 is stuck inside item 0, so item 1 can only run if
        // worker 1 steals it after finishing item 2. No stealing → this
        // test deadlocks instead of passing.
        let item1_done = AtomicBool::new(false);
        let was_enabled = ifls_obs::enabled();
        ifls_obs::set_enabled(true);
        let before = ifls_obs::take_local().counter(ifls_obs::Counter::Steals);
        let out = try_run_indexed_state(
            2,
            3,
            || (),
            |(), i| {
                match i {
                    0 => {
                        while !item1_done.load(Ordering::SeqCst) {
                            thread::yield_now();
                        }
                    }
                    1 => item1_done.store(true, Ordering::SeqCst),
                    _ => {}
                }
                i * 10
            },
        )
        .expect("no panics in this run");
        assert_eq!(out, vec![0, 10, 20]);
        let after = ifls_obs::take_local().counter(ifls_obs::Counter::Steals);
        ifls_obs::set_enabled(was_enabled);
        assert!(after > before, "the forced steal must tick the counter");
    }

    #[test]
    fn steals_preserve_input_order_under_imbalance() {
        // Front-load all the cost onto worker 0's chunk so the other
        // workers drain their own deques and then steal; the merged output
        // must stay in input order regardless of who computed what.
        for threads in [2usize, 4, 8] {
            let out = try_run_indexed_state(
                threads,
                33,
                || (),
                |(), i| {
                    if i < 33 / threads {
                        thread::sleep(std::time::Duration::from_millis(1));
                    }
                    i * 3 + 1
                },
            )
            .expect("no panics in this run");
            assert_eq!(out, (0..33).map(|i| i * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_path_is_panic_transparent() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            try_run_indexed_state(1, 4, || (), |(), i| if i == 2 { panic!("boom") } else { i })
        }));
        assert!(caught.is_err(), "serial runs must not swallow panics");
    }

    #[test]
    fn merged_resolution_is_exact_only_when_all_shards_are() {
        let shards = |parts: &[(f64, Resolution)]| {
            let shards: Vec<Parts> = parts
                .iter()
                .map(|&(o, r)| (Some(PartitionId::new(1)), o, r, QueryStats::default()))
                .collect();
            merge_shards::<crate::MinMax>(&shards, QueryStats::default()).2
        };
        let exact = [(5.0, Resolution::Exact), (7.0, Resolution::Exact)];
        assert!(shards(&exact).is_exact());

        let degraded = Resolution::Degraded {
            gap: 3.0,
            reason: crate::budget::BudgetReason::DistCap,
        };
        let mixed = [(5.0, Resolution::Exact), (7.0, degraded)];
        let merged = shards(&mixed);
        // Lower bound is min(5.0, 7.0 − 3.0) = 4.0, achieved 5.0 → gap 1.0.
        assert_eq!(merged.gap(), 1.0);
        assert_eq!(merged.reason(), Some(crate::budget::BudgetReason::DistCap));
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let venue = ifls_venues::GridVenueSpec::new("t", 1, 4).build();
        let tree = VipTree::build(&venue, ifls_viptree::VipTreeConfig::default());
        assert_eq!(
            ParallelSolver::with_threads(&tree, 0).threads(),
            default_threads()
        );
        assert_eq!(
            BatchRunner::with_threads(&tree, 0).threads(),
            default_threads()
        );
    }
}
