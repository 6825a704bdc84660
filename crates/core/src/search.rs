//! The one search driver behind every efficient solver (§5, Algorithms 2
//! + 3), with the objective as a policy.
//!
//! One VIP-tree over `Fe ∪ Fn`, one shared bottom-up traversal for all
//! clients:
//!
//! * A global priority queue holds `(client partition p, indoor entity I)`
//!   pairs keyed by `iMinD(p, I)`. For each partition hosting clients, the
//!   search starts at its *leaf node* and expands parents and children
//!   (bottom-up), never re-enqueueing an entity for the same source. The
//!   key of the last dequeued entry is the **global distance** `Gd`: every
//!   facility within `Gd` of any client partition has been retrieved.
//! * Clients in the same partition are **grouped**: the door-to-facility
//!   distance vector is computed once per (partition, facility) pair and
//!   combined with each client's in-partition door legs (this subsumes the
//!   paper's single-door fast path of §5.3.1 Case 1).
//! * **Lemma 5.1 pruning**: once a client's nearest existing facility is
//!   known, no candidate beyond it can matter for that client — it stops
//!   participating in retrievals.
//!
//! Paper §7 builds MinDist and MaxSum on this traversal and pruning
//! unchanged; only the candidate bookkeeping and `checkAnswer` differ. So
//! [`EfficientSolver`] owns the skeleton once — facility indexes, client
//! legs and the memory meter; the in-facility intake and explorer seeding;
//! the budget check → pop → source-active → retrieve-or-expand loop; the
//! [`QueryStats`] assembly — and an [`ObjectivePolicy`] supplies the rest:
//! its event intake, answer check, degraded snapshot and final answer, plus
//! the objective-neutral [`Parts`] its outcome splits into, from which the
//! shard merge and the front ends' summary are written once. The three
//! policies are [`MinMax`](crate::MinMax) (§5's
//! `increaseDist`/`checkAnswer`), [`MinDist`](crate::MinDist) and
//! [`MaxSum`](crate::MaxSum) (§7).
//!
//! The `prune_clients` and `group_clients` switches in [`EfficientConfig`]
//! exist for the ablation benchmarks; both default to on and never change
//! the answer, only the work done.

use std::marker::PhantomData;
use std::time::Instant;

use ifls_indoor::{IndoorPoint, PartitionId};
use ifls_obs::Phase;
use ifls_viptree::{DistCache, FacilityIndex, VipTree};

use crate::api::{Algorithm, Objective};
use crate::budget::{Budget, BudgetReason, Resolution};
use crate::explore::{retrieval_dists, ClientLegs, Entity, Event, Explorer};
use crate::stats::{MemoryMeter, QueryStats};

/// Tuning switches for the efficient solvers (ablation only — results are
/// identical under every combination).
#[derive(Clone, Copy, Debug)]
pub struct EfficientConfig {
    /// Share the per-(partition, facility) door-distance vectors among the
    /// clients of the partition (§5's client grouping).
    pub group_clients: bool,
    /// Apply Lemma 5.1: stop doing work for clients whose
    /// nearest-existing-facility distance cannot be improved.
    pub prune_clients: bool,
    /// Memoize door-distance vectors and `iMinD` bounds in a
    /// [`DistCache`] (off = the `--no-dist-cache` ablation; answers are
    /// bit-identical either way).
    pub dist_cache: bool,
}

impl Default for EfficientConfig {
    fn default() -> Self {
        Self {
            group_clients: true,
            prune_clients: true,
            dist_cache: true,
        }
    }
}

impl EfficientConfig {
    /// A fresh per-query distance cache honoring `dist_cache`.
    pub(crate) fn fresh_cache(&self) -> DistCache {
        DistCache::with_enabled(self.dist_cache)
    }
}

/// One query's inputs, borrowed for the length of a search.
#[derive(Clone, Copy)]
pub struct Query<'q> {
    /// The index over the venue.
    pub tree: &'q VipTree<'q>,
    /// Client positions `C`.
    pub clients: &'q [IndoorPoint],
    /// Existing facilities `Fe`.
    pub existing: &'q [PartitionId],
    /// Candidate locations `Fn`.
    pub candidates: &'q [PartitionId],
}

impl<'q> Query<'q> {
    /// Bundles one query's inputs.
    pub fn new(
        tree: &'q VipTree<'q>,
        clients: &'q [IndoorPoint],
        existing: &'q [PartitionId],
        candidates: &'q [PartitionId],
    ) -> Self {
        Self {
            tree,
            clients,
            existing,
            candidates,
        }
    }
}

/// An outcome in objective-neutral form: the answer, the objective value
/// in the policy's own units (MinMax distance, MinDist total, MaxSum wins),
/// the resolution and the stats.
pub type Parts = (Option<PartitionId>, f64, Resolution, QueryStats);

/// How the candidate loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exit {
    /// A policy hook reported the answer found.
    Answered,
    /// The queue ran dry: every `(source, facility)` pair was retrieved.
    Exhausted,
    /// The budget fired at a checkpoint.
    Interrupted(BudgetReason),
}

/// An objective plugged into the shared search driver:
/// [`MinMax`](crate::MinMax), [`MinDist`](crate::MinDist) or
/// [`MaxSum`](crate::MaxSum).
///
/// A policy value is one query's objective-specific state: the candidate
/// bookkeeping §5 (MinMax) and §7 (MinDist, MaxSum) attach to the common
/// traversal. The driver owns everything else, calls the hooks in a fixed
/// order, and never looks inside the state. The hooks take crate-internal
/// types, so only this crate implements the trait; other code names a
/// policy as a type parameter, e.g. `BatchRunner::run::<MinDist>`.
pub trait ObjectivePolicy: Sized {
    /// What a solve under this policy returns.
    type Outcome: Send;

    /// The objective this policy answers.
    const OBJECTIVE: Objective;

    /// The value of placing no new facility, over non-empty clients.
    #[doc(hidden)]
    fn status_quo(q: &Query<'_>) -> f64;

    /// Splits an outcome into its objective-neutral [`Parts`].
    #[doc(hidden)]
    fn into_parts(outcome: Self::Outcome) -> Parts;

    /// Assembles an outcome from its [`Parts`].
    #[doc(hidden)]
    fn from_parts(parts: Parts) -> Self::Outcome;

    /// The value front ends report for `value` over `clients` clients
    /// (MinDist reports the average of its total).
    #[doc(hidden)]
    fn reported(value: f64, _clients: usize) -> f64 {
        value
    }

    /// Allocates the per-query state and charges it to `meter`. `target` is
    /// the number of answers to collect (MinMax top-k; 1 otherwise).
    #[doc(hidden)]
    fn new(q: &Query<'_>, config: &EfficientConfig, target: usize, meter: &mut MemoryMeter)
        -> Self;

    /// Whether `client` still does work (Lemma 5.1 has not retired it).
    #[doc(hidden)]
    fn is_active(&self, client: u32) -> bool;

    /// Takes in one retrieval: `e.facility` (an existing one when
    /// `existing`) lies at exact distance `e.dist` from `e.client`.
    #[doc(hidden)]
    fn intake(&mut self, e: Event, existing: bool, meter: &mut MemoryMeter);

    /// Settles the in-facility intake before the traversal. `true` when
    /// that alone answers the query; the explorer is then never seeded.
    #[doc(hidden)]
    fn settle_intake(&mut self, _q: &Query<'_>, _meter: &mut MemoryMeter) -> bool {
        false
    }

    /// Runs after the `pops`-th pop, whose key is the global distance
    /// `gd`. `true` stops the search with the answer found.
    #[doc(hidden)]
    fn after_pop(&mut self, q: &Query<'_>, gd: f64, pops: u64, meter: &mut MemoryMeter) -> bool;

    /// Runs inside the candidate loop once the queue is empty. A policy
    /// that keeps iterating polls `budget` (the query stands at `dists`
    /// distance computations) and returns the reason if it fires.
    #[doc(hidden)]
    fn exhausted(
        &mut self,
        _q: &Query<'_>,
        _budget: &Budget,
        _dists: u64,
        _meter: &mut MemoryMeter,
    ) -> Option<BudgetReason> {
        None
    }

    /// Runs after the candidate loop closed, still on the query clock.
    #[doc(hidden)]
    fn close(&mut self, _q: &Query<'_>, _exit: Exit, _meter: &mut MemoryMeter) {}

    /// Clients retired by Lemma 5.1 (`QueryStats::clients_pruned`).
    #[doc(hidden)]
    fn clients_pruned(&self) -> u64;

    /// The outcome, computed after the query clock stopped: the exact
    /// answer, or the degraded best-so-far answer when the budget fired.
    #[doc(hidden)]
    fn finish(self, q: &Query<'_>, stats: QueryStats, exit: Exit) -> Self::Outcome;

    /// Answers with this objective's reference solver for `algorithm`
    /// (brute force, or §4's baseline where one exists).
    #[doc(hidden)]
    fn reference(q: &Query<'_>, algorithm: Algorithm, budget: &Budget) -> Self::Outcome;
}

/// The efficient solver (§5) for the objective `P`: one bottom-up pass
/// over a VIP-tree indexing `Fe ∪ Fn` for all clients at once (see the
/// module docs). Use it through [`EfficientIfls`](crate::EfficientIfls),
/// [`EfficientMinDist`](crate::mindist::EfficientMinDist) or
/// [`EfficientMaxSum`](crate::maxsum::EfficientMaxSum).
pub struct EfficientSolver<'t, 'v, P> {
    pub(crate) tree: &'t VipTree<'v>,
    pub(crate) config: EfficientConfig,
    policy: PhantomData<fn() -> P>,
}

impl<'t, 'v, P: ObjectivePolicy> EfficientSolver<'t, 'v, P> {
    /// Creates a solver with the default configuration.
    pub fn new(tree: &'t VipTree<'v>) -> Self {
        Self::with_config(tree, EfficientConfig::default())
    }

    /// Creates a solver with an explicit configuration (ablations; results
    /// are identical under every combination).
    pub fn with_config(tree: &'t VipTree<'v>, config: EfficientConfig) -> Self {
        Self {
            tree,
            config,
            policy: PhantomData,
        }
    }

    /// Answers the query with a fresh per-query distance cache (honoring
    /// `config.dist_cache`).
    pub fn run(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
    ) -> P::Outcome {
        self.run_budgeted(clients, existing, candidates, &Budget::unlimited())
    }

    /// [`run`](Self::run) under a cooperative [`Budget`]. With an
    /// unlimited budget this is bit-identical to `run`; when the budget
    /// fires mid-search the outcome carries the policy's best-so-far
    /// answer tagged [`Resolution::Degraded`](crate::Resolution) with a gap
    /// bounding its error (defined per policy; see DESIGN.md §11).
    pub fn run_budgeted(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
        budget: &Budget,
    ) -> P::Outcome {
        let mut cache = self.config.fresh_cache();
        self.run_with_cache(clients, existing, candidates, &mut cache, budget)
    }

    /// [`run_budgeted`](Self::run_budgeted) through a caller-owned
    /// [`DistCache`], letting memoized door-distance vectors persist across
    /// queries (every cached value is a pure function of the tree, so reuse
    /// cannot change answers). This is how batch runners and monitors
    /// amortize the distance kernel.
    pub fn run_with_cache(
        &self,
        clients: &[IndoorPoint],
        existing: &[PartitionId],
        candidates: &[PartitionId],
        cache: &mut DistCache,
        budget: &Budget,
    ) -> P::Outcome {
        let q = Query::new(self.tree, clients, existing, candidates);
        self.solve(&q, cache, budget, None)
    }

    /// Answers `q`, with the client door legs either precomputed by the
    /// caller and shared read-only — the batch-engine hook that computes
    /// [`ClientLegs`] once per distinct client set instead of once per
    /// query/shard — or, for `None`, built inline. Legs are a pure function
    /// of the clients and the venue, so a shared table is bit-identical to
    /// an inline build.
    pub(crate) fn solve(
        &self,
        q: &Query<'_>,
        cache: &mut DistCache,
        budget: &Budget,
        legs: Option<&ClientLegs>,
    ) -> P::Outcome {
        let start = Instant::now();
        if q.clients.is_empty() || q.candidates.is_empty() {
            // The status quo, exact, with empty stats.
            let value = if q.clients.is_empty() {
                0.0
            } else {
                P::status_quo(q)
            };
            let stats = QueryStats::default().stamped(start);
            return P::from_parts((None, value, Resolution::Exact, stats));
        }
        let (policy, stats, exit) = self.search(q, 1, cache, budget, legs, start);
        policy.finish(q, stats, exit)
    }

    /// The Algorithm 2 + 3 skeleton over non-empty clients and candidates:
    /// returns the policy's final state, the stats stamped against
    /// `start`, and how the candidate loop ended.
    pub(crate) fn search(
        &self,
        q: &Query<'_>,
        target: usize,
        cache: &mut DistCache,
        budget: &Budget,
        shared_legs: Option<&ClientLegs>,
        start: Instant,
    ) -> (P, QueryStats, Exit) {
        let tree = self.tree;
        let venue = tree.venue();
        let prune = self.config.prune_clients;
        let mut meter = MemoryMeter::default();
        let mut dist_computations = 0u64;
        let mut point_via_lookups = 0u64;
        let mut facilities_retrieved = 0u64;
        let cache_before = cache.stats();

        // Object layer over Fe ∪ Fn in one shared index (§5.1).
        let setup_span = ifls_obs::span(Phase::KnnInit);
        let fe = FacilityIndex::build(tree, q.existing.iter().copied());
        let fn_ = FacilityIndex::build(tree, q.candidates.iter().copied());
        meter.add((fe.approx_bytes() + fn_.approx_bytes()) as isize);

        // Per-client door legs, computed once and reused by every grouped
        // retrieval (the client→door half of each distance combine). A
        // batch caller may hand in a table shared across its queries; the
        // meter charges it either way so stats match the inline build.
        let legs_owned;
        let legs = match shared_legs {
            Some(shared) => shared,
            None => {
                legs_owned = ClientLegs::build(tree, q.clients);
                &legs_owned
            }
        };
        meter.add(legs.approx_bytes() as isize);

        if ifls_fault::should_fail(ifls_fault::FaultPoint::ScratchAlloc) {
            panic!("injected fault: scratch alloc");
        }
        // Client indices per partition; each policy charges its own share.
        let mut by_partition: Vec<Vec<u32>> = vec![Vec::new(); venue.num_partitions()];
        for (i, c) in q.clients.iter().enumerate() {
            by_partition[c.partition.index()].push(i as u32);
        }
        let mut policy = P::new(q, &self.config, target, &mut meter);

        // --- Algorithm 2, lines 1–10: clients already inside a facility. ---
        for (i, c) in q.clients.iter().enumerate() {
            let existing = fe.contains(c.partition);
            if existing || fn_.contains(c.partition) {
                facilities_retrieved += 1;
                policy.intake(Event::new(i as u32, c.partition, 0.0), existing, &mut meter);
            }
        }
        let answered = policy.settle_intake(q, &mut meter);

        // --- Algorithm 3: exploreTree. ---
        let mut explorer = Explorer::new(tree);
        if !answered {
            for p in venue.partition_ids() {
                if !by_partition[p.index()].is_empty() {
                    explorer.seed_source(p, &mut meter);
                }
            }
        }
        drop(setup_span);
        let mut exit = Exit::Answered;
        if !answered {
            let _loop_span = ifls_obs::span(Phase::CandidateLoop);
            let mut pops = 0u64;
            exit = loop {
                // Budget checkpoint: one poll per queue pop. On a trip the
                // policy's state is the best-so-far snapshot.
                let dists = dist_computations + explorer.dist_computations;
                if let Some(reason) = budget.check(dists) {
                    break Exit::Interrupted(reason);
                }
                let Some(entry) = explorer.pop(&mut meter) else {
                    break match policy.exhausted(q, budget, dists, &mut meter) {
                        Some(reason) => Exit::Interrupted(reason),
                        None => Exit::Exhausted,
                    };
                };
                let source = entry.source;
                let clients_here = &by_partition[source.index()];

                // Sources whose clients are all retired stop working
                // (Lemma 5.1's payoff). Without pruning they keep going.
                if !prune || clients_here.iter().any(|&c| policy.is_active(c)) {
                    match entry.entity {
                        // Algorithm 3 lines 10–13: retrieve the facility for
                        // every working client of the source, grouped per §5.
                        Entity::Part(part) if fe.contains(part) || fn_.contains(part) => {
                            let ids: Vec<u32> = if prune {
                                clients_here
                                    .iter()
                                    .copied()
                                    .filter(|&c| policy.is_active(c))
                                    .collect()
                            } else {
                                clients_here.clone()
                            };
                            let _span = ifls_obs::span(Phase::GroupRetrieval);
                            let existing = fe.contains(part);
                            for (c, d) in retrieval_dists(
                                tree,
                                q.clients,
                                legs,
                                &ids,
                                source,
                                part,
                                self.config.group_clients,
                                cache,
                                &mut dist_computations,
                                &mut point_via_lookups,
                            ) {
                                facilities_retrieved += 1;
                                policy.intake(Event::new(c, part, d), existing, &mut meter);
                            }
                        }
                        // Non-facility entity: expand parent and children
                        // (Algorithm 3 lines 14–22).
                        entity => explorer.expand(source, entity, cache, &mut meter),
                    }
                }
                pops += 1;
                if policy.after_pop(q, entry.key, pops, &mut meter) {
                    break Exit::Answered;
                }
            };
        }
        policy.close(q, exit, &mut meter);

        let cache_after = cache.stats();
        let stats = QueryStats {
            dist_computations: dist_computations + explorer.dist_computations,
            point_via_lookups,
            facilities_retrieved,
            clients_pruned: policy.clients_pruned(),
            cache_hits: cache_after.hits - cache_before.hits,
            cache_misses: cache_after.misses - cache_before.misses,
            cache_bytes: cache_after.bytes,
            cache_warm_bytes: tree
                .warm_tier()
                .map_or(0, ifls_viptree::WarmTier::approx_bytes),
            peak_bytes: meter.peak_bytes(),
            ..QueryStats::default()
        };
        (policy, stats.stamped(start), exit)
    }
}
