#![warn(missing_docs)]

//! IFLS query processing: the paper's algorithms.
//!
//! The **Indoor Facility Location Selection (IFLS)** query: given clients
//! `C`, existing facilities `Fe` and candidate locations `Fn` in an indoor
//! venue, return
//!
//! ```text
//! A = argmin_{n ∈ Fn} ( max_{c ∈ C} iDist(c, NN(c, Fe ∪ {n})) )
//! ```
//!
//! Three interchangeable solvers over a shared [`VipTree`](ifls_viptree::VipTree):
//!
//! * [`BruteForce`] — the literal definition; the correctness oracle.
//! * [`ModifiedMinMax`] — §4's baseline: the road-network MinMax algorithm
//!   of Chen et al. (SIGMOD 2014) adapted to indoor space; per-client
//!   nearest-existing-facility search, candidate answer set refinement with
//!   the two pruning rules.
//! * [`EfficientIfls`] — §5's contribution: a single bottom-up pass over a
//!   VIP-tree indexing `Fe ∪ Fn`, incremental nearest facilities for *all*
//!   clients at once, client grouping by partition, and Lemma 5.1 client
//!   pruning driven by the global distance `Gd`.
//!
//! The efficient approach is one search driver, [`EfficientSolver`], with
//! the objective as an [`ObjectivePolicy`]: [`MinMax`] (the query above;
//! [`EfficientIfls`] is `EfficientSolver<MinMax>`) and §7's extensions
//! [`MinDist`] and [`MaxSum`] (their solvers, outcomes and brute-force
//! oracles live in [`mindist`] and [`maxsum`]). The [`parallel`] module
//! shards queries across scoped threads over the shared read-only index:
//! [`ParallelSolver`] splits one query's candidate set, [`BatchRunner`]
//! answers many independent queries concurrently; both are bit-identical
//! to the serial solvers at every thread count.
//!
//! Entry points, for an objective policy `P`:
//!
//! * `EfficientSolver::<P>::run`, `run_budgeted` (under a [`Budget`]) and
//!   `run_with_cache` (through a caller-owned distance cache, under a
//!   budget), plus MinMax's `run_topk`;
//! * `ParallelSolver::run::<P>` / `try_run::<P>` and
//!   `BatchRunner::run::<P>` / `try_run::<P>`;
//! * [`solve`] and [`api::solve_batch`], which pick the policy from an
//!   [`Objective`] at run time (the CLI and daemon dispatch).
//!
//! Each objective returns its own outcome type — [`MinMaxOutcome`] (the
//! maximum distance), [`mindist::MinDistOutcome`] (the total distance),
//! [`maxsum::MaxSumOutcome`] (the captured clients) — carrying the answer,
//! the objective value, and instrumentation ([`QueryStats`]): indoor
//! distance computations, retrieved facilities, pruned clients, structural
//! peak memory, wall-clock time, and a latency histogram with percentile
//! readout.
//!
//! Every solver also accepts a cooperative [`Budget`] (deadline, shared
//! cancellation, distance-computation cap) via its `run_budgeted` entry
//! point. When a budget fires mid-query the solver returns its best-so-far
//! candidate tagged [`Resolution::Degraded`] with an optimality gap; with
//! an unlimited budget the plumbing is a single branch per checkpoint and
//! answers and stats stay bit-identical to the plain `run` paths.
//!
//! All solvers are additionally instrumented with [`ifls_obs`] phase spans
//! (`knn_init`, `group_retrieval`, `prune`, `candidate_loop`, `refine`,
//! `cache_lookup`) and counters. Tracing is off by default and compiles
//! down to one relaxed atomic load per record site; enable it with
//! [`ifls_obs::set_enabled`] and drain the thread's sink with
//! [`ifls_obs::take_local`]. Observability can never change an answer:
//! record calls only *read* solver state, and the parallel engine merges
//! per-worker sinks in deterministic join order.

pub mod api;
mod baseline;
mod brute;
pub mod budget;
mod efficient;
mod explore;
pub mod maxsum;
pub mod mindist;
mod monitor;
mod outcome;
pub mod parallel;
mod search;
mod stats;

pub use api::{solve, Algorithm, Objective, QuerySummary, SolveSpec, WorkloadIdent};
pub use baseline::ModifiedMinMax;
pub use brute::{evaluate_objective, BruteForce};
pub use budget::{Budget, BudgetReason, CancelToken, Resolution};
pub use efficient::{EfficientIfls, MinMax};
pub use maxsum::MaxSum;
pub use mindist::MinDist;
pub use monitor::{ClientId, IflsMonitor};
pub use outcome::MinMaxOutcome;
pub use parallel::{BatchRunner, IflsQuery, ParallelSolver, WorkerPanic};
pub use search::{EfficientConfig, EfficientSolver, ObjectivePolicy};
pub use stats::QueryStats;
