#![warn(missing_docs)]

//! # ifls-obs — zero-dependency tracing & metrics for the IFLS engine
//!
//! A tracing and metrics layer for the query engine, with three hard
//! requirements inherited from the determinism contract of the workspace:
//!
//! 1. **Answers never change.** Observability only *reads* the computation;
//!    it records wall-clock time and counts into thread-local sinks. Turning
//!    it on or off is bit-identical for every solver at every thread count.
//! 2. **Disabled mode is (almost) free.** Every record call first loads one
//!    global [`AtomicBool`](std::sync::atomic::AtomicBool) with `Relaxed`
//!    ordering and returns immediately when tracing is off — a single
//!    predictable branch per call site. The bench-smoke suite pins the
//!    resulting overhead at ≤ 1 % of query time (`bench_core --obs-smoke`).
//! 3. **Zero external dependencies.** Like `ifls-rng`, this crate uses only
//!    `std` (the crates.io registry is unavailable in the build image).
//!
//! ## Model
//!
//! * **Spans** ([`span`]) time one of the fixed query/build [`Phase`]s on a
//!   thread-local stack. A span is a drop guard: early returns, `?`, and
//!   panics all close it correctly. Nested spans are *inclusive* — a child's
//!   time is also part of its parent's total — and the stack additionally
//!   attributes *self time* (total minus time spent in child spans).
//! * **Counters** ([`counter_add`]) are fixed-slot `u64` event counts
//!   ([`Counter`]), cheap enough for per-lookup hot paths.
//! * **Gauges** ([`gauge_set`]) are last-write-wins named `f64` readings.
//! * **Histograms** ([`record_ns`]) are named fixed-bucket log2 latency
//!   histograms ([`LatencyHistogram`]) with interpolated p50/p95/p99.
//! * **Request traces** ([`TraceScope`] under a [`TraceContext`]) capture
//!   one request's span closures into a bounded per-`(phase, depth)` tree;
//!   a [`FlightRecorder`] tail-samples completed traces (the K slowest
//!   plus every degraded/shed/panicked request) for `GET /debug/requests`
//!   and `ifls trace` (schema `ifls-trace/v1`).
//!
//! All records land in a per-thread [`ObsSink`]. The parallel engine drains
//! each worker's sink at join ([`take_local`]) and folds it into the
//! coordinator's ([`merge_local`]); merging is pure element-wise addition,
//! so the merged totals are independent of worker scheduling.
//!
//! ## Export
//!
//! [`to_text`], [`to_jsonl`] and [`to_prometheus`] render a sink for humans,
//! for log pipelines (one self-describing record per line; schema
//! `ifls-obs/v1`, documented in DESIGN.md), and for Prometheus text
//! exposition respectively.
//!
//! ```
//! use ifls_obs::{self as obs, Phase};
//!
//! obs::set_enabled(true);
//! {
//!     let _query = obs::span(Phase::CandidateLoop);
//!     let _inner = obs::span(Phase::GroupRetrieval);
//!     obs::counter_add(obs::Counter::DistCacheHits, 1);
//! } // guards close here, innermost first
//! obs::record_ns("query_latency_ns", 1_500);
//! let sink = obs::take_local();
//! assert_eq!(sink.span(Phase::CandidateLoop).count, 1);
//! println!("{}", obs::to_text(&sink));
//! ```

mod export;
mod metrics;
mod span;
mod trace;

pub use export::{
    to_jsonl, to_prometheus, to_text, validate_json_line, validate_jsonl, validate_prometheus,
    PromSummary,
};
pub use metrics::{Counter, LatencyHistogram, ObsSink, SpanAgg, HIST_BUCKETS};
pub use span::{span, SpanGuard};
pub use trace::{
    parse_trace_jsonl, seed_trace_ids, to_trace_jsonl, trace_json_line, validate_trace_jsonl,
    FlightRecorder, RequestTrace, TraceContext, TraceScope, TraceSpan, TraceSummary,
    MAX_TRACE_DEPTH, TRACE_SCHEMA,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// The instrumented phases: six query-side, four build-side.
///
/// The same vocabulary is used across the baseline, the three efficient
/// solvers and the parallel engine so phase totals stay comparable:
///
/// * `KnnInit` — per-query setup: facility indexes, client door legs,
///   explorer seeding; plus each incremental-kNN step in the baseline.
/// * `GroupRetrieval` — grouped §5 retrieval of one facility partition for
///   all active clients of one source partition.
/// * `Prune` — Lemma 5.1 / extension-specific candidate and client pruning.
/// * `CandidateLoop` — the main exploration loop over the global queue
///   (inclusive of the phases nested inside it).
/// * `Refine` — `increaseDist` refinement of the answer bounds.
/// * `CacheLookup` — kernel computation: a miss, or any lookup with the
///   cache off (hits are counted, not timed; see
///   [`Counter::DistCacheHits`]). The children of one queue expansion are
///   looked up together, so one span covers all of that batch's misses.
///
/// The build-side phases cover VIP-tree construction and index snapshots
/// (see [`Phase::BUILD`]); only the coordinator thread records them, so
/// their counts are independent of `--build-threads`:
///
/// * `BuildLeaves` — leaf formation (grouping partitions into leaves).
/// * `BuildHierarchy` — internal-node grouping, door/access-door
///   assignment and arena reservation (the serial plan).
/// * `BuildRowFill` — the Dijkstra row fills into the reserved arena
///   (serial or fanned over scoped workers).
/// * `SnapshotIo` — saving/loading an `ifls-index/v1` snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Per-query setup / incremental-kNN work.
    KnnInit = 0,
    /// Grouped retrieval of one facility partition for one source.
    GroupRetrieval = 1,
    /// Candidate/client pruning.
    Prune = 2,
    /// The main exploration loop.
    CandidateLoop = 3,
    /// Answer-bound refinement (`increaseDist`).
    Refine = 4,
    /// Kernel computation: a miss, or any lookup with the cache off (one
    /// span per sibling batch).
    CacheLookup = 5,
    /// VIP-tree leaf formation.
    BuildLeaves = 6,
    /// VIP-tree hierarchy grouping + arena reservation (the serial plan).
    BuildHierarchy = 7,
    /// Dijkstra row fills into the reserved arena.
    BuildRowFill = 8,
    /// Index snapshot save/load I/O.
    SnapshotIo = 9,
}

/// Number of phases (the length of [`Phase::ALL`]).
pub const NUM_PHASES: usize = 10;

impl Phase {
    /// Every phase, in canonical export order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::KnnInit,
        Phase::GroupRetrieval,
        Phase::Prune,
        Phase::CandidateLoop,
        Phase::Refine,
        Phase::CacheLookup,
        Phase::BuildLeaves,
        Phase::BuildHierarchy,
        Phase::BuildRowFill,
        Phase::SnapshotIo,
    ];

    /// The six query-side phases every traced query records.
    pub const QUERY: [Phase; 6] = [
        Phase::KnnInit,
        Phase::GroupRetrieval,
        Phase::Prune,
        Phase::CandidateLoop,
        Phase::Refine,
        Phase::CacheLookup,
    ];

    /// The build-side phases recorded during index construction and
    /// snapshot I/O.
    pub const BUILD: [Phase; 4] = [
        Phase::BuildLeaves,
        Phase::BuildHierarchy,
        Phase::BuildRowFill,
        Phase::SnapshotIo,
    ];

    /// Stable snake_case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Phase::KnnInit => "knn_init",
            Phase::GroupRetrieval => "group_retrieval",
            Phase::Prune => "prune",
            Phase::CandidateLoop => "candidate_loop",
            Phase::Refine => "refine",
            Phase::CacheLookup => "cache_lookup",
            Phase::BuildLeaves => "build_leaves",
            Phase::BuildHierarchy => "build_hierarchy",
            Phase::BuildRowFill => "build_row_fill",
            Phase::SnapshotIo => "snapshot_io",
        }
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// The global enable flag. All record calls are no-ops while it is `false`.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns tracing on or off process-wide.
///
/// The flag only gates *recording*; it never influences answers. It is safe
/// (if noisy) for concurrent tests to toggle it.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `v` to a fixed-slot counter on this thread's sink.
#[inline]
pub fn counter_add(c: Counter, v: u64) {
    if enabled() {
        metrics::counter_add_local(c, v);
    }
}

/// Sets a named gauge on this thread's sink (last write wins).
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    if enabled() {
        metrics::gauge_set_local(name, v);
    }
}

/// Records a nanosecond sample into a named latency histogram on this
/// thread's sink.
#[inline]
pub fn record_ns(name: &'static str, ns: u64) {
    if enabled() {
        metrics::record_ns_local(name, ns);
    }
}

/// Drains this thread's sink, leaving it empty.
///
/// Workers call this right before returning from a scoped-thread closure;
/// the coordinator folds the returned sinks with [`merge_local`]. Draining
/// works regardless of the enable flag so a toggle mid-flight cannot strand
/// records.
pub fn take_local() -> ObsSink {
    metrics::take_local()
}

/// Folds a drained worker sink into this thread's sink.
///
/// Merging is element-wise addition (gauges: last write wins), which is
/// commutative and associative — the merged totals do not depend on worker
/// scheduling or join order.
pub fn merge_local(sink: &ObsSink) {
    metrics::merge_local(sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable_and_distinct() {
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "knn_init",
                "group_retrieval",
                "prune",
                "candidate_loop",
                "refine",
                "cache_lookup",
                "build_leaves",
                "build_hierarchy",
                "build_row_fill",
                "snapshot_io"
            ]
        );
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        // QUERY ++ BUILD is exactly ALL, in order.
        let partitioned: Vec<_> = Phase::QUERY.iter().chain(Phase::BUILD.iter()).collect();
        assert_eq!(partitioned, Phase::ALL.iter().collect::<Vec<_>>());
    }

    #[test]
    fn disabled_records_are_dropped() {
        set_enabled(false);
        let _ = take_local();
        counter_add(Counter::DistCacheHits, 3);
        record_ns("x", 10);
        gauge_set("g", 1.0);
        let _g = span(Phase::Prune);
        drop(_g);
        let sink = take_local();
        assert!(sink.is_empty());
    }
}
