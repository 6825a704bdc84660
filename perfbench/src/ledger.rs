//! The traced run's per-layer ledger for the in-process workloads.
//!
//! Each timed call is wrapped in the benchmark's own span (its wall
//! time); the program's phase spans and counters come from
//! [`ifls_obs::take_local`] after the call. A query's wall time is split
//! into the six query-phase self-times plus `unattributed`, whatever
//! neither covers, so the parts add up to the wall time by construction:
//! nested spans report *self* time, which never double-counts.
//!
//! For batches the accounting base is worker time — `workers × batch
//! wall` — because the phase spans of both workers are merged into one
//! sink; idle workers and the batch's serial legs build are then
//! unattributed time.

use ifls_core::api::Objective;
use ifls_core::QueryStats;
use ifls_obs::{Counter, ObsSink, Phase};

use crate::report::Metrics;
use crate::stats::ratio;

/// The query-side phases, in the order of the `core.*_ms` /
/// `viptree.cache_lookup_ms` metrics.
pub const PHASES: [(Phase, &str); 6] = [
    (Phase::KnnInit, "core.knn_init_ms"),
    (Phase::GroupRetrieval, "core.group_retrieval_ms"),
    (Phase::Prune, "core.prune_ms"),
    (Phase::CandidateLoop, "core.candidate_loop_ms"),
    (Phase::Refine, "core.refine_ms"),
    (Phase::CacheLookup, "viptree.cache_lookup_ms"),
];

/// Per-layer sums over a traced pass.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Queries answered.
    pub queries: u64,
    /// Clients over all queries.
    pub clients: u64,
    /// Batches (cold-batch only).
    pub batches: u64,
    /// Accounting base: summed wall time (worker time for batches).
    pub base_ns: u64,
    /// Self time per query phase, in [`PHASES`] order.
    pub self_ns: [u64; 6],
    /// Accounting base of MaxSum queries only.
    pub maxsum_base_ns: u64,
    /// Summed phase self time of MaxSum queries only.
    pub maxsum_self_ns: u64,
    /// Solver-clock time (`QueryStats::elapsed`) over all queries.
    pub solver_ns: u64,
    /// Logical distance computations.
    pub dist_computations: u64,
    /// Facilities retrieved.
    pub facilities_retrieved: u64,
    /// Clients pruned by Lemma 5.1.
    pub clients_pruned: u64,
    /// Distance-cache hits.
    pub cache_hits: u64,
    /// Distance-cache misses.
    pub cache_misses: u64,
    /// Summed local-tier footprint at query end.
    pub cache_bytes: u64,
    /// Largest structural peak of any query.
    pub peak_bytes: u64,
    /// Local-tier evictions.
    pub evictions: u64,
    /// Local-tier inserts refused by admission.
    pub inserts_rejected: u64,
    /// Work-steal operations.
    pub steals: u64,
    /// Panicked batch items retried by the coordinator.
    pub worker_retries: u64,
}

impl Ledger {
    /// Folds in one solved query's stats.
    pub fn add_stats(&mut self, s: &QueryStats, clients: usize) {
        self.queries += 1;
        self.clients += clients as u64;
        self.solver_ns += s.elapsed.as_nanos() as u64;
        self.dist_computations += s.dist_computations;
        self.facilities_retrieved += s.facilities_retrieved;
        self.clients_pruned += s.clients_pruned;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        self.cache_bytes += s.cache_bytes as u64;
        self.peak_bytes = self.peak_bytes.max(s.peak_bytes as u64);
    }

    /// Folds in the sink drained after one timed call whose accounting
    /// base (wall, or worker time for a batch) was `base_ns`.
    pub fn add_sink(&mut self, sink: &ObsSink, base_ns: u64, objective: Objective) {
        let mut self_sum = 0;
        for (slot, (phase, _)) in self.self_ns.iter_mut().zip(PHASES) {
            let ns = sink.span(phase).self_ns;
            *slot += ns;
            self_sum += ns;
        }
        self.base_ns += base_ns;
        if objective == Objective::MaxSum {
            self.maxsum_base_ns += base_ns;
            self.maxsum_self_ns += self_sum;
        }
        self.evictions += sink.counter(Counter::DistCacheEvictions);
        self.inserts_rejected += sink.counter(Counter::CacheInsertsRejected);
        self.steals += sink.counter(Counter::Steals);
        self.worker_retries += sink.counter(Counter::WorkerRetries);
    }

    /// Summed phase self time.
    pub fn self_total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Accounting base minus phase self time (negative would mean the
    /// spans over-cover the wall time).
    pub fn unattributed_ns(&self) -> i64 {
        self.base_ns as i64 - self.self_total_ns() as i64
    }

    /// Writes the `viptree.cache_*` and `core.*` per-layer metrics.
    pub fn write(&self, m: &mut Metrics) {
        let q = self.queries as f64;
        let per_query_ms = |ns: f64| ratio(ns, q) / 1e6;
        for ((_, name), ns) in PHASES.iter().zip(self.self_ns) {
            m.set(name, per_query_ms(ns as f64));
        }
        m.set(
            "core.unattributed_ms",
            per_query_ms(self.unattributed_ns() as f64),
        );
        m.set(
            "core.maxsum_unattributed_share",
            ratio(
                self.maxsum_base_ns as f64 - self.maxsum_self_ns as f64,
                self.maxsum_base_ns as f64,
            ),
        );
        self.write_counts(m);
        m.set("viptree.cache_evictions", ratio(self.evictions as f64, q));
        m.set(
            "viptree.cache_inserts_rejected",
            ratio(self.inserts_rejected as f64, q),
        );
        m.set(
            "core.parallel.steals_per_batch",
            ratio(self.steals as f64, self.batches as f64),
        );
        m.set("core.parallel.worker_retries", self.worker_retries as f64);
    }

    /// Writes the metrics derived from per-query stats alone (the part a
    /// served response also carries).
    pub fn write_counts(&self, m: &mut Metrics) {
        let q = self.queries as f64;
        let lookups = (self.cache_hits + self.cache_misses) as f64;
        m.set(
            "viptree.cache_hit_share",
            ratio(self.cache_hits as f64, lookups),
        );
        m.set(
            "viptree.cache_misses_per_query",
            ratio(self.cache_misses as f64, q),
        );
        m.set(
            "viptree.cache_local_kib",
            ratio(self.cache_bytes as f64, q) / 1024.0,
        );
        m.set(
            "core.dist_computations_per_query",
            ratio(self.dist_computations as f64, q),
        );
        m.set(
            "core.facilities_retrieved_per_query",
            ratio(self.facilities_retrieved as f64, q),
        );
        m.set(
            "core.clients_pruned_share",
            ratio(self.clients_pruned as f64, self.clients as f64),
        );
        m.set("core.peak_mib", self.peak_bytes as f64 / (1024.0 * 1024.0));
    }

    /// The ledger's balance, for the context line: base, summed self
    /// time, unattributed time (all in ms) and their residual, which is
    /// zero whenever the parts add up to the measured wall time.
    pub fn balance_json(&self) -> String {
        let base = self.base_ns as f64 / 1e6;
        let selfs = self.self_total_ns() as f64 / 1e6;
        let un = self.unattributed_ns() as f64 / 1e6;
        format!(
            "{{\"wall_ms\":{},\"self_ms\":{},\"unattributed_ms\":{},\"residual_ms\":{},\"unattributed_share\":{},\"maxsum_unattributed_share\":{}}}",
            crate::json::num(base),
            crate::json::num(selfs),
            crate::json::num(un),
            crate::json::num(base - selfs - un),
            crate::json::num(ratio(un, base)),
            crate::json::num(ratio(
                self.maxsum_base_ns as f64 - self.maxsum_self_ns as f64,
                self.maxsum_base_ns as f64
            )),
        )
    }
}
