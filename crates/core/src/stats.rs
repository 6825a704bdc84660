//! Query instrumentation shared by all solvers.

use std::time::{Duration, Instant};

use ifls_obs::LatencyHistogram;

/// Counters and measurements collected while answering one query.
///
/// `peak_bytes` is a *structural* memory estimate: the solvers track the
/// byte footprint of every query-time data structure (retrieved-facility
/// lists, priority queues, candidate sets, event heaps) and record the
/// maximum. This measures exactly what the paper's memory-cost figures
/// compare — how much state each algorithm accumulates — without allocator
/// noise.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Exact indoor distance evaluations (point↔partition and door-set
    /// minima) plus `iMinD` lower-bound evaluations. Counts *logical*
    /// kernel evaluations, so it is invariant under the distance cache:
    /// a hit and a recomputation count the same.
    pub dist_computations: u64,
    /// Cheap per-client combines of a shared door-distance vector with the
    /// client's door legs (`dist_point_to_partition_via`). Counted apart
    /// from `dist_computations` so grouped and ungrouped runs stay
    /// comparable: grouping replaces a full distance computation per
    /// client with one shared computation plus one lookup per client.
    pub point_via_lookups: u64,
    /// Facility entries retrieved into per-client lists (efficient
    /// approach) or candidate distances materialized (baseline).
    pub facilities_retrieved: u64,
    /// Clients pruned by Lemma 5.1 (efficient approach only).
    pub clients_pruned: u64,
    /// Distance-cache lookups served from a memoized entry.
    pub cache_hits: u64,
    /// Distance-cache lookups that computed and inserted.
    pub cache_misses: u64,
    /// Approximate distance-cache footprint at the end of the query
    /// (shared + local tiers), in bytes.
    pub cache_bytes: usize,
    /// Bytes of the tree's snapshot-shipped warm tier, when one is
    /// attached (reported apart from `cache_bytes`: the warm tier is a
    /// property of the index, not of any one query's cache).
    pub cache_warm_bytes: usize,
    /// Peak structural memory, in bytes.
    pub peak_bytes: usize,
    /// Wall-clock time of the query.
    pub elapsed: Duration,
    /// Per-run latency samples: every serial solve records its wall clock
    /// here, so an aggregate merged from parallel shards or a batch carries
    /// the full distribution (p50/p95/p99), not just the max `elapsed`.
    pub latencies: LatencyHistogram,
    /// Nanoseconds spent obtaining the index before the first query —
    /// building the VIP-tree, or loading a snapshot when `--index` was
    /// used. Stamped by the CLI/bench drivers; zero when the caller built
    /// the index out of band.
    pub index_build_ns: u64,
    /// Whether the index came from an `ifls-index/v1` snapshot rather than
    /// a fresh build (`index_build_ns` then measures the load).
    pub index_from_snapshot: bool,
}

impl QueryStats {
    /// Peak structural memory in mebibytes (the unit of the paper's
    /// figures).
    pub fn peak_mib(&self) -> f64 {
        self.peak_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Folds the counters of a concurrent worker into this aggregate.
    ///
    /// Work counters add up. `peak_bytes` also adds, because parallel
    /// workers hold their scratch structures *simultaneously*, so the
    /// process-wide structural peak is bounded by the sum of per-worker
    /// peaks. `elapsed` takes the maximum: workers run side by side, so
    /// the slowest one bounds the phase (callers typically overwrite it
    /// with the measured outer wall-clock anyway).
    pub fn merge(&mut self, other: &QueryStats) {
        self.dist_computations += other.dist_computations;
        self.point_via_lookups += other.point_via_lookups;
        self.facilities_retrieved += other.facilities_retrieved;
        self.clients_pruned += other.clients_pruned;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        // Workers report local-tier bytes only (the shared tier is counted
        // once by the coordinator), so a plain sum stays honest.
        self.cache_bytes += other.cache_bytes;
        // One warm tier serves every worker; keep the one recorded figure.
        self.cache_warm_bytes = self.cache_warm_bytes.max(other.cache_warm_bytes);
        self.peak_bytes += other.peak_bytes;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.latencies.merge(&other.latencies);
        // One index serves all workers; keep the one recorded figure.
        self.index_build_ns = self.index_build_ns.max(other.index_build_ns);
        self.index_from_snapshot |= other.index_from_snapshot;
    }

    /// Stamps the query's wall clock: sets `elapsed` and records the same
    /// figure as one latency sample.
    pub(crate) fn record_elapsed(&mut self, elapsed: Duration) {
        self.elapsed = elapsed;
        self.latencies.record_ns(elapsed.as_nanos() as u64);
    }

    /// Stamps the wall clock since `start` ([`record_elapsed`]
    /// (Self::record_elapsed)) and mirrors the finished query into the
    /// observability registry ([`record_query_obs`](Self::record_query_obs)).
    pub(crate) fn stamped(mut self, start: Instant) -> Self {
        self.record_elapsed(start.elapsed());
        self.record_query_obs();
        self
    }

    /// Mirrors the finished query into the observability registry (no-op
    /// while tracing is disabled): one `queries` tick, one
    /// `query_latency_ns` sample and the cache-footprint gauge.
    pub(crate) fn record_query_obs(&self) {
        if !ifls_obs::enabled() {
            return;
        }
        ifls_obs::counter_add(ifls_obs::Counter::Queries, 1);
        ifls_obs::record_ns("query_latency_ns", self.elapsed.as_nanos() as u64);
        ifls_obs::gauge_set("dist_cache_bytes", self.cache_bytes as f64);
    }

    /// The fraction of cache lookups served from a memoized entry, or
    /// `None` when the cache saw no traffic.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

/// Incrementally tracked structural memory: the solvers bump the current
/// figure as structures grow or shrink and the peak is retained.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryMeter {
    current: isize,
    peak: isize,
}

impl MemoryMeter {
    /// Account `bytes` of growth (or shrink, when negative).
    #[inline]
    pub fn add(&mut self, bytes: isize) {
        self.current += bytes;
        if self.current > self.peak {
            self.peak = self.current;
        }
    }

    /// The peak observed so far, saturating at zero.
    #[inline]
    pub fn peak_bytes(&self) -> usize {
        self.peak.max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_tracks_peak_not_current() {
        let mut m = MemoryMeter::default();
        m.add(100);
        m.add(200);
        m.add(-250);
        m.add(10);
        assert_eq!(m.peak_bytes(), 300);
    }

    #[test]
    fn meter_never_reports_negative_peak() {
        let mut m = MemoryMeter::default();
        m.add(-50);
        assert_eq!(m.peak_bytes(), 0);
    }

    #[test]
    fn merge_sums_work_and_memory_and_maxes_time() {
        let mut a = QueryStats {
            dist_computations: 10,
            point_via_lookups: 4,
            facilities_retrieved: 5,
            clients_pruned: 2,
            cache_hits: 8,
            cache_misses: 2,
            cache_bytes: 64,
            peak_bytes: 1_000,
            elapsed: Duration::from_millis(30),
            ..QueryStats::default()
        };
        a.latencies.record_ns(30_000_000);
        let mut b = QueryStats {
            dist_computations: 7,
            point_via_lookups: 3,
            facilities_retrieved: 1,
            clients_pruned: 0,
            cache_hits: 2,
            cache_misses: 3,
            cache_bytes: 16,
            peak_bytes: 500,
            elapsed: Duration::from_millis(40),
            ..QueryStats::default()
        };
        b.latencies.record_ns(40_000_000);
        a.merge(&b);
        assert_eq!(a.dist_computations, 17);
        assert_eq!(a.point_via_lookups, 7);
        assert_eq!(a.facilities_retrieved, 6);
        assert_eq!(a.clients_pruned, 2);
        assert_eq!(a.cache_hits, 10);
        assert_eq!(a.cache_misses, 5);
        assert_eq!(a.cache_bytes, 80);
        assert_eq!(a.peak_bytes, 1_500);
        assert_eq!(a.elapsed, Duration::from_millis(40));
        // The merged aggregate keeps both latency samples, so percentiles
        // survive where `elapsed` alone would collapse to the max.
        assert_eq!(a.latencies.count(), 2);
        assert!(a.latencies.p99_ns() >= a.latencies.p50_ns());
    }

    #[test]
    fn record_elapsed_stamps_one_latency_sample() {
        let mut s = QueryStats::default();
        s.record_elapsed(Duration::from_micros(250));
        assert_eq!(s.elapsed, Duration::from_micros(250));
        assert_eq!(s.latencies.count(), 1);
        // 250µs lands in the [2^17, 2^18) ns bucket.
        let p50 = s.latencies.p50_ns();
        assert!((131_072..=262_144).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn cache_hit_rate_handles_idle_cache() {
        assert_eq!(QueryStats::default().cache_hit_rate(), None);
        let s = QueryStats {
            cache_hits: 3,
            cache_misses: 1,
            ..QueryStats::default()
        };
        assert_eq!(s.cache_hit_rate(), Some(0.75));
    }

    #[test]
    fn stats_mib_conversion() {
        let s = QueryStats {
            peak_bytes: 2 * 1024 * 1024,
            ..QueryStats::default()
        };
        assert_eq!(s.peak_mib(), 2.0);
    }
}
