//! Sinks, counters and the log2 latency histogram.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::{Phase, NUM_PHASES};

/// Fixed-slot event counters.
///
/// Slots (rather than string keys) keep the enabled-mode cost of hot-path
/// counting at an array increment; names only materialize at export time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// `DistCache` lookups answered from the warm or local tier.
    DistCacheHits = 0,
    /// `DistCache` lookups that computed the kernel.
    DistCacheMisses = 1,
    /// Whole-generation local-tier evictions.
    DistCacheEvictions = 2,
    /// Incremental kNN steps (heap pops in `IncrementalNn::next`).
    KnnSteps = 3,
    /// Queries answered (one per solver run).
    Queries = 4,
    /// Dijkstra row-source expansions during VIP-tree construction (one
    /// per door that seeds at least one matrix row).
    BuildDijkstras = 5,
    /// Index snapshots written.
    SnapshotSaves = 6,
    /// Index snapshots loaded (successfully).
    SnapshotLoads = 7,
    /// Snapshot loads that were refused (typed `SnapshotError`) and fell
    /// back to an in-process build (`query --index-or-build`).
    SnapshotFallbacks = 8,
    /// Panicked batch queries retried serially by the batch scheduler's
    /// coordinator (one tick per retried item).
    WorkerRetries = 9,
    /// Queries that returned a budget-degraded (best-so-far) answer.
    QueriesDegraded = 10,
    /// HTTP requests accepted and answered by `ifls serve` (any status).
    RequestsTotal = 11,
    /// Requests shed by admission control (503 + `Retry-After`) because
    /// the connection queue was at its watermark.
    RequestsShed = 12,
    /// Snapshot hot-swaps applied by `ifls serve` (`/reload` or SIGHUP).
    ReloadsApplied = 13,
    /// Hot-swap attempts refused with a typed error (corrupt or stale
    /// replacement snapshot); the old index keeps serving.
    ReloadsRefused = 14,
    /// Handler panics caught by the `ifls serve` worker loop: the
    /// connection is dropped but the worker survives to take the next
    /// one (an escaped panic would permanently shrink the fixed pool).
    ServePanics = 15,
    /// `DistCache` misses whose result was not inserted into the local
    /// tier. Nothing ticks it any more: the local tier inserts on every
    /// miss. It stays exported, always 0, because the benchmark ledger
    /// still reads it.
    CacheInsertsRejected = 16,
    /// `ifls serve` queries that met the configured `--slo-ms` target
    /// (status 200 within the target latency).
    SloGood = 17,
    /// `ifls serve` queries that missed the SLO target (over-latency or
    /// a non-200 solver outcome).
    SloBad = 18,
    /// Request traces admitted by the flight recorder.
    TracesRecorded = 19,
    /// Request traces the flight recorder declined (healthy and faster
    /// than everything retained).
    TracesDropped = 20,
    /// Successful work-steal operations in the batch scheduler (one tick
    /// per victim deque a thief drained items from). Unlike every other
    /// counter this one is timing-dependent by design: which deque a
    /// thief hits varies run to run, while the answers never do.
    Steals = 21,
    /// Serve pool workers respawned by the supervisor after a death or a
    /// wedge (rate-limited by the respawn token bucket).
    WorkersRespawned = 22,
    /// Serve pool workers declared wedged (heartbeat stale past the
    /// configured wedge window) and retired by the supervisor.
    WorkersWedged = 23,
}

/// Number of counter slots (the length of [`Counter::ALL`]).
pub(crate) const NUM_COUNTERS: usize = 24;

impl Counter {
    /// Every counter, in canonical export order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::DistCacheHits,
        Counter::DistCacheMisses,
        Counter::DistCacheEvictions,
        Counter::KnnSteps,
        Counter::Queries,
        Counter::BuildDijkstras,
        Counter::SnapshotSaves,
        Counter::SnapshotLoads,
        Counter::SnapshotFallbacks,
        Counter::WorkerRetries,
        Counter::QueriesDegraded,
        Counter::RequestsTotal,
        Counter::RequestsShed,
        Counter::ReloadsApplied,
        Counter::ReloadsRefused,
        Counter::ServePanics,
        Counter::CacheInsertsRejected,
        Counter::SloGood,
        Counter::SloBad,
        Counter::TracesRecorded,
        Counter::TracesDropped,
        Counter::Steals,
        Counter::WorkersRespawned,
        Counter::WorkersWedged,
    ];

    /// Stable snake_case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DistCacheHits => "dist_cache_hits",
            Counter::DistCacheMisses => "dist_cache_misses",
            Counter::DistCacheEvictions => "dist_cache_evictions",
            Counter::KnnSteps => "knn_steps",
            Counter::Queries => "queries",
            Counter::BuildDijkstras => "build_dijkstras",
            Counter::SnapshotSaves => "snapshot_saves",
            Counter::SnapshotLoads => "snapshot_loads",
            Counter::SnapshotFallbacks => "snapshot_fallbacks",
            Counter::WorkerRetries => "worker_retries",
            Counter::QueriesDegraded => "queries_degraded",
            Counter::RequestsTotal => "requests_total",
            Counter::RequestsShed => "requests_shed",
            Counter::ReloadsApplied => "reloads_applied",
            Counter::ReloadsRefused => "reloads_refused",
            Counter::ServePanics => "serve_panics",
            Counter::CacheInsertsRejected => "cache_inserts_rejected",
            Counter::SloGood => "slo_requests_good",
            Counter::SloBad => "slo_requests_bad",
            Counter::TracesRecorded => "traces_recorded",
            Counter::TracesDropped => "traces_dropped",
            Counter::Steals => "steals",
            Counter::WorkersRespawned => "workers_respawned",
            Counter::WorkersWedged => "workers_wedged",
        }
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Aggregated timing of one phase: how many spans closed and their total
/// (inclusive) and self (exclusive of child spans) nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Number of closed spans.
    pub count: u64,
    /// Total inclusive nanoseconds.
    pub total_ns: u64,
    /// Nanoseconds not attributed to nested child spans.
    pub self_ns: u64,
}

impl SpanAgg {
    fn merge(&mut self, other: &SpanAgg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

/// Number of histogram buckets. Bucket `0` holds exact zeros; bucket `i`
/// (`i ≥ 1`) holds values in `[2^(i-1), 2^i)`, covering the full `u64`
/// nanosecond range.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket log2 latency histogram.
///
/// Recording is an increment of one of [`HIST_BUCKETS`] buckets plus an
/// exact running sum; merging is element-wise addition, so histograms
/// merged from worker sinks are independent of scheduling. Percentiles are
/// read out with linear interpolation inside the hit bucket (see
/// [`LatencyHistogram::percentile_ns`]), the standard fixed-bucket
/// approximation: exact to within the bucket's width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// The bucket index a nanosecond value lands in.
    #[inline]
    pub fn bucket_index(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            64 - ns.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `i` (in ns).
    pub fn bucket_lo(i: usize) -> u64 {
        assert!(i < HIST_BUCKETS);
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Exclusive upper bound of bucket `i` (in ns), saturating at `u64::MAX`.
    pub fn bucket_hi(i: usize) -> u64 {
        assert!(i < HIST_BUCKETS);
        if i == 0 {
            1
        } else if i == HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// Records one nanosecond sample.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples (saturating).
    #[inline]
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Element-wise addition of another histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// The `(bucket_lo, count)` pairs of every non-empty bucket, in
    /// ascending value order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), c))
    }

    /// The `q`-quantile (`q` in `[0, 1]`) in nanoseconds.
    ///
    /// The target rank is `ceil(q · count)` (clamped to `[1, count]`); the
    /// readout walks the cumulative bucket counts to the bucket containing
    /// that rank and interpolates linearly inside it at the rank's
    /// *midpoint*: `lo + (hi - lo) · (rank_within_bucket - ½) /
    /// bucket_count`. The midpoint convention keeps the readout strictly
    /// inside the bucket — the last rank of a bucket reads just below
    /// `hi` instead of the raw log2 upper bound (which made a 55 ms
    /// stream report a 4.29 s p95). Returns 0 for an empty histogram.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                if i == 0 {
                    return 0;
                }
                let lo = Self::bucket_lo(i) as f64;
                let hi = Self::bucket_hi(i) as f64;
                let k = (target - cum) as f64;
                return (lo + (hi - lo) * (k - 0.5) / c as f64) as u64;
            }
            cum += c;
        }
        // Unreachable: count > 0 guarantees the walk terminates above.
        Self::bucket_hi(HIST_BUCKETS - 1)
    }

    /// Interpolated median.
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(0.50)
    }

    /// Interpolated 95th percentile.
    pub fn p95_ns(&self) -> u64 {
        self.percentile_ns(0.95)
    }

    /// Interpolated 99th percentile.
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(0.99)
    }
}

/// A drained snapshot of one thread's observations.
///
/// Spans and counters use fixed slots; gauges and histograms are named
/// (`BTreeMap` keeps export order deterministic).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsSink {
    pub(crate) spans: [SpanAgg; NUM_PHASES],
    pub(crate) counters: [u64; NUM_COUNTERS],
    pub(crate) gauges: BTreeMap<&'static str, f64>,
    pub(crate) hists: BTreeMap<&'static str, LatencyHistogram>,
}

impl ObsSink {
    /// The aggregate of one phase.
    pub fn span(&self, p: Phase) -> SpanAgg {
        self.spans[p.index()]
    }

    /// The value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// The named gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// A named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.hists.get(name)
    }

    /// The named histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &LatencyHistogram)> + '_ {
        self.hists.iter().map(|(&k, v)| (k, v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.iter().all(|s| s.count == 0 && s.total_ns == 0)
            && self.counters.iter().all(|&c| c == 0)
            && self.gauges.is_empty()
            && self.hists.is_empty()
    }

    /// Folds `other` into `self`: spans, counters and histograms add
    /// element-wise; gauges are last-write-wins.
    pub fn merge(&mut self, other: &ObsSink) {
        for (s, o) in self.spans.iter_mut().zip(other.spans.iter()) {
            s.merge(o);
        }
        for (c, o) in self.counters.iter_mut().zip(other.counters.iter()) {
            *c += o;
        }
        for (&k, &v) in &other.gauges {
            self.gauges.insert(k, v);
        }
        for (&k, h) in &other.hists {
            self.hists.entry(k).or_default().merge(h);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<ObsSink> = RefCell::new(ObsSink::default());
}

#[inline]
pub(crate) fn counter_add_local(c: Counter, v: u64) {
    LOCAL.with(|l| l.borrow_mut().counters[c.index()] += v);
}

pub(crate) fn gauge_set_local(name: &'static str, v: f64) {
    LOCAL.with(|l| {
        l.borrow_mut().gauges.insert(name, v);
    });
}

pub(crate) fn record_ns_local(name: &'static str, ns: u64) {
    LOCAL.with(|l| l.borrow_mut().hists.entry(name).or_default().record_ns(ns));
}

#[inline]
pub(crate) fn record_span_local(p: Phase, total_ns: u64, self_ns: u64) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let agg = &mut l.spans[p.index()];
        agg.count += 1;
        agg.total_ns += total_ns;
        agg.self_ns += self_ns;
    });
}

pub(crate) fn take_local() -> ObsSink {
    LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

pub(crate) fn merge_local(sink: &ObsSink) {
    LOCAL.with(|l| l.borrow_mut().merge(sink));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        // Exact zeros get their own bucket.
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        // Bucket i (i ≥ 1) covers [2^(i-1), 2^i).
        for i in 1..=63usize {
            let lo = 1u64 << (i - 1);
            assert_eq!(LatencyHistogram::bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(
                LatencyHistogram::bucket_index(lo + (lo - 1)),
                i,
                "hi of bucket {i}"
            );
        }
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 64);
        // bucket_lo/bucket_hi agree with bucket_index.
        for i in 0..HIST_BUCKETS {
            let lo = LatencyHistogram::bucket_lo(i);
            assert_eq!(LatencyHistogram::bucket_index(lo), i);
            let hi = LatencyHistogram::bucket_hi(i);
            assert!(hi > lo);
        }
    }

    #[test]
    fn percentile_interpolates_within_bucket() {
        let mut h = LatencyHistogram::default();
        // Four samples in bucket 4 ([8, 16)).
        for _ in 0..4 {
            h.record_ns(8);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_ns(), 32);
        // target rank = ceil(0.5 * 4) = 2 → 8 + (16-8) * 1.5/4 = 11.
        assert_eq!(h.p50_ns(), 11);
        // rank 4 → 8 + 8 * 3.5/4 = 15: strictly below the bucket's upper
        // bound (the raw `hi` readout is the bug this pins against).
        assert_eq!(h.percentile_ns(1.0), 15);
        // rank 1 → 8 + 8 * 0.5/4 = 9.
        assert_eq!(h.percentile_ns(0.25), 9);
        // A single-sample bucket reads its midpoint, not its upper bound.
        let mut one = LatencyHistogram::default();
        one.record_ns(55_000_000); // bucket [2^25, 2^26)
        let p95 = one.p95_ns();
        assert!(
            (33_554_432..67_108_864).contains(&p95),
            "p95 = {p95} must stay inside the sample's bucket"
        );
    }

    #[test]
    fn percentile_walks_buckets_in_order() {
        let mut h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record_ns(100); // bucket 7: [64, 128)
        }
        for _ in 0..10 {
            h.record_ns(100_000); // bucket 17: [65536, 131072)
        }
        // p50 rank 50 lands in the first bucket.
        let p50 = h.p50_ns();
        assert!((64..128).contains(&p50), "p50 = {p50}");
        // p95 rank 95 lands in the tail bucket.
        let p95 = h.p95_ns();
        assert!((65_536..=131_072).contains(&p95), "p95 = {p95}");
        assert!(h.p99_ns() >= p95);
        // Zero samples → zero percentiles.
        assert_eq!(LatencyHistogram::default().p50_ns(), 0);
        // All-zero samples → bucket 0 → 0.
        let mut z = LatencyHistogram::default();
        z.record_ns(0);
        assert_eq!(z.p99_ns(), 0);
    }

    #[test]
    fn merge_is_elementwise_addition() {
        let mut a = LatencyHistogram::default();
        a.record_ns(10);
        a.record_ns(1000);
        let mut b = LatencyHistogram::default();
        b.record_ns(10);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum_ns(), 1020);
        let buckets: Vec<_> = merged.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(8, 2), (512, 1)]);

        let mut s1 = ObsSink::default();
        s1.counters[Counter::DistCacheHits.index()] = 2;
        s1.spans[Phase::Prune.index()] = SpanAgg {
            count: 1,
            total_ns: 10,
            self_ns: 10,
        };
        s1.gauges.insert("g", 1.0);
        let mut s2 = ObsSink::default();
        s2.counters[Counter::DistCacheHits.index()] = 3;
        s2.gauges.insert("g", 2.0);
        s2.hists.insert("h", b);
        // Merge in both orders: counts identical (gauge takes the merged-in
        // value — last write wins).
        let mut m12 = s1.clone();
        m12.merge(&s2);
        let mut m21 = s2.clone();
        m21.merge(&s1);
        assert_eq!(m12.counter(Counter::DistCacheHits), 5);
        assert_eq!(m21.counter(Counter::DistCacheHits), 5);
        assert_eq!(m12.span(Phase::Prune), m21.span(Phase::Prune));
        assert_eq!(m12.histogram("h").unwrap(), m21.histogram("h").unwrap());
    }
}
