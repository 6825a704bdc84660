//! The metric catalogue and the two output lines.
//!
//! Every run prints a context line (`{"context": …}`: run parameters,
//! failure share, traced-run ledger) and then, as its last line, the
//! result: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are [`END_TO_END`]; with `--trace 1` they are
//! [`PER_LAYER`]. A layer a workload does not run reports `0`.

use std::collections::BTreeMap;

use crate::json;

/// End-to-end metrics: name and unit, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("qps", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics from the traced run: name and unit, in output
/// order. `README.md` maps each to the end-to-end metric it should move.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("venues.build_s", "s"),
    ("viptree.index_build_s", "s"),
    ("viptree.warm_build_s", "s"),
    ("viptree.snapshot_save_s", "s"),
    ("viptree.snapshot_load_s", "s"),
    ("viptree.warm_mib", "MiB"),
    ("viptree.cache_hit_share", "share"),
    ("viptree.cache_misses_per_query", "count/query"),
    ("viptree.cache_lookup_ms", "ms"),
    ("viptree.cache_local_kib", "KiB"),
    ("viptree.cache_evictions", "count/query"),
    ("viptree.cache_inserts_rejected", "count/query"),
    ("core.dist_computations_per_query", "count/query"),
    ("core.facilities_retrieved_per_query", "count/query"),
    ("core.clients_pruned_share", "share"),
    ("core.knn_init_ms", "ms"),
    ("core.group_retrieval_ms", "ms"),
    ("core.prune_ms", "ms"),
    ("core.candidate_loop_ms", "ms"),
    ("core.refine_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.maxsum_unattributed_share", "share"),
    ("core.peak_mib", "MiB"),
    ("core.parallel.steals_per_batch", "count/batch"),
    ("core.parallel.busy_share", "share"),
    ("core.parallel.worker_retries", "count"),
    ("workloads.gen_ms", "ms"),
    ("serve.solve_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.send_lag_ms", "ms"),
    ("serve.scrape_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.panics", "count"),
    ("serve.non200", "count"),
    ("obs.traces_recorded_share", "share"),
    ("obs.trace_overhead", "ratio"),
];

/// Metric values by name. Setting a name outside the catalogue is a bug
/// in the benchmark and panics.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// A metric's value (`0.0` when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Renders `{"name": {"value": v, "unit": u}, …}` for every entry of
    /// `catalogue`, in catalogue order; unset metrics render as `0`.
    pub fn render(&self, catalogue: &[(&str, &str)]) -> String {
        let fields: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::string(name),
                    json::num(self.get(name)),
                    json::string(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// The result line (the last line a run prints).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    trace: bool,
) -> String {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics.render(catalogue)
    )
}

/// An ordered set of context fields, each already rendered as JSON.
#[derive(Clone, Debug, Default)]
pub struct Context {
    fields: Vec<(String, String)>,
}

impl Context {
    /// Adds a number.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, json::num(v))
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, json::string(v))
    }

    /// Adds pre-rendered JSON.
    pub fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.fields.push((key.to_string(), json));
        self
    }

    /// Renders the fields as one JSON object.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", json::string(k)))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host CPU time stolen from this machine's CPUs (`/proc/stat` steal
/// ticks over all ticks) since `since`, a reading of [`cpu_ticks`] — the
/// run context's measure of how contended the host was.
pub fn steal_share(since: Option<(u64, u64)>) -> f64 {
    match (since, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}
