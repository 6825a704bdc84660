//! Machine-readable perf baselines for the distance-kernel cache.
//!
//! Replays a *serving-shaped* query stream against each of the paper's four
//! venues: the venue and the facility sets stay fixed while the client set
//! churns from query to query, which is exactly the regime the shared memo
//! cache targets. Every (venue, objective) pair is measured twice — once
//! with a single [`DistCache`] that persists across the whole stream, once
//! with caching disabled — and the per-query answers are compared
//! bit-for-bit between the two modes. Any divergence exits non-zero, which
//! the CI smoke job relies on.
//!
//! Timing runs execute with tracing *disabled* (the production default);
//! a separate traced round per cell collects the per-phase span breakdown
//! that lands in the `phases` column. Cache-on rows run against a tree
//! carrying the snapshot-shipped warm door-vector tier (what `index build
//! --cache-warm` produces); cache-off rows use the same tree but the
//! disabled cache never consults it. `--md PATH` additionally renders the
//! rows as a markdown report (used to regenerate
//! `figures_quick_output.md`), `--obs-smoke` runs the disabled-mode
//! overhead assertion the CI bench-smoke job enforces, `--cache-smoke`
//! fails if the cache-on MZB stream regresses the cache-off one by >5%,
//! `--trace-smoke` fails if per-request trace capture plus
//! flight-recorder offers cost more than 3% of the same stream (estimated
//! per site, as `--obs-smoke` does) or change any answer bit, and
//! `--batch-smoke` fails unless batch dispatch through [`BatchRunner`]
//! beats sequential dispatch of the same queries by ≥1.2x with
//! bit-identical answers.
//!
//! Results go to `BENCH_core.json`, or with `--quick` (a shrunk stream for
//! CI) to `target/BENCH_core_quick.json`, so a quick run never overwrites
//! the checked-in full-run baseline; `--out PATH` overrides either. The
//! schema is documented in `EXPERIMENTS.md`.

use std::time::Instant;

use ifls_core::parallel::{BatchRunner, IflsQuery};
use ifls_core::{
    Budget, EfficientConfig, EfficientIfls, EfficientSolver, MaxSum, MinDist, MinMax,
    ObjectivePolicy, QueryStats,
};
use ifls_indoor::PartitionId;
use ifls_obs::{Counter, LatencyHistogram, Phase, SpanAgg};
use ifls_venues::NamedVenue;
use ifls_viptree::{DistCache, VipTree, VipTreeConfig};
use ifls_workloads::{Workload, WorkloadBuilder};

/// Bumped whenever a field is added, renamed, or re-interpreted.
const SCHEMA: &str = "ifls-bench-core/v7";

/// Below this many samples the reported percentiles are exact order
/// statistics over the raw per-query times (nearest-rank convention); at
/// or above it they come from the log2 latency histogram with
/// within-bucket interpolation. Bench streams are short, and a log2
/// bucket can be wider than the whole spread of a 24-query stream —
/// exact statistics cost nothing at this scale and remove that error.
const EXACT_PERCENTILE_MAX: usize = 128;

/// Stream shape: how many distinct client sets and how often each repeats.
#[derive(Clone, Copy)]
struct StreamSpec {
    clients: usize,
    existing: usize,
    candidates: usize,
    queries: usize,
    rounds: usize,
}

impl StreamSpec {
    fn full() -> Self {
        Self {
            clients: 100,
            existing: 12,
            candidates: 24,
            queries: 8,
            rounds: 2,
        }
    }

    fn quick() -> Self {
        Self {
            clients: 80,
            existing: 6,
            candidates: 12,
            queries: 3,
            rounds: 1,
        }
    }
}

/// One measured (venue, objective, cache mode) cell.
struct RowOut {
    venue: &'static str,
    algorithm: &'static str,
    threads: usize,
    cache: bool,
    queries: usize,
    median_ns: u128,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    dist_computations: u64,
    /// Aggregate solve throughput of the row's stream.
    queries_per_sec: f64,
    /// Work-steal operations observed while the row ran (zero on the
    /// single-threaded streams; populated by batch rows).
    steals: u64,
    cache_hit_rate: Option<f64>,
    cache_bytes: usize,
    /// Bytes of the tree's warm tier as reported by the solvers (zero on
    /// cache-off rows: a disabled cache never consults the warm tier).
    cache_warm_bytes: usize,
    /// Wall-clock nanoseconds the venue's VIP-tree took to build (shared
    /// by every row of the venue; `--build-threads` controls the worker
    /// count and never changes the index bytes).
    index_build_ns: u64,
    /// Per-phase span aggregates from the traced round (indexed by
    /// [`Phase`]); the timed rounds above run untraced.
    phases: [SpanAgg; ifls_obs::NUM_PHASES],
}

/// Per-query fingerprint used for the cache-on vs cache-off divergence
/// check: the chosen candidate plus the exact objective bits.
#[derive(PartialEq, Eq, Debug)]
struct Fingerprint {
    answer: Option<u32>,
    objective_bits: u64,
}

/// Everything one stream replay produces.
struct StreamResult {
    fingerprints: Vec<Fingerprint>,
    times_ns: Vec<u128>,
    latencies: LatencyHistogram,
    dist_computations: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_bytes: usize,
    cache_warm_bytes: usize,
}

fn median_ns(times: &[u128]) -> u128 {
    let mut sorted = times.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// `(p50, p95, p99)` for one stream: exact order statistics when the
/// sample count is under [`EXACT_PERCENTILE_MAX`], histogram-interpolated
/// above (the histogram is the only thing that scales to long streams).
fn percentiles_ns(times: &[u128], hist: &LatencyHistogram) -> (u64, u64, u64) {
    if times.is_empty() || times.len() >= EXACT_PERCENTILE_MAX {
        return (hist.p50_ns(), hist.p95_ns(), hist.p99_ns());
    }
    let mut sorted = times.to_vec();
    sorted.sort_unstable();
    let pick = |q: f64| -> u64 {
        // Nearest-rank: the smallest sample with at least q of the mass
        // at or below it.
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as u64
    };
    (pick(0.50), pick(0.95), pick(0.99))
}

/// Aggregate throughput of one stream replay (queries per second of
/// wall time actually spent solving).
fn queries_per_sec(times: &[u128]) -> f64 {
    let total_ns: u128 = times.iter().sum();
    if total_ns == 0 {
        return 0.0;
    }
    times.len() as f64 * 1e9 / total_ns as f64
}

fn accumulate(out: &mut StreamResult, stats: &QueryStats) {
    out.dist_computations += stats.dist_computations;
    out.cache_hits += stats.cache_hits;
    out.cache_misses += stats.cache_misses;
    out.cache_bytes = out.cache_bytes.max(stats.cache_bytes);
    out.cache_warm_bytes = out.cache_warm_bytes.max(stats.cache_warm_bytes);
}

/// Answers `w` under the objective policy `P` through the stream's
/// long-lived cache.
fn replay<P: ObjectivePolicy>(
    tree: &VipTree<'_>,
    config: EfficientConfig,
    w: &Workload,
    cache: &mut DistCache,
) -> P::Outcome {
    EfficientSolver::<P>::with_config(tree, config).run_with_cache(
        &w.clients,
        &w.existing,
        &w.candidates,
        cache,
        &Budget::unlimited(),
    )
}

fn fingerprint(answer: Option<PartitionId>, objective_bits: u64) -> Fingerprint {
    Fingerprint {
        answer: answer.map(|p| p.raw()),
        objective_bits,
    }
}

/// Replays `rounds` passes over the query stream with one long-lived cache
/// (or a disabled one), timing each query and fingerprinting the answers of
/// the first round.
fn run_stream(
    tree: &VipTree<'_>,
    queries: &[Workload],
    algorithm: &'static str,
    cache_on: bool,
    rounds: usize,
) -> StreamResult {
    let config = EfficientConfig {
        dist_cache: cache_on,
        ..EfficientConfig::default()
    };
    let mut cache = DistCache::with_enabled(cache_on);
    let mut out = StreamResult {
        fingerprints: Vec::new(),
        times_ns: Vec::new(),
        latencies: LatencyHistogram::default(),
        dist_computations: 0,
        cache_hits: 0,
        cache_misses: 0,
        cache_bytes: 0,
        cache_warm_bytes: 0,
    };
    for round in 0..rounds {
        for w in queries {
            let started = Instant::now();
            let (fp, stats) = match algorithm {
                "efficient-minmax" => {
                    let o = replay::<MinMax>(tree, config, w, &mut cache);
                    (fingerprint(o.answer, o.objective.to_bits()), o.stats)
                }
                "efficient-mindist" => {
                    let o = replay::<MinDist>(tree, config, w, &mut cache);
                    (fingerprint(o.answer, o.total.to_bits()), o.stats)
                }
                "efficient-maxsum" => {
                    let o = replay::<MaxSum>(tree, config, w, &mut cache);
                    (fingerprint(o.answer, o.wins), o.stats)
                }
                other => panic!("unknown algorithm {other}"),
            };
            accumulate(&mut out, &stats);
            let elapsed = started.elapsed();
            out.times_ns.push(elapsed.as_nanos());
            out.latencies.record_ns(elapsed.as_nanos() as u64);
            if round == 0 {
                out.fingerprints.push(fp);
            }
        }
    }
    out
}

/// Builds the serving-shaped stream: facilities drawn once, clients churned
/// per query with decorrelated seeds.
fn build_stream(venue: &ifls_indoor::Venue, spec: StreamSpec) -> Vec<Workload> {
    let base = WorkloadBuilder::new(venue)
        .clients_uniform(spec.clients)
        .existing_uniform(spec.existing)
        .candidates_uniform(spec.candidates)
        .seed(7)
        .build();
    (0..spec.queries)
        .map(|q| {
            let mut w = WorkloadBuilder::new(venue)
                .clients_uniform(spec.clients)
                .seed(1_000 + q as u64)
                .build();
            w.existing = base.existing.clone();
            w.candidates = base.candidates.clone();
            w
        })
        .collect()
}

/// Replays one traced round of the stream and returns the per-phase span
/// aggregates. Kept apart from the timed rounds so tracing overhead never
/// contaminates the reported medians.
fn collect_phases(
    tree: &VipTree<'_>,
    queries: &[Workload],
    algorithm: &'static str,
    cache_on: bool,
) -> [SpanAgg; ifls_obs::NUM_PHASES] {
    ifls_obs::set_enabled(true);
    let _ = ifls_obs::take_local();
    run_stream(tree, queries, algorithm, cache_on, 1);
    let sink = ifls_obs::take_local();
    ifls_obs::set_enabled(false);
    let mut out = [SpanAgg::default(); ifls_obs::NUM_PHASES];
    for (i, phase) in Phase::ALL.into_iter().enumerate() {
        out[i] = sink.span(phase);
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn phases_json(phases: &[SpanAgg; ifls_obs::NUM_PHASES]) -> String {
    let fields: Vec<String> = Phase::ALL
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let a = &phases[i];
            format!(
                "\"{}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                p.name(),
                a.count,
                a.total_ns,
                a.self_ns
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_json(path: &str, quick: bool, rows: &[RowOut]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"{}\",", json_escape(SCHEMA));
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let hit_rate = match r.cache_hit_rate {
            Some(h) => format!("{h:.6}"),
            None => "null".to_string(),
        };
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"venue\": \"{}\", \"algorithm\": \"{}\", \"threads\": {}, \
             \"cache\": {}, \"queries\": {}, \"median_ns\": {}, \
             \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \
             \"dist_computations\": {}, \"queries_per_sec\": {:.3}, \
             \"steals\": {}, \
             \"cache_hit_rate\": {}, \
             \"cache_bytes\": {}, \"cache_warm_bytes\": {}, \
             \"index_build_ns\": {}, \"available_parallelism\": {}, \
             \"phases\": {}}}{}",
            json_escape(r.venue),
            json_escape(r.algorithm),
            r.threads,
            r.cache,
            r.queries,
            r.median_ns,
            r.p50_ns,
            r.p95_ns,
            r.p99_ns,
            r.dist_computations,
            r.queries_per_sec,
            r.steals,
            hit_rate,
            r.cache_bytes,
            r.cache_warm_bytes,
            r.index_build_ns,
            parallelism,
            phases_json(&r.phases),
            comma,
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    std::fs::write(path, s)
}

fn ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

/// Renders the measured rows as a markdown report (the generator behind
/// `figures_quick_output.md`): per venue one latency table over both cache
/// modes and one per-phase self-time table for the cached configuration.
fn write_md(path: &str, quick: bool, rows: &[RowOut]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Distance-cache serving baselines ({}, schema `{}`)",
        if quick { "quick stream" } else { "full stream" },
        SCHEMA
    );
    let _ = writeln!(s);
    // Advertise the canonical invocation, not the (possibly absolute)
    // path this run happened to receive.
    let _ = writeln!(
        s,
        "Generated by `cargo run --release -p ifls-bench --bin bench_core -- {}--md figures_quick_output.md`;",
        if quick { "--quick " } else { "" }
    );
    let _ = writeln!(
        s,
        "numbers match the rows that run writes to `{}`. Latency percentiles come",
        ifls_bench::default_out("core", quick)
    );
    let _ = writeln!(
        s,
        "from the per-query log2 histogram (`ifls-obs`) with within-bucket interpolation"
    );
    let _ = writeln!(
        s,
        "(midpoint convention), so they sit inside their bucket rather than pinning to its"
    );
    let _ = writeln!(
        s,
        "upper bound; the phase table reports traced self-time per phase over one replay round."
    );
    for nv in NamedVenue::ALL {
        let venue_rows: Vec<&RowOut> = rows.iter().filter(|r| r.venue == nv.label()).collect();
        if venue_rows.is_empty() {
            continue;
        }
        let _ = writeln!(s, "\n## {}\n", nv.label());
        let _ = writeln!(
            s,
            "| algorithm | cache | queries | median (ms) | p50 (ms) | p95 (ms) | p99 (ms) | dist comps | hit rate |"
        );
        let _ = writeln!(
            s,
            "|-----------|:-----:|--------:|------------:|---------:|---------:|---------:|-----------:|---------:|"
        );
        for r in &venue_rows {
            let hit = match r.cache_hit_rate {
                Some(h) => format!("{:.1}%", h * 100.0),
                None => "—".into(),
            };
            let _ = writeln!(
                s,
                "| {} | {} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {} | {} |",
                r.algorithm,
                if r.cache { "on" } else { "off" },
                r.queries,
                ms(r.median_ns),
                ms(r.p50_ns as u128),
                ms(r.p95_ns as u128),
                ms(r.p99_ns as u128),
                r.dist_computations,
                hit,
            );
        }
        let _ = writeln!(s, "\n### Phase self-time, cache on (ms per traced round)\n");
        let mut header = String::from("| algorithm |");
        let mut rule = String::from("|-----------|");
        for p in Phase::ALL {
            let _ = write!(header, " {} |", p.name());
            rule.push_str("--:|");
        }
        let _ = writeln!(s, "{header}");
        let _ = writeln!(s, "{rule}");
        for r in venue_rows.iter().filter(|r| r.cache) {
            let mut line = format!("| {} |", r.algorithm);
            for a in &r.phases {
                let _ = write!(line, " {:.3} |", a.self_ns as f64 / 1e6);
            }
            let _ = writeln!(s, "{line}");
        }
    }
    std::fs::write(path, s)
}

/// Pins the "tracing off costs ≤ 1%" claim.
///
/// A literal enabled-vs-disabled wall-clock diff cannot hold at 1% — an
/// enabled span pays two monotonic-clock reads, and the cache-miss path
/// records thousands of them — so the assertion splits the claim the way
/// the docs state it:
///
/// 1. *Disabled* record sites must be ~free: microbench the per-call cost
///    of a disabled span and counter, multiply by the number of sites the
///    smoke stream actually executes (counted by a traced round), and
///    require the product to stay under 1% of the untraced stream's
///    fastest run.
/// 2. *Enabled* tracing must stay usable: the traced round must finish
///    within a loose factor of the untraced one (sanity bound, not a
///    precision claim).
fn obs_smoke() -> i32 {
    const DISABLED_BUDGET: f64 = 0.01;
    const ENABLED_SANITY_FACTOR: f64 = 3.0;
    let venue = NamedVenue::CPH.build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    let queries = build_stream(&venue, StreamSpec::quick());

    ifls_obs::set_enabled(false);
    let mut untraced_ns = u128::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        run_stream(&tree, &queries, "efficient-minmax", true, 1);
        untraced_ns = untraced_ns.min(t.elapsed().as_nanos());
    }

    ifls_obs::set_enabled(true);
    let _ = ifls_obs::take_local();
    let t = Instant::now();
    run_stream(&tree, &queries, "efficient-minmax", true, 1);
    let traced_ns = t.elapsed().as_nanos();
    let sink = ifls_obs::take_local();
    ifls_obs::set_enabled(false);

    // Count the record sites the stream executes: one span guard per
    // recorded span, one counter call per counted event, one histogram
    // sample per recorded latency.
    let span_sites: u64 = Phase::ALL.iter().map(|&p| sink.span(p).count).sum();
    let event_sites: u64 = Counter::ALL.iter().map(|&c| sink.counter(c)).sum();
    let hist_sites: u64 = sink.histograms().map(|(_, h)| h.count()).sum();

    // Microbench the disabled-mode cost per record site (one relaxed
    // atomic load and a branch).
    let iters = 4_000_000u64;
    let t = Instant::now();
    for _ in 0..iters {
        let g = ifls_obs::span(std::hint::black_box(Phase::Prune));
        std::hint::black_box(&g);
    }
    let span_cost = t.elapsed().as_nanos() as f64 / iters as f64;
    let t = Instant::now();
    for _ in 0..iters {
        ifls_obs::counter_add(std::hint::black_box(Counter::KnnSteps), 1);
    }
    let event_cost = t.elapsed().as_nanos() as f64 / iters as f64;

    let disabled_overhead_ns =
        span_sites as f64 * span_cost + (event_sites + hist_sites) as f64 * event_cost;
    let disabled_share = disabled_overhead_ns / untraced_ns as f64;
    let traced_factor = traced_ns as f64 / untraced_ns as f64;
    println!(
        "obs-smoke: untraced stream {:.3} ms (best of 3), traced {:.3} ms ({traced_factor:.2}x)",
        ms(untraced_ns),
        ms(traced_ns),
    );
    println!(
        "obs-smoke: {span_sites} spans + {event_sites} events + {hist_sites} samples; \
         disabled cost {span_cost:.2} ns/span, {event_cost:.2} ns/event \
         => {:.4}% of untraced time (budget {:.0}%)",
        disabled_share * 100.0,
        DISABLED_BUDGET * 100.0,
    );

    let mut failed = false;
    if disabled_share > DISABLED_BUDGET {
        eprintln!(
            "FAIL: disabled-mode record sites cost {:.4}% of the untraced stream (> {:.0}%)",
            disabled_share * 100.0,
            DISABLED_BUDGET * 100.0
        );
        failed = true;
    }
    if traced_factor > ENABLED_SANITY_FACTOR {
        eprintln!(
            "FAIL: traced round took {traced_factor:.2}x the untraced stream \
             (sanity bound {ENABLED_SANITY_FACTOR}x)"
        );
        failed = true;
    }
    if failed {
        1
    } else {
        0
    }
}

/// The CI cache regression gate: on the venue where the old cache was a
/// wash (MZB's ~4% hit rate made lookups pure overhead), the cache-on
/// stream must not regress the cache-off stream by more than 5%. Uses the
/// best median of three replays per mode so scheduler noise cannot fail
/// the job.
fn cache_smoke() -> i32 {
    const REGRESSION_BUDGET: f64 = 1.05;
    let venue = NamedVenue::MZB.build();
    let mut tree = VipTree::build(&venue, VipTreeConfig::default());
    let tier = tree.build_warm_tier(ifls_viptree::DEFAULT_WARM_BUDGET_BYTES, 0);
    tree.set_warm_tier(Some(tier));
    let queries = build_stream(&venue, StreamSpec::quick());
    let best_median = |cache_on: bool| -> u128 {
        (0..3)
            .map(|_| {
                median_ns(&run_stream(&tree, &queries, "efficient-minmax", cache_on, 1).times_ns)
            })
            .min()
            .expect("three replays")
    };
    let med_off = best_median(false);
    let med_on = best_median(true);
    let ratio = med_on as f64 / med_off.max(1) as f64;
    println!(
        "cache-smoke: MZB efficient-minmax cache-on {:.3} ms vs cache-off {:.3} ms ({ratio:.3}x)",
        ms(med_on),
        ms(med_off),
    );
    if ratio > REGRESSION_BUDGET {
        eprintln!(
            "FAIL: cache-on median is {ratio:.3}x the cache-off median (budget {REGRESSION_BUDGET}x)"
        );
        return 1;
    }
    0
}

/// The CI batch-throughput gate: 16 MZB MinMax queries that share one
/// client set (so the batch builds their client legs once) must run at
/// least 1.2x faster through [`BatchRunner`] — shared client legs, one
/// scheduler pass, persistent per-worker caches — than dispatched
/// sequentially, each query standalone with a fresh cache. Answers must
/// be bit-identical between the two dispatch modes. Best-of-3 per mode so
/// scheduler noise cannot fail the job; a traced (untimed) round reports
/// the steal counter.
fn batch_smoke() -> i32 {
    const SPEEDUP_FLOOR: f64 = 1.2;
    const THREADS: usize = 4;
    let venue = NamedVenue::MZB.build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    // The shape the batch engine is built for: every query shares one
    // client population and draws its facilities from one shared pool
    // of 24 sites (8 existing + 12 candidates per query, distinct per-seed
    // shuffles). Facility overlap across queries is what the batch path's
    // persistent per-worker caches turn into saved distance work; the
    // sequential baseline recomputes it per query.
    let base = WorkloadBuilder::new(&venue)
        .clients_uniform(240)
        .existing_uniform(8)
        .candidates_uniform(16)
        .seed(0xba7c)
        .build();
    let clients = base.clients;
    let mut pool = [base.existing, base.candidates].concat();
    let queries: Vec<IflsQuery> = (0..16)
        .map(|i| {
            let mut rng = ifls_rng::StdRng::seed_from_u64(0xba7c_0100 + i as u64);
            for a in 0..pool.len() {
                let b = rng.random_range(a..pool.len());
                pool.swap(a, b);
            }
            IflsQuery {
                clients: clients.clone(),
                existing: pool[..8].to_vec(),
                candidates: pool[8..20].to_vec(),
            }
        })
        .collect();
    let config = EfficientConfig::default();

    let sequential = |queries: &[IflsQuery]| -> (Vec<Fingerprint>, u128) {
        let started = Instant::now();
        let fps = queries
            .iter()
            .map(|q| {
                let mut cache = DistCache::with_enabled(config.dist_cache);
                let o = EfficientIfls::with_config(&tree, config).run_with_cache(
                    &q.clients,
                    &q.existing,
                    &q.candidates,
                    &mut cache,
                    &Budget::unlimited(),
                );
                fingerprint(o.answer, o.objective.to_bits())
            })
            .collect();
        (fps, started.elapsed().as_nanos())
    };
    let runner = BatchRunner::with_threads(&tree, THREADS).config(config);
    let batched = |queries: &[IflsQuery]| -> (Vec<Fingerprint>, u128) {
        let started = Instant::now();
        let fps = runner
            .run::<MinMax>(queries)
            .into_iter()
            .map(|o| fingerprint(o.answer, o.objective.to_bits()))
            .collect();
        (fps, started.elapsed().as_nanos())
    };

    let mut seq_ns = u128::MAX;
    let mut batch_ns = u128::MAX;
    let mut fps_seq = Vec::new();
    let mut fps_batch = Vec::new();
    for _ in 0..3 {
        let (f, ns) = sequential(&queries);
        seq_ns = seq_ns.min(ns);
        fps_seq = f;
        let (f, ns) = batched(&queries);
        batch_ns = batch_ns.min(ns);
        fps_batch = f;
    }

    // Untimed traced round: surface how much the scheduler actually stole.
    ifls_obs::set_enabled(true);
    let _ = ifls_obs::take_local();
    let _ = runner.run::<MinMax>(&queries);
    let steals = ifls_obs::take_local().counter(Counter::Steals);
    ifls_obs::set_enabled(false);

    let speedup = seq_ns as f64 / batch_ns.max(1) as f64;
    let qps = queries.len() as f64 * 1e9 / batch_ns.max(1) as f64;
    println!(
        "batch-smoke: MZB minmax x{} sequential {:.3} ms, batched({THREADS} threads) {:.3} ms \
         => {speedup:.2}x, {qps:.1} queries/s, {steals} steal(s)",
        queries.len(),
        ms(seq_ns),
        ms(batch_ns),
    );
    let mut failed = false;
    if fps_batch != fps_seq {
        eprintln!("FAIL: batched answers diverged from sequential dispatch");
        failed = true;
    }
    if speedup < SPEEDUP_FLOOR {
        eprintln!("FAIL: batched throughput is {speedup:.2}x sequential (floor {SPEEDUP_FLOOR}x)");
        failed = true;
    }
    if failed {
        1
    } else {
        0
    }
}

/// Ends `scope` and offers its trace to `recorder`: the per-request work
/// `ifls serve` adds around each solver dispatch.
fn offer_trace(
    scope: ifls_obs::TraceScope,
    recorder: &ifls_obs::FlightRecorder,
    total_ns: u64,
    stats: &QueryStats,
) {
    if let Some(mut t) = scope.finish() {
        t.status = 200;
        t.objective = "minmax".into();
        t.algorithm = "efficient".into();
        t.total_ns = total_ns;
        t.dist_computations = stats.dist_computations;
        t.cache_hits = stats.cache_hits;
        t.cache_misses = stats.cache_misses;
        recorder.offer(t);
    }
}

/// One pass over the stream with tracing enabled, optionally capturing a
/// per-request trace per query and offering it to `recorder`.
fn run_traced_stream(
    tree: &VipTree<'_>,
    queries: &[Workload],
    recorder: Option<&ifls_obs::FlightRecorder>,
) -> (Vec<Fingerprint>, Vec<u128>) {
    let config = EfficientConfig::default();
    let mut cache = DistCache::with_enabled(true);
    let mut fingerprints = Vec::new();
    let mut times = Vec::new();
    for w in queries {
        let started = Instant::now();
        let scope = recorder.map(|_| ifls_obs::TraceScope::begin(ifls_obs::TraceContext::next()));
        let o = EfficientIfls::with_config(tree, config).run_with_cache(
            &w.clients,
            &w.existing,
            &w.candidates,
            &mut cache,
            &Budget::unlimited(),
        );
        if let (Some(scope), Some(rec)) = (scope, recorder) {
            offer_trace(scope, rec, started.elapsed().as_nanos() as u64, &o.stats);
        }
        times.push(started.elapsed().as_nanos());
        fingerprints.push(fingerprint(o.answer, o.objective.to_bits()));
    }
    (fingerprints, times)
}

/// Microbenched per-site costs of the recorder path, in ns: one request's
/// capture and offer, and what an armed scope adds to one span's close.
///
/// Both are measured on their slow paths. Every offer outranks the
/// retained minimum of a full recorder, so it takes the lock and replaces
/// an entry. The armed span's trace already holds one cell per query
/// phase, so its capture scans them all. Each span time is the best of
/// three runs.
fn recorder_site_costs() -> (f64, f64) {
    const ITERS: u32 = 1_000_000;
    let recorder = ifls_obs::FlightRecorder::new(64);
    let stats = QueryStats::default();
    let t = Instant::now();
    for i in 0..ITERS {
        let scope = ifls_obs::TraceScope::begin(ifls_obs::TraceContext::next());
        offer_trace(scope, &recorder, u64::from(i), std::hint::black_box(&stats));
    }
    let offer_cost = t.elapsed().as_nanos() as f64 / f64::from(ITERS);

    let span_time = || {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..ITERS {
                    let g = ifls_obs::span(std::hint::black_box(Phase::CacheLookup));
                    std::hint::black_box(&g);
                }
                t.elapsed().as_nanos() as f64 / f64::from(ITERS)
            })
            .fold(f64::INFINITY, f64::min)
    };
    let unarmed = span_time();
    let scope = ifls_obs::TraceScope::begin(ifls_obs::TraceContext::next());
    for phase in Phase::QUERY {
        drop(ifls_obs::span(phase));
    }
    let armed = span_time();
    drop(scope.finish());
    (offer_cost, (armed - unarmed).max(0.0))
}

/// The CI recorder-overhead gate: per-request trace capture plus
/// flight-recorder offers must cost at most 3% of the MZB stream, with
/// bit-identical answers and a dump that validates.
///
/// Like `--obs-smoke`, the cost is the microbenched per-site cost
/// ([`recorder_site_costs`]) times the site counts of one recorder-on
/// replay: one capture and offer per request, one capture per span
/// closed. The base is the fastest of three recorder-off replays, tracing
/// on either way. Two wall clocks of one stream spread wider than the
/// budget on a small host; this estimate does not.
fn trace_smoke() -> i32 {
    const RECORDER_BUDGET: f64 = 0.03;
    let venue = NamedVenue::MZB.build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    let queries = build_stream(&venue, StreamSpec::quick());
    ifls_obs::set_enabled(true);
    ifls_obs::seed_trace_ids(1);
    let mut stream_ns = u128::MAX;
    let mut fps_off = Vec::new();
    for _ in 0..3 {
        let (f, times) = run_traced_stream(&tree, &queries, None);
        stream_ns = stream_ns.min(times.iter().sum());
        fps_off = f;
    }
    let recorder = ifls_obs::FlightRecorder::new(64);
    let _ = ifls_obs::take_local();
    let (fps_on, _) = run_traced_stream(&tree, &queries, Some(&recorder));
    let sink = ifls_obs::take_local();
    let requests = queries.len() as u64;
    let spans: u64 = Phase::ALL.iter().map(|&p| sink.span(p).count).sum();
    let (offer_cost, span_cost) = recorder_site_costs();
    let _ = ifls_obs::take_local();
    ifls_obs::set_enabled(false);

    let share = (requests as f64 * offer_cost + spans as f64 * span_cost) / stream_ns as f64;
    println!(
        "trace-smoke: MZB efficient-minmax recorder-off stream {:.3} ms (best of 3), \
         {} trace(s) retained",
        ms(stream_ns),
        recorder.len(),
    );
    println!(
        "trace-smoke: {requests} requests + {spans} spans; {offer_cost:.1} ns/request, \
         {span_cost:.1} ns/span captured => {:.4}% of the stream (budget {:.0}%)",
        share * 100.0,
        RECORDER_BUDGET * 100.0,
    );
    let mut failed = false;
    if fps_on != fps_off {
        eprintln!("FAIL: answers diverged between recorder-on and recorder-off");
        failed = true;
    }
    // The retained traces must round-trip through the wire format.
    let dump = ifls_obs::to_trace_jsonl(&recorder.snapshot(), recorder.capacity());
    match ifls_obs::validate_trace_jsonl(&dump) {
        Ok(summary) => {
            if summary.requests != recorder.len() {
                eprintln!(
                    "FAIL: dump carries {} traces, recorder holds {}",
                    summary.requests,
                    recorder.len()
                );
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("FAIL: recorder dump does not validate: {e}");
            failed = true;
        }
    }
    if share > RECORDER_BUDGET {
        eprintln!(
            "FAIL: recorder sites cost {:.4}% of the recorder-off stream (budget {:.0}%)",
            share * 100.0,
            RECORDER_BUDGET * 100.0
        );
        failed = true;
    }
    if failed {
        1
    } else {
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--obs-smoke") {
        std::process::exit(obs_smoke());
    }
    if args.iter().any(|a| a == "--cache-smoke") {
        std::process::exit(cache_smoke());
    }
    if args.iter().any(|a| a == "--trace-smoke") {
        std::process::exit(trace_smoke());
    }
    if args.iter().any(|a| a == "--batch-smoke") {
        std::process::exit(batch_smoke());
    }
    let quick = args.iter().any(|a| a == "--quick");
    let build_threads: usize = args
        .iter()
        .position(|a| a == "--build-threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| ifls_bench::default_out("core", quick));
    let md_path = args
        .iter()
        .position(|a| a == "--md")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let spec = if quick {
        StreamSpec::quick()
    } else {
        StreamSpec::full()
    };

    const ALGORITHMS: [&str; 3] = ["efficient-minmax", "efficient-mindist", "efficient-maxsum"];

    let mut rows = Vec::new();
    let mut diverged = false;
    for nv in NamedVenue::ALL {
        let venue = nv.build();
        let build_started = Instant::now();
        let mut tree = VipTree::build_with_threads(&venue, VipTreeConfig::default(), build_threads);
        let index_build_ns = build_started.elapsed().as_nanos() as u64;
        // Serve the stream the way a warm snapshot would: the tier rides
        // on the tree, cache-on rows start warm, and the disabled cache of
        // the off rows never consults it.
        let tier = tree.build_warm_tier(ifls_viptree::DEFAULT_WARM_BUDGET_BYTES, build_threads);
        tree.set_warm_tier(Some(tier));
        let queries = build_stream(&venue, spec);
        for algorithm in ALGORITHMS {
            let on = run_stream(&tree, &queries, algorithm, true, spec.rounds);
            let off = run_stream(&tree, &queries, algorithm, false, spec.rounds);
            if on.fingerprints != off.fingerprints {
                diverged = true;
                eprintln!(
                    "DIVERGENCE: {} on {} answers differ between cache on/off",
                    algorithm,
                    nv.label()
                );
            }
            let med_on = median_ns(&on.times_ns);
            let med_off = median_ns(&off.times_ns);
            let speedup = med_off as f64 / med_on.max(1) as f64;
            let lookups = on.cache_hits + on.cache_misses;
            println!(
                "{:<4} {:<18} cache-on {:>9} ns  cache-off {:>9} ns  speedup {:>5.2}x  hit-rate {:>5.1}%",
                nv.label(),
                algorithm,
                med_on,
                med_off,
                speedup,
                if lookups == 0 {
                    0.0
                } else {
                    100.0 * on.cache_hits as f64 / lookups as f64
                },
            );
            for (mode, r) in [(true, &on), (false, &off)] {
                let lookups = r.cache_hits + r.cache_misses;
                let (p50_ns, p95_ns, p99_ns) = percentiles_ns(&r.times_ns, &r.latencies);
                rows.push(RowOut {
                    venue: nv.label(),
                    algorithm,
                    threads: 1,
                    cache: mode,
                    queries: r.times_ns.len(),
                    median_ns: median_ns(&r.times_ns),
                    p50_ns,
                    p95_ns,
                    p99_ns,
                    dist_computations: r.dist_computations,
                    queries_per_sec: queries_per_sec(&r.times_ns),
                    steals: 0,
                    cache_hit_rate: if lookups == 0 {
                        None
                    } else {
                        Some(r.cache_hits as f64 / lookups as f64)
                    },
                    cache_bytes: r.cache_bytes,
                    cache_warm_bytes: r.cache_warm_bytes,
                    index_build_ns,
                    phases: collect_phases(&tree, &queries, algorithm, mode),
                });
            }
        }
    }

    match write_json(&out_path, quick, &rows) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(2);
        }
    }
    if let Some(md_path) = &md_path {
        match write_md(md_path, quick, &rows) {
            Ok(()) => println!("wrote {md_path}"),
            Err(e) => {
                eprintln!("failed to write {md_path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if diverged {
        eprintln!("FAIL: cached and uncached answers diverged");
        std::process::exit(1);
    }
}
