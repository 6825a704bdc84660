//! Objective-neutral solver entry points shared by every front end.
//!
//! The CLI (`ifls query`), the daemon (`ifls serve`) and the bench
//! harnesses all answer the same question — *run objective X with
//! algorithm Y over this workload under this budget* — and they must all
//! agree bit-for-bit. This module is the single dispatch point: parse the
//! objective/algorithm names once ([`Objective`], [`Algorithm`]), run
//! [`solve`], and render the result with the one `ifls-stats/v1` encoder
//! ([`stats_json_line`]). A front end that bypassed this module could
//! drift from the others; none do.

use ifls_indoor::{IndoorPoint, PartitionId};
use ifls_viptree::VipTree;

use crate::budget::{Budget, Resolution};
use crate::explore::ClientLegs;
use crate::parallel::{ParallelSolver, WorkerPanic};
use crate::search::{EfficientConfig, EfficientSolver, ObjectivePolicy, Query};
use crate::stats::QueryStats;
use crate::{MaxSum, MinDist, MinMax};

/// The three query objectives of the paper (§3, §7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize the maximum client→nearest-facility distance.
    MinMax,
    /// Minimize the total (equivalently average) client distance.
    MinDist,
    /// Maximize the number of clients captured by the new facility.
    MaxSum,
}

impl Objective {
    /// Parses the stable CLI/wire name (`minmax` | `mindist` | `maxsum`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "minmax" => Some(Objective::MinMax),
            "mindist" => Some(Objective::MinDist),
            "maxsum" => Some(Objective::MaxSum),
            _ => None,
        }
    }

    /// The stable name, identical to what [`Objective::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            Objective::MinMax => "minmax",
            Objective::MinDist => "mindist",
            Objective::MaxSum => "maxsum",
        }
    }

    /// The `ifls-stats/v1` key carrying this objective's value.
    pub fn value_key(self) -> &'static str {
        match self {
            Objective::MinMax => "max_distance_m",
            Objective::MinDist => "avg_distance_m",
            Objective::MaxSum => "clients_captured",
        }
    }

    /// Unit label for degraded-answer gap reporting.
    pub fn gap_unit(self) -> &'static str {
        match self {
            Objective::MinMax => "m",
            Objective::MinDist => "m (total)",
            Objective::MaxSum => "clients",
        }
    }
}

/// The four interchangeable solver families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// §5's single-pass efficient solver (the paper's contribution).
    Efficient,
    /// §4's adapted MinMax baseline (MinMax only; other objectives fall
    /// back to brute force, exactly as the CLI always has).
    Baseline,
    /// The literal definition — the correctness oracle.
    Brute,
    /// Candidate-sharded scoped-thread solver, bit-identical to serial.
    Parallel,
}

impl Algorithm {
    /// Parses the stable CLI/wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "efficient" => Some(Algorithm::Efficient),
            "baseline" => Some(Algorithm::Baseline),
            "brute" => Some(Algorithm::Brute),
            "parallel" => Some(Algorithm::Parallel),
            _ => None,
        }
    }

    /// The stable name, identical to what [`Algorithm::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Efficient => "efficient",
            Algorithm::Baseline => "baseline",
            Algorithm::Brute => "brute",
            Algorithm::Parallel => "parallel",
        }
    }
}

/// How to run one query: objective + algorithm + knobs. Equality is the
/// serve-side micro-batch compatibility test: requests solve together
/// only when their specs match field for field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SolveSpec {
    /// Which objective to optimize.
    pub objective: Objective,
    /// Which solver family answers it.
    pub algorithm: Algorithm,
    /// Worker threads for [`Algorithm::Parallel`] (`0` = all cores).
    pub threads: usize,
    /// Whether the efficient solvers memoize distance kernels.
    pub dist_cache: bool,
    /// Whether the cache's local tier uses adaptive admission (`false` =
    /// the `--no-cache-admission` ablation: always insert).
    pub cache_admission: bool,
}

impl Default for SolveSpec {
    fn default() -> Self {
        Self {
            objective: Objective::MinMax,
            algorithm: Algorithm::Efficient,
            threads: 0,
            dist_cache: true,
            cache_admission: true,
        }
    }
}

/// One solved single-answer query in objective-neutral form: the shape
/// `ifls-stats/v1` serializes and every front end reports.
#[derive(Clone, Debug)]
pub struct QuerySummary {
    /// The selected candidate partition (`None`: no candidate improves).
    pub answer: Option<PartitionId>,
    /// JSON key for the objective value (see [`Objective::value_key`]).
    pub value_key: &'static str,
    /// The objective value (MinDist reports the per-client average).
    pub value: f64,
    /// Exact, or budget-degraded with an optimality gap.
    pub resolution: Resolution,
    /// Instrumentation collected during the query.
    pub stats: QueryStats,
}

/// The [`EfficientConfig`] a [`SolveSpec`] implies (shared by [`solve`]
/// and [`solve_batch`]).
fn config_of(spec: &SolveSpec) -> EfficientConfig {
    EfficientConfig {
        dist_cache: spec.dist_cache,
        cache_admission: if spec.cache_admission {
            ifls_viptree::CacheAdmission::Adaptive
        } else {
            ifls_viptree::CacheAdmission::AlwaysOn
        },
        ..EfficientConfig::default()
    }
}

/// Answers one IFLS query. This is *the* dispatch used by the CLI and the
/// daemon; anything answered here is bit-identical across front ends by
/// construction.
pub fn solve(
    tree: &VipTree<'_>,
    clients: &[IndoorPoint],
    existing: &[PartitionId],
    candidates: &[PartitionId],
    spec: &SolveSpec,
    budget: &Budget,
) -> Result<QuerySummary, WorkerPanic> {
    let q = Query::new(tree, clients, existing, candidates);
    answerer(spec.objective)(&q, spec, budget, None)
}

/// The one generic body behind [`solve`] and [`solve_batch`], with the
/// client door legs shared by a batch (`None` builds them inline).
type Answerer =
    fn(&Query<'_>, &SolveSpec, &Budget, Option<&ClientLegs>) -> Result<QuerySummary, WorkerPanic>;

/// The single match on the objective: [`answer`] under its policy.
fn answerer(objective: Objective) -> Answerer {
    match objective {
        Objective::MinMax => answer::<MinMax>,
        Objective::MinDist => answer::<MinDist>,
        Objective::MaxSum => answer::<MaxSum>,
    }
}

/// Answers `q` with the solver family `spec` names, under the policy `P`.
fn answer<P: ObjectivePolicy>(
    q: &Query<'_>,
    spec: &SolveSpec,
    budget: &Budget,
    legs: Option<&ClientLegs>,
) -> Result<QuerySummary, WorkerPanic> {
    let config = config_of(spec);
    let outcome = match spec.algorithm {
        Algorithm::Efficient => EfficientSolver::<P>::with_config(q.tree, config).solve(
            q,
            &mut config.fresh_cache(),
            budget,
            legs,
        ),
        Algorithm::Parallel => ParallelSolver::with_threads(q.tree, spec.threads)
            .config(config)
            .try_run::<P>(q.clients, q.existing, q.candidates, budget)?,
        algorithm => P::reference(q, algorithm, budget),
    };
    let (answer, value, resolution, stats) = P::into_parts(outcome);
    Ok(QuerySummary {
        answer,
        value_key: P::OBJECTIVE.value_key(),
        value: P::reported(value, q.clients.len()),
        resolution,
        stats,
    })
}

/// Answers one IFLS query while capturing a per-request span trace under
/// `ctx` (see [`ifls_obs::TraceScope`]).
///
/// The solver dispatch is *exactly* [`solve`] — the scope only observes
/// the span closures the aggregate sink already records, so answers and
/// stats are bit-identical with tracing on or off. The returned
/// [`ifls_obs::RequestTrace`] carries the span tree plus the solver-side
/// outcome fields (objective/algorithm, dist computations, cache
/// hits/misses, degradation state); the caller overwrites `total_ns` and
/// fills transport-side fields (status, queue wait). `None` when
/// observability is disabled or another trace is already active on this
/// thread.
///
/// With [`Algorithm::Parallel`], worker-thread spans reach the aggregate
/// sink through the coordinator's merge as always but are not part of the
/// per-request tree (capture is thread-local); the coordinator-side spans
/// and all outcome fields still are.
pub fn solve_traced(
    tree: &VipTree<'_>,
    clients: &[IndoorPoint],
    existing: &[PartitionId],
    candidates: &[PartitionId],
    spec: &SolveSpec,
    budget: &Budget,
    ctx: ifls_obs::TraceContext,
) -> Result<(QuerySummary, Option<ifls_obs::RequestTrace>), WorkerPanic> {
    traced(Some(ctx), spec, || {
        solve(tree, clients, existing, candidates, spec, budget)
    })
}

/// Runs `solve` under a trace scope for `ctx` (none for `None`) and copies
/// the solver-side outcome fields into the captured trace (shared by
/// [`solve_traced`] and [`solve_batch`]).
fn traced(
    ctx: Option<ifls_obs::TraceContext>,
    spec: &SolveSpec,
    solve: impl FnOnce() -> Result<QuerySummary, WorkerPanic>,
) -> Result<(QuerySummary, Option<ifls_obs::RequestTrace>), WorkerPanic> {
    let scope = ctx.map(ifls_obs::TraceScope::begin);
    let result = solve();
    let trace = scope.and_then(ifls_obs::TraceScope::finish);
    let summary = result?;
    let trace = trace.map(|mut t| {
        t.objective = spec.objective.name().to_owned();
        t.algorithm = spec.algorithm.name().to_owned();
        t.total_ns = summary.stats.elapsed.as_nanos() as u64;
        t.dist_computations = summary.stats.dist_computations;
        t.cache_hits = summary.stats.cache_hits;
        t.cache_misses = summary.stats.cache_misses;
        t.degraded = !summary.resolution.is_exact();
        t.gap = summary.resolution.gap();
        t.reason = summary
            .resolution
            .reason()
            .map(|r| r.label().to_owned())
            .unwrap_or_default();
        t
    });
    Ok((summary, trace))
}

/// One query of a serve-side micro-batch: a workload plus its own budget
/// and (optional) trace context.
#[derive(Clone)]
pub struct BatchQuery {
    /// Client positions `C`.
    pub clients: Vec<IndoorPoint>,
    /// Existing facilities `Fe`.
    pub existing: Vec<PartitionId>,
    /// Candidate locations `Fn`.
    pub candidates: Vec<PartitionId>,
    /// This query's own budget (its deadline clock is already running).
    pub budget: Budget,
    /// Trace context when the caller's flight recorder is on.
    pub ctx: Option<ifls_obs::TraceContext>,
}

/// Answers many queries under one [`SolveSpec`] through the work-stealing
/// batch scheduler, returning per-query summaries and traces in input
/// order — the solver half of `ifls serve`'s micro-batching.
///
/// Responses must be indistinguishable from the unbatched path, so every
/// query gets a **fresh** [`ifls_viptree::DistCache`] (batching may never
/// leak one request's cache state into another's stats); the amortization
/// comes from sharing [`ClientLegs`](crate::explore) across queries with
/// bitwise-identical client sets and from draining the batch through one
/// scheduler pass instead of per-request dispatch. Each query runs wholly
/// on one worker thread, so its [`ifls_obs::TraceScope`] captures the same
/// span tree the unbatched path would. Only [`Algorithm::Efficient`] uses
/// the shared legs and the workers; the other solver families answer the
/// queries one by one on the calling thread, as unbatched calls would,
/// stopping at the first error.
pub fn solve_batch(
    tree: &VipTree<'_>,
    threads: usize,
    queries: &[BatchQuery],
    spec: &SolveSpec,
) -> Result<Vec<(QuerySummary, Option<ifls_obs::RequestTrace>)>, WorkerPanic> {
    let answer = answerer(spec.objective);
    let run = |q: &BatchQuery, budget: &Budget, legs: Option<&ClientLegs>| {
        let query = Query::new(tree, &q.clients, &q.existing, &q.candidates);
        traced(q.ctx, spec, || answer(&query, spec, budget, legs))
    };
    if spec.algorithm != Algorithm::Efficient {
        return queries.iter().map(|q| run(q, &q.budget, None)).collect();
    }
    let (pool, by_query) =
        crate::parallel::legs_pool(tree, queries.iter().map(|q| q.clients.as_slice()));
    crate::parallel::try_run_indexed_state(
        threads,
        queries.len(),
        || (),
        |(), i| {
            run(
                &queries[i],
                &queries[i].budget.clone(),
                Some(&pool[by_query[i]]),
            )
        },
    )?
    .into_iter()
    .collect()
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number (`null` for non-finite values).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Identity of the workload a summary answered, for `ifls-stats/v1`.
#[derive(Clone, Debug)]
pub struct WorkloadIdent<'a> {
    /// Venue name.
    pub venue: &'a str,
    /// Client count.
    pub clients: usize,
    /// Existing-facility count.
    pub existing: usize,
    /// Candidate count.
    pub candidates: usize,
    /// RNG seed the workload was generated from.
    pub seed: u64,
}

/// Serializes one solved query as a single `ifls-stats/v1` JSON line
/// (hand-rolled — the dependency set has no serde). This is the exact
/// encoder behind `ifls query --stats-json` and every `ifls serve`
/// response body.
pub fn stats_json_line(
    ident: &WorkloadIdent<'_>,
    objective: Objective,
    algorithm: Algorithm,
    s: &QuerySummary,
) -> String {
    let answer = match s.answer {
        Some(n) => format!("{}", n.index()),
        None => "null".into(),
    };
    let lat = &s.stats.latencies;
    let budget_reason = match s.resolution.reason() {
        Some(r) => format!("\"{}\"", r.label()),
        None => "null".into(),
    };
    format!(
        concat!(
            "{{\"schema\":\"ifls-stats/v1\",\"venue\":\"{venue}\",",
            "\"objective\":\"{objective}\",\"algorithm\":\"{algorithm}\",",
            "\"clients\":{clients},\"existing\":{existing},",
            "\"candidates\":{candidates},\"seed\":{seed},",
            "\"answer\":{answer},\"{value_key}\":{value},",
            "\"degraded\":{degraded},\"optimality_gap\":{gap},",
            "\"budget_reason\":{budget_reason},",
            "\"stats\":{{\"elapsed_ns\":{elapsed_ns},",
            "\"dist_computations\":{dist},\"point_via_lookups\":{via},",
            "\"facilities_retrieved\":{retrieved},\"clients_pruned\":{pruned},",
            "\"cache_hits\":{hits},\"cache_misses\":{misses},",
            "\"cache_bytes\":{cache_bytes},\"cache_warm_bytes\":{warm_bytes},",
            "\"peak_bytes\":{peak},",
            "\"index_build_ns\":{index_ns},\"index_from_snapshot\":{from_snap},",
            "\"latency\":{{\"count\":{lcount},\"p50_ns\":{p50},",
            "\"p95_ns\":{p95},\"p99_ns\":{p99}}}}}}}"
        ),
        venue = json_escape(ident.venue),
        objective = json_escape(objective.name()),
        algorithm = json_escape(algorithm.name()),
        clients = ident.clients,
        existing = ident.existing,
        candidates = ident.candidates,
        seed = ident.seed,
        answer = answer,
        value_key = s.value_key,
        value = json_num(s.value),
        degraded = !s.resolution.is_exact(),
        gap = json_num(s.resolution.gap()),
        budget_reason = budget_reason,
        elapsed_ns = s.stats.elapsed.as_nanos(),
        dist = s.stats.dist_computations,
        via = s.stats.point_via_lookups,
        retrieved = s.stats.facilities_retrieved,
        pruned = s.stats.clients_pruned,
        hits = s.stats.cache_hits,
        misses = s.stats.cache_misses,
        cache_bytes = s.stats.cache_bytes,
        warm_bytes = s.stats.cache_warm_bytes,
        peak = s.stats.peak_bytes,
        index_ns = s.stats.index_build_ns,
        from_snap = s.stats.index_from_snapshot,
        lcount = lat.count(),
        p50 = lat.p50_ns(),
        p95 = lat.p95_ns(),
        p99 = lat.p99_ns(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EfficientIfls;
    use ifls_venues::GridVenueSpec;
    use ifls_viptree::VipTreeConfig;
    use ifls_workloads::WorkloadBuilder;

    #[test]
    fn names_round_trip() {
        for o in [Objective::MinMax, Objective::MinDist, Objective::MaxSum] {
            assert_eq!(Objective::parse(o.name()), Some(o));
        }
        for a in [
            Algorithm::Efficient,
            Algorithm::Baseline,
            Algorithm::Brute,
            Algorithm::Parallel,
        ] {
            assert_eq!(Algorithm::parse(a.name()), Some(a));
        }
        assert_eq!(Objective::parse("mean"), None);
        assert_eq!(Algorithm::parse("magic"), None);
    }

    #[test]
    fn solve_matches_direct_solver_calls() {
        let venue = GridVenueSpec::new("api", 2, 12).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(30)
            .existing_uniform(2)
            .candidates_uniform(4)
            .seed(11)
            .build();
        let spec = SolveSpec::default();
        let got = solve(
            &tree,
            &w.clients,
            &w.existing,
            &w.candidates,
            &spec,
            &Budget::unlimited(),
        )
        .unwrap();
        let want = EfficientIfls::new(&tree).run(&w.clients, &w.existing, &w.candidates);
        assert_eq!(got.answer, want.answer);
        assert_eq!(got.value, want.objective);
        assert!(got.resolution.is_exact());
        // Every algorithm agrees on the answer for every objective. The
        // objective *value* is only ULP-comparable across algorithms —
        // MinDist averages a sum whose accumulation order differs between
        // the baseline and the single-pass solver — so values get a
        // relative tolerance while answers must match exactly.
        for objective in [Objective::MinMax, Objective::MinDist, Objective::MaxSum] {
            let mut results = Vec::new();
            for algorithm in [
                Algorithm::Efficient,
                Algorithm::Baseline,
                Algorithm::Brute,
                Algorithm::Parallel,
            ] {
                let s = SolveSpec {
                    objective,
                    algorithm,
                    threads: 2,
                    dist_cache: true,
                    cache_admission: true,
                };
                let r = solve(
                    &tree,
                    &w.clients,
                    &w.existing,
                    &w.candidates,
                    &s,
                    &Budget::unlimited(),
                )
                .unwrap();
                results.push((algorithm, r.answer, r.value));
            }
            let (_, answer0, value0) = results[0];
            for (algorithm, answer, value) in &results[1..] {
                assert_eq!(
                    *answer, answer0,
                    "{objective:?}/{algorithm:?} answer diverged: {results:?}"
                );
                assert!(
                    (*value - value0).abs() <= 1e-9 * value0.abs().max(1.0),
                    "{objective:?}/{algorithm:?} value diverged: {results:?}"
                );
            }
        }
    }

    #[test]
    fn solve_traced_is_bit_identical_and_captures_spans() {
        let venue = GridVenueSpec::new("api-trace", 2, 10).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(40)
            .existing_uniform(2)
            .candidates_uniform(5)
            .seed(7)
            .build();
        let spec = SolveSpec::default();
        let budget = Budget::unlimited();
        let plain = solve(
            &tree,
            &w.clients,
            &w.existing,
            &w.candidates,
            &spec,
            &budget,
        )
        .unwrap();
        ifls_obs::set_enabled(true);
        let _ = ifls_obs::take_local();
        let (traced, trace) = solve_traced(
            &tree,
            &w.clients,
            &w.existing,
            &w.candidates,
            &spec,
            &budget,
            ifls_obs::TraceContext::with_id(42),
        )
        .unwrap();
        ifls_obs::set_enabled(false);
        let _ = ifls_obs::take_local();
        // Tracing observes; it never changes the answer.
        assert_eq!(traced.answer, plain.answer);
        assert_eq!(traced.value, plain.value);
        assert_eq!(
            traced.stats.dist_computations,
            plain.stats.dist_computations
        );
        let t = trace.expect("obs enabled: a trace must be captured");
        assert_eq!(t.trace_id, 42);
        assert_eq!(t.objective, "minmax");
        assert_eq!(t.algorithm, "efficient");
        assert_eq!(t.dist_computations, traced.stats.dist_computations);
        assert!(!t.degraded);
        assert!(!t.spans.is_empty(), "solver spans must be captured");
        let self_sum: u64 = t.spans.iter().map(|s| s.self_ns).sum();
        assert!(
            self_sum <= t.total_ns,
            "self-time sum {self_sum} exceeds elapsed {}",
            t.total_ns
        );
        // Disabled mode: the scope is inert.
        let (_, none) = solve_traced(
            &tree,
            &w.clients,
            &w.existing,
            &w.candidates,
            &spec,
            &budget,
            ifls_obs::TraceContext::with_id(43),
        )
        .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn stats_json_line_is_valid_json() {
        let venue = GridVenueSpec::new("api-json", 1, 8).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(10)
            .existing_uniform(2)
            .candidates_uniform(3)
            .seed(3)
            .build();
        let spec = SolveSpec::default();
        let s = solve(
            &tree,
            &w.clients,
            &w.existing,
            &w.candidates,
            &spec,
            &Budget::unlimited(),
        )
        .unwrap();
        let line = stats_json_line(
            &WorkloadIdent {
                venue: venue.name(),
                clients: w.clients.len(),
                existing: w.existing.len(),
                candidates: w.candidates.len(),
                seed: 3,
            },
            spec.objective,
            spec.algorithm,
            &s,
        );
        ifls_obs::validate_json_line(&line).unwrap();
        assert!(line.contains("\"schema\":\"ifls-stats/v1\""), "{line}");
        assert!(line.contains("\"max_distance_m\":"), "{line}");
    }

    #[test]
    fn json_helpers_escape_and_null() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
