//! Request routing and the five endpoints.
//!
//! | method | path              | purpose                                        |
//! |--------|-------------------|------------------------------------------------|
//! | POST   | `/query`          | answer one IFLS query (`ifls-stats/v1` NDJSON) |
//! | GET    | `/metrics`        | Prometheus text exposition of the server sink  |
//! | GET    | `/healthz`        | liveness + installed-index provenance          |
//! | GET    | `/readyz`         | readiness: pool at target and not draining     |
//! | POST   | `/reload`         | re-validate and hot-swap the snapshot          |
//! | POST   | `/shutdown`       | begin a graceful drain                         |
//! | GET    | `/debug/requests` | flight-recorder traces (`ifls-trace/v1` JSONL) |
//!
//! Every failure is a typed JSON error (`ifls-serve-error/v1`): a `kind`
//! machine code plus a human `detail`. Handlers validate *before* work —
//! any input that could make library code panic (oversized facility
//! counts, non-positive sigma) is refused with a 4xx instead.
//!
//! When the flight recorder is on, [`route`] additionally returns the
//! request's partially-filled [`obs::RequestTrace`]; the transport loop in
//! `lib.rs` finalizes it (status, full wall time, queue wait, SLO verdict)
//! and offers it to the recorder.

use std::sync::Arc;
use std::time::Duration;

use ifls_core::api::{self, Algorithm, Objective, SolveSpec, WorkloadIdent};
use ifls_core::Budget;
use ifls_obs as obs;
use ifls_workloads::{eligible_facility_partitions, WorkloadBuilder};

use crate::http::{Request, Response};
use crate::json::{parse_object, JsonValue};
use crate::{lock_unpoisoned, snapshot_error_kind, ReloadRefused, Shared};

/// Largest accepted `clients` value: bounds the work one request can pin
/// a worker with (the deadline budget bounds solve time, but workload
/// generation runs before the budget clock starts).
const MAX_CLIENTS: u64 = 1_000_000;

/// Renders the standard error body (`ifls-serve-error/v1`).
pub(crate) fn error_response(status: u16, kind: &str, detail: &str) -> Response {
    let body = format!(
        "{{\"schema\":\"ifls-serve-error/v1\",\"error\":\"{}\",\"detail\":\"{}\"}}\n",
        api::json_escape(kind),
        api::json_escape(detail)
    );
    Response::new(status, "application/json", body)
}

/// Dispatches one request to its endpoint. `ctx` is `Some` exactly when
/// the flight recorder is on; the returned trace mirrors that.
pub(crate) fn route(
    shared: &Arc<Shared>,
    req: &Request,
    ctx: Option<obs::TraceContext>,
) -> (Response, Option<obs::RequestTrace>) {
    if let ("POST", "/query") = (req.method.as_str(), req.path.as_str()) {
        return query(shared, req, ctx);
    }
    let resp = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => metrics(shared),
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/readyz") => readyz(shared),
        ("GET", "/debug/requests") => debug_requests(shared),
        ("POST", "/reload") => reload(shared, req),
        ("POST", "/shutdown") => shutdown_endpoint(shared),
        (_, "/query") | (_, "/reload") | (_, "/shutdown") => {
            error_response(405, "method_not_allowed", "use POST")
                .with_header("Allow", "POST".into())
        }
        (_, "/metrics") | (_, "/healthz") | (_, "/readyz") | (_, "/debug/requests") => {
            error_response(405, "method_not_allowed", "use GET").with_header("Allow", "GET".into())
        }
        (_, path) => error_response(404, "not_found", &format!("no such endpoint `{path}`")),
    };
    // Non-query endpoints still yield a (spanless) trace so every answered
    // request is accounted for by the recorder's offer path.
    (resp, ctx.map(base_trace))
}

/// A trace carrying only the request's identity; everything else is
/// filled by the transport loop after the response is built.
fn base_trace(ctx: obs::TraceContext) -> obs::RequestTrace {
    obs::RequestTrace {
        trace_id: ctx.trace_id(),
        ..obs::RequestTrace::default()
    }
}

/// A `/query` body, decoded and validated. Defaults mirror the CLI's
/// `CommonArgs` so the empty object `{}` asks the CLI's default question.
struct QueryRequest {
    objective: Objective,
    algorithm: Algorithm,
    clients: usize,
    fe: usize,
    fn_: usize,
    seed: u64,
    sigma: Option<f64>,
    dist_cache: bool,
    deadline_ms: Option<u64>,
    max_dist_computations: Option<u64>,
}

fn parse_query_request(body: &str) -> Result<QueryRequest, Response> {
    let bad = |detail: String| error_response(400, "bad_request", &detail);
    let fields = parse_object(body).map_err(|e| bad(format!("request body: {e}")))?;
    let mut q = QueryRequest {
        objective: Objective::MinMax,
        algorithm: Algorithm::Efficient,
        clients: 1000,
        fe: 10,
        fn_: 20,
        seed: 0,
        sigma: None,
        dist_cache: true,
        deadline_ms: None,
        max_dist_computations: None,
    };
    for (key, value) in &fields {
        let type_err = |want: &str| bad(format!("field `{key}` must be {want}"));
        match key.as_str() {
            "objective" => {
                let s = value.as_str().ok_or_else(|| type_err("a string"))?;
                q.objective =
                    Objective::parse(s).ok_or_else(|| bad(format!("unknown objective `{s}`")))?;
            }
            "algorithm" => {
                let s = value.as_str().ok_or_else(|| type_err("a string"))?;
                q.algorithm =
                    Algorithm::parse(s).ok_or_else(|| bad(format!("unknown algorithm `{s}`")))?;
            }
            "clients" => {
                q.clients = value
                    .as_u64()
                    .ok_or_else(|| type_err("a non-negative integer"))?
                    as usize
            }
            "fe" => {
                q.fe = value
                    .as_u64()
                    .ok_or_else(|| type_err("a non-negative integer"))?
                    as usize
            }
            "fn" => {
                q.fn_ = value
                    .as_u64()
                    .ok_or_else(|| type_err("a non-negative integer"))?
                    as usize
            }
            "seed" => {
                q.seed = value
                    .as_u64()
                    .ok_or_else(|| type_err("a non-negative integer"))?
            }
            "sigma" => match value {
                JsonValue::Null => q.sigma = None,
                _ => q.sigma = Some(value.as_f64().ok_or_else(|| type_err("a number"))?),
            },
            "dist_cache" => q.dist_cache = value.as_bool().ok_or_else(|| type_err("a boolean"))?,
            "deadline_ms" => {
                q.deadline_ms = Some(
                    value
                        .as_u64()
                        .ok_or_else(|| type_err("a non-negative integer"))?,
                )
            }
            "max_dist_computations" => {
                q.max_dist_computations = Some(
                    value
                        .as_u64()
                        .ok_or_else(|| type_err("a non-negative integer"))?,
                )
            }
            _ => return Err(bad(format!("unknown field `{key}`"))),
        }
    }
    Ok(q)
}

/// A `/query` request past every gate and ready to solve: the generated
/// workload, its budget, and the spec. Produced by [`prepare_query`],
/// consumed by [`solve_one`].
struct PreparedQuery {
    spec: SolveSpec,
    seed: u64,
    clients: Vec<ifls_indoor::IndoorPoint>,
    existing: Vec<ifls_indoor::PartitionId>,
    candidates: Vec<ifls_indoor::PartitionId>,
    budget: Budget,
}

fn query(
    shared: &Arc<Shared>,
    req: &Request,
    ctx: Option<obs::TraceContext>,
) -> (Response, Option<obs::RequestTrace>) {
    let p = match prepare_query(shared, req) {
        Ok(p) => p,
        // Requests refused before the solver ran (4xx) fall back to an
        // identity-only trace so they still reach the recorder.
        Err(resp) => return (resp, ctx.map(base_trace)),
    };
    let tv = shared.current_tree();
    solve_one(shared, &tv, &p, ctx)
}

/// The `/query` front half: parse → validate → generate the workload and
/// budget. Early returns are all typed errors.
fn prepare_query(shared: &Arc<Shared>, req: &Request) -> Result<PreparedQuery, Response> {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) if !s.trim().is_empty() => s,
        Ok(_) => "{}",
        Err(_) => {
            return Err(error_response(
                400,
                "bad_request",
                "request body is not UTF-8",
            ))
        }
    };
    let q = parse_query_request(body)?;
    // Protocol-level errors (400) outrank semantic limits (422): a
    // malformed Deadline-Ms header is refused before the body is judged.
    let header_deadline = match req.header("deadline-ms") {
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => Some(ms),
            Err(_) => {
                return Err(error_response(
                    400,
                    "bad_request",
                    &format!("Deadline-Ms header `{v}` is not an integer"),
                ))
            }
        },
        None => None,
    };
    // Validate against everything that would make workload generation
    // panic: the daemon's contract is typed 4xx, never a crash.
    if q.clients as u64 > MAX_CLIENTS {
        return Err(error_response(
            422,
            "limits",
            &format!("clients {} exceeds the {MAX_CLIENTS} limit", q.clients),
        ));
    }
    if let Some(s) = q.sigma {
        if !(s.is_finite() && s > 0.0) {
            return Err(error_response(
                422,
                "limits",
                "sigma must be a positive finite number",
            ));
        }
    }
    // Checked: `fe + fn` must not wrap (release builds have no
    // overflow-checks, so a plain `+` on two huge values would wrap past
    // this guard and panic deep inside workload generation).
    let eligible = eligible_facility_partitions(shared.venue).len();
    if q.fe.checked_add(q.fn_).is_none_or(|total| total > eligible) {
        return Err(error_response(
            422,
            "limits",
            &format!(
                "fe + fn = {} + {} exceeds the venue's {eligible} eligible facility partitions",
                q.fe, q.fn_
            ),
        ));
    }
    if q.fn_ == 0 {
        return Err(error_response(422, "limits", "fn must be at least 1"));
    }
    // Deadline precedence: request field > Deadline-Ms header > server
    // default. The budget clock starts *after* workload generation, like
    // the CLI's (provisioning is not serving).
    let deadline_ms = q
        .deadline_ms
        .or(header_deadline)
        .or(shared.opts.default_deadline_ms);
    let builder = WorkloadBuilder::new(shared.venue)
        .existing_uniform(q.fe)
        .candidates_uniform(q.fn_)
        .seed(q.seed);
    let builder = match q.sigma {
        Some(s) => builder.clients_normal(q.clients, s),
        None => builder.clients_uniform(q.clients),
    };
    let w = builder.build();
    let mut budget = Budget::unlimited();
    if let Some(ms) = deadline_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(cap) = q.max_dist_computations {
        budget = budget.with_dist_cap(cap);
    }
    Ok(PreparedQuery {
        spec: SolveSpec {
            objective: q.objective,
            algorithm: q.algorithm,
            dist_cache: q.dist_cache,
        },
        seed: q.seed,
        clients: w.clients,
        existing: w.existing,
        candidates: w.candidates,
        budget,
    })
}

/// The `/query` back half: solve (traced when the recorder is on) and
/// render the `ifls-stats/v1` line.
fn solve_one(
    shared: &Arc<Shared>,
    tv: &crate::TreeVersion,
    p: &PreparedQuery,
    ctx: Option<obs::TraceContext>,
) -> (Response, Option<obs::RequestTrace>) {
    let mut trace_out = None;
    let result = match ctx {
        Some(c) => api::solve_traced(
            &tv.tree,
            &p.clients,
            &p.existing,
            &p.candidates,
            &p.spec,
            &p.budget,
            c,
        )
        .map(|(summary, t)| {
            trace_out = t;
            summary
        }),
        None => api::solve(
            &tv.tree,
            &p.clients,
            &p.existing,
            &p.candidates,
            &p.spec,
            &p.budget,
        ),
    };
    match result {
        Ok(summary) => {
            let line = api::stats_json_line(
                &WorkloadIdent {
                    venue: shared.venue.name(),
                    clients: p.clients.len(),
                    existing: p.existing.len(),
                    candidates: p.candidates.len(),
                    seed: p.seed,
                },
                p.spec.objective,
                p.spec.algorithm,
                &summary,
            );
            let resp = Response::new(200, "application/x-ndjson", format!("{line}\n"))
                .with_header("Index-Version", tv.version.to_string());
            (resp, trace_out.or_else(|| ctx.map(base_trace)))
        }
        Err(e) => (
            error_response(
                500,
                "worker_panic",
                &format!("parallel worker failure: {e}"),
            ),
            ctx.map(base_trace),
        ),
    }
}

/// Good-request fraction the SLO error budget is sized against: a 99%
/// availability target leaves 1% of tracked requests as the budget.
const SLO_TARGET_GOOD_FRACTION: f64 = 0.99;

/// Remaining fraction of the SLO error budget: `1 - bad / (allowed bad)`.
/// `1.0` with nothing tracked yet; negative once the budget is blown.
fn slo_error_budget_remaining(good: u64, bad: u64) -> f64 {
    let total = (good + bad) as f64;
    if total <= 0.0 {
        return 1.0;
    }
    let allowed = total * (1.0 - SLO_TARGET_GOOD_FRACTION);
    1.0 - (bad as f64) / allowed
}

fn metrics(shared: &Arc<Shared>) -> Response {
    // Fold this thread's pending records plus the live queue depth in, so
    // one scrape sees a consistent, current sink.
    obs::gauge_set("queue_depth", shared.queue.depth() as f64);
    obs::gauge_set("queue_capacity", shared.queue.capacity() as f64);
    obs::gauge_set("queue_drain_rate", shared.queue.drain_rate_per_sec());
    obs::gauge_set("pool_target", shared.supervisor.target() as f64);
    obs::gauge_set("pool_active", shared.supervisor.active() as f64);
    obs::gauge_set(
        "draining",
        shared.draining.load(std::sync::atomic::Ordering::SeqCst) as u8 as f64,
    );
    if let Some(slo_ms) = shared.opts.slo_ms {
        let (good, bad) = {
            let sink = lock_unpoisoned(&shared.metrics);
            (
                sink.counter(obs::Counter::SloGood),
                sink.counter(obs::Counter::SloBad),
            )
        };
        obs::gauge_set("slo_target_ms", slo_ms as f64);
        obs::gauge_set(
            "slo_error_budget_remaining",
            slo_error_budget_remaining(good, bad),
        );
    }
    shared.flush_local_obs();
    let sink = lock_unpoisoned(&shared.metrics).clone();
    Response::new(200, "text/plain; version=0.0.4", obs::to_prometheus(&sink))
}

/// `GET /debug/requests`: the flight recorder's retained traces as
/// `ifls-trace/v1` JSONL (meta line first, then one record per trace,
/// best-ranked first).
fn debug_requests(shared: &Arc<Shared>) -> Response {
    match &shared.recorder {
        Some(rec) => Response::new(
            200,
            "application/x-ndjson",
            obs::to_trace_jsonl(&rec.snapshot(), rec.capacity()),
        ),
        None => error_response(
            404,
            "recorder_disabled",
            "the daemon was started with recorder capacity 0",
        ),
    }
}

fn healthz(shared: &Arc<Shared>) -> Response {
    let tv = shared.current_tree();
    let warm = tv.tree.warm_tier();
    // Flush first so this worker's own served requests are visible in the
    // totals a health probe reads.
    shared.flush_local_obs();
    let (requests_total, requests_shed, serve_panics, workers_respawned, workers_wedged) = {
        let sink = lock_unpoisoned(&shared.metrics);
        (
            sink.counter(obs::Counter::RequestsTotal),
            sink.counter(obs::Counter::RequestsShed),
            sink.counter(obs::Counter::ServePanics),
            sink.counter(obs::Counter::WorkersRespawned),
            sink.counter(obs::Counter::WorkersWedged),
        )
    };
    let pool_target = shared.supervisor.target();
    let pool_active = shared.supervisor.active();
    let draining = shared.draining.load(std::sync::atomic::Ordering::SeqCst);
    // Liveness stays "ok" as long as the process answers; a shrunken pool
    // is reported as degraded here and as not-ready on `/readyz`.
    let status = if pool_active < pool_target {
        "degraded"
    } else {
        "ok"
    };
    let body = format!(
        concat!(
            "{{\"schema\":\"ifls-serve-health/v1\",\"status\":\"{status}\",",
            "\"venue\":\"{venue}\",\"fingerprint\":\"{fp}\",",
            "\"index_version\":{version},\"source\":\"{source}\",",
            "\"uptime_ms\":{uptime},\"queue_depth\":{depth},",
            "\"queue_capacity\":{capacity},",
            "\"requests_total\":{requests_total},",
            "\"requests_shed\":{requests_shed},",
            "\"serve_panics\":{serve_panics},",
            "\"pool_target\":{pool_target},\"pool_active\":{pool_active},",
            "\"workers_respawned\":{workers_respawned},",
            "\"workers_wedged\":{workers_wedged},",
            "\"draining\":{draining},",
            "\"warm_targets\":{warm_targets},\"warm_bytes\":{warm_bytes}}}\n"
        ),
        status = status,
        venue = api::json_escape(shared.venue.name()),
        fp = tv.fingerprint,
        version = tv.version,
        source = api::json_escape(&tv.source),
        uptime = shared.started.elapsed().as_millis(),
        depth = shared.queue.depth(),
        capacity = shared.queue.capacity(),
        requests_total = requests_total,
        requests_shed = requests_shed,
        serve_panics = serve_panics,
        pool_target = pool_target,
        pool_active = pool_active,
        workers_respawned = workers_respawned,
        workers_wedged = workers_wedged,
        draining = draining,
        warm_targets = warm.map_or(0, ifls_viptree::WarmTier::num_targets),
        warm_bytes = warm.map_or(0, ifls_viptree::WarmTier::approx_bytes),
    );
    Response::new(200, "application/json", body)
}

/// `GET /readyz`: readiness as distinct from liveness. Ready means the
/// index is installed, the pool is at its target size, and no drain has
/// begun — exactly the conditions under which sending this daemon
/// traffic is a good idea. Not-ready is a 503 with the failing
/// conditions spelled out, so an orchestrator's probe log says *why*.
fn readyz(shared: &Arc<Shared>) -> Response {
    let draining = shared.draining.load(std::sync::atomic::Ordering::SeqCst);
    let pool_target = shared.supervisor.target();
    let pool_active = shared.supervisor.active();
    let index_version = shared.current_tree().version;
    let ready = !draining && pool_active >= pool_target && index_version > 0;
    let body = format!(
        concat!(
            "{{\"schema\":\"ifls-serve-ready/v1\",\"ready\":{ready},",
            "\"draining\":{draining},\"pool_active\":{pool_active},",
            "\"pool_target\":{pool_target},\"index_version\":{index_version}}}\n"
        ),
        ready = ready,
        draining = draining,
        pool_active = pool_active,
        pool_target = pool_target,
        index_version = index_version,
    );
    Response::new(if ready { 200 } else { 503 }, "application/json", body)
}

/// `POST /shutdown`: begins a graceful drain (idempotent — a second call
/// while draining is the same 202) and answers before the drain
/// completes; this request is itself in-flight, so the coordinator waits
/// for its response to land.
fn shutdown_endpoint(shared: &Arc<Shared>) -> Response {
    crate::begin_drain(shared, "POST /shutdown");
    Response::new(
        202,
        "application/json",
        format!(
            "{{\"schema\":\"ifls-serve-shutdown/v1\",\"status\":\"draining\",\
             \"drain_deadline_ms\":{}}}\n",
            shared.opts.drain_deadline_ms
        ),
    )
    .closing()
}

fn reload(shared: &Arc<Shared>, req: &Request) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s.trim(),
        Err(_) => return error_response(400, "bad_request", "request body is not UTF-8"),
    };
    let mut path_override = None;
    if !body.is_empty() {
        let fields = match parse_object(body) {
            Ok(f) => f,
            Err(e) => return error_response(400, "bad_request", &format!("request body: {e}")),
        };
        for (key, value) in &fields {
            match key.as_str() {
                "index" => match value.as_str() {
                    Some(p) => path_override = Some(std::path::PathBuf::from(p)),
                    None => {
                        return error_response(400, "bad_request", "field `index` must be a string")
                    }
                },
                _ => return error_response(400, "bad_request", &format!("unknown field `{key}`")),
            }
        }
    }
    let result = shared.reload(path_override.as_deref());
    shared.flush_local_obs();
    match result {
        Ok(tv) => Response::new(
            200,
            "application/json",
            format!(
                concat!(
                    "{{\"schema\":\"ifls-serve-reload/v1\",\"status\":\"applied\",",
                    "\"index_version\":{},\"fingerprint\":\"{}\",\"source\":\"{}\"}}\n"
                ),
                tv.version,
                tv.fingerprint,
                api::json_escape(&tv.source)
            ),
        ),
        Err(ReloadRefused::NoPath) => error_response(
            409,
            "no_index_path",
            "the daemon was started without --index and the request named no `index` path",
        ),
        Err(ReloadRefused::Snapshot { path, error }) => {
            let resp = error_response(
                422,
                snapshot_error_kind(&error),
                &format!("index `{}`: {error}", path.display()),
            );
            // The refusal is non-fatal by design: report which index is
            // still serving so operators can see nothing was lost.
            let tv = shared.current_tree();
            resp.with_header("Index-Version", tv.version.to_string())
        }
    }
}
