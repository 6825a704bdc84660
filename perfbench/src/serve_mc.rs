//! `serve-mc`: an in-process `ifls_serve::Server` with default options
//! (apart from the hermetic ones) serving a warm Melbourne Central
//! snapshot, driven by one process over two keep-alive connections in a
//! closed loop: each connection sends its next `/query` as soon as the
//! previous response is in.
//!
//! Why: with small queries (20 clients), HTTP framing, JSON parsing,
//! workload generation, encoding and the recorder are a large share of a
//! request, so this is the only workload where `serve`, `workloads` and
//! `obs` changes show. Every request is a MaxSum query with its own
//! workload seed; about 1.6% of them end in the exact-score completion
//! that runs after the solver's clock stops (10–120 ms on MC), and those
//! completions hold the p99. The daemon also answers one `/metrics`
//! scrape and one `/readyz` probe per second.
//!
//! The loop is closed and MaxSum-only because the open-loop design was
//! not steady on a 2-vCPU host: over two connections every completion
//! stall also delays the requests queued behind it, so p50 and p99
//! followed the per-seed number of stalls and the host's CPU steal
//! (README.md has the measurements).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ifls_core::api::{self, Objective, SolveSpec};
use ifls_core::Budget;
use ifls_indoor::Venue;
use ifls_serve::{ServeOptions, Server};
use ifls_viptree::VipTree;
use ifls_workloads::{Workload, WorkloadBuilder};

use crate::check::{self, Answer, Tally};
use crate::http::{self, Conn};
use crate::ledger::Ledger;
use crate::report::{Context, Metrics};
use crate::setup::{self, ScratchDir, SetupTimes};
use crate::stats::{self, ratio};
use crate::venues::{VenueSpec, MC};
use crate::{mix, Outcome, Rng};

/// How a serve-mc run is shaped.
#[derive(Clone, Debug)]
pub struct Config {
    /// The venue the daemon serves.
    pub venue: VenueSpec,
    /// Uniform clients per `/query`.
    pub clients: usize,
    /// Objective of every request.
    pub objective: Objective,
    /// Keep-alive connections, each a closed loop.
    pub connections: usize,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
    /// Answers re-computed with single-query `api::solve` per run.
    pub references: usize,
    /// Input seed.
    pub seed: u64,
}

impl Config {
    /// The configuration the benchmark command runs.
    pub fn standard(seed: u64, seconds: f64) -> Config {
        Config {
            venue: MC,
            clients: 20,
            objective: Objective::MaxSum,
            connections: 2,
            seconds,
            setup_reps: 3,
            references: 1500,
            seed,
        }
    }
}

/// The workload seed of request `i`. JSON integers are exact up to 2^53
/// only and the daemon reads numbers as `f64`, so a larger seed would
/// name a different workload than the one the checker rebuilds.
pub fn request_seed(cfg: &Config, i: usize) -> u64 {
    mix(cfg.seed, i as u64) >> 11
}

/// The `/query` body of request `i` (connection `i mod connections`
/// sends it).
pub fn body(cfg: &Config, i: usize) -> String {
    format!(
        "{{\"objective\":\"{}\",\"clients\":{},\"fe\":{},\"fn\":{},\"seed\":{}}}",
        cfg.objective.name(),
        cfg.clients,
        cfg.venue.fe,
        cfg.venue.fn_,
        request_seed(cfg, i)
    )
}

/// The workload the daemon generates for request `i` (the same
/// `WorkloadBuilder` calls its handler makes).
fn workload(cfg: &Config, venue: &Venue, i: usize) -> Workload {
    WorkloadBuilder::new(venue)
        .existing_uniform(cfg.venue.fe)
        .candidates_uniform(cfg.venue.fn_)
        .seed(request_seed(cfg, i))
        .clients_uniform(cfg.clients)
        .build()
}

/// What the client saw for one request, checked as it arrived (only
/// the parsed fields are kept, so the client's memory stays small).
struct Sample {
    index: usize,
    /// Client time between the previous response and this send.
    turnaround_ns: u64,
    latency_ns: u64,
    /// Response end, from the start of the window.
    end_ns: u64,
    /// HTTP status (`0` for a transport error).
    status: u16,
    result: Result<check::Served, String>,
}

/// The hermetic daemon options: an ephemeral port, no signal handlers,
/// and no trace dump (whose default path is in the working directory).
fn serve_options(index: PathBuf) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        index: Some(index),
        trace_dump: None,
        sighup_reload: false,
        sigterm_drain: false,
        ..ServeOptions::default()
    }
}

/// Polls `/readyz` until the daemon answers 200.
fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(r) = http::one_shot(addr, "GET", "/readyz", None) {
            if r.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err("daemon not ready within 30 s".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Prometheus text → value per series (`name{labels}` as written).
fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let r = http::one_shot(addr, "GET", "/metrics", None)?;
    if r.status != 200 {
        return Err(format!("/metrics status {}", r.status));
    }
    Ok(parse_prometheus(&r.body))
}

/// Summed change of every series matching `pred` between two scrapes.
fn delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    pred: impl Fn(&str) -> bool,
) -> f64 {
    after
        .iter()
        .filter(|(k, _)| pred(k))
        .map(|(k, v)| v - before.get(k).copied().unwrap_or(0.0))
        .sum()
}

fn event(name: &str) -> String {
    format!("ifls_events_total{{name=\"{name}\"}}")
}

/// One daemon set-up: venue, warm index, snapshot, daemon start, and
/// the benchmark's own reference tree loaded from the same snapshot.
fn start_daemon<'v>(
    cfg: &Config,
    reference_venue: &'v Venue,
    scratch: &ScratchDir,
    t: &mut SetupTimes,
) -> Result<(Server, VipTree<'v>), String> {
    let path = scratch.file(&format!("{}.idx", cfg.venue.name));
    drop(setup::save_warm_snapshot(reference_venue, &path, t)?);
    let tree = setup::load_warm_snapshot(reference_venue, &path, t)?;
    let daemon_venue = setup::build_venue(cfg.venue.build, t);
    let server = Server::start(daemon_venue, serve_options(path)).map_err(|e| format!("{e:?}"))?;
    match wait_ready(server.addr()) {
        Ok(()) => Ok((server, tree)),
        Err(e) => {
            server.shutdown();
            Err(e)
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Config, trace: bool) -> Result<Outcome, String> {
    let scratch = ScratchDir::new("serve-mc").map_err(|e| format!("scratch dir: {e}"))?;
    let reps_n = cfg.setup_reps.max(1);
    let mut reps = Vec::new();
    for rep in 0..reps_n - 1 {
        let start = setup::rep_start(rep);
        let mut t = SetupTimes::default();
        let venue = setup::build_venue(cfg.venue.build, &mut t);
        let (server, tree) = start_daemon(cfg, &venue, &scratch, &mut t)?;
        t.total_s = setup::secs(start);
        reps.push(t);
        drop(tree);
        server.shutdown();
    }
    let start = setup::rep_start(reps_n - 1);
    let mut t = SetupTimes::default();
    let venue = setup::build_venue(cfg.venue.build, &mut t);
    let (server, tree) = start_daemon(cfg, &venue, &scratch, &mut t)?;
    t.total_s = setup::secs(start);
    reps.push(t);
    let setup = SetupTimes::median(&reps);
    let addr = server.addr();
    let result = drive(cfg, addr, &venue, &tree, setup, trace);
    server.shutdown();
    result
}

fn drive(
    cfg: &Config,
    addr: SocketAddr,
    venue: &Venue,
    tree: &VipTree<'_>,
    setup: SetupTimes,
    trace: bool,
) -> Result<Outcome, String> {
    let before = scrape(addr)?;
    let done = AtomicBool::new(false);
    let scrapes: Mutex<Vec<(f64, u16, u16)>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut samples: Vec<Sample> = Vec::new();
    std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut next = t0;
            while !done.load(Ordering::SeqCst) {
                let now = Instant::now();
                if now < next {
                    std::thread::sleep((next - now).min(Duration::from_millis(20)));
                    continue;
                }
                next += Duration::from_secs(1);
                let t = Instant::now();
                let metrics = http::one_shot(addr, "GET", "/metrics", None).map_or(0, |r| r.status);
                let scrape_ms = t.elapsed().as_secs_f64() * 1e3;
                let ready = http::one_shot(addr, "GET", "/readyz", None).map_or(0, |r| r.status);
                scrapes
                    .lock()
                    .expect("scrape log lock: no holder panics")
                    .push((scrape_ms, metrics, ready));
            }
        });
        let senders: Vec<_> = (0..cfg.connections)
            .map(|c| s.spawn(move || send_all(cfg, addr, t0, window, c)))
            .collect();
        for h in senders {
            samples.extend(h.join().expect("sender threads do not panic"));
        }
        done.store(true, Ordering::SeqCst);
        scraper.join().expect("the scraper does not panic");
    });
    samples.sort_by_key(|smp| smp.index);
    let after = scrape(addr)?;
    let recorder = http::one_shot(addr, "GET", "/debug/requests", None)?;
    if recorder.status != 200 {
        return Err(format!("/debug/requests status {}", recorder.status));
    }
    let traces = ifls_obs::parse_trace_jsonl(&recorder.body)
        .map(|(_, t)| t.len())
        .map_err(|e| format!("/debug/requests: {e}"))?;

    // Check every response; re-answer a seeded sample in process.
    let mut tally = Tally::default();
    let mut ledger = Ledger::default();
    let mut latencies_ms = Vec::with_capacity(samples.len());
    let (mut turnaround_ns, mut non200) = (0u64, 0u64);
    // Per answered request: the solver's clock and the rest of the
    // client-seen latency, whose medians split the typical request.
    let (mut solve_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    let mut window_ns = 0u64;
    let mut served: Vec<Option<Answer>> = vec![None; samples.len()];
    for (k, smp) in samples.iter().enumerate() {
        latencies_ms.push(smp.latency_ns as f64 / 1e6);
        turnaround_ns += smp.turnaround_ns;
        window_ns = window_ns.max(smp.end_ns);
        if smp.status != 200 && smp.status != 0 {
            non200 += 1;
        }
        let outcome = smp.result.as_ref().map_err(Clone::clone).map(|ok| {
            solve_ms.push(ok.solve_ns as f64 / 1e6);
            overhead_ms.push((smp.latency_ns as f64 - ok.solve_ns as f64) / 1e6);
            served[k] = Some(ok.answer);
            ledger.queries += 1;
            ledger.clients += cfg.clients as u64;
            ledger.solver_ns += ok.solve_ns;
            ledger.dist_computations += ok.dist_computations;
            ledger.facilities_retrieved += ok.facilities_retrieved;
            ledger.clients_pruned += ok.clients_pruned;
            ledger.cache_hits += ok.cache_hits;
            ledger.cache_misses += ok.cache_misses;
            ledger.cache_bytes += ok.cache_bytes;
            ledger.peak_bytes = ledger.peak_bytes.max(ok.peak_bytes);
        });
        tally.record(outcome);
    }
    let mut rng = Rng::new(mix(cfg.seed, 0x5EF));
    let (mut gen_ns, mut gens) = (0u64, 0u64);
    for k in rng.sample(samples.len(), cfg.references) {
        let Some(got) = served[k] else { continue };
        let i = samples[k].index;
        let t = Instant::now();
        let w = workload(cfg, venue, i);
        gen_ns += t.elapsed().as_nanos() as u64;
        gens += 1;
        let spec = SolveSpec {
            objective: cfg.objective,
            ..SolveSpec::default()
        };
        match api::solve(
            tree,
            &w.clients,
            &w.existing,
            &w.candidates,
            &spec,
            &Budget::unlimited(),
        ) {
            Ok(want) => {
                if let Err(e) = check::compare(got, Answer::of(&want)) {
                    tally.fail(format!("{e} (request {i})"));
                }
            }
            Err(e) => tally.fail(format!("reference panic: {e}")),
        }
    }
    let scrapes = scrapes
        .into_inner()
        .expect("scrape log lock: no holder panics");
    for &(_, m, r) in &scrapes {
        if m != 200 || r != 200 {
            tally.fail(format!("scrape status: /metrics {m}, /readyz {r}"));
        }
    }

    let n = samples.len() as f64;
    let ok = ledger.queries as f64;
    let window_s = window_ns as f64 / 1e9;
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup.total_s);
    metrics.set(
        "p50_ms",
        stats::nearest_rank(&latencies_ms, 50.0).unwrap_or(0.0),
    );
    metrics.set(
        "p99_ms",
        stats::nearest_rank(&latencies_ms, 99.0).unwrap_or(0.0),
    );
    metrics.set("qps", ratio(ok, window_s));
    setup.write(&mut metrics);
    if trace {
        ledger.write_counts(&mut metrics);
        metrics.set("serve.solve_ms", stats::median(&solve_ms));
        metrics.set("serve.overhead_ms", stats::median(&overhead_ms));
        let hist = |prefix: &str| {
            let sum = delta(&before, &after, |k| {
                k.starts_with(prefix) && k.ends_with("_ns_sum")
            });
            let count = delta(&before, &after, |k| {
                k.starts_with(prefix) && k.ends_with("_ns_count")
            });
            ratio(sum, count) / 1e6
        };
        metrics.set("serve.server_ms", hist("ifls_serve_latency_"));
        metrics.set("serve.queue_wait_ms", hist("ifls_serve_queue_wait"));
        metrics.set("serve.send_lag_ms", ratio(turnaround_ns as f64, n) / 1e6);
        metrics.set(
            "serve.scrape_ms",
            stats::median(&scrapes.iter().map(|s| s.0).collect::<Vec<_>>()),
        );
        metrics.set(
            "serve.shed",
            delta(&before, &after, |k| k == event("requests_shed")),
        );
        metrics.set(
            "serve.panics",
            delta(&before, &after, |k| k == event("serve_panics")),
        );
        metrics.set("serve.non200", non200 as f64);
        let recorded = delta(&before, &after, |k| k == event("traces_recorded"));
        let dropped = delta(&before, &after, |k| k == event("traces_dropped"));
        metrics.set(
            "obs.traces_recorded_share",
            ratio(recorded, recorded + dropped),
        );
        // The daemon turns tracing on process-wide at start, so there is
        // no untraced serve run to compare against.
        metrics.set("obs.trace_overhead", 1.0);
        // Server-side phase self-times, per answered query.
        let mut self_ms = 0.0;
        for (phase, name) in crate::ledger::PHASES {
            let key = format!("ifls_span_self_ns_total{{phase=\"{}\"}}", phase.name());
            let ms = ratio(delta(&before, &after, |k| k == key), ok) / 1e6;
            self_ms += ms;
            metrics.set(name, ms);
        }
        metrics.set(
            "core.unattributed_ms",
            ratio(ledger.solver_ns as f64, ok) / 1e6 - self_ms,
        );
        for (name, counter) in [
            ("viptree.cache_evictions", "dist_cache_evictions"),
            ("viptree.cache_inserts_rejected", "cache_inserts_rejected"),
        ] {
            metrics.set(
                name,
                ratio(delta(&before, &after, |k| k == event(counter)), ok),
            );
        }
        metrics.set("workloads.gen_ms", ratio(gen_ns as f64, gens as f64) / 1e6);
    }

    let mut ctx = Context::default();
    ctx.str("venue", cfg.venue.name)
        .num("clients", cfg.clients as f64)
        .num("fe", cfg.venue.fe as f64)
        .num("fn", cfg.venue.fn_ as f64)
        .str("objective", cfg.objective.name())
        .str("loop", "closed")
        .num("connections", cfg.connections as f64)
        .num("setup_reps", cfg.setup_reps.max(1) as f64)
        .num("requests", n)
        .num("window_s", window_s)
        .num(
            "p99_samples_beyond",
            stats::samples_beyond(samples.len(), 99.0) as f64,
        )
        .num("scrapes", scrapes.len() as f64)
        .num(
            "max_scrape_ms",
            scrapes.iter().map(|s| s.0).fold(0.0, f64::max),
        )
        .num("recorder_traces", traces as f64)
        .num("references_checked", gens as f64);
    Ok(Outcome {
        tally,
        metrics,
        context: ctx,
    })
}

/// One closed-loop sender: requests `c, c + n, c + 2n, …` (`n`
/// connections) back to back over one keep-alive connection (reopened
/// after a transport error) until the window closes.
fn send_all(
    cfg: &Config,
    addr: SocketAddr,
    t0: Instant,
    window: Duration,
    c: usize,
) -> Vec<Sample> {
    let mut conn = Conn::open(addr).ok();
    let mut out = Vec::new();
    let mut last_end = Instant::now();
    let mut i = c;
    while last_end.duration_since(t0) < window {
        let request = body(cfg, i);
        let sent = Instant::now();
        let result = match conn.as_mut() {
            Some(c) => c.request("POST", "/query", Some(&request)),
            None => Err("connect failed".into()),
        };
        let end = Instant::now();
        let (status, result) = match result {
            Ok(r) => (
                r.status,
                check::served(r.status, &r.body, cfg.objective.value_key()),
            ),
            Err(e) => {
                conn = Conn::open(addr).ok();
                (0, Err(format!("transport: {e}")))
            }
        };
        out.push(Sample {
            index: i,
            turnaround_ns: sent.saturating_duration_since(last_end).as_nanos() as u64,
            latency_ns: (end - sent).as_nanos() as u64,
            end_ns: end.duration_since(t0).as_nanos() as u64,
            status,
            result,
        });
        last_end = end;
        i += cfg.connections.max(1);
    }
    out
}
