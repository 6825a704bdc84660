//! Concurrency suite for `ifls serve`: N client threads hammer the daemon
//! with mixed objectives and algorithms; every non-shed response must be
//! bit-identical (on the deterministic prefix) to a serial oracle computed
//! in-process from the same venue and seeds. Deadline-capped requests must
//! come back `degraded` with a sound gap, and shed requests must be clean
//! 503s — never dropped connections.

#[path = "serve_common/mod.rs"]
mod serve_common;

use serve_common::*;

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use ifls::core::api::{self, Algorithm, Objective, SolveSpec, WorkloadIdent};
use ifls::core::Budget;
use ifls::viptree::{VipTree, VipTreeConfig};
use ifls::workloads::WorkloadBuilder;
use ifls_cli::commands::load_venue;

const VENUE_SPEC: &str = "grid:2x12";

/// Computes the serial oracle line for one request shape.
fn oracle_prefix(
    objective: Objective,
    algorithm: Algorithm,
    clients: usize,
    fe: usize,
    fn_: usize,
    seed: u64,
) -> String {
    let venue = load_venue(VENUE_SPEC).unwrap();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    let w = WorkloadBuilder::new(&venue)
        .existing_uniform(fe)
        .candidates_uniform(fn_)
        .seed(seed)
        .clients_uniform(clients)
        .build();
    let spec = SolveSpec {
        objective,
        algorithm,
        dist_cache: true,
    };
    let summary = api::solve(
        &tree,
        &w.clients,
        &w.existing,
        &w.candidates,
        &spec,
        &Budget::unlimited(),
    )
    .unwrap();
    let line = api::stats_json_line(
        &WorkloadIdent {
            venue: venue.name(),
            clients: w.clients.len(),
            existing: w.existing.len(),
            candidates: w.candidates.len(),
            seed,
        },
        objective,
        algorithm,
        &summary,
    );
    answer_prefix(&line).to_string()
}

#[test]
fn hammering_clients_all_match_the_serial_oracle() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 6;
    let venue = load_venue(VENUE_SPEC).unwrap();
    let server = Server::start(
        venue,
        ServeOptions {
            workers: 4,
            ..test_opts()
        },
    )
    .unwrap();
    let addr = server.addr();
    let combos = [
        (Objective::MinMax, Algorithm::Efficient),
        (Objective::MinDist, Algorithm::Efficient),
        (Objective::MaxSum, Algorithm::Efficient),
        (Objective::MinMax, Algorithm::Brute),
    ];
    // Oracle answers are precomputed serially; the daemon is then hit by
    // THREADS concurrent clients re-asking the same questions.
    let expected: Vec<Vec<String>> = (0..THREADS)
        .map(|t| {
            (0..PER_THREAD)
                .map(|j| {
                    let (objective, algorithm) = combos[(t + j) % combos.len()];
                    let seed = (t * PER_THREAD + j) as u64;
                    oracle_prefix(objective, algorithm, 60, 3, 6, seed)
                })
                .collect()
        })
        .collect();
    std::thread::scope(|scope| {
        for (t, expected_for_thread) in expected.iter().enumerate() {
            let combos = &combos;
            scope.spawn(move || {
                for (j, want) in expected_for_thread.iter().enumerate() {
                    let (objective, algorithm) = combos[(t + j) % combos.len()];
                    let seed = t * PER_THREAD + j;
                    let body = format!(
                        "{{\"objective\":\"{}\",\"algorithm\":\"{}\",\
                         \"clients\":60,\"fe\":3,\"fn\":6,\"seed\":{seed}}}",
                        objective.name(),
                        algorithm.name()
                    );
                    let resp = post_query(addr, &body);
                    assert_eq!(resp.status, 200, "thread {t} req {j}: {}", resp.body);
                    assert_eq!(
                        answer_prefix(resp.body.trim_end()),
                        want,
                        "thread {t} req {j} diverged from the serial oracle"
                    );
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn deadline_capped_requests_report_degraded_with_a_sound_gap() {
    let venue = load_venue(VENUE_SPEC).unwrap();
    let server = Server::start(venue, test_opts()).unwrap();
    let addr = server.addr();
    // A distance-computation cap of 1 exhausts the budget deterministically
    // on every venue — unlike a tiny deadline, which can race a fast solve.
    let resp = post_query(
        addr,
        "{\"clients\":60,\"fe\":3,\"fn\":6,\"seed\":1,\"max_dist_computations\":1}",
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"degraded\":true"), "{}", resp.body);
    assert!(
        resp.body.contains("\"budget_reason\":\"dist_cap\""),
        "{}",
        resp.body
    );
    // The reported gap must be sound: a finite non-negative bound, or null
    // when no bound exists yet (answer still unexplored).
    let gap = resp
        .body
        .split("\"optimality_gap\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .expect("optimality_gap field");
    assert!(
        gap == "null" || gap.parse::<f64>().is_ok_and(|g| g >= 0.0),
        "unsound gap {gap:?} in {}",
        resp.body
    );
    // Deadline via header: same degraded contract, reason `deadline`, with
    // an effectively-zero budget so the expiry is not a race.
    let resp = request(
        addr,
        "POST",
        "/query",
        &[("Deadline-Ms", "0")],
        Some("{\"clients\":60,\"fe\":3,\"fn\":6,\"seed\":2}"),
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"degraded\":true"), "{}", resp.body);
    assert!(
        resp.body.contains("\"budget_reason\":\"deadline\""),
        "{}",
        resp.body
    );
    server.shutdown();
}

#[test]
fn overload_sheds_with_clean_503s_and_serves_admitted_requests() {
    let venue = load_venue(VENUE_SPEC).unwrap();
    let server = Server::start(
        venue,
        ServeOptions {
            workers: 1,
            queue_capacity: 1,
            retry_after_secs: 2,
            read_timeout: Duration::from_secs(2),
            ..test_opts()
        },
    )
    .unwrap();
    let addr = server.addr();
    // Pin the pool deterministically: the single worker blocks reading an
    // idle connection, a second idle connection fills the queue (capacity
    // 1). Unlike a "slow query" blocker this cannot race a fast solve.
    let hold_worker = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let hold_queue = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    // Every arrival past the watermark is shed with a clean, typed 503 —
    // the request is read and answered, never a dropped connection.
    for i in 0..3 {
        let resp = post_query(
            addr,
            &format!("{{\"clients\":20,\"fe\":2,\"fn\":3,\"seed\":{i}}}"),
        );
        assert_eq!(resp.status, 503, "arrival {i}: {}", resp.body);
        assert!(
            resp.header("Retry-After").is_some(),
            "shed without Retry-After: {}",
            resp.body
        );
        assert!(
            resp.body.contains("\"error\":\"overloaded\""),
            "{}",
            resp.body
        );
        ifls::obs::validate_json_line(resp.body.trim_end()).unwrap();
    }
    // Release the holds; the worker drains (EOF on both) and admitted
    // requests are served again.
    drop(hold_worker);
    drop(hold_queue);
    let mut resp = post_query(addr, "{\"clients\":20,\"fe\":2,\"fn\":3,\"seed\":4}");
    for _ in 0..20 {
        if resp.status == 200 {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
        resp = post_query(addr, "{\"clients\":20,\"fe\":2,\"fn\":3,\"seed\":4}");
    }
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"schema\":\"ifls-stats/v1\""));
    // Sheds are visible in the metrics the daemon exports.
    let resp = request(addr, "GET", "/metrics", &[], None);
    let summary = ifls::obs::validate_prometheus(&resp.body).unwrap();
    assert!(
        summary.event_names.iter().any(|n| n == "requests_shed"),
        "requests_shed missing from /metrics: {:?}",
        summary.event_names
    );
    server.shutdown();
}

/// Poisoned-lock recovery, gated on `fault-inject`: a seeded fault
/// panics a request while it holds the daemon's shared locks (the
/// tree-version lock during routing, then the metrics lock during the
/// post-request flush). Both panics poison their `Mutex`; the daemon's
/// `lock_unpoisoned` discipline must shrug that off — every subsequent
/// request answers normally and the observability endpoints stay up.
///
/// `#[ignore]` because the fault slot table is process-global: run
/// concurrently with this binary's other tests, the armed fault could be
/// consumed by an unrelated server's request. CI runs it alone with
/// `cargo test --features fault-inject --test serve_concurrency -- --ignored`.
#[cfg(feature = "fault-inject")]
#[test]
#[ignore = "process-global fault injection; run alone via -- --ignored"]
fn poisoned_locks_do_not_take_down_subsequent_requests() {
    use ifls_fault::{self as fault, FaultPoint};

    let venue = load_venue(VENUE_SPEC).unwrap();
    let server = Server::start(venue, test_opts()).unwrap();
    let addr = server.addr();
    let body = "{\"clients\":60,\"fe\":3,\"fn\":6,\"seed\":7}";

    // Arming resets the point's hit counter, so triggers are 0-based
    // crossing indices counted from each `arm` call. A settle pause lets
    // the worker's post-panic bookkeeping land between rounds.
    let settle = || std::thread::sleep(Duration::from_millis(100));

    // Calibrate: how many LockPoison crossings one `/query` makes, and
    // the baseline answer every post-poison response must still match.
    fault::disarm_all();
    let baseline = post_query(addr, body);
    assert_eq!(baseline.status, 200, "{}", baseline.body);
    let baseline = answer_prefix(baseline.body.trim_end()).to_string();
    settle();
    let per_request = fault::hits(FaultPoint::LockPoison);
    // At least: one routing crossing under the tree-version lock, then
    // the pre-write metrics flush under the metrics lock.
    assert!(
        per_request >= 2,
        "expected crossings under both the tree and metrics locks, saw {per_request}"
    );

    // Crossing 0 of the next request: panic while holding the
    // tree-version lock. The victim's connection is dropped by the
    // worker's catch_unwind — that request is sacrificed by design.
    fault::arm(FaultPoint::LockPoison, 0);
    let victim = std::panic::catch_unwind(|| post_query(addr, body));
    assert!(victim.is_err(), "the injected tree-lock panic never fired");
    assert_eq!(fault::fired(FaultPoint::LockPoison), 1);
    settle();

    // Last calibrated crossing of the next request: the pre-write
    // metrics flush — a panic while holding the metrics lock, still
    // before the response is written, so this victim's connection is
    // dropped too.
    fault::arm(FaultPoint::LockPoison, per_request - 1);
    let victim = std::panic::catch_unwind(|| post_query(addr, body));
    assert!(
        victim.is_err(),
        "the injected metrics-lock panic never fired"
    );
    assert_eq!(fault::fired(FaultPoint::LockPoison), 1);
    settle();

    // Both shared locks are now poisoned. Every subsequent request must
    // still answer, bit-identical to the pre-poison baseline, and the
    // endpoints reading those locks must stay up.
    for i in 0..4 {
        let resp = post_query(addr, body);
        assert_eq!(resp.status, 200, "request {i} after poison: {}", resp.body);
        assert_eq!(
            answer_prefix(resp.body.trim_end()),
            baseline,
            "request {i} diverged after the poison"
        );
    }
    let metrics = request(addr, "GET", "/metrics", &[], None);
    assert_eq!(metrics.status, 200);
    ifls::obs::validate_prometheus(&metrics.body).unwrap();
    let health = request(addr, "GET", "/healthz", &[], None);
    assert_eq!(health.status, 200, "{}", health.body);
    // The two sacrificed requests are visible as caught panics.
    let serve_panics: u64 = health
        .body
        .split("\"serve_panics\":")
        .nth(1)
        .map(|rest| {
            rest.chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    assert!(serve_panics >= 2, "{}", health.body);

    server.shutdown();
}

#[test]
fn half_open_connections_do_not_wedge_workers() {
    let venue = load_venue(VENUE_SPEC).unwrap();
    let server = Server::start(venue, test_opts()).unwrap();
    let addr = server.addr();
    // Open connections that send nothing (or half a request) and go
    // silent; the read timeout must free the workers.
    let mut zombies = Vec::new();
    for _ in 0..4 {
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(b"POST /query HTTP/1.1\r\n");
        zombies.push(s);
    }
    std::thread::sleep(Duration::from_millis(700));
    let resp = post_query(addr, "{\"clients\":20,\"fe\":2,\"fn\":3}");
    assert_eq!(resp.status, 200, "{}", resp.body);
    drop(zombies);
    server.shutdown();
}
