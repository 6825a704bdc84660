//! Black-box protocol suite for `ifls serve`.
//!
//! Boots the daemon on an ephemeral port and speaks to it over real
//! sockets with an independent client (see `serve_common`): well-formed
//! queries must be bit-identical to the CLI path on the same snapshot;
//! malformed bodies, bad headers and unknown paths must come back as
//! typed 4xx responses — never a panic, never a hang; an oversized
//! request is refused with 413 before its body is read.

#[path = "serve_common/mod.rs"]
mod serve_common;

use serve_common::*;

use ifls::indoor::VenueFingerprint;
use ifls::viptree::{VipTree, VipTreeConfig};
use ifls_cli::commands::load_venue;

const VENUE_SPEC: &str = "grid:2x12";

fn start_with_snapshot(name: &str) -> (Server, std::path::PathBuf) {
    let venue = load_venue(VENUE_SPEC).unwrap();
    let idx = temp_path(name);
    VipTree::build(&venue, VipTreeConfig::default())
        .save_snapshot(&idx)
        .unwrap();
    let server = Server::start(
        venue,
        ServeOptions {
            index: Some(idx.clone()),
            ..test_opts()
        },
    )
    .unwrap();
    (server, idx)
}

#[test]
fn well_formed_queries_are_bit_identical_to_the_cli() {
    let (server, idx) = start_with_snapshot("protocol-oracle.idx");
    let addr = server.addr();
    let idx_str = idx.to_str().unwrap();
    for (objective, algorithm) in [
        ("minmax", "efficient"),
        ("minmax", "brute"),
        ("mindist", "efficient"),
        ("maxsum", "efficient"),
        ("minmax", "parallel"),
    ] {
        let body = format!(
            "{{\"objective\":\"{objective}\",\"algorithm\":\"{algorithm}\",\
             \"clients\":80,\"fe\":4,\"fn\":8,\"seed\":9}}"
        );
        let resp = post_query(addr, &body);
        assert_eq!(resp.status, 200, "{objective}/{algorithm}: {}", resp.body);
        let cli = cli_stats_json(&[
            "query",
            "--venue",
            VENUE_SPEC,
            "--objective",
            objective,
            "--algorithm",
            algorithm,
            "--clients",
            "80",
            "--fe",
            "4",
            "--fn",
            "8",
            "--seed",
            "9",
            "--stats-json",
            "--index",
            idx_str,
        ]);
        assert_eq!(
            answer_prefix(resp.body.trim_end()),
            answer_prefix(&cli),
            "{objective}/{algorithm}: daemon and CLI disagree"
        );
        assert_eq!(resp.header("Index-Version"), Some("1"));
    }
    server.shutdown();
    let _ = std::fs::remove_file(idx);
}

#[test]
fn integer_fields_are_read_exactly() {
    let (server, idx) = start_with_snapshot("protocol-exact-ints.idx");
    let addr = server.addr();
    // 2^53 + 1 has no f64 of its own: a body read as f64 would name seed
    // 2^53, a different workload.
    let resp = post_query(
        addr,
        "{\"clients\":30,\"fe\":2,\"fn\":4,\"seed\":9007199254740993}",
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let cli = cli_stats_json(&[
        "query",
        "--venue",
        VENUE_SPEC,
        "--clients",
        "30",
        "--fe",
        "2",
        "--fn",
        "4",
        "--seed",
        "9007199254740993",
        "--stats-json",
        "--index",
        idx.to_str().unwrap(),
    ]);
    assert_eq!(
        answer_prefix(resp.body.trim_end()),
        answer_prefix(&cli),
        "daemon and CLI disagree on seed 2^53 + 1"
    );
    assert!(cli.contains("\"seed\":9007199254740993,"), "{cli}");
    // 2^64 fits no integer field: a typed 400, not a saturated u64::MAX.
    let resp = post_query(addr, "{\"seed\":18446744073709551616}");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(
        resp.body.contains("\"schema\":\"ifls-serve-error/v1\""),
        "{}",
        resp.body
    );
    assert!(
        resp.body.contains("does not fit in 64 bits"),
        "{}",
        resp.body
    );
    server.shutdown();
    let _ = std::fs::remove_file(idx);
}

#[test]
fn malformed_bodies_get_typed_400s_and_the_daemon_survives() {
    let venue = load_venue(VENUE_SPEC).unwrap();
    let server = Server::start(venue, test_opts()).unwrap();
    let addr = server.addr();
    for bad in [
        "{",                         // truncated JSON
        "[1,2]",                     // not an object
        "{\"objective\":{}}",        // nested value
        "{\"frobnicate\":1}",        // unknown field
        "{\"objective\":\"mean\"}",  // unknown objective
        "{\"algorithm\":\"magic\"}", // unknown algorithm
        "{\"clients\":-5}",          // negative integer
        "{\"clients\":1.5}",         // fractional integer
        "{\"seed\":0,\"seed\":1}",   // duplicate key
        "{\"dist_cache\":\"yes\"}",  // wrong type
    ] {
        let resp = post_query(addr, bad);
        assert_eq!(resp.status, 400, "body {bad:?} -> {}", resp.body);
        ifls::obs::validate_json_line(resp.body.trim_end())
            .unwrap_or_else(|e| panic!("error body for {bad:?} is not JSON: {e}"));
        assert!(
            resp.body.contains("\"schema\":\"ifls-serve-error/v1\""),
            "body {bad:?} -> {}",
            resp.body
        );
    }
    // Requests the venue cannot satisfy are 422, not a library panic.
    for bad in [
        "{\"fe\":100000,\"fn\":100000}", // more facilities than partitions
        "{\"sigma\":-1}",                // sampling precondition
        "{\"sigma\":0}",
        "{\"fn\":0}",
        "{\"clients\":999999999}", // above the request work cap
        // fe + fn at the wrap boundary: a plain `+` on these overflows in
        // release builds (no overflow-checks), sails past the limit guard
        // and panics in the workload generator. Must stay a typed 422.
        "{\"fe\":18446744073709551615,\"fn\":2}",
        "{\"fe\":2,\"fn\":18446744073709551615}",
        // One request may not shard into more threads than the host has.
        "{\"algorithm\":\"parallel\",\"threads\":100000}",
    ] {
        let resp = post_query(addr, bad);
        assert_eq!(resp.status, 422, "body {bad:?} -> {}", resp.body);
    }
    // A malformed Deadline-Ms header is a 400, not a silent default.
    let resp = request(
        addr,
        "POST",
        "/query",
        &[("Deadline-Ms", "soon")],
        Some("{}"),
    );
    assert_eq!(resp.status, 400, "{}", resp.body);
    // The threads cap is the host's parallelism, and only parallel
    // solves shard by `threads`: both edges are accepted.
    let max = ifls::core::parallel::default_threads();
    for ok in [
        format!(
            "{{\"algorithm\":\"parallel\",\"threads\":{max},\"clients\":30,\"fe\":2,\"fn\":4}}"
        ),
        "{\"algorithm\":\"efficient\",\"threads\":100000,\"clients\":30,\"fe\":2,\"fn\":4}".into(),
    ] {
        let resp = post_query(addr, &ok);
        assert_eq!(resp.status, 200, "body {ok:?} -> {}", resp.body);
    }
    // After all of that abuse the daemon still answers.
    let resp = post_query(addr, "{\"clients\":30,\"fe\":2,\"fn\":4}");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"schema\":\"ifls-stats/v1\""));
    server.shutdown();
}

#[test]
fn unknown_paths_and_methods_are_typed() {
    let venue = load_venue(VENUE_SPEC).unwrap();
    let server = Server::start(venue, test_opts()).unwrap();
    let addr = server.addr();
    let resp = request(addr, "GET", "/nope", &[], None);
    assert_eq!(resp.status, 404);
    assert!(
        resp.body.contains("\"error\":\"not_found\""),
        "{}",
        resp.body
    );
    let resp = request(addr, "GET", "/query", &[], None);
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("Allow"), Some("POST"));
    let resp = request(addr, "POST", "/metrics", &[], Some("{}"));
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("Allow"), Some("GET"));
    // Framing abuse: garbage request line, bad version, POST without
    // Content-Length. All typed, none hang.
    let out = raw_roundtrip(addr, b"NONSENSE\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 400 "), "{out}");
    let out = raw_roundtrip(addr, b"GET /healthz SPDY/3\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 400 "), "{out}");
    let out = raw_roundtrip(addr, b"POST /query HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 411 "), "{out}");
    server.shutdown();
}

#[test]
fn oversized_requests_are_refused_with_413() {
    let venue = load_venue(VENUE_SPEC).unwrap();
    let server = Server::start(
        venue,
        ServeOptions {
            max_body_bytes: 256,
            ..test_opts()
        },
    )
    .unwrap();
    let addr = server.addr();
    let huge = format!("{{\"seed\":{}}}", "9".repeat(1024));
    let resp = post_query(addr, &huge);
    assert_eq!(resp.status, 413, "{}", resp.body);
    assert!(
        resp.body.contains("\"error\":\"payload_too_large\""),
        "{}",
        resp.body
    );
    // The refusal happens per-connection; a fresh request is served.
    let resp = post_query(addr, "{\"clients\":20,\"fe\":2,\"fn\":3}");
    assert_eq!(resp.status, 200, "{}", resp.body);
    server.shutdown();
}

#[test]
fn slow_loris_connections_are_cut_at_the_request_deadline() {
    use std::io::{ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let venue = load_venue(VENUE_SPEC).unwrap();
    let server = Server::start(
        venue,
        ServeOptions {
            read_timeout: Duration::from_millis(400),
            request_read_timeout: Duration::from_millis(600),
            ..test_opts()
        },
    )
    .unwrap();
    let addr = server.addr();
    let started = Instant::now();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    s.write_all(b"POST /query HTTP/1.1\r\nX-Drip: ").unwrap();
    // Drip one header byte per ~50 ms: every socket read succeeds well
    // inside the 400 ms per-syscall timeout, so only the whole-request
    // wall deadline can end this connection.
    let mut closed = false;
    for _ in 0..200 {
        if s.write_all(b"x").is_err() {
            closed = true;
            break;
        }
        let mut buf = [0u8; 64];
        match s.read(&mut buf) {
            Ok(0) => {
                closed = true; // EOF: the server hung up
                break;
            }
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => {
                closed = true; // reset: also a hang-up
                break;
            }
        }
    }
    assert!(closed, "slow-loris connection was never cut");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cut took {:?}, expected ~600ms",
        started.elapsed()
    );
    // The worker that cut it is free to serve a real client again.
    let resp = post_query(addr, "{\"clients\":20,\"fe\":2,\"fn\":3}");
    assert_eq!(resp.status, 200, "{}", resp.body);
    server.shutdown();
}

#[test]
fn healthz_reports_snapshot_fingerprint_and_uptime() {
    let (server, idx) = start_with_snapshot("protocol-healthz.idx");
    let addr = server.addr();
    let venue = load_venue(VENUE_SPEC).unwrap();
    let fp = format!("{}", VenueFingerprint::compute(&venue));
    let resp = request(addr, "GET", "/healthz", &[], None);
    assert_eq!(resp.status, 200);
    ifls::obs::validate_json_line(resp.body.trim_end()).unwrap();
    assert!(
        resp.body.contains("\"schema\":\"ifls-serve-health/v1\""),
        "{}",
        resp.body
    );
    assert!(
        resp.body.contains(&format!("\"fingerprint\":\"{fp}\"")),
        "{}",
        resp.body
    );
    assert!(resp.body.contains("\"index_version\":1"), "{}", resp.body);
    assert!(
        resp.body.contains("\"source\":\"snapshot:"),
        "{}",
        resp.body
    );
    assert!(resp.body.contains("\"uptime_ms\":"), "{}", resp.body);
    server.shutdown();
    let _ = std::fs::remove_file(idx);
}

#[test]
fn metrics_expose_request_counters_in_prometheus_format() {
    let venue = load_venue(VENUE_SPEC).unwrap();
    let server = Server::start(venue, test_opts()).unwrap();
    let addr = server.addr();
    for seed in 0..3 {
        let resp = post_query(
            addr,
            &format!("{{\"clients\":20,\"fe\":2,\"fn\":3,\"seed\":{seed}}}"),
        );
        assert_eq!(resp.status, 200);
    }
    let resp = request(addr, "GET", "/metrics", &[], None);
    assert_eq!(resp.status, 200);
    let summary = ifls::obs::validate_prometheus(&resp.body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{}", resp.body));
    assert!(
        summary.event_names.iter().any(|n| n == "requests_total"),
        "requests_total missing: {:?}",
        summary.event_names
    );
    assert!(
        resp.body.contains("ifls_queue_depth"),
        "queue depth gauge missing:\n{}",
        resp.body
    );
    assert!(
        resp.body.contains("ifls_serve_request_latency_ns_bucket"),
        "latency histogram missing:\n{}",
        resp.body
    );
    server.shutdown();
}
