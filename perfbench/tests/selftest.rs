//! Self-tests of the benchmark: the checker counts every kind of wrong
//! answer, percentiles are nearest-rank with a well-populated tail, inputs
//! are a pure function of the seed, the catalogue matches
//! `BENCHMARK.json`, and a tiny run of each workload goes through the same
//! public entry points the full run uses — so a renamed or changed entry
//! point fails here first.

use std::io::Cursor;
use std::sync::Mutex;

use ifls_core::api::Objective;
use ifls_perfbench::check::{self, Answer, Tally};
use ifls_perfbench::json::Json;
use ifls_perfbench::report::{END_TO_END, PER_LAYER};
use ifls_perfbench::venues::CPH;
use ifls_perfbench::{cold_batch, http, serve_mc, stats, warm_stream, Outcome};

/// `ifls_obs`'s enable flag is process-wide (and the daemon sets it), so
/// the workload runs take turns.
static RUNS: Mutex<()> = Mutex::new(());

fn body(answer: &str, value: &str) -> String {
    format!(
        "{{\"schema\":\"ifls-stats/v1\",\"venue\":\"x\",\"answer\":{answer},\
         \"max_distance_m\":{value},\"degraded\":false,\"stats\":{{\"elapsed_ns\":5,\
         \"dist_computations\":1,\"facilities_retrieved\":1,\"clients_pruned\":0,\
         \"cache_hits\":1,\"cache_misses\":0,\"cache_bytes\":0,\"peak_bytes\":8}}}}\n"
    )
}

#[test]
fn checker_counts_every_kind_of_failure() {
    let want = Answer {
        id: Some(7),
        value: 12.5,
    };
    let mut tally = Tally::default();
    let mut judge = |status: u16, text: &str| {
        let outcome = check::served(status, text, "max_distance_m")
            .and_then(|s| check::compare(s.answer, want));
        tally.record(outcome);
    };
    judge(200, &body("7", "12.5")); // correct
    judge(200, &body("8", "12.5")); // wrong answer id
    judge(200, &body("7", "12.6")); // wrong objective value
    judge(503, &body("7", "12.5")); // non-200
    judge(200, "{\"schema\":\"ifls-stats/v1\",\"answer\":7"); // cut-off JSON
    judge(
        200,
        &body("7", "12.5").replace("\"degraded\":false", "\"degraded\":true"),
    );
    assert_eq!(tally.attempted, 6);
    assert_eq!(tally.failed, 5, "{:?}", tally.reasons);
    assert!(tally.reasons.contains_key("wrong answer id"));
    assert!(tally.reasons.contains_key("wrong objective value"));
    assert!(tally.reasons.contains_key("status 503"));

    // A value within 1e-9 relative passes; one just outside does not.
    let near = Answer {
        id: Some(7),
        value: 12.5 * (1.0 + 0.5e-9),
    };
    let far = Answer {
        id: Some(7),
        value: 12.5 * (1.0 + 2e-9),
    };
    assert!(check::compare(near, want).is_ok());
    assert!(check::compare(far, want).is_err());
    assert!(check::compare(
        Answer {
            id: None,
            value: 12.5
        },
        want
    )
    .is_err());
}

#[test]
fn a_truncated_body_is_a_transport_failure() {
    let full = body("7", "12.5");
    let wire = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{}",
        full.len(),
        &full[..full.len() / 2]
    );
    let err = http::read_response(&mut Cursor::new(wire.into_bytes())).unwrap_err();
    assert!(err.starts_with("truncated body"), "{err}");

    let wire = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{full}",
        full.len()
    );
    let r = http::read_response(&mut Cursor::new(wire.into_bytes())).unwrap();
    assert_eq!((r.status, r.body), (200, full));

    let no_length = "HTTP/1.1 200 OK\r\n\r\n{}";
    assert!(http::read_response(&mut Cursor::new(no_length.as_bytes().to_vec())).is_err());
}

#[test]
fn percentiles_are_nearest_rank_with_ten_samples_beyond_p99() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::nearest_rank(&v, 50.0), Some(5.0));
    assert_eq!(stats::nearest_rank(&v, 99.0), Some(10.0));
    assert_eq!(stats::nearest_rank(&v, 10.0), Some(1.0));
    assert_eq!(stats::nearest_rank(&[], 50.0), None);
    // Order of the input does not matter.
    let mut r = v.clone();
    r.reverse();
    assert_eq!(stats::nearest_rank(&r, 50.0), Some(5.0));

    let n = stats::min_samples_for_p99();
    assert_eq!(n, 1000);
    assert_eq!(stats::samples_beyond(n, 99.0), 10);
    assert_eq!(stats::samples_beyond(n - 1, 99.0), 9);
    // The warm stream keeps its window open until p99 is well populated.
    assert!(warm_stream::Config::standard(1, 20.0).min_queries >= n);
}

#[test]
fn request_bodies_are_a_function_of_the_seed() {
    let cfg = serve_mc::Config::standard(42, 2.0);
    let bodies = |cfg: &serve_mc::Config| -> Vec<String> {
        (0..2000).map(|i| serve_mc::body(cfg, i)).collect()
    };
    let a = bodies(&cfg);
    assert_eq!(a, bodies(&cfg));
    // Every body in a run is unique; the seed stays inside JSON's exact
    // integer range, so the daemon answers the workload the checker
    // rebuilds.
    let mut unique = a.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), a.len());
    assert!((0..2000).all(|i| serve_mc::request_seed(&cfg, i) < 1 << 53));
    assert!(a[0].contains("\"objective\":\"maxsum\""), "{}", a[0]);
    // Another seed, other requests.
    let other = bodies(&serve_mc::Config::standard(43, 2.0));
    assert!(other.iter().all(|b| !a.contains(b)));
}

fn catalogue(doc: &Json, key: &str) -> Vec<(String, String)> {
    match doc.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no `{key}` list"),
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(catalogue(&doc, "end_to_end"), own(END_TO_END));
    assert_eq!(catalogue(&doc, "per_layer"), own(PER_LAYER));
}

fn assert_complete(o: &Outcome, trace: bool) {
    assert!(o.tally.attempted > 0);
    assert_eq!(o.tally.failed, 0, "{:?}", o.tally.first);
    let line = ifls_perfbench::report::result_line(
        true,
        o.tally.attempted,
        o.tally.failed,
        &o.metrics,
        trace,
    );
    let doc = Json::parse(&line).unwrap();
    let metrics = doc.get("metrics").unwrap();
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in catalogue {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
        assert!(m.get("value").and_then(Json::as_f64).unwrap().is_finite());
    }
}

/// The traced ledger's parts add up to its wall time.
fn assert_balanced(o: &Outcome) {
    let ctx = Json::parse(&o.context.render()).unwrap();
    let ledger = ctx.get("ledger").expect("traced runs report a ledger");
    let wall = ledger.get("wall_ms").and_then(Json::as_f64).unwrap();
    let residual = ledger.get("residual_ms").and_then(Json::as_f64).unwrap();
    let unattributed = ledger
        .get("unattributed_ms")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(wall > 0.0);
    assert!(
        residual.abs() < 1e-6 * wall,
        "residual {residual} of {wall}"
    );
    assert!(unattributed >= 0.0, "spans cover more than the wall time");
}

fn tiny_warm_stream(seed: u64) -> warm_stream::Config {
    warm_stream::Config {
        venues: vec![CPH],
        block: vec![0],
        clients: 40,
        seconds: 0.05,
        min_queries: 6,
        setup_reps: 2,
        oracle_sample: 3,
        seed,
    }
}

#[test]
fn tiny_warm_stream_runs_and_checks_out() {
    let _turn = RUNS.lock().unwrap_or_else(|e| e.into_inner());
    let o = warm_stream::run(&tiny_warm_stream(5), false).unwrap();
    assert_complete(&o, false);
    // One round per set-up repetition, each replaying the same queries;
    // the end-to-end timings are the best round's.
    let ctx = Json::parse(&o.context.render()).unwrap();
    let per_round = |key: &str| -> Vec<f64> {
        match ctx.get(key) {
            Some(Json::Arr(v)) => v.iter().map(|x| x.as_f64().unwrap()).collect(),
            other => panic!("{key}: {other:?}"),
        }
    };
    let p50 = per_round("round_p50_ms");
    assert_eq!(p50.len(), 2);
    let n = ctx.get("queries_per_round").and_then(Json::as_f64).unwrap();
    assert_eq!(o.tally.attempted, 2 * n as u64);
    assert_eq!(
        o.metrics.get("p50_ms"),
        p50.iter().copied().fold(f64::MAX, f64::min)
    );
    let qps = per_round("round_qps");
    assert_eq!(
        o.metrics.get("qps"),
        qps.iter().copied().fold(0.0, f64::max)
    );
    let o = warm_stream::run(&tiny_warm_stream(5), true).unwrap();
    assert_complete(&o, true);
    assert_balanced(&o);
    assert!(o.metrics.get("core.dist_computations_per_query") > 0.0);
    assert!(o.metrics.get("obs.trace_overhead") > 0.0);
}

fn tiny_cold_batch(seed: u64) -> cold_batch::Config {
    cold_batch::Config {
        venues: vec![cold_batch::VenuePlan {
            spec: CPH,
            batch: [3, 2, 2],
            references: 2,
        }],
        clients: 30,
        threads: 2,
        seconds: 0.01,
        setup_reps: 2,
        seed,
    }
}

#[test]
fn tiny_cold_batch_runs_and_checks_out() {
    let _turn = RUNS.lock().unwrap_or_else(|e| e.into_inner());
    let o = cold_batch::run(&tiny_cold_batch(9), false).unwrap();
    assert_complete(&o, false);
    // One round: every objective once.
    assert_eq!(o.tally.attempted, 7);
    let o = cold_batch::run(&tiny_cold_batch(9), true).unwrap();
    assert_complete(&o, true);
    assert_balanced(&o);
    assert!(o.metrics.get("viptree.cache_misses_per_query") > 0.0);
    assert!(o.metrics.get("core.parallel.busy_share") > 0.0);
}

#[test]
fn tiny_serve_run_checks_out_over_real_sockets() {
    let _turn = RUNS.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = serve_mc::Config {
        venue: CPH,
        clients: 10,
        objective: Objective::MaxSum,
        connections: 2,
        seconds: 0.3,
        setup_reps: 2,
        references: 20,
        seed: 3,
    };
    let o = serve_mc::run(&cfg, true).unwrap();
    assert_complete(&o, true);
    assert!(o.metrics.get("serve.solve_ms") > 0.0);
    assert!(o.metrics.get("serve.server_ms") > 0.0);
    assert_eq!(o.metrics.get("serve.non200"), 0.0);
    // The hermetic options leave nothing in the working directory.
    assert!(!std::path::Path::new("ifls-trace-dump.jsonl").exists());
    assert!(!std::path::Path::new(".bench_tmp").exists());
}
