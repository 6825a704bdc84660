//! Closed-loop benchmark client for `ifls serve`.
//!
//! `bench_serve --addr HOST:PORT [--requests N] [--concurrency C] ...`
//! drives a running daemon with C keep-alive connections, each issuing
//! requests back-to-back (closed loop: a new request starts only when the
//! previous response is fully read), and reports an
//! `ifls-bench-serve/v2` JSON object: status-class counts, retry counts,
//! throughput, and a p50/p95/p99 latency distribution from the same log2
//! histogram the engine uses ([`ifls_obs::LatencyHistogram`]).
//!
//! When the daemon sheds a request (`503` + `Retry-After`), the client
//! honors the advertised delay with seeded jittered backoff (uniform in
//! `[delay/2, delay]`, [`ifls_rng::StdRng`] keyed by `--backoff-seed` and
//! the worker index, so a rerun replays the same schedule) and retries up
//! to `--max-retries` times before counting the request as shed.
//!
//! `--smoke` is the CI gate: 100 requests, then exit non-zero unless
//! every one came back `200` with a well-formed `ifls-stats/v1` body.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ifls_obs::LatencyHistogram;
use ifls_rng::StdRng;

struct Config {
    addr: String,
    requests: u64,
    concurrency: usize,
    objective: String,
    algorithm: String,
    clients: u64,
    fe: u64,
    fn_: u64,
    deadline_ms: Option<u64>,
    vary_seed: bool,
    out: Option<String>,
    smoke: bool,
    max_retries: u64,
    backoff_seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            addr: String::new(),
            requests: 1000,
            concurrency: 8,
            objective: "minmax".into(),
            algorithm: "efficient".into(),
            clients: 200,
            fe: 5,
            fn_: 10,
            deadline_ms: None,
            vary_seed: true,
            out: None,
            smoke: false,
            max_retries: 3,
            backoff_seed: 0x1F15,
        }
    }
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config::default();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("option `{}` needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => cfg.addr = value(&mut i)?,
            "--requests" => cfg.requests = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--concurrency" => {
                cfg.concurrency = value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--objective" => cfg.objective = value(&mut i)?,
            "--algorithm" => cfg.algorithm = value(&mut i)?,
            "--clients" => cfg.clients = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--fe" => cfg.fe = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--fn" => cfg.fn_ = value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--deadline-ms" => {
                cfg.deadline_ms = Some(value(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--fixed-seed" => cfg.vary_seed = false,
            "--max-retries" => {
                cfg.max_retries = value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--backoff-seed" => {
                cfg.backoff_seed = value(&mut i)?.parse().map_err(|e| format!("{e}"))?
            }
            "--out" => cfg.out = Some(value(&mut i)?),
            "--smoke" => {
                cfg.smoke = true;
                cfg.requests = 100;
                cfg.concurrency = 4;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    if cfg.addr.is_empty() {
        return Err("missing required option `--addr`".into());
    }
    if cfg.concurrency == 0 || cfg.requests == 0 {
        return Err("--requests and --concurrency must be at least 1".into());
    }
    Ok(cfg)
}

/// What one HTTP exchange yields: the status code, body, and the parsed
/// `Retry-After` seconds when the daemon sent one, or an error string.
type Exchange = Result<(u16, String, Option<u64>), String>;

/// One HTTP exchange over an established connection (on error the caller
/// reconnects).
fn exchange(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, body: &str) -> Exchange {
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status: {e}"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line `{}`", status_line.trim()))?;
    let mut content_length = 0usize;
    let mut retry_after = None;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read header: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse().ok())
        {
            content_length = v;
        }
        if let Some(v) = lower
            .strip_prefix("retry-after:")
            .map(str::trim)
            .and_then(|v| v.parse().ok())
        {
            retry_after = Some(v);
        }
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    String::from_utf8(body)
        .map(|b| (status, b, retry_after))
        .map_err(|_| "response body is not UTF-8".into())
}

#[derive(Default)]
struct Tally {
    ok: u64,
    degraded: u64,
    shed: u64,
    other_status: u64,
    errors: u64,
    retries: u64,
    histogram: LatencyHistogram,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.shed += other.shed;
        self.other_status += other.other_status;
        self.errors += other.errors;
        self.retries += other.retries;
        self.histogram.merge(&other.histogram);
    }
}

fn client_loop(cfg: &Config, next: &AtomicU64, worker: u64) -> Tally {
    let mut tally = Tally::default();
    let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
    // Seeded per worker so a rerun with the same seed replays the same
    // backoff schedule — jitter without losing reproducibility.
    let mut rng =
        StdRng::seed_from_u64(cfg.backoff_seed ^ worker.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= cfg.requests {
            return tally;
        }
        let seed = if cfg.vary_seed { i } else { 0 };
        let deadline = match cfg.deadline_ms {
            Some(ms) => format!(",\"deadline_ms\":{ms}"),
            None => String::new(),
        };
        let body = format!(
            "{{\"objective\":\"{}\",\"algorithm\":\"{}\",\"clients\":{},\"fe\":{},\"fn\":{},\"seed\":{seed}{deadline}}}",
            cfg.objective, cfg.algorithm, cfg.clients, cfg.fe, cfg.fn_
        );
        // One reconnect attempt per request: a daemon closing an idle
        // keep-alive connection is normal, a second failure is an error.
        // A shed (`503`) is retried up to `--max-retries` times after
        // sleeping a jittered slice of the advertised `Retry-After`.
        let mut attempt = 0;
        let mut retries = 0;
        let outcome = loop {
            if conn.is_none() {
                match TcpStream::connect(&cfg.addr) {
                    Ok(s) => {
                        let reader = match s.try_clone() {
                            Ok(c) => BufReader::new(c),
                            Err(e) => break Err(format!("clone: {e}")),
                        };
                        conn = Some((s, reader));
                    }
                    Err(e) => break Err(format!("connect: {e}")),
                }
            }
            let (stream, reader) = conn.as_mut().unwrap();
            let started = Instant::now();
            match exchange(stream, reader, &body) {
                Ok((503, resp_body, retry_after)) => {
                    if retries >= cfg.max_retries {
                        break Ok((503, resp_body, started.elapsed()));
                    }
                    retries += 1;
                    tally.retries += 1;
                    // Shed responses carry `Connection: close`.
                    conn = None;
                    let advertised_ms = retry_after.unwrap_or(1).clamp(1, 30) * 1000;
                    let jittered = rng.random_range((advertised_ms / 2)..=advertised_ms);
                    std::thread::sleep(Duration::from_millis(jittered));
                }
                Ok((status, resp_body, _)) => break Ok((status, resp_body, started.elapsed())),
                Err(e) => {
                    conn = None;
                    attempt += 1;
                    if attempt > 1 {
                        break Err(e);
                    }
                }
            }
        };
        match outcome {
            Ok((200, resp_body, elapsed)) => {
                if resp_body.contains("\"schema\":\"ifls-stats/v1\"") {
                    tally.ok += 1;
                    if resp_body.contains("\"degraded\":true") {
                        tally.degraded += 1;
                    }
                    tally.histogram.record_ns(elapsed.as_nanos() as u64);
                } else {
                    tally.errors += 1;
                }
            }
            Ok((503, _, _)) => tally.shed += 1,
            Ok((_, _, _)) => tally.other_status += 1,
            Err(_) => tally.errors += 1,
        }
    }
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_serve: {e}");
            eprintln!(
                "usage: bench_serve --addr HOST:PORT [--requests N] [--concurrency C] \
                 [--objective O] [--algorithm A] [--clients N] [--fe N] [--fn N] \
                 [--deadline-ms N] [--fixed-seed] [--max-retries N] [--backoff-seed N] \
                 [--out FILE] [--smoke]"
            );
            std::process::exit(2);
        }
    };
    let next = AtomicU64::new(0);
    let total = Mutex::new(Tally::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..cfg.concurrency {
            let (cfg, next, total) = (&cfg, &next, &total);
            scope.spawn(move || {
                let tally = client_loop(cfg, next, t as u64);
                total.lock().unwrap().merge(&tally);
            });
        }
    });
    let elapsed = started.elapsed();
    let t = total.into_inner().unwrap();
    let elapsed_ms = elapsed.as_secs_f64() * 1e3;
    let rps = cfg.requests as f64 / elapsed.as_secs_f64();
    let report = format!(
        concat!(
            "{{\"schema\":\"ifls-bench-serve/v2\",\"addr\":\"{addr}\",",
            "\"requests\":{requests},\"concurrency\":{concurrency},",
            "\"objective\":\"{objective}\",\"algorithm\":\"{algorithm}\",",
            "\"clients\":{clients},\"fe\":{fe},\"fn\":{fn_},",
            "\"ok\":{ok},\"degraded\":{degraded},\"shed\":{shed},",
            "\"other_status\":{other},\"errors\":{errors},\"retries\":{retries},",
            "\"elapsed_ms\":{elapsed_ms:.3},\"throughput_rps\":{rps:.1},",
            "\"latency\":{{\"count\":{lcount},\"p50_ns\":{p50},",
            "\"p95_ns\":{p95},\"p99_ns\":{p99}}}}}"
        ),
        addr = cfg.addr,
        requests = cfg.requests,
        concurrency = cfg.concurrency,
        objective = cfg.objective,
        algorithm = cfg.algorithm,
        clients = cfg.clients,
        fe = cfg.fe,
        fn_ = cfg.fn_,
        ok = t.ok,
        degraded = t.degraded,
        shed = t.shed,
        other = t.other_status,
        errors = t.errors,
        retries = t.retries,
        elapsed_ms = elapsed_ms,
        rps = rps,
        lcount = t.histogram.count(),
        p50 = t.histogram.p50_ns(),
        p95 = t.histogram.p95_ns(),
        p99 = t.histogram.p99_ns(),
    );
    println!("{report}");
    if let Some(path) = &cfg.out {
        if let Err(e) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("bench_serve: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    if cfg.smoke {
        let p99_ms = t.histogram.p99_ns() as f64 / 1e6;
        eprintln!(
            "smoke: {}/{} ok, {} errors, {} retries, p99 {p99_ms:.2} ms",
            t.ok, cfg.requests, t.errors, t.retries
        );
        if t.ok != cfg.requests {
            eprintln!(
                "smoke FAILED: expected {} ok responses, got {} (shed {}, other {}, errors {})",
                cfg.requests, t.ok, t.shed, t.other_status, t.errors
            );
            std::process::exit(1);
        }
    }
}
