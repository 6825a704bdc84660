//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints two lines: a context line
//! (`{"context": …}`) and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 0 when every
//! answer checked out, 1 when any failed, 2 on a usage or set-up error
//! (without printing a result).

use std::path::Path;
use std::process::ExitCode;

use ifls_perfbench::report::{self, Context};
use ifls_perfbench::{cold_batch, serve_mc, setup, warm_stream, Outcome};

const USAGE: &str = "usage: perfbench --workload warm-stream|cold-batch|serve-mc \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed `{value}`"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The commit the run measured, when the working directory is a git
/// checkout.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// FNV-1a over the path and bytes of every file under `crates/` plus the
/// root manifest: identifies the measured source where no git metadata
/// exists.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", ifls_indoor::fnv1a(&bytes))
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "warm-stream" => warm_stream::run(
            &warm_stream::Config::standard(args.seed, args.seconds),
            args.trace,
        ),
        "cold-batch" => cold_batch::run(
            &cold_batch::Config::standard(args.seed, args.seconds),
            args.trace,
        ),
        "serve-mc" => serve_mc::run(
            &serve_mc::Config::standard(args.seed, args.seconds),
            args.trace,
        ),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    setup::mark_process_start();
    let ticks = report::cpu_ticks();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let peak = report::peak_rss_mib();
    outcome.metrics.set("peak_rss_mib", peak);
    let t = &outcome.tally;
    let reasons: Vec<String> = t
        .reasons
        .iter()
        .map(|(k, v)| format!("{}:{v}", ifls_perfbench::json::string(k)))
        .collect();
    let mut ctx = Context::default();
    ctx.str("workload", &args.workload)
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .num("trace", u8::from(args.trace) as f64)
        .num(
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        )
        .num("cpu_steal_share", report::steal_share(ticks))
        .str("git_commit", &git_commit())
        .str("source_fingerprint", &source_fingerprint())
        .raw(
            "failed_share",
            format!(
                "{{\"value\":{},\"unit\":\"share\"}}",
                ifls_perfbench::json::num(t.failed_share())
            ),
        )
        .raw("failures", format!("{{{}}}", reasons.join(",")))
        .raw("params", outcome.context.render());
    println!("{{\"context\":{}}}", ctx.render());
    if let Some(first) = &t.first {
        eprintln!("perfbench: first failure: {first}");
    }
    let correct = t.failed == 0;
    println!(
        "{}",
        report::result_line(correct, t.attempted, t.failed, &outcome.metrics, args.trace)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
