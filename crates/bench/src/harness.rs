//! Minimal micro-benchmark harness with a Criterion-compatible surface.
//!
//! The workspace must build with no network access, so the Criterion crate
//! is out of reach; the benches instead use this drop-in subset of its API
//! ([`Criterion`], [`BenchmarkId`], groups, `Bencher::iter`). Each
//! benchmark warms up, calibrates an iteration count against the
//! configured measurement time, takes `sample_size` timed samples and
//! reports min / median / max per iteration.
//!
//! Bench binaries also understand a `--threads N` argument (see
//! [`threads_arg`]) so the batch-runner bench can be pinned to a worker
//! count: `cargo bench --bench viptree_ops -- --threads 4`.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Worker-thread count for multi-threaded benches: the value of a
/// `--threads N` (or `--threads=N`) CLI argument, else the `IFLS_THREADS`
/// environment variable, else `default`.
pub fn threads_arg(default: usize) -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        } else if let Some(v) = a.strip_prefix("--threads=") {
            if let Ok(v) = v.parse() {
                return v;
            }
        }
    }
    std::env::var("IFLS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Benchmark configuration and entry point (Criterion-compatible subset).
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark (min 2).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Target total measuring time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Warm-up time before calibration.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }

    /// Ends the run (kept for Criterion API compatibility).
    pub fn final_summary(&mut self) {}
}

/// Identifier of one benchmark within a group: `function/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Combines a function name and a parameter value.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        Self {
            id: format!("{function}/{parameter}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_string() }
    }
}

/// A named collection of benchmarks sharing the parent configuration.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark closure.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            config: self.criterion.clone(),
            sample: None,
        };
        f(&mut bencher);
        report(&self.name, &id.id, bencher.sample.as_ref());
    }

    /// Runs one benchmark closure against a fixed input.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input));
    }

    /// Closes the group (kept for Criterion API compatibility).
    pub fn finish(self) {}
}

/// Timing driver handed to each benchmark closure.
pub struct Bencher {
    config: Criterion,
    sample: Option<Sample>,
}

struct Sample {
    min: f64,
    median: f64,
    max: f64,
    iters: u64,
    samples: usize,
}

impl Bencher {
    /// Measures `f`: warm-up, calibration, then `sample_size` timed
    /// samples of a calibrated batch each.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_iters == 0 || warm_start.elapsed() < self.config.warm_up_time {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = (warm_start.elapsed().as_secs_f64() / warm_iters as f64).max(1e-9);

        let samples = self.config.sample_size;
        let target = self.config.measurement_time.as_secs_f64() / samples as f64;
        let iters = ((target / per_iter).ceil() as u64).clamp(1, 1_000_000_000);

        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            times.push(t.elapsed().as_secs_f64() / iters as f64);
        }
        times.sort_by(f64::total_cmp);
        self.sample = Some(Sample {
            min: times[0],
            median: times[times.len() / 2],
            max: *times.last().expect("samples >= 2"),
            iters,
            samples,
        });
    }
}

fn report(group: &str, id: &str, sample: Option<&Sample>) {
    match sample {
        Some(s) => println!(
            "{group}/{id:<40} time: [{} {} {}]  ({} samples x {} iters)",
            fmt_duration(s.min),
            fmt_duration(s.median),
            fmt_duration(s.max),
            s.samples,
            s.iters,
        ),
        None => println!("{group}/{id:<40} (no measurement)"),
    }
}

fn fmt_duration(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1));
        let mut group = c.benchmark_group("harness_test");
        let mut ran = false;
        group.bench_function("noop", |b| {
            b.iter(|| 1 + 1);
            ran = true;
        });
        group.bench_with_input(BenchmarkId::new("with_input", 7), &7usize, |b, &x| {
            b.iter(|| x * 2)
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn threads_arg_falls_back_to_default() {
        // Test binaries are not invoked with --threads.
        std::env::remove_var("IFLS_THREADS");
        assert_eq!(threads_arg(3), 3);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert!(fmt_duration(5e-9).ends_with("ns"));
        assert!(fmt_duration(5e-6).ends_with("us"));
        assert!(fmt_duration(5e-3).ends_with("ms"));
        assert!(fmt_duration(2.5).ends_with(" s"));
    }
}
