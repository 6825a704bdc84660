//! # ifls-perfbench — the repository benchmark
//!
//! Three workloads, each run in its own process by one command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm-stream|cold-batch|serve-mc --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics measured with tracing off;
//! `--trace 1` runs the workload again with `ifls_obs` on and prints the
//! per-layer ledger. The benchmark drives only public entry points —
//! `ifls_core::api::{solve, solve_batch}`, the `VipTree` build, warm-tier
//! and snapshot calls, `WorkloadBuilder`, and `ifls_serve::Server` over
//! real sockets — and times every call from outside, never trusting the
//! solver's own `stats.elapsed` for an end-to-end number. See
//! `README.md` for why each workload exists and what each layer metric
//! should move.

pub mod check;
pub mod cold_batch;
pub mod http;
pub mod json;
pub mod ledger;
pub mod report;
pub mod serve_mc;
pub mod setup;
pub mod stats;
pub mod venues;
pub mod warm_stream;

use ifls_core::api::Objective;

/// The objective rotation every workload uses.
pub const OBJECTIVES: [Objective; 3] = [Objective::MinMax, Objective::MinDist, Objective::MaxSum];

/// What a workload run produced: the failure tally, its metrics, and the
/// context fields printed before the result line.
pub struct Outcome {
    /// Attempted operations and failures.
    pub tally: check::Tally,
    /// Every metric the workload measured.
    pub metrics: report::Metrics,
    /// Run parameters and diagnostics.
    pub context: report::Context,
}

/// Derives the seed of item `i` from the run seed (SplitMix64 finalizer
/// over the pair), so every input is a pure function of `--seed`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator (SplitMix64) for the benchmark's own
/// choices: which answers get a reference check.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `k` distinct indices from `0..n` (all of them when `k ≥ n`), in
    /// ascending order.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below((n - i) as u64) as usize;
            pool.swap(i, j);
        }
        let mut out = pool[..k].to_vec();
        out.sort_unstable();
        out
    }
}
