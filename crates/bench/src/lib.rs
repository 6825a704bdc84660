#![warn(missing_docs)]

//! Benchmark harness for the IFLS paper's evaluation (§6).
//!
//! Every measured figure of the paper is regenerated by the `figures`
//! binary, which drives the runners in [`experiments`]:
//!
//! | id | paper artifact | sweep |
//! |----|----------------|-------|
//! | `fig5`  | Fig. 5 (time + memory) | MC real setting, 5 categories × \|C\| |
//! | `fig6`  | Fig. 6 (time + memory) | σ of normal clients, MC real + 4 synthetic |
//! | `fig7a`/`fig8a` | Fig. 7a / 8a | \|C\|, 4 venues, synthetic |
//! | `fig7b`/`fig8b` | Fig. 7b / 8b | \|Fe\| |
//! | `fig7c`/`fig8c` | Fig. 7c / 8c | \|Fn\| |
//! | `headline` | §1/§8 speedup summary | defaults per venue |
//! | `ablation` | §5 design choices | grouping / pruning / vivid toggles |
//!
//! The paper runs 10 queries per configuration on full-size workloads; the
//! default [`Scale::quick`] divides client counts by 20 and runs 2 queries
//! so the full suite completes in minutes. [`Scale::full`] reproduces the
//! paper's exact workload sizes.

pub mod experiments;
pub mod harness;
pub mod measure;
pub mod report;

pub use measure::{AlgoStats, Row, Scale};
pub use report::Table;

/// Where a `bench_<name>` binary writes its rows without `--out`: a full
/// run writes `BENCH_<name>.json`, a `--quick` run
/// `target/BENCH_<name>_quick.json`, so quick rows never replace the
/// checked-in full-run baseline.
pub fn default_out(name: &str, quick: bool) -> String {
    if quick {
        format!("target/BENCH_{name}_quick.json")
    } else {
        format!("BENCH_{name}.json")
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_runs_write_under_target() {
        assert_eq!(super::default_out("build", false), "BENCH_build.json");
        assert_eq!(
            super::default_out("build", true),
            "target/BENCH_build_quick.json"
        );
        assert_eq!(
            super::default_out("core", true),
            "target/BENCH_core_quick.json"
        );
    }
}
