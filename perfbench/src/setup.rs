//! Set-up shared by the workloads: the process clock, the per-run scratch
//! directory, and timed index construction.
//!
//! Set-up runs several times per process and `setup_s` reports the
//! median, so one slow repetition does not move the metric. The first
//! repetition is timed from process start, the others from their own
//! start.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

use ifls_indoor::Venue;
use ifls_viptree::{VipTree, VipTreeConfig, DEFAULT_WARM_BUDGET_BYTES};

use crate::report::Metrics;
use crate::stats;
use crate::venues::VenueSpec;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Marks process start; `main` calls this first.
pub fn mark_process_start() {
    PROCESS_START.get_or_init(Instant::now);
}

/// The instant [`mark_process_start`] recorded (or now, if it never ran,
/// as in library tests).
pub fn process_start() -> Instant {
    *PROCESS_START.get_or_init(Instant::now)
}

/// Where set-up repetition `rep` starts its clock: the first at process
/// start, the others at their own start.
pub fn rep_start(rep: usize) -> Instant {
    if rep == 0 {
        process_start()
    } else {
        Instant::now()
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A scratch directory under `.bench_tmp/` in the working directory,
/// removed (with `.bench_tmp/` itself, once empty) when dropped — so a
/// run leaves no snapshot files behind, also when it fails.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `.bench_tmp/<tag>-<pid>/`.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let path = Path::new(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Timings of one set-up repetition, summed over its venues. These are
/// the benchmark's own spans around each public set-up call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Whole repetition, in seconds.
    pub total_s: f64,
    /// Venue construction.
    pub venues_s: f64,
    /// `VipTree::build_with_threads`.
    pub index_build_s: f64,
    /// `VipTree::build_warm_tier`.
    pub warm_build_s: f64,
    /// `VipTree::save_snapshot`.
    pub snapshot_save_s: f64,
    /// `VipTree::load_snapshot`.
    pub snapshot_load_s: f64,
    /// Warm-tier bytes of the loaded trees.
    pub warm_bytes: usize,
}

impl SetupTimes {
    /// Field-wise medians over repetitions (the byte count is the same in
    /// every repetition; the last one is kept).
    pub fn median(reps: &[SetupTimes]) -> SetupTimes {
        let m = |f: fn(&SetupTimes) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            total_s: m(|t| t.total_s),
            venues_s: m(|t| t.venues_s),
            index_build_s: m(|t| t.index_build_s),
            warm_build_s: m(|t| t.warm_build_s),
            snapshot_save_s: m(|t| t.snapshot_save_s),
            snapshot_load_s: m(|t| t.snapshot_load_s),
            warm_bytes: reps.last().map_or(0, |t| t.warm_bytes),
        }
    }

    /// Writes the set-up layer metrics.
    pub fn write(&self, m: &mut Metrics) {
        m.set("venues.build_s", self.venues_s);
        m.set("viptree.index_build_s", self.index_build_s);
        m.set("viptree.warm_build_s", self.warm_build_s);
        m.set("viptree.snapshot_save_s", self.snapshot_save_s);
        m.set("viptree.snapshot_load_s", self.snapshot_load_s);
        m.set(
            "viptree.warm_mib",
            self.warm_bytes as f64 / (1024.0 * 1024.0),
        );
    }
}

/// Builds a venue, timing it into `t`.
pub fn build_venue(build: fn() -> Venue, t: &mut SetupTimes) -> Venue {
    let s = Instant::now();
    let v = build();
    t.venues_s += secs(s);
    v
}

/// Builds every venue of `specs`, timing them into `t`.
pub fn build_venues<'a>(
    specs: impl IntoIterator<Item = &'a VenueSpec>,
    t: &mut SetupTimes,
) -> Vec<Venue> {
    specs.into_iter().map(|v| build_venue(v.build, t)).collect()
}

/// Builds a cold index — no warm tier — the way `ifls query` and
/// `ifls serve` do without `--index`.
pub fn cold_tree<'v>(venue: &'v Venue, t: &mut SetupTimes) -> VipTree<'v> {
    let s = Instant::now();
    let tree = VipTree::build_with_threads(venue, VipTreeConfig::default(), 0);
    t.index_build_s += secs(s);
    tree
}

/// Builds an index with its warm tier and saves it as an `ifls-index/v2`
/// snapshot at `path`; returns the built tree.
pub fn save_warm_snapshot<'v>(
    venue: &'v Venue,
    path: &Path,
    t: &mut SetupTimes,
) -> Result<VipTree<'v>, String> {
    let mut tree = cold_tree(venue, t);
    let s = Instant::now();
    let warm = tree.build_warm_tier(DEFAULT_WARM_BUDGET_BYTES, 0);
    t.warm_build_s += secs(s);
    tree.set_warm_tier(Some(warm));
    let s = Instant::now();
    tree.save_snapshot(path)
        .map_err(|e| format!("save snapshot {}: {e}", path.display()))?;
    t.snapshot_save_s += secs(s);
    Ok(tree)
}

/// Loads a warm snapshot saved by [`save_warm_snapshot`].
pub fn load_warm_snapshot<'v>(
    venue: &'v Venue,
    path: &Path,
    t: &mut SetupTimes,
) -> Result<VipTree<'v>, String> {
    let s = Instant::now();
    let tree = VipTree::load_snapshot(venue, path)
        .map_err(|e| format!("load snapshot {}: {e}", path.display()))?;
    t.snapshot_load_s += secs(s);
    let warm = tree
        .warm_tier()
        .ok_or_else(|| format!("snapshot {} has no warm tier", path.display()))?;
    t.warm_bytes += warm.approx_bytes();
    Ok(tree)
}
