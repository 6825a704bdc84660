//! Index-construction and snapshot-serving baselines.
//!
//! For every venue in the set this bench builds the VIP-tree serially and
//! with 2 and 4 workers, saves an `ifls-index/v1` snapshot, loads it back,
//! and times each step. Two invariants are *asserted*, not just reported —
//! a violation exits non-zero, which the CI build-smoke job relies on:
//!
//! 1. the serial, 2-thread and 4-thread builds produce bit-identical
//!    indexes (same `index_checksum`), and
//! 2. the tree loaded from the snapshot is bit-identical to the built one.
//!
//! The venue set is the paper's four named venues plus one parametric
//! grid large enough for the parallel fan-out to matter; `--quick` keeps
//! just two named venues for CI. Results go to `BENCH_build.json`
//! (override with `--out PATH`); the schema is documented in
//! `EXPERIMENTS.md`.

use std::time::Instant;

use ifls_venues::{GridVenueSpec, NamedVenue};
use ifls_viptree::{VipTree, VipTreeConfig};

/// Bumped whenever a field is added, renamed, or re-interpreted.
const SCHEMA: &str = "ifls-bench-build/v2";

/// Thread counts measured besides the serial baseline.
const THREADS: [usize; 2] = [2, 4];

struct RowOut {
    venue: String,
    partitions: usize,
    doors: usize,
    serial_build_ns: u64,
    /// Build times at [`THREADS`] workers, same order.
    parallel_build_ns: [u64; THREADS.len()],
    snapshot_bytes: u64,
    save_ns: u64,
    load_ns: u64,
    index_checksum: u64,
}

impl RowOut {
    fn speedup_4t(&self) -> f64 {
        self.serial_build_ns as f64 / self.parallel_build_ns[1].max(1) as f64
    }

    fn load_speedup(&self) -> f64 {
        self.serial_build_ns as f64 / self.load_ns.max(1) as f64
    }
}

/// Minimum wall clock over `reps` runs of `f` (the usual noise filter for
/// a deterministic computation).
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, u64) {
    let mut best_ns = u64::MAX;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let v = f();
        best_ns = best_ns.min(t.elapsed().as_nanos() as u64);
        out = Some(v);
    }
    (out.expect("reps >= 1"), best_ns)
}

fn bench_venue(venue: &ifls_indoor::Venue, reps: usize, dir: &std::path::Path) -> RowOut {
    let config = VipTreeConfig::default();
    let (serial, serial_build_ns) = best_of(reps, || VipTree::build_with_threads(venue, config, 1));
    let checksum = serial.index_checksum();

    let mut parallel_build_ns = [0u64; THREADS.len()];
    for (i, threads) in THREADS.into_iter().enumerate() {
        let (tree, ns) = best_of(reps, || VipTree::build_with_threads(venue, config, threads));
        parallel_build_ns[i] = ns;
        assert_eq!(
            tree.index_checksum(),
            checksum,
            "FAIL: `{}` built at {threads} threads diverges from the serial index",
            venue.name()
        );
    }

    let path = dir.join(format!("{}.idx", venue.name().replace(['/', ' '], "_")));
    let (save_res, save_ns) = best_of(reps, || serial.save_snapshot(&path));
    save_res.expect("snapshot save");
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot stat").len();
    let (loaded, load_ns) = best_of(reps, || {
        VipTree::load_snapshot(venue, &path).expect("snapshot load")
    });
    assert_eq!(
        loaded.index_checksum(),
        checksum,
        "FAIL: `{}` loaded from snapshot diverges from the built index",
        venue.name()
    );

    RowOut {
        venue: venue.name().to_string(),
        partitions: venue.num_partitions(),
        doors: venue.num_doors(),
        serial_build_ns,
        parallel_build_ns,
        snapshot_bytes,
        save_ns,
        load_ns,
        index_checksum: checksum,
    }
}

fn write_json(path: &str, quick: bool, rows: &[RowOut]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"venue\": \"{}\", \"partitions\": {}, \"doors\": {}, \
             \"serial_build_ns\": {}, \"build_ns_2t\": {}, \"build_ns_4t\": {}, \
             \"speedup_4t\": {:.3}, \"snapshot_bytes\": {}, \"save_ns\": {}, \
             \"load_ns\": {}, \"load_speedup_vs_serial_build\": {:.3}, \
             \"index_checksum\": \"{:016x}\", \"checksums_identical\": true, \
             \"available_parallelism\": {}}}{}",
            r.venue,
            r.partitions,
            r.doors,
            r.serial_build_ns,
            r.parallel_build_ns[0],
            r.parallel_build_ns[1],
            r.speedup_4t(),
            r.snapshot_bytes,
            r.save_ns,
            r.load_ns,
            r.load_speedup(),
            r.index_checksum,
            parallelism,
            comma,
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    std::fs::write(path, s)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_build.json".to_string());

    let dir = std::env::temp_dir().join(format!("ifls-bench-build-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut venues: Vec<ifls_indoor::Venue> = Vec::new();
    if quick {
        // Two venues keep the CI smoke job fast while still exercising both
        // the parallel fan-out and the snapshot round trip.
        venues.push(NamedVenue::MZB.build());
        venues.push(NamedVenue::CPH.build());
    } else {
        for nv in NamedVenue::ALL {
            venues.push(nv.build());
        }
        // The named venues are small enough that a serial build is cheap;
        // this parametric tower is where the parallel row fill pays off.
        venues.push(GridVenueSpec::new("grid-6x240", 6, 240).build());
    }
    let reps = if quick { 1 } else { 3 };

    let mut rows = Vec::new();
    for venue in &venues {
        let row = bench_venue(venue, reps, &dir);
        println!(
            "{:<12} serial {:>9.3} ms  2t {:>9.3} ms  4t {:>9.3} ms ({:>4.2}x)  \
             save {:>8.3} ms  load {:>8.3} ms ({:>6.1}x vs rebuild)  {} KiB",
            row.venue,
            row.serial_build_ns as f64 / 1e6,
            row.parallel_build_ns[0] as f64 / 1e6,
            row.parallel_build_ns[1] as f64 / 1e6,
            row.speedup_4t(),
            row.save_ns as f64 / 1e6,
            row.load_ns as f64 / 1e6,
            row.load_speedup(),
            row.snapshot_bytes / 1024,
        );
        rows.push(row);
    }

    match write_json(&out_path, quick, &rows) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(2);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
