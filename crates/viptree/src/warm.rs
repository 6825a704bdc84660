//! The snapshot-shipped warm tier: a dense `door × partition` matrix of
//! precomputed door-distance kernels plus a dense `partition × node`
//! matrix of precomputed node minima.
//!
//! [`VipTree::door_dists_to_partition`]`(p, q)[i]` equals
//! `door_dist_from(doors(p)[i], q)` — per-*door*, not per-pair. So instead
//! of memoizing `(p, q)` vectors, the warm tier stores one column per
//! covered target partition `q` holding `door_dist_from(d, q)` for *every*
//! door `d` of the venue. Any source partition's vector is then a gather
//! of its doors' rows: hash-free O(doors(p)) lookup, and one column serves
//! all sources at once (doors shared between partitions are stored once).
//!
//! Target partitions are ranked by door fan-in (descending, ties by id) —
//! the partitions most often *reached* during candidate exploration — and
//! admitted until a byte budget is exhausted. Under the default budget
//! every named venue's full matrix fits (MZB, the largest, is ~15 MiB).
//!
//! The second matrix covers [`VipTree::min_dist_partition_to_node`], the
//! `iMinD(p, N)` pruning bound the solvers ask for on every queue
//! expansion. It has no per-door structure to share, but it is small
//! (`partitions × nodes`, ~4 MiB on MZB) and every queue expansion asks
//! for it, so the whole matrix is precomputed all-or-nothing from
//! whatever budget the door columns leave over. Its row for a partition
//! is filled with one sibling batch per inner node
//! ([`VipTree::min_dists_partition_to_nodes`]), as `Explorer::expand`
//! asks for a node's children; the whole single-threaded build over the
//! four named venues takes ~3.1–3.5 s (one core of a 2-vCPU host), and
//! the door columns dominate it.
//!
//! Every cell is produced by the kernel the live miss path runs (behind
//! [`VipTree::door_dists_to_partition`] and
//! [`VipTree::min_dist_partition_to_node`]): a door column is one call
//! with every venue door as a source. So a warm hit equals a
//! recomputation bit for bit.
//! Fills are pure and written to disjoint slices, making the threaded
//! build deterministic at any worker count.

use ifls_indoor::{DoorId, PartitionId, Venue};

use crate::dist::Slots;
use crate::tree::VipTree;
use crate::{NodeChildren, NodeId};

/// Column marker for "partition not covered by the warm tier".
const NO_COLUMN: u32 = u32::MAX;

/// Default byte budget for [`VipTree::build_warm_tier`] — comfortably
/// holds the full matrix of every named venue.
pub const DEFAULT_WARM_BUDGET_BYTES: usize = 32 << 20;

/// A read-only dense tier of door-distance kernels, owned by the tree.
///
/// Probed by `DistCache::door_dists` before the mutable tiers; shipped as
/// the optional warm section of `ifls-index/v2` snapshots.
#[derive(Clone, Debug, PartialEq)]
pub struct WarmTier {
    /// Per-partition column index, or [`NO_COLUMN`].
    cols: Vec<u32>,
    /// Covered target partitions in column order.
    targets: Vec<PartitionId>,
    /// Row count: one row per venue door.
    num_doors: usize,
    /// Column-major cells: `dists[col * num_doors + door.index()]`.
    dists: Vec<f64>,
    /// Node count behind `node_mins` (0 when that matrix is absent).
    num_nodes: usize,
    /// Row-major `partition × node` minima:
    /// `node_mins[p.index() * num_nodes + n.index()]`. Empty = absent;
    /// when present it always covers every (partition, node) pair.
    node_mins: Vec<f64>,
}

impl WarmTier {
    /// Whether target partition `q`'s column is present.
    #[inline]
    pub fn covers(&self, q: PartitionId) -> bool {
        self.cols[q.index()] != NO_COLUMN
    }

    /// Gathers the door-distance vector for `(p, q)` into `out` —
    /// bit-identical to [`VipTree::door_dists_to_partition`]`(p, q)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not covered (callers check [`Self::covers`]).
    #[inline]
    pub fn gather_into(&self, venue: &Venue, p: PartitionId, q: PartitionId, out: &mut Vec<f64>) {
        let col = self.cols[q.index()] as usize;
        let base = col * self.num_doors;
        let column = &self.dists[base..base + self.num_doors];
        out.clear();
        out.extend(
            venue
                .partition(p)
                .doors()
                .iter()
                .map(|&d| column[d.index()]),
        );
    }

    /// Covered target partitions, in column order.
    #[inline]
    pub fn targets(&self) -> &[PartitionId] {
        &self.targets
    }

    /// Number of covered target partitions (columns).
    #[inline]
    pub fn num_targets(&self) -> usize {
        self.targets.len()
    }

    /// Total precomputed door cells (columns × doors).
    #[inline]
    pub fn entries(&self) -> usize {
        self.dists.len()
    }

    /// Whether the dense `partition × node` minima matrix is present.
    #[inline]
    pub fn has_node_mins(&self) -> bool {
        !self.node_mins.is_empty()
    }

    /// Precomputed `iMinD(p, n)` — bit-identical to
    /// [`VipTree::min_dist_partition_to_node`]`(p, n)`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is absent (callers check
    /// [`Self::has_node_mins`]).
    #[inline]
    pub fn node_min(&self, p: PartitionId, n: NodeId) -> f64 {
        self.node_mins[p.index() * self.num_nodes + n.index()]
    }

    /// Total precomputed node-min cells (partitions × nodes, or 0).
    #[inline]
    pub fn node_min_entries(&self) -> usize {
        self.node_mins.len()
    }

    /// Heap footprint: cells + column map + target list + node minima.
    #[inline]
    pub fn approx_bytes(&self) -> usize {
        self.dists.len() * std::mem::size_of::<f64>()
            + self.cols.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<u32>()
            + self.node_mins.len() * std::mem::size_of::<f64>()
    }

    /// Raw door cells in column-major order (snapshot encoding).
    #[inline]
    pub(crate) fn cells(&self) -> &[f64] {
        &self.dists
    }

    /// Raw node-min cells in row-major order (snapshot encoding).
    #[inline]
    pub(crate) fn node_min_cells(&self) -> &[f64] {
        &self.node_mins
    }

    /// Reassembles a tier from snapshot-decoded parts, revalidating the
    /// shape (`SnapshotError::Corrupt` is raised by the caller on `Err`).
    pub(crate) fn from_parts(
        num_partitions: usize,
        num_doors: usize,
        num_nodes: usize,
        targets: Vec<PartitionId>,
        dists: Vec<f64>,
        node_mins: Vec<f64>,
    ) -> Result<Self, &'static str> {
        if dists.len() != targets.len() * num_doors {
            return Err("warm tier cell count does not match targets × doors");
        }
        if !node_mins.is_empty() && node_mins.len() != num_partitions * num_nodes {
            return Err("warm tier node-min count does not match partitions × nodes");
        }
        let mut cols = vec![NO_COLUMN; num_partitions];
        for (j, &q) in targets.iter().enumerate() {
            let slot = cols
                .get_mut(q.index())
                .ok_or("warm tier target out of range")?;
            if *slot != NO_COLUMN {
                return Err("warm tier target listed twice");
            }
            *slot = j as u32;
        }
        Ok(Self {
            cols,
            targets,
            num_doors,
            dists,
            num_nodes,
            node_mins,
        })
    }
}

impl VipTree<'_> {
    /// The warm tier, if one was built or loaded with this tree.
    #[inline]
    pub fn warm_tier(&self) -> Option<&WarmTier> {
        self.warm.as_ref()
    }

    /// Attaches (or detaches) a warm tier.
    pub fn set_warm_tier(&mut self, warm: Option<WarmTier>) {
        self.warm = warm;
    }

    /// Precomputes a warm tier over this tree with up to `threads` fill
    /// workers (`0` = all available cores).
    ///
    /// Door-vector targets are every partition ranked by door fan-in
    /// (descending, ties by ascending id), truncated to `budget_bytes`.
    /// The `partition × node` minima matrix is then added all-or-nothing
    /// if it fits in whatever budget the columns left over. The result is
    /// bit-identical at any thread count: work order is fixed up front and
    /// each worker fills disjoint slices with the pure kernel behind
    /// [`VipTree::door_dist_from`] and
    /// [`VipTree::min_dists_partition_to_nodes`].
    pub fn build_warm_tier(&self, budget_bytes: usize, threads: usize) -> WarmTier {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        let venue = self.venue();
        let num_doors = venue.num_doors();
        let num_parts = venue.num_partitions();
        let num_nodes = self.num_nodes();

        let mut targets: Vec<PartitionId> = venue.partition_ids().collect();
        targets.sort_by_key(|&q| (std::cmp::Reverse(venue.partition(q).doors().len()), q.raw()));
        // Budget: cells dominate; the fixed column map is charged once.
        let per_target = num_doors * std::mem::size_of::<f64>();
        let fixed = num_parts * std::mem::size_of::<u32>();
        let max_targets = budget_bytes.saturating_sub(fixed) / per_target.max(1);
        targets.truncate(max_targets);

        let mut dists = vec![0.0f64; targets.len() * num_doors];
        let doors: Vec<DoorId> = venue.door_ids().collect();
        run_rows(
            threads,
            &targets,
            dists.chunks_mut(num_doors),
            |&q, column| {
                for (cell, &d) in column.iter_mut().zip(&doors) {
                    *cell = self.door_seed(d, q);
                }
                self.min_door_to_sets(&doors, self.door_set(q, 0), Slots::PerDoor, column);
            },
        );

        // Node minima ride in whatever budget the columns left over — the
        // matrix is all-or-nothing so `has_node_mins` implies full
        // coverage and the probe never needs a per-pair presence check.
        let spent = fixed + dists.len() * std::mem::size_of::<f64>();
        let node_min_bytes = num_parts * num_nodes * std::mem::size_of::<f64>();
        let mut node_mins = Vec::new();
        if num_nodes > 0 && node_min_bytes <= budget_bytes.saturating_sub(spent) {
            node_mins = vec![0.0f64; num_parts * num_nodes];
            let parts: Vec<PartitionId> = venue.partition_ids().collect();
            run_rows(
                threads,
                &parts,
                node_mins.chunks_mut(num_nodes),
                |&p, row| {
                    // Every node but the root is some node's child, so one
                    // sibling batch per inner node fills the rest of the row.
                    let root = self.root();
                    row[root.index()] = self.min_dist_partition_to_node(p, root);
                    let mut keys = Vec::new();
                    for n in self.node_ids() {
                        if let NodeChildren::Nodes(children) = self.children(n) {
                            self.min_dists_partition_to_nodes(p, children, &mut keys);
                            for (c, &key) in children.iter().zip(&keys) {
                                row[c.index()] = key;
                            }
                        }
                    }
                },
            );
        }

        WarmTier::from_parts(num_parts, num_doors, num_nodes, targets, dists, node_mins)
            .expect("freshly built tier has a consistent shape")
    }
}

/// Runs `fill(item, row)` over parallel (item, row) pairs with up to
/// `threads` workers. Rows are claimed from an atomic cursor; each is
/// written exactly once from pure inputs, so scheduling cannot affect the
/// bytes produced.
fn run_rows<'a, T: Sync, F>(
    threads: usize,
    items: &[T],
    rows: std::slice::ChunksMut<'a, f64>,
    fill: F,
) where
    F: Fn(&T, &mut [f64]) + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        for (row, item) in rows.zip(items) {
            fill(item, row);
        }
        return;
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let work: Vec<(&T, &mut [f64])> = items.iter().zip(rows).collect();
    let work = std::sync::Mutex::new(work.into_iter().map(Some).collect::<Vec<_>>());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| loop {
                let Some((item, row)) = ({
                    let j = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let mut w = work.lock().expect("row fill never panics");
                    w.get_mut(j).and_then(Option::take)
                }) else {
                    return;
                };
                fill(item, row);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VipTreeConfig;
    use ifls_venues::GridVenueSpec;

    #[test]
    fn warm_gather_matches_kernel_bitwise() {
        let venue = GridVenueSpec::new("t", 2, 24).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let warm = tree.build_warm_tier(DEFAULT_WARM_BUDGET_BYTES, 1);
        assert_eq!(warm.num_targets(), venue.num_partitions());
        let mut out = Vec::new();
        for p in venue.partition_ids() {
            for q in venue.partition_ids() {
                assert!(warm.covers(q));
                warm.gather_into(&venue, p, q, &mut out);
                let direct = tree.door_dists_to_partition(p, q);
                assert_eq!(out.len(), direct.len());
                for (a, b) in out.iter().zip(&direct) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        assert!(warm.has_node_mins());
        assert_eq!(
            warm.node_min_entries(),
            venue.num_partitions() * tree.num_nodes()
        );
        for p in venue.partition_ids() {
            for i in 0..tree.num_nodes() {
                let n = NodeId::new(i as u32);
                assert_eq!(
                    warm.node_min(p, n).to_bits(),
                    tree.min_dist_partition_to_node(p, n).to_bits(),
                    "node min bits ({p}, node {i})"
                );
            }
        }
    }

    #[test]
    fn warm_build_is_thread_invariant() {
        let venue = GridVenueSpec::new("t", 2, 30).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let serial = tree.build_warm_tier(DEFAULT_WARM_BUDGET_BYTES, 1);
        for threads in [2, 4, 8] {
            let t = tree.build_warm_tier(DEFAULT_WARM_BUDGET_BYTES, threads);
            assert_eq!(serial.targets(), t.targets());
            assert_eq!(serial.cells().len(), t.cells().len());
            for (a, b) in serial.cells().iter().zip(t.cells()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(serial.node_min_cells().len(), t.node_min_cells().len());
            for (a, b) in serial.node_min_cells().iter().zip(t.node_min_cells()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn budget_truncates_by_fan_in() {
        let venue = GridVenueSpec::new("t", 2, 30).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let full = tree.build_warm_tier(DEFAULT_WARM_BUDGET_BYTES, 1);
        // Budget for roughly 3 columns.
        let budget = venue.num_partitions() * 4 + 3 * venue.num_doors() * 8;
        let small = tree.build_warm_tier(budget, 1);
        assert!(small.num_targets() <= 3);
        assert!(small.num_targets() < full.num_targets());
        assert_eq!(
            small.targets(),
            &full.targets()[..small.num_targets()],
            "truncation keeps the fan-in ranking prefix"
        );
        // Highest fan-in first.
        let fan = |q: PartitionId| venue.partition(q).doors().len();
        for w in full.targets().windows(2) {
            assert!(
                fan(w[0]) > fan(w[1]) || (fan(w[0]) == fan(w[1]) && w[0].raw() < w[1].raw()),
                "targets must be ranked by (fan-in desc, id asc)"
            );
        }
        // Uncovered partitions answer covers() = false.
        if small.num_targets() < venue.num_partitions() {
            let uncovered = venue
                .partition_ids()
                .find(|&q| !small.targets().contains(&q))
                .expect("some partition is uncovered");
            assert!(!small.covers(uncovered));
        }
        // A small-budget tier drops the node minima along with columns.
        assert!(!small.has_node_mins());
        // Zero budget → empty tier, still well-formed.
        let empty = tree.build_warm_tier(0, 1);
        assert_eq!(empty.num_targets(), 0);
        assert_eq!(empty.entries(), 0);
        assert!(!empty.has_node_mins());
        assert_eq!(empty.node_min_entries(), 0);
    }

    #[test]
    fn from_parts_rejects_malformed_shapes() {
        let venue = GridVenueSpec::new("t", 2, 24).build();
        let d = venue.num_doors();
        let np = venue.num_partitions();
        let p0 = venue.partition_ids().next().expect("venue has partitions");
        assert!(WarmTier::from_parts(np, d, 4, vec![p0], vec![0.0; d], Vec::new()).is_ok());
        assert!(WarmTier::from_parts(np, d, 4, vec![p0], vec![0.0; d], vec![0.0; np * 4]).is_ok());
        // Cell count mismatch.
        assert!(WarmTier::from_parts(np, d, 4, vec![p0], vec![0.0; d + 1], Vec::new()).is_err());
        // Node-min count mismatch.
        assert!(
            WarmTier::from_parts(np, d, 4, vec![p0], vec![0.0; d], vec![0.0; np * 4 + 1]).is_err()
        );
        // Duplicate target.
        assert!(
            WarmTier::from_parts(np, d, 4, vec![p0, p0], vec![0.0; 2 * d], Vec::new()).is_err()
        );
        // Out-of-range target.
        let bogus = PartitionId::new(np as u32);
        assert!(WarmTier::from_parts(np, d, 4, vec![bogus], vec![0.0; d], Vec::new()).is_err());
    }
}
