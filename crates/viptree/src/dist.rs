//! Exact indoor distances and `iMinD` lower bounds over the VIP-tree.
//!
//! All computations compose the per-node matrices. Because every stored
//! distance is an exact global shortest distance and every path leaving a
//! node crosses one of its access doors, every minimum taken here is exact —
//! verified against the Dijkstra ground truth by this crate's property
//! tests.

use std::cell::RefCell;

use ifls_indoor::{DoorId, IndoorPoint, PartitionId};

use crate::node::NodeId;
use crate::tree::VipTree;

/// A borrowed view of "distances from one door to a node's access doors":
/// either a dense vivid-matrix row, a leaf-matrix row gathered through the
/// access-door positions, or a scratch buffer filled by the IP-tree climb.
/// Never owns an allocation — the `door_to_door` hot path is alloc-free.
enum AccessDists<'a> {
    /// Dense row, one entry per access door.
    Dense(&'a [f64]),
    /// Leaf-matrix row indexed through access positions.
    Gather {
        /// Full leaf-matrix distance row.
        row: &'a [f64],
        /// Access-door positions within the row.
        idx: &'a [u32],
    },
}

impl AccessDists<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            AccessDists::Dense(v) => v[i],
            AccessDists::Gather { row, idx } => row[idx[i] as usize],
        }
    }

    /// Folds this view element-wise into `w`: `w[j] = min(w[j], self[j])`.
    #[inline]
    fn min_into(&self, w: &mut [f64]) {
        match self {
            AccessDists::Dense(v) => w.iter_mut().zip(*v).for_each(|(m, &x)| *m = m.min(x)),
            AccessDists::Gather { row, idx } => w
                .iter_mut()
                .zip(*idx)
                .for_each(|(m, &k)| *m = m.min(row[k as usize])),
        }
    }
}

/// Reusable buffers for the IP-tree level-by-level climb (non-vivid
/// trees) and the per-group minima of `min_door_to_access`. One set per
/// thread: the tree itself stays free of interior mutability, so sharing
/// it by `&` across threads remains sound.
#[derive(Default)]
struct DistScratch {
    a: Vec<f64>,
    b: Vec<f64>,
    tmp: Vec<f64>,
    /// One `(c2, offset into mins)` per LCA child met by the current call.
    groups: Vec<(NodeId, usize)>,
    /// Each group's element-wise minimum over `c2`'s access doors, back to
    /// back.
    mins: Vec<f64>,
}

thread_local! {
    static DIST_SCRATCH: RefCell<DistScratch> = RefCell::new(DistScratch::default());
}

impl VipTree<'_> {
    /// Exact indoor distance between two doors.
    pub fn door_to_door(&self, d1: DoorId, d2: DoorId) -> f64 {
        let (l1, i1) = self.door_home[d1.index()];
        let (l2, i2) = self.door_home[d2.index()];
        if l1 == l2 {
            return self.mat(l1).dist(i1 as usize, i2 as usize);
        }
        let lca = self.lca(l1, l2);
        let c1 = self.ancestor_at_depth(l1, self.depth(lca) + 1);
        let c2 = self.ancestor_at_depth(l2, self.depth(lca) + 1);
        if self.config.vivid || (c1 == l1 && c2 == l2) {
            // Both access-dist vectors can be borrowed straight from the
            // arena (vivid rows, or the leaves sit just below the LCA).
            let v1 = self.access_dists(l1, i1 as usize, c1);
            let v2 = self.access_dists(l2, i2 as usize, c2);
            return self.compose_at_lca(lca, c1, c2, &v1, &v2);
        }
        // IP-tree mode: climb each side into per-thread scratch buffers
        // instead of allocating per level.
        DIST_SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            self.climb_into(l1, i1 as usize, c1, &mut s.a, &mut s.tmp);
            self.climb_into(l2, i2 as usize, c2, &mut s.b, &mut s.tmp);
            self.compose_at_lca(
                lca,
                c1,
                c2,
                &AccessDists::Dense(&s.a),
                &AccessDists::Dense(&s.b),
            )
        })
    }

    /// Minimum of `v1[i] + mat_lca(pos1[i], pos2[j]) + v2[j]` over the
    /// access doors of the LCA's two children — the final composition step
    /// of every cross-leaf door distance.
    fn compose_at_lca(
        &self,
        lca: NodeId,
        c1: NodeId,
        c2: NodeId,
        v1: &AccessDists<'_>,
        v2: &AccessDists<'_>,
    ) -> f64 {
        let pos1 = self.access_positions_in_parent(lca, c1);
        let pos2 = self.access_positions_in_parent(lca, c2);
        let mat = self.mat(lca);
        let mut best = f64::INFINITY;
        for (i, &p1) in pos1.iter().enumerate() {
            let a = v1.get(i);
            if a >= best {
                continue;
            }
            let row = p1 as usize;
            for (j, &p2) in pos2.iter().enumerate() {
                let total = a + mat.dist(row, p2 as usize) + v2.get(j);
                if total < best {
                    best = total;
                }
            }
        }
        best
    }

    /// Allocation-free view of the distances from a door (home leaf +
    /// row) to the access doors of `target` (the leaf itself, or an
    /// ancestor on a vivid tree).
    fn access_dists(&self, leaf: NodeId, row: usize, target: NodeId) -> AccessDists<'_> {
        if target == leaf {
            return AccessDists::Gather {
                row: self.mat(leaf).dist_row(row),
                idx: &self.nodes[leaf.index()].access,
            };
        }
        debug_assert!(self.config.vivid, "non-vivid ancestors use climb_into");
        // Vivid matrices are ordered parent → root.
        let k = (self.depth(leaf) - self.depth(target) - 1) as usize;
        AccessDists::Dense(self.vivid_mat(leaf, k).dist_row(row))
    }

    /// Fills `out` with the distances from a door (home leaf + row) to the
    /// access doors of `target` (the leaf itself or an ancestor), climbing
    /// level by level. `tmp` is ping-pong scratch; both are cleared first.
    fn climb_into(
        &self,
        leaf: NodeId,
        row: usize,
        target: NodeId,
        out: &mut Vec<f64>,
        tmp: &mut Vec<f64>,
    ) {
        let mat = self.mat(leaf);
        out.clear();
        out.extend(
            self.nodes[leaf.index()]
                .access
                .iter()
                .map(|&c| mat.dist(row, c as usize)),
        );
        let mut cur = leaf;
        while cur != target {
            let parent = self.parent(cur).expect("target is an ancestor");
            let src_pos = self.access_positions_in_parent(parent, cur);
            let pnode = &self.nodes[parent.index()];
            let pmat = self.mat(parent);
            tmp.clear();
            for &aj in pnode.access.iter() {
                let mut best = f64::INFINITY;
                for (i, &vi) in out.iter().enumerate() {
                    let d = vi + pmat.dist(src_pos[i] as usize, aj as usize);
                    if d < best {
                        best = d;
                    }
                }
                tmp.push(best);
            }
            std::mem::swap(out, tmp);
            cur = parent;
        }
    }

    /// Positions of `child`'s access doors within `parent`'s door list.
    fn access_positions_in_parent(&self, parent: NodeId, child: NodeId) -> &[u32] {
        let ordinal = self
            .child_nodes(parent)
            .iter()
            .position(|&c| c == child)
            .expect("child belongs to parent");
        &self.child_access_pos[parent.index()][ordinal]
    }

    /// Exact indoor distance between two located points.
    pub fn dist_point_to_point(&self, a: &IndoorPoint, b: &IndoorPoint) -> f64 {
        if a.partition == b.partition {
            return self.venue.straight_dist(&a.pos, &b.pos);
        }
        let mut best = f64::INFINITY;
        for &ds in self.venue.partition(a.partition).doors() {
            let leg_a = self.venue.point_to_door(a, ds);
            if leg_a >= best {
                continue;
            }
            for &dt in self.venue.partition(b.partition).doors() {
                let total = leg_a + self.door_to_door(ds, dt) + self.venue.point_to_door(b, dt);
                if total < best {
                    best = total;
                }
            }
        }
        best
    }

    /// Exact indoor distance from a point to a partition (the partition is
    /// reached at any of its doors; same partition ⇒ 0).
    pub fn dist_point_to_partition(&self, a: &IndoorPoint, q: PartitionId) -> f64 {
        if a.partition == q {
            return 0.0;
        }
        let dists = self.door_dists_to_partition(a.partition, q);
        self.dist_point_to_partition_via(a, &dists)
    }

    /// For each door of `p` (in `p`'s door order), the exact indoor
    /// distance from that door to partition `q`.
    ///
    /// This is the shared, per-partition part of the paper's client
    /// grouping (§5, "grouping the clients while exploring the
    /// facilities"): computed once per (client partition, facility) pair
    /// and combined with each client's door legs.
    pub fn door_dists_to_partition(&self, p: PartitionId, q: PartitionId) -> Vec<f64> {
        self.venue
            .partition(p)
            .doors()
            .iter()
            .map(|&ds| self.door_dist_from(ds, q))
            .collect()
    }

    /// Exact indoor distance from door `ds` to partition `q` (0 when the
    /// door opens into `q`).
    ///
    /// This is the scalar kernel behind [`Self::door_dists_to_partition`]
    /// and the warm tier ([`crate::WarmTier`]) alike — both must call this
    /// one function so their values cannot diverge by a bit.
    pub fn door_dist_from(&self, ds: DoorId, q: PartitionId) -> f64 {
        if self.venue.door(ds).partitions().any(|side| side == q) {
            return 0.0;
        }
        self.venue
            .partition(q)
            .doors()
            .iter()
            .map(|&dt| self.door_to_door(ds, dt))
            .fold(f64::INFINITY, f64::min)
    }

    /// Combines per-door facility distances (from
    /// [`Self::door_dists_to_partition`]) with a client's in-partition door
    /// legs. `door_dists` must follow the door order of `a.partition`.
    pub fn dist_point_to_partition_via(&self, a: &IndoorPoint, door_dists: &[f64]) -> f64 {
        let doors = self.venue.partition(a.partition).doors();
        debug_assert_eq!(doors.len(), door_dists.len());
        doors
            .iter()
            .zip(door_dists)
            .map(|(&ds, &dd)| self.venue.point_to_door(a, ds) + dd)
            .fold(f64::INFINITY, f64::min)
    }

    /// `iMinD(p, q)`: the minimum indoor distance between two partitions
    /// (0 when equal or sharing a door).
    pub fn min_dist_partition_to_partition(&self, p: PartitionId, q: PartitionId) -> f64 {
        if p == q {
            return 0.0;
        }
        crate::kernels::min_fold(&self.door_dists_to_partition(p, q))
    }

    /// `iMinD(p, N)`: a lower bound on the distance from any point of
    /// partition `p` to any partition inside node `N` — 0 when `N`
    /// contains `p`, otherwise the minimum door-to-access-door distance.
    pub fn min_dist_partition_to_node(&self, p: PartitionId, n: NodeId) -> f64 {
        if self.contains_partition(n, p) {
            return 0.0;
        }
        self.venue
            .partition(p)
            .doors()
            .iter()
            .map(|&ds| self.min_door_to_access(ds, n))
            .fold(f64::INFINITY, f64::min)
    }

    /// `iMinD` from a located point to a node: a lower bound on the
    /// distance from the point to any partition inside `N`.
    ///
    /// Unlike [`Self::min_dist_partition_to_node`], this still composes
    /// every door pair. Only the kNN baseline ([`crate::IncrementalNn`])
    /// calls it, and grouped it would make that baseline faster than the
    /// efficient solver on a cold MC tree (DESIGN.md §5).
    pub fn min_dist_point_to_node(&self, a: &IndoorPoint, n: NodeId) -> f64 {
        if self.contains_partition(n, a.partition) {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for &ds in self.venue.partition(a.partition).doors() {
            let leg = self.venue.point_to_door(a, ds);
            if leg >= best {
                continue;
            }
            for ad in self.nodes[n.index()].access_doors() {
                let d = leg + self.door_to_door(ds, ad);
                if d < best {
                    best = d;
                }
            }
        }
        best
    }

    /// `min_a door_to_door(ds, a)` over the access doors `a` of `n`,
    /// bit-identical to that per-pair minimum but composed once per LCA
    /// child instead of once per pair.
    ///
    /// Targets homed in `ds`'s leaf read the leaf matrix, as
    /// [`Self::door_to_door`] does. The others are grouped by `c2`, the
    /// child of `LCA(leaf(ds), leaf(a))` that holds `a`: each target's
    /// distances to `c2`'s access doors (its vivid row, or the IP-tree
    /// climb) are folded element-wise into the group's min-vector `w`,
    /// which is composed once at the LCA. Rounding to nearest never
    /// decreases when an operand increases, so
    /// `fl(fl(v1[x] + M[x, y]) + w[y])` equals
    /// `min_a fl(fl(v1[x] + M[x, y]) + v_a[y])` exactly.
    fn min_door_to_access(&self, ds: DoorId, n: NodeId) -> f64 {
        let (l1, i1) = self.door_home[ds.index()];
        let i1 = i1 as usize;
        let leaf1 = self.mat(l1);
        DIST_SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            s.groups.clear();
            s.mins.clear();
            let mut best = f64::INFINITY;
            for a in self.nodes[n.index()].access_doors() {
                let (l2, i2) = self.door_home[a.index()];
                let i2 = i2 as usize;
                if l2 == l1 {
                    best = best.min(leaf1.dist(i1, i2));
                    continue;
                }
                let c2 = self.ancestor_at_depth(l2, self.depth(self.lca(l1, l2)) + 1);
                let off = match s.groups.iter().find(|&&(c, _)| c == c2) {
                    Some(&(_, off)) => off,
                    None => {
                        let off = s.mins.len();
                        s.mins
                            .resize(off + self.num_access_doors(c2), f64::INFINITY);
                        s.groups.push((c2, off));
                        off
                    }
                };
                let w = &mut s.mins[off..off + self.num_access_doors(c2)];
                if self.config.vivid || c2 == l2 {
                    self.access_dists(l2, i2, c2).min_into(w);
                } else {
                    self.climb_into(l2, i2, c2, &mut s.b, &mut s.tmp);
                    AccessDists::Dense(&s.b).min_into(w);
                }
            }
            for &(c2, off) in &s.groups {
                let lca = self.parent(c2).expect("c2 is below the LCA");
                let c1 = self.ancestor_at_depth(l1, self.depth(lca) + 1);
                let w = AccessDists::Dense(&s.mins[off..off + self.num_access_doors(c2)]);
                let d = if self.config.vivid || c1 == l1 {
                    self.compose_at_lca(lca, c1, c2, &self.access_dists(l1, i1, c1), &w)
                } else {
                    self.climb_into(l1, i1, c1, &mut s.a, &mut s.tmp);
                    self.compose_at_lca(lca, c1, c2, &AccessDists::Dense(&s.a), &w)
                };
                best = best.min(d);
            }
            best
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VipTreeConfig;
    use ifls_indoor::{GroundTruth, Point};
    use ifls_venues::{GridVenueSpec, RandomVenueSpec};

    fn check_all_door_pairs(venue: &ifls_indoor::Venue, cfg: VipTreeConfig) {
        let tree = VipTree::build(venue, cfg);
        let gt = GroundTruth::compute(venue);
        for a in venue.door_ids() {
            for b in venue.door_ids() {
                let tv = tree.door_to_door(a, b);
                let gv = gt.d2d(a, b);
                assert!(
                    (tv - gv).abs() < 1e-9,
                    "door {a}->{b}: tree {tv} vs ground truth {gv}"
                );
            }
        }
    }

    #[test]
    fn door_distances_exact_on_grid_vivid() {
        let venue = GridVenueSpec::new("t", 3, 40).build();
        check_all_door_pairs(&venue, VipTreeConfig::default());
    }

    #[test]
    fn door_distances_exact_on_grid_ip_tree() {
        let venue = GridVenueSpec::new("t", 3, 40).build();
        check_all_door_pairs(&venue, VipTreeConfig::ip_tree());
    }

    #[test]
    fn door_distances_exact_on_random_venues() {
        for seed in 0..5 {
            let venue = RandomVenueSpec {
                cells_x: 4,
                cells_y: 4,
                levels: 2,
                extra_door_prob: 0.4,
                cell_size: 9.0,
            }
            .build(seed);
            check_all_door_pairs(&venue, VipTreeConfig::default());
            check_all_door_pairs(&venue, VipTreeConfig::ip_tree());
        }
    }

    #[test]
    fn point_distances_match_ground_truth() {
        let venue = GridVenueSpec::new("t", 2, 24).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let gt = GroundTruth::compute(&venue);
        let points: Vec<IndoorPoint> = venue
            .partitions()
            .iter()
            .map(|p| IndoorPoint::new(p.id(), p.center()))
            .collect();
        for a in &points {
            for b in &points {
                let tv = tree.dist_point_to_point(a, b);
                let gv = gt.point_to_point(&venue, a, b);
                assert!((tv - gv).abs() < 1e-9, "{a:?}->{b:?}: {tv} vs {gv}");
            }
        }
    }

    #[test]
    fn point_to_partition_matches_ground_truth() {
        let venue = GridVenueSpec::new("t", 2, 24).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let gt = GroundTruth::compute(&venue);
        for p in venue.partitions() {
            let a = IndoorPoint::new(p.id(), p.center());
            for q in venue.partition_ids() {
                let tv = tree.dist_point_to_partition(&a, q);
                let gv = gt.point_to_partition(&venue, &a, q);
                assert!((tv - gv).abs() < 1e-9, "{a:?}->{q}: {tv} vs {gv}");
            }
        }
    }

    #[test]
    fn partition_min_dist_matches_ground_truth() {
        let venue = GridVenueSpec::new("t", 2, 30).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let gt = GroundTruth::compute(&venue);
        for p in venue.partition_ids() {
            for q in venue.partition_ids() {
                let tv = tree.min_dist_partition_to_partition(p, q);
                let gv = gt.partition_to_partition(&venue, p, q);
                assert!((tv - gv).abs() < 1e-9, "{p}->{q}: {tv} vs {gv}");
            }
        }
    }

    #[test]
    fn node_min_dist_is_a_valid_lower_bound() {
        let venue = GridVenueSpec::new("t", 2, 30).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        let gt = GroundTruth::compute(&venue);
        for p in venue.partition_ids() {
            for n in tree.node_ids() {
                let bound = tree.min_dist_partition_to_node(p, n);
                // Collect partitions under n.
                for q in venue.partition_ids() {
                    if tree.contains_partition(n, q) {
                        let actual = gt.partition_to_partition(&venue, p, q);
                        assert!(
                            bound <= actual + 1e-9,
                            "iMinD({p},{n})={bound} exceeds dist to {q}={actual}"
                        );
                    }
                }
                if tree.contains_partition(n, p) {
                    assert_eq!(bound, 0.0);
                }
            }
        }
    }

    #[test]
    fn point_node_bound_below_point_partition_distances() {
        let venue = GridVenueSpec::new("t", 2, 20).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        for p in venue.partitions() {
            let a = IndoorPoint::new(p.id(), p.center());
            for n in tree.node_ids() {
                let bound = tree.min_dist_point_to_node(&a, n);
                for q in venue.partition_ids() {
                    if tree.contains_partition(n, q) {
                        let actual = tree.dist_point_to_partition(&a, q);
                        assert!(bound <= actual + 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn grouped_distance_equals_direct_distance() {
        let venue = GridVenueSpec::new("t", 2, 24).build();
        let tree = VipTree::build(&venue, VipTreeConfig::default());
        for p in venue.partitions() {
            // An off-center client to exercise the door legs.
            let r = p.rect();
            let c = IndoorPoint::new(
                p.id(),
                Point::new(
                    r.min_x + 0.25 * r.width(),
                    r.min_y + 0.7 * r.height(),
                    p.level_min(),
                ),
            );
            for q in venue.partition_ids() {
                if q == p.id() {
                    continue;
                }
                let shared = tree.door_dists_to_partition(p.id(), q);
                let via = tree.dist_point_to_partition_via(&c, &shared);
                let direct = tree.dist_point_to_partition(&c, q);
                assert!((via - direct).abs() < 1e-9);
            }
        }
    }
}
