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

    /// `min_y r[y] + self[y]`, with `r` the same length as this view.
    #[inline]
    fn min_add(&self, r: &[f64]) -> f64 {
        match self {
            AccessDists::Dense(v) => crate::kernels::min_add2(r, v),
            AccessDists::Gather { row, idx } => r
                .iter()
                .zip(*idx)
                .map(|(&x, &k)| x + row[k as usize])
                .fold(f64::INFINITY, f64::min),
        }
    }
}

/// Reusable buffers, one set per thread: the tree itself stays free of
/// interior mutability, so sharing it by `&` across threads remains sound.
#[derive(Default)]
struct DistScratch {
    /// IP-tree climb buffers (non-vivid trees): the source side, the
    /// target side, and ping-pong scratch for both.
    a: Vec<f64>,
    b: Vec<f64>,
    tmp: Vec<f64>,
    /// `(home leaf, row, source index)` of each source door of the batched
    /// kernel (`VipTree::min_door_to_sets`), sorted by leaf.
    sources: Vec<(NodeId, u32, u32)>,
    /// The batched kernel's target sets, grouped for one source leaf at a
    /// time.
    targets: TargetGroups,
    /// The composition `R` at the current LCA child.
    composed: Vec<f64>,
    /// The source rows of one leaf folded element-wise (`Slots::PerSet`).
    folded: Vec<f64>,
}

/// Which slots a `VipTree::min_door_to_sets` call fills.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slots {
    /// `out[set * sources + i]`: source door `i`'s distance to the set.
    PerDoor,
    /// `out[set]`: the minimum over every source door.
    PerSet,
}

/// The target sets of one `VipTree::min_door_to_sets` call, grouped for
/// the current source leaf.
#[derive(Default)]
struct TargetGroups {
    /// `(home leaf, row, set)` of each target door.
    homes: Vec<(NodeId, u32, u32)>,
    /// `(set, row)` of the targets homed in the current source leaf.
    near: Vec<(u32, u32)>,
    /// The other targets as `(depth of c2, c2, set, home leaf, row)`,
    /// sorted so that one LCA child's targets, and within them one set's,
    /// are adjacent, and groups that share `c1` follow each other.
    keyed: Vec<(u32, NodeId, u32, NodeId, u32)>,
    /// One group per LCA child met.
    groups: Vec<Group>,
    /// The sets of every group, one entry per set that has members there.
    members: Vec<Member>,
    /// The folded min-vectors of the members, back to back.
    mins: Vec<f64>,
}

/// The targets of every set that share `c2`, the child of their LCA with
/// the current source leaf on the targets' side.
struct Group {
    lca: NodeId,
    /// The LCA's child on the source side.
    c1: NodeId,
    c2: NodeId,
    /// This group's range in `TargetGroups::members`.
    members: (usize, usize),
}

/// One set's targets within a [`Group`].
struct Member {
    set: u32,
    /// Home `(leaf, row)` of the first target.
    first: (NodeId, u32),
    /// Offset in `mins` of the element-wise minimum of the targets'
    /// distances to `c2`'s access doors; `None` while the one target's own
    /// row can be borrowed instead.
    folded: Option<usize>,
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
            return self.compose_at_lca(lca, c1, c2, &v1, &v2, f64::INFINITY);
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
                f64::INFINITY,
            )
        })
    }

    /// Minimum of `bound` and `v1[i] + mat_lca(pos1[i], pos2[j]) + v2[j]`
    /// over the access doors of the LCA's two children — the final
    /// composition step of every cross-leaf door distance. A row whose leg
    /// `v1[i]` alone reaches the running minimum is skipped: the other two
    /// terms are non-negative, so it cannot lower it.
    fn compose_at_lca(
        &self,
        lca: NodeId,
        c1: NodeId,
        c2: NodeId,
        v1: &AccessDists<'_>,
        v2: &AccessDists<'_>,
        bound: f64,
    ) -> f64 {
        let pos1 = self.access_positions_in_parent(lca, c1);
        let pos2 = self.access_positions_in_parent(lca, c2);
        let mat = self.mat(lca);
        let mut best = bound;
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
        let doors = self.venue.partition(p).doors();
        let mut out: Vec<f64> = doors.iter().map(|&d| self.door_seed(d, q)).collect();
        self.min_door_to_sets(doors, self.door_set(q, 0), Slots::PerDoor, &mut out);
        out
    }

    /// Exact indoor distance from door `ds` to partition `q` (0 when the
    /// door opens into `q`): the one-source case of
    /// [`Self::door_dists_to_partition`].
    ///
    /// Both run the same batched kernel as the warm tier's column fill
    /// ([`crate::WarmTier`]), so their values cannot diverge by a bit.
    pub fn door_dist_from(&self, ds: DoorId, q: PartitionId) -> f64 {
        let mut out = [self.door_seed(ds, q)];
        self.min_door_to_sets(&[ds], self.door_set(q, 0), Slots::PerDoor, &mut out);
        out[0]
    }

    /// [`Self::door_dists_to_partition`]`(p, q)` for every `q` of `qs`,
    /// back to back in `out` (`doors(p)` values per `q`; `out` is cleared
    /// first).
    ///
    /// The siblings of one expansion are asked for together: each source
    /// door composes once per LCA child, and every `q` reads that
    /// composition.
    pub fn door_dists_to_partitions(&self, p: PartitionId, qs: &[PartitionId], out: &mut Vec<f64>) {
        let doors = self.venue.partition(p).doors();
        out.clear();
        for &q in qs {
            out.extend(doors.iter().map(|&d| self.door_seed(d, q)));
        }
        self.min_door_to_sets(
            doors,
            qs.iter()
                .zip(0..)
                .flat_map(|(&q, set)| self.door_set(q, set)),
            Slots::PerDoor,
            out,
        );
    }

    /// The doors of partition `q` as targets of set `set`.
    pub(crate) fn door_set(
        &self,
        q: PartitionId,
        set: u32,
    ) -> impl Iterator<Item = (DoorId, u32)> + '_ {
        self.venue
            .partition(q)
            .doors()
            .iter()
            .map(move |&d| (d, set))
    }

    /// The starting bound of door `d`'s distance to partition `q`: 0 when
    /// the door opens into `q`, ∞ otherwise.
    #[inline]
    pub(crate) fn door_seed(&self, d: DoorId, q: PartitionId) -> f64 {
        if self.venue.door(d).partitions().any(|side| side == q) {
            0.0
        } else {
            f64::INFINITY
        }
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
        let mut out = Vec::with_capacity(1);
        self.min_dists_partition_to_nodes(p, &[n], &mut out);
        out[0]
    }

    /// [`Self::min_dist_partition_to_node`]`(p, n)` for every `n` of `ns`,
    /// into `out` (one value per node; cleared first). The node-bound
    /// counterpart of [`Self::door_dists_to_partitions`]: the rows of a
    /// source leaf's doors are folded first, so each leaf composes once
    /// per LCA child for all of `ns`.
    pub fn min_dists_partition_to_nodes(&self, p: PartitionId, ns: &[NodeId], out: &mut Vec<f64>) {
        out.clear();
        out.extend(ns.iter().map(|&n| {
            if self.contains_partition(n, p) {
                0.0
            } else {
                f64::INFINITY
            }
        }));
        self.min_door_to_sets(
            self.venue.partition(p).doors(),
            ns.iter()
                .zip(0..)
                .flat_map(|(&n, set)| self.nodes[n.index()].access_doors().map(move |d| (d, set))),
            Slots::PerSet,
            out,
        );
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

    /// The batched kernel behind every door-to-door-set distance: every
    /// `(d, set)` of `targets` lowers the slots of `set` to
    /// `min door_to_door(s, d)` over the `sources` doors `s`, either per
    /// source door or over all of them (`slots`). A slot's value on entry
    /// is its starting bound. A source door whose slots all hold 0, and a
    /// per-set slot's targets once it holds 0, are dropped: no distance is
    /// below 0. One set with `Slots::PerDoor` is one vector
    /// ([`Self::door_dists_to_partition`], [`Self::door_dist_from`], a warm
    /// column); the sets of a batch are the children of one expansion.
    ///
    /// The result is bit-identical to the per-pair minimum, but it is
    /// composed once per source door (per set: once per source leaf) and
    /// LCA child instead of once per pair. Sources are taken one home leaf
    /// at a time:
    /// * Targets homed in that leaf read the leaf matrix, as
    ///   [`Self::door_to_door`] does.
    /// * The others are grouped by `c2`, the child of `LCA(leaf, leaf(t))`
    ///   that holds `t`, and within a group by set. Each set's members'
    ///   distances to `c2`'s access doors (their vivid rows, or the IP-tree
    ///   climbs) are folded element-wise into one min-vector `w`; a set
    ///   with one member keeps that member's own row, with no copy.
    /// * Per door, the source side `v1` is the door's row to `c1`, the
    ///   LCA's child on the source side; per set, it is the element-wise
    ///   minimum of the leaf's source rows. A group that one set reads is
    ///   composed straight through, `min_{x,y} (v1[x] + M[x, y] + w[y])`
    ///   with `M` the LCA's matrix. A group that several sets read is
    ///   composed once, `R[y] = min_x (v1[x] + M[x, y])`, and each set
    ///   reads `min_y (R[y] + w[y])` with one min-add.
    ///
    /// Rounding to nearest never decreases when an operand increases, so
    /// `fl(min_x fl(v1[x] + M[x, y]) + w[y])` equals
    /// `min_x fl(fl(v1[x] + M[x, y]) + w[y])`, and the folds of `v1` and
    /// `w` commute with the sums the same way. Min is exact, and a row
    /// whose leg `v1[x]` reaches every slot it could lower is skipped.
    pub(crate) fn min_door_to_sets(
        &self,
        sources: &[DoorId],
        targets: impl IntoIterator<Item = (DoorId, u32)>,
        slots: Slots,
        out: &mut [f64],
    ) {
        let n = sources.len();
        let slot = |set: u32, i: u32| match slots {
            Slots::PerDoor => set as usize * n + i as usize,
            Slots::PerSet => set as usize,
        };
        DIST_SCRATCH.with(|s| {
            let DistScratch {
                a,
                b,
                tmp,
                sources: src,
                targets: t,
                composed: r,
                folded: u,
            } = &mut *s.borrow_mut();
            t.homes.clear();
            t.homes.extend(
                targets
                    .into_iter()
                    .filter(|&(_, set)| slots == Slots::PerDoor || out[set as usize] > 0.0)
                    .map(|(d, set)| {
                        let (leaf, row) = self.door_home[d.index()];
                        (leaf, row, set)
                    }),
            );
            if t.homes.is_empty() {
                return;
            }
            let sets = out.len() / n.max(1);
            src.clear();
            src.extend(
                sources
                    .iter()
                    .zip(0..)
                    .filter(|&(_, i)| {
                        slots == Slots::PerSet
                            || (0..sets as u32).any(|set| out[slot(set, i)] > 0.0)
                    })
                    .map(|(d, i)| {
                        let (leaf, row) = self.door_home[d.index()];
                        (leaf, row, i)
                    }),
            );
            src.sort_unstable_by_key(|&(leaf, ..)| leaf);
            for run in src.chunk_by(|x, y| x.0 == y.0) {
                let l1 = run[0].0;
                self.group_targets(l1, t, b, tmp);
                let leaf1 = self.mat(l1);
                for &(_, i1, i) in run {
                    for &(set, i2) in &t.near {
                        let d = leaf1.dist(i1 as usize, i2 as usize);
                        let o = &mut out[slot(set, i)];
                        if d < *o {
                            *o = d;
                        }
                    }
                }
                match slots {
                    Slots::PerDoor => {
                        for &(_, i1, i) in run {
                            // `a` holds this door's climb to `climbed`.
                            let mut climbed = None;
                            for g in &t.groups {
                                let v1 = if self.config.vivid || g.c1 == l1 {
                                    self.access_dists(l1, i1 as usize, g.c1)
                                } else {
                                    if climbed != Some(g.c1) {
                                        self.climb_into(l1, i1 as usize, g.c1, a, tmp);
                                        climbed = Some(g.c1);
                                    }
                                    AccessDists::Dense(a.as_slice())
                                };
                                self.lower_group(g, t, &v1, r, out, |set| slot(set, i));
                            }
                        }
                    }
                    Slots::PerSet => {
                        // `u` holds the leaf's rows to `folded`, folded.
                        let mut folded = None;
                        for g in &t.groups {
                            if folded != Some(g.c1) {
                                self.fold_sources(l1, run, g.c1, u, a, tmp);
                                folded = Some(g.c1);
                            }
                            let v1 = AccessDists::Dense(u.as_slice());
                            self.lower_group(g, t, &v1, r, out, |set| set as usize);
                        }
                    }
                }
            }
        })
    }

    /// Sorts the targets of every set for source leaf `l1` into `t.near`
    /// and `t.groups`, folding each set's members of a group into `t.mins`
    /// unless one member's own row can be borrowed.
    fn group_targets(
        &self,
        l1: NodeId,
        t: &mut TargetGroups,
        b: &mut Vec<f64>,
        tmp: &mut Vec<f64>,
    ) {
        let TargetGroups {
            homes,
            near,
            keyed,
            groups,
            members,
            mins,
        } = t;
        near.clear();
        keyed.clear();
        groups.clear();
        members.clear();
        mins.clear();
        for &(l2, i2, set) in homes.iter() {
            if l2 == l1 {
                near.push((set, i2));
                continue;
            }
            let below = self.depth(self.lca(l1, l2)) + 1;
            keyed.push((below, self.ancestor_at_depth(l2, below), set, l2, i2));
        }
        keyed.sort_unstable();
        for group in keyed.chunk_by(|x, y| x.1 == y.1) {
            let (below, c2) = (group[0].0, group[0].1);
            let start = members.len();
            for set in group.chunk_by(|x, y| x.2 == y.2) {
                let first = (set[0].3, set[0].4);
                // An IP-tree member off the LCA's child has no row to
                // borrow: its climb lands in `mins`.
                let folded = (set.len() > 1 || (!self.config.vivid && c2 != first.0)).then(|| {
                    let off = self.fold_target(first, c2, None, mins, b, tmp);
                    for &(.., l2, i2) in &set[1..] {
                        self.fold_target((l2, i2), c2, Some(off), mins, b, tmp);
                    }
                    off
                });
                members.push(Member {
                    set: set[0].2,
                    first,
                    folded,
                });
            }
            groups.push(Group {
                lca: self.parent(c2).expect("c2 is below its LCA"),
                c1: self.ancestor_at_depth(l1, below),
                c2,
                members: (start, members.len()),
            });
        }
    }

    /// Folds the distances from target `(l2, i2)` to `c2`'s access doors
    /// element-wise into the min-vector at `off` in `mins` (a fresh all-∞
    /// one when `off` is `None`) and returns its offset.
    fn fold_target(
        &self,
        (l2, i2): (NodeId, u32),
        c2: NodeId,
        off: Option<usize>,
        mins: &mut Vec<f64>,
        b: &mut Vec<f64>,
        tmp: &mut Vec<f64>,
    ) -> usize {
        let len = self.num_access_doors(c2);
        let off = off.unwrap_or_else(|| {
            mins.resize(mins.len() + len, f64::INFINITY);
            mins.len() - len
        });
        let w = &mut mins[off..off + len];
        if self.config.vivid || c2 == l2 {
            self.access_dists(l2, i2 as usize, c2).min_into(w);
        } else {
            self.climb_into(l2, i2 as usize, c2, b, tmp);
            AccessDists::Dense(b.as_slice()).min_into(w);
        }
        off
    }

    /// Folds the distances from every source door of `run` (all homed in
    /// leaf `l1`) to `c1`'s access doors element-wise into `u`.
    fn fold_sources(
        &self,
        l1: NodeId,
        run: &[(NodeId, u32, u32)],
        c1: NodeId,
        u: &mut Vec<f64>,
        a: &mut Vec<f64>,
        tmp: &mut Vec<f64>,
    ) {
        u.clear();
        u.resize(self.num_access_doors(c1), f64::INFINITY);
        for &(_, i1, _) in run {
            if self.config.vivid || c1 == l1 {
                self.access_dists(l1, i1 as usize, c1).min_into(u);
            } else {
                self.climb_into(l1, i1 as usize, c1, a, tmp);
                AccessDists::Dense(a.as_slice()).min_into(u);
            }
        }
    }

    /// Lowers the slots of `g`'s sets (`slot` maps a set to its slot) to
    /// their distances through `g`'s LCA from the source side `v1`.
    #[inline]
    fn lower_group(
        &self,
        g: &Group,
        t: &TargetGroups,
        v1: &AccessDists<'_>,
        r: &mut Vec<f64>,
        out: &mut [f64],
        slot: impl Fn(u32) -> usize,
    ) {
        let w = |m: &Member| match m.folded {
            Some(off) => AccessDists::Dense(&t.mins[off..off + self.num_access_doors(g.c2)]),
            None => self.access_dists(m.first.0, m.first.1 as usize, g.c2),
        };
        let members = &t.members[g.members.0..g.members.1];
        if let [m] = members {
            let o = &mut out[slot(m.set)];
            *o = self.compose_at_lca(g.lca, g.c1, g.c2, v1, &w(m), *o);
            return;
        }
        let bound = members.iter().map(|m| out[slot(m.set)]).fold(0.0, f64::max);
        if bound <= 0.0 || !self.compose_row(g, v1, bound, r) {
            return;
        }
        for m in members {
            let d = w(m).min_add(r);
            let o = &mut out[slot(m.set)];
            if d < *o {
                *o = d;
            }
        }
    }

    /// Fills `r` with `R[y] = min_x (v1[x] + M[x, y])` over `g.c1`'s access
    /// doors `x` and `g.c2`'s access doors `y`, `M` being the LCA's matrix.
    /// Rows with `v1[x] >= bound` are left out; returns `false` when all
    /// were.
    fn compose_row(&self, g: &Group, v1: &AccessDists<'_>, bound: f64, r: &mut Vec<f64>) -> bool {
        let pos1 = self.access_positions_in_parent(g.lca, g.c1);
        let pos2 = self.access_positions_in_parent(g.lca, g.c2);
        let mat = self.mat(g.lca);
        r.clear();
        r.resize(pos2.len(), f64::INFINITY);
        let mut any = false;
        for (x, &p1) in pos1.iter().enumerate() {
            let a = v1.get(x);
            if a >= bound {
                continue;
            }
            any = true;
            let row = mat.dist_row(p1 as usize);
            for (ry, &p2) in r.iter_mut().zip(pos2) {
                let t = a + row[p2 as usize];
                if t < *ry {
                    *ry = t;
                }
            }
        }
        any
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
