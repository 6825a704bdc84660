//! The grouped kernels are bit-identical to the per-pair minima they are
//! defined as:
//! * `iMinD(p, N)` and `iMinD(c, N)`: `door_to_door` over every door of the
//!   source partition × every access door of `N`, plus the point's leg;
//! * `door_dists_to_partition(p, q)` and `door_dist_from(d, q)`:
//!   `door_to_door` from each source door to every door of `q`, or 0 when
//!   the door opens into `q`;
//! * every warm-tier cell, at any fill thread count;
//! * the sibling batches of every expansion shape: a leaf's partitions as
//!   one `door_dists_to_partitions` call and a node's children as one
//!   `min_dists_partition_to_nodes` call, for every source partition.
//!
//! The references below use only the public API, so they pin the grouped
//! composition inside the tree against the plain definition on every
//! pair, for vivid and IP-tree indexes alike.

use ifls_indoor::{DoorId, IndoorPoint, PartitionId, Point, Venue};
use ifls_venues::{GridVenueSpec, NamedVenue, RandomVenueSpec};
use ifls_viptree::{NodeChildren, NodeId, VipTree, VipTreeConfig, DEFAULT_WARM_BUDGET_BYTES};

/// The default VIP-tree and the IP-tree.
fn both() -> [VipTreeConfig; 2] {
    [VipTreeConfig::default(), VipTreeConfig::ip_tree()]
}

/// Two points per partition: its centre and an off-centre one, so the
/// door legs differ between doors.
fn probe_points(venue: &Venue) -> Vec<IndoorPoint> {
    let mut points = Vec::new();
    for p in venue.partitions() {
        let r = p.rect();
        points.push(IndoorPoint::new(p.id(), p.center()));
        points.push(IndoorPoint::new(
            p.id(),
            Point::new(
                r.min_x + 0.2 * r.width(),
                r.min_y + 0.7 * r.height(),
                p.level_min(),
            ),
        ));
    }
    points
}

/// Checks every (partition, node) and (point, node) pair of `venue`
/// under each configuration.
fn check_venue(label: &str, venue: &Venue, configs: &[VipTreeConfig]) {
    let points = probe_points(venue);
    for &cfg in configs {
        let tree = VipTree::build(venue, cfg);
        for n in tree.node_ids() {
            let access: Vec<_> = tree.access_doors(n).collect();
            for p in venue.partition_ids() {
                let expected = if tree.contains_partition(n, p) {
                    0.0
                } else {
                    let mut best = f64::INFINITY;
                    for &ds in venue.partition(p).doors() {
                        for &a in &access {
                            best = best.min(tree.door_to_door(ds, a));
                        }
                    }
                    best
                };
                let got = tree.min_dist_partition_to_node(p, n);
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{label} {cfg:?}: iMinD({p}, {n}) = {got}, per-pair {expected}"
                );
            }
            for c in &points {
                let expected = if tree.contains_partition(n, c.partition) {
                    0.0
                } else {
                    let mut best = f64::INFINITY;
                    for &ds in venue.partition(c.partition).doors() {
                        let leg = venue.point_to_door(c, ds);
                        for &a in &access {
                            best = best.min(leg + tree.door_to_door(ds, a));
                        }
                    }
                    best
                };
                let got = tree.min_dist_point_to_node(c, n);
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{label} {cfg:?}: iMinD({c:?}, {n}) = {got}, per-pair {expected}"
                );
            }
        }
    }
}

/// The per-pair definition of `min_dist_partition_to_node(p, n)`.
fn per_pair_node_min(tree: &VipTree<'_>, p: PartitionId, n: NodeId) -> f64 {
    if tree.contains_partition(n, p) {
        return 0.0;
    }
    let mut best = f64::INFINITY;
    for &ds in tree.venue().partition(p).doors() {
        for a in tree.access_doors(n) {
            best = best.min(tree.door_to_door(ds, a));
        }
    }
    best
}

/// The per-pair definition of `door_dist_from(ds, q)`.
fn per_pair_door_dist(tree: &VipTree<'_>, ds: DoorId, q: PartitionId) -> f64 {
    let venue = tree.venue();
    if venue.door(ds).partitions().any(|side| side == q) {
        return 0.0;
    }
    let mut best = f64::INFINITY;
    for &dt in venue.partition(q).doors() {
        best = best.min(tree.door_to_door(ds, dt));
    }
    best
}

/// Checks `door_dists_to_partition(p, q)` door by door, and
/// `door_dist_from(d, q)`, on every (partition, partition) pair of `venue`
/// under each configuration.
fn check_door_vectors(label: &str, venue: &Venue, configs: &[VipTreeConfig]) {
    for &cfg in configs {
        let tree = VipTree::build(venue, cfg);
        for q in venue.partition_ids() {
            let expected: Vec<f64> = venue
                .door_ids()
                .map(|d| per_pair_door_dist(&tree, d, q))
                .collect();
            for d in venue.door_ids() {
                let got = tree.door_dist_from(d, q);
                let want = expected[d.index()];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{label} {cfg:?}: door_dist_from({d}, {q}) = {got}, per-pair {want}"
                );
            }
            for p in venue.partition_ids() {
                let got = tree.door_dists_to_partition(p, q);
                let doors = venue.partition(p).doors();
                assert_eq!(got.len(), doors.len());
                for (&d, g) in doors.iter().zip(&got) {
                    let want = expected[d.index()];
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "{label} {cfg:?}: door_dists_to_partition({p}, {q}) at {d} = {g}, \
                         per-pair {want}"
                    );
                }
            }
        }
    }
}

/// Checks the sibling batches of every expansion shape: for every source
/// partition `p`, each leaf's partitions other than `p` as one door-vector
/// batch and each node's children as one bound batch, value by value
/// against the per-pair minimum.
fn check_sibling_batches(label: &str, venue: &Venue, configs: &[VipTreeConfig]) {
    for &cfg in configs {
        let tree = VipTree::build(venue, cfg);
        let expected: Vec<Vec<f64>> = venue
            .partition_ids()
            .map(|q| {
                venue
                    .door_ids()
                    .map(|d| per_pair_door_dist(&tree, d, q))
                    .collect()
            })
            .collect();
        let (mut vectors, mut bounds) = (Vec::new(), Vec::new());
        for p in venue.partition_ids() {
            let doors = venue.partition(p).doors();
            for n in tree.node_ids() {
                match tree.children(n) {
                    NodeChildren::Partitions(parts) => {
                        let qs: Vec<PartitionId> =
                            parts.iter().copied().filter(|&q| q != p).collect();
                        tree.door_dists_to_partitions(p, &qs, &mut vectors);
                        assert_eq!(vectors.len(), qs.len() * doors.len(), "{label}");
                        for (&q, got) in qs.iter().zip(vectors.chunks(doors.len().max(1))) {
                            for (&d, g) in doors.iter().zip(got) {
                                let want = expected[q.index()][d.index()];
                                assert_eq!(
                                    g.to_bits(),
                                    want.to_bits(),
                                    "{label} {cfg:?}: leaf {n} batch, ({p} at {d}, {q}) = {g}, \
                                     per-pair {want}"
                                );
                            }
                        }
                    }
                    NodeChildren::Nodes(children) => {
                        tree.min_dists_partition_to_nodes(p, children, &mut bounds);
                        assert_eq!(bounds.len(), children.len(), "{label}");
                        for (&c, got) in children.iter().zip(&bounds) {
                            let want = per_pair_node_min(&tree, p, c);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{label} {cfg:?}: node {n} batch, iMinD({p}, {c}) = {got}, \
                                 per-pair {want}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Checks every cell of a full warm tier, filled on 1 and on 2 threads:
/// door cells against `door_dist_from`, node minima against
/// `min_dist_partition_to_node`.
fn check_warm_cells(label: &str, venue: &Venue, configs: &[VipTreeConfig]) {
    for &cfg in configs {
        let tree = VipTree::build(venue, cfg);
        for threads in [1, 2] {
            let warm = tree.build_warm_tier(DEFAULT_WARM_BUDGET_BYTES, threads);
            assert_eq!(warm.num_targets(), venue.num_partitions(), "{label}");
            assert!(warm.has_node_mins(), "{label}");
            let mut cells = Vec::new();
            for q in venue.partition_ids() {
                for p in venue.partition_ids() {
                    warm.gather_into(venue, p, q, &mut cells);
                    for (&d, cell) in venue.partition(p).doors().iter().zip(&cells) {
                        let want = tree.door_dist_from(d, q);
                        assert_eq!(
                            cell.to_bits(),
                            want.to_bits(),
                            "{label} {cfg:?} threads {threads}: warm cell ({d}, {q}) = {cell}, \
                             door_dist_from {want}"
                        );
                    }
                }
            }
            for p in venue.partition_ids() {
                for n in tree.node_ids() {
                    assert_eq!(
                        warm.node_min(p, n).to_bits(),
                        tree.min_dist_partition_to_node(p, n).to_bits(),
                        "{label} {cfg:?} threads {threads}: warm node min ({p}, {n})"
                    );
                }
            }
        }
    }
}

/// The seeded random venues, and the narrow tree that puts LCAs several
/// levels above the leaves so both sides climb more than one level.
fn random_cases() -> Vec<(String, Venue)> {
    (0..4)
        .map(|seed| {
            let venue = RandomVenueSpec {
                cells_x: 4,
                cells_y: 3,
                levels: 3,
                extra_door_prob: 0.4,
                cell_size: 9.0,
            }
            .build(seed);
            (format!("random seed {seed}"), venue)
        })
        .collect()
}

/// The narrow vivid tree and its IP-tree twin.
fn deep() -> [VipTreeConfig; 2] {
    let deep = VipTreeConfig {
        leaf_max_partitions: 2,
        max_fanout: 2,
        ..VipTreeConfig::default()
    };
    [
        deep,
        VipTreeConfig {
            vivid: false,
            ..deep
        },
    ]
}

#[test]
fn node_bounds_match_the_per_pair_minimum_on_a_grid() {
    check_venue("grid", &GridVenueSpec::new("t", 3, 40).build(), &both());
}

#[test]
fn node_bounds_match_the_per_pair_minimum_on_cph() {
    check_venue("cph", &NamedVenue::CPH.build(), &both());
}

#[test]
fn node_bounds_match_the_per_pair_minimum_on_random_venues() {
    for (label, venue) in random_cases() {
        check_venue(&label, &venue, &both());
        check_venue(&label, &venue, &deep());
    }
}

#[test]
fn door_vectors_match_the_per_pair_minimum_on_a_grid() {
    check_door_vectors("grid", &GridVenueSpec::new("t", 3, 40).build(), &both());
}

#[test]
fn door_vectors_match_the_per_pair_minimum_on_cph() {
    check_door_vectors("cph", &NamedVenue::CPH.build(), &both());
}

#[test]
fn door_vectors_match_the_per_pair_minimum_on_random_venues() {
    for (label, venue) in random_cases() {
        check_door_vectors(&label, &venue, &both());
        check_door_vectors(&label, &venue, &deep());
    }
}

#[test]
fn warm_cells_match_the_kernels_at_one_and_two_threads() {
    check_warm_cells("grid", &GridVenueSpec::new("t", 3, 40).build(), &both());
    check_warm_cells("cph", &NamedVenue::CPH.build(), &both());
    for (label, venue) in random_cases() {
        check_warm_cells(&label, &venue, &both());
        check_warm_cells(&label, &venue, &deep());
    }
}

#[test]
fn sibling_batches_match_the_per_pair_minimum_on_a_grid() {
    check_sibling_batches("grid", &GridVenueSpec::new("t", 3, 40).build(), &both());
}

#[test]
fn sibling_batches_match_the_per_pair_minimum_on_cph() {
    check_sibling_batches("cph", &NamedVenue::CPH.build(), &both());
}

#[test]
fn sibling_batches_match_the_per_pair_minimum_on_random_venues() {
    for (label, venue) in random_cases() {
        check_sibling_batches(&label, &venue, &both());
        check_sibling_batches(&label, &venue, &deep());
    }
}
