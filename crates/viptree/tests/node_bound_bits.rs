//! `iMinD(p, N)` and `iMinD(c, N)` are bit-identical to the per-pair
//! minimum they are defined as: `door_to_door` over every door of the
//! source partition × every access door of `N`, plus the point's leg.
//! The reference below uses only the public API, so it pins the grouped
//! composition inside the tree against the plain definition on every
//! (partition, node) pair, for vivid and IP-tree indexes alike.

use ifls_indoor::{IndoorPoint, Point, Venue};
use ifls_venues::{GridVenueSpec, NamedVenue, RandomVenueSpec};
use ifls_viptree::{VipTree, VipTreeConfig};

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
    for seed in 0..4 {
        let venue = RandomVenueSpec {
            cells_x: 4,
            cells_y: 3,
            levels: 3,
            extra_door_prob: 0.4,
            cell_size: 9.0,
        }
        .build(seed);
        check_venue(&format!("random seed {seed}"), &venue, &both());
        // A narrow tree puts LCAs several levels above the leaves, so
        // both sides climb more than one level.
        let deep = VipTreeConfig {
            leaf_max_partitions: 2,
            max_fanout: 2,
            ..VipTreeConfig::default()
        };
        let deep_ip = VipTreeConfig {
            vivid: false,
            ..deep
        };
        check_venue(&format!("random seed {seed}"), &venue, &[deep, deep_ip]);
    }
}
