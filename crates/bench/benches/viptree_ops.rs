//! VIP-tree micro-operations: index construction, exact distances, lower
//! bounds and incremental NN — the primitives every solver is built on.

mod common;

use ifls_bench::harness::{threads_arg, BenchmarkId, Criterion};
use std::hint::black_box;

use ifls_core::{parallel::default_threads, BatchRunner, IflsQuery, MinMax};
use ifls_indoor::{DoorId, IndoorPoint};
use ifls_venues::NamedVenue;
use ifls_viptree::{FacilityIndex, IncrementalNn, VipTree, VipTreeConfig};
use ifls_workloads::{ParameterGrid, WorkloadBuilder};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("viptree_build");
    for nv in NamedVenue::ALL {
        let venue = nv.build();
        group.bench_with_input(BenchmarkId::new("vivid", nv.label()), &venue, |b, v| {
            b.iter(|| black_box(VipTree::build(v, VipTreeConfig::default())))
        });
    }
    group.finish();

    let venue = NamedVenue::MC.build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    let ip_tree = VipTree::build(&venue, VipTreeConfig::ip_tree());

    // Distance primitives over a fixed set of probe pairs.
    let doors: Vec<DoorId> = venue.door_ids().step_by(17).collect();
    let mut group = c.benchmark_group("viptree_dist");
    group.bench_function("door_to_door/vivid", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &d1 in &doors {
                for &d2 in &doors {
                    acc += tree.door_to_door(d1, d2);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("door_to_door/ip_tree", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &d1 in &doors {
                for &d2 in &doors {
                    acc += ip_tree.door_to_door(d1, d2);
                }
            }
            black_box(acc)
        })
    });
    let points: Vec<IndoorPoint> = venue
        .partitions()
        .iter()
        .step_by(23)
        .map(|p| IndoorPoint::new(p.id(), p.center()))
        .collect();
    let targets: Vec<_> = venue.partition_ids().step_by(31).collect();
    group.bench_function("point_to_partition", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for p in &points {
                for &q in &targets {
                    acc += tree.dist_point_to_partition(p, q);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("imind_partition_to_node", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &q in &targets {
                for n in tree.node_ids() {
                    acc += tree.min_dist_partition_to_node(q, n);
                }
            }
            black_box(acc)
        })
    });
    group.finish();

    // Incremental NN over a facility layer.
    let facilities: Vec<_> = venue.partition_ids().step_by(5).collect();
    let idx = FacilityIndex::build(&tree, facilities.iter().copied());
    let mut group = c.benchmark_group("viptree_nn");
    group.bench_function("first_nn", |b| {
        b.iter(|| {
            for p in &points {
                black_box(IncrementalNn::new(&tree, &idx, *p).next());
            }
        })
    });
    group.bench_function("k10_nn", |b| {
        b.iter(|| {
            for p in &points {
                black_box(IncrementalNn::new(&tree, &idx, *p).take(10).count());
            }
        })
    });
    group.finish();

    // Concurrent batch serving over the shared index (`--threads N`).
    let d = ParameterGrid::new(NamedVenue::MC).defaults();
    let queries: Vec<IflsQuery> = (0..16)
        .map(|i| {
            let w = WorkloadBuilder::new(&venue)
                .clients_uniform(40)
                .existing_uniform(d.fe)
                .candidates_uniform(d.fn_)
                .seed(100 + i)
                .build();
            IflsQuery {
                clients: w.clients,
                existing: w.existing,
                candidates: w.candidates,
            }
        })
        .collect();
    let threads = threads_arg(default_threads());
    let mut group = c.benchmark_group("viptree_batch");
    group.bench_function(format!("minmax_x16_t{threads}").as_str(), |b| {
        let runner = BatchRunner::with_threads(&tree, threads);
        b.iter(|| black_box(runner.run::<MinMax>(&queries)))
    });
    group.bench_function("minmax_x16_t1", |b| {
        let runner = BatchRunner::with_threads(&tree, 1);
        b.iter(|| black_box(runner.run::<MinMax>(&queries)))
    });
    group.finish();
}

fn main() {
    let mut c = common::criterion();
    bench(&mut c);
    c.final_summary();
}
