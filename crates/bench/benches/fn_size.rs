//! Fig. 7c microbenchmark: query time vs candidate-location count
//! (Melbourne Central, synthetic setting), efficient solver against the
//! §4 baseline.

mod common;

use ifls_bench::harness::{BenchmarkId, Criterion};
use std::hint::black_box;

use ifls_core::{EfficientIfls, ModifiedMinMax};
use ifls_venues::NamedVenue;
use ifls_viptree::{VipTree, VipTreeConfig};
use ifls_workloads::{ParameterGrid, WorkloadBuilder};

fn bench(c: &mut Criterion) {
    let venue = NamedVenue::MC.build();
    let tree = VipTree::build(&venue, VipTreeConfig::default());
    let grid = ParameterGrid::new(NamedVenue::MC);

    let mut group = c.benchmark_group("fn_size");
    for fn_ in grid.fn_range() {
        let w = WorkloadBuilder::new(&venue)
            .clients_uniform(100)
            .existing_uniform(grid.default_fe())
            .candidates_uniform(fn_)
            .seed(17)
            .build();
        group.bench_with_input(BenchmarkId::new("efficient", fn_), &w, |b, w| {
            b.iter(|| {
                black_box(EfficientIfls::new(&tree).run(&w.clients, &w.existing, &w.candidates))
            })
        });
        group.bench_with_input(BenchmarkId::new("baseline", fn_), &w, |b, w| {
            b.iter(|| {
                black_box(ModifiedMinMax::new(&tree).run(&w.clients, &w.existing, &w.candidates))
            })
        });
    }
    group.finish();
}

fn main() {
    let mut c = common::criterion();
    bench(&mut c);
    c.final_summary();
}
