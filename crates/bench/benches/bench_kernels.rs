//! E21c: kernel computation cost — the paper's efficiency claim for the WL
//! subtree kernel against shortest-path, graphlet and random-walk kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use x2v_graph::generators::gnp;
use x2v_kernel::gram::gram;
use x2v_kernel::graphlet::GraphletKernel;
use x2v_kernel::random_walk::RandomWalkKernel;
use x2v_kernel::shortest_path::ShortestPathKernel;
use x2v_kernel::wl::WlSubtreeKernel;

fn bench_kernel_gram(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let graphs: Vec<_> = (0..20).map(|_| gnp(20, 0.2, &mut rng)).collect();
    let mut group = c.benchmark_group("gram_20x20nodes");
    group.sample_size(10);
    group.bench_function("wl_t5", |b| {
        b.iter(|| black_box(gram(&WlSubtreeKernel::new(5), &graphs)))
    });
    group.bench_function("shortest_path", |b| {
        b.iter(|| black_box(gram(&ShortestPathKernel::new(), &graphs)))
    });
    group.bench_function("graphlet34", |b| {
        b.iter(|| black_box(gram(&GraphletKernel::three_four(), &graphs)))
    });
    group.bench_function("random_walk", |b| {
        b.iter(|| black_box(gram(&RandomWalkKernel::new(0.05, 5), &graphs)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernel_gram
}
criterion_main!(benches);
