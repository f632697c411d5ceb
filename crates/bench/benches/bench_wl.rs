//! E21a: 1-WL scaling (the paper cites O((n+m) log n) algorithms; ours is
//! rounds × O(n + m) with hashing) and k-WL cost growth in k.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use x2v_graph::generators::{gnp, random_regular};
use x2v_wl::kwl::KwlRefiner;
use x2v_wl::Refiner;

fn bench_1wl_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("1wl_refine_to_stable");
    for n in [50usize, 100, 200, 400] {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gnp(n, 8.0 / n as f64, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                let mut r = Refiner::new();
                black_box(r.refine_to_stable(g).stable_round)
            })
        });
    }
    group.finish();
}

fn bench_kwl_dimension(c: &mut Criterion) {
    let mut group = c.benchmark_group("kwl_by_dimension");
    let mut rng = StdRng::seed_from_u64(2);
    let g = random_regular(10, 3, &mut rng);
    for k in [2usize, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let mut r = KwlRefiner::new(k);
                black_box(r.run(&g).rounds)
            })
        });
    }
    group.finish();
}

fn bench_wl_kernel_gram(c: &mut Criterion) {
    use x2v_kernel::gram::gram;
    use x2v_kernel::wl::WlSubtreeKernel;
    let mut rng = StdRng::seed_from_u64(3);
    let graphs: Vec<_> = (0..30).map(|_| gnp(25, 0.2, &mut rng)).collect();
    c.bench_function("wl_t5_gram_30x25nodes", |b| {
        b.iter(|| {
            let k = WlSubtreeKernel::new(5);
            black_box(gram(&k, &graphs))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_1wl_scaling, bench_kwl_dimension, bench_wl_kernel_gram
}
criterion_main!(benches);
