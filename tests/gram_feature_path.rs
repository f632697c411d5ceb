//! `gram_resumable` over the WL subtree kernel takes the kernel's explicit
//! feature map. This suite pins that default path to the pairwise oracle
//! ([`PairwiseOnly`]: one `eval`, i.e. two fresh refinements, per entry)
//! in the default `cargo test`: bit-equal matrices at 1, 2 and 8 threads
//! for the plain and the discounted kernel, and budget trips at the same
//! row. Both paths share the merge-join dot, so the oracle's entries are
//! in turn checked against an independent hash-probe dot over
//! `WlHistory::histogram` maps. The ambient budget is process-global, so
//! the whole scenario runs inside ONE `#[test]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_core::GraphKernel;
use x2v_datasets::synthetic::cycles_vs_trees;
use x2v_graph::generators::gnp;
use x2v_graph::Graph;
use x2v_guard::{Budget, GuardError};
use x2v_kernel::gram::{gram_resumable, PairwiseOnly};
use x2v_kernel::wl::WlSubtreeKernel;
use x2v_wl::Refiner;

/// Structured cycles-vs-trees graphs plus labelled random G(n, p) graphs.
fn dataset() -> Vec<Graph> {
    let mut graphs = cycles_vs_trees(4, 8, 21).graphs;
    let mut rng = StdRng::seed_from_u64(12);
    for i in 0..12 {
        let n = rng.random_range(4..24);
        let g = gnp(n, [0.1, 0.25, 0.5][i % 3], &mut rng);
        let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..3u32)).collect();
        graphs.push(g.with_labels(labels).expect("label count matches order"));
    }
    graphs
}

fn bits(k: &x2v_linalg::Matrix) -> Vec<u64> {
    k.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// `kernel.eval(g, h)` recomputed without `SparseWlFeatures`: per-round
/// hash maps from `WlHistory::histogram`, probed from one side, rounds
/// combined in ascending order.
fn hash_probe_eval(kernel: &WlSubtreeKernel, g: &Graph, h: &Graph) -> f64 {
    let t = kernel.rounds();
    let mut refiner = Refiner::new();
    let (a, b) = (refiner.refine_rounds(g, t), refiner.refine_rounds(h, t));
    let mut total = 0.0;
    for i in 0..=t {
        let hb = b.histogram(i);
        let mut round_sum = 0.0;
        for (c, &x) in &a.histogram(i) {
            if let Some(&y) = hb.get(c) {
                round_sum += x as f64 * y as f64;
            }
        }
        let w = if kernel.is_discounted() {
            0.5f64.powi(i as i32)
        } else {
            1.0
        };
        total += w * round_sum;
    }
    total
}

/// The work done when a `limit`-unit budget trips the build.
fn trip_work(kernel: &(dyn GraphKernel + Sync), graphs: &[Graph], limit: u64) -> u64 {
    x2v_guard::install_ambient(Budget::unlimited().with_work_limit(limit));
    let res = gram_resumable(kernel, graphs, "gram-feature-path");
    x2v_guard::clear_ambient();
    match res {
        Err(GuardError::BudgetExhausted { work_done, .. }) => work_done,
        other => panic!("limit {limit}: expected a budget trip, got {other:?}"),
    }
}

#[test]
fn feature_path_bit_equals_pairwise_oracle() {
    x2v_guard::clear_ambient();
    x2v_ckpt::clear_ambient();
    let graphs = dataset();
    let n = graphs.len() as u64;
    let entries = n * (n + 1) / 2;
    for kernel in [WlSubtreeKernel::new(3), WlSubtreeKernel::discounted(5)] {
        let oracle = PairwiseOnly(kernel);
        let what = format!("discounted={}", kernel.is_discounted());
        let reference = x2v_par::with_threads(1, || {
            gram_resumable(&oracle, &graphs, "gram-feature-path").unwrap()
        });
        for (i, g) in graphs.iter().enumerate() {
            for (j, h) in graphs.iter().enumerate() {
                assert_eq!(
                    reference[(i, j)].to_bits(),
                    hash_probe_eval(&kernel, g, h).to_bits(),
                    "{what}: eval ({i},{j}) vs hash-probe dot"
                );
            }
        }
        for threads in [1usize, 2, 8] {
            let feat = x2v_par::with_threads(threads, || {
                gram_resumable(&kernel, &graphs, "gram-feature-path").unwrap()
            });
            assert_eq!(bits(&feat), bits(&reference), "{what}, {threads} threads");
        }
        // One unit short trips at the last row (its single entry) on both
        // paths; a mid-matrix limit trips both at the same inner row.
        for limit in [entries - 1, 2 * n] {
            let feat = trip_work(&kernel, &graphs, limit);
            assert_eq!(
                feat,
                trip_work(&oracle, &graphs, limit),
                "{what}, limit {limit}"
            );
            if limit == entries - 1 {
                assert_eq!(feat, entries, "{what}: the last row must trip");
            }
        }
    }
}
