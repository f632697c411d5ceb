//! `gram_resumable` over the WL subtree kernel takes the kernel's explicit
//! feature map. This suite pins that default path to the pairwise oracle
//! ([`PairwiseOnly`]: one `eval`, i.e. two fresh refinements, per entry)
//! in the default `cargo test`: bit-equal matrices at 1, 2 and 8 threads
//! for the plain and the discounted kernel, and budget trips at the same
//! row. The ambient budget is process-global, so the whole scenario runs
//! inside ONE `#[test]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_core::GraphKernel;
use x2v_datasets::synthetic::cycles_vs_trees;
use x2v_graph::generators::gnp;
use x2v_graph::Graph;
use x2v_guard::{Budget, GuardError};
use x2v_kernel::gram::{gram_resumable, PairwiseOnly};
use x2v_kernel::wl::WlSubtreeKernel;

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
