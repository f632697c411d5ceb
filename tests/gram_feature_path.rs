//! `gram_resumable` over the WL subtree kernel takes the kernel's explicit
//! feature map. This suite pins that default path to the pairwise oracle
//! ([`PairwiseOnly`]: one `eval`, i.e. two fresh refinements, per entry)
//! in the default `cargo test`: bit-equal matrices at 1, 2 and 8 threads
//! for the plain and the discounted kernel, and budget trips at the same
//! row. Both paths share the merge-join dot, so the oracle's entries are
//! in turn checked against an independent hash-probe dot over
//! `WlHistory::histogram` maps. The other feature paths — the 2-WL kernel
//! and the log hom-vector kernel — are pinned to the same oracle, and the
//! infallible [`gram`] to [`gram_resumable`]. The ambient budget is
//! process-global, so the whole scenario runs inside ONE `#[test]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_core::GraphKernel;
use x2v_datasets::synthetic::cycles_vs_trees;
use x2v_graph::generators::gnp;
use x2v_graph::Graph;
use x2v_guard::{Budget, GuardError};
use x2v_hom::vectors::HomBasis;
use x2v_kernel::gram::{gram, gram_resumable, PairwiseOnly};
use x2v_kernel::hom::LogHomKernel;
use x2v_kernel::wl::WlSubtreeKernel;
use x2v_kernel::wl2::Wl2Kernel;
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

/// The pairwise oracle's Gram for `kernel`, built serially.
fn pairwise_reference<K: GraphKernel + Sync>(kernel: K, graphs: &[Graph]) -> x2v_linalg::Matrix {
    x2v_par::with_threads(1, || {
        gram_resumable(&PairwiseOnly(kernel), graphs, "gram-feature-path").unwrap()
    })
}

/// `kernel`'s feature-path Gram, from [`gram_resumable`] and from
/// [`gram`], is bit-equal to the pairwise `reference` at 1, 2 and 8
/// threads.
fn assert_feature_path_matches(
    kernel: &(dyn GraphKernel + Sync),
    graphs: &[Graph],
    reference: &x2v_linalg::Matrix,
    what: &str,
) {
    for threads in [1usize, 2, 8] {
        let (feat, infallible) = x2v_par::with_threads(threads, || {
            let feat = gram_resumable(kernel, graphs, "gram-feature-path").unwrap();
            (feat, gram(kernel, graphs))
        });
        assert_eq!(bits(&feat), bits(reference), "{what}, {threads} threads");
        assert_eq!(
            bits(&infallible),
            bits(&feat),
            "{what}: gram vs gram_resumable, {threads} threads"
        );
    }
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
        let reference = pairwise_reference(kernel, &graphs);
        for (i, g) in graphs.iter().enumerate() {
            for (j, h) in graphs.iter().enumerate() {
                assert_eq!(
                    reference[(i, j)].to_bits(),
                    hash_probe_eval(&kernel, g, h).to_bits(),
                    "{what}: eval ({i},{j}) vs hash-probe dot"
                );
            }
        }
        assert_feature_path_matches(&kernel, &graphs, &reference, &what);
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

    // The other feature paths, over a subset that keeps the O(n³)-per-round
    // 2-WL oracle (two fresh refinements per entry) fast in debug builds.
    let subset = &graphs[..16];
    let reference = pairwise_reference(Wl2Kernel::new(2), subset);
    assert_feature_path_matches(&Wl2Kernel::new(2), subset, &reference, "2-WL");
    let basis = || HomBasis::trees_and_cycles(8);
    let reference = pairwise_reference(LogHomKernel::new(basis()), subset);
    assert_feature_path_matches(&LogHomKernel::new(basis()), subset, &reference, "log-hom");
}
