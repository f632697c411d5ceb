//! Integration: kernels are PSD on heterogeneous graph sets, agree with
//! their explicit feature maps, and drive SVM / kPCA / kernel k-means.

use rand::rngs::StdRng;
use rand::SeedableRng;
use x2vec_suite::core::GraphKernel;
use x2vec_suite::datasets::synthetic::cycles_vs_trees;
use x2vec_suite::graph::generators::{complete, cycle, gnp, path, petersen, star};
use x2vec_suite::kernel::gram::{center, gram, is_psd, normalize};
use x2vec_suite::kernel::graphlet::GraphletKernel;
use x2vec_suite::kernel::hom::LogHomKernel;
use x2vec_suite::kernel::kkmeans::{clustering_accuracy, kernel_kmeans};
use x2vec_suite::kernel::kpca::KernelPca;
use x2vec_suite::kernel::random_walk::RandomWalkKernel;
use x2vec_suite::kernel::shortest_path::ShortestPathKernel;
use x2vec_suite::kernel::wl::WlSubtreeKernel;

fn mixed_graphs() -> Vec<x2vec_suite::graph::Graph> {
    let mut rng = StdRng::seed_from_u64(31);
    vec![
        cycle(5),
        cycle(8),
        path(6),
        star(5),
        complete(5),
        petersen(),
        gnp(9, 0.3, &mut rng),
        gnp(9, 0.6, &mut rng),
    ]
}

#[test]
fn all_kernels_psd_on_mixed_set() {
    let graphs = mixed_graphs();
    let kernels: Vec<(&str, Box<dyn GraphKernel + Sync>)> = vec![
        ("wl", Box::new(WlSubtreeKernel::new(4))),
        ("wl-disc", Box::new(WlSubtreeKernel::discounted(4))),
        ("sp", Box::new(ShortestPathKernel::new())),
        ("graphlet", Box::new(GraphletKernel::three_four())),
        ("rw", Box::new(RandomWalkKernel::new(0.03, 5))),
        ("hom-log", Box::new(LogHomKernel::trees_and_cycles(12))),
    ];
    for (name, k) in &kernels {
        let m = gram(&**k, &graphs);
        assert!(is_psd(&m, 1e-6), "{name} gram not PSD");
        assert!(
            is_psd(&normalize(&m), 1e-6),
            "{name} normalised gram not PSD"
        );
        assert!(is_psd(&center(&m), 1e-6), "{name} centred gram not PSD");
    }
}

#[test]
fn kpca_plus_kmeans_clusters_cycles_from_trees() {
    let data = cycles_vs_trees(10, 6, 15);
    let kernel = WlSubtreeKernel::new(3);
    let k = normalize(&gram(&kernel, &data.graphs));
    // kPCA to 3 components, then kernel k-means on the reduced linear gram.
    let pca = KernelPca::fit(&k, 3);
    let reduced = pca.transform_train();
    let n = reduced.rows();
    let mut lin = x2vec_suite::linalg::Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            lin[(i, j)] = x2vec_suite::linalg::vector::dot(reduced.row(i), reduced.row(j));
        }
    }
    let clusters = kernel_kmeans(&lin, 2, 200, 3);
    let acc = clustering_accuracy(&clusters.assignment, &data.labels, 2);
    assert!(acc >= 0.8, "unsupervised recovery {acc}");
}

#[test]
fn wl_kernel_agrees_with_explicit_embedding_gram() {
    use x2vec_suite::core::wl_embed::WlSubtreeEmbedding;
    use x2vec_suite::core::GraphEmbedding;
    let graphs = mixed_graphs();
    let kernel = WlSubtreeKernel::new(3);
    let k = gram(&kernel, &graphs);
    let emb = WlSubtreeEmbedding::fit(&graphs, 3);
    for i in 0..graphs.len() {
        for j in 0..graphs.len() {
            let explicit =
                x2vec_suite::linalg::vector::dot(&emb.embed(&graphs[i]), &emb.embed(&graphs[j]));
            assert!(
                (explicit - k[(i, j)]).abs() < 1e-9,
                "({i},{j}): {explicit} vs {}",
                k[(i, j)]
            );
        }
    }
}
