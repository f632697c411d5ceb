//! Graph classification end to end: synthetic dataset → kernel / embedding
//! → SVM → cross-validated accuracy. Reproduces the workflow behind the
//! paper's kernel-vs-embedding comparisons.
//!
//! Run with `cargo run --release --example graph_classification`.

use x2vec_suite::datasets::metrics::accuracy;
use x2vec_suite::datasets::splits::stratified_folds;
use x2vec_suite::datasets::synthetic::{bipartite_vs_odd, cycles_vs_trees};
use x2vec_suite::hom::vectors::HomBasis;
use x2vec_suite::kernel::gram::{gram, normalize};
use x2vec_suite::kernel::svm::{MulticlassSvm, SvmConfig};
use x2vec_suite::kernel::wl::WlSubtreeKernel;
use x2vec_suite::linalg::Matrix;

fn cv(gram: &Matrix, labels: &[usize], folds: usize) -> f64 {
    let fold_of = stratified_folds(labels, folds, 7);
    let mut preds = vec![0usize; labels.len()];
    for f in 0..folds {
        let train: Vec<usize> = (0..labels.len()).filter(|&i| fold_of[i] != f).collect();
        let test: Vec<usize> = (0..labels.len()).filter(|&i| fold_of[i] == f).collect();
        let mut sub = Matrix::zeros(train.len(), train.len());
        for (a, &i) in train.iter().enumerate() {
            for (b, &j) in train.iter().enumerate() {
                sub[(a, b)] = gram[(i, j)];
            }
        }
        let labs: Vec<usize> = train.iter().map(|&i| labels[i]).collect();
        let svm = MulticlassSvm::train(&sub, &labs, SvmConfig::default());
        for &q in &test {
            let row: Vec<f64> = train.iter().map(|&i| gram[(q, i)]).collect();
            preds[q] = svm.predict(&row);
        }
    }
    accuracy(&preds, labels)
}

fn main() {
    for data in [cycles_vs_trees(15, 6, 3), bipartite_vs_odd(15, 6, 0.5, 4)] {
        println!(
            "dataset: {} ({} graphs, {} classes)",
            data.name,
            data.len(),
            data.num_classes()
        );

        // Route A: WL subtree kernel, the paper's t = 5 default.
        let wl = WlSubtreeKernel::default_rounds();
        let acc_wl = cv(&normalize(&gram(&wl, &data.graphs)), &data.labels, 5);
        println!("  WL subtree kernel (t=5):  {:.1}%", 100.0 * acc_wl);

        // Route B: explicit hom-vector embedding + linear kernel.
        let basis = HomBasis::trees_and_cycles(20);
        let embeds = basis.embed_dataset(&data.graphs);
        let n = embeds.len();
        let mut gram = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                gram[(i, j)] = x2vec_suite::linalg::vector::dot(&embeds[i], &embeds[j]);
            }
        }
        let acc_hom = cv(&normalize(&gram), &data.labels, 5);
        println!("  hom-vector embedding:     {:.1}%\n", 100.0 * acc_hom);
    }
}
