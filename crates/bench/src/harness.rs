//! Cross-validated kernel classification, embedding classification, and
//! table formatting used by every experiment binary.

use x2v_core::GraphKernel;
use x2v_datasets::metrics::accuracy;
use x2v_datasets::splits::stratified_folds;
use x2v_datasets::synthetic::GraphDataset;
use x2v_kernel::gram::{gram, gram_resumable, normalize, try_normalize};
use x2v_kernel::svm::{MulticlassSvm, SvmConfig};
use x2v_linalg::Matrix;

/// k-fold cross-validated SVM accuracy of a kernel on a dataset. The Gram
/// matrix is computed once and cosine-normalised (standard practice for
/// count-valued kernels feeding an SVM).
pub fn kernel_cv_accuracy(
    kernel: &(dyn GraphKernel + Sync),
    dataset: &GraphDataset,
    folds: usize,
    seed: u64,
) -> f64 {
    let _timer = x2v_obs::span("bench/kernel_cv");
    let gram = {
        let _g = x2v_obs::span("bench/gram");
        normalize(&gram(kernel, &dataset.graphs))
    };
    gram_cv_accuracy(&gram, &dataset.labels, folds, seed)
}

/// [`kernel_cv_accuracy`] with a crash-safe Gram build: the Gram — the
/// dominant cost — goes through [`x2v_kernel::gram::gram_resumable`],
/// which reads the kernel's feature map when it has one, so with an ambient
/// [`x2v_ckpt::Store`] installed the partial matrix survives a crash or a
/// budget trip and a re-run resumes from the last completed row block
/// instead of recomputing. Fold assignment and SVM training are cheap and
/// deterministic, so they simply re-run.
///
/// # Errors
/// Budget/cancellation errors from the ambient [`x2v_guard::Budget`]
/// (metered per Gram entry) and numeric failures from
/// normalisation.
pub fn kernel_cv_accuracy_resumable(
    kernel: &(dyn GraphKernel + Sync),
    dataset: &GraphDataset,
    folds: usize,
    seed: u64,
    job: &str,
) -> x2v_guard::Result<f64> {
    let _timer = x2v_obs::span("bench/kernel_cv");
    let gram = {
        let _g = x2v_obs::span("bench/gram");
        try_normalize(&gram_resumable(kernel, &dataset.graphs, job)?)?
    };
    Ok(gram_cv_accuracy(&gram, &dataset.labels, folds, seed))
}

/// k-fold cross-validated SVM accuracy from a precomputed Gram matrix.
pub fn gram_cv_accuracy(gram: &Matrix, labels: &[usize], folds: usize, seed: u64) -> f64 {
    let fold_of = stratified_folds(labels, folds, seed);
    let n = labels.len();
    // Index maps hoisted out of the fold loop: one pass over the samples
    // builds every fold's train/test lists instead of 2·folds full scans.
    let mut train_of_fold: Vec<Vec<usize>> = vec![Vec::with_capacity(n); folds];
    let mut test_of_fold: Vec<Vec<usize>> = vec![Vec::new(); folds];
    for (i, &fi) in fold_of.iter().enumerate() {
        for (f, train) in train_of_fold.iter_mut().enumerate() {
            if f != fi {
                train.push(i);
            }
        }
        test_of_fold[fi].push(i);
    }
    let mut predictions = vec![usize::MAX; n];
    for f in 0..folds {
        let train_idx = &train_of_fold[f];
        let test_idx = &test_of_fold[f];
        // Training sub-Gram: gather rows once, then gather columns per row.
        let nt = train_idx.len();
        let mut sub = Matrix::zeros(nt, nt);
        {
            let _t = x2v_obs::span("bench/fold_subgram");
            for (a, &i) in train_idx.iter().enumerate() {
                let src = gram.row(i);
                let dst = sub.row_mut(a);
                for (d, &j) in dst.iter_mut().zip(train_idx) {
                    *d = src[j];
                }
            }
        }
        let train_labels: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
        let svm = {
            let _t = x2v_obs::span("bench/fold_train");
            MulticlassSvm::train(&sub, &train_labels, SvmConfig::default())
        };
        let _t = x2v_obs::span("bench/fold_predict");
        let mut krow = vec![0.0f64; nt];
        for &q in test_idx {
            let src = gram.row(q);
            for (k, &i) in krow.iter_mut().zip(train_idx) {
                *k = src[i];
            }
            predictions[q] = svm.predict(&krow);
        }
    }
    accuracy(&predictions, labels)
}

/// k-fold cross-validated SVM accuracy of an explicit embedding (its linear
/// kernel) on a dataset.
pub fn embedding_cv_accuracy(
    embeddings: &[Vec<f64>],
    labels: &[usize],
    folds: usize,
    seed: u64,
) -> f64 {
    let _timer = x2v_obs::span("bench/embedding_cv");
    let n = embeddings.len();
    let mut gram = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let v = x2v_linalg::vector::dot(&embeddings[i], &embeddings[j]);
            gram[(i, j)] = v;
            gram[(j, i)] = v;
        }
    }
    gram_cv_accuracy(&normalize(&gram), labels, folds, seed)
}

/// Runs an experiment body under an [`ObsRun`](crate::ObsRun) guard and
/// exits with the workspace-standard exit code for its outcome: 0 on
/// success, otherwise [`GuardError::exit_code`] (see
/// [`x2v_guard::TRIAGE`]), so scripts and CI can branch on *why* an
/// `exp_*` binary stopped instead of pattern-matching stderr. The obs
/// guard drops — writing the run report — before the process exits,
/// including on the error path.
pub fn guarded_main(
    run: &'static str,
    body: impl FnOnce() -> Result<(), x2v_guard::GuardError>,
) -> ! {
    let result = {
        let _obs = crate::ObsRun::new(run);
        body()
    };
    match result {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("[{run}] failed: {e}");
            eprintln!("{}", x2v_guard::TRIAGE);
            std::process::exit(e.exit_code());
        }
    }
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, &w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:<w$}  "));
    }
    println!("{}", line.trim_end());
}

/// Prints a header row plus a separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
}

/// Formats a probability/accuracy as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_datasets::synthetic::cycles_vs_trees;
    use x2v_kernel::wl::WlSubtreeKernel;

    #[test]
    fn wl_kernel_solves_easy_dataset() {
        let data = cycles_vs_trees(12, 6, 5);
        let kernel = WlSubtreeKernel::new(3);
        let acc = kernel_cv_accuracy(&kernel, &data, 4, 1);
        assert!(acc >= 0.9, "easy dataset should be nearly solved: {acc}");
    }

    #[test]
    fn resumable_cv_matches_plain_cv_without_store() {
        let data = cycles_vs_trees(10, 6, 4);
        let kernel = WlSubtreeKernel::new(2);
        let plain = kernel_cv_accuracy(&kernel, &data, 3, 7);
        let resumable = kernel_cv_accuracy_resumable(&kernel, &data, 3, 7, "test-cv").unwrap();
        assert_eq!(plain.to_bits(), resumable.to_bits(), "bit-identical CV");
    }

    #[test]
    fn embedding_pipeline_runs() {
        let data = cycles_vs_trees(10, 6, 6);
        // Trivial 2-feature embedding: (order, size) — separates trees from
        // cycles perfectly since m = n vs m = n − 1… up to normalisation.
        let embeds: Vec<Vec<f64>> = data
            .graphs
            .iter()
            .map(|g| vec![g.order() as f64, g.size() as f64])
            .collect();
        let acc = embedding_cv_accuracy(&embeds, &data.labels, 4, 2);
        assert!(acc > 0.5, "{acc}");
    }
}
