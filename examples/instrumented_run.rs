//! Observability walkthrough: run a small WL-kernel classification
//! pipeline with x2v-obs collection on and inspect what was measured.
//!
//! Run with `cargo run --release --example instrumented_run`, or set
//! `X2V_OBS=report,table` in the environment to get the same data from any
//! `exp_*` binary without touching code.

use x2vec_suite::datasets::synthetic::cycles_vs_trees;
use x2vec_suite::kernel::gram::{gram, normalize};
use x2vec_suite::kernel::svm::{MulticlassSvm, SvmConfig};
use x2vec_suite::kernel::wl::WlSubtreeKernel;

fn main() {
    // Programmatic switch — equivalent to launching with `X2V_OBS=1`.
    x2v_obs::set_enabled(true);

    // A tiny pipeline: WL-kernel Gram matrix + one-vs-rest SVM. Every
    // stage below is instrumented inside the library crates; nothing in
    // this file does its own timing.
    let data = cycles_vs_trees(16, 7, 3);
    let kernel = WlSubtreeKernel::default_rounds();
    let k = normalize(&gram(&kernel, &data.graphs));
    let svm = MulticlassSvm::train(&k, &data.labels, SvmConfig::default());
    let correct = (0..data.graphs.len())
        .filter(|&i| {
            let row: Vec<f64> = (0..data.graphs.len()).map(|j| k[(i, j)]).collect();
            svm.predict(&row) == data.labels[i]
        })
        .count();
    println!(
        "train accuracy {}/{} on cycles-vs-trees\n",
        correct,
        data.graphs.len()
    );

    // The aggregated metrics, straight from the global registry.
    let report = x2v_obs::report("instrumented_run");
    print!("{}", report.render_table());

    // The same data as stable-key-order JSON — what `X2V_OBS=report`
    // writes to target/obs/<run>.json at process exit.
    println!(
        "\nJSON report ({} keys):\n{}",
        report.num_keys(),
        report.to_json()
    );
}
