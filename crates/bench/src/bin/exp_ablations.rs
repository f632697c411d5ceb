//! E25 — ablations of the design choices DESIGN.md calls out:
//!
//! 1. 2-GNN joint (folklore-style) vs separate (oblivious-style)
//!    aggregation — the multiplicative pairing is what buys expressiveness;
//! 2. hom-vector embedding: log-scaling vs raw counts;
//! 3. WL-kernel Gram normalisation on vs off;
//! 4. multiclass pipeline sanity on a 3-class task.

use x2v_bench::harness::{embedding_cv_accuracy, gram_cv_accuracy, pct, print_header, print_row};
use x2v_datasets::synthetic::{standard_suite, three_class};
use x2v_gnn::higher::HigherOrderGnn;
use x2v_graph::generators::cycle;
use x2v_graph::ops::disjoint_union;
use x2v_hom::vectors::HomBasis;
use x2v_kernel::gram::{gram, normalize};
use x2v_kernel::wl::WlSubtreeKernel;

fn main() {
    let _obs = x2v_bench::ObsRun::new("exp_ablations");
    println!("E25 — ablations\n");

    // 1. 2-GNN aggregation: with the joint multiplicative term the model
    // goes past 1-WL; without it the architecture collapses to oblivious
    // power. We emulate "without" by observing that *1-dimensional* GNNs
    // are the oblivious baseline (separation rate 0 on the pair).
    let c6 = cycle(6);
    let tt = disjoint_union(&cycle(3), &cycle(3));
    let joint_rate = (0..20)
        .filter(|&s| HigherOrderGnn::new(6, 2, s).separates(&c6, &tt, 1e-6))
        .count() as f64
        / 20.0;
    let oblivious_rate = {
        use x2v_gnn::express::separation_rate;
        use x2v_gnn::layer::Activation;
        use x2v_gnn::model::{GnnModel, InitialFeatures};
        separation_rate(
            &c6,
            &tt,
            |s| GnnModel::new(1, 8, 3, Activation::Tanh, InitialFeatures::Constant, s),
            20,
            1e-9,
        )
    };
    println!("1. pair message passing, C6 vs 2xC3 separation rate:");
    println!("   joint (folklore-style) 2-GNN: {}", pct(joint_rate));
    println!(
        "   invariant 1-GNN (oblivious baseline): {}\n",
        pct(oblivious_rate)
    );
    assert!(joint_rate > 0.8 && oblivious_rate == 0.0);

    // 2 + 3. Embedding/kernel ablations over the standard suite.
    let suite = standard_suite(42);
    let mut widths = vec![22usize];
    widths.extend(std::iter::repeat_n(22, suite.len()));
    let mut header: Vec<&str> = vec!["variant"];
    for d in &suite {
        header.push(d.name);
    }
    print_header(&header, &widths);
    // hom log vs raw.
    let basis = HomBasis::trees_and_cycles(20);
    let mut row_log = vec!["hom log-scaled".to_string()];
    let mut row_raw = vec!["hom raw counts".to_string()];
    for dataset in &suite {
        let log_embeds = basis.embed_dataset(&dataset.graphs);
        row_log.push(pct(embedding_cv_accuracy(
            &log_embeds,
            &dataset.labels,
            5,
            7,
        )));
        let raw_embeds: Vec<Vec<f64>> = dataset
            .graphs
            .iter()
            .map(|g| basis.hom_vector(g).iter().map(|&c| c as f64).collect())
            .collect();
        row_raw.push(pct(embedding_cv_accuracy(
            &raw_embeds,
            &dataset.labels,
            5,
            7,
        )));
    }
    print_row(&row_log, &widths);
    print_row(&row_raw, &widths);
    // WL gram normalisation.
    let wl = WlSubtreeKernel::new(5);
    let mut row_norm = vec!["WL t=5 normalised".to_string()];
    let mut row_plain = vec!["WL t=5 unnormalised".to_string()];
    for dataset in &suite {
        let k = gram(&wl, &dataset.graphs);
        row_norm.push(pct(gram_cv_accuracy(&normalize(&k), &dataset.labels, 5, 7)));
        row_plain.push(pct(gram_cv_accuracy(&k, &dataset.labels, 5, 7)));
    }
    print_row(&row_norm, &widths);
    print_row(&row_plain, &widths);

    // 4. Multiclass sanity.
    let three = three_class(12, 6, 9);
    let k = normalize(&gram(&wl, &three.graphs));
    let acc = gram_cv_accuracy(&k, &three.labels, 4, 3);
    println!(
        "\n4. three-class task (cycles / trees / dense), WL t=5 + one-vs-rest SVM: {}",
        pct(acc)
    );
    assert!(acc > 0.7);
    println!("\nthe log-scaling ablation is the paper's own remark: raw hom counts get");
    println!("'tremendously large' and swamp inner products; log-scaling fixes it.");
}
