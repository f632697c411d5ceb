//! Quickstart: embed graphs three ways — homomorphism vectors, WL subtree
//! features, and a WL kernel — and use the induced geometry.
//!
//! Run with `cargo run --example quickstart`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use x2vec_suite::core::hom_embed::HomVectorEmbedding;
use x2vec_suite::core::wl_embed::WlSubtreeEmbedding;
use x2vec_suite::core::GraphEmbedding;
use x2vec_suite::graph::generators::{cycle, petersen, random_tree};
use x2vec_suite::kernel::gram::gram;
use x2vec_suite::kernel::wl::WlSubtreeKernel;

fn main() {
    // 1. Build some graphs.
    let mut rng = StdRng::seed_from_u64(1);
    let graphs = vec![
        cycle(6),
        cycle(9),
        random_tree(6, &mut rng),
        random_tree(9, &mut rng),
        petersen(),
    ];
    let names = ["C6", "C9", "tree6", "tree9", "Petersen"];

    // 2. The paper's hom-vector embedding: 20 trees and cycles, log-scaled.
    let hom = HomVectorEmbedding::trees_and_cycles(20);
    println!("hom-vector embedding (dimension {}):", hom.dimension());
    for (name, g) in names.iter().zip(&graphs) {
        let v = hom.embed(g);
        println!("  {name:9} -> [{:.2}, {:.2}, {:.2}, ...]", v[0], v[1], v[2]);
    }

    // 3. Induced distances: cycles cluster away from trees.
    println!("\ninduced distances (dist_f = ||f(G) - f(H)||):");
    println!(
        "  C6 vs C9     : {:.3}",
        hom.induced_distance(&graphs[0], &graphs[1])
    );
    println!(
        "  C6 vs tree6  : {:.3}",
        hom.induced_distance(&graphs[0], &graphs[2])
    );
    println!(
        "  tree6 vs tree9: {:.3}",
        hom.induced_distance(&graphs[2], &graphs[3])
    );

    // 4. The WL subtree kernel (t = 5, the paper's practical default).
    let kernel = WlSubtreeKernel::default_rounds();
    let k = gram(&kernel, &graphs);
    println!("\nWL subtree kernel Gram matrix:");
    for (i, name) in names.iter().enumerate() {
        let row: Vec<String> = (0..graphs.len())
            .map(|j| format!("{:7.0}", k[(i, j)]))
            .collect();
        println!("  {name:9} {}", row.join(" "));
    }

    // 5. A dataset-fitted explicit WL embedding (feature map of the kernel).
    let wl_embed = WlSubtreeEmbedding::fit(&graphs, 3);
    println!(
        "\nexplicit WL feature space dimension over this dataset: {}",
        wl_embed.dimension()
    );
    let d = wl_embed.induced_distance(&graphs[0], &graphs[1]);
    println!("WL-feature distance C6 vs C9: {d:.2}");
}
