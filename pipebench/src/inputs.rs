//! The benchmark's seeded inputs. Every workload's set-up builds all of
//! them and uses its share, so `setup_s` times the same work everywhere
//! and is dominated by the `G(n, p)` build rather than by a few
//! milliseconds of small-graph generation, which did not reproduce
//! between runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use x2v_datasets::synthetic::{
    bipartite_vs_odd, circulant_vs_regular, cycles_vs_trees, er_vs_preferential, motif_planted,
    GraphDataset,
};
use x2v_graph::Graph;
use x2v_hom::vectors::HomBasis;

use crate::trace::PassTrace;

/// Graphs per class in each family: twice `standard_suite`'s 20, so one
/// classification pass covers 5 × 2 × 40 = 400 graphs.
const PER_CLASS: usize = 40;
/// Basis size of the paper's trees+cycles hom-vector experiment (§4).
const BASIS: usize = 20;
/// Nodes of the served graph.
pub const NODES: usize = 20_000;
/// Mean degree of the served `G(n, p)` graph.
const MEAN_DEGREE: f64 = 8.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Every seeded input of the benchmark.
pub struct Inputs {
    /// The `standard_suite` families at [`PER_CLASS`] graphs per class.
    pub datasets: Vec<GraphDataset>,
    /// The trees+cycles basis with its tree decompositions.
    pub basis: HomBasis,
    /// The served graph: `G(NODES, p)` with mean degree [`MEAN_DEGREE`].
    pub graph: Graph,
}

/// Builds every input from `seed`, one traced call per layer.
pub fn build(seed: u64, t: &mut PassTrace) -> Inputs {
    let datasets = t.call("datasets.generate", || {
        vec![
            cycles_vs_trees(PER_CLASS, 6, seed),
            bipartite_vs_odd(PER_CLASS, 6, 0.5, seed + 1),
            er_vs_preferential(PER_CLASS, 20, 2, seed + 2),
            motif_planted(PER_CLASS, 18, 0.15, 2, seed + 3),
            circulant_vs_regular(PER_CLASS, 12, seed + 4),
        ]
    });
    let basis = t.call("hom.basis", || HomBasis::trees_and_cycles(BASIS));
    let graph = t.call("graph.generate", || {
        let mut rng = StdRng::seed_from_u64(seed);
        x2v_graph::generators::gnp(NODES, MEAN_DEGREE / (NODES - 1) as f64, &mut rng)
    });
    Inputs {
        datasets,
        basis,
        graph,
    }
}
