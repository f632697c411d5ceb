//! The feature-map equivalence battery: randomized proof that the fast
//! paths of this workspace are *exact*, not approximate.
//!
//! Every test draws a fresh randomized dataset from a battery seed and
//! asserts bit-level or partition-level equivalence:
//!
//! * `gram_resumable`'s feature path ≡ its pairwise path (the
//!   [`PairwiseOnly`] oracle, one `eval` per entry), bit for bit, at
//!   `X2V_THREADS ∈ {1, 2, 8}`, plain and discounted;
//! * hash-based WL colouring ≡ interner-based WL colouring up to colour
//!   renaming (and its collision counter stays silent at 64-bit width);
//! * CSR-backed refinement ≡ adjacency-list refinement;
//! * the truncated-width collision drill: forced collisions are detected
//!   or provably harmless;
//! * hash-WL allocates strictly less than interner-WL (the point of it).
//!
//! The battery seed is printed on every run (visible with `--nocapture`
//! and in any failure report) and written to
//! `target/feat_equivalence_seed.txt` for CI artifact upload. Replay a
//! failing run with `X2V_FEAT_SEED=<seed>`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use x2v_datasets::synthetic::cycles_vs_trees;
use x2v_graph::csr::Csr;
use x2v_graph::generators::gnp;
use x2v_graph::hash::FxHashMap;
use x2v_graph::Graph;
use x2v_kernel::gram::{gram_resumable, PairwiseOnly};
use x2v_kernel::wl::WlSubtreeKernel;
use x2v_linalg::Matrix;
use x2v_wl::hashwl::{HashRefiner, HashWlConfig, DEFAULT_SEED};
use x2v_wl::Refiner;

/// The battery seed: `X2V_FEAT_SEED` if set, otherwise drawn from the
/// clock. Printed and persisted once per process.
fn battery_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let seed = match std::env::var("X2V_FEAT_SEED") {
            Ok(s) => s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("X2V_FEAT_SEED must be a u64, got {s:?}")),
            Err(_) => std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x5eed),
        };
        // Visible under --nocapture and in every failure report; also
        // persisted for CI artifact upload.
        println!("feat_equivalence battery seed: {seed} (replay: X2V_FEAT_SEED={seed})");
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/feat_equivalence_seed.txt"
        );
        let _ = std::fs::write(path, format!("{seed}\n"));
        seed
    })
}

/// A mixed randomized dataset: random sparse/denser G(n, p) graphs with
/// random labels over alphabets of varying size, plus structured
/// cycles-vs-trees graphs. `salt` decorrelates the tests' datasets.
fn mixed_dataset(salt: u64, graphs: usize) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(battery_seed() ^ salt);
    let mut out = Vec::with_capacity(graphs);
    for i in 0..graphs {
        if i % 4 == 3 {
            // Structured pair: one cycle-ish, one tree-ish graph.
            let per_class = 1 + (i % 3);
            let ds = cycles_vs_trees(per_class, 6 + i % 5, rng.random());
            out.extend(ds.graphs.into_iter().take(1));
            continue;
        }
        let n = rng.random_range(4..30);
        let p = [0.08, 0.2, 0.45][i % 3];
        let g = gnp(n, p, &mut rng);
        let alphabet = rng.random_range(1..5u32);
        let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..alphabet)).collect();
        out.push(g.with_labels(labels).expect("label count matches order"));
    }
    out
}

fn assert_bit_equal(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: shape");
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            assert_eq!(
                a[(i, j)].to_bits(),
                b[(i, j)].to_bits(),
                "{what}: entry ({i},{j}) {} vs {} [seed {}]",
                a[(i, j)],
                b[(i, j)],
                battery_seed()
            );
        }
    }
}

/// The feature path must equal the pairwise oracle bit for bit — at
/// every thread count, for the plain and the discounted kernel.
#[test]
fn gram_feat_bit_equals_pairwise_across_threads() {
    let graphs = mixed_dataset(0x01, 14);
    for kernel in [WlSubtreeKernel::new(3), WlSubtreeKernel::discounted(5)] {
        let mut reference: Option<Matrix> = None;
        let oracle = PairwiseOnly(kernel);
        for threads in [1usize, 2, 8] {
            let (pairwise, feat) = x2v_par::with_threads(threads, || {
                (
                    gram_resumable(&oracle, &graphs, "feat-equiv-pairwise").unwrap(),
                    gram_resumable(&kernel, &graphs, "feat-equiv-feat").unwrap(),
                )
            });
            assert_bit_equal(
                &feat,
                &pairwise,
                &format!(
                    "feat vs pairwise ({threads} threads, discounted={})",
                    kernel.is_discounted()
                ),
            );
            match &reference {
                None => reference = Some(feat),
                Some(r) => assert_bit_equal(&feat, r, &format!("{threads} threads vs 1 thread")),
            }
        }
    }
}

/// Maps a colouring to class ids in first-seen order — the canonical
/// representation of the partition, invariant under colour renaming.
fn partition(colours: &[u64]) -> Vec<usize> {
    let mut ids = FxHashMap::default();
    colours
        .iter()
        .map(|&c| {
            let next = ids.len();
            *ids.entry(c).or_insert(next)
        })
        .collect()
}

/// Hash colouring must reproduce the interner partition (and therefore
/// identical histograms up to renaming) on every graph at every round —
/// and report zero collisions at full width.
#[test]
fn hash_colouring_matches_interner_up_to_renaming() {
    let graphs = mixed_dataset(0x02, 16);
    let rounds = 5;
    let hasher = HashRefiner::new();
    for (gi, g) in graphs.iter().enumerate() {
        let hh = hasher.refine_rounds(g, rounds);
        assert_eq!(hh.collisions, 0, "graph {gi} [seed {}]", battery_seed());
        let mut r = Refiner::new();
        let ih = r.refine_rounds(g, rounds);
        for t in 0..=rounds {
            assert_eq!(
                partition(hh.at_round(t)),
                partition(ih.at_round(t)),
                "graph {gi} round {t} [seed {}]",
                battery_seed()
            );
        }
        assert_eq!(hh.stable_round, ih.stable_round, "graph {gi}");
    }
}

/// Refining through an explicitly built CSR (from adjacency lists and
/// from a shuffled edge stream) must match refining the `Graph` directly.
#[test]
fn csr_backed_refinement_matches_adjacency() {
    let graphs = mixed_dataset(0x03, 10);
    let mut rng = StdRng::seed_from_u64(battery_seed() ^ 0x30);
    let hasher = HashRefiner::new();
    for (gi, g) in graphs.iter().enumerate() {
        let adj: Vec<Vec<usize>> = (0..g.order()).map(|v| g.neighbours(v).to_vec()).collect();
        let from_adj = Csr::from_adjacency(&adj).unwrap();
        let mut edges = g.edge_vec();
        for i in (1..edges.len()).rev() {
            edges.swap(i, rng.random_range(0..=i));
            if rng.random() {
                let (u, v) = edges[i];
                edges[i] = (v, u);
            }
        }
        let from_edges = Csr::from_edges(g.order(), &edges).unwrap();
        assert_eq!(from_adj, from_edges, "graph {gi}: CSR builds agree");
        let via_graph = hasher.refine_rounds(g, 4);
        let via_adj = hasher.refine_csr(from_adj.view(), g.labels(), 4);
        let via_edges = hasher.refine_csr(from_edges.view(), g.labels(), 4);
        assert_eq!(via_graph.rounds, via_adj.rounds, "graph {gi}");
        assert_eq!(via_graph.rounds, via_edges.rounds, "graph {gi}");
    }
}

/// Asserts that `coarse` is a coarsening of `fine`: nodes with equal fine
/// colours have equal coarse colours (classes merge, never split or
/// cross-contaminate).
fn assert_coarsening(coarse: &[u64], fine: &[u64], what: &str) {
    let mut class_colour: FxHashMap<u64, u64> = FxHashMap::default();
    for (v, (&c, &f)) in coarse.iter().zip(fine).enumerate() {
        let expect = *class_colour.entry(f).or_insert(c);
        assert_eq!(
            c,
            expect,
            "{what}: node {v} splits exact class {f} [seed {}]",
            battery_seed()
        );
    }
}

/// The collision drill: at truncated widths collisions are *forced*. The
/// cross-class detector must fire somewhere on this battery, and even
/// where collisions strike (detected or in-class-undetectable), the hash
/// partition must stay a coarsening of the exact one at every round —
/// collisions merge classes, they never corrupt them.
#[test]
fn truncated_width_collisions_detected_and_coarsening_only() {
    let graphs = mixed_dataset(0x04, 12);
    let mut detected_total = 0u64;
    for width_bits in [2u32, 3, 4, 8] {
        let hasher = HashRefiner::with_config(HashWlConfig {
            seed: DEFAULT_SEED ^ battery_seed(),
            width_bits,
        });
        for (gi, g) in graphs.iter().enumerate() {
            let hh = hasher.refine_rounds(g, 5);
            detected_total += hh.collisions;
            let mut r = Refiner::new();
            let ih = r.refine_rounds(g, 5);
            for t in 0..=5 {
                assert_coarsening(
                    hh.at_round(t),
                    ih.at_round(t),
                    &format!("width {width_bits} graph {gi} round {t}"),
                );
            }
        }
    }
    assert!(
        detected_total > 0,
        "the drill must force at least one detected collision [seed {}]",
        battery_seed()
    );
}

/// Hash-WL's reason to exist: strictly fewer allocations than the
/// interner path on the same refinement (measured single-threaded via the
/// `x2v-prof` counting allocator's per-thread totals).
#[test]
fn hash_wl_allocates_less_than_interner_wl() {
    let g = gnp(
        3000,
        0.002,
        &mut StdRng::seed_from_u64(battery_seed() ^ 0x50),
    );
    let rounds = 4;
    x2v_par::with_threads(1, || {
        x2v_prof::set_alloc_counting(true);
        let (_, a0) = x2v_prof::thread_alloc_totals();
        let hh = HashRefiner::new().refine_rounds(&g, rounds);
        let (_, a1) = x2v_prof::thread_alloc_totals();
        let mut r = Refiner::new();
        let ih = r.refine_rounds(&g, rounds);
        let (_, a2) = x2v_prof::thread_alloc_totals();
        x2v_prof::set_alloc_counting(false);
        let hash_allocs = a1 - a0;
        let interner_allocs = a2 - a1;
        // Same work, no collisions, same partitions.
        assert_eq!(hh.collisions, 0);
        assert_eq!(partition(hh.stable()), partition(ih.stable()));
        assert!(
            hash_allocs * 4 < interner_allocs,
            "hash-WL must allocate far less than interner-WL: {hash_allocs} vs \
             {interner_allocs} allocations [seed {}]",
            battery_seed()
        );
    });
}
