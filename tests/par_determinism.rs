//! The thread-count determinism battery (the x2v-par contract, end to
//! end): Gram matrices, WL colour histograms, walk corpora and word2vec
//! embeddings must be **bit-identical** for `X2V_THREADS ∈ {1, 2, 3, 8}`
//! on randomised inputs — including under a work-limit budget trip and
//! under `--resume` after a mid-epoch interrupt.
//!
//! Inputs are freshly randomised each run (the contract must hold for any
//! input, not for one golden instance); the seed is printed so a failure
//! reproduces.
//!
//! The ambient store, the ambient budget and the obs registry are all
//! process-global, so the whole battery runs inside ONE `#[test]` (the
//! workspace's established pattern for global-state suites).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_ckpt::Store;
use x2v_core::GraphKernel;
use x2v_embed::walks::{generate_walks, WalkConfig};
use x2v_embed::word2vec::{SgnsConfig, Word2Vec};
use x2v_graph::generators::gnp;
use x2v_graph::Graph;
use x2v_guard::{Budget, GuardError};
use x2v_kernel::gram::{gram, gram_resumable, PairwiseOnly};
use x2v_kernel::wl::WlSubtreeKernel;
use x2v_wl::Refiner;

/// The thread counts the battery sweeps; 1 is the serial reference.
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("x2v-par-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Stable WL fingerprint of a graph set: per graph, the stable round
/// number and the sorted colour histogram of the stable colouring.
fn wl_fingerprint(graphs: &[Graph]) -> Vec<(usize, Vec<(u64, u64)>)> {
    graphs
        .iter()
        .map(|g| {
            let h = Refiner::new().refine_to_stable(g);
            let mut hist: Vec<(u64, u64)> = h.histogram(h.num_rounds()).into_iter().collect();
            hist.sort_unstable();
            (h.num_rounds(), hist)
        })
        .collect()
}

#[test]
fn outputs_are_bit_identical_across_thread_counts() {
    x2v_obs::set_enabled(true);
    x2v_obs::reset();
    x2v_guard::faults::clear();
    x2v_guard::clear_ambient();
    x2v_ckpt::clear_ambient();
    x2v_ckpt::set_resume(false);

    // Fresh seed per run; X2V_PAR_DET_SEED replays a printed seed exactly.
    let seed = std::env::var("X2V_PAR_DET_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch")
                .as_secs()
        });
    eprintln!("par_determinism input seed: {seed}");
    let mut rng = StdRng::seed_from_u64(seed);
    let graphs: Vec<Graph> = (0..14)
        .map(|_| gnp(10 + rng.random_range(0..8usize), 0.25, &mut rng))
        .collect();
    let g_walk = gnp(30, 0.12, &mut rng);
    let walk_seed: u64 = rng.random();
    let sgns_seed: u64 = rng.random();

    // ---- Gram matrices (batch path: shared interner + parallel rows).
    let kernel = WlSubtreeKernel::new(3);
    let gram_1 = x2v_par::with_threads(1, || gram(&kernel, &graphs));
    for t in THREADS {
        let m = x2v_par::with_threads(t, || gram(&kernel, &graphs));
        assert_eq!(
            bits(gram_1.as_slice()),
            bits(m.as_slice()),
            "gram, threads={t}"
        );
    }

    // ---- WL colour refinement (parallel signatures, serial interning).
    let wl_1 = x2v_par::with_threads(1, || wl_fingerprint(&graphs));
    for t in THREADS {
        assert_eq!(
            wl_1,
            x2v_par::with_threads(t, || wl_fingerprint(&graphs)),
            "wl histograms, threads={t}"
        );
    }

    // ---- Walk corpora (per-chunk split RNG streams).
    let wcfg = WalkConfig {
        walks_per_node: 5,
        walk_length: 20,
        p: 0.5,
        q: 2.0,
        seed: walk_seed,
    };
    let walks_1 = x2v_par::with_threads(1, || generate_walks(&g_walk, &wcfg));
    for t in THREADS {
        assert_eq!(
            walks_1,
            x2v_par::with_threads(t, || generate_walks(&g_walk, &wcfg)),
            "walk corpus, threads={t}"
        );
    }

    // ---- word2vec (deterministic sharded-gradient epochs).
    let vocab = g_walk.order();
    let sgns = SgnsConfig {
        dim: 8,
        window: 3,
        negative: 4,
        epochs: 3,
        learning_rate: 0.025,
        seed: sgns_seed,
    };
    let w2v_1 = x2v_par::with_threads(1, || Word2Vec::train(&walks_1, vocab, &sgns));
    for t in THREADS {
        let model = x2v_par::with_threads(t, || Word2Vec::train(&walks_1, vocab, &sgns));
        for tok in 0..vocab {
            assert_eq!(
                bits(w2v_1.vector(tok)),
                bits(model.vector(tok)),
                "word2vec vector {tok}, threads={t}"
            );
            assert_eq!(
                bits(w2v_1.context_vector(tok)),
                bits(model.context_vector(tok)),
                "word2vec context vector {tok}, threads={t}"
            );
        }
    }

    // ---- Work-limit trip: the pre-charged cut must land on the same row
    // (same work_done, same persisted rows) at every thread count, and the
    // resumed run must finish to the same bits as an uninterrupted one — on
    // the feature path and on the per-pair path alike.
    let pairwise = PairwiseOnly(kernel);
    let paths: [(&str, &(dyn GraphKernel + Sync)); 2] =
        [("feature", &kernel), ("pairwise", &pairwise)];
    for (path, k) in paths {
        let resumable_1 = x2v_par::with_threads(1, || {
            gram_resumable(k, &graphs, "par-det").expect("uninterrupted gram")
        });
        assert_eq!(
            bits(gram_1.as_slice()),
            bits(resumable_1.as_slice()),
            "{path} gram_resumable vs batch gram"
        );
        // Row i pre-charges n − i units; pick a limit that trips mid-matrix.
        let n = graphs.len() as u64;
        let limit = 2 * n; // rows 0 and 1 fit (n + n−1 ≤ 2n), row 2 trips
        let mut tripped_work: Option<u64> = None;
        for t in THREADS {
            let dir = tmpdir(&format!("gram-{path}-{t}"));
            x2v_ckpt::install_ambient(Store::open(&dir).expect("open store"));
            x2v_guard::install_ambient(Budget::unlimited().with_work_limit(limit));
            let err = x2v_par::with_threads(t, || gram_resumable(k, &graphs, "par-det"))
                .expect_err("the work limit must interrupt the build");
            x2v_guard::clear_ambient();
            match &err {
                GuardError::BudgetExhausted { work_done, .. } => match tripped_work {
                    None => tripped_work = Some(*work_done),
                    Some(w) => assert_eq!(w, *work_done, "{path} trip point moved, threads={t}"),
                },
                other => panic!("expected BudgetExhausted, got {other:?}"),
            }
            // Resume to completion; the final matrix must not depend on the
            // interrupt, the resume, or the thread count.
            x2v_ckpt::set_resume(true);
            let resumed = x2v_par::with_threads(t, || gram_resumable(k, &graphs, "par-det"))
                .expect("resumed gram");
            x2v_ckpt::set_resume(false);
            x2v_ckpt::clear_ambient();
            assert_eq!(
                bits(resumable_1.as_slice()),
                bits(resumed.as_slice()),
                "{path} resumed gram, threads={t}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // ---- Mid-epoch interrupt + resume for word2vec: a budget-tripped run
    // resumed under every thread count converges to the serial
    // uninterrupted model, bit for bit.
    let total_tokens: u64 = walks_1.iter().map(|w| w.len() as u64).sum();
    for t in THREADS {
        let dir = tmpdir(&format!("w2v-{t}"));
        x2v_ckpt::install_ambient(Store::open(&dir).expect("open store"));
        // Two of three epochs fit; epoch 2 trips and degrades gracefully.
        x2v_guard::install_ambient(Budget::unlimited().with_work_limit(2 * total_tokens));
        let partial =
            x2v_par::with_threads(t, || Word2Vec::train_job(&walks_1, vocab, &sgns, "par-det"));
        x2v_guard::clear_ambient();
        // Some vector must still be missing the last epoch's updates. (Not
        // token 0 specifically: an unlucky seed can isolate vertex 0, whose
        // windowless length-1 walks never train its vector at all.)
        let interrupted =
            (0..vocab).any(|tok| bits(partial.vector(tok)) != bits(w2v_1.vector(tok)));
        assert!(
            interrupted,
            "the trip must actually interrupt training, threads={t}"
        );
        x2v_ckpt::set_resume(true);
        let resumed =
            x2v_par::with_threads(t, || Word2Vec::train_job(&walks_1, vocab, &sgns, "par-det"));
        x2v_ckpt::set_resume(false);
        x2v_ckpt::clear_ambient();
        for tok in 0..vocab {
            assert_eq!(
                bits(w2v_1.vector(tok)),
                bits(resumed.vector(tok)),
                "resumed word2vec vector {tok}, threads={t}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- The battery exercised the pool for real.
    let report = x2v_obs::report("par-determinism");
    assert!(
        report.counters.get("par/tasks").copied().unwrap_or(0) > 0,
        "parallel chunks must actually have executed"
    );
}
