//! Checkpoint/resume end-to-end: an interrupted-then-resumed job must be
//! *bit-identical* to an uninterrupted one — embedding matrices, RNG
//! stream state and Gram entries alike — and the `ckpt/*` obs counters
//! must record what happened.
//!
//! The ambient store, the ambient budget and the obs registry are all
//! process-global, so the whole scenario runs inside ONE `#[test]`
//! (the workspace's established pattern for global-state suites).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_ckpt::Store;
use x2v_embed::word2vec::{SgnsConfig, Word2Vec, CKPT_KIND};
use x2v_graph::generators::cycle;
use x2v_graph::Graph;
use x2v_guard::{Budget, GuardError};
use x2v_kernel::gram::{gram, gram_resumable};
use x2v_kernel::wl::WlSubtreeKernel;

/// Small two-topic corpus: tokens 0..5 co-occur, tokens 5..10 co-occur.
fn corpus(seed: u64, sentences: usize) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..sentences)
        .map(|i| {
            let base: usize = if i % 2 == 0 { 0 } else { 5 };
            (0..10)
                .map(|_| base + rng.random_range(0..5usize))
                .collect()
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("x2v-ckpt-int-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn interrupted_and_resumed_runs_are_bit_identical_to_uninterrupted() {
    x2v_obs::set_enabled(true);
    x2v_obs::reset();
    x2v_guard::faults::clear();
    x2v_guard::clear_ambient();
    x2v_ckpt::clear_ambient();

    let corpus = corpus(11, 40);
    let vocab = 10usize;
    let total_tokens: usize = corpus.iter().map(Vec::len).sum();
    let cfg = SgnsConfig {
        dim: 8,
        window: 3,
        negative: 4,
        epochs: 4,
        learning_rate: 0.025,
        seed: 17,
    };
    let dir_a = tmpdir("golden");
    let dir_b = tmpdir("interrupted");

    // ---- Golden: uninterrupted 4-epoch run, checkpointing into store A.
    x2v_ckpt::install_ambient(Store::open(&dir_a).unwrap());
    let golden = Word2Vec::train_job(&corpus, vocab, &cfg, "det");
    x2v_ckpt::clear_ambient();

    // ---- Interrupted: same job into store B under a work-limit budget.
    // The epoch loop meters `total_tokens` units per epoch, so a limit of
    // 2·total_tokens trains exactly epochs 0 and 1 and trips at epoch 2 —
    // SGD degrades gracefully (partial model) but both completed epochs
    // are already durable in the store.
    x2v_ckpt::install_ambient(Store::open(&dir_b).unwrap());
    x2v_guard::install_ambient(Budget::unlimited().with_work_limit(2 * total_tokens as u64));
    let partial = Word2Vec::train_job(&corpus, vocab, &cfg, "det");
    x2v_guard::clear_ambient();
    assert_ne!(
        partial.vector(0),
        golden.vector(0),
        "the budget trip must actually interrupt training (2 of 4 epochs)"
    );

    // ---- Resume: fresh budget, `--resume` in effect. The run restores
    // epoch 2's matrices + step counter + RNG stream state and replays
    // epochs 2..4 — bit-identical to the uninterrupted run.
    x2v_ckpt::set_resume(true);
    let resumed = Word2Vec::train_job(&corpus, vocab, &cfg, "det");
    for t in 0..vocab {
        assert_eq!(
            golden.vector(t),
            resumed.vector(t),
            "input vector of token {t} must be bit-identical after resume"
        );
        assert_eq!(
            golden.context_vector(t),
            resumed.context_vector(t),
            "context vector of token {t} must be bit-identical after resume"
        );
    }

    // The final checkpoint frames of both stores must agree byte-for-byte:
    // the payload embeds the final RNG state, so this also proves the
    // interrupted-and-resumed RNG stream ends where the uninterrupted one
    // does.
    let (gen_a, payload_a) = Store::open(&dir_a)
        .unwrap()
        .load_latest("det", CKPT_KIND)
        .unwrap()
        .expect("golden run left a final checkpoint");
    let (gen_b, payload_b) = Store::open(&dir_b)
        .unwrap()
        .load_latest("det", CKPT_KIND)
        .unwrap()
        .expect("resumed run left a final checkpoint");
    assert_eq!(gen_a, gen_b, "both stores end at the same generation");
    assert_eq!(
        payload_a, payload_b,
        "final checkpoint payloads (matrices + step + RNG state) must be byte-equal"
    );

    // ---- Same story for the resumable Gram builder (store B stays
    // ambient). The golden build finds no checkpoint under its job and
    // cold-starts; 10 cycle graphs = 55 kernel evaluations.
    let graphs: Vec<Graph> = (3..13).map(cycle).collect();
    let kernel = WlSubtreeKernel::new(2);
    let expected = gram_resumable(&kernel, &graphs, "gram-golden").unwrap();

    // A 20-evaluation budget trips inside row 2; the completed rows are
    // persisted before the typed error surfaces.
    x2v_guard::install_ambient(Budget::unlimited().with_work_limit(20));
    let err = gram_resumable(&kernel, &graphs, "gram-det").unwrap_err();
    assert!(
        matches!(err, GuardError::BudgetExhausted { .. }),
        "expected a typed budget trip, got {err:?}"
    );
    x2v_guard::clear_ambient();

    let resumed_gram = gram_resumable(&kernel, &graphs, "gram-det").unwrap();
    let n = graphs.len();
    for i in 0..n {
        for j in 0..n {
            assert_eq!(
                expected[(i, j)].to_bits(),
                resumed_gram[(i, j)].to_bits(),
                "Gram entry ({i},{j}) must be bit-identical after resume"
            );
        }
    }

    // ---- A checkpoint of one kernel never resumes another: WL(2) trips
    // with rows persisted under "gram-kernel", then WL(3) resumes the same
    // job. The fingerprint binds the rounds, so the resume cold-starts and
    // finishes bit-equal to an uninterrupted WL(3).
    let counter = |name: &str| {
        let report = x2v_obs::report("ckpt-integration");
        report.counters.get(name).copied().unwrap_or(0)
    };
    let wl3 = WlSubtreeKernel::new(3);
    let expected_wl3 = gram_resumable(&wl3, &graphs, "gram-kernel-golden").unwrap();
    x2v_guard::install_ambient(Budget::unlimited().with_work_limit(20));
    let err = gram_resumable(&kernel, &graphs, "gram-kernel").unwrap_err();
    assert!(matches!(err, GuardError::BudgetExhausted { .. }), "{err:?}");
    x2v_guard::clear_ambient();
    let (resumed_before, cold_before) =
        (counter("ckpt/resumed"), counter("ckpt/fallback_cold_start"));
    let wl3_gram = gram_resumable(&wl3, &graphs, "gram-kernel").unwrap();
    assert_eq!(
        counter("ckpt/resumed"),
        resumed_before,
        "WL(2) rows must not resume WL(3)"
    );
    assert_eq!(
        counter("ckpt/fallback_cold_start"),
        cold_before + 1,
        "WL(3) must cold-start"
    );
    assert_eq!(
        bits(expected_wl3.as_slice()),
        bits(wl3_gram.as_slice()),
        "WL(3) after a WL(2) checkpoint must equal an uninterrupted WL(3)"
    );

    // ---- The infallible `gram` never touches the ambient store: with
    // resume still requested it neither resumes, cold-starts nor saves,
    // though 10 rows would cross a checkpoint block.
    let touched = || ["ckpt/saved", "ckpt/resumed", "ckpt/fallback_cold_start"].map(counter);
    let before = touched();
    let plain = gram(&wl3, &graphs);
    assert_eq!(touched(), before, "gram must not read or write the store");
    assert_eq!(bits(plain.as_slice()), bits(expected_wl3.as_slice()));

    // ---- The obs counters recorded the whole story.
    let report = x2v_obs::report("ckpt-integration");
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    // Golden w2v: 4 epoch saves. Interrupted: 2. Resumed: 2. Gram: one
    // row-block save per build that reaches row 8, plus the trip save.
    assert!(
        counter("ckpt/saved") >= 10,
        "ckpt/saved = {}",
        counter("ckpt/saved")
    );
    assert!(counter("ckpt/bytes_written") > 0);
    // One w2v resume + one Gram resume.
    assert_eq!(counter("ckpt/resumed"), 2, "w2v + gram resumes");
    // gram-golden, the first gram-det attempt and the three gram-kernel
    // builds all cold-started.
    assert!(
        counter("ckpt/fallback_cold_start") >= 5,
        "ckpt/fallback_cold_start = {}",
        counter("ckpt/fallback_cold_start")
    );
    assert_eq!(counter("ckpt/corrupt_detected"), 0);
    assert_eq!(counter("ckpt/save_failed"), 0);

    // Hygiene: global state back to defaults for any other in-process user.
    x2v_ckpt::clear_ambient();
    x2v_guard::clear_ambient();
    x2v_obs::reset();
    x2v_obs::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
