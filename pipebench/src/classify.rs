//! The two graph-classification workloads: `wl_kernel_cv` (t = 5
//! WL-subtree kernel → normalised Gram → SVM cross-validation) and
//! `hom_embed_cv` (log-scaled trees+cycles hom vectors → linear-kernel SVM
//! cross-validation), over the same seeded five-family dataset.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use x2v_bench::harness::{embedding_cv_accuracy, gram_cv_accuracy};
use x2v_ckpt::crc32::Crc32;
use x2v_core::GraphKernel;
use x2v_datasets::synthetic::GraphDataset;
use x2v_graph::Graph;
use x2v_hom::vectors::HomBasis;
use x2v_kernel::gram::{gram_from_features, gram_resumable, try_normalize};
use x2v_kernel::wl::WlSubtreeKernel;

use crate::inputs::{self, Inputs, SETUP_REPS};
use crate::stats::{crc_f64, median, tail};
use crate::trace::{Layers, PassTrace};
use crate::{Args, Outcome};

/// Cross-validation folds.
const FOLDS: usize = 5;
/// WL refinement rounds (the paper's t = 5).
const ROUNDS: usize = 5;
/// Largest pattern order checked against brute-force hom counting.
const BRUTE_MAX_ORDER: usize = 6;
/// Checkpoint job name; no store is installed, so nothing touches disk.
const JOB: &str = "pipebench-gram";
/// Minimum measured passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Allocation-counting passes per traced run: two, so the counts are seen
/// to repeat.
const ALLOC_PASSES: usize = 2;

/// Which representation feeds the SVM.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// WL-subtree kernel Gram (`wl_kernel_cv`).
    Wl,
    /// Homomorphism vectors (`hom_embed_cv`).
    Hom,
}

/// What the classification passes read: the inputs without the served
/// graph, which is dropped after set-up (keeping it alive slowed WL
/// passes by about 6%).
struct Task {
    datasets: Vec<GraphDataset>,
    basis: HomBasis,
    /// Seed of the fold assignment.
    cv_seed: u64,
}

impl Task {
    fn new(inputs: Inputs, seed: u64) -> Self {
        let Inputs {
            datasets, basis, ..
        } = inputs;
        Task {
            datasets,
            basis,
            cv_seed: seed ^ 0xc5_f01d,
        }
    }
}

/// Everything one pass produced, kept for the output checks.
struct PassOut {
    /// Per family: the raw WL Gram (WL) or the embedding rows (hom).
    reps: Vec<Vec<f64>>,
    accuracies: Vec<f64>,
    /// Per family: wall time of its CV job in ms.
    jobs_ms: Vec<f64>,
}

impl PassOut {
    /// The work checksum: representation bits and accuracy bits.
    fn checksum(&self) -> u32 {
        let mut crc = Crc32::new();
        for rep in &self.reps {
            crc_f64(&mut crc, rep);
        }
        crc_f64(&mut crc, &self.accuracies);
        crc.finish()
    }
}

/// A WL kernel that counts its evaluations: the traced run's
/// `kernel.gram_entries`.
struct CountingKernel {
    inner: WlSubtreeKernel,
    evals: AtomicU64,
}

impl GraphKernel for CountingKernel {
    fn eval(&self, g: &Graph, h: &Graph) -> f64 {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.eval(g, h)
    }
}

/// One pass: a CV job per family. Each job's wall time is taken at the
/// family boundary; inside a job only a recording trace times anything.
fn pass(
    pipeline: Pipeline,
    task: &Task,
    t: &mut PassTrace,
    entries: &mut u64,
) -> x2v_guard::Result<PassOut> {
    let mut out = PassOut {
        reps: Vec::new(),
        accuracies: Vec::new(),
        jobs_ms: Vec::new(),
    };
    for d in &task.datasets {
        let t0 = Instant::now();
        let (rep, acc) = match pipeline {
            Pipeline::Wl => {
                let gram = if t.is_on() {
                    let counting = CountingKernel {
                        inner: WlSubtreeKernel::new(ROUNDS),
                        evals: AtomicU64::new(0),
                    };
                    let gram =
                        t.call("kernel.gram", || gram_resumable(&counting, &d.graphs, JOB))?;
                    *entries += counting.evals.into_inner();
                    gram
                } else {
                    gram_resumable(&WlSubtreeKernel::new(ROUNDS), &d.graphs, JOB)?
                };
                let k = t.call("kernel.normalize", || try_normalize(&gram))?;
                let acc = t.call("svm.cv", || {
                    gram_cv_accuracy(&k, &d.labels, FOLDS, task.cv_seed)
                });
                (gram.as_slice().to_vec(), acc)
            }
            Pipeline::Hom => {
                let emb = t.call("hom.embed", || task.basis.embed_dataset(&d.graphs));
                let acc = t.call("svm.cv", || {
                    embedding_cv_accuracy(&emb, &d.labels, FOLDS, task.cv_seed)
                });
                (emb.concat(), acc)
            }
        };
        out.jobs_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.reps.push(rep);
        out.accuracies.push(acc);
    }
    Ok(out)
}

/// The output checks, made once on the first pass's outputs.
fn check_outputs(pipeline: Pipeline, task: &Task, out: &PassOut, seed: u64) -> Vec<(String, bool)> {
    let mut checks = Vec::new();
    match pipeline {
        Pipeline::Wl => {
            for (d, rep) in task.datasets.iter().zip(&out.reps) {
                let n = d.graphs.len();
                let symmetric = (0..n)
                    .all(|i| (0..n).all(|j| rep[i * n + j].to_bits() == rep[j * n + i].to_bits()));
                checks.push((format!("{}: pairwise Gram symmetric", d.name), symmetric));
                let same = gram_from_features(&WlSubtreeKernel::new(ROUNDS), &d.graphs, JOB)
                    .is_ok_and(|f| {
                        f.as_slice().len() == rep.len()
                            && f.as_slice()
                                .iter()
                                .zip(rep)
                                .all(|(a, b)| a.to_bits() == b.to_bits())
                    });
                checks.push((
                    format!(
                        "{}: gram_from_features == gram_resumable bit for bit",
                        d.name
                    ),
                    same,
                ));
            }
        }
        Pipeline::Hom => {
            // One embedded graph, chosen by the seed, against brute force.
            let basis = &task.basis;
            let fam = (seed % task.datasets.len() as u64) as usize;
            let d = &task.datasets[fam];
            let gi = (seed / 7 % d.graphs.len() as u64) as usize;
            let dim = basis.dimension();
            let row = &out.reps[fam][gi * dim..(gi + 1) * dim];
            let small: Vec<(usize, &Graph)> = basis
                .patterns()
                .iter()
                .enumerate()
                .filter(|(_, f)| f.order() <= BRUTE_MAX_ORDER)
                .collect();
            let all = small.iter().all(|&(p, f)| {
                let brute = x2v_hom::brute::hom_count(f, &d.graphs[gi]);
                let want = (1.0 + brute as f64).ln() / f.order() as f64;
                want.to_bits() == row[p].to_bits()
            });
            checks.push((
                format!(
                    "{} graph {gi}: hom counts of the {} patterns of order <= {BRUTE_MAX_ORDER} match brute force",
                    d.name,
                    small.len()
                ),
                all && !small.is_empty(),
            ));
        }
    }
    checks
}

/// Runs one classification workload: set-up [`SETUP_REPS`] times, then
/// passes until `--seconds` of pass time has been measured.
pub fn run(pipeline: Pipeline, args: &Args) -> Outcome {
    x2v_obs::set_enabled(false);
    if args.trace {
        return run_traced(pipeline, args);
    }
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        inputs = Some(inputs::build(args.seed, &mut PassTrace::off()));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let task = Task::new(inputs.expect("at least one set-up"), args.seed);
    let graphs: usize = task.datasets.iter().map(GraphDataset::len).sum();

    let mut outcome = Outcome::default();
    let (mut pass_s, mut jobs_ms) = (Vec::new(), Vec::new());
    let mut first: Option<u32> = None;
    let mut accuracies = Vec::new();
    while pass_s.len() < MIN_PASSES || pass_s.iter().sum::<f64>() < args.seconds {
        outcome.attempted += 1;
        let t0 = Instant::now();
        let result = pass(pipeline, &task, &mut PassTrace::off(), &mut 0);
        pass_s.push(t0.elapsed().as_secs_f64());
        let ok = match result {
            Ok(out) => {
                jobs_ms.extend_from_slice(&out.jobs_ms);
                let sum = out.checksum();
                if first.is_none() {
                    outcome
                        .checks
                        .extend(check_outputs(pipeline, &task, &out, args.seed));
                    first = Some(sum);
                    accuracies = out.accuracies;
                }
                first == Some(sum)
            }
            Err(e) => {
                outcome
                    .notes
                    .push(format!("pass {} failed: {e}", pass_s.len()));
                false
            }
        };
        outcome.failed += u64::from(!ok);
    }
    outcome.checks.push((
        "work checksum repeats across passes".to_string(),
        outcome.failed == 0,
    ));

    let accuracy = accuracies.iter().sum::<f64>() / accuracies.len().max(1) as f64;
    let total_s: f64 = pass_s.iter().sum();
    let graphs_per_s = (graphs * pass_s.len()) as f64 / total_s;
    let pass_p50 = median(&mut pass_s.clone());
    let mut rates: Vec<f64> = pass_s.iter().map(|s| graphs as f64 / s).collect();
    let rate_p50 = median(&mut rates);
    // Slow passes are low rates: the tail is at the low end.
    let mut inverse: Vec<f64> = rates.iter().map(|r| -r).collect();
    let (rate_pct, rate_tail) = tail(&mut inverse);
    let job_count = jobs_ms.len();
    let job_p50 = median(&mut jobs_ms);
    let (job_pct, job_tail) = tail(&mut jobs_ms);

    let names: Vec<&str> = task.datasets.iter().map(|d| d.name).collect();
    outcome.notes.extend([
        format!(
            "graphs_per_s: median {rate_p50:.2}, slowest p{rate_pct:.1} {:.2}, overall {graphs_per_s:.2} graphs/s ({} passes of {graphs} graphs, median pass {pass_p50:.4} s)",
            -rate_tail,
            pass_s.len()
        ),
        format!(
            "cv_job_ms: p50 {job_p50:.3}, p{job_pct:.1} {job_tail:.3} ({job_count} jobs, one per family per pass)"
        ),
        format!(
            "cv_accuracy: {accuracy:.6} (mean over families: {})",
            names
                .iter()
                .zip(&accuracies)
                .map(|(n, a)| format!("{n}={a:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!("failed_frac: {} / {} passes", outcome.failed, outcome.attempted),
        format!("work checksum: {:08x}", first.unwrap_or(0)),
    ]);
    outcome.metrics = [
        ("setup_s", median(&mut setups)),
        ("train_s", pass_p50),
        ("latency_p50_ms", job_p50),
        ("throughput_per_s", graphs_per_s),
        ("quality", accuracy),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    outcome
}

/// How a traced-run pass is instrumented.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No instrumentation: the baseline for `trace.overhead_frac`.
    Plain,
    /// A timer around each layer call.
    Timed,
    /// Allocation counting around each layer call; not timed.
    Counted,
}

/// The traced run: set-ups and passes with a timer around each layer
/// call, untraced passes interleaved for the overhead estimate, the first
/// [`ALLOC_PASSES`] iterations also counting allocations per layer in a
/// pass of their own, and the off-path probe after each instrumented pass.
fn run_traced(pipeline: Pipeline, args: &Args) -> Outcome {
    let mut layers = Layers::default();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let mut t = PassTrace::new();
        inputs = Some(inputs::build(args.seed, &mut t));
        layers.absorb_times(&t);
    }
    let task = Task::new(inputs.expect("at least one set-up"), args.seed);
    let mut outcome = Outcome::default();
    let (mut plain_ms, mut traced_ms, mut uncovered) = (Vec::new(), Vec::new(), Vec::new());
    let mut sums = Vec::new();
    let mut total = 0.0;
    for iteration in 0.. {
        if traced_ms.len() >= MIN_PASSES && total >= args.seconds {
            break;
        }
        let modes: &[Mode] = if iteration < ALLOC_PASSES {
            &[Mode::Plain, Mode::Timed, Mode::Counted]
        } else {
            &[Mode::Plain, Mode::Timed]
        };
        for &mode in modes {
            outcome.attempted += 1;
            x2v_prof::set_alloc_counting(mode == Mode::Counted);
            let mut t = match mode {
                Mode::Plain => PassTrace::off(),
                _ => PassTrace::new(),
            };
            let mut entries = 0u64;
            let t0 = Instant::now();
            let result = pass(pipeline, &task, &mut t, &mut entries);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match mode {
                Mode::Plain => plain_ms.push(ms),
                Mode::Timed => {
                    traced_ms.push(ms);
                    uncovered.push(1.0 - t.covered_ms() / ms);
                    layers.absorb_times(&t);
                }
                Mode::Counted => layers.absorb_allocs(&t),
            }
            if mode != Mode::Counted {
                total += ms / 1e3;
            }
            if pipeline == Pipeline::Wl && mode != Mode::Plain {
                layers.count("kernel.gram_entries", entries as f64);
                // Probe, off the pipeline's path: the sparse feature pass
                // that bounds a feature-based Gram from below.
                let mut probe = PassTrace::new();
                for d in &task.datasets {
                    probe.call("wl.features", || {
                        x2v_wl::features::dataset_sparse_features(&d.graphs, ROUNDS)
                    });
                }
                if mode == Mode::Counted {
                    layers.absorb_allocs(&probe);
                } else {
                    layers.absorb_times(&probe);
                }
            }
            x2v_prof::set_alloc_counting(false);
            match result {
                Ok(out) => sums.push(out.checksum()),
                Err(_) => outcome.failed += 1,
            }
        }
    }
    outcome.checks.push((
        "work checksum repeats across traced and untraced passes".to_string(),
        outcome.failed == 0 && sums.windows(2).all(|w| w[0] == w[1]),
    ));
    let plain = median(&mut plain_ms);
    let traced = median(&mut traced_ms);
    layers.value("trace.overhead_frac", (traced - plain) / plain);
    layers.value("trace.uncovered_frac", median(&mut uncovered));
    outcome.notes.push(format!(
        "timed pass {traced:.2} ms vs untraced {plain:.2} ms, medians of {} each",
        traced_ms.len()
    ));
    outcome.layers = Some(layers);
    outcome
}
