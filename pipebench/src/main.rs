//! pipebench — the end-to-end benchmark of the three x2vec pipelines the
//! paper cares about, run one workload per process:
//!
//! * `wl_kernel_cv`: five-family dataset → t = 5 WL-subtree Gram
//!   (`gram_resumable`) → `try_normalize` → 5-fold SVM CV;
//! * `hom_embed_cv`: the same dataset → trees+cycles hom vectors → 5-fold
//!   linear-kernel SVM CV;
//! * `node2vec_serve`: `G(n, p)` → node2vec walks → SGNS → published and
//!   served by `x2v-serve`, then an open and a closed load loop.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload wl_kernel_cv --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` repeats the
//! passes with benchmark-side timers and allocation counters around every
//! layer call and prints the per-layer metrics. The last line of standard
//! output is one JSON object; the lines before it are the human-readable
//! report and the host record. Metric definitions: `pipebench/METRICS.md`.

mod classify;
mod inputs;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks; the run is correct only if all pass.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics (untraced run).
    pub metrics: BTreeMap<String, f64>,
    /// Per-layer samples (traced run).
    pub layers: Option<trace::Layers>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

const WORKLOADS: [&str; 3] = ["wl_kernel_cv", "hom_embed_cv", "node2vec_serve"];

/// End-to-end metrics, printed by every `--trace 0` run, with units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("quality", "frac"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run, with units. A
/// layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 32] = [
    ("datasets.generate_ms", "ms"),
    ("graph.generate_ms", "ms"),
    ("hom.basis_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("kernel.gram_ms", "ms"),
    ("kernel.gram_allocs", "count"),
    ("kernel.gram_entries", "count"),
    ("wl.features_ms", "ms"),
    ("wl.features_allocs", "count"),
    ("kernel.normalize_ms", "ms"),
    ("svm.cv_ms", "ms"),
    ("svm.cv_allocs", "count"),
    ("hom.embed_ms", "ms"),
    ("hom.embed_allocs", "count"),
    ("embed.walks_ms", "ms"),
    ("embed.walk_tokens", "count"),
    ("embed.sgns_ms", "ms"),
    ("embed.sgns_allocs", "count"),
    ("serve.index_build_ms", "ms"),
    ("ckpt.publish_ms", "ms"),
    ("ckpt.publish_bytes", "bytes"),
    ("serve.ready_wait_ms", "ms"),
    ("ckpt.load_ms", "ms"),
    ("serve.reloads", "count"),
    ("serve.topk_us", "us"),
    ("serve.rows_scanned", "count"),
    ("serve.similar_p50_ms", "ms"),
    ("serve.embed_p50_ms", "ms"),
    ("serve.query_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.uncovered_frac", "frac"),
];

fn usage() -> String {
    format!(
        "usage: pipebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The host record printed with every report.
fn host_record() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cache = |level: u32| {
        (0..8)
            .find_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let l = std::fs::read_to_string(format!("{dir}/level")).ok()?;
                let t = std::fs::read_to_string(format!("{dir}/type")).ok()?;
                (l.trim() == level.to_string() && t.trim() != "Instruction")
                    .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())
                    .flatten()
            })
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    format!(
        "host: cpu={cpu:?} nproc={} X2V_THREADS={} L2={} L3={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::var("X2V_THREADS").unwrap_or_default(),
        cache(2),
        cache(3)
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("X2V_THREADS").is_none() {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("X2V_THREADS", n.to_string());
    }
    let mut outcome = match args.workload.as_str() {
        "wl_kernel_cv" => classify::run(classify::Pipeline::Wl, &args),
        "hom_embed_cv" => classify::run(classify::Pipeline::Hom, &args),
        _ => serve::run(&args),
    };

    println!(
        "pipebench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("{}", host_record());
    for note in &outcome.notes {
        println!("{note}");
    }
    let (table, entries): (&[(&str, &str)], BTreeMap<String, f64>) = match &outcome.layers {
        Some(layers) => {
            let unstable: Vec<String> = layers
                .unstable_counts()
                .into_iter()
                .filter(|k| PER_LAYER.iter().any(|(n, _)| n == k))
                .collect();
            outcome.checks.push((
                format!("per-layer counts repeat exactly across passes {unstable:?}"),
                unstable.is_empty(),
            ));
            (&PER_LAYER, layers.metrics())
        }
        None => {
            let mut m = std::mem::take(&mut outcome.metrics);
            m.insert(
                "ok_frac".to_string(),
                1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64,
            );
            let rss = x2v_obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
            m.insert("peak_rss_mb".to_string(), rss);
            (&END_TO_END, m)
        }
    };
    for (check, ok) in &outcome.checks {
        println!("check {}: {check}", if *ok { "ok" } else { "FAILED" });
    }
    let correct = outcome.attempted > 0 && outcome.checks.iter().all(|(_, ok)| *ok);
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = entries.get(*name).copied().unwrap_or(0.0);
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
