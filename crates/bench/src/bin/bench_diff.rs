//! Compares two `BENCH_*.json` reports and exits non-zero on gating
//! median regressions.
//!
//! ```text
//! bench_diff <baseline.json> <candidate.json> [--threshold-pct P] [--informational]
//! ```
//!
//! A bench gates when its median is more than the threshold (default 20%)
//! slower **and** the delta clears a noise floor of twice the summed MADs;
//! a bench present in the baseline but absent from the candidate also
//! gates, and so does a bench whose `work` checksum differs between two
//! reports of the same `mode` (deterministic quantities gate exactly).
//! `--informational` prints the comparison but always exits 0.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(x2v_bench::suite::diff_main(&args));
}
