//! Order statistics and checksums shared by the workloads.

use x2v_ckpt::crc32::Crc32;

/// Nearest-rank quantile `q ∈ [0, 1]` of `values` (sorted in place).
/// `NaN` for an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median: the middle value, or the mean of the middle two.
pub fn median(values: &mut [f64]) -> f64 {
    let n = values.len();
    if n > 0 && n.is_multiple_of(2) {
        values.sort_by(f64::total_cmp);
        return (values[n / 2 - 1] + values[n / 2]) / 2.0;
    }
    quantile(values, 0.5)
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it, capped at p99, as `(percentile, value)`.
/// When that percentile would fall below the median the sample supports no
/// tail, and the maximum is reported as `p100`.
pub fn tail(values: &mut [f64]) -> (f64, f64) {
    if values.is_empty() {
        return (100.0, f64::NAN);
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    // Rank n-10 has exactly ten samples after it; p99 has more once n is
    // large enough, and is the conventional cap.
    let rank = (0.99 * n as f64).ceil() as usize;
    let rank = rank.min(n.saturating_sub(10));
    if rank < n.div_ceil(2) {
        return (100.0, values[n - 1]);
    }
    (100.0 * rank as f64 / n as f64, values[rank - 1])
}

/// CRC32 over the exact bit patterns of a run of `f64`s.
pub fn crc_f64(crc: &mut Crc32, values: &[f64]) {
    for v in values {
        crc.update_u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&mut v), 50.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let mut small: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail(&mut small), (100.0, 8.0));
        // Ten beyond would put the tail below the median.
        let mut few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&mut few), (100.0, 15.0));
        let mut mid: Vec<f64> = (1..=40).map(f64::from).collect();
        // 30 has exactly ten samples (31..=40) beyond it.
        assert_eq!(tail(&mut mid), (75.0, 30.0));
        let mut big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&mut big), (99.0, 9_900.0));
    }
}
