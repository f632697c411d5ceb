//! Benchmark-side tracing for the traced run: wall-clock timers and
//! `x2v_prof::alloc` counters around each call into a layer's public
//! function. Nothing here reaches inside the program; a layer's time is
//! the wall time of the benchmark's call into it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::median;

/// Per-layer totals of one traced pass (or one probe). An untraced pass
/// uses [`PassTrace::off`], whose calls run with no timer at all.
pub struct PassTrace {
    on: bool,
    /// Layer → (nanoseconds, allocations) summed over the pass's calls.
    layers: BTreeMap<&'static str, (u128, u64)>,
}

impl PassTrace {
    /// A recording trace.
    pub fn new() -> Self {
        PassTrace {
            on: true,
            layers: BTreeMap::new(),
        }
    }

    /// A trace that records nothing.
    pub fn off() -> Self {
        PassTrace {
            on: false,
            layers: BTreeMap::new(),
        }
    }

    /// Whether calls are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` as one call into `layer`, adding its wall time and the
    /// process-wide allocations made while it ran.
    pub fn call<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let allocs0 = x2v_prof::alloc_snapshot().allocs;
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos();
        let allocs = x2v_prof::alloc_snapshot().allocs - allocs0;
        let e = self.layers.entry(layer).or_default();
        e.0 += ns;
        e.1 += allocs;
        out
    }

    /// Total traced wall time of the pass, in milliseconds.
    pub fn covered_ms(&self) -> f64 {
        self.layers.values().map(|&(ns, _)| ns as f64 / 1e6).sum()
    }
}

/// Per-layer samples across a run's traced passes, plus exact counts.
#[derive(Default)]
pub struct Layers {
    times_ms: BTreeMap<&'static str, Vec<f64>>,
    allocs: BTreeMap<&'static str, Vec<u64>>,
    counts: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, f64>,
}

impl Layers {
    /// Folds one timed pass's (or probe's) layer times in: one sample per
    /// layer.
    pub fn absorb_times(&mut self, pass: &PassTrace) {
        for (&layer, &(ns, _)) in &pass.layers {
            self.times_ms
                .entry(layer)
                .or_default()
                .push(ns as f64 / 1e6);
        }
    }

    /// Folds one allocation-counting pass's per-layer allocation counts in.
    /// Counting makes every allocation contend on shared atomics, so these
    /// passes are not timed.
    pub fn absorb_allocs(&mut self, pass: &PassTrace) {
        for (&layer, &(_, allocs)) in &pass.layers {
            self.allocs.entry(layer).or_default().push(allocs);
        }
    }

    /// Records one sample of a count that must repeat exactly.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.entry(name.to_string()).or_default().push(value);
    }

    /// Records a value reported as is (a percentile, a ratio).
    pub fn value(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts (allocation counts included) that did not repeat exactly
    /// across the run's samples.
    pub fn unstable_counts(&self) -> Vec<String> {
        let mut bad: Vec<String> = self
            .counts
            .iter()
            .filter(|(_, v)| v.windows(2).any(|w| w[0] != w[1]))
            .map(|(k, _)| k.clone())
            .collect();
        bad.extend(
            self.allocs
                .iter()
                .filter(|(_, v)| v.windows(2).any(|w| w[0] != w[1]))
                .map(|(k, _)| format!("{k}_allocs")),
        );
        bad
    }

    /// The per-layer metrics: `<layer>_ms` medians, `<layer>_allocs`
    /// (first sample; see [`Self::unstable_counts`]), counts and values.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (layer, samples) in &self.times_ms {
            let mut s = samples.clone();
            out.insert(format!("{layer}_ms"), median(&mut s));
        }
        for (layer, samples) in &self.allocs {
            out.insert(format!("{layer}_allocs"), samples[0] as f64);
        }
        for (name, samples) in &self.counts {
            out.insert(name.clone(), samples[0]);
        }
        for (name, &v) in &self.values {
            out.insert(name.clone(), v);
        }
        out
    }
}
