//! Hash-based 1-WL colouring: colours as seeded hash invariants.
//!
//! The interner-based [`crate::Refiner`] materialises one signature
//! `Vec<u64>` per node per round and keeps every distinct signature alive
//! inside the shared [`crate::ColourInterner`] — allocation traffic that
//! dominates refinement on large sparse graphs. [`HashRefiner`] replaces
//! interning with hashing: the new colour of a node is a seeded mix of its
//! previous colour combined with a *wrapping sum* of its neighbours' mixed
//! previous colours. The sum is commutative, so the multiset aggregation
//! needs no sorting and no per-node buffer; a whole round allocates only
//! the output colour vector (plus a small detection map).
//!
//! Because a hash colour is a pure function of the node's unfolding tree
//! and the seed — independent of which graph is being refined or in what
//! order — hash colours are *globally comparable without any shared
//! mutable state*: datasets can be coloured fully in parallel, one graph
//! per worker, and the histograms still live in one feature space.
//!
//! ## Collisions
//!
//! Two distinct signatures can hash to the same 64-bit colour. Collisions
//! come in two kinds:
//!
//! * **cross-class merges** — nodes whose *previous* colours differ get
//!   the same new colour. Their signatures provably differ (the previous
//!   colour is part of the signature), so this is a genuine collision.
//!   [`HashRefiner`] detects every such merge with a per-round
//!   new-colour → previous-colour map, counts it in
//!   [`HashWlHistory::collisions`], and bumps the `wl/hash_collisions`
//!   observability counter.
//! * **in-class collisions** — nodes with the *same* previous colour but
//!   different neighbour multisets get the same new colour. These are
//!   harmless by construction in the sense that they can only *coarsen*
//!   the partition (fail to split a class), never cross-contaminate
//!   classes: the partition at every round remains a coarsening of the
//!   exact 1-WL partition, so equal exact colours still imply equal hash
//!   colours.
//!
//! At the full 64-bit width a collision needs ≈ `2^32` distinct
//! signatures to become likely (birthday bound); the
//! [`HashWlConfig::width_bits`] truncation hook exists so tests can force
//! collisions at tiny widths and exercise the detection path
//! deterministically.

use crate::refine::{count_distinct, histogram_of};
use x2v_graph::csr::CsrView;
use x2v_graph::hash::FxHashMap;
use x2v_graph::Graph;

/// Default seed for hash colouring (an arbitrary odd constant; any value
/// works — the seed only decorrelates runs, it is not secret).
pub const DEFAULT_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Domain-separation salts keeping the three hashing roles disjoint.
const SALT_INIT: u64 = 0x9e37_79b9_7f4a_7c15;
const SALT_OWN: u64 = 0xbf58_476d_1ce4_e5b9;
const SALT_NEIGH: u64 = 0x94d0_49bb_1331_11eb;
const SALT_AGG: u64 = 0x2545_f491_4f6c_dd1d;

/// Minimum nodes per parallel chunk of colour hashing; mirrors the
/// interner refiner's grain and, like it, must stay a constant so the
/// chunk plan (and thus determinism) never depends on the thread count.
const HASH_GRAIN: usize = 512;

/// splitmix64 finaliser: a fast, well-distributed 64-bit mixer.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Configuration of a [`HashRefiner`].
#[derive(Clone, Copy, Debug)]
pub struct HashWlConfig {
    /// Seed mixed into every colour; two refiners with different seeds
    /// produce incomparable colour universes.
    pub seed: u64,
    /// Colour width in bits, `1..=64`. Production code uses 64; tests
    /// truncate (keeping the low bits of the mixed hash) to force
    /// collisions deterministically.
    pub width_bits: u32,
}

impl Default for HashWlConfig {
    fn default() -> Self {
        HashWlConfig {
            seed: DEFAULT_SEED,
            width_bits: 64,
        }
    }
}

impl HashWlConfig {
    #[inline]
    fn truncate(&self, h: u64) -> u64 {
        debug_assert!(self.width_bits >= 1 && self.width_bits <= 64);
        if self.width_bits >= 64 {
            h
        } else {
            h & ((1u64 << self.width_bits) - 1)
        }
    }
}

/// The full run of a hash refinement: colours per node for every round,
/// plus the collision audit.
#[derive(Clone, Debug)]
pub struct HashWlHistory {
    /// `rounds[t][v]` = hash colour of node `v` after `t` rounds (round 0
    /// is the initial colouring of the labels).
    pub rounds: Vec<Vec<u64>>,
    /// First round whose refinement splits no class (detection only —
    /// refinement continues to the requested round).
    pub stable_round: usize,
    /// Number of detected cross-class merges: nodes whose new colour was
    /// already claimed in the same round by a node of a *different*
    /// previous colour (for round 0, a different *label*). Every count is
    /// a proven collision. In-class collisions are undetectable by
    /// construction — but they only coarsen the partition (see module
    /// docs), so whatever the count, the partition history remains a
    /// coarsening of the exact interner history; at 64-bit width any
    /// collision at all is birthday-bound unlikely.
    pub collisions: u64,
}

impl HashWlHistory {
    /// Colours at the stable round.
    pub fn stable(&self) -> &[u64] {
        &self.rounds[self.stable_round]
    }

    /// Colours after exactly `t` rounds (capped at the last recorded round).
    pub fn at_round(&self, t: usize) -> &[u64] {
        let t = t.min(self.rounds.len() - 1);
        &self.rounds[t]
    }

    /// Number of recorded rounds (including round 0).
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Sparse colour histogram at round `t`.
    pub fn histogram(&self, t: usize) -> FxHashMap<u64, u64> {
        histogram_of(self.at_round(t))
    }

    /// Number of colour classes at round `t`.
    pub fn num_classes(&self, t: usize) -> usize {
        count_distinct(self.at_round(t))
    }
}

/// Runs 1-WL with hash colours over a CSR adjacency (see module docs).
///
/// Stateless and `Sync`: unlike [`crate::Refiner`] there is no shared
/// colour universe to mutate, so one refiner can colour a whole dataset
/// from parallel workers.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashRefiner {
    cfg: HashWlConfig,
}

impl HashRefiner {
    /// Refiner with the default seed at full 64-bit width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Refiner with an explicit seed at full 64-bit width.
    pub fn with_seed(seed: u64) -> Self {
        Self::with_config(HashWlConfig {
            seed,
            ..HashWlConfig::default()
        })
    }

    /// Refiner with full control (the `width_bits` collision test hook).
    ///
    /// # Panics
    /// If `width_bits` is outside `1..=64`.
    pub fn with_config(cfg: HashWlConfig) -> Self {
        assert!(
            (1..=64).contains(&cfg.width_bits),
            "width_bits must be in 1..=64"
        );
        HashRefiner { cfg }
    }

    /// The configuration in effect.
    pub fn config(&self) -> HashWlConfig {
        self.cfg
    }

    /// Runs exactly `rounds` refinement rounds over `g` (round 0 hashes
    /// the node labels), scanning adjacency through [`Graph::csr`].
    pub fn refine_rounds(&self, g: &Graph, rounds: usize) -> HashWlHistory {
        self.refine_csr(g.csr(), g.labels(), rounds)
    }

    /// Runs exactly `rounds` refinement rounds over an explicit CSR
    /// adjacency with per-node `labels`.
    ///
    /// # Panics
    /// If `labels.len() != csr.order()`.
    pub fn refine_csr(&self, csr: CsrView<'_>, labels: &[u32], rounds: usize) -> HashWlHistory {
        let _timer = x2v_obs::span("wl/hash_refine_rounds");
        let n = csr.order();
        assert_eq!(labels.len(), n, "one label per node");
        let cfg = self.cfg;
        let initial = x2v_par::map_items(n, HASH_GRAIN, |v| {
            cfg.truncate(mix(cfg.seed ^ SALT_INIT ^ labels[v] as u64))
        });
        // Round 0's "previous partition" is the label partition: two
        // different labels hashing to one truncated colour is just as much
        // a cross-class merge as any later-round collision.
        let mut collisions = detect_cross_class_merges(|v| labels[v] as u64, &initial);
        let mut prev_classes = count_distinct(&initial);
        let mut history = vec![initial];
        let mut stable_round = None;
        for t in 0..rounds {
            x2v_obs::counter_add("wl/refine_rounds_total", 1);
            let prev = &history[t];
            // The new colour is a pure function of (seed, own colour,
            // neighbour colour multiset): the wrapping sum is commutative,
            // so neighbour order cannot matter, and nothing is allocated
            // per node.
            let next = x2v_par::map_items(n, HASH_GRAIN, |v| {
                let own = mix(cfg.seed ^ SALT_OWN ^ prev[v]);
                let mut agg = 0u64;
                for &w in csr.neighbours(v) {
                    agg = agg.wrapping_add(mix(cfg.seed ^ SALT_NEIGH ^ prev[w]));
                }
                cfg.truncate(mix(own ^ mix(agg ^ SALT_AGG)))
            });
            collisions += detect_cross_class_merges(|v| prev[v], &next);
            let classes = count_distinct(&next);
            if stable_round.is_none() && classes == prev_classes {
                stable_round = Some(t);
            }
            prev_classes = classes;
            history.push(next);
        }
        if collisions > 0 {
            x2v_obs::counter_add("wl/hash_collisions", collisions);
        }
        HashWlHistory {
            stable_round: stable_round.unwrap_or(rounds),
            rounds: history,
            collisions,
        }
    }
}

/// Counts nodes whose new colour was already claimed by a node of a
/// different previous colour — each such node is a proven hash collision
/// (the two signatures differ in their own-colour component). `prev_of`
/// supplies the previous colour of a node: the prior round's colours, or
/// the raw labels when auditing the initial colouring.
fn detect_cross_class_merges<F: Fn(usize) -> u64>(prev_of: F, next: &[u64]) -> u64 {
    let mut representative: FxHashMap<u64, u64> = FxHashMap::default();
    let mut merges = 0u64;
    for (v, &c) in next.iter().enumerate() {
        match representative.get(&c) {
            Some(&p) if p != prev_of(v) => merges += 1,
            Some(_) => {}
            None => {
                representative.insert(c, prev_of(v));
            }
        }
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Refiner;
    use x2v_graph::csr::Csr;
    use x2v_graph::generators::{cycle, path, petersen, star};
    use x2v_graph::ops::{disjoint_union, permute};

    /// Maps each colouring to its partition: node → class id in first-seen
    /// order, the representation that is invariant under colour renaming.
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

    #[test]
    fn matches_interner_partition_on_small_graphs() {
        for g in [path(5), cycle(6), star(4), petersen()] {
            let hh = HashRefiner::new().refine_rounds(&g, 4);
            assert_eq!(hh.collisions, 0);
            let mut r = Refiner::new();
            let ih = r.refine_rounds(&g, 4);
            for t in 0..=4 {
                assert_eq!(
                    partition(hh.at_round(t)),
                    partition(ih.at_round(t)),
                    "round {t}"
                );
            }
            assert_eq!(hh.stable_round, ih.stable_round);
        }
    }

    #[test]
    fn colours_comparable_across_graphs_without_shared_state() {
        // The same structure refined by two independent refiner values
        // gets identical colours — no interner needed.
        let a = HashRefiner::new().refine_rounds(&cycle(5), 3);
        let b = HashRefiner::new().refine_rounds(&permute(&cycle(5), &[3, 1, 4, 0, 2]), 3);
        for t in 0..=3 {
            assert_eq!(a.histogram(t), b.histogram(t));
        }
    }

    #[test]
    fn c6_vs_two_triangles_same_histograms() {
        let r = HashRefiner::new();
        let a = r.refine_rounds(&cycle(6), 4);
        let b = r.refine_rounds(&disjoint_union(&cycle(3), &cycle(3)), 4);
        for t in 0..=4 {
            assert_eq!(a.histogram(t), b.histogram(t));
        }
    }

    #[test]
    fn different_seeds_different_universes() {
        let a = HashRefiner::with_seed(1).refine_rounds(&path(4), 2);
        let b = HashRefiner::with_seed(2).refine_rounds(&path(4), 2);
        // Same partitions, different colour ids.
        assert_eq!(partition(a.stable()), partition(b.stable()));
        assert_ne!(a.rounds, b.rounds);
    }

    #[test]
    fn csr_entry_point_matches_graph_entry_point() {
        let g = petersen();
        let c = Csr::from_adjacency(
            &(0..g.order())
                .map(|v| g.neighbours(v).to_vec())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let r = HashRefiner::new();
        let via_graph = r.refine_rounds(&g, 3);
        let via_csr = r.refine_csr(c.view(), g.labels(), 3);
        assert_eq!(via_graph.rounds, via_csr.rounds);
    }

    #[test]
    fn labels_feed_initial_colouring() {
        let a = path(2).with_labels(vec![0, 1]).unwrap();
        let r = HashRefiner::new();
        let h = r.refine_rounds(&a, 0);
        assert_eq!(h.num_classes(0), 2);
    }

    #[test]
    fn tiny_width_forces_detected_collisions() {
        // At 2-bit colours a path with many distinct classes must collide;
        // the detector sees cross-class merges.
        let g = path(40);
        let h = HashRefiner::with_config(HashWlConfig {
            seed: DEFAULT_SEED,
            width_bits: 2,
        })
        .refine_rounds(&g, 8);
        assert!(h.collisions > 0, "2-bit colours must collide on P40");
    }

    #[test]
    #[should_panic(expected = "width_bits")]
    fn zero_width_rejected() {
        let _ = HashRefiner::with_config(HashWlConfig {
            seed: 0,
            width_bits: 0,
        });
    }
}
