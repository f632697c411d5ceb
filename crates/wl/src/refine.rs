//! 1-dimensional Weisfeiler-Leman (colour refinement), Algorithm 1 of the
//! paper, with labelled, edge-labelled and directed variants (Section 3.2).

use crate::interner::{Colour, ColourInterner};
use x2v_graph::hash::FxHashMap;
use x2v_graph::{DiGraph, Graph};

/// Signature tags keep the encodings of different WL variants disjoint in
/// one interner.
const TAG_INIT: u64 = 0;
const TAG_UNDIRECTED: u64 = 1;
const TAG_EDGE_LABELLED: u64 = 2;
const TAG_DIRECTED: u64 = 3;
/// Separator sentinel inside directed signatures.
const SEP: u64 = u64::MAX;

/// The full run of a refinement: colours per node for every round.
#[derive(Clone, Debug)]
pub struct WlHistory {
    /// `rounds[t][v]` = colour of node `v` after `t` refinement rounds
    /// (round 0 is the initial colouring).
    pub rounds: Vec<Vec<Colour>>,
    /// The first round at which the partition is stable: refining
    /// `rounds[stable_round]` splits no class.
    pub stable_round: usize,
}

impl WlHistory {
    /// Colours at the stable round.
    pub fn stable(&self) -> &[Colour] {
        &self.rounds[self.stable_round]
    }

    /// Colours after exactly `t` rounds (capped at the last recorded round —
    /// past stability the partition no longer changes).
    pub fn at_round(&self, t: usize) -> &[Colour] {
        let t = t.min(self.rounds.len() - 1);
        &self.rounds[t]
    }

    /// Number of recorded rounds (including round 0).
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Sparse colour histogram at round `t`.
    pub fn histogram(&self, t: usize) -> FxHashMap<Colour, u64> {
        histogram_of(self.at_round(t))
    }

    /// Number of colour classes at round `t`.
    pub fn num_classes(&self, t: usize) -> usize {
        count_distinct(self.at_round(t))
    }
}

/// Number of distinct colours in a slice.
pub(crate) fn count_distinct(colours: &[Colour]) -> usize {
    let mut v: Vec<Colour> = colours.to_vec();
    v.sort_unstable();
    v.dedup();
    v.len()
}

/// Number of distinct colours across two slices.
pub(crate) fn joint_distinct(a: &[Colour], b: &[Colour]) -> usize {
    let mut v: Vec<Colour> = a.iter().chain(b).copied().collect();
    v.sort_unstable();
    v.dedup();
    v.len()
}

/// Sparse histogram of a colour slice.
pub(crate) fn histogram_of(colours: &[Colour]) -> FxHashMap<Colour, u64> {
    let mut h = FxHashMap::default();
    for &c in colours {
        *h.entry(c).or_insert(0) += 1;
    }
    h
}

/// Runs 1-WL through a shared interner so colours are comparable across
/// graphs and across calls.
#[derive(Default)]
pub struct Refiner {
    interner: ColourInterner,
}

impl Refiner {
    /// Fresh refiner with an empty colour universe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the interner (for unfolding colours into trees).
    pub fn interner(&self) -> &ColourInterner {
        &self.interner
    }

    fn initial_colours(&mut self, labels: &[u32]) -> Vec<Colour> {
        labels
            .iter()
            .map(|&l| self.interner.intern(vec![TAG_INIT, l as u64]))
            .collect()
    }

    /// Minimum nodes per parallel chunk of signature building: small
    /// graphs stay on the inline path where per-node work cannot amortise
    /// a pool handoff. Part of the chunk plan, so it must stay a constant
    /// (never derived from the thread count).
    const SIG_GRAIN: usize = 512;

    fn refine_once(&mut self, g: &Graph, prev: &[Colour]) -> Vec<Colour> {
        x2v_obs::counter_add("wl/refine_rounds_total", 1);
        // Signature building reads only the graph and the previous
        // colouring, so it fans out; interning mutates the shared colour
        // universe and stays serial *in node order*, which keeps colour
        // ids identical to a fully serial refinement.
        let sigs = x2v_par::map_items(g.order(), Self::SIG_GRAIN, |v| {
            let mut sig = Vec::with_capacity(2 + g.neighbours(v).len());
            sig.push(TAG_UNDIRECTED);
            sig.push(prev[v]);
            sig.extend(g.neighbours(v).iter().map(|&w| prev[w]));
            sig[2..].sort_unstable();
            sig
        });
        sigs.into_iter()
            .map(|sig| self.interner.intern(sig))
            .collect()
    }

    /// Runs exactly `rounds` refinement rounds (plus the initial round 0),
    /// recording every intermediate colouring. `stable_round` is detected
    /// along the way but refinement continues to the requested round — this
    /// matters when comparing two graphs that stabilise at different times.
    pub fn refine_rounds(&mut self, g: &Graph, rounds: usize) -> WlHistory {
        let _timer = x2v_obs::span("wl/refine_rounds");
        let mut history = vec![self.initial_colours(g.labels())];
        let mut stable_round = None;
        let mut prev_classes = count_distinct(&history[0]);
        for t in 0..rounds {
            let next = self.refine_once(g, &history[t]);
            let classes = count_distinct(&next);
            if stable_round.is_none() && classes == prev_classes {
                stable_round = Some(t);
            }
            prev_classes = classes;
            history.push(next);
        }
        WlHistory {
            stable_round: stable_round.unwrap_or(rounds),
            rounds: history,
        }
    }

    /// Refines until the partition stabilises (at most `n` rounds are ever
    /// needed; the returned history ends at the stable round).
    pub fn refine_to_stable(&mut self, g: &Graph) -> WlHistory {
        let _timer = x2v_obs::span("wl/refine_to_stable");
        let n = g.order();
        let mut history = vec![self.initial_colours(g.labels())];
        let mut prev_classes = count_distinct(&history[0]);
        for t in 0..=n {
            let next = self.refine_once(g, &history[t]);
            let classes = count_distinct(&next);
            history.push(next);
            if classes == prev_classes {
                x2v_obs::observe("wl/rounds_to_stability", t as f64);
                x2v_obs::observe("wl/colour_classes", classes as f64);
                return WlHistory {
                    stable_round: t,
                    rounds: history,
                };
            }
            prev_classes = classes;
        }
        unreachable!("partition must stabilise within n rounds");
    }

    /// Refines `g` and `h` in lock-step until the *joint* partition (the
    /// partition of the disjoint union — colour refinement is local per
    /// component, so lock-step refinement through a shared interner computes
    /// exactly that) stabilises. Returns the jointly-stable colourings.
    ///
    /// This is the correct basis for cross-graph comparisons: each graph's
    /// own partition may stabilise earlier than the joint one (e.g. two
    /// regular graphs of different degree are each stable at round 0 but
    /// split at round 1 of the joint refinement).
    pub fn joint_stable_colours(&mut self, g: &Graph, h: &Graph) -> (Vec<Colour>, Vec<Colour>) {
        let _timer = x2v_obs::span("wl/joint_stable_colours");
        let mut cg = self.initial_colours(g.labels());
        let mut ch = self.initial_colours(h.labels());
        let mut classes = joint_distinct(&cg, &ch);
        loop {
            let ng = self.refine_once(g, &cg);
            let nh = self.refine_once(h, &ch);
            let next_classes = joint_distinct(&ng, &nh);
            cg = ng;
            ch = nh;
            if next_classes == classes {
                return (cg, ch);
            }
            classes = next_classes;
        }
    }

    /// Whether 1-WL distinguishes `g` and `h` (different multisets of
    /// colours in the jointly-stable colouring).
    pub fn distinguishes(&mut self, g: &Graph, h: &Graph) -> bool {
        if g.order() != h.order() {
            return true;
        }
        let (cg, ch) = self.joint_stable_colours(g, h);
        histogram_of(&cg) != histogram_of(&ch)
    }

    /// Whether 1-WL gives nodes `v ∈ g` and `w ∈ h` the same stable colour —
    /// the node-level equivalence of Theorem 4.14(2), decided on the
    /// jointly-stable colouring.
    pub fn same_stable_colour(&mut self, g: &Graph, v: usize, h: &Graph, w: usize) -> bool {
        let (cg, ch) = self.joint_stable_colours(g, h);
        cg[v] == ch[w]
    }

    /// Edge-labelled 1-WL: `edge_label(u, v)` must be symmetric. Two nodes
    /// split if they differ in the number of `λ`-labelled neighbours of some
    /// colour (Section 3.2).
    pub fn refine_edge_labelled<F>(&mut self, g: &Graph, edge_label: F, rounds: usize) -> WlHistory
    where
        F: Fn(usize, usize) -> u32 + Sync,
    {
        let mut history = vec![self.initial_colours(g.labels())];
        let mut stable_round = None;
        let mut prev_classes = count_distinct(&history[0]);
        for t in 0..rounds {
            let prev = &history[t];
            let sigs = x2v_par::map_items(g.order(), Self::SIG_GRAIN, |v| {
                let mut pairs: Vec<(u64, u64)> = g
                    .neighbours(v)
                    .iter()
                    .map(|&w| (edge_label(v, w) as u64, prev[w]))
                    .collect();
                pairs.sort_unstable();
                let mut sig = Vec::with_capacity(2 + 2 * pairs.len());
                sig.push(TAG_EDGE_LABELLED);
                sig.push(prev[v]);
                for (l, c) in pairs {
                    sig.push(l);
                    sig.push(c);
                }
                sig
            });
            let next: Vec<Colour> = sigs
                .into_iter()
                .map(|sig| self.interner.intern(sig))
                .collect();
            let classes = count_distinct(&next);
            if stable_round.is_none() && classes == prev_classes {
                stable_round = Some(t);
            }
            prev_classes = classes;
            history.push(next);
        }
        WlHistory {
            stable_round: stable_round.unwrap_or(rounds),
            rounds: history,
        }
    }

    /// Directed 1-WL: in- and out-neighbourhoods are refined separately
    /// (Section 3.2).
    pub fn refine_directed(&mut self, d: &DiGraph, rounds: usize) -> WlHistory {
        let mut history = vec![self.initial_colours(d.labels())];
        let mut stable_round = None;
        let mut prev_classes = count_distinct(&history[0]);
        for t in 0..rounds {
            let prev = &history[t];
            let sigs = x2v_par::map_items(d.order(), Self::SIG_GRAIN, |v| {
                let mut inn: Vec<Colour> = d.in_neighbours(v).iter().map(|&w| prev[w]).collect();
                let mut out: Vec<Colour> = d.out_neighbours(v).iter().map(|&w| prev[w]).collect();
                inn.sort_unstable();
                out.sort_unstable();
                let mut sig = Vec::with_capacity(4 + inn.len() + out.len());
                sig.push(TAG_DIRECTED);
                sig.push(prev[v]);
                sig.push(SEP);
                sig.extend_from_slice(&inn);
                sig.push(SEP);
                sig.extend_from_slice(&out);
                sig
            });
            let next: Vec<Colour> = sigs
                .into_iter()
                .map(|sig| self.interner.intern(sig))
                .collect();
            let classes = count_distinct(&next);
            if stable_round.is_none() && classes == prev_classes {
                stable_round = Some(t);
            }
            prev_classes = classes;
            history.push(next);
        }
        WlHistory {
            stable_round: stable_round.unwrap_or(rounds),
            rounds: history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{circulant, complete, cycle, path, petersen, star};
    use x2v_graph::ops::{disjoint_union, permute};

    #[test]
    fn path_refinement_partition() {
        let mut r = Refiner::new();
        let h = r.refine_to_stable(&path(5));
        // P5 stable classes: {ends}, {second}, {middle}
        let c = h.stable();
        assert_eq!(c[0], c[4]);
        assert_eq!(c[1], c[3]);
        assert_ne!(c[0], c[1]);
        assert_ne!(c[1], c[2]);
        assert_eq!(h.num_classes(h.stable_round), 3);
    }

    #[test]
    fn regular_graph_never_splits() {
        let mut r = Refiner::new();
        let h = r.refine_to_stable(&cycle(8));
        assert_eq!(h.stable_round, 0);
        assert_eq!(h.num_classes(0), 1);
    }

    #[test]
    fn classic_c6_vs_2c3_not_distinguished() {
        let mut r = Refiner::new();
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        assert!(!r.distinguishes(&c6, &tt));
    }

    #[test]
    fn distinguishes_by_degree() {
        let mut r = Refiner::new();
        assert!(r.distinguishes(&path(4), &star(3)));
        assert!(r.distinguishes(&cycle(4), &path(4)));
    }

    #[test]
    fn regular_same_degree_same_order_indistinguishable() {
        // 4-regular circulants on 8 nodes with different jump sets:
        // 1-WL sees only "4-regular on 8 nodes".
        let mut r = Refiner::new();
        let a = circulant(8, &[1, 2]);
        let b = circulant(8, &[1, 3]);
        assert!(!r.distinguishes(&a, &b));
    }

    #[test]
    fn isomorphism_invariance() {
        let mut r = Refiner::new();
        let g = petersen();
        let p = permute(&g, &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
        assert!(!r.distinguishes(&g, &p));
    }

    #[test]
    fn labels_feed_initial_colouring() {
        let mut r = Refiner::new();
        let a = path(2).with_labels(vec![0, 1]).unwrap();
        let b = path(2).with_labels(vec![0, 0]).unwrap();
        assert!(r.distinguishes(&a, &b));
    }

    #[test]
    fn colours_comparable_across_graphs() {
        // The same structure refined separately gets identical colours.
        let mut r = Refiner::new();
        let h1 = r.refine_rounds(&path(3), 2);
        let h2 = r.refine_rounds(&path(3), 2);
        assert_eq!(h1.rounds, h2.rounds);
        // The centre of P3 has the degree-2 colour also seen in P5's centre
        // at round 1 (same 1-ball unfolding).
        let h5 = r.refine_rounds(&path(5), 1);
        assert_eq!(h1.at_round(1)[1], h5.at_round(1)[2]);
    }

    #[test]
    fn node_level_stable_colour() {
        let mut r = Refiner::new();
        // End nodes of P4 and P4 again: same colour; end vs middle: not.
        let p = path(4);
        assert!(r.same_stable_colour(&p, 0, &p, 3));
        assert!(!r.same_stable_colour(&p, 0, &p, 1));
        // Every node of C6 looks like every node of the 2×C3 graph.
        let c6 = cycle(6);
        let tt = disjoint_union(&cycle(3), &cycle(3));
        assert!(r.same_stable_colour(&c6, 0, &tt, 0));
    }

    #[test]
    fn stable_round_bounds() {
        let mut r = Refiner::new();
        // Path P_n needs about n/2 rounds.
        let h = r.refine_to_stable(&path(9));
        assert!(h.stable_round >= 3 && h.stable_round <= 5);
        // Complete graph: instantly stable.
        assert_eq!(r.refine_to_stable(&complete(5)).stable_round, 0);
    }

    #[test]
    fn directed_variant_uses_orientation() {
        let mut r = Refiner::new();
        // Directed path 0→1→2: all three nodes differ.
        let d = x2v_graph::DiGraph::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        let h = r.refine_directed(&d, 3);
        let c = h.stable();
        assert_ne!(c[0], c[2], "source vs sink must split");
        // Undirected 1-WL on the underlying path merges the two ends.
        let hu = r.refine_to_stable(&d.to_undirected());
        assert_eq!(hu.stable()[0], hu.stable()[2]);
    }

    #[test]
    fn edge_labels_split_classes() {
        let mut r = Refiner::new();
        // P3 with differently-labelled edges: the two end nodes split.
        let g = path(3);
        let labelled = r.refine_edge_labelled(&g, |u, v| (u + v) as u32, 3);
        let c = labelled.stable();
        assert_ne!(c[0], c[2]);
        // With constant edge labels it matches plain 1-WL's partition.
        let plain = r.refine_edge_labelled(&g, |_, _| 0, 3);
        let c2 = plain.stable();
        assert_eq!(c2[0], c2[2]);
    }

    #[test]
    fn histogram_counts_sum_to_order() {
        let mut r = Refiner::new();
        let g = petersen();
        let h = r.refine_rounds(&g, 3);
        for t in 0..h.num_rounds() {
            let total: u64 = h.histogram(t).values().sum();
            assert_eq!(total, 10);
        }
    }
}

#[cfg(test)]
mod joint_refinement_regression {
    use super::*;
    use x2v_graph::generators::{circulant, cycle};

    #[test]
    fn regular_graphs_of_different_degree_are_distinguished() {
        // Both are vertex-transitive, so each graph's own partition is
        // stable at round 0; only the joint refinement splits them. This is
        // the regression test for comparing at per-graph stable rounds.
        let mut r = Refiner::new();
        let c8 = cycle(8);
        let c812 = circulant(8, &[1, 2]);
        assert!(r.distinguishes(&c8, &c812));
        assert!(!r.same_stable_colour(&c8, 0, &c812, 0));
    }

    #[test]
    fn joint_colours_agree_with_disjoint_union_refinement() {
        use x2v_graph::ops::disjoint_union;
        let g = cycle(6);
        let h = x2v_graph::generators::path(6);
        let mut r = Refiner::new();
        let (cg, ch) = r.joint_stable_colours(&g, &h);
        // Refining the disjoint union must induce the same partition.
        let u = disjoint_union(&g, &h);
        let mut r2 = Refiner::new();
        let hu = r2.refine_to_stable(&u);
        let cu = hu.stable();
        for v in 0..6 {
            for w in 0..6 {
                assert_eq!(cg[v] == ch[w], cu[v] == cu[6 + w], "v={v} w={w}");
                assert_eq!(cg[v] == cg[w], cu[v] == cu[w]);
            }
        }
    }
}

#[cfg(test)]
mod scale_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Colour refinement at moderate scale: a 50k-node sparse random graph
    /// refines to stability in seconds. Run with `--ignored` (slow in
    /// debug builds).
    #[test]
    #[ignore = "scale test; run with --ignored --release"]
    fn refine_fifty_thousand_nodes() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        // Sparse: ~4 edges per node via random matching rounds.
        let mut edges = Vec::with_capacity(2 * n);
        use rand::Rng;
        for u in 0..n {
            for _ in 0..2 {
                let v = rng.random_range(0..n);
                if v != u {
                    edges.push((u.min(v), u.max(v)));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let g = x2v_graph::Graph::from_edges(n, &edges).unwrap();
        let mut r = Refiner::new();
        let h = r.refine_to_stable(&g);
        // Random sparse graphs individualise almost completely.
        assert!(h.num_classes(h.stable_round) > n / 2);
    }
}
