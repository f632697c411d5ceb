//! The shortest-path graph kernel (Borgwardt–Kriegel, Section 2.4).
//!
//! Feature map: the histogram of triples
//! `(label(u), label(v), dist_G(u, v))` over unordered node pairs at finite
//! distance; the kernel is the dot product of histograms.

use x2v_core::GraphKernel;
use x2v_graph::dist::{bfs_distances, INF};
use x2v_graph::hash::FxHashMap;
use x2v_graph::Graph;

/// The shortest-path kernel.
#[derive(Default)]
pub struct ShortestPathKernel {
    /// Optional cap on path lengths counted (`None` = all finite).
    pub max_distance: Option<usize>,
}

impl ShortestPathKernel {
    /// Kernel counting all finite shortest-path triples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Histogram of `(min label, max label, distance)` triples.
    pub fn features(&self, g: &Graph) -> FxHashMap<(u32, u32, usize), u64> {
        let mut h = FxHashMap::default();
        for u in 0..g.order() {
            let d = bfs_distances(g, u);
            for v in (u + 1)..g.order() {
                if d[v] == INF {
                    continue;
                }
                if let Some(cap) = self.max_distance {
                    if d[v] > cap {
                        continue;
                    }
                }
                let (a, b) = (g.label(u).min(g.label(v)), g.label(u).max(g.label(v)));
                *h.entry((a, b, d[v])).or_insert(0) += 1;
            }
        }
        h
    }
}

impl GraphKernel for ShortestPathKernel {
    fn eval(&self, g: &Graph, h: &Graph) -> f64 {
        let fg = self.features(g);
        let fh = self.features(h);
        let (small, large) = if fg.len() <= fh.len() {
            (&fg, &fh)
        } else {
            (&fh, &fg)
        };
        small
            .iter()
            .filter_map(|(k, &a)| large.get(k).map(|&b| a as f64 * b as f64))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::{gram, is_psd};
    use x2v_graph::generators::{cycle, path, petersen, star};
    use x2v_graph::ops::permute;

    #[test]
    fn features_of_path() {
        // P3: pairs (0,1):1, (1,2):1, (0,2):2 → one pair at distance 2,
        // two at distance 1.
        let k = ShortestPathKernel::new();
        let f = k.features(&path(3));
        assert_eq!(f[&(0, 0, 1)], 2);
        assert_eq!(f[&(0, 0, 2)], 1);
    }

    #[test]
    fn self_kernel_counts_squares() {
        let k = ShortestPathKernel::new();
        // P3 features (2, 1) → self kernel 4 + 1 = 5.
        assert_eq!(k.eval(&path(3), &path(3)), 5.0);
    }

    #[test]
    fn psd_and_invariant() {
        let k = ShortestPathKernel::new();
        let graphs = vec![cycle(5), path(5), star(4), petersen()];
        assert!(is_psd(&gram(&k, &graphs), 1e-8));
        let g = petersen();
        let p = permute(&g, &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(k.eval(&g, &g), k.eval(&g, &p));
    }

    #[test]
    fn labels_enter_features() {
        let k = ShortestPathKernel::new();
        let a = path(2).with_labels(vec![1, 2]).unwrap();
        let b = path(2).with_labels(vec![1, 1]).unwrap();
        assert_eq!(k.eval(&a, &b), 0.0);
        assert_eq!(k.eval(&a, &a), 1.0);
    }

    #[test]
    fn distance_cap() {
        let capped = ShortestPathKernel {
            max_distance: Some(1),
        };
        // Only adjacent pairs counted: P4 has 3.
        let f = capped.features(&path(4));
        assert_eq!(f.values().sum::<u64>(), 3);
    }

    #[test]
    fn disconnected_pairs_ignored() {
        let k = ShortestPathKernel::new();
        let g = x2v_graph::ops::disjoint_union(&path(2), &path(2));
        let f = k.features(&g);
        assert_eq!(f.values().sum::<u64>(), 2);
    }
}
