//! The direct-product random-walk kernel (Gärtner et al., Section 2.4).
//!
//! `K_×(G, H) = Σ_{k=0}^{K} λ^k · 1ᵀ A_×^k 1`, where `A_×` is the adjacency
//! matrix of the direct (tensor) product `G × H` — its walks are exactly the
//! simultaneous walks in `G` and `H`. The geometric damping `λ` keeps the
//! series summable; we truncate at `K` steps (the tail is `O((λ Δ_G Δ_H)^K)`).
//!
//! The product graph is never materialised: one matrix–vector product with
//! `A_×` costs `O(m_G · m_H / n)`-ish via the neighbour lists.

use x2v_core::GraphKernel;
use x2v_graph::Graph;

/// The truncated geometric random-walk kernel.
pub struct RandomWalkKernel {
    /// Geometric damping factor λ (choose `λ < 1 / (Δ_G Δ_H)` for
    /// convergence of the untruncated series).
    pub lambda: f64,
    /// Truncation length.
    pub steps: usize,
}

impl RandomWalkKernel {
    /// Kernel with damping λ and `steps` walk steps.
    pub fn new(lambda: f64, steps: usize) -> Self {
        assert!(lambda > 0.0, "lambda must be positive");
        RandomWalkKernel { lambda, steps }
    }
}

impl GraphKernel for RandomWalkKernel {
    fn eval(&self, g: &Graph, h: &Graph) -> f64 {
        let (n, m) = (g.order(), h.order());
        // x lives on the product vertex set; labels must match for a
        // product vertex to exist.
        let alive: Vec<bool> = (0..n * m)
            .map(|i| g.label(i / m) == h.label(i % m))
            .collect();
        let mut x: Vec<f64> = alive.iter().map(|&a| if a { 1.0 } else { 0.0 }).collect();
        let mut total: f64 = x.iter().sum(); // k = 0 term
        let mut damp = 1.0;
        for _ in 0..self.steps {
            damp *= self.lambda;
            let mut next = vec![0.0; n * m];
            for (i, &alive_i) in alive.iter().enumerate() {
                if !alive_i {
                    continue;
                }
                let xi = x[i];
                if xi == 0.0 {
                    continue;
                }
                let (u, v) = (i / m, i % m);
                for &gu in g.neighbours(u) {
                    let base = gu * m;
                    for &hv in h.neighbours(v) {
                        if alive[base + hv] {
                            next[base + hv] += xi;
                        }
                    }
                }
            }
            x = next;
            total += damp * x.iter().sum::<f64>();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::{gram, is_psd};
    use x2v_graph::generators::{cycle, path, star};
    use x2v_graph::ops::permute;

    #[test]
    fn product_walks_count_pairs_of_walks() {
        // With λ = 1 and one step, K = |V_×| + walks of length 1 in the
        // product = n·m + Σ (2m_G)(2m_H)/… : for two single edges,
        // product C2×C2 has 4 vertices and each has exactly 1 neighbour.
        let k = RandomWalkKernel::new(1.0, 1);
        let e = path(2);
        // k=0: 4 product vertices; k=1: 4 walks.
        assert_eq!(k.eval(&e, &e), 8.0);
    }

    #[test]
    fn truncation_zero_steps_counts_vertex_pairs() {
        let k = RandomWalkKernel::new(0.5, 0);
        assert_eq!(k.eval(&cycle(3), &cycle(4)), 12.0);
    }

    #[test]
    fn psd_on_dataset() {
        let k = RandomWalkKernel::new(0.05, 6);
        let graphs = vec![cycle(4), cycle(5), path(4), star(3)];
        assert!(is_psd(&gram(&k, &graphs), 1e-7));
    }

    #[test]
    fn isomorphism_invariance() {
        let k = RandomWalkKernel::new(0.1, 5);
        let g = cycle(6);
        let p = permute(&g, &[5, 3, 1, 0, 2, 4]);
        assert!((k.eval(&g, &g) - k.eval(&g, &p)).abs() < 1e-9);
    }

    #[test]
    fn labels_restrict_product() {
        let k = RandomWalkKernel::new(1.0, 2);
        let a = path(2).with_labels(vec![1, 2]).unwrap();
        let b = path(2).with_labels(vec![2, 1]).unwrap();
        // Product vertices: (0,1) labels 1=1 and (1,0) labels 2=2 → 2
        // vertices, one product edge between them.
        // k=0: 2; k=1: 2 walks; k=2: 2 walks.
        assert_eq!(k.eval(&a, &b), 2.0 + 2.0 + 2.0);
    }

    #[test]
    fn damping_reduces_value() {
        let heavy = RandomWalkKernel::new(1.0, 4);
        let light = RandomWalkKernel::new(0.1, 4);
        let g = cycle(5);
        assert!(heavy.eval(&g, &g) > light.eval(&g, &g));
    }
}
