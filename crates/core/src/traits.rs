//! The embedding and kernel traits every method in the workspace implements.

use x2v_graph::Graph;

/// A vector embedding of whole graphs: `f: G ↦ ℝ^d`.
///
/// Implementations may be *inductive* (applicable to any graph — hom
/// vectors, WL features, GNNs) or *transductive* (defined only on a fixed
/// training set — graph2vec); transductive implementations document what
/// they do on unseen graphs.
pub trait GraphEmbedding {
    /// Embeds one graph.
    fn embed(&self, g: &Graph) -> Vec<f64>;

    /// The embedding dimension.
    fn dimension(&self) -> usize;

    /// Embeds a dataset (override for batch-efficient implementations).
    fn embed_all(&self, graphs: &[Graph]) -> Vec<Vec<f64>> {
        graphs.iter().map(|g| self.embed(g)).collect()
    }

    /// The induced distance `dist_f(G, H) = ‖f(G) − f(H)‖₂` (the paper's
    /// `dist_f`).
    fn induced_distance(&self, g: &Graph, h: &Graph) -> f64 {
        x2v_linalg::vector::euclidean(&self.embed(g), &self.embed(h))
    }
}

/// A vector embedding of the nodes of a graph: `f: V(G) ↦ ℝ^d`.
pub trait NodeEmbedding {
    /// Embeds every node of `g`; `result[v]` is the vector of node `v`.
    fn embed_nodes(&self, g: &Graph) -> Vec<Vec<f64>>;

    /// The embedding dimension.
    fn dimension(&self) -> usize;
}

/// The Gram entries of a kernel with an explicit feature map, computed from
/// one feature pass over a dataset (see [`GraphKernel::feature_gram`]).
pub struct FeatureGram {
    /// The kernel's parameters (e.g. rounds, discounting, basis size); the
    /// Gram builder binds them into checkpoint fingerprints.
    pub params: Vec<u64>,
    /// `entry(i, j) == eval(&graphs[i], &graphs[j])`, bit for bit.
    pub entry: Box<dyn Fn(usize, usize) -> f64 + Send + Sync>,
}

/// A kernel function on graphs (Section 2.4): symmetric and positive
/// semidefinite, implicitly an inner product of some embedding.
///
/// Gram matrices over a dataset come from one builder in `x2v-kernel`
/// (`x2v_kernel::gram::gram` and its crash-safe twin `gram_resumable`),
/// which takes [`GraphKernel::feature_gram`] when the kernel has an
/// explicit feature map and calls [`GraphKernel::eval`] per pair otherwise.
pub trait GraphKernel {
    /// Evaluates `K(G, H)`.
    fn eval(&self, g: &Graph, h: &Graph) -> f64;

    /// The Gram entries over `graphs` from one pass of the kernel's
    /// explicit feature map, or `None` (the default) when the kernel has
    /// none and the Gram builder must call [`GraphKernel::eval`] per pair.
    fn feature_gram(&self, _graphs: &[Graph]) -> Option<FeatureGram> {
        None
    }
}

/// Every explicit embedding induces a kernel: `K(G, H) = ⟨f(G), f(H)⟩`.
pub struct EmbeddingKernel<E: GraphEmbedding>(pub E);

impl<E: GraphEmbedding> GraphKernel for EmbeddingKernel<E> {
    fn eval(&self, g: &Graph, h: &Graph) -> f64 {
        x2v_linalg::vector::dot(&self.0.embed(g), &self.0.embed(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x2v_graph::generators::{cycle, path};

    struct OrderSize;

    impl GraphEmbedding for OrderSize {
        fn embed(&self, g: &Graph) -> Vec<f64> {
            vec![g.order() as f64, g.size() as f64]
        }
        fn dimension(&self) -> usize {
            2
        }
    }

    #[test]
    fn induced_distance_is_euclidean() {
        let e = OrderSize;
        // C4: (4,4); P4: (4,3) → distance 1.
        assert!((e.induced_distance(&cycle(4), &path(4)) - 1.0).abs() < 1e-12);
        assert_eq!(e.induced_distance(&cycle(5), &cycle(5)), 0.0);
    }

    #[test]
    fn embedding_kernel_is_dot_product() {
        let k = EmbeddingKernel(OrderSize);
        assert_eq!(k.eval(&cycle(4), &path(4)), 16.0 + 12.0);
        assert_eq!(k.eval(&cycle(3), &path(3)), k.eval(&path(3), &cycle(3)));
        assert_eq!(k.eval(&cycle(3), &cycle(3)), 9.0 + 9.0);
    }
}
