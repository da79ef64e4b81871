//! The Baswana–Sen randomized `(2κ−1)`-multiplicative spanner (RSA 2007),
//! specialized to unweighted graphs.
//!
//! `κ−1` clustering rounds: each round samples surviving cluster centers
//! with probability `n^{−1/κ}`; unsampled vertices either join an adjacent
//! sampled cluster (adding one edge) or settle, adding one edge to *every*
//! adjacent cluster. A final round connects every vertex to each adjacent
//! surviving cluster. Expected size `O(κ·n^{1+1/κ})`, stretch `2κ−1`.
//!
//! This is the classical multiplicative baseline the paper's introduction
//! positions near-additive spanners against.
//!
//! [`baswana_sen_weighted`] is the algorithm as published — wherever the
//! unweighted specialization adds *an* edge to an adjacent cluster, the
//! weighted one adds the **lightest** such edge. With uniform weights and
//! the same seed the two produce identical edge sets.

use nas_graph::rng::SplitMix64;
use nas_graph::{EdgeSet, EpochMarks, Graph, WeightedGraph};

/// Builds a `(2κ−1)`-spanner of `g` with the Baswana–Sen algorithm.
///
/// # Panics
///
/// Panics if `kappa == 0`.
pub fn baswana_sen(g: &Graph, kappa: u32, seed: u64) -> EdgeSet {
    assert!(kappa >= 1, "kappa must be positive");
    let n = g.num_vertices();
    let mut rng = SplitMix64::new(seed);
    let mut h = EdgeSet::new(n);
    if n == 0 {
        return h;
    }
    let p = (n as f64).powf(-1.0 / kappa as f64);

    // cluster[v]: the center of v's cluster, or None once v has settled.
    let mut cluster: Vec<Option<u32>> = (0..n).map(|v| Some(v as u32)).collect();
    // Per-vertex "adjacent clusters already connected" dedup, on the flat
    // plane's epoch marks (O(1) clear per vertex instead of a fresh
    // HashSet; identical edge insertion order, since the set was only ever
    // probed, never iterated).
    let mut seen = EpochMarks::new();

    for _round in 1..kappa {
        // Sample surviving cluster centers.
        let mut sampled = vec![false; n];
        for c in 0..n {
            if cluster[c] == Some(c as u32) && rng.next_bool(p) {
                sampled[c] = true;
            }
        }
        let mut next_cluster = cluster.clone();
        for v in 0..n {
            let Some(cv) = cluster[v] else { continue };
            if sampled[cv as usize] {
                continue; // cluster survives; v stays put
            }
            // Does v neighbor a sampled cluster?
            let mut joined = false;
            for &u in g.neighbors(v) {
                let u = u as usize;
                if let Some(cu) = cluster[u] {
                    if sampled[cu as usize] {
                        h.insert(v, u);
                        next_cluster[v] = Some(cu);
                        joined = true;
                        break;
                    }
                }
            }
            if !joined {
                // Settle: one edge to every adjacent cluster.
                seen.begin(n);
                for &u in g.neighbors(v) {
                    let u = u as usize;
                    if let Some(cu) = cluster[u] {
                        if seen.mark(cu as usize) {
                            h.insert(v, u);
                        }
                    }
                }
                next_cluster[v] = None;
            }
        }
        cluster = next_cluster;
    }

    // Final round: every vertex adds one edge to each adjacent surviving
    // cluster.
    for v in 0..n {
        seen.begin(n);
        for &u in g.neighbors(v) {
            let u = u as usize;
            if let Some(cu) = cluster[u] {
                if seen.mark(cu as usize) {
                    h.insert(v, u);
                }
            }
        }
    }
    h
}

/// Builds a `(2κ−1)`-spanner of a **weighted** graph with the
/// Baswana–Sen algorithm.
///
/// Identical clustering structure and RNG draws as [`baswana_sen`] (one
/// sampling decision per surviving center per round — the weights never
/// touch the randomness), but every edge choice picks the *lightest* edge
/// into the cluster in question, ties broken by first encounter in
/// adjacency order. That is exactly the published weighted rule, and it
/// makes the uniform-weight run coincide with the unweighted one edge for
/// edge (pinned by a test below).
///
/// The per-cluster lightest-edge registers live on [`EpochMarks`] plus a
/// touched list: O(1) logical clear per vertex, and the final insertion
/// order is the first-encounter order of the clusters, so the result is
/// deterministic per seed.
///
/// # Panics
///
/// Panics if `kappa == 0`.
pub fn baswana_sen_weighted(g: &WeightedGraph, kappa: u32, seed: u64) -> EdgeSet {
    assert!(kappa >= 1, "kappa must be positive");
    let n = g.num_vertices();
    let mut rng = SplitMix64::new(seed);
    let mut h = EdgeSet::new(n);
    if n == 0 {
        return h;
    }
    let p = (n as f64).powf(-1.0 / kappa as f64);

    // cluster[v]: the center of v's cluster, or None once v has settled.
    let mut cluster: Vec<Option<u32>> = (0..n).map(|v| Some(v as u32)).collect();
    // Per-cluster lightest-edge registers, valid while marked in `seen`;
    // `touched` remembers which centers to read back, in encounter order.
    let mut seen = EpochMarks::new();
    let mut best_w: Vec<u32> = vec![0; n];
    let mut best_u: Vec<u32> = vec![0; n];
    let mut touched: Vec<u32> = Vec::new();

    for _round in 1..kappa {
        // Sample surviving cluster centers (same draws as the unweighted
        // specialization).
        let mut sampled = vec![false; n];
        for c in 0..n {
            if cluster[c] == Some(c as u32) && rng.next_bool(p) {
                sampled[c] = true;
            }
        }
        let mut next_cluster = cluster.clone();
        for v in 0..n {
            let Some(cv) = cluster[v] else { continue };
            if sampled[cv as usize] {
                continue; // cluster survives; v stays put
            }
            // Lightest edge into any adjacent sampled cluster (strict `<`:
            // ties keep the first-encountered edge).
            let mut join: Option<(u32, u32, u32)> = None; // (w, u, center)
            for (u, w) in g.neighbors_weighted(v) {
                if let Some(cu) = cluster[u as usize] {
                    if sampled[cu as usize] && join.is_none_or(|(bw, _, _)| w < bw) {
                        join = Some((w, u, cu));
                    }
                }
            }
            if let Some((_, u, cu)) = join {
                h.insert(v, u as usize);
                next_cluster[v] = Some(cu);
            } else {
                // Settle: the lightest edge to every adjacent cluster.
                seen.begin(n);
                touched.clear();
                for (u, w) in g.neighbors_weighted(v) {
                    if let Some(cu) = cluster[u as usize] {
                        let c = cu as usize;
                        if seen.mark(c) {
                            touched.push(cu);
                            best_w[c] = w;
                            best_u[c] = u;
                        } else if w < best_w[c] {
                            best_w[c] = w;
                            best_u[c] = u;
                        }
                    }
                }
                for &c in &touched {
                    h.insert(v, best_u[c as usize] as usize);
                }
                next_cluster[v] = None;
            }
        }
        cluster = next_cluster;
    }

    // Final round: every vertex adds the lightest edge to each adjacent
    // surviving cluster.
    for v in 0..n {
        seen.begin(n);
        touched.clear();
        for (u, w) in g.neighbors_weighted(v) {
            if let Some(cu) = cluster[u as usize] {
                let c = cu as usize;
                if seen.mark(c) {
                    touched.push(cu);
                    best_w[c] = w;
                    best_u[c] = u;
                } else if w < best_w[c] {
                    best_w[c] = w;
                    best_u[c] = u;
                }
            }
        }
        for &c in &touched {
            h.insert(v, best_u[c as usize] as usize);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use nas_graph::{generators, DistanceBatch};

    #[test]
    fn is_subgraph() {
        let g = generators::gnp(80, 0.15, 3);
        let h = baswana_sen(&g, 3, 7);
        assert!(h.verify_subgraph_of(&g).is_ok());
    }

    #[test]
    fn stretch_bound_holds() {
        let pool = nas_par::global();
        let all: Vec<usize> = (0..50).collect();
        for seed in 0..5 {
            let g = generators::connected_gnp(50, 0.15, seed);
            let dg = DistanceBatch::from_sources(&g, &all, pool);
            for kappa in [2u32, 3, 4] {
                let h = baswana_sen(&g, kappa, seed * 31 + kappa as u64);
                let dh = DistanceBatch::from_sources(&h.to_graph(), &all, pool);
                let t = 2 * kappa - 1;
                for u in 0..50 {
                    for v in u + 1..50 {
                        let Some(d) = dg.get(u, v) else { continue };
                        let s = dh
                            .get(u, v)
                            .unwrap_or_else(|| panic!("pair ({u},{v}) disconnected in spanner"));
                        assert!(s <= t * d, "stretch violated: {s} > {t}·{d}");
                    }
                }
            }
        }
    }

    #[test]
    fn kappa_one_returns_whole_graph() {
        let g = generators::complete(10);
        let h = baswana_sen(&g, 1, 1);
        assert_eq!(h.len(), g.num_edges());
    }

    #[test]
    fn sparsifies_dense_graphs() {
        let g = generators::complete(100);
        let h = baswana_sen(&g, 3, 5);
        // 4950 edges down to O(κ n^{4/3}) ≈ well under half.
        assert!(
            h.len() < g.num_edges() / 2,
            "expected sparsification, got {} of {}",
            h.len(),
            g.num_edges()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::gnp(60, 0.2, 11);
        assert_eq!(baswana_sen(&g, 3, 42), baswana_sen(&g, 3, 42));
    }

    #[test]
    fn empty_graph() {
        let g = nas_graph::GraphBuilder::new(0).build();
        assert!(baswana_sen(&g, 3, 1).is_empty());
    }

    /// With uniform weights the weighted algorithm is the unweighted one:
    /// same RNG draws, and every lightest-edge choice degenerates to the
    /// first-encountered edge.
    #[test]
    fn uniform_weights_reproduce_unweighted_run() {
        for seed in 0..6u64 {
            let g = generators::gnp(60, 0.15, seed);
            for c in [1u32, 9] {
                let wg = WeightedGraph::uniform(g.clone(), c);
                for kappa in [2u32, 3, 4] {
                    assert_eq!(
                        baswana_sen_weighted(&wg, kappa, seed * 31 + kappa as u64),
                        baswana_sen(&g, kappa, seed * 31 + kappa as u64),
                        "seed {seed} weight {c} kappa {kappa}"
                    );
                }
            }
        }
    }

    /// The `(2κ−1)` multiplicative bound holds over *weighted* distances.
    #[test]
    fn weighted_stretch_bound_holds() {
        use nas_graph::weighted::WeightDist;
        for seed in 0..4u64 {
            let g = generators::weighted_gnp(40, 0.15, seed, WeightDist::Uniform { lo: 1, hi: 12 });
            for kappa in [2u32, 3] {
                let h = g.subgraph(baswana_sen_weighted(&g, kappa, seed + 5).iter());
                let t = (2 * kappa - 1) as u64;
                for u in 0..40 {
                    let dg = nas_graph::sssp::dijkstra(&g, [u]);
                    let dh = nas_graph::sssp::dijkstra(&h, [u]);
                    for v in 0..40 {
                        let Some(d) = dg.get(v) else { continue };
                        let s = dh
                            .get(v)
                            .unwrap_or_else(|| panic!("pair ({u},{v}) disconnected in spanner"));
                        assert!(
                            s as u64 <= t * d as u64,
                            "stretch violated: {s} > {t}·{d} (seed {seed} kappa {kappa})"
                        );
                    }
                }
            }
        }
    }

    /// The weighted variant is a subgraph and deterministic per seed.
    #[test]
    fn weighted_is_subgraph_and_deterministic() {
        use nas_graph::weighted::WeightDist;
        let g = generators::weighted_gnp(80, 0.15, 3, WeightDist::Uniform { lo: 1, hi: 100 });
        let h = baswana_sen_weighted(&g, 3, 7);
        assert!(h.verify_subgraph_of(g.graph()).is_ok());
        assert_eq!(h, baswana_sen_weighted(&g, 3, 7));
    }

    /// The lightest-edge rule is observable: once a cluster has grown to
    /// two vertices, a member with two ports into it connects through the
    /// cheap one — where the unweighted specialization takes the
    /// first-encountered port.
    #[test]
    fn picks_lightest_edge_into_each_cluster() {
        // Triangle 0-1-2 with w(0,1)=5, w(0,2)=10, w(1,2)=1. Pick a seed
        // whose first κ=2 round samples exactly center 0: vertices 1 and 2
        // join cluster {0}, and in the final round vertex 1 reaches that
        // cluster through either 0 (w 5, encountered first) or 2 (w 1).
        let p = (3f64).powf(-0.5);
        let seed = (0..1000u64)
            .find(|&s| {
                let mut r = SplitMix64::new(s);
                let draws = [r.next_bool(p), r.next_bool(p), r.next_bool(p)];
                draws == [true, false, false]
            })
            .expect("some seed samples exactly center 0");
        let mut b = nas_graph::WeightedGraphBuilder::new(3);
        b.add_edge(0, 1, 5);
        b.add_edge(0, 2, 10);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let weighted = baswana_sen_weighted(&g, 2, seed);
        let unweighted = baswana_sen(g.graph(), 2, seed);
        assert!(
            weighted.contains(1, 2),
            "vertex 1 must use its weight-1 port into the cluster"
        );
        assert!(
            !unweighted.contains(1, 2),
            "the unweighted run takes the first-encountered port instead"
        );
    }
}
