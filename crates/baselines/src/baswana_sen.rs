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

use nas_graph::rng::SplitMix64;
use nas_graph::{EdgeSet, EpochMarks, Graph};

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
}
