//! The greedy `(2κ−1)`-spanner (Althöfer–Das–Dobkin–Joseph–Soares).
//!
//! Scans the edges (in sorted order — all weights are 1) and keeps an edge
//! iff the spanner built so far does not already connect its endpoints
//! within `2κ−1` hops. The result matches the existential size bound
//! `O(n^{1+1/κ})` and is the quality yardstick for the size experiments.

use nas_graph::{EdgeSet, EpochMarks, Graph};
use std::collections::VecDeque;

/// Builds the greedy `(2κ−1)`-spanner of `g`.
///
/// Runs in `O(m·(n + m_H))` — intended for the experiment sizes, not for
/// huge graphs.
///
/// The per-edge bounded BFS probe runs on the flat distance plane's
/// [`EpochMarks`]: the visited set clears in O(1) between the `m` probes
/// (epoch bump) instead of rewinding a touched list, and the distance
/// value of a vertex is only meaningful while it is marked.
///
/// # Panics
///
/// Panics if `kappa == 0`.
pub fn greedy_spanner(g: &Graph, kappa: u32) -> EdgeSet {
    assert!(kappa >= 1, "kappa must be positive");
    let n = g.num_vertices();
    let threshold = 2 * kappa - 1;
    let mut h = EdgeSet::new(n);
    // Incremental adjacency of H for the bounded BFS.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut visited = EpochMarks::new();
    let mut dist: Vec<u32> = vec![0; n];
    let mut queue: VecDeque<usize> = VecDeque::new();

    for (u, v) in g.edges() {
        // Bounded BFS from u in H: is v within `threshold` hops?
        let mut within = false;
        visited.begin(n);
        visited.mark(u);
        dist[u] = 0;
        queue.clear();
        queue.push_back(u);
        while let Some(x) = queue.pop_front() {
            let dx = dist[x];
            if x == v {
                within = true;
                break;
            }
            if dx == threshold {
                continue;
            }
            for &y in &adj[x] {
                let y = y as usize;
                if visited.mark(y) {
                    dist[y] = dx + 1;
                    queue.push_back(y);
                }
            }
        }

        if !within {
            h.insert(u, v);
            adj[u].push(v as u32);
            adj[v].push(u as u32);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use nas_graph::{generators, DistanceBatch};

    #[test]
    fn stretch_bound_holds() {
        let g = generators::connected_gnp(50, 0.15, 3);
        let pool = nas_par::global();
        let all: Vec<usize> = (0..50).collect();
        let dg = DistanceBatch::from_sources(&g, &all, pool);
        for kappa in [2u32, 3] {
            let h = greedy_spanner(&g, kappa);
            let dh = DistanceBatch::from_sources(&h.to_graph(), &all, pool);
            let t = 2 * kappa - 1;
            for u in 0..50 {
                for v in u + 1..50 {
                    let Some(d) = dg.get(u, v) else { continue };
                    let s = dh.get(u, v).expect("greedy spanner preserves connectivity");
                    assert!(s <= t * d, "stretch violated at ({u},{v}): {s} > {t}·{d}");
                }
            }
        }
    }

    #[test]
    fn kappa_one_keeps_everything() {
        let g = generators::complete(12);
        let h = greedy_spanner(&g, 1);
        assert_eq!(h.len(), g.num_edges());
    }

    #[test]
    fn girth_property() {
        // The greedy (2κ−1)-spanner has girth > 2κ (every kept edge closes
        // no short cycle). For κ = 2 on K_n: girth > 4.
        let g = generators::complete(20);
        let h = greedy_spanner(&g, 2).to_graph();
        // No 3- or 4-cycles: count via neighbor intersection.
        for u in 0..20 {
            for &v in h.neighbors(u) {
                let v = v as usize;
                let common = h
                    .neighbors(u)
                    .iter()
                    .filter(|&&w| h.has_edge(w as usize, v))
                    .count();
                assert_eq!(common, 0, "triangle through ({u},{v})");
            }
        }
    }

    #[test]
    fn sparsifies_clique() {
        let g = generators::complete(64);
        let h = greedy_spanner(&g, 3);
        // Existential bound ~ n^{1+1/3}: far below 2016.
        assert!(h.len() < 500, "greedy kept {} edges", h.len());
    }

    #[test]
    fn tree_is_kept_whole() {
        let g = generators::binary_tree(31);
        let h = greedy_spanner(&g, 3);
        assert_eq!(h.len(), 30, "a tree has no redundant edges");
    }

    #[test]
    fn deterministic() {
        let g = generators::gnp(40, 0.3, 8);
        assert_eq!(greedy_spanner(&g, 2), greedy_spanner(&g, 2));
    }
}
