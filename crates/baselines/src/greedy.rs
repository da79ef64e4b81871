//! The greedy `(2κ−1)`-spanner (Althöfer–Das–Dobkin–Joseph–Soares).
//!
//! Scans the edges (in sorted order — all weights are 1) and keeps an edge
//! iff the spanner built so far does not already connect its endpoints
//! within `2κ−1` hops. The result matches the existential size bound
//! `O(n^{1+1/κ})` and is the quality yardstick for the size experiments.
//!
//! [`greedy_spanner_weighted`] is the weighted original of the algorithm:
//! edges ascend by weight and the probe is a bounded Dijkstra instead of a
//! bounded BFS; with uniform weights it reproduces [`greedy_spanner`]
//! exactly.

use nas_graph::{EdgeSet, EpochMarks, Graph, WeightedGraph};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

/// Builds the greedy `(2κ−1)`-spanner of a **weighted** graph: the
/// original Althöfer et al. algorithm.
///
/// Edges are scanned in nondecreasing weight order (ties broken
/// lexicographically, so the result is deterministic) and an edge
/// `(u, v, w)` is kept iff the spanner built so far has
/// `d_H(u, v) > (2κ−1)·w`. The per-edge probe is a Dijkstra on the
/// incremental spanner adjacency, bounded by `(2κ−1)·w` (computed in
/// `u64`, so no overflow for any `u32` weight): vertices beyond the bound
/// are never pushed. Like the unweighted probe it runs on [`EpochMarks`],
/// with a vertex's distance entry only meaningful while marked.
///
/// With uniform weights this reproduces [`greedy_spanner`] exactly (same
/// edge order, equivalent keep predicate) — pinned by a test below.
///
/// # Panics
///
/// Panics if `kappa == 0`.
pub fn greedy_spanner_weighted(g: &WeightedGraph, kappa: u32) -> EdgeSet {
    assert!(kappa >= 1, "kappa must be positive");
    let n = g.num_vertices();
    let threshold = (2 * kappa - 1) as u64;
    let mut edges: Vec<(u32, usize, usize)> =
        g.edges_weighted().map(|(u, v, w)| (w, u, v)).collect();
    edges.sort_unstable();

    let mut h = EdgeSet::new(n);
    // Incremental weighted adjacency of H for the bounded Dijkstra.
    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    let mut visited = EpochMarks::new();
    let mut dist: Vec<u64> = vec![0; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();

    for (w, u, v) in edges {
        let bound = threshold * w as u64;
        // Bounded Dijkstra from u in H: is d_H(u, v) ≤ bound?
        let mut within = false;
        visited.begin(n);
        visited.mark(u);
        dist[u] = 0;
        heap.clear();
        heap.push(Reverse((0, u as u32)));
        while let Some(Reverse((d, x32))) = heap.pop() {
            let x = x32 as usize;
            if d > dist[x] {
                continue; // stale heap entry (lazy deletion)
            }
            if x == v {
                within = true;
                break;
            }
            for &(y32, wy) in &adj[x] {
                let y = y32 as usize;
                let nd = d + wy as u64;
                if nd > bound {
                    continue;
                }
                if !visited.is_marked(y) || nd < dist[y] {
                    visited.mark(y);
                    dist[y] = nd;
                    heap.push(Reverse((nd, y32)));
                }
            }
        }

        if !within {
            h.insert(u, v);
            adj[u].push((v as u32, w));
            adj[v].push((u as u32, w));
        }
    }
    h
}

/// Convenience: materializes the weighted greedy spanner as a
/// [`WeightedGraph`] directly (edges inherit the parent's weights).
pub fn greedy_spanner_weighted_graph(g: &WeightedGraph, kappa: u32) -> WeightedGraph {
    g.subgraph(greedy_spanner_weighted(g, kappa).iter())
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

    /// The weighted keep predicate guarantees `d_H ≤ (2κ−1)·d_G` for
    /// every pair, over weighted distances.
    #[test]
    fn weighted_stretch_bound_holds() {
        use nas_graph::weighted::WeightDist;
        let g = generators::weighted_gnp(40, 0.15, 3, WeightDist::Uniform { lo: 1, hi: 20 });
        for kappa in [2u32, 3] {
            let h = g.subgraph(greedy_spanner_weighted(&g, kappa).iter());
            let t = (2 * kappa - 1) as u64;
            for u in 0..40 {
                let dg = nas_graph::sssp::dijkstra(&g, [u]);
                let dh = nas_graph::sssp::dijkstra(&h, [u]);
                for v in 0..40 {
                    let Some(d) = dg.get(v) else { continue };
                    let s = dh.get(v).expect("weighted greedy preserves connectivity");
                    assert!(
                        s as u64 <= t * d as u64,
                        "stretch violated at ({u},{v}): {s} > {t}·{d}"
                    );
                }
            }
        }
    }

    /// With uniform weights the weighted greedy spanner degenerates to the
    /// unweighted one: same lexicographic edge order, and the Dijkstra
    /// bound `(2κ−1)·c` admits exactly the paths of at most `2κ−1` hops.
    #[test]
    fn uniform_weights_reproduce_unweighted_greedy() {
        let g = generators::gnp(40, 0.2, 17);
        for c in [1u32, 7] {
            let wg = WeightedGraph::uniform(g.clone(), c);
            for kappa in [2u32, 3] {
                assert_eq!(
                    greedy_spanner_weighted(&wg, kappa),
                    greedy_spanner(&g, kappa),
                    "weight {c} kappa {kappa}"
                );
            }
        }
    }

    /// Zero-weight edges are legal: a zero-weight edge is kept only if its
    /// endpoints aren't already connected by a zero-weight path.
    #[test]
    fn zero_weight_edges_deduplicate() {
        let mut b = nas_graph::WeightedGraphBuilder::new(4);
        // Zero triangle 0-1-2 plus a weighted edge out to 3.
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 0);
        b.add_edge(0, 2, 0);
        b.add_edge(2, 3, 5);
        let g = b.build();
        let h = greedy_spanner_weighted(&g, 2);
        // One zero edge of the triangle is redundant: d_H = 0 ≤ 3·0.
        assert_eq!(h.len(), 3, "kept {:?}", h.iter().collect::<Vec<_>>());
        assert!(h.contains(2, 3));
    }

    #[test]
    fn weighted_graph_form_inherits_weights() {
        use nas_graph::weighted::WeightDist;
        let g = generators::weighted_gnp(30, 0.2, 9, WeightDist::Uniform { lo: 1, hi: 9 });
        let h = greedy_spanner_weighted_graph(&g, 2);
        for (u, v, w) in h.edges_weighted() {
            assert_eq!(g.edge_weight(u, v), Some(w));
        }
    }
}
