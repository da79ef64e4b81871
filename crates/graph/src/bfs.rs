//! Breadth-first search in the flavors the spanner algorithms need.
//!
//! The distance-returning surface lives on the flat distance plane
//! ([`crate::dist`]): [`DistanceMap`] for single rows,
//! [`DistanceBatch`](crate::DistanceBatch) for batched/pooled fan-out, both
//! with reusable scratch and the [`crate::dist::UNREACHED`] sentinel
//! instead of `Option`.
//!
//! [`bfs_forest`] (parent/root tracking for the superclustering step) and
//! [`eccentricity`] are unchanged in shape.

use crate::dist::DistanceMap;
use crate::graph::Graph;

/// Result of a BFS that also records the forest structure.
#[derive(Debug, Clone)]
pub struct BfsForest {
    /// `dist[v]`: hop distance from the nearest source, `None` if unreached.
    pub dist: Vec<Option<u32>>,
    /// `parent[v]`: predecessor of `v` on a shortest path to its root;
    /// `None` for sources and unreached vertices.
    pub parent: Vec<Option<u32>>,
    /// `root[v]`: the source vertex whose tree `v` belongs to, `None` if
    /// unreached.
    pub root: Vec<Option<u32>>,
}

impl BfsForest {
    /// The tree path from `v` back to its root (inclusive), or `None` if `v`
    /// was not reached.
    pub fn path_to_root(&self, v: usize) -> Option<Vec<usize>> {
        self.dist[v]?;
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            cur = p as usize;
            path.push(cur);
        }
        Some(path)
    }
}

/// Multi-source BFS to an optional depth limit, recording parents and roots.
///
/// Ties (a vertex reached by two sources in the same round) are broken toward
/// the *smallest root id*, and within a root toward the smallest parent id —
/// this mirrors the deterministic tie-breaking the distributed protocols use,
/// so centralized and simulated runs agree exactly.
///
/// # Panics
///
/// Panics if any source is out of range.
pub fn bfs_forest<I: IntoIterator<Item = usize>>(
    g: &Graph,
    sources: I,
    depth_limit: Option<u32>,
) -> BfsForest {
    let n = g.num_vertices();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut parent: Vec<Option<u32>> = vec![None; n];
    let mut root: Vec<Option<u32>> = vec![None; n];

    let mut srcs: Vec<usize> = sources.into_iter().collect();
    srcs.sort_unstable();
    srcs.dedup();
    let mut frontier: Vec<usize> = Vec::new();
    for s in srcs {
        assert!(s < n, "source {s} out of range");
        dist[s] = Some(0);
        root[s] = Some(s as u32);
        frontier.push(s);
    }

    let mut d = 0u32;
    while !frontier.is_empty() {
        if let Some(limit) = depth_limit {
            if d >= limit {
                break;
            }
        }
        let mut next: Vec<usize> = Vec::new();
        // Process the frontier in sorted order so that the smallest
        // (root, parent) pair claims each new vertex.
        frontier.sort_unstable_by_key(|&v| (root[v], v));
        for &v in &frontier {
            let rv = root[v];
            for &u in g.neighbors(v) {
                let u = u as usize;
                if dist[u].is_none() {
                    dist[u] = Some(d + 1);
                    parent[u] = Some(v as u32);
                    root[u] = rv;
                    next.push(u);
                } else if dist[u] == Some(d + 1) {
                    // Same-round tie: prefer smaller root, then smaller parent.
                    let better = (rv, Some(v as u32)) < (root[u], parent[u]);
                    if better {
                        parent[u] = Some(v as u32);
                        root[u] = rv;
                    }
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
        d += 1;
    }
    BfsForest { dist, parent, root }
}

/// Eccentricity of `source` (max distance to any reachable vertex).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn eccentricity(g: &Graph, source: usize) -> u32 {
    DistanceMap::from_source(g, source)
        .max_finite()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn forest_paths_are_shortest() {
        let g = generators::grid2d(5, 5);
        let f = bfs_forest(&g, [0], None);
        for v in 0..25 {
            let p = f.path_to_root(v).unwrap();
            assert_eq!(p.len() as u32 - 1, f.dist[v].unwrap());
            assert_eq!(*p.last().unwrap(), 0);
            // consecutive path vertices are adjacent
            for w in p.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn forest_depth_limit_respected() {
        let g = generators::path(10);
        let f = bfs_forest(&g, [0], Some(3));
        assert_eq!(f.dist[3], Some(3));
        assert_eq!(f.dist[4], None);
    }

    #[test]
    fn forest_roots_partition_by_proximity() {
        let g = generators::path(9);
        let f = bfs_forest(&g, [0, 8], None);
        assert_eq!(f.root[1], Some(0));
        assert_eq!(f.root[7], Some(8));
        // Midpoint ties break to smaller root.
        assert_eq!(f.root[4], Some(0));
    }

    #[test]
    fn eccentricity_of_path_end() {
        let g = generators::path(8);
        assert_eq!(eccentricity(&g, 0), 7);
        assert_eq!(eccentricity(&g, 4), 4);
    }

    #[test]
    fn eccentricity_of_isolated_vertex_is_zero() {
        let g = crate::GraphBuilder::new(3).build();
        assert_eq!(eccentricity(&g, 1), 0);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let g = generators::cycle(8);
        let a = bfs_forest(&g, [0, 4], None);
        let b = bfs_forest(&g, [4, 0], None);
        assert_eq!(a.root, b.root);
        assert_eq!(a.parent, b.parent);
    }
}
