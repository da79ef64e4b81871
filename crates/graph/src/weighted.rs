//! Weighted graphs: one `u32` weight per edge, laid out parallel to the
//! CSR adjacency.
//!
//! # Weight model
//!
//! A [`WeightedGraph`] wraps an unweighted [`Graph`] and adds a weight
//! array parallel to the CSR target array: the weight of the arc
//! `neighbors(v)[k]` lives at arc index `neighbor_range(v).start + k`
//! (see [`Graph::neighbor_range`]). Both directions of an undirected edge
//! always carry the same weight, and the topology invariants (sorted,
//! deduplicated, loop-free, symmetric adjacency) are untouched — every
//! existing `Graph` consumer keeps working on [`WeightedGraph::graph`].
//!
//! Weights are `u32` and may be zero (zero-weight edges model free hops;
//! the SSSP engine handles them without special cases). Path lengths are
//! accumulated in `u64` and saturate at [`crate::sssp::MAX_FINITE`]
//! (`u32::MAX - 1`), so the [`crate::dist::UNREACHED`] sentinel
//! (`u32::MAX`) is never produced by arithmetic — see the [`crate::sssp`]
//! module docs for the full saturation convention.
//!
//! # Seeded weight assignment
//!
//! [`WeightDist`] describes a weight distribution; applying one to a graph
//! ([`WeightedGraph::from_graph`]) draws one weight per undirected edge,
//! in lexicographic `(u, v)` edge order, from a [`SplitMix64`] stream — so
//! a `(graph, dist, seed)` triple names the same weighted graph on every
//! platform, forever, matching the determinism contract of the unweighted
//! [`crate::generators`].

use crate::graph::{Graph, GraphError};
use crate::rng::SplitMix64;
use std::fmt;

/// A seedable edge-weight distribution.
///
/// Used by [`WeightedGraph::from_graph`] and the weighted generator
/// wrappers in [`crate::generators`]; [`WeightDist::parse`] reads one from
/// a spec string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightDist {
    /// Every edge gets the same weight.
    Constant(u32),
    /// Uniform integer weight in the inclusive range `[lo, hi]`.
    Uniform {
        /// Smallest weight (inclusive).
        lo: u32,
        /// Largest weight (inclusive).
        hi: u32,
    },
}

impl WeightDist {
    /// Unit weights (`Constant(1)`) — the weighted twin of an unweighted
    /// graph, under which weighted distances equal hop distances.
    pub fn unit() -> Self {
        WeightDist::Constant(1)
    }

    /// Parses a weight spec, the inverse of `Display`: `unit` (every edge
    /// weight 1, so distances are hop counts), `uniform:C` (every edge
    /// weight `C`) or `range:LO:HI` (seeded uniform integers in
    /// `[LO, HI]`). `None` on a malformed spec, so each surface that takes
    /// one (the bench `--weights` switch, `nas-serve`'s `POST /rebuild`
    /// body) reports it its own way.
    pub fn parse(spec: &str) -> Option<WeightDist> {
        if spec == "unit" {
            return Some(WeightDist::unit());
        }
        let mut parts = spec.split(':');
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some("uniform"), Some(c), None, None) => Some(WeightDist::Constant(c.parse().ok()?)),
            (Some("range"), Some(lo), Some(hi), None) => {
                let (lo, hi) = (lo.parse().ok()?, hi.parse().ok()?);
                (lo <= hi).then_some(WeightDist::Uniform { lo, hi })
            }
            _ => None,
        }
    }

    /// Draws one weight.
    ///
    /// `Constant` does not consume randomness, so switching a workload
    /// between constant distributions never perturbs the stream.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is `Uniform` with `lo > hi`.
    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        match *self {
            WeightDist::Constant(w) => w,
            WeightDist::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform weight range has lo {lo} > hi {hi}");
                lo + rng.next_below((hi - lo) as u64 + 1) as u32
            }
        }
    }
}

impl fmt::Display for WeightDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WeightDist::Constant(w) => write!(f, "uniform:{w}"),
            WeightDist::Uniform { lo, hi } => write!(f, "range:{lo}:{hi}"),
        }
    }
}

/// An undirected, simple graph with one `u32` weight per edge.
///
/// The topology is an ordinary CSR [`Graph`]; the weights are a parallel
/// array over the arc indices (see the module docs). Construction goes
/// through [`WeightedGraphBuilder`] or [`WeightedGraph::from_graph`] /
/// [`WeightedGraph::uniform`].
///
/// # Example
///
/// ```
/// use nas_graph::{WeightedGraphBuilder, WeightedGraph};
///
/// let mut b = WeightedGraphBuilder::new(3);
/// b.add_edge(0, 1, 4);
/// b.add_edge(1, 2, 7);
/// let g = b.build();
/// assert_eq!(g.edge_weight(0, 1), Some(4));
/// assert_eq!(g.edge_weight(2, 1), Some(7));
/// assert_eq!(g.edge_weight(0, 2), None);
/// assert_eq!(g.max_weight(), 7);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct WeightedGraph {
    graph: Graph,
    weights: Vec<u32>,
    max_weight: u32,
}

impl fmt::Debug for WeightedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WeightedGraph")
            .field("n", &self.num_vertices())
            .field("m", &self.num_edges())
            .field("max_weight", &self.max_weight)
            .finish()
    }
}

impl WeightedGraph {
    /// Assembles a weighted graph from a topology and its parallel weight
    /// array. Both directions of every edge must carry the same weight
    /// (checked with `debug_assert!`s, like the CSR invariants).
    pub(crate) fn from_parts(graph: Graph, weights: Vec<u32>) -> Self {
        assert_eq!(
            weights.len(),
            graph.degree_sum(),
            "weight array must parallel the CSR target array"
        );
        let max_weight = weights.iter().copied().max().unwrap_or(0);
        let g = WeightedGraph {
            graph,
            weights,
            max_weight,
        };
        #[cfg(debug_assertions)]
        g.check_symmetric_weights();
        g
    }

    #[cfg(debug_assertions)]
    fn check_symmetric_weights(&self) {
        for v in 0..self.num_vertices() {
            for (u, w) in self.neighbors_weighted(v) {
                debug_assert_eq!(
                    self.edge_weight(u as usize, v),
                    Some(w),
                    "asymmetric weight on edge ({v},{u})"
                );
            }
        }
    }

    /// Gives every edge of `graph` the same weight `w`.
    pub fn uniform(graph: Graph, w: u32) -> Self {
        let weights = vec![w; graph.degree_sum()];
        Self::from_parts(graph, weights)
    }

    /// Draws one weight per edge of `graph` from `dist`, seeded by `seed`.
    ///
    /// Edges are weighted in lexicographic `(u, v)` order, so the result is
    /// a pure function of `(graph, dist, seed)` — see the module docs.
    pub fn from_graph(graph: Graph, dist: WeightDist, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut weights = vec![0u32; graph.degree_sum()];
        for (u, v) in graph.edges() {
            let w = dist.sample(&mut rng);
            weights[arc_index(&graph, u, v)] = w;
            weights[arc_index(&graph, v, u)] = w;
        }
        Self::from_parts(graph, weights)
    }

    /// The underlying unweighted topology.
    ///
    /// This is the bridge that keeps every `Graph` consumer untouched: a
    /// weight-agnostic algorithm runs here, and the weighted distance plane
    /// audits the result against `self`.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.graph.degree(v)
    }

    /// The sorted adjacency list of `v` (same as the topology's).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        self.graph.neighbors(v)
    }

    /// The weights of `v`'s incident edges, parallel to
    /// [`neighbors`](WeightedGraph::neighbors).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn weights_of(&self, v: usize) -> &[u32] {
        &self.weights[self.graph.neighbor_range(v)]
    }

    /// Iterator over `(neighbor, weight)` pairs of `v`, in adjacency order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors_weighted(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.weights_of(v).iter().copied())
    }

    /// The full weight array, parallel to the CSR target array (arc order;
    /// each undirected edge appears twice, once per direction).
    #[inline]
    pub fn arc_weights(&self) -> &[u32] {
        &self.weights
    }

    /// The weight of edge `{u, v}`, or `None` if the edge is absent.
    ///
    /// Runs in `O(log deg(u))`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<u32> {
        assert!(v < self.num_vertices());
        self.neighbors(u)
            .binary_search(&(v as u32))
            .ok()
            .map(|k| self.weights[self.graph.neighbor_range(u).start + k])
    }

    /// The largest edge weight; 0 for an edgeless graph. Cached at
    /// construction (the SSSP engine sizes its bucket window from it).
    #[inline]
    pub fn max_weight(&self) -> u32 {
        self.max_weight
    }

    /// Iterator over all undirected edges as `(u, v, w)` with `u < v`, in
    /// lexicographic order.
    pub fn edges_weighted(&self) -> WeightedEdges<'_> {
        WeightedEdges {
            graph: self,
            v: 0,
            idx: 0,
        }
    }

    /// The weighted subgraph on the given edges: same vertex set, each edge
    /// inheriting its weight from `self`.
    ///
    /// This is how a spanner edge set (built weight-agnostically) is turned
    /// back into a weighted graph for auditing.
    ///
    /// # Panics
    ///
    /// Panics if any listed edge is not present in `self`.
    pub fn subgraph<I: IntoIterator<Item = (usize, usize)>>(&self, edges: I) -> WeightedGraph {
        let mut b = WeightedGraphBuilder::new(self.num_vertices());
        for (u, v) in edges {
            let w = self
                .edge_weight(u, v)
                .unwrap_or_else(|| panic!("edge ({u},{v}) not in parent graph"));
            b.add_edge(u, v, w);
        }
        b.build()
    }
}

/// The arc index of the directed arc `u -> v` (which must exist).
fn arc_index(g: &Graph, u: usize, v: usize) -> usize {
    let k = g
        .neighbors(u)
        .binary_search(&(v as u32))
        .expect("arc must exist");
    g.neighbor_range(u).start + k
}

/// Iterator over the undirected edges of a [`WeightedGraph`], yielding
/// `(u, v, w)` with `u < v` in lexicographic order.
#[derive(Debug, Clone)]
pub struct WeightedEdges<'a> {
    graph: &'a WeightedGraph,
    v: usize,
    idx: usize,
}

impl Iterator for WeightedEdges<'_> {
    type Item = (usize, usize, u32);

    fn next(&mut self) -> Option<(usize, usize, u32)> {
        let n = self.graph.num_vertices();
        while self.v < n {
            let adj = self.graph.neighbors(self.v);
            let ws = self.graph.weights_of(self.v);
            while self.idx < adj.len() {
                let u = adj[self.idx] as usize;
                let w = ws[self.idx];
                self.idx += 1;
                if self.v < u {
                    return Some((self.v, u, w));
                }
            }
            self.v += 1;
            self.idx = 0;
        }
        None
    }
}

/// Builder accumulating a weighted edge list and normalizing it into a
/// [`WeightedGraph`].
///
/// Self-loops are dropped; parallel edges collapse to the **lightest**
/// weight offered for that vertex pair (the natural reduction for a
/// shortest-path metric). Endpoints are validated eagerly, like
/// [`crate::GraphBuilder`].
///
/// # Example
///
/// ```
/// use nas_graph::WeightedGraphBuilder;
///
/// let mut b = WeightedGraphBuilder::new(3);
/// b.add_edge(0, 1, 9);
/// b.add_edge(1, 0, 2); // parallel edge: the lighter weight wins
/// b.add_edge(2, 2, 5); // self-loop, dropped
/// let g = b.build();
/// assert_eq!(g.num_edges(), 1);
/// assert_eq!(g.edge_weight(0, 1), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct WeightedGraphBuilder {
    n: usize,
    edges: Vec<(u32, u32, u32)>,
}

impl WeightedGraphBuilder {
    /// Creates a builder for a graph on `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "vertex count exceeds u32 range");
        WeightedGraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices this builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is `>= n`.
    pub fn add_edge(&mut self, u: usize, v: usize, w: u32) -> &mut Self {
        self.try_add_edge(u, v, w)
            .expect("edge endpoint out of range");
        self
    }

    /// Adds the undirected edge `{u, v}` with weight `w`, validating
    /// endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`.
    pub fn try_add_edge(&mut self, u: usize, v: usize, w: u32) -> Result<&mut Self, GraphError> {
        for &x in &[u, v] {
            if x >= self.n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: x,
                    n: self.n,
                });
            }
        }
        self.edges.push((u as u32, v as u32, w));
        Ok(self)
    }

    /// Adds every edge from an iterator of `(u, v, w)` triples.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn extend_edges<I: IntoIterator<Item = (usize, usize, u32)>>(
        &mut self,
        iter: I,
    ) -> &mut Self {
        for (u, v, w) in iter {
            self.add_edge(u, v, w);
        }
        self
    }

    /// Normalizes the accumulated edges (drop self-loops, keep the lightest
    /// parallel edge) and builds the immutable [`WeightedGraph`].
    pub fn build(&self) -> WeightedGraph {
        let n = self.n;
        // Symmetrize, drop loops.
        let mut arcs: Vec<(u32, u32, u32)> = Vec::with_capacity(self.edges.len() * 2);
        for &(u, v, w) in &self.edges {
            if u != v {
                arcs.push((u, v, w));
                arcs.push((v, u, w));
            }
        }
        // Sorting by (u, v, w) puts the lightest parallel arc first, so the
        // keep-first dedup below implements the lightest-edge reduction —
        // symmetrically for both directions.
        arcs.sort_unstable();
        arcs.dedup_by_key(|&mut (u, v, _)| (u, v));

        let mut offsets = vec![0usize; n + 1];
        for &(u, _, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = Vec::with_capacity(arcs.len());
        let mut weights = Vec::with_capacity(arcs.len());
        for (_, v, w) in arcs {
            targets.push(v);
            weights.push(w);
        }
        WeightedGraph::from_parts(Graph::from_csr(offsets, targets), weights)
    }
}

impl FromIterator<(usize, usize, u32)> for WeightedGraphBuilder {
    /// Builds a `WeightedGraphBuilder` sized to fit the largest endpoint
    /// seen.
    fn from_iter<I: IntoIterator<Item = (usize, usize, u32)>>(iter: I) -> Self {
        let edges: Vec<(usize, usize, u32)> = iter.into_iter().collect();
        let n = edges
            .iter()
            .map(|&(u, v, _)| u.max(v) + 1)
            .max()
            .unwrap_or(0);
        let mut b = WeightedGraphBuilder::new(n);
        b.extend_edges(edges);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn weighted_triangle() -> WeightedGraph {
        let mut b = WeightedGraphBuilder::new(4);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 2, 5);
        b.add_edge(2, 0, 1);
        b.add_edge(2, 3, 0);
        b.build()
    }

    #[test]
    fn parallel_weights_match_adjacency() {
        let g = weighted_triangle();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.weights_of(2), &[1, 5, 0]);
        assert_eq!(
            g.neighbors_weighted(2).collect::<Vec<_>>(),
            vec![(0, 1), (1, 5), (3, 0)]
        );
    }

    #[test]
    fn edge_weight_is_symmetric() {
        let g = weighted_triangle();
        assert_eq!(g.edge_weight(0, 1), Some(3));
        assert_eq!(g.edge_weight(1, 0), Some(3));
        assert_eq!(g.edge_weight(2, 3), Some(0));
        assert_eq!(g.edge_weight(0, 3), None);
    }

    #[test]
    fn max_weight_and_sum() {
        let g = weighted_triangle();
        assert_eq!(g.max_weight(), 5);
        assert_eq!(g.arc_weights().len(), g.graph().degree_sum());
    }

    #[test]
    fn edges_weighted_lexicographic() {
        let g = weighted_triangle();
        let edges: Vec<_> = g.edges_weighted().collect();
        assert_eq!(edges, vec![(0, 1, 3), (0, 2, 1), (1, 2, 5), (2, 3, 0)]);
    }

    #[test]
    fn parallel_edges_keep_lightest() {
        let mut b = WeightedGraphBuilder::new(2);
        b.add_edge(0, 1, 7);
        b.add_edge(1, 0, 4);
        b.add_edge(0, 1, 9);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(4));
        assert_eq!(g.edge_weight(1, 0), Some(4));
    }

    #[test]
    fn uniform_weights() {
        let g = WeightedGraph::uniform(generators::grid2d(3, 3), 6);
        assert_eq!(g.max_weight(), 6);
        assert!(g.edges_weighted().all(|(_, _, w)| w == 6));
        assert_eq!(g.graph(), &generators::grid2d(3, 3));
    }

    #[test]
    fn seeded_weights_are_deterministic() {
        let base = generators::gnp(50, 0.1, 9);
        let dist = WeightDist::Uniform { lo: 1, hi: 100 };
        let a = WeightedGraph::from_graph(base.clone(), dist, 7);
        let b = WeightedGraph::from_graph(base.clone(), dist, 7);
        let c = WeightedGraph::from_graph(base.clone(), dist, 8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different weight seeds should diverge");
        assert!(a.edges_weighted().all(|(_, _, w)| (1..=100).contains(&w)));
        assert_eq!(a.graph(), &base);
    }

    #[test]
    fn constant_dist_draws_nothing() {
        let mut rng = SplitMix64::new(1);
        let before = rng;
        let _ = WeightDist::Constant(5).sample(&mut rng);
        assert_eq!(rng, before);
    }

    #[test]
    fn subgraph_inherits_weights() {
        let g = weighted_triangle();
        let h = g.subgraph([(0, 1), (2, 3)]);
        assert_eq!(h.num_vertices(), 4);
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.edge_weight(0, 1), Some(3));
        assert_eq!(h.edge_weight(2, 3), Some(0));
        assert_eq!(h.edge_weight(0, 2), None);
    }

    #[test]
    #[should_panic(expected = "not in parent")]
    fn subgraph_rejects_foreign_edges() {
        let g = weighted_triangle();
        let _ = g.subgraph([(0, 3)]);
    }

    #[test]
    fn out_of_range_is_error() {
        let mut b = WeightedGraphBuilder::new(2);
        let err = b.try_add_edge(0, 2, 1).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 2, n: 2 });
    }

    #[test]
    fn from_iterator_sizes_to_fit() {
        let b: WeightedGraphBuilder = vec![(0, 4, 2), (2, 3, 8)].into_iter().collect();
        let g = b.build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(2, 3), Some(8));
    }

    #[test]
    fn empty_and_singleton() {
        let g = WeightedGraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.max_weight(), 0);
        let g = WeightedGraphBuilder::new(1).build();
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn display_round_trips_through_dist_syntax() {
        assert_eq!(WeightDist::Constant(3).to_string(), "uniform:3");
        assert_eq!(
            WeightDist::Uniform { lo: 1, hi: 9 }.to_string(),
            "range:1:9"
        );
        for d in [
            WeightDist::Constant(3),
            WeightDist::Uniform { lo: 2, hi: 9 },
        ] {
            assert_eq!(WeightDist::parse(&d.to_string()), Some(d));
        }
        assert_eq!(WeightDist::parse("range:9:1"), None);
        assert_eq!(WeightDist::parse("gaussian:3"), None);
    }
}
