//! Distance queries against a built spanner.
//!
//! A downstream user of a spanner usually wants approximate distances
//! without storing the original graph. [`SpannerOracle`] wraps a spanner
//! and answers queries from one traversal per source: BFS on the flat
//! distance plane ([`nas_graph::dist`]) for hop distances, or
//! delta-stepping SSSP ([`nas_graph::sssp`]) for weighted distances, with a
//! bucket width fixed at construction. Point queries hit a single cached
//! [`DistanceMap`] row, batched queries fill a flat [`DistanceBatch`]
//! sharded over a worker pool, and every traversal reuses the oracle's own
//! scratch — after one warmup batch, repeated batch audits allocate
//! nothing (pinned by `tests/zero_alloc_audit.rs` and
//! `tests/zero_alloc_weighted.rs`).

use nas_graph::dist::{BatchScratch, BfsScratch, DistanceBatch, DistanceMap};
use nas_graph::sssp::{auto_delta, SsspBatchScratch, SsspScratch};
use nas_graph::{Graph, WeightedGraph};
use nas_par::WorkerPool;

/// The oracle's counter snapshot — the one struct a monitoring surface
/// (e.g. `nas-serve`'s `/stats` endpoint) reads.
///
/// All counters are cumulative over the oracle's lifetime except
/// [`cached_rows`](OracleStats::cached_rows), which is the *current* cache
/// occupancy (0 or 1 — the oracle keeps a single-row cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Point queries answered (`distance` calls).
    pub point_queries: u64,
    /// Point queries answered from the cached row, without a traversal
    /// (including symmetric hits on the reversed endpoint pair).
    pub cache_hits: u64,
    /// Full-row traversals executed (BFS or delta-stepping SSSP) across
    /// both the point and batch paths.
    pub traversals: u64,
    /// Rows currently held in the cache (0 or 1).
    pub cached_rows: u64,
}

impl OracleStats {
    /// Point-query cache hit rate in `[0, 1]`; 0 before any query.
    pub fn hit_rate(&self) -> f64 {
        if self.point_queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.point_queries as f64
        }
    }
}

/// The spanner with the traversal scratch for its distance kind.
#[derive(Debug, Clone)]
enum Plane {
    /// Hop distances by BFS.
    Hops {
        graph: Graph,
        scratch: BfsScratch,
        batch: BatchScratch,
    },
    /// Weighted distances by delta-stepping with bucket width `delta`.
    Weighted {
        graph: WeightedGraph,
        delta: u32,
        scratch: SsspScratch,
        batch: SsspBatchScratch,
    },
}

/// Distance oracle over a spanner `H`, in hop or weighted distances.
///
/// Point queries traverse from the source on demand; the row is cached,
/// so repeated queries from (or into — the graph is undirected) one
/// source are cheap. For many sources use
/// [`distances_batch_into`](SpannerOracle::distances_batch_into); for an
/// all-pairs audit use [`crate::stretch_audit`] instead.
///
/// A weighted oracle's delta-stepping bucket width is fixed at
/// construction by [`auto_delta`], so every query against one oracle is a
/// pure function of `(spanner, source)`.
#[derive(Debug, Clone)]
pub struct SpannerOracle {
    plane: Plane,
    cache_source: Option<usize>,
    cache_row: DistanceMap,
    traversals: u64,
    point_queries: u64,
    cache_hits: u64,
}

impl SpannerOracle {
    /// Creates an oracle over a spanner graph, answering hop distances.
    pub fn new(spanner: Graph) -> Self {
        Self::over(Plane::Hops {
            graph: spanner,
            scratch: BfsScratch::new(),
            batch: BatchScratch::new(),
        })
    }

    /// Creates an oracle over a weighted spanner, answering weighted
    /// distances, with the bucket width picked by [`auto_delta`] (unit
    /// weights degenerate to Dial's `Δ = 1`).
    pub fn weighted(spanner: WeightedGraph) -> Self {
        Self::over(Plane::Weighted {
            delta: auto_delta(&spanner),
            graph: spanner,
            scratch: SsspScratch::new(),
            batch: SsspBatchScratch::new(),
        })
    }

    fn over(plane: Plane) -> Self {
        SpannerOracle {
            plane,
            cache_source: None,
            cache_row: DistanceMap::new(),
            traversals: 0,
            point_queries: 0,
            cache_hits: 0,
        }
    }

    /// The underlying spanner's topology.
    pub fn graph(&self) -> &Graph {
        match &self.plane {
            Plane::Hops { graph, .. } => graph,
            Plane::Weighted { graph, .. } => graph.graph(),
        }
    }

    /// The delta-stepping bucket width of a weighted oracle; `None` for a
    /// hop-distance oracle.
    pub fn delta(&self) -> Option<u32> {
        match self.plane {
            Plane::Hops { .. } => None,
            Plane::Weighted { delta, .. } => Some(delta),
        }
    }

    /// The counter snapshot ([`OracleStats`]) for this oracle: point-query
    /// counters cover the [`distance`](SpannerOracle::distance) surface,
    /// `traversals` both the point and batch paths.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            point_queries: self.point_queries,
            cache_hits: self.cache_hits,
            traversals: self.traversals,
            cached_rows: self.cache_source.is_some() as u64,
        }
    }

    /// The spanner distance `d_H(u, v)`, or `None` if disconnected in `H`.
    ///
    /// The graph is undirected, so `d_H(u, v) = d_H(v, u)`: a cached row
    /// for *either* endpoint answers the query without a fresh traversal.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn distance(&mut self, u: usize, v: usize) -> Option<u32> {
        let n = self.graph().num_vertices();
        assert!(u < n && v < n, "query out of range");
        self.point_queries += 1;
        if self.cache_source == Some(u) {
            self.cache_hits += 1;
            return self.cache_row.get(v);
        }
        if self.cache_source == Some(v) {
            self.cache_hits += 1;
            return self.cache_row.get(u);
        }
        self.refill_cache(u);
        self.cache_row.get(v)
    }

    fn refill_cache(&mut self, u: usize) {
        match &mut self.plane {
            Plane::Hops { graph, scratch, .. } => self.cache_row.fill(graph, [u], scratch),
            Plane::Weighted {
                graph,
                delta,
                scratch,
                ..
            } => self.cache_row.fill_weighted(graph, [u], *delta, scratch),
        }
        self.cache_source = Some(u);
        self.traversals += 1;
    }

    /// Batched distances from one source (one traversal, cached): the
    /// flat row.
    pub fn distance_map_from(&mut self, u: usize) -> &DistanceMap {
        if self.cache_source != Some(u) {
            self.refill_cache(u);
        }
        &self.cache_row
    }

    /// Batched distances from many sources into a reusable flat batch: one
    /// traversal per source, sharded over `pool`. Row `i` corresponds to
    /// `sources[i]`, byte-identical to a sequential
    /// [`distance_map_from`](SpannerOracle::distance_map_from) loop at any
    /// thread count.
    ///
    /// Reuses `out` and the oracle's internal per-lane scratch: after one
    /// warmup call, repeated batches of the same shape allocate nothing.
    /// Counts one traversal per source and leaves the single-row cache
    /// holding the *last* source's row, so follow-up point queries
    /// anchored there stay free.
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range.
    pub fn distances_batch_into(
        &mut self,
        sources: &[usize],
        out: &mut DistanceBatch,
        pool: &WorkerPool,
    ) {
        match &mut self.plane {
            Plane::Hops { graph, batch, .. } => out.fill(graph, sources, batch, pool),
            Plane::Weighted {
                graph,
                delta,
                batch,
                ..
            } => out.fill_weighted(graph, sources, *delta, batch, pool),
        }
        self.traversals += sources.len() as u64;
        if let Some(&s) = sources.last() {
            self.cache_source = Some(s);
            self.cache_row.copy_row(out.row(sources.len() - 1));
        }
    }

    /// [`distances_batch_into`](SpannerOracle::distances_batch_into) with a
    /// freshly allocated batch — the convenience form for one-shot callers.
    pub fn distances_batch(&mut self, sources: &[usize], pool: &WorkerPool) -> DistanceBatch {
        let mut out = DistanceBatch::new();
        self.distances_batch_into(sources, &mut out, pool);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nas_graph::generators;

    #[test]
    fn oracle_matches_bfs() {
        let g = generators::grid2d(6, 6);
        let mut o = SpannerOracle::new(g.clone());
        assert_eq!(o.distance(0, 35), Some(10));
        assert_eq!(o.distance(0, 0), Some(0));
        // Cached row reused.
        assert_eq!(o.distance(0, 7), Some(2));
        assert_eq!(o.stats().traversals, 1);
    }

    /// Regression test: a `(u, v)` query right after a cached row for `v`
    /// must be answered by symmetry from that row, not by discarding it and
    /// re-running BFS from `u` (which the code did despite the comment
    /// claiming otherwise).
    #[test]
    fn symmetric_query_reuses_cached_row() {
        let g = generators::grid2d(6, 6);
        let mut o = SpannerOracle::new(g.clone());
        let forward = o.distance(0, 35);
        assert_eq!(o.stats().traversals, 1);
        let backward = o.distance(35, 0); // reversed endpoints: same row
        assert_eq!(forward, backward);
        assert_eq!(o.stats().traversals, 1, "symmetric query must not re-BFS");
        // Mixed batch anchored on one endpoint: still one BFS total.
        for v in [1, 7, 13, 35] {
            o.distance(v, 0);
        }
        assert_eq!(o.stats().traversals, 1);
        // A genuinely new source pair does BFS again.
        o.distance(14, 21);
        assert_eq!(o.stats().traversals, 2);
    }

    #[test]
    fn batch_distances_match_point_queries() {
        let g = generators::grid2d(7, 7);
        let pool = nas_par::WorkerPool::new(3);
        let sources = [0usize, 13, 25, 48, 13];
        let mut batched = SpannerOracle::new(g.clone());
        let rows = batched.distances_batch(&sources, &pool);
        assert_eq!(batched.stats().traversals, sources.len() as u64);

        let mut pointwise = SpannerOracle::new(g.clone());
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(
                rows.row(i),
                pointwise.distance_map_from(s).raw(),
                "source {s}"
            );
        }
        // The cache holds the last batched row: anchored queries are free.
        let runs = batched.stats().traversals;
        assert_eq!(batched.distance(13, 40), rows.get(4, 40));
        assert_eq!(batched.stats().traversals, runs);
    }

    /// The batch path reuses `out` and the oracle scratch across calls and
    /// stays identical to the point path at every thread count.
    #[test]
    fn batch_into_is_reusable_and_thread_invariant() {
        let g = generators::connected_gnp(60, 0.08, 5);
        let sources = [3usize, 41, 0, 59];
        let want: Vec<Vec<u32>> = {
            let mut o = SpannerOracle::new(g.clone());
            sources
                .iter()
                .map(|&s| o.distance_map_from(s).raw().to_vec())
                .collect()
        };
        for threads in [1usize, 2, 4] {
            let pool = nas_par::WorkerPool::new(threads);
            let mut o = SpannerOracle::new(g.clone());
            let mut out = nas_graph::DistanceBatch::new();
            for round in 0..3 {
                o.distances_batch_into(&sources, &mut out, &pool);
                for (i, w) in want.iter().enumerate() {
                    assert_eq!(
                        out.row(i),
                        &w[..],
                        "row {i} round {round} threads {threads}"
                    );
                }
            }
            assert_eq!(o.stats().traversals, 3 * sources.len() as u64);
        }
    }

    /// The [`OracleStats`] snapshot counts the same on both distance
    /// kinds, and the hit counters track the point path (cache hits,
    /// symmetric hits, batch traversals).
    #[test]
    fn oracle_stats_unifies_both_flavors() {
        let g = generators::grid2d(6, 6);
        let mut o = SpannerOracle::new(g.clone());
        assert_eq!(o.stats(), OracleStats::default());
        assert_eq!(o.stats().hit_rate(), 0.0);
        o.distance(0, 35); // miss: BFS from 0
        o.distance(0, 7); // hit
        o.distance(35, 0); // symmetric hit
        let s = o.stats();
        assert_eq!(
            s,
            OracleStats {
                point_queries: 3,
                cache_hits: 2,
                traversals: 1,
                cached_rows: 1,
            }
        );
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        // The batch path counts traversals but no point queries.
        let pool = nas_par::WorkerPool::new(2);
        o.distances_batch(&[3, 9], &pool);
        assert_eq!(o.stats().traversals, 3);
        assert_eq!(o.stats().point_queries, 3);

        let wg = nas_graph::WeightedGraph::uniform(g, 2);
        let mut w = SpannerOracle::weighted(wg);
        assert_eq!(w.stats(), OracleStats::default());
        w.distance(0, 35);
        w.distance(35, 0);
        assert_eq!(
            w.stats(),
            OracleStats {
                point_queries: 2,
                cache_hits: 1,
                traversals: 1,
                cached_rows: 1,
            }
        );
    }

    /// The weighted oracle answers point queries with exact weighted
    /// distances (cross-checked against the naive Dijkstra reference) and
    /// reuses its cached row symmetrically.
    #[test]
    fn weighted_oracle_matches_dijkstra() {
        use nas_graph::weighted::WeightDist;
        let g = generators::weighted_gnp(60, 0.08, 3, WeightDist::Uniform { lo: 1, hi: 30 });
        let reference = nas_graph::sssp::dijkstra(&g, [0]);
        let mut o = SpannerOracle::weighted(g.clone());
        for v in 0..60 {
            assert_eq!(o.distance(0, v), reference.get(v), "vertex {v}");
        }
        assert_eq!(
            o.stats().traversals,
            1,
            "one cached row answers all queries"
        );
        // Reversed endpoints hit the same row by symmetry.
        assert_eq!(o.distance(17, 0), reference.get(17));
        assert_eq!(o.stats().traversals, 1);
        // A genuinely new source traverses again.
        o.distance(5, 9);
        assert_eq!(o.stats().traversals, 2);
    }

    /// The weighted batch path matches point queries row for row at every
    /// thread count and reuses `out` plus the oracle scratch across calls.
    #[test]
    fn weighted_batch_matches_point_queries() {
        use nas_graph::weighted::WeightDist;
        let g = generators::weighted_grid2d(7, 7, 11, WeightDist::Uniform { lo: 1, hi: 9 });
        let sources = [0usize, 13, 25, 48, 13];
        let want: Vec<Vec<u32>> = {
            let mut o = SpannerOracle::weighted(g.clone());
            sources
                .iter()
                .map(|&s| o.distance_map_from(s).raw().to_vec())
                .collect()
        };
        for threads in [1usize, 2, 4] {
            let pool = nas_par::WorkerPool::new(threads);
            let mut o = SpannerOracle::weighted(g.clone());
            let mut out = nas_graph::DistanceBatch::new();
            for round in 0..3 {
                o.distances_batch_into(&sources, &mut out, &pool);
                for (i, w) in want.iter().enumerate() {
                    assert_eq!(
                        out.row(i),
                        &w[..],
                        "row {i} round {round} threads {threads}"
                    );
                }
            }
            assert_eq!(o.stats().traversals, 3 * sources.len() as u64);
            // The cache holds the last batched row.
            let runs = o.stats().traversals;
            assert_eq!(o.distance(13, 40), out.get(4, 40));
            assert_eq!(o.stats().traversals, runs);
        }
    }

    /// With unit weights the weighted oracle agrees with the unweighted
    /// one everywhere (the SSSP engine degenerates to BFS) and auto-picks
    /// Dial's bucket width.
    #[test]
    fn unit_weight_oracle_matches_unweighted() {
        let g = generators::connected_gnp(50, 0.1, 8);
        let wg = nas_graph::WeightedGraph::uniform(g.clone(), 1);
        let mut plain = SpannerOracle::new(g);
        let mut weighted = SpannerOracle::weighted(wg);
        assert_eq!(weighted.delta(), Some(1));
        assert_eq!(plain.delta(), None);
        for s in [0usize, 7, 23, 49] {
            assert_eq!(
                weighted.distance_map_from(s).raw(),
                plain.distance_map_from(s).raw(),
                "source {s}"
            );
        }
    }

    #[test]
    fn end_to_end_with_real_spanner() {
        let g = generators::connected_gnp(70, 0.1, 4);
        let r = nas_core::Session::on(&g)
            .params(nas_core::Params::practical(0.5, 4, 0.45))
            .run()
            .unwrap();
        let mut o = SpannerOracle::new(r.to_graph());
        let exact = DistanceMap::from_source(&g, 0);
        for v in 0..70 {
            let dg = exact.get(v).expect("connected_gnp is connected");
            let dh = o.distance(0, v).expect("a spanner keeps G connected");
            assert!(dh >= dg, "vertex {v}: d_H {dh} < d_G {dg}");
        }
    }
}
