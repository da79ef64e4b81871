//! Distance queries against a built spanner.
//!
//! A downstream user of a spanner usually wants approximate distances
//! without storing the original graph. [`SpannerOracle`] wraps a spanner
//! graph and answers queries by BFS on the flat distance plane
//! ([`nas_graph::dist`]): point queries hit a single cached
//! [`DistanceMap`] row, batched queries fill a flat [`DistanceBatch`]
//! sharded over a worker pool, and every traversal reuses the oracle's own
//! scratch — after one warmup batch, repeated batch audits allocate
//! nothing (pinned by `tests/zero_alloc_audit.rs`). [`compare`] measures
//! the approximation quality pair-by-pair.
//!
//! [`WeightedSpannerOracle`] is the weighted twin: same caching and batch
//! contracts, with delta-stepping SSSP ([`nas_graph::sssp`]) in place of
//! BFS and a fixed bucket width chosen at construction.

use nas_graph::dist::{BatchScratch, BfsScratch, DistanceBatch, DistanceMap};
use nas_graph::sssp::{auto_delta, SsspBatchScratch, SsspScratch};
use nas_graph::{Graph, WeightedGraph};
use nas_par::WorkerPool;

/// A uniform counter snapshot for either oracle flavor — the one struct a
/// monitoring surface (e.g. `nas-serve`'s `/stats` endpoint) reads instead
/// of stitching together per-oracle accessors.
///
/// All counters are cumulative over the oracle's lifetime except
/// [`cached_rows`](OracleStats::cached_rows), which is the *current* cache
/// occupancy (0 or 1 — both oracles keep a single-row cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Point queries answered (`distance` calls).
    pub point_queries: u64,
    /// Point queries answered from the cached row, without a traversal
    /// (including symmetric hits on the reversed endpoint pair).
    pub cache_hits: u64,
    /// Full-row traversals executed — BFS for [`SpannerOracle`],
    /// delta-stepping SSSP for [`WeightedSpannerOracle`] — across both the
    /// point and batch paths. Equals `bfs_runs()` / `sssp_runs()`.
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

/// Distance oracle over a spanner `H`.
///
/// Point queries run BFS from the source on demand; the row is cached, so
/// repeated queries from (or into — the graph is undirected) one source
/// are cheap. For many sources use
/// [`distances_batch_into`](SpannerOracle::distances_batch_into); for an
/// all-pairs audit use [`crate::stretch_audit`] instead.
#[derive(Debug, Clone)]
pub struct SpannerOracle {
    spanner: Graph,
    cache_source: Option<usize>,
    cache_row: DistanceMap,
    scratch: BfsScratch,
    batch_scratch: BatchScratch,
    bfs_runs: u64,
    point_queries: u64,
    cache_hits: u64,
}

impl SpannerOracle {
    /// Creates an oracle over a spanner graph.
    pub fn new(spanner: Graph) -> Self {
        SpannerOracle {
            spanner,
            cache_source: None,
            cache_row: DistanceMap::new(),
            scratch: BfsScratch::new(),
            batch_scratch: BatchScratch::new(),
            bfs_runs: 0,
            point_queries: 0,
            cache_hits: 0,
        }
    }

    /// The underlying spanner.
    pub fn graph(&self) -> &Graph {
        &self.spanner
    }

    /// Number of BFS traversals executed so far (cache-effectiveness
    /// observability; pinned by tests).
    pub fn bfs_runs(&self) -> u64 {
        self.bfs_runs
    }

    /// Rows currently held in the single-row cache (0 or 1).
    pub fn cached_rows(&self) -> u64 {
        self.cache_source.is_some() as u64
    }

    /// The uniform counter snapshot ([`OracleStats`]) for this oracle:
    /// `traversals` is [`bfs_runs`](SpannerOracle::bfs_runs), point-query
    /// counters cover the [`distance`](SpannerOracle::distance) surface.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            point_queries: self.point_queries,
            cache_hits: self.cache_hits,
            traversals: self.bfs_runs,
            cached_rows: self.cached_rows(),
        }
    }

    /// The spanner distance `d_H(u, v)`, or `None` if disconnected in `H`.
    ///
    /// The graph is undirected, so `d_H(u, v) = d_H(v, u)`: a cached row
    /// for *either* endpoint answers the query without a fresh BFS.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn distance(&mut self, u: usize, v: usize) -> Option<u32> {
        let n = self.spanner.num_vertices();
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
        self.cache_row.fill(&self.spanner, [u], &mut self.scratch);
        self.cache_source = Some(u);
        self.bfs_runs += 1;
    }

    /// Batched distances from one source (one BFS, cached): the flat row.
    pub fn distance_map_from(&mut self, u: usize) -> &DistanceMap {
        if self.cache_source != Some(u) {
            self.refill_cache(u);
        }
        &self.cache_row
    }

    /// Batched distances from many sources into a reusable flat batch: one
    /// BFS per source, sharded over `pool`. Row `i` corresponds to
    /// `sources[i]`, byte-identical to a sequential
    /// [`distance_map_from`](SpannerOracle::distance_map_from) loop at any
    /// thread count.
    ///
    /// Reuses `out` and the oracle's internal per-lane scratch: after one
    /// warmup call, repeated batches of the same shape allocate nothing.
    /// Counts one BFS per source in [`bfs_runs`](SpannerOracle::bfs_runs)
    /// and leaves the single-row cache holding the *last* source's row, so
    /// follow-up point queries anchored there stay free.
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
        out.fill(&self.spanner, sources, &mut self.batch_scratch, pool);
        self.bfs_runs += sources.len() as u64;
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

/// Distance oracle over a **weighted** spanner `H`.
///
/// The weighted twin of [`SpannerOracle`]: point queries run one
/// delta-stepping SSSP ([`nas_graph::sssp`]) from the source and cache the
/// row (answering reversed queries by symmetry), batched queries fill a
/// flat [`DistanceBatch`] sharded over a worker pool through the oracle's
/// own [`SsspBatchScratch`]. After one warmup batch, repeated batch audits
/// allocate nothing (pinned by `tests/zero_alloc_weighted.rs`).
///
/// The delta-stepping bucket width is fixed at construction —
/// [`auto_delta`] by default, or an explicit width via
/// [`with_delta`](WeightedSpannerOracle::with_delta) — so every query
/// against one oracle is a pure function of `(spanner, source)`.
#[derive(Debug, Clone)]
pub struct WeightedSpannerOracle {
    spanner: WeightedGraph,
    delta: u32,
    cache_source: Option<usize>,
    cache_row: DistanceMap,
    scratch: SsspScratch,
    batch_scratch: SsspBatchScratch,
    sssp_runs: u64,
    point_queries: u64,
    cache_hits: u64,
}

impl WeightedSpannerOracle {
    /// Creates an oracle over a weighted spanner, picking the bucket width
    /// with [`auto_delta`] (unit weights degenerate to Dial's `Δ = 1`).
    pub fn new(spanner: WeightedGraph) -> Self {
        let delta = auto_delta(&spanner);
        Self::with_delta(spanner, delta)
    }

    /// Creates an oracle with an explicit delta-stepping bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0`.
    pub fn with_delta(spanner: WeightedGraph, delta: u32) -> Self {
        assert!(delta >= 1, "delta must be at least 1");
        WeightedSpannerOracle {
            spanner,
            delta,
            cache_source: None,
            cache_row: DistanceMap::new(),
            scratch: SsspScratch::new(),
            batch_scratch: SsspBatchScratch::new(),
            sssp_runs: 0,
            point_queries: 0,
            cache_hits: 0,
        }
    }

    /// The underlying weighted spanner.
    pub fn graph(&self) -> &WeightedGraph {
        &self.spanner
    }

    /// The delta-stepping bucket width this oracle traverses with.
    pub fn delta(&self) -> u32 {
        self.delta
    }

    /// Number of SSSP traversals executed so far (cache-effectiveness
    /// observability, the weighted analogue of
    /// [`bfs_runs`](SpannerOracle::bfs_runs)).
    pub fn sssp_runs(&self) -> u64 {
        self.sssp_runs
    }

    /// Rows currently held in the single-row cache (0 or 1).
    pub fn cached_rows(&self) -> u64 {
        self.cache_source.is_some() as u64
    }

    /// The uniform counter snapshot ([`OracleStats`]) for this oracle:
    /// `traversals` is [`sssp_runs`](WeightedSpannerOracle::sssp_runs),
    /// point-query counters cover the
    /// [`distance`](WeightedSpannerOracle::distance) surface.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            point_queries: self.point_queries,
            cache_hits: self.cache_hits,
            traversals: self.sssp_runs,
            cached_rows: self.cached_rows(),
        }
    }

    /// The weighted spanner distance `d_H(u, v)`, or `None` if
    /// disconnected in `H`. Symmetric like the unweighted oracle: a cached
    /// row for *either* endpoint answers without a fresh traversal.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn distance(&mut self, u: usize, v: usize) -> Option<u32> {
        let n = self.spanner.num_vertices();
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
        self.cache_row
            .fill_weighted(&self.spanner, [u], self.delta, &mut self.scratch);
        self.cache_source = Some(u);
        self.sssp_runs += 1;
    }

    /// Batched weighted distances from one source (one SSSP, cached).
    pub fn distance_map_from(&mut self, u: usize) -> &DistanceMap {
        if self.cache_source != Some(u) {
            self.refill_cache(u);
        }
        &self.cache_row
    }

    /// Batched weighted distances from many sources into a reusable flat
    /// batch: one SSSP per source, sharded over `pool`. Row `i`
    /// corresponds to `sources[i]`, byte-identical to a sequential
    /// [`distance_map_from`](WeightedSpannerOracle::distance_map_from)
    /// loop at any thread count.
    ///
    /// Reuses `out` and the oracle's internal per-lane scratch: after one
    /// warmup call, repeated batches of the same shape allocate nothing.
    /// Counts one SSSP per source in
    /// [`sssp_runs`](WeightedSpannerOracle::sssp_runs) and leaves the
    /// single-row cache holding the *last* source's row.
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
        out.fill_weighted(
            &self.spanner,
            sources,
            self.delta,
            &mut self.batch_scratch,
            pool,
        );
        self.sssp_runs += sources.len() as u64;
        if let Some(&s) = sources.last() {
            self.cache_source = Some(s);
            self.cache_row.copy_row(out.row(sources.len() - 1));
        }
    }

    /// [`distances_batch_into`](WeightedSpannerOracle::distances_batch_into)
    /// with a freshly allocated batch — the convenience form for one-shot
    /// callers.
    pub fn distances_batch(&mut self, sources: &[usize], pool: &WorkerPool) -> DistanceBatch {
        let mut out = DistanceBatch::new();
        self.distances_batch_into(sources, &mut out, pool);
        out
    }
}

/// Quality of one oracle answer against the base graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryQuality {
    /// Exact distance in `G`.
    pub exact: u32,
    /// Spanner distance.
    pub approx: u32,
    /// `approx − exact`.
    pub additive_error: u32,
}

/// Compares oracle answers against exact distances for the given pairs.
///
/// Returns `None` entries for pairs disconnected in `G`.
///
/// # Panics
///
/// Panics if the vertex sets differ or a spanner loses connectivity that `G`
/// has (that would make it not a spanner).
pub fn compare(
    g: &Graph,
    oracle: &mut SpannerOracle,
    pairs: &[(usize, usize)],
) -> Vec<Option<QueryQuality>> {
    assert_eq!(g.num_vertices(), oracle.graph().num_vertices());
    let mut out = Vec::with_capacity(pairs.len());
    let mut g_cache_source = usize::MAX;
    let mut g_row = DistanceMap::new();
    let mut g_scratch = BfsScratch::new();
    for &(u, v) in pairs {
        if g_cache_source != u {
            g_row.fill(g, [u], &mut g_scratch);
            g_cache_source = u;
        }
        match g_row.get(v) {
            None => out.push(None),
            Some(exact) => {
                let approx = oracle
                    .distance(u, v)
                    .expect("spanner must preserve connectivity");
                assert!(approx >= exact, "spanner distance below graph distance");
                out.push(Some(QueryQuality {
                    exact,
                    approx,
                    additive_error: approx - exact,
                }));
            }
        }
    }
    out
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
        assert_eq!(o.bfs_runs(), 1);
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
        assert_eq!(o.bfs_runs(), 1);
        let backward = o.distance(35, 0); // reversed endpoints: same row
        assert_eq!(forward, backward);
        assert_eq!(o.bfs_runs(), 1, "symmetric query must not re-BFS");
        // Mixed batch anchored on one endpoint: still one BFS total.
        for v in [1, 7, 13, 35] {
            o.distance(v, 0);
        }
        assert_eq!(o.bfs_runs(), 1);
        // A genuinely new source pair does BFS again.
        o.distance(14, 21);
        assert_eq!(o.bfs_runs(), 2);
    }

    #[test]
    fn batch_distances_match_point_queries() {
        let g = generators::grid2d(7, 7);
        let pool = nas_par::WorkerPool::new(3);
        let sources = [0usize, 13, 25, 48, 13];
        let mut batched = SpannerOracle::new(g.clone());
        let rows = batched.distances_batch(&sources, &pool);
        assert_eq!(batched.bfs_runs(), sources.len() as u64);

        let mut pointwise = SpannerOracle::new(g.clone());
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(
                rows.row(i),
                pointwise.distance_map_from(s).raw(),
                "source {s}"
            );
        }
        // The cache holds the last batched row: anchored queries are free.
        let runs = batched.bfs_runs();
        assert_eq!(batched.distance(13, 40), rows.get(4, 40));
        assert_eq!(batched.bfs_runs(), runs);
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
            assert_eq!(o.bfs_runs(), 3 * sources.len() as u64);
        }
    }

    /// The unified [`OracleStats`] snapshot agrees with the per-oracle
    /// accessors on both flavors, and the hit counters track the point
    /// path (cache hits, symmetric hits, batch traversals).
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
                traversals: o.bfs_runs(),
                cached_rows: o.cached_rows(),
            }
        );
        assert_eq!(s.traversals, 1);
        assert_eq!(s.cached_rows, 1);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        // The batch path counts traversals but no point queries.
        let pool = nas_par::WorkerPool::new(2);
        o.distances_batch(&[3, 9], &pool);
        assert_eq!(o.stats().traversals, 3);
        assert_eq!(o.stats().point_queries, 3);

        let wg = nas_graph::WeightedGraph::uniform(g, 2);
        let mut w = WeightedSpannerOracle::new(wg);
        assert_eq!(w.stats(), OracleStats::default());
        w.distance(0, 35);
        w.distance(35, 0);
        assert_eq!(
            w.stats(),
            OracleStats {
                point_queries: 2,
                cache_hits: 1,
                traversals: w.sssp_runs(),
                cached_rows: w.cached_rows(),
            }
        );
        assert_eq!(w.stats().traversals, 1);
    }

    #[test]
    fn compare_reports_errors() {
        // Spanner = path, graph = cycle: pair (0, n-1) has error n-2.
        let n = 8;
        let g = generators::cycle(n);
        let mut b = nas_graph::GraphBuilder::new(n);
        for v in 1..n {
            b.add_edge(v - 1, v);
        }
        let mut o = SpannerOracle::new(b.build());
        let q = compare(&g, &mut o, &[(0, n - 1), (0, 1)]);
        assert_eq!(q[0].unwrap().additive_error as usize, n - 2);
        assert_eq!(q[1].unwrap().additive_error, 0);
    }

    #[test]
    fn disconnected_pairs_in_g_are_none() {
        let mut b = nas_graph::GraphBuilder::new(4);
        b.add_edge(0, 1);
        let g = b.build();
        let mut o = SpannerOracle::new(g.clone());
        let q = compare(&g, &mut o, &[(0, 3)]);
        assert_eq!(q[0], None);
    }

    /// The weighted oracle answers point queries with exact weighted
    /// distances (cross-checked against the naive Dijkstra reference) and
    /// reuses its cached row symmetrically.
    #[test]
    fn weighted_oracle_matches_dijkstra() {
        use nas_graph::weighted::WeightDist;
        let g = generators::weighted_gnp(60, 0.08, 3, WeightDist::Uniform { lo: 1, hi: 30 });
        let reference = nas_graph::sssp::dijkstra(&g, [0]);
        let mut o = WeightedSpannerOracle::new(g.clone());
        for v in 0..60 {
            assert_eq!(o.distance(0, v), reference.get(v), "vertex {v}");
        }
        assert_eq!(o.sssp_runs(), 1, "one cached row answers all queries");
        // Reversed endpoints hit the same row by symmetry.
        assert_eq!(o.distance(17, 0), reference.get(17));
        assert_eq!(o.sssp_runs(), 1);
        // A genuinely new source traverses again.
        o.distance(5, 9);
        assert_eq!(o.sssp_runs(), 2);
    }

    /// The weighted batch path matches point queries row for row at every
    /// thread count and reuses `out` plus the oracle scratch across calls.
    #[test]
    fn weighted_batch_matches_point_queries() {
        use nas_graph::weighted::WeightDist;
        let g = generators::weighted_grid2d(7, 7, 11, WeightDist::Uniform { lo: 1, hi: 9 });
        let sources = [0usize, 13, 25, 48, 13];
        let want: Vec<Vec<u32>> = {
            let mut o = WeightedSpannerOracle::new(g.clone());
            sources
                .iter()
                .map(|&s| o.distance_map_from(s).raw().to_vec())
                .collect()
        };
        for threads in [1usize, 2, 4] {
            let pool = nas_par::WorkerPool::new(threads);
            let mut o = WeightedSpannerOracle::new(g.clone());
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
            assert_eq!(o.sssp_runs(), 3 * sources.len() as u64);
            // The cache holds the last batched row.
            let runs = o.sssp_runs();
            assert_eq!(o.distance(13, 40), out.get(4, 40));
            assert_eq!(o.sssp_runs(), runs);
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
        let mut weighted = WeightedSpannerOracle::new(wg);
        assert_eq!(weighted.delta(), 1);
        for s in [0usize, 7, 23, 49] {
            assert_eq!(
                weighted.distance_map_from(s).raw(),
                plain.distance_map_from(s).raw(),
                "source {s}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "delta must be at least 1")]
    fn weighted_oracle_rejects_zero_delta() {
        let g = nas_graph::WeightedGraph::uniform(generators::path(3), 1);
        WeightedSpannerOracle::with_delta(g, 0);
    }

    #[test]
    fn end_to_end_with_real_spanner() {
        let g = generators::connected_gnp(70, 0.1, 4);
        let r = nas_core::Session::on(&g)
            .params(nas_core::Params::practical(0.5, 4, 0.45))
            .run()
            .unwrap();
        let mut o = SpannerOracle::new(r.to_graph());
        let pairs: Vec<(usize, usize)> = (0..70).map(|v| (0, v)).collect();
        let q = compare(&g, &mut o, &pairs);
        for entry in q.into_iter().flatten() {
            assert!(entry.approx >= entry.exact);
        }
    }
}
