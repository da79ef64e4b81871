//! The weighted leg of the flat distance plane: a deterministic
//! delta-stepping SSSP engine over [`WeightedGraph`], with the same
//! contracts as the BFS plane in [`crate::dist`] — dense `u32` rows with
//! the [`UNREACHED`](crate::dist::UNREACHED) sentinel, reusable scratch, and pooled batch fills
//! that are byte-identical at every thread count.
//!
//! # The bucket/reactivation pattern
//!
//! Delta-stepping (Meyer–Sanders) coarsens Dijkstra's priority queue into
//! an array of *buckets*: bucket `i` holds tentative distances in
//! `[i·Δ, (i+1)·Δ)`. Because a path can gain at most `max_weight` beyond
//! the current bucket's range in one relaxation, only
//! `max_weight/Δ + 2` bucket slots can be live at once — the engine keeps
//! exactly that many `Vec`s and addresses them cyclically
//! (`slot = index % num_slots`). Processing one bucket has two phases:
//!
//! 1. **Light phase with reactivation.** Edges of weight `≤ Δ` can
//!    re-insert a vertex into the *current* bucket (a shorter path within
//!    the same Δ-window), so the bucket is drained repeatedly — swap the
//!    slot's contents into a drain list, relax every light edge, repeat
//!    until the slot stays empty. Removals are lazy: a popped vertex whose
//!    tentative distance no longer maps to the current bucket is a stale
//!    entry and is skipped (`dist[v] / Δ != index`).
//! 2. **Heavy phase.** Edges of weight `> Δ` always reach a strictly later
//!    bucket, so each vertex settled in the current bucket relaxes its
//!    heavy edges exactly once, with its final distance.
//!
//! (The ROADMAP used to point at an external delta-stepping excerpt in
//! SNIPPETS.md for this structure; the excerpt was never imported, so this
//! module's implementation is the in-tree reference for the pattern.)
//!
//! # Saturation convention
//!
//! Weights are `u32` and path lengths can overflow it, so every relaxation
//! computes its candidate in `u64` and saturates at [`MAX_FINITE`]
//! (`u32::MAX - 1`). The [`UNREACHED`](crate::dist::UNREACHED) sentinel (`u32::MAX`) is therefore
//! never produced by arithmetic: a finite entry always means "reached, at
//! distance `min(true distance, MAX_FINITE)`", and the sentinel always
//! means "unreached". The retained [`dijkstra`] reference applies the same
//! per-relaxation clamp, so the two engines agree bit-for-bit even on
//! saturating inputs.
//!
//! # Determinism under parallelism
//!
//! A single row is computed by a fully *sequential* kernel: buckets are
//! processed in increasing index order and the drain order within a bucket
//! is the deterministic insertion order, so the filled row is a pure
//! function of `(graph, sources, delta)` — no tie-breaking between threads
//! can arise inside a row. The pooled batch fills parallelize across
//! *rows* only, exactly like [`DistanceBatch::fill`]: lanes own disjoint
//! contiguous row ranges of the flat output plus a private
//! [`SsspScratch`], so the batch is byte-identical to the sequential loop
//! at every thread count — the same contiguous-shard argument as the
//! sharded round of the CONGEST simulator and the BFS batch fills; see the
//! `nas_par` crate docs and the [`crate::dist`] module docs.
//!
//! # Example
//!
//! ```
//! use nas_graph::{DistanceMap, WeightedGraphBuilder};
//! use nas_graph::sssp::SsspScratch;
//!
//! let mut b = WeightedGraphBuilder::new(3);
//! b.add_edge(0, 1, 10);
//! b.add_edge(1, 2, 1);
//! b.add_edge(0, 2, 100); // longer than the two-hop path
//! let g = b.build();
//! let mut d = DistanceMap::new();
//! let mut scratch = SsspScratch::new();
//! d.fill_weighted(&g, [0], 4, &mut scratch);
//! assert_eq!(d.raw(), &[0, 10, 11]);
//! ```

use crate::dist::{DistanceBatch, DistanceMap, EpochMarks, LaneScratch};
use crate::weighted::WeightedGraph;
use nas_par::WorkerPool;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The largest distance value the weighted plane produces (`u32::MAX - 1`).
///
/// Path lengths saturate here (see the module docs), keeping [`UNREACHED`](crate::dist::UNREACHED)
/// (`u32::MAX`) unambiguous.
pub const MAX_FINITE: u32 = u32::MAX - 1;

/// Reusable delta-stepping traversal state: the cyclic bucket array, the
/// reactivation drain list, and the per-bucket settled set.
///
/// One scratch serves any number of graphs and any `delta`; buffers grow to
/// the high-water mark and are then reused forever, mirroring
/// [`crate::BfsScratch`]'s half of the scratch-reuse contract.
#[derive(Debug, Clone, Default)]
pub struct SsspScratch {
    /// Cyclic bucket array: slot `i` holds vertices whose tentative
    /// distance maps to a bucket index `≡ i (mod buckets.len())`.
    buckets: Vec<Vec<u32>>,
    /// Swap target for draining the current bucket (the reactivation queue).
    drain: Vec<u32>,
    /// Vertices settled in the current bucket, for the heavy phase.
    settled: Vec<u32>,
    /// Dedup marks for `settled` (a vertex can be drained several times).
    settled_marks: EpochMarks,
}

impl SsspScratch {
    /// A fresh (empty) scratch.
    pub fn new() -> Self {
        SsspScratch::default()
    }
}

/// A bucket width for `g` that keeps the cyclic bucket array small: the
/// average arc weight, clamped to at least 1.
///
/// The bucket array has `max_weight/Δ + 2` slots, so the average weight
/// bounds it by roughly `max_weight / avg_weight + 2` — small for both
/// unit-weight graphs (Δ = 1, three slots, Dial's algorithm) and wide
/// uniform ranges (Δ ≈ max/2). Callers with structural knowledge can pass
/// an explicit `delta` instead; the filled rows do not depend on the
/// choice, only the running time does.
pub fn auto_delta(g: &WeightedGraph) -> u32 {
    let arcs = g.graph().degree_sum() as u64;
    if arcs == 0 {
        return 1;
    }
    let total: u64 = g.arc_weights().iter().map(|&w| w as u64).sum();
    (total / arcs).clamp(1, u32::MAX as u64) as u32
}

/// The delta-stepping kernel: fills `row` (already sized to `n` and
/// all-[`UNREACHED`](crate::dist::UNREACHED)) with weighted distances from `sources`.
///
/// See the module docs for the bucket/reactivation structure; this kernel
/// is fully sequential, which is what makes the pooled batch fills
/// deterministic.
fn sssp_row<I: IntoIterator<Item = usize>>(
    g: &WeightedGraph,
    sources: I,
    delta: u32,
    row: &mut [u32],
    scratch: &mut SsspScratch,
) {
    let n = row.len();
    debug_assert_eq!(n, g.num_vertices());
    assert!(delta >= 1, "delta must be at least 1");
    let delta = delta as u64;
    // One relaxation moves at most `max_weight` past the current bucket's
    // range, so this many slots can hold live entries at once.
    let num_slots = (g.max_weight() as u64 / delta) as usize + 2;
    if scratch.buckets.len() < num_slots {
        scratch.buckets.resize_with(num_slots, Vec::new);
    }
    let SsspScratch {
        buckets,
        drain,
        settled,
        settled_marks,
    } = scratch;
    debug_assert!(
        buckets.iter().all(|b| b.is_empty()),
        "previous run left bucket entries behind"
    );
    drain.clear();
    // `pending` counts entries across all slots, including stale ones; the
    // run is complete when it reaches zero.
    let mut pending = 0usize;
    for s in sources {
        assert!(s < n, "source {s} out of range");
        if row[s] != 0 {
            row[s] = 0;
            buckets[0].push(s as u32);
            pending += 1;
        }
    }
    let mut cur: u64 = 0;
    while pending > 0 {
        // Advance to the next non-empty bucket. Every live entry maps to an
        // index in `[cur, cur + num_slots)`, so this scans at most one turn
        // of the cyclic array.
        while buckets[(cur % num_slots as u64) as usize].is_empty() {
            cur += 1;
        }
        let slot = (cur % num_slots as u64) as usize;
        settled.clear();
        settled_marks.begin(n);
        // Prefix of `settled` whose heavy edges are already relaxed.
        let mut heavy_done = 0;
        loop {
            // Light phase: drain with reactivation until the slot stays
            // empty.
            while !buckets[slot].is_empty() {
                // Copy rather than swap: a swap would migrate capacities
                // between the drain list and the bucket slots, so the
                // buffers would keep reallocating for many runs before
                // reaching a fixpoint. With each capacity pinned to its
                // owner, one warmup run reaches the allocation-free steady
                // state (pinned by nas-metrics/tests/zero_alloc_weighted.rs).
                drain.clear();
                drain.extend_from_slice(&buckets[slot]);
                buckets[slot].clear();
                pending -= drain.len();
                for &v32 in drain.iter() {
                    let v = v32 as usize;
                    let dv = row[v];
                    if dv as u64 / delta != cur {
                        // Stale entry: the vertex was improved after this
                        // copy was pushed (lazy deletion).
                        continue;
                    }
                    if settled_marks.mark(v) {
                        settled.push(v32);
                    }
                    for (&t32, &w) in g.neighbors(v).iter().zip(g.weights_of(v)) {
                        if w as u64 <= delta {
                            let cand = (dv as u64 + w as u64).min(MAX_FINITE as u64) as u32;
                            let t = t32 as usize;
                            if cand < row[t] {
                                row[t] = cand;
                                let idx = cand as u64 / delta;
                                buckets[(idx % num_slots as u64) as usize].push(t32);
                                pending += 1;
                            }
                        }
                    }
                }
                drain.clear();
            }
            if heavy_done == settled.len() {
                break;
            }
            // Heavy phase: every vertex settled in this bucket has its
            // final distance now, and each relaxes its heavy edges exactly
            // once. Heavy edges land in a strictly later bucket — except
            // when the candidate saturates at MAX_FINITE and the current
            // bucket already contains it, which is why the outer loop
            // re-checks the slot instead of assuming it stays empty.
            for &v32 in &settled[heavy_done..] {
                let v = v32 as usize;
                let dv = row[v];
                for (&t32, &w) in g.neighbors(v).iter().zip(g.weights_of(v)) {
                    if w as u64 > delta {
                        let cand = (dv as u64 + w as u64).min(MAX_FINITE as u64) as u32;
                        let t = t32 as usize;
                        if cand < row[t] {
                            row[t] = cand;
                            let idx = cand as u64 / delta;
                            buckets[(idx % num_slots as u64) as usize].push(t32);
                            pending += 1;
                        }
                    }
                }
            }
            heavy_done = settled.len();
        }
        cur += 1;
    }
}

/// Weighted fills on [`DistanceMap`]: the delta-stepping twins of the BFS
/// surface in [`crate::dist`].
impl DistanceMap {
    /// Single-source weighted distances from `source` (fresh allocation;
    /// use [`fill_weighted`](DistanceMap::fill_weighted) with a scratch on
    /// hot paths). `delta` is the bucket width; see [`auto_delta`].
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `delta == 0`.
    pub fn from_weighted_source(g: &WeightedGraph, source: usize, delta: u32) -> Self {
        Self::from_weighted_sources(g, [source], delta)
    }

    /// Multi-source weighted distances (distance to the nearest source).
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range or `delta == 0`.
    pub fn from_weighted_sources<I: IntoIterator<Item = usize>>(
        g: &WeightedGraph,
        sources: I,
        delta: u32,
    ) -> Self {
        let mut map = DistanceMap::new();
        let mut scratch = SsspScratch::new();
        map.fill_weighted(g, sources, delta, &mut scratch);
        map
    }

    /// Runs a multi-source delta-stepping SSSP on `g` into this map,
    /// reusing both the map's storage and `scratch` (zero allocation at
    /// steady state). Duplicate sources are fine.
    ///
    /// The result is a pure function of `(g, sources, delta)`; with unit
    /// weights it equals the BFS row from [`fill`](DistanceMap::fill) for
    /// any `delta` (pinned by the differential proptests).
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range or `delta == 0`.
    pub fn fill_weighted<I: IntoIterator<Item = usize>>(
        &mut self,
        g: &WeightedGraph,
        sources: I,
        delta: u32,
        scratch: &mut SsspScratch,
    ) {
        self.reset(g.num_vertices());
        sssp_row(g, sources, delta, self.raw_mut(), scratch);
    }
}

/// Reusable state for batched weighted fills: one [`SsspScratch`] per pool
/// lane plus the shard cut tables (the weighted twin of
/// [`crate::BatchScratch`]).
pub type SsspBatchScratch = LaneScratch<SsspScratch>;

/// Weighted batch fills on [`DistanceBatch`].
impl DistanceBatch {
    /// Batched single-source weighted distances: one row per entry of
    /// `sources` (fresh allocation; use
    /// [`fill_weighted`](DistanceBatch::fill_weighted) with scratch on hot
    /// paths). Rows are sharded over `pool`; the result is byte-identical
    /// at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range or `delta == 0`.
    pub fn from_weighted_sources(
        g: &WeightedGraph,
        sources: &[usize],
        delta: u32,
        pool: &WorkerPool,
    ) -> Self {
        let mut batch = DistanceBatch::new();
        let mut scratch = SsspBatchScratch::new();
        batch.fill_weighted(g, sources, delta, &mut scratch, pool);
        batch
    }

    /// Fills one row per entry of `sources` with single-source weighted
    /// distances, sharding rows contiguously across `pool`'s lanes (each
    /// lane owns a disjoint row range and a private [`SsspScratch`]).
    /// Reuses the batch's storage and `scratch`; zero allocation at steady
    /// state. Byte-identical to the sequential loop at every thread count
    /// (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range or `delta == 0`.
    pub fn fill_weighted(
        &mut self,
        g: &WeightedGraph,
        sources: &[usize],
        delta: u32,
        scratch: &mut SsspBatchScratch,
        pool: &WorkerPool,
    ) {
        // Validate up front: the out-of-range panic must fire even when the
        // kernel never runs (empty graph), like `DistanceBatch::fill`.
        for &s in sources {
            assert!(s < g.num_vertices(), "source {s} out of range");
        }
        assert!(delta >= 1, "delta must be at least 1");
        self.fill_impl(
            g.num_vertices(),
            scratch,
            pool,
            sources.len(),
            |s| 1 + g.degree(sources[s]) as u64,
            |row, s, sc| sssp_row(g, [sources[s]], delta, row, sc),
        );
    }
}

/// The retained naive Dijkstra reference: a binary-heap SSSP with the same
/// saturation convention as the delta-stepping engine.
///
/// This is the differential-testing anchor (like the CONGEST simulator's
/// `ReferenceSimulator`): simple enough to audit by eye, and required to
/// agree bit-for-bit with [`DistanceMap::fill_weighted`] on every input —
/// pinned by the proptests in `tests/proptest_sssp.rs`.
pub fn dijkstra<I: IntoIterator<Item = usize>>(g: &WeightedGraph, sources: I) -> DistanceMap {
    let n = g.num_vertices();
    let mut map = DistanceMap::with_len(n);
    let row = map.raw_mut();
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    for s in sources {
        assert!(s < n, "source {s} out of range");
        if row[s] != 0 {
            row[s] = 0;
            heap.push(Reverse((0, s as u32)));
        }
    }
    while let Some(Reverse((d, v32))) = heap.pop() {
        let v = v32 as usize;
        if d > row[v] {
            continue; // stale heap entry
        }
        for (t32, w) in g.neighbors_weighted(v) {
            let cand = (d as u64 + w as u64).min(MAX_FINITE as u64) as u32;
            let t = t32 as usize;
            if cand < row[t] {
                row[t] = cand;
                heap.push(Reverse((cand, t32)));
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::UNREACHED;
    use crate::generators;
    use crate::weighted::{WeightDist, WeightedGraphBuilder};

    fn wpath(weights: &[u32]) -> WeightedGraph {
        let mut b = WeightedGraphBuilder::new(weights.len() + 1);
        for (i, &w) in weights.iter().enumerate() {
            b.add_edge(i, i + 1, w);
        }
        b.build()
    }

    #[test]
    fn weighted_path_prefix_sums() {
        let g = wpath(&[3, 0, 7, 2]);
        for delta in [1, 2, 5, 100] {
            let d = DistanceMap::from_weighted_source(&g, 0, delta);
            assert_eq!(d.raw(), &[0, 3, 3, 10, 12], "delta {delta}");
        }
    }

    #[test]
    fn shortcut_vs_long_edge() {
        let mut b = WeightedGraphBuilder::new(3);
        b.add_edge(0, 1, 10);
        b.add_edge(1, 2, 1);
        b.add_edge(0, 2, 100);
        let g = b.build();
        let d = DistanceMap::from_weighted_source(&g, 0, 4);
        assert_eq!(d.raw(), &[0, 10, 11]);
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..8 {
            let g = WeightedGraph::from_graph(
                generators::gnp(80, 0.06, seed),
                WeightDist::Uniform { lo: 0, hi: 50 },
                seed ^ 0xABCD,
            );
            let want = dijkstra(&g, [0]);
            for delta in [1, 7, auto_delta(&g), 1000] {
                let got = DistanceMap::from_weighted_source(&g, 0, delta);
                assert_eq!(got, want, "seed {seed} delta {delta}");
            }
        }
    }

    #[test]
    fn unit_weights_match_bfs() {
        let g = WeightedGraph::uniform(generators::grid2d(9, 11), 1);
        let bfs = DistanceMap::from_source(g.graph(), 5);
        for delta in [1, 3] {
            let got = DistanceMap::from_weighted_source(&g, 5, delta);
            assert_eq!(got, bfs, "delta {delta}");
        }
    }

    #[test]
    fn disconnected_keeps_sentinel() {
        let mut b = WeightedGraphBuilder::new(4);
        b.add_edge(0, 1, 5);
        let g = b.build();
        let d = DistanceMap::from_weighted_source(&g, 0, 2);
        assert_eq!(d.raw(), &[0, 5, UNREACHED, UNREACHED]);
        assert!(!d.reached(3));
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = wpath(&[2, 2, 2, 2, 2]);
        let d = DistanceMap::from_weighted_sources(&g, [0, 5], 2);
        assert_eq!(d.raw(), &[0, 2, 4, 4, 2, 0]);
    }

    #[test]
    fn zero_weight_components_collapse() {
        let g = wpath(&[0, 0, 0]);
        let d = DistanceMap::from_weighted_source(&g, 3, 9);
        assert_eq!(d.raw(), &[0, 0, 0, 0]);
    }

    #[test]
    fn saturating_distances_stay_finite() {
        let g = wpath(&[u32::MAX, u32::MAX, 1]);
        let d = DistanceMap::from_weighted_source(&g, 0, u32::MAX);
        assert_eq!(d.raw()[0], 0);
        assert_eq!(d.raw()[1], MAX_FINITE); // u32::MAX clamps to the finite cap
        assert_eq!(d.raw()[2], MAX_FINITE);
        assert_eq!(d.raw()[3], MAX_FINITE);
        assert_eq!(d, dijkstra(&g, [0]));
    }

    #[test]
    fn scratch_is_reusable_across_graphs_and_deltas() {
        let a = wpath(&[1, 2, 3]);
        let b = WeightedGraph::from_graph(
            generators::gnp(40, 0.2, 1),
            WeightDist::Uniform { lo: 1, hi: 9 },
            2,
        );
        let mut d = DistanceMap::new();
        let mut sc = SsspScratch::new();
        d.fill_weighted(&b, [3], 4, &mut sc);
        assert_eq!(d, dijkstra(&b, [3]));
        d.fill_weighted(&a, [0], 1, &mut sc);
        assert_eq!(d.raw(), &[0, 1, 3, 6]);
        d.fill_weighted(&b, [7], 9, &mut sc);
        assert_eq!(d, dijkstra(&b, [7]));
    }

    #[test]
    fn batch_rows_match_single_fills_at_every_thread_count() {
        let g = WeightedGraph::from_graph(
            generators::gnp(60, 0.08, 3),
            WeightDist::Uniform { lo: 0, hi: 20 },
            11,
        );
        let sources: Vec<usize> = (0..20).map(|i| (i * 13) % 60).collect();
        let delta = auto_delta(&g);
        let pool1 = WorkerPool::new(1);
        let reference = DistanceBatch::from_weighted_sources(&g, &sources, delta, &pool1);
        for threads in [2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let batch = DistanceBatch::from_weighted_sources(&g, &sources, delta, &pool);
            assert_eq!(batch, reference, "threads {threads}");
        }
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(reference.row(i), dijkstra(&g, [s]).raw(), "row {i}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty = WeightedGraphBuilder::new(0).build();
        let pool = WorkerPool::new(2);
        let batch = DistanceBatch::from_weighted_sources(&empty, &[], 1, &pool);
        assert_eq!(batch.rows(), 0);

        let one = WeightedGraphBuilder::new(1).build();
        let d = DistanceMap::from_weighted_source(&one, 0, 1);
        assert_eq!(d.raw(), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = wpath(&[1]);
        let _ = DistanceMap::from_weighted_source(&g, 5, 1);
    }

    #[test]
    #[should_panic(expected = "delta must be at least 1")]
    fn zero_delta_panics() {
        let g = wpath(&[1]);
        let _ = DistanceMap::from_weighted_source(&g, 0, 0);
    }

    #[test]
    fn auto_delta_is_sane() {
        let unit = WeightedGraph::uniform(generators::path(10), 1);
        assert_eq!(auto_delta(&unit), 1);
        let empty = WeightedGraphBuilder::new(3).build();
        assert_eq!(auto_delta(&empty), 1);
        let wide = WeightedGraph::from_graph(
            generators::gnp(50, 0.1, 2),
            WeightDist::Uniform { lo: 1, hi: 100 },
            3,
        );
        let delta = auto_delta(&wide);
        assert!((1..=100).contains(&delta));
    }
}
