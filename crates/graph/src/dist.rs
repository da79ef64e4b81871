//! The flat distance plane: dense `u32` distances, reusable scratch, and
//! batched/pooled BFS — the allocation-free substrate under every distance
//! consumer in the workspace (stretch audits, oracles, baselines, ruling
//! sets, cluster radii).
//!
//! # Why not `Vec<Option<u32>>`?
//!
//! The historical BFS surface returned one freshly allocated
//! `Vec<Option<u32>>` per source: 8 bytes per entry (the discriminant
//! doubles the width of the payload), one heap allocation per call, and no
//! way to reuse traversal scratch across calls. A million-node stretch
//! audit runs thousands of BFS traversals over two graphs — on the old
//! representation that is thousands of transient 8 MB rows. This module
//! replaces the whole plane:
//!
//! * [`DistanceMap`] — a dense `u32` row with the [`UNREACHED`] sentinel
//!   (`u32::MAX`) instead of `Option`. Half the memory, branch-free reads,
//!   and `memset`-speed resets.
//! * [`BfsScratch`] — the reusable traversal state (swap frontiers). After
//!   one warmup call, repeated fills on same-sized graphs perform **zero**
//!   heap allocation (pinned by `nas-metrics`' counting-allocator test).
//! * [`EpochMarks`] — an epoch-stamped visited set with O(1) logical clear,
//!   for *bounded* traversals (kill waves, greedy stretch checks) where a
//!   dense O(n) reset per probe would dominate. The dense kernels do not
//!   need it: their output row must be fully written anyway, so the
//!   sentinel itself is the visited test.
//! * [`DistanceBatch`] + [`BatchScratch`] — many rows in one flat
//!   allocation, filled sequentially or sharded over a
//!   [`nas_par::WorkerPool`].
//!
//! # Sentinel convention
//!
//! `UNREACHED == u32::MAX` marks a vertex not reached by the traversal.
//! Every dense structure in the plane ([`DistanceMap`], [`DistanceBatch`],
//! [`crate::apsp::DistanceMatrix`]) shares this one sentinel; `get`-style
//! accessors translate it to `None` at the edges of the plane. Real hop
//! distances never collide with it (a simple graph on `n` vertices has
//! eccentricity `< n ≤ u32::MAX`).
//!
//! # Scratch-reuse contract
//!
//! Fill-style entry points take `&mut` scratch and output parameters and
//! guarantee: once every buffer has grown to its steady-state capacity
//! (one call on the largest graph involved), further calls allocate
//! nothing. Scratch is not tied to a graph — the same [`BfsScratch`] may
//! serve interleaved traversals of `G` and its spanner `H`, which is
//! exactly what the audit loops do.
//!
//! # Determinism under parallelism
//!
//! The pooled batch fills shard *rows* (sources) contiguously across lanes
//! via [`nas_par::for_each_part_mut2`]; each lane owns a disjoint row range
//! of the output and a private [`BfsScratch`]. A BFS row depends only on
//! its source and the graph, so the result is byte-identical to the
//! sequential loop at every thread count — the same argument (contiguous
//! shards, lane-ordered ownership) the CONGEST simulator and the audit
//! histograms rely on; see the `nas_par` crate docs.

use crate::graph::Graph;
use nas_par::WorkerPool;

/// Sentinel distance for a vertex the traversal did not reach.
///
/// Shared by every dense structure in the distance plane; see the module
/// docs for the convention.
pub const UNREACHED: u32 = u32::MAX;

/// A dense row of hop distances, one `u32` per vertex, with [`UNREACHED`]
/// marking unreachable vertices.
///
/// The flat replacement for the historical `Vec<Option<u32>>` BFS row:
/// half the memory, `memset` resets, and reusable storage (fills shrink or
/// grow the row in place).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistanceMap {
    dist: Vec<u32>,
}

impl DistanceMap {
    /// An empty map (no storage yet); the first [`fill`](DistanceMap::fill)
    /// sizes it.
    pub fn new() -> Self {
        DistanceMap { dist: Vec::new() }
    }

    /// A map of `n` entries, all [`UNREACHED`].
    pub fn with_len(n: usize) -> Self {
        DistanceMap {
            dist: vec![UNREACHED; n],
        }
    }

    /// Single-source distances from `source` in `g` (fresh allocation; use
    /// [`fill`](DistanceMap::fill) with a scratch on hot paths).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn from_source(g: &Graph, source: usize) -> Self {
        Self::from_sources(g, [source])
    }

    /// Multi-source distances (distance to the nearest source) in `g`
    /// (fresh allocation; use [`fill`](DistanceMap::fill) with a scratch on
    /// hot paths).
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range.
    pub fn from_sources<I: IntoIterator<Item = usize>>(g: &Graph, sources: I) -> Self {
        let mut map = DistanceMap::new();
        let mut scratch = BfsScratch::new();
        map.fill(g, sources, &mut scratch);
        map
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// The distance to `v`, or `None` if unreached.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn get(&self, v: usize) -> Option<u32> {
        let d = self.dist[v];
        (d != UNREACHED).then_some(d)
    }

    /// Whether `v` was reached.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn reached(&self, v: usize) -> bool {
        self.dist[v] != UNREACHED
    }

    /// The raw row (with [`UNREACHED`] sentinels) — the representation the
    /// audit hot loops scan.
    #[inline]
    pub fn raw(&self) -> &[u32] {
        &self.dist
    }

    /// Mutable raw access for the in-crate fill kernels (BFS here, the
    /// delta-stepping engine in [`crate::sssp`]).
    #[inline]
    pub(crate) fn raw_mut(&mut self) -> &mut [u32] {
        &mut self.dist
    }

    /// Resizes to `n` entries and resets every entry to [`UNREACHED`].
    /// Allocates only when growing past the current capacity.
    pub fn reset(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, UNREACHED);
    }

    /// Copies a raw sentinel row into this map, reusing storage.
    pub fn copy_row(&mut self, row: &[u32]) {
        self.dist.clear();
        self.dist.extend_from_slice(row);
    }

    /// Runs a multi-source BFS on `g` into this map, reusing both the map's
    /// storage and `scratch` (zero allocation at steady state).
    ///
    /// Duplicate sources are fine; the map always ends up with exactly
    /// `g.num_vertices()` entries.
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range.
    pub fn fill<I: IntoIterator<Item = usize>>(
        &mut self,
        g: &Graph,
        sources: I,
        scratch: &mut BfsScratch,
    ) {
        self.reset(g.num_vertices());
        bfs_row(g, sources, &mut self.dist, scratch);
    }

    /// The row as `Option`s (one fresh allocation), `None` for unreached
    /// vertices.
    pub fn to_options(&self) -> Vec<Option<u32>> {
        self.dist
            .iter()
            .map(|&d| (d != UNREACHED).then_some(d))
            .collect()
    }

    /// The largest finite distance in the map, or `None` if the map is
    /// empty or every entry is [`UNREACHED`]. Note that a filled map's
    /// sources are finite entries of value 0, so after any fill on a
    /// non-empty graph this returns `Some` (at least `Some(0)`).
    pub fn max_finite(&self) -> Option<u32> {
        self.dist.iter().copied().filter(|&d| d != UNREACHED).max()
    }
}

impl std::ops::Index<usize> for DistanceMap {
    type Output = u32;

    /// Raw indexed access: yields [`UNREACHED`] (not a panic) for
    /// unreached vertices.
    #[inline]
    fn index(&self, v: usize) -> &u32 {
        &self.dist[v]
    }
}

/// An epoch-stamped visited set: `mark` is O(1), and so is clearing the
/// whole set ([`begin`](EpochMarks::begin) just bumps the epoch).
///
/// This is the visited plane for *bounded* traversals — digit-elimination
/// kill waves, the greedy spanner's threshold probes — which touch a tiny
/// fraction of the graph per probe and cannot afford an O(n) reset each
/// time. (The dense BFS kernels don't need it; see the module docs.)
#[derive(Debug, Clone, Default)]
pub struct EpochMarks {
    mark: Vec<u32>,
    epoch: u32,
}

impl EpochMarks {
    /// An empty set; the first [`begin`](EpochMarks::begin) sizes it.
    pub fn new() -> Self {
        EpochMarks::default()
    }

    /// Starts a new traversal over `n` vertices: logically clears every
    /// mark in O(1) (epoch bump; storage is resized only when `n` grows,
    /// and physically wiped once every `u32::MAX` traversals on wrap).
    pub fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks `v`; returns `true` iff `v` was not yet marked this epoch.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the range given to the last `begin`.
    #[inline]
    pub fn mark(&mut self, v: usize) -> bool {
        if self.mark[v] == self.epoch {
            false
        } else {
            self.mark[v] = self.epoch;
            true
        }
    }

    /// Whether `v` is marked this epoch.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the range given to the last `begin`.
    #[inline]
    pub fn is_marked(&self, v: usize) -> bool {
        self.mark[v] == self.epoch
    }
}

/// Reusable BFS traversal state: a pair of swap frontiers.
///
/// One scratch serves any number of graphs of any size; buffers grow to
/// the high-water mark and are then reused forever (the zero-allocation
/// half of the scratch-reuse contract in the module docs).
#[derive(Debug, Clone, Default)]
pub struct BfsScratch {
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl BfsScratch {
    /// A fresh (empty) scratch.
    pub fn new() -> Self {
        BfsScratch::default()
    }
}

/// The dense BFS kernel: fills `row` (already sized to `n`) with hop
/// distances from `sources`, using the row's own [`UNREACHED`] sentinel as
/// the visited test and `scratch`'s swap frontiers for the traversal.
///
/// `row` must be all-[`UNREACHED`] on entry (the callers reset it).
fn bfs_row<I: IntoIterator<Item = usize>>(
    g: &Graph,
    sources: I,
    row: &mut [u32],
    scratch: &mut BfsScratch,
) {
    let n = row.len();
    debug_assert_eq!(n, g.num_vertices());
    let BfsScratch { frontier, next } = scratch;
    frontier.clear();
    next.clear();
    for s in sources {
        assert!(s < n, "source {s} out of range");
        if row[s] == UNREACHED {
            row[s] = 0;
            frontier.push(s as u32);
        }
    }
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        for &v in frontier.iter() {
            for &u in g.neighbors(v as usize) {
                let u = u as usize;
                if row[u] == UNREACHED {
                    row[u] = d;
                    next.push(u as u32);
                }
            }
        }
        std::mem::swap(frontier, next);
        next.clear();
    }
}

/// Many distance rows in one flat allocation: row `i` holds the distances
/// of the `i`-th batched BFS (`width` entries each, [`UNREACHED`]
/// sentinels).
///
/// The flat replacement for the historical `Vec<Vec<Option<u32>>>`
/// row-of-rows: one allocation regardless of the batch size, cache-linear
/// scans, and in-place reuse across batches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistanceBatch {
    width: usize,
    data: Vec<u32>,
}

impl DistanceBatch {
    /// An empty batch; the first fill sizes it.
    pub fn new() -> Self {
        DistanceBatch::default()
    }

    /// Batched single-source distances: one row per entry of `sources`
    /// (fresh allocation; use [`fill`](DistanceBatch::fill) with scratch on
    /// hot paths). Rows are sharded over `pool`; the result is identical
    /// at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range.
    pub fn from_sources(g: &Graph, sources: &[usize], pool: &WorkerPool) -> Self {
        let mut batch = DistanceBatch::new();
        let mut scratch = BatchScratch::new();
        batch.fill(g, sources, &mut scratch, pool);
        batch
    }

    /// Number of rows.
    ///
    /// Note: a fill over a zero-vertex graph has `width() == 0` and
    /// reports 0 rows regardless of how many (necessarily empty) rows
    /// were requested — the flat representation cannot distinguish them.
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.width).unwrap_or(0)
    }

    /// Entries per row (the vertex count of the filled graph).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `i` as a raw sentinel slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// The distance of row `i` to vertex `v`, or `None` if unreached.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `v` is out of range.
    #[inline]
    pub fn get(&self, i: usize, v: usize) -> Option<u32> {
        assert!(v < self.width, "vertex {v} out of range");
        let d = self.data[i * self.width + v];
        (d != UNREACHED).then_some(d)
    }

    /// Iterator over the rows (raw sentinel slices), in batch order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[u32]> {
        // `chunks_exact(0)` panics; an empty batch has no rows to yield.
        let width = self.width.max(1);
        self.data.chunks_exact(width)
    }

    /// Consumes the batch, returning the flat row-major data.
    pub fn into_data(self) -> Vec<u32> {
        self.data
    }

    fn reset(&mut self, rows: usize, width: usize) {
        self.width = width;
        self.data.clear();
        self.data.resize(rows * width, UNREACHED);
    }

    /// Fills one row per entry of `sources` with single-source distances in
    /// `g`, sharding rows contiguously across `pool`'s lanes (lane `i` owns
    /// a disjoint row range and a private per-lane scratch). Reuses the
    /// batch's storage and `scratch`; zero allocation at steady state.
    ///
    /// Byte-identical to the sequential loop at every thread count (see
    /// the module docs).
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range.
    pub fn fill(
        &mut self,
        g: &Graph,
        sources: &[usize],
        scratch: &mut BatchScratch,
        pool: &WorkerPool,
    ) {
        // Validate up front (not only inside the per-row kernel): the
        // out-of-range panic must fire even when the kernel never runs
        // (empty graph), matching the pre-refactor per-source functions.
        for &s in sources {
            assert!(s < g.num_vertices(), "source {s} out of range");
        }
        self.fill_impl(
            g.num_vertices(),
            scratch,
            pool,
            sources.len(),
            |s| 1 + g.degree(sources[s]) as u64,
            |row, s, sc| bfs_row(g, [sources[s]], row, sc),
        );
    }

    /// Like [`fill`](DistanceBatch::fill), but each row `i` is a
    /// *multi-source* BFS from `source_sets[i]` (distance to the nearest
    /// source of the set).
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range.
    pub fn fill_multi(
        &mut self,
        g: &Graph,
        source_sets: &[&[usize]],
        scratch: &mut BatchScratch,
        pool: &WorkerPool,
    ) {
        // See `fill`: range errors must not be masked by the empty-graph
        // early return.
        for set in source_sets {
            for &s in *set {
                assert!(s < g.num_vertices(), "source {s} out of range");
            }
        }
        self.fill_impl(
            g.num_vertices(),
            scratch,
            pool,
            source_sets.len(),
            |s| {
                1 + source_sets[s]
                    .iter()
                    .map(|&v| g.degree(v) as u64)
                    .sum::<u64>()
            },
            |row, s, sc| bfs_row(g, source_sets[s].iter().copied(), row, sc),
        );
    }

    /// The shared engine under every pooled batch fill (unweighted BFS here,
    /// delta-stepping in [`crate::sssp`]): reset the flat storage, shard rows
    /// by `row_weight`, and run `fill_row` per row with a per-lane scratch of
    /// type `S`.
    pub(crate) fn fill_impl<S: Send + Default>(
        &mut self,
        width: usize,
        scratch: &mut LaneScratch<S>,
        pool: &WorkerPool,
        rows: usize,
        row_weight: impl Fn(usize) -> u64,
        fill_row: impl Fn(&mut [u32], usize, &mut S) + Sync,
    ) {
        let n = width;
        self.reset(rows, n);
        if rows == 0 || n == 0 {
            return;
        }
        let lanes = pool.threads();
        scratch.prepare(rows, n, lanes, row_weight);
        let LaneScratch {
            lanes: lane_scratch,
            row_cuts,
            data_cuts,
            lane_cuts,
        } = scratch;
        nas_par::for_each_part_mut2(
            pool,
            &mut self.data,
            data_cuts,
            lane_scratch,
            lane_cuts,
            |lane, rows_part, scratch_part| {
                let sc = &mut scratch_part[0];
                for (k, row) in rows_part.chunks_exact_mut(n).enumerate() {
                    fill_row(row, row_cuts[lane] + k, sc);
                }
            },
        );
    }
}

/// Reusable state for batched fills: one per-lane traversal scratch of type
/// `S` plus the shard cut tables. Everything is grown on first use and
/// reused afterwards (zero steady-state allocation).
///
/// The lane-sharding machinery is independent of the traversal kind, so one
/// generic structure serves both the BFS plane ([`BatchScratch`] =
/// `LaneScratch<BfsScratch>`) and the weighted delta-stepping plane
/// ([`crate::sssp::SsspBatchScratch`] = `LaneScratch<SsspScratch>`).
#[derive(Debug, Clone)]
pub struct LaneScratch<S> {
    lanes: Vec<S>,
    row_cuts: Vec<usize>,
    data_cuts: Vec<usize>,
    lane_cuts: Vec<usize>,
}

/// Reusable state for batched BFS fills: one [`BfsScratch`] per pool lane
/// plus the shard cut tables.
pub type BatchScratch = LaneScratch<BfsScratch>;

impl<S> Default for LaneScratch<S> {
    fn default() -> Self {
        LaneScratch {
            lanes: Vec::new(),
            row_cuts: Vec::new(),
            data_cuts: Vec::new(),
            lane_cuts: Vec::new(),
        }
    }
}

impl<S> LaneScratch<S> {
    /// A fresh (empty) scratch.
    pub fn new() -> Self {
        LaneScratch::default()
    }

    /// Sizes the per-lane scratches and cut tables for a `rows × width`
    /// fill on `lanes` lanes. Rows are sharded by `row_weight` (the caller's
    /// estimate of per-row cost — seed-frontier degree sums for BFS rows),
    /// so a row seeded at a hub does not land in the same lane as a full
    /// share of ordinary rows. Output is unaffected: rows are independent
    /// and the cuts only move lane boundaries.
    fn prepare(
        &mut self,
        rows: usize,
        width: usize,
        lanes: usize,
        row_weight: impl Fn(usize) -> u64,
    ) where
        S: Default,
    {
        if self.lanes.len() < lanes {
            self.lanes.resize_with(lanes, S::default);
        }
        nas_par::fill_balanced_cuts_weighted(&mut self.row_cuts, rows, lanes, row_weight);
        self.data_cuts.clear();
        self.data_cuts
            .extend(self.row_cuts.iter().map(|&c| c * width));
        self.lane_cuts.clear();
        self.lane_cuts.extend(0..=lanes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn map_matches_manual_path() {
        let g = generators::path(6);
        let d = DistanceMap::from_source(&g, 0);
        assert_eq!(d.raw(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(d.get(5), Some(5));
        assert!(d.reached(3));
        assert_eq!(d.max_finite(), Some(5));
    }

    #[test]
    fn unreached_is_sentinel() {
        let mut b = crate::GraphBuilder::new(4);
        b.add_edge(0, 1);
        let g = b.build();
        let d = DistanceMap::from_source(&g, 0);
        assert_eq!(d[2], UNREACHED);
        assert_eq!(d.get(2), None);
        assert!(!d.reached(3));
        assert_eq!(d.to_options(), vec![Some(0), Some(1), None, None]);
    }

    #[test]
    fn fill_reuses_storage_across_graphs() {
        let big = generators::grid2d(10, 10);
        let small = generators::path(5);
        let mut d = DistanceMap::new();
        let mut sc = BfsScratch::new();
        d.fill(&big, [0], &mut sc);
        assert_eq!(d.len(), 100);
        d.fill(&small, [4], &mut sc);
        assert_eq!(d.len(), 5);
        assert_eq!(d.raw(), &[4, 3, 2, 1, 0]);
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = generators::path(10);
        let d = DistanceMap::from_sources(&g, [0, 9]);
        assert_eq!(d.get(4), Some(4));
        assert_eq!(d.get(5), Some(4));
        assert_eq!(d.get(7), Some(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = generators::path(3);
        let _ = DistanceMap::from_source(&g, 3);
    }

    #[test]
    fn batch_rows_match_single_fills() {
        let g = generators::gnp(60, 0.08, 3);
        let sources: Vec<usize> = (0..20).map(|i| (i * 13) % 60).collect();
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let batch = DistanceBatch::from_sources(&g, &sources, &pool);
            assert_eq!(batch.rows(), sources.len());
            assert_eq!(batch.width(), 60);
            for (i, &s) in sources.iter().enumerate() {
                assert_eq!(
                    batch.row(i),
                    DistanceMap::from_source(&g, s).raw(),
                    "row {i} (threads {threads})"
                );
            }
        }
    }

    #[test]
    fn batch_multi_source_rows() {
        let g = generators::grid2d(7, 7);
        let sets: Vec<&[usize]> = vec![&[0], &[3, 44], &[1, 2, 3]];
        let pool = WorkerPool::new(2);
        let mut batch = DistanceBatch::new();
        let mut scratch = BatchScratch::new();
        batch.fill_multi(&g, &sets, &mut scratch, &pool);
        for (i, set) in sets.iter().enumerate() {
            let want = DistanceMap::from_sources(&g, set.iter().copied());
            assert_eq!(batch.row(i), want.raw(), "row {i}");
        }
    }

    #[test]
    fn empty_batch_and_empty_graph() {
        let pool = WorkerPool::new(4);
        let g = generators::path(5);
        let batch = DistanceBatch::from_sources(&g, &[], &pool);
        assert_eq!(batch.rows(), 0);
        assert_eq!(batch.iter_rows().count(), 0);

        let empty = crate::GraphBuilder::new(0).build();
        let batch = DistanceBatch::from_sources(&empty, &[], &pool);
        assert_eq!(batch.rows(), 0);
        assert_eq!(batch.width(), 0);
    }

    #[test]
    fn batch_fill_is_reusable() {
        let g = generators::cycle(30);
        let pool = WorkerPool::new(3);
        let mut batch = DistanceBatch::new();
        let mut scratch = BatchScratch::new();
        batch.fill(&g, &[0, 7], &mut scratch, &pool);
        let first = batch.clone();
        batch.fill(&g, &[1], &mut scratch, &pool);
        assert_eq!(batch.rows(), 1);
        batch.fill(&g, &[0, 7], &mut scratch, &pool);
        assert_eq!(batch, first);
    }

    #[test]
    fn epoch_marks_clear_in_o1() {
        let mut m = EpochMarks::new();
        m.begin(10);
        assert!(m.mark(3));
        assert!(!m.mark(3));
        assert!(m.is_marked(3));
        m.begin(10);
        assert!(!m.is_marked(3));
        assert!(m.mark(3));
        // Growing keeps old marks invalid.
        m.begin(20);
        assert!(!m.is_marked(3));
        assert!(m.mark(19));
    }

    #[test]
    fn epoch_marks_survive_wrap() {
        let mut m = EpochMarks::new();
        m.begin(4);
        m.mark(1);
        // Force the wrap path.
        m.epoch = u32::MAX;
        m.begin(4);
        assert!(!m.is_marked(1));
        assert!(m.mark(1));
        assert!(m.is_marked(1));
    }

    /// The range check must fire even when the BFS kernel never runs
    /// (zero-vertex graph), like the pre-refactor per-source functions.
    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_out_of_range_source_panics_on_empty_graph() {
        let empty = crate::GraphBuilder::new(0).build();
        let pool = WorkerPool::new(2);
        let _ = DistanceBatch::from_sources(&empty, &[7], &pool);
    }

    #[test]
    fn singleton_graph() {
        let g = generators::path(1);
        let d = DistanceMap::from_source(&g, 0);
        assert_eq!(d.raw(), &[0]);
        let pool = WorkerPool::new(2);
        let batch = DistanceBatch::from_sources(&g, &[0, 0], &pool);
        assert_eq!(batch.row(0), &[0]);
        assert_eq!(batch.row(1), &[0]);
    }
}
