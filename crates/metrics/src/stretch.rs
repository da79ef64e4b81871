//! Exact and sampled stretch audits of a spanner against its base graph.
//!
//! The audit answers, for every (or a sampled set of) vertex pair(s):
//! how much longer is the spanner distance than the graph distance? It
//! reports the *worst multiplicative* stretch, the *effective additive*
//! error `max(d_H − (1+ε)·d_G)` (the measured `β`), and a per-distance
//! breakdown — the measurable analogue of the paper's Figures 6–8 and the
//! "near-additive spanners preserve large distances faithfully" message.

use nas_graph::dist::{BfsScratch, DistanceMap, UNREACHED};
use nas_graph::Graph;
use nas_par::WorkerPool;

/// Aggregated stretch statistics for one distance value `d = d_G(u,v)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceBucket {
    /// The exact graph distance this bucket covers.
    pub dist: u32,
    /// Number of pairs at this distance.
    pub pairs: u64,
    /// Worst spanner distance observed.
    pub max_spanner_dist: u32,
    /// Mean spanner distance.
    pub mean_spanner_dist: f64,
}

impl DistanceBucket {
    /// Worst multiplicative stretch within the bucket.
    pub fn max_stretch(&self) -> f64 {
        self.max_spanner_dist as f64 / self.dist as f64
    }
}

/// The result of a stretch audit.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchAudit {
    /// Pairs audited.
    pub pairs: u64,
    /// Worst multiplicative stretch `max d_H/d_G`.
    pub max_stretch: f64,
    /// The measured `β` for a given `ε`: `max(0, d_H − (1+ε)·d_G)` maximized
    /// over pairs, with the `ε` it was evaluated at.
    pub effective_beta: f64,
    /// The `ε` [`StretchAudit::effective_beta`] was computed against.
    pub eps: f64,
    /// Per-graph-distance breakdown, indexed by distance (entry 0 unused).
    pub buckets: Vec<DistanceBucket>,
    /// Number of pairs connected in `g` but not in `h` (must be 0 for a
    /// valid spanner).
    pub disconnected_pairs: u64,
}

impl StretchAudit {
    /// Whether the spanner satisfies `d_H ≤ (1+ε)·d_G + β` for every audited
    /// pair.
    pub fn satisfies(&self, eps: f64, beta: f64) -> bool {
        self.disconnected_pairs == 0
            && self
                .buckets
                .iter()
                .filter(|b| b.pairs > 0)
                .all(|b| b.max_spanner_dist as f64 <= (1.0 + eps) * b.dist as f64 + beta)
    }
}

/// One worker's running histogram: per-distance buckets, per-distance sums,
/// and the disconnected-pair count. Workers fill partials independently
/// (no locks); the caller merges them in worker order after the join, which
/// keeps the result deterministic at every thread count.
#[derive(Debug, Default)]
struct Partial {
    buckets: Vec<DistanceBucket>,
    sums: Vec<f64>,
    disconnected: u64,
}

impl Partial {
    /// Folds the pairs of one BFS source into this partial. With
    /// `targets_after_source_only`, only pairs `(source, v)` with
    /// `v > source` count (the all-pairs audit, where each unordered pair
    /// must count once); otherwise every `v != source` counts (the sampled
    /// audit, where sources are a sample).
    ///
    /// `dg`/`dh` are flat sentinel rows ([`UNREACHED`] marks unreachable) —
    /// the audit's innermost loop scans them branch-lean, with no `Option`
    /// discriminants in the way.
    fn absorb_source(
        &mut self,
        dg: &[u32],
        dh: &[u32],
        source: usize,
        targets_after_source_only: bool,
    ) {
        let from = if targets_after_source_only {
            source + 1
        } else {
            0
        };
        for v in from..dg.len() {
            if v == source {
                continue;
            }
            let d = dg[v];
            if d == 0 || d == UNREACHED {
                continue;
            }
            let s = dh[v];
            if s == UNREACHED {
                self.disconnected += 1;
                continue;
            }
            let d = d as usize;
            if self.buckets.len() <= d {
                self.buckets.resize(
                    d + 1,
                    DistanceBucket {
                        dist: 0,
                        pairs: 0,
                        max_spanner_dist: 0,
                        mean_spanner_dist: 0.0,
                    },
                );
                self.sums.resize(d + 1, 0.0);
            }
            let b = &mut self.buckets[d];
            b.dist = d as u32;
            b.pairs += 1;
            b.max_spanner_dist = b.max_spanner_dist.max(s);
            self.sums[d] += s as f64;
        }
    }
}

/// The pooled audit core: BFS from every source in `sources` (contiguous
/// shards, one per pool lane, each lane accumulating into its own
/// [`Partial`]), then a lane-ordered merge. No locks, no atomics; a lane
/// panic propagates through the pool instead of poisoning an accumulator.
///
/// Each lane owns one pair of flat [`DistanceMap`] rows and one
/// [`BfsScratch`], reused across all of its sources — the per-source heap
/// churn of the old `Vec<Option<u32>>` plane (two fresh rows plus a
/// `VecDeque` per source) is gone, which is what makes the million-node
/// sampled audit run at full `n`.
fn audit_sources(
    g: &Graph,
    h: &Graph,
    eps: f64,
    sources: &[usize],
    targets_after_source_only: bool,
    pool: &WorkerPool,
) -> StretchAudit {
    let mut partials: Vec<Partial> = (0..pool.threads()).map(|_| Partial::default()).collect();
    // Uniform (unweighted) shards on purpose: every source costs a full
    // Θ(n + m) BFS of both graphs regardless of its degree, so the
    // weighted cutter used by the batch fills has nothing to balance here.
    let cuts = nas_par::balanced_cuts(sources.len(), pool.threads());
    nas_par::for_each_worker(pool, &mut partials, |i, part| {
        let mut dg = DistanceMap::new();
        let mut dh = DistanceMap::new();
        let mut scratch = BfsScratch::new();
        for &s in &sources[cuts[i]..cuts[i + 1]] {
            dg.fill(g, [s], &mut scratch);
            dh.fill(h, [s], &mut scratch);
            part.absorb_source(dg.raw(), dh.raw(), s, targets_after_source_only);
        }
    });

    let mut buckets: Vec<DistanceBucket> = Vec::new();
    let mut sums: Vec<f64> = Vec::new();
    let mut disconnected = 0u64;
    for p in &partials {
        if buckets.len() < p.buckets.len() {
            buckets.resize(
                p.buckets.len(),
                DistanceBucket {
                    dist: 0,
                    pairs: 0,
                    max_spanner_dist: 0,
                    mean_spanner_dist: 0.0,
                },
            );
            sums.resize(p.buckets.len(), 0.0);
        }
        for (d, lb) in p.buckets.iter().enumerate() {
            if lb.pairs == 0 {
                continue;
            }
            let b = &mut buckets[d];
            b.dist = d as u32;
            b.pairs += lb.pairs;
            b.max_spanner_dist = b.max_spanner_dist.max(lb.max_spanner_dist);
            sums[d] += p.sums[d];
        }
        disconnected += p.disconnected;
    }
    finalize(buckets, sums, disconnected, eps)
}

fn finalize(
    mut buckets: Vec<DistanceBucket>,
    sums: Vec<f64>,
    disconnected: u64,
    eps: f64,
) -> StretchAudit {
    let mut pairs = 0u64;
    let mut max_stretch: f64 = 1.0;
    let mut effective_beta: f64 = 0.0;
    for (d, b) in buckets.iter_mut().enumerate() {
        if b.pairs == 0 {
            continue;
        }
        b.mean_spanner_dist = sums[d] / b.pairs as f64;
        pairs += b.pairs;
        max_stretch = max_stretch.max(b.max_spanner_dist as f64 / d as f64);
        effective_beta = effective_beta.max(b.max_spanner_dist as f64 - (1.0 + eps) * d as f64);
    }
    StretchAudit {
        pairs,
        max_stretch,
        effective_beta: effective_beta.max(0.0),
        eps,
        buckets,
        disconnected_pairs: disconnected,
    }
}

/// Exact stretch audit over **all** pairs: `n` BFS traversals in each graph,
/// fanned out over the process-wide [`nas_par::global`] worker pool
/// (`NAS_THREADS` honored). Deterministic at every thread count: lanes own
/// contiguous source shards and private histograms, merged in lane order —
/// see [`stretch_audit_with_pool`].
///
/// # Panics
///
/// Panics if the two graphs have different vertex counts.
pub fn stretch_audit(g: &Graph, h: &Graph, eps: f64) -> StretchAudit {
    stretch_audit_with_pool(g, h, eps, nas_par::global())
}

/// [`stretch_audit`] on an explicit worker pool.
///
/// This replaced a hand-rolled `thread::scope` + `Mutex` accumulator: each
/// lane now fills a private `Partial` histogram and the merge happens
/// lock-free in lane order after the join, which removes both the lock
/// contention on the shared accumulator and the lock-poisoning failure mode
/// (a panicking lane now surfaces as a pool panic, not a poisoned `Mutex`).
///
/// # Panics
///
/// Panics if the two graphs have different vertex counts.
pub fn stretch_audit_with_pool(g: &Graph, h: &Graph, eps: f64, pool: &WorkerPool) -> StretchAudit {
    assert_eq!(
        g.num_vertices(),
        h.num_vertices(),
        "graph and spanner must share a vertex set"
    );
    let sources: Vec<usize> = (0..g.num_vertices()).collect();
    audit_sources(g, h, eps, &sources, true, pool)
}

/// Sampled stretch audit: BFS from `samples` deterministic sources only,
/// spread evenly across the whole vertex range. For graphs too large for
/// the all-pairs audit.
///
/// Source `i` is `⌊i · n / samples⌋`: the sources are strictly increasing
/// and cover `0..n` end to end for every `samples ≤ n`. (An earlier integer
/// stride — `step_by(n / samples).take(samples)` — degenerated to the
/// prefix `0..samples` whenever `samples > n / 2`, silently never auditing
/// the tail of the vertex range; see the `sampled_audit_covers_the_tail`
/// regression test.)
pub fn stretch_audit_sampled(g: &Graph, h: &Graph, eps: f64, samples: usize) -> StretchAudit {
    stretch_audit_sampled_with_pool(g, h, eps, samples, nas_par::global())
}

/// [`stretch_audit_sampled`] on an explicit worker pool. The sample sources
/// are sharded contiguously across lanes with private per-lane histograms
/// (all targets `v != s` count, since the sources are a sample), merged in
/// lane order — same result at every thread count.
pub fn stretch_audit_sampled_with_pool(
    g: &Graph,
    h: &Graph,
    eps: f64,
    samples: usize,
    pool: &WorkerPool,
) -> StretchAudit {
    assert_eq!(g.num_vertices(), h.num_vertices());
    let n = g.num_vertices();
    if n == 0 {
        return finalize(Vec::new(), Vec::new(), 0, eps);
    }
    let samples = samples.min(n).max(1);
    let sources: Vec<usize> = (0..samples).map(|i| i * n / samples).collect();
    audit_sources(g, h, eps, &sources, false, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nas_graph::{generators, GraphBuilder};

    #[test]
    fn identical_graphs_have_stretch_one() {
        let g = generators::grid2d(5, 5);
        let a = stretch_audit(&g, &g, 0.5);
        assert_eq!(a.max_stretch, 1.0);
        assert_eq!(a.effective_beta, 0.0);
        assert_eq!(a.disconnected_pairs, 0);
        assert_eq!(a.pairs, 25 * 24 / 2);
    }

    #[test]
    fn cycle_vs_path_spanner() {
        // Remove one edge of a cycle: the pair across the removed edge
        // stretches to n-1.
        let n = 10;
        let g = generators::cycle(n);
        let mut b = GraphBuilder::new(n);
        for v in 1..n {
            b.add_edge(v - 1, v);
        }
        let h = b.build();
        let a = stretch_audit(&g, &h, 0.0);
        assert_eq!(a.max_stretch, (n - 1) as f64);
        assert_eq!(a.effective_beta, (n - 2) as f64);
        assert!(a.satisfies(0.0, (n - 2) as f64));
        assert!(!a.satisfies(0.0, (n - 3) as f64));
    }

    #[test]
    fn detects_disconnection() {
        let g = generators::path(4);
        let h = GraphBuilder::new(4).build();
        let a = stretch_audit(&g, &h, 0.5);
        assert_eq!(a.disconnected_pairs, 6);
        assert!(!a.satisfies(0.5, 1000.0));
    }

    #[test]
    fn buckets_are_per_distance() {
        let g = generators::path(5);
        let a = stretch_audit(&g, &g, 0.0);
        for d in 1..=4u32 {
            let b = &a.buckets[d as usize];
            assert_eq!(b.dist, d);
            assert_eq!(b.pairs, (5 - d) as u64);
            assert_eq!(b.max_spanner_dist, d);
            assert_eq!(b.mean_spanner_dist, d as f64);
        }
    }

    /// Regression test for the prefix-sampling bug: `g` is a long path with
    /// a small cycle gadget hanging off its far end, and `h` drops the
    /// cycle-closing edge. The worst stretch (9× across the removed edge)
    /// is only witnessed by BFS sources *inside* the gadget. With
    /// `samples > n / 2` the old stride clamped to 1 and `take(samples)`
    /// audited only the prefix `0..samples` — exactly the path part — so
    /// the violation was silently missed (reported max stretch ≈ 1.26).
    #[test]
    fn sampled_audit_covers_the_tail() {
        let n = 40;
        let mut bg = GraphBuilder::new(n);
        for v in 1..30 {
            bg.add_edge(v - 1, v); // path 0..29
        }
        for v in 31..40 {
            bg.add_edge(v - 1, v); // gadget path 30..39
        }
        bg.add_edge(29, 30); // attach the gadget
        let bh = bg.clone();
        bg.add_edge(39, 30); // close the gadget cycle in g only
        let (g, h) = (bg.build(), bh.build());

        // 30 samples of 40 vertices: the old scheme audited sources 0..30
        // and the new scheme includes in-gadget sources (e.g. vertex 30).
        let audit = stretch_audit_sampled(&g, &h, 0.0, 30);
        let exact = stretch_audit(&g, &h, 0.0);
        assert_eq!(exact.max_stretch, 9.0);
        assert_eq!(
            audit.max_stretch, exact.max_stretch,
            "sampled audit must witness the tail-only violation"
        );
    }

    #[test]
    fn sampled_audit_tolerates_empty_graph() {
        let g = GraphBuilder::new(0).build();
        let a = stretch_audit_sampled(&g, &g, 0.5, 10);
        assert_eq!(a.pairs, 0);
        assert_eq!(a.disconnected_pairs, 0);
    }

    #[test]
    fn sampled_sources_span_the_range_for_any_count() {
        // The source formula must be strictly increasing and in range for
        // every samples <= n, including the samples > n/2 regime.
        for n in [1usize, 2, 7, 40, 100] {
            for samples in 1..=n {
                let sources: Vec<usize> = (0..samples).map(|i| i * n / samples).collect();
                assert!(sources.windows(2).all(|w| w[0] < w[1]), "n={n} s={samples}");
                assert!(*sources.last().unwrap() < n);
                assert_eq!(sources[0], 0);
                // Evenly spread: the largest gap is at most ⌈n/samples⌉.
                let max_gap = sources
                    .windows(2)
                    .map(|w| w[1] - w[0])
                    .max()
                    .unwrap_or(n)
                    .max(n - sources.last().unwrap());
                assert!(max_gap <= n.div_ceil(samples), "n={n} s={samples}");
            }
        }
    }

    #[test]
    fn sampled_matches_exact_on_symmetric_graph() {
        // On a vertex-transitive graph a one-source sample sees the same
        // per-distance maxima as the full audit.
        let g = generators::cycle(12);
        let exact = stretch_audit(&g, &g, 0.5);
        let sampled = stretch_audit_sampled(&g, &g, 0.5, 3);
        assert_eq!(exact.max_stretch, sampled.max_stretch);
        assert_eq!(exact.effective_beta, sampled.effective_beta);
    }

    #[test]
    fn parallel_audit_is_deterministic() {
        let g = generators::connected_gnp(80, 0.07, 5);
        let h = nas_baselines::baswana_sen(&g, 3, 1).to_graph();
        let a = stretch_audit(&g, &h, 0.25);
        let b = stretch_audit(&g, &h, 0.25);
        assert_eq!(a, b);
    }

    /// The audits are identical at every thread count — per-lane partials
    /// merged in lane order, no scheduling-dependent accumulation.
    #[test]
    fn audit_identical_across_thread_counts() {
        let g = generators::connected_gnp(70, 0.08, 12);
        let h = nas_baselines::baswana_sen(&g, 3, 4).to_graph();
        let exact1 = stretch_audit_with_pool(&g, &h, 0.25, &nas_par::WorkerPool::new(1));
        let sampled1 =
            stretch_audit_sampled_with_pool(&g, &h, 0.25, 50, &nas_par::WorkerPool::new(1));
        for threads in [2usize, 3, 8] {
            let pool = nas_par::WorkerPool::new(threads);
            assert_eq!(
                stretch_audit_with_pool(&g, &h, 0.25, &pool),
                exact1,
                "exact audit drift at {threads} threads"
            );
            assert_eq!(
                stretch_audit_sampled_with_pool(&g, &h, 0.25, 50, &pool),
                sampled1,
                "sampled audit drift at {threads} threads"
            );
        }
        // And the global-pool entry points agree with the explicit-pool ones.
        assert_eq!(stretch_audit(&g, &h, 0.25), exact1);
        assert_eq!(stretch_audit_sampled(&g, &h, 0.25, 50), sampled1);
    }
}
