//! Pins the weighted distance plane's zero-allocation guarantee on the
//! audit path: after one warmup batch, repeated [`WeightedSpannerOracle`]
//! batch audits (`distances_batch_into`) perform **zero** heap allocations
//! — across all worker-pool lanes, with the full pooled fan-out and the
//! delta-stepping bucket array active.
//!
//! The unweighted twin is `tests/zero_alloc_audit.rs` (same counting
//! global allocator technique); this file extends the guarantee to the
//! SSSP engine's per-lane scratch (cyclic buckets, drain and settled
//! queues, epoch marks).

use nas_graph::weighted::WeightDist;
use nas_graph::{generators, DistanceBatch};
use nas_metrics::WeightedSpannerOracle;
use nas_par::WorkerPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to the system allocator; the counter is a
// side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Both pins of this file, in sequence, in the binary's own `main`
/// (`harness = false` in the manifest): the allocation counter is
/// process-wide, so any test-harness thread — a sibling test, or the
/// harness waiting on this one — would leak allocations into the measured
/// windows. A failed pin panics, which fails the test binary.
fn main() {
    one_shape();
    alternating_shapes();
}

/// After one warmup batch, repeated weighted batch audits of the same
/// shape are allocation-free: the flat batch, the per-lane delta-stepping
/// scratches (bucket array included), and the shard cut tables are all
/// reused, and the pool's job dispatch is allocation-free by construction.
fn one_shape() {
    let n = 600;
    let g = generators::weighted_gnp(n, 6.0 / n as f64, 9, WeightDist::Uniform { lo: 1, hi: 40 });
    // 4 lanes regardless of host cores: the cross-thread dispatch machinery
    // must itself stay allocation-free.
    let pool = Arc::new(WorkerPool::new(4));
    let mut oracle = WeightedSpannerOracle::new(g);
    let sources: Vec<usize> = (0..64).map(|i| i * n / 64).collect();
    let mut out = DistanceBatch::new();

    // Warmup: every buffer (rows, buckets, drain/settled queues, cut
    // tables, cache row) reaches its steady-state capacity.
    oracle.distances_batch_into(&sources, &mut out, &pool);
    let warm = out.clone();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..32 {
        oracle.distances_batch_into(&sources, &mut out, &pool);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state WeightedSpannerOracle batch audit allocated"
    );

    // The plane kept doing real work the whole time.
    assert_eq!(out, warm);
    assert_eq!(oracle.sssp_runs(), 33 * sources.len() as u64);
}

/// The same guarantee holds when the batch alternates between two weighted
/// graphs of different sizes and weight ranges (the audit pattern: G rows
/// and H rows through one scratch), once both shapes are warm.
fn alternating_shapes() {
    let big = generators::weighted_grid2d(30, 30, 5, WeightDist::Uniform { lo: 1, hi: 100 });
    let small = generators::weighted_path(150, 6, WeightDist::Uniform { lo: 1, hi: 9 });
    let pool = Arc::new(WorkerPool::new(3));
    let mut big_oracle = WeightedSpannerOracle::new(big);
    let mut small_oracle = WeightedSpannerOracle::new(small);
    let big_sources: Vec<usize> = (0..48).map(|i| i * 900 / 48).collect();
    let small_sources: Vec<usize> = (0..12).map(|i| i * 150 / 12).collect();
    let mut out_big = DistanceBatch::new();
    let mut out_small = DistanceBatch::new();

    // Warm both shapes.
    big_oracle.distances_batch_into(&big_sources, &mut out_big, &pool);
    small_oracle.distances_batch_into(&small_sources, &mut out_small, &pool);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..16 {
        big_oracle.distances_batch_into(&big_sources, &mut out_big, &pool);
        small_oracle.distances_batch_into(&small_sources, &mut out_small, &pool);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "alternating-shape weighted steady state allocated"
    );
}
