//! A persistent, dependency-free worker pool for deterministic sharded
//! execution.
//!
//! The workspace's hot loops (the CONGEST visit loop, batched BFS, stretch
//! audits) are embarrassingly parallel *per phase* but must stay
//! **bit-identical** to their sequential counterparts: the simulator pins
//! golden transcripts, and the audits feed paper tables. This crate provides
//! the two pieces that make that cheap:
//!
//! * [`WorkerPool`] — a fixed set of persistent `std::thread` workers driven
//!   by a futex-backed `Mutex`/`Condvar` handshake. Dispatching a job
//!   ([`WorkerPool::broadcast`]) performs **zero heap allocation**, which is
//!   what lets the simulator's steady-state round keep its zero-alloc
//!   guarantee with the pool active (pinned by `nas-congest`'s
//!   `tests/zero_alloc.rs`).
//! * Sharding helpers ([`for_each_part_mut`], [`for_each_part_mut2`],
//!   [`for_each_part_mut3`], [`for_each_worker`]) — run a closure over
//!   *contiguous, disjoint* parts
//!   of mutable slices, one part per worker. Contiguity is the determinism
//!   lever: concatenating per-part results in part order reproduces exactly
//!   the sequential left-to-right order. [`grow`] lengthens a `Vec` with
//!   every lane writing a share of the new slots.
//!
//! The thread count defaults to the `NAS_THREADS` environment variable when
//! set (this is how CI exercises the 1-thread and 4-thread paths on every
//! push), falling back to [`std::thread::available_parallelism`]. There is
//! no work stealing and no dynamic load balancing by design: static
//! contiguous shards are what keep transcripts independent of scheduling.
//!
//! The workspace has no registry access, so this is intentionally a small
//! hand-rolled pool on `std` rather than a rayon dependency.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// A lifetime-erased pointer to the job closure currently being broadcast.
///
/// Workers dereference it only between job publication and the moment
/// `active` drains back to zero; [`WorkerPool::broadcast`] does not return
/// (or unwind) before that, so the pointee is always alive when called.
#[derive(Copy, Clone)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (callable from any thread through a shared
// reference) and `broadcast` keeps it alive for the whole dispatch window.
unsafe impl Send for Job {}

struct State {
    /// Bumped once per broadcast; workers use it to detect fresh jobs.
    epoch: u64,
    /// The published job, `Some` exactly while a broadcast is in flight.
    job: Option<Job>,
    /// Spawned workers still executing the current job.
    active: usize,
    /// Whether any worker panicked while executing the current job.
    panicked: bool,
    /// Tells workers to exit (set by `Drop`).
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers that a new job (or shutdown) is available.
    work: Condvar,
    /// Signals the dispatcher that `active` reached zero.
    done: Condvar,
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    // The pool's own critical sections never panic; a poisoned lock can only
    // mean a caller-side panic already in flight, so keep going.
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    if let Some(job) = st.job {
                        seen = st.epoch;
                        break job;
                    }
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: see `Job` — the closure outlives the dispatch window this
        // call happens in.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(index) }));
        let mut st = lock(&shared);
        if result.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            drop(st);
            shared.done.notify_all();
        }
    }
}

/// A persistent pool of worker threads executing broadcast jobs.
///
/// A pool with `threads == t` gives every job `t` *lanes* numbered
/// `0..t`: lane 0 runs on the calling thread, lanes `1..t` on the pool's
/// `t - 1` persistent workers. [`broadcast`](WorkerPool::broadcast) blocks
/// until every lane has finished, so jobs may freely borrow from the
/// caller's stack.
///
/// Dispatch is allocation-free: the job is passed by reference through a
/// single shared slot guarded by a futex-backed mutex, and workers park on a
/// condvar between jobs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `threads` total lanes (clamped to at least 1).
    ///
    /// Spawns `threads - 1` persistent worker threads; a 1-lane pool spawns
    /// nothing and runs every broadcast inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nas-par-{i}"))
                    .spawn(move || worker_loop(sh, i))
                    .expect("failed to spawn nas-par worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            threads,
            handles,
        }
    }

    /// Creates a pool sized by [`default_threads`] (`NAS_THREADS` env
    /// override, else available parallelism).
    pub fn with_default_threads() -> Self {
        WorkerPool::new(default_threads())
    }

    /// Total number of lanes (calling thread included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(lane)` once per lane `0..threads()`, in parallel, blocking
    /// until all lanes complete. Performs no heap allocation.
    ///
    /// Lane 0 executes on the calling thread. Concurrent broadcasts from
    /// different threads are serialized internally.
    ///
    /// # Panics
    ///
    /// Propagates a panic if `f` panicked on any lane (after all lanes have
    /// finished, so borrowed data is never left aliased).
    pub fn broadcast(&self, f: impl Fn(usize) + Sync) {
        let f_obj: &(dyn Fn(usize) + Sync) = &f;
        if self.threads == 1 {
            f_obj(0);
            return;
        }
        // SAFETY: erases the closure's lifetime. Workers only call through
        // the pointer before `Finish` observes `active == 0`, and `Finish`
        // runs (and waits) even if the lane-0 call below unwinds.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f_obj)
        });

        {
            let mut st = lock(&self.shared);
            // Serialize with any broadcast already in flight.
            while st.active != 0 || st.job.is_some() {
                st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.job = Some(job);
            st.epoch = st.epoch.wrapping_add(1);
            st.active = self.threads - 1;
            st.panicked = false;
            self.shared.work.notify_all();
        }

        struct Finish<'a>(&'a Shared);
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                let mut st = lock(self.0);
                while st.active != 0 {
                    st = self.0.done.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                st.job = None;
                let panicked = st.panicked;
                st.panicked = false;
                drop(st);
                self.0.done.notify_all();
                if panicked && !std::thread::panicking() {
                    panic!("nas-par: a worker lane panicked during broadcast");
                }
            }
        }

        let finish = Finish(&self.shared);
        f_obj(0);
        drop(finish);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared);
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// The pool size the workspace defaults to: the `NAS_THREADS` environment
/// variable when set to a positive integer, else
/// [`std::thread::available_parallelism`], else 1.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("NAS_THREADS") {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

static GLOBAL_POOL: OnceLock<Arc<WorkerPool>> = OnceLock::new();

/// The process-wide shared pool, lazily created with [`default_threads`]
/// lanes. Used by the metrics and graph crates so every audit and batched
/// BFS shares one set of threads.
///
/// The size is frozen at the **first** call: a binary that wants a
/// `--threads` flag to govern this pool must set `NAS_THREADS` before
/// anything touches [`global`]/[`global_arc`] (the bench bins do this at
/// the top of `main`).
pub fn global() -> &'static WorkerPool {
    GLOBAL_POOL.get_or_init(|| Arc::new(WorkerPool::with_default_threads()))
}

/// An owning handle to the same process-wide pool, for consumers that store
/// the pool (e.g. `nas-congest`'s `Simulator::set_pool`).
pub fn global_arc() -> Arc<WorkerPool> {
    GLOBAL_POOL
        .get_or_init(|| Arc::new(WorkerPool::with_default_threads()))
        .clone()
}

/// Sizes the process-wide pool explicitly (clamped to at least 1 lane) —
/// the structural alternative to setting `NAS_THREADS` before first use,
/// for binaries with a `--threads` flag.
///
/// Returns `Err(frozen_size)` if the global pool already exists (its size
/// is frozen at first use), in which case the requested size is ignored.
pub fn init_global(threads: usize) -> Result<(), usize> {
    GLOBAL_POOL
        .set(Arc::new(WorkerPool::new(threads)))
        .map_err(|_| global().threads())
}

/// Fills `out` with `parts + 1` balanced cut points over `0..len`:
/// `out[i] = i * len / parts`. Reuses `out`'s capacity (no allocation once
/// the capacity is `parts + 1`).
pub fn fill_balanced_cuts(out: &mut Vec<usize>, len: usize, parts: usize) {
    let parts = parts.max(1);
    out.clear();
    for i in 0..=parts {
        out.push(i * len / parts);
    }
}

/// `parts + 1` balanced cut points over `0..len` (see
/// [`fill_balanced_cuts`]).
pub fn balanced_cuts(len: usize, parts: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(parts.max(1) + 1);
    fill_balanced_cuts(&mut out, len, parts);
    out
}

/// Fills `out` with `parts + 1` *weight-balanced* cut points over `0..len`:
/// item `i` carries weight `weight(i)`, and cut `k` is placed at the first
/// prefix whose cumulative weight reaches `k / parts` of the total. With
/// unit weights this reduces to [`fill_balanced_cuts`].
///
/// This is the skew-aware sharding primitive: cutting a visit list or a
/// BFS batch by cumulative *edge count* instead of node count keeps one
/// high-degree hub from serializing its lane while the others idle. Cuts
/// are monotone, start at 0, end at `len`, and are a pure function of the
/// weights — deterministic for a fixed input, and (like all cut choices)
/// never observable in transcripts, only in wall clock.
///
/// Single pass over the weights, and none for `parts <= 1`, whose one cut
/// is `[0, len]` whatever the weights; reuses `out`'s capacity (no
/// allocation once the capacity is `parts + 1`).
pub fn fill_balanced_cuts_weighted<W: Fn(usize) -> u64>(
    out: &mut Vec<usize>,
    len: usize,
    parts: usize,
    weight: W,
) {
    out.clear();
    if parts <= 1 {
        out.extend([0, len]);
        return;
    }
    let mut total: u64 = 0;
    for i in 0..len {
        total += weight(i);
    }
    out.push(0);
    if total == 0 {
        // Degenerate (all-zero or empty): fall back to count balancing.
        for k in 1..=parts {
            out.push(k * len / parts);
        }
        return;
    }
    let mut acc: u64 = 0;
    let mut i = 0usize;
    for k in 1..parts {
        let target = total * k as u64 / parts as u64;
        // Stop at the prefix whose cumulative weight is closest to the
        // target: a single huge item (a hub) lands on whichever side leaves
        // the smaller imbalance instead of always being swallowed by the
        // shard before it. With unit weights this is exactly
        // `i = k * len / parts`, i.e. [`fill_balanced_cuts`].
        loop {
            if i >= len || acc >= target {
                break;
            }
            let next = acc + weight(i);
            if next >= target && next - target >= target - acc {
                break;
            }
            acc = next;
            i += 1;
        }
        out.push(i);
    }
    out.push(len);
}

/// `parts + 1` weight-balanced cut points over `0..len` (see
/// [`fill_balanced_cuts_weighted`]).
pub fn balanced_cuts_weighted<W: Fn(usize) -> u64>(
    len: usize,
    parts: usize,
    weight: W,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(parts.max(1) + 1);
    fill_balanced_cuts_weighted(&mut out, len, parts, weight);
    out
}

/// A raw slice base pointer that may be shared across the pool's lanes.
///
/// Soundness rests on the cut validation in the `for_each_*` helpers: every
/// lane touches a distinct `cuts[i]..cuts[i+1]` range, so the `&mut`
/// reborrows handed to the lanes never alias.
struct SharedBase<T>(*mut T);

impl<T> Copy for SharedBase<T> {}
impl<T> Clone for SharedBase<T> {
    fn clone(&self) -> Self {
        *self
    }
}

// SAFETY: the helpers only ever derive disjoint `&mut [T]` ranges from the
// base pointer, one range per lane; `T: Send` makes moving that exclusive
// access to another thread sound.
unsafe impl<T: Send> Send for SharedBase<T> {}
unsafe impl<T: Send> Sync for SharedBase<T> {}

impl<T> SharedBase<T> {
    /// Takes `self` by value so closures capture the whole (`Sync`) wrapper
    /// rather than the raw pointer field (edition-2021 precise capture).
    fn ptr(self) -> *mut T {
        self.0
    }
}

fn check_cuts(cuts: &[usize], lanes: usize, len: usize, what: &str) {
    assert_eq!(
        cuts.len(),
        lanes + 1,
        "{what}: need exactly one cut range per pool lane ({lanes} lanes, {} cuts)",
        cuts.len()
    );
    assert_eq!(cuts[0], 0, "{what}: cuts must start at 0");
    assert_eq!(
        cuts[lanes], len,
        "{what}: cuts must end at the slice length"
    );
    assert!(
        cuts.windows(2).all(|w| w[0] <= w[1]),
        "{what}: cuts must be monotone non-decreasing"
    );
}

/// Runs `f(lane, &mut data[cuts[lane]..cuts[lane + 1]])` for every lane of
/// the pool, in parallel.
///
/// `cuts` must be a monotone partition of `0..data.len()` with exactly
/// `pool.threads() + 1` entries (see [`balanced_cuts`]); empty parts are
/// fine. The parts are contiguous and processed lane-ascending, so any
/// per-part output concatenated in lane order reproduces the sequential
/// left-to-right order — the determinism argument every caller leans on.
///
/// # Panics
///
/// Panics if `cuts` is not a valid partition, or if `f` panics on any lane.
pub fn for_each_part_mut<T, F>(pool: &WorkerPool, data: &mut [T], cuts: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    check_cuts(cuts, pool.threads(), data.len(), "for_each_part_mut");
    let base = SharedBase(data.as_mut_ptr());
    pool.broadcast(move |i| {
        // SAFETY: cuts are validated monotone within bounds, so each lane's
        // range is in-bounds and disjoint from every other lane's.
        let part = unsafe {
            std::slice::from_raw_parts_mut(base.ptr().add(cuts[i]), cuts[i + 1] - cuts[i])
        };
        f(i, part);
    });
}

/// Two-slice variant of [`for_each_part_mut`]: runs
/// `f(lane, &mut a[acuts[lane]..acuts[lane+1]], &mut b[bcuts[lane]..bcuts[lane+1]])`
/// for every lane. The two slices are partitioned independently.
///
/// # Panics
///
/// Panics if either cut list is not a valid partition, or if `f` panics on
/// any lane.
pub fn for_each_part_mut2<A, B, F>(
    pool: &WorkerPool,
    a: &mut [A],
    acuts: &[usize],
    b: &mut [B],
    bcuts: &[usize],
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    check_cuts(acuts, pool.threads(), a.len(), "for_each_part_mut2 (a)");
    check_cuts(bcuts, pool.threads(), b.len(), "for_each_part_mut2 (b)");
    let base_a = SharedBase(a.as_mut_ptr());
    let base_b = SharedBase(b.as_mut_ptr());
    pool.broadcast(move |i| {
        // SAFETY: both cut lists are validated partitions, so each lane's
        // two ranges are in-bounds and mutually disjoint across lanes.
        let pa = unsafe {
            std::slice::from_raw_parts_mut(base_a.ptr().add(acuts[i]), acuts[i + 1] - acuts[i])
        };
        let pb = unsafe {
            std::slice::from_raw_parts_mut(base_b.ptr().add(bcuts[i]), bcuts[i + 1] - bcuts[i])
        };
        f(i, pa, pb);
    });
}

/// Three-slice variant of [`for_each_part_mut`]: runs
/// `f(lane, &mut a[..], &mut b[..], &mut c[..])` with every slice
/// partitioned independently by its own cut list.
///
/// # Panics
///
/// Panics if any cut list is not a valid partition, or if `f` panics on
/// any lane.
// Three (slice, cuts) pairs is the signature — bundling them into
// tuples would only obscure the symmetry with the 1- and 2-slice
// variants above.
#[allow(clippy::too_many_arguments)]
pub fn for_each_part_mut3<A, B, C, F>(
    pool: &WorkerPool,
    a: &mut [A],
    acuts: &[usize],
    b: &mut [B],
    bcuts: &[usize],
    c: &mut [C],
    ccuts: &[usize],
    f: F,
) where
    A: Send,
    B: Send,
    C: Send,
    F: Fn(usize, &mut [A], &mut [B], &mut [C]) + Sync,
{
    check_cuts(acuts, pool.threads(), a.len(), "for_each_part_mut3 (a)");
    check_cuts(bcuts, pool.threads(), b.len(), "for_each_part_mut3 (b)");
    check_cuts(ccuts, pool.threads(), c.len(), "for_each_part_mut3 (c)");
    let base_a = SharedBase(a.as_mut_ptr());
    let base_b = SharedBase(b.as_mut_ptr());
    let base_c = SharedBase(c.as_mut_ptr());
    pool.broadcast(move |i| {
        // SAFETY: all three cut lists are validated partitions, so each
        // lane's ranges are in-bounds and mutually disjoint across lanes.
        let pa = unsafe {
            std::slice::from_raw_parts_mut(base_a.ptr().add(acuts[i]), acuts[i + 1] - acuts[i])
        };
        let pb = unsafe {
            std::slice::from_raw_parts_mut(base_b.ptr().add(bcuts[i]), bcuts[i + 1] - bcuts[i])
        };
        let pc = unsafe {
            std::slice::from_raw_parts_mut(base_c.ptr().add(ccuts[i]), ccuts[i + 1] - ccuts[i])
        };
        f(i, pa, pb, pc);
    });
}

/// Runs `f(lane, &mut scratch[lane])` for every lane — the per-worker
/// accumulator pattern (each lane owns exactly one scratch slot, merged by
/// the caller in lane order after the call returns).
///
/// # Panics
///
/// Panics if `scratch.len() != pool.threads()`, or if `f` panics on any
/// lane.
pub fn for_each_worker<S, F>(pool: &WorkerPool, scratch: &mut [S], f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    assert_eq!(
        scratch.len(),
        pool.threads(),
        "for_each_worker: need exactly one scratch slot per pool lane"
    );
    let base = SharedBase(scratch.as_mut_ptr());
    pool.broadcast(move |i| {
        // SAFETY: each lane dereferences a distinct index of `scratch`.
        let slot = unsafe { &mut *base.ptr().add(i) };
        f(i, slot);
    });
}

/// Grows `v` to `len` elements, each new one a clone of `value`; a no-op
/// when `v` already holds `len` or more. Capacity grows as under
/// [`Vec::resize`], and every lane of `pool` writes an equal share of the
/// new slots, so the first touch of a large fresh buffer (page faults
/// included) is spread over the lanes instead of falling on the caller.
///
/// # Panics
///
/// Propagates a panic of `value.clone()` on any lane; `v` then keeps its
/// old length (the slots already written are leaked, never dropped).
pub fn grow<T: Clone + Send + Sync>(pool: &WorkerPool, v: &mut Vec<T>, len: usize, value: T) {
    let old = v.len();
    if len <= old {
        return;
    }
    let extra = len - old;
    v.reserve(extra);
    let t = pool.threads();
    let base = SharedBase(v.spare_capacity_mut()[..extra].as_mut_ptr());
    let value = &value;
    pool.broadcast(move |i| {
        let (a, b) = (i * extra / t, (i + 1) * extra / t);
        // SAFETY: `[a, b)` lies inside the `extra` spare slots taken above,
        // and the lanes' ranges are disjoint.
        let part = unsafe { std::slice::from_raw_parts_mut(base.ptr().add(a), b - a) };
        for slot in part {
            slot.write(value.clone());
        }
    });
    // SAFETY: the lanes' ranges cover `[0, extra)`, so every slot in
    // `old..len` was written above (a lane panic unwinds out of
    // `broadcast` before this line), and `len <= capacity` by `reserve`.
    unsafe { v.set_len(len) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_every_lane_exactly_once() {
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            let hits_ref = &hits;
            for _ in 0..50 {
                pool.broadcast(|i| {
                    hits_ref[i].fetch_add(1, Ordering::Relaxed);
                });
            }
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 50, "lane {i} of {threads}");
            }
        }
    }

    #[test]
    fn parts_cover_slice_disjointly() {
        let pool = WorkerPool::new(3);
        let mut data: Vec<u64> = vec![0; 100];
        let cuts = balanced_cuts(data.len(), pool.threads());
        for_each_part_mut(&pool, &mut data, &cuts, |i, part| {
            for x in part.iter_mut() {
                *x += 1 + i as u64 * 100;
            }
        });
        // Every element written exactly once, lane-tagged in cut order.
        for (k, &x) in data.iter().enumerate() {
            let lane = (0..3).find(|&i| cuts[i] <= k && k < cuts[i + 1]).unwrap();
            assert_eq!(x, 1 + lane as u64 * 100, "element {k}");
        }
    }

    #[test]
    fn empty_parts_and_short_slices_are_fine() {
        let pool = WorkerPool::new(8);
        let mut data = vec![7u32; 3]; // fewer elements than lanes
        let cuts = balanced_cuts(data.len(), pool.threads());
        for_each_part_mut(&pool, &mut data, &cuts, |_, part| {
            for x in part.iter_mut() {
                *x *= 2;
            }
        });
        assert_eq!(data, vec![14, 14, 14]);

        let mut empty: Vec<u32> = Vec::new();
        let cuts = balanced_cuts(0, pool.threads());
        for_each_part_mut(&pool, &mut empty, &cuts, |_, part| {
            assert!(part.is_empty());
        });
    }

    #[test]
    fn two_slice_partition_is_independent() {
        let pool = WorkerPool::new(4);
        let mut a = vec![0u8; 17];
        let mut b = vec![0u16; 4];
        let acuts = balanced_cuts(a.len(), 4);
        let bcuts = balanced_cuts(b.len(), 4);
        for_each_part_mut2(&pool, &mut a, &acuts, &mut b, &bcuts, |i, pa, pb| {
            for x in pa.iter_mut() {
                *x = i as u8 + 1;
            }
            for y in pb.iter_mut() {
                *y = pa.len() as u16;
            }
        });
        assert_eq!(a.iter().filter(|&&x| x == 0).count(), 0);
        let total: u16 = b.iter().sum();
        assert_eq!(total, 17);
    }

    #[test]
    fn three_slice_partition_is_independent() {
        let pool = WorkerPool::new(4);
        let mut a = vec![0u8; 17];
        let mut b = vec![0u16; 4];
        let mut c = vec![0u32; 9];
        let acuts = balanced_cuts(a.len(), 4);
        let bcuts = balanced_cuts(b.len(), 4);
        let ccuts = balanced_cuts(c.len(), 4);
        for_each_part_mut3(
            &pool,
            &mut a,
            &acuts,
            &mut b,
            &bcuts,
            &mut c,
            &ccuts,
            |i, pa, pb, pc| {
                for x in pa.iter_mut() {
                    *x = i as u8 + 1;
                }
                for y in pb.iter_mut() {
                    *y = pa.len() as u16;
                }
                for z in pc.iter_mut() {
                    *z = i as u32 + 1;
                }
            },
        );
        assert_eq!(a.iter().filter(|&&x| x == 0).count(), 0);
        assert_eq!(b.iter().sum::<u16>(), 17);
        assert_eq!(c.iter().filter(|&&z| z == 0).count(), 0);
    }

    #[test]
    fn per_worker_scratch_merges_in_lane_order() {
        let pool = WorkerPool::new(3);
        let data: Vec<u64> = (0..1000).collect();
        let cuts = balanced_cuts(data.len(), 3);
        let mut partials = vec![0u64; 3];
        for_each_worker(&pool, &mut partials, |i, sum| {
            *sum = data[cuts[i]..cuts[i + 1]].iter().sum();
        });
        assert_eq!(partials.iter().sum::<u64>(), 1000 * 999 / 2);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(move |i| {
                if i == 2 {
                    panic!("boom on lane 2");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must remain usable after a panicked broadcast.
        let hits = AtomicUsize::new(0);
        pool.broadcast(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn weighted_cuts_with_unit_weights_match_count_cuts() {
        for (len, parts) in [(0, 3), (1, 4), (17, 4), (100, 7), (5, 1)] {
            assert_eq!(
                balanced_cuts_weighted(len, parts, |_| 1),
                balanced_cuts(len, parts),
                "len={len} parts={parts}"
            );
        }
    }

    #[test]
    fn weighted_cuts_isolate_a_heavy_hub() {
        // One degree-10^4 hub among 999 unit items: the hub's shard should
        // contain (almost) only the hub, instead of a quarter of the items.
        let w = |i: usize| if i == 500 { 10_000u64 } else { 1 };
        let cuts = balanced_cuts_weighted(1000, 4, w);
        assert_eq!(cuts.len(), 5);
        assert_eq!((cuts[0], cuts[4]), (0, 1000));
        assert!(cuts.windows(2).all(|c| c[0] <= c[1]));
        // The shard containing item 500 must be narrow.
        let shard = (0..4)
            .find(|&k| cuts[k] <= 500 && 500 < cuts[k + 1])
            .unwrap();
        assert!(
            cuts[shard + 1] - cuts[shard] <= 2,
            "hub shard spans {}..{}",
            cuts[shard],
            cuts[shard + 1]
        );
    }

    #[test]
    fn weighted_cuts_are_valid_partitions() {
        for parts in [1, 2, 3, 8, 16] {
            let cuts = balanced_cuts_weighted(37, parts, |i| (i as u64 * 7) % 13);
            assert_eq!(cuts.len(), parts + 1);
            assert_eq!(cuts[0], 0);
            assert_eq!(cuts[parts], 37);
            assert!(cuts.windows(2).all(|c| c[0] <= c[1]));
        }
        // All-zero weights degrade to count balancing, still a partition.
        assert_eq!(balanced_cuts_weighted(10, 2, |_| 0), balanced_cuts(10, 2));
    }

    #[test]
    fn one_part_cuts_read_no_weight() {
        for parts in [0, 1] {
            let cuts = balanced_cuts_weighted(9, parts, |_| -> u64 { panic!("weight read") });
            assert_eq!(cuts, [0, 9]);
        }
    }

    #[test]
    fn grow_fills_the_new_slots_on_every_lane() {
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let mut v = vec![1u32, 2];
            grow(&pool, &mut v, 2, 9);
            grow(&pool, &mut v, 1, 9);
            assert_eq!(v, [1, 2], "shorter or equal lengths keep v");
            grow(&pool, &mut v, 5, 7);
            grow(&pool, &mut v, 1000, 3);
            assert_eq!(v.len(), 1000);
            assert_eq!(v[..5], [1, 2, 7, 7, 7]);
            assert!(v[5..].iter().all(|&x| x == 3), "threads = {threads}");
        }
        let pool = WorkerPool::new(3);
        let mut names = vec![String::from("a")];
        grow(&pool, &mut names, 4, String::from("b"));
        assert_eq!(names, ["a", "b", "b", "b"]);
    }

    #[test]
    fn env_override_parses() {
        // Only checks the parser contract, not the env itself (tests run in
        // parallel; mutating the process env here would race siblings).
        assert!(default_threads() >= 1);
    }

    #[test]
    fn sequential_equivalence_of_sharded_sum() {
        // The canonical determinism argument: concatenating per-part results
        // in lane order equals the sequential computation.
        let data: Vec<u64> = (0..503).map(|i| i * 17 % 91).collect();
        let want: Vec<u64> = data.iter().map(|x| x * x).collect();
        for threads in [1, 2, 5, 16] {
            let pool = WorkerPool::new(threads);
            let mut got = vec![0u64; data.len()];
            let cuts = balanced_cuts(data.len(), threads);
            for_each_part_mut(&pool, &mut got, &cuts, |i, part| {
                for (k, slot) in part.iter_mut().enumerate() {
                    let idx = cuts[i] + k;
                    *slot = data[idx] * data[idx];
                }
            });
            assert_eq!(got, want, "threads = {threads}");
        }
    }
}
