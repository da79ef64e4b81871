//! Pins the arena plane's zero-allocation guarantee: after warm-up,
//! [`Simulator::step`] must not touch the heap at all, even with messages
//! circulating every round.
//!
//! A counting global allocator wraps the system allocator; the test runs a
//! perpetual token-ring protocol (every node forwards every round, so the
//! message plane is fully exercised — staging, counting pass, scatter,
//! buffer swap), warms the scratch buffers up, and then asserts that
//! hundreds of further steps perform **zero** allocations.
//!
//! The counter is process-wide, so the pins run one after another in this
//! binary's own `main` (`harness = false` in the manifest). Under the test
//! harness, other threads would leak allocations into the measured
//! windows: sibling tests, and the harness's main thread, which allocates
//! when it first blocks waiting for the test thread — a release build
//! warms up fast enough to overlap that.

use nas_congest::{Msg, NodeProgram, RoundCtx, Simulator};
use nas_graph::generators;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Token ring: at round 0 every node launches a token over its port 0; from
/// then on every received token is forwarded out the *other* port. On a
/// cycle every node handles exactly one token per round, forever — maximal
/// sustained load on the message plane with zero per-program allocation.
struct Ring {
    tokens_seen: u64,
}

impl NodeProgram for Ring {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) {
        if ctx.round() == 0 {
            ctx.send(0, Msg::one(ctx.id() as u64));
            return;
        }
        for i in 0..ctx.inbox().len() {
            let inc = ctx.inbox()[i];
            self.tokens_seen += 1;
            ctx.send(1 - inc.from_port as usize, inc.msg);
        }
    }
}

/// Every pin of this file, in sequence (see the module docs); a failed pin
/// panics, which fails the test binary.
fn main() {
    ring_on_cycle();
    echo_on_irregular_graph();
    ring_with_pool_active();
}

fn ring_on_cycle() {
    let n = 512;
    let g = generators::cycle(n);
    let programs: Vec<Ring> = (0..n).map(|_| Ring { tokens_seen: 0 }).collect();
    let mut sim = Simulator::new(&g, programs);

    // Warm-up: every scratch buffer reaches its steady-state capacity.
    sim.run_rounds(32);
    assert_eq!(sim.stats().messages, 32 * n as u64);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run_rounds(256);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "Simulator::step allocated in steady state"
    );

    // The plane kept doing real work the whole time.
    assert_eq!(sim.stats().messages, (32 + 256) * n as u64);
    assert!(sim.programs().iter().all(|p| p.tokens_seen >= 256));
}

/// The guarantee holds on irregular topologies too: a preferential-
/// attachment graph has wildly varying degrees, so inbox ranges differ
/// per node and per round. It runs on one lane and on a 2-lane pool,
/// whose receiver ranges are cut by in-arcs and laid out by their own
/// lanes, and whose delivery buffer grows on both lanes.
fn echo_on_irregular_graph() {
    use nas_par::WorkerPool;
    use std::sync::Arc;

    let n = 300;
    let g = generators::preferential_attachment(n, 3, 7);

    /// Echo storm: every received message is echoed back out the same port,
    /// seeded by a round-0 broadcast from every node. Constant full load.
    struct Echo;
    impl NodeProgram for Echo {
        fn round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round() == 0 {
                ctx.send_all(Msg::one(ctx.id() as u64));
                return;
            }
            for i in 0..ctx.inbox().len() {
                let inc = ctx.inbox()[i];
                ctx.send(inc.from_port as usize, inc.msg);
            }
        }
    }

    for lanes in [None, Some(2)] {
        let programs: Vec<Echo> = (0..n).map(|_| Echo).collect();
        let mut sim = Simulator::new(&g, programs);
        if let Some(lanes) = lanes {
            sim.set_pool(Arc::new(WorkerPool::new(lanes)));
            sim.set_par_threshold(0);
        }
        sim.run_rounds(16);

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        sim.run_rounds(128);
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "Simulator::step allocated in steady state on irregular graph ({lanes:?} lanes)"
        );
        // Every edge carries a message in both directions every round.
        assert_eq!(sim.stats().messages, (16 + 128) * 2 * g.num_edges() as u64);
    }
}

/// The guarantee survives sharding over several lanes: per-lane arenas are
/// allocated once at [`Simulator::set_pool`] (and grown during warm-up),
/// job dispatch goes through a preallocated futex-guarded slot, and the
/// counting/scatter merge reuses per-range scratch — so a steady-state
/// pooled step performs zero allocations *across all worker threads*
/// (the counting allocator is global, so worker-thread allocations would
/// be caught here too).
fn ring_with_pool_active() {
    use nas_par::WorkerPool;
    use std::sync::Arc;

    let n = 512;
    let g = generators::cycle(n);
    let programs: Vec<Ring> = (0..n).map(|_| Ring { tokens_seen: 0 }).collect();
    let mut sim = Simulator::new(&g, programs);
    // 4 lanes regardless of the host's core count: the cross-thread dispatch
    // machinery must itself be allocation-free even when oversubscribed.
    sim.set_pool(Arc::new(WorkerPool::new(4)));
    // n = 512 sits below the default dispatch threshold; force every round
    // onto the pool — the zero-alloc pin is about the multi-lane machinery.
    sim.set_par_threshold(0);

    // Warm-up: one full token rotation plus slack. Unlike a one-lane
    // run's single staging bucket, a multi-lane plane stages into
    // per-(lane, receiver-range) buckets, and the ring's two tokens that
    // travel *against* the flow shift which bucket carries the shard-
    // boundary messages as they orbit — each bucket only reaches its
    // steady-state capacity once the orbit has passed it. After one full
    // period the pattern repeats exactly.
    let warmup = n as u64 + 32;
    sim.run_rounds(warmup);
    assert_eq!(sim.stats().messages, warmup * n as u64);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run_rounds(2 * n as u64);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "pooled Simulator::step allocated in steady state"
    );
    assert_eq!(sim.stats().messages, (warmup + 2 * n as u64) * n as u64);
    assert!(sim.programs().iter().all(|p| p.tokens_seen >= 256));
}
