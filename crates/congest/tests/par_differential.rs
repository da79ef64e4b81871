//! Differential tests: the sharded round on several lanes vs the same
//! round on one lane vs the naive reference simulator.
//!
//! Every round runs the same sharded round code; with no pool attached it
//! runs on the simulator's own one-lane plane. The determinism contract
//! says a pool-attached [`Simulator`] must be **bit-identical** to that
//! one-lane run at every thread count: same per-round transcripts
//! (delivery digests fold order-sensitively), same stats, same final
//! program states, message for message. The independent
//! [`ReferenceSimulator`] anchors all of them. The proptest sweeps random
//! graphs and randomly-parameterized contract-honoring programs across
//! pools of 1/2/3/8 lanes; the unit tests pin the shard edge cases (visit
//! list smaller than the lane count, empty rounds, wake-all rounds,
//! single-vertex graphs).

use nas_congest::{Msg, NodeProgram, ReferenceSimulator, RoundCtx, Simulator};
use nas_graph::generators;
use nas_par::WorkerPool;
use proptest::prelude::*;
use std::sync::Arc;

/// SplitMix64 — deterministic per-(seed, inputs) decision stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A randomized contract-honoring protocol: some nodes broadcast at round 0,
/// some fire spontaneously on a countdown (reporting non-idle until then),
/// everyone relays received messages over a pseudorandom port subset while
/// TTL lasts. Every delivery is logged for message-for-message comparison.
#[derive(Clone)]
struct Scatter {
    seed: u64,
    id: u64,
    starter: bool,
    countdown: Option<u64>,
    log: Vec<(u64, u32, u64, u64)>,
    sent: u64,
}

impl Scatter {
    fn network(n: usize, seed: u64) -> Vec<Scatter> {
        (0..n)
            .map(|v| {
                let h = mix(seed ^ ((v as u64) << 13));
                Scatter {
                    seed,
                    id: v as u64,
                    starter: h.is_multiple_of(5),
                    countdown: (h % 7 == 1).then_some(1 + (h >> 32) % 9),
                    log: Vec::new(),
                    sent: 0,
                }
            })
            .collect()
    }

    fn broadcast(&mut self, ctx: &mut RoundCtx<'_>, ttl: u64) {
        for port in 0..ctx.degree() {
            ctx.send(port, Msg::two(mix(self.seed ^ self.id ^ port as u64), ttl));
            self.sent += 1;
        }
    }
}

impl NodeProgram for Scatter {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) {
        let mut relay: Vec<(u64, u64)> = Vec::new();
        for i in 0..ctx.inbox().len() {
            let inc = ctx.inbox()[i];
            let (w0, ttl) = (inc.msg.word(0), inc.msg.word(1));
            self.log.push((ctx.round(), inc.from_port, w0, ttl));
            if ttl > 0 {
                relay.push((w0, ttl - 1));
            }
        }
        if ctx.round() == 0 && self.starter {
            self.broadcast(ctx, 3);
            return;
        }
        if let Some(c) = self.countdown {
            if ctx.round() == c {
                self.countdown = None;
                self.broadcast(ctx, 2);
                return;
            }
        }
        for port in 0..ctx.degree() {
            if let Some(&(w0, ttl)) = relay
                .iter()
                .find(|&&(w0, _)| mix(self.seed ^ w0 ^ ((port as u64) << 17)).is_multiple_of(3))
            {
                ctx.send(port, Msg::two(mix(w0 ^ self.id), ttl));
                self.sent += 1;
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.countdown.is_none()
    }
}

/// One node's observable state: delivery log, sends, pending countdown.
type NodeSnapshot = (Vec<(u64, u32, u64, u64)>, u64, Option<u64>);

fn snapshot(programs: &[Scatter]) -> Vec<NodeSnapshot> {
    programs
        .iter()
        .map(|p| (p.log.clone(), p.sent, p.countdown))
        .collect()
}

/// Runs `rounds` rounds on a fresh simulator, optionally pool-attached, and
/// returns (digest, stats, program snapshot).
fn run(
    g: &nas_graph::Graph,
    seed: u64,
    rounds: u64,
    pool: Option<Arc<WorkerPool>>,
) -> (u64, nas_congest::RunStats, Vec<NodeSnapshot>) {
    let mut sim = Simulator::new(g, Scatter::network(g.num_vertices(), seed));
    if let Some(pool) = pool {
        sim.set_pool(pool);
        // Force every round onto the pool: these graphs sit below the
        // default dispatch threshold, and the point is to exercise sharding.
        sim.set_par_threshold(0);
    }
    sim.enable_transcript();
    sim.run_rounds(rounds);
    (
        sim.transcript().unwrap().digest(),
        *sim.stats(),
        snapshot(sim.programs()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline differential: unpooled (one lane) vs pooled at 1/2/3/8
    /// lanes vs the naive reference — all six agree digest-for-digest and
    /// message-for-message.
    #[test]
    fn parallel_step_is_bit_identical_across_thread_counts(
        n in 2usize..48,
        p in 0.02f64..0.3,
        graph_seed in 0u64..1_000_000,
        program_seed in 0u64..1_000_000,
        rounds in 1u64..20,
    ) {
        let g = generators::gnp(n, p, graph_seed);
        let want = run(&g, program_seed, rounds, None);

        for threads in [1usize, 2, 3, 8] {
            let pool = Arc::new(WorkerPool::new(threads));
            let got = run(&g, program_seed, rounds, Some(pool));
            prop_assert_eq!(&got.0, &want.0, "digest drift at {} threads", threads);
            prop_assert_eq!(&got.1, &want.1, "stats drift at {} threads", threads);
            prop_assert_eq!(&got.2, &want.2, "state drift at {} threads", threads);
        }

        let mut reference = ReferenceSimulator::new(&g, Scatter::network(n, program_seed));
        reference.enable_transcript();
        reference.run_rounds(rounds);
        prop_assert_eq!(reference.transcript().unwrap().digest(), want.0);
        prop_assert_eq!(reference.stats(), &want.1);
        prop_assert_eq!(snapshot(reference.programs()), want.2);
    }

    /// Quiescence detection agrees between pooled and unpooled runs.
    #[test]
    fn pooled_quiescence_matches_unpooled(
        n in 2usize..40,
        p in 0.02f64..0.25,
        graph_seed in 0u64..1_000_000,
        program_seed in 0u64..1_000_000,
    ) {
        let g = generators::gnp(n, p, graph_seed);

        let mut seq = Simulator::new(&g, Scatter::network(n, program_seed));
        let seq_outcome = seq.run_until_quiet(300);

        let pool = Arc::new(WorkerPool::new(3));
        let mut par = Simulator::new(&g, Scatter::network(n, program_seed));
        par.set_pool(pool);
        par.set_par_threshold(0);
        let par_outcome = par.run_until_quiet(300);

        prop_assert_eq!(par_outcome, seq_outcome);
        prop_assert_eq!(par.stats(), seq.stats());
        prop_assert_eq!(snapshot(par.programs()), snapshot(seq.programs()));
    }
}

/// Visit list smaller than the lane count: 3 nodes, 8 lanes — most shards
/// are empty every round.
#[test]
fn visit_list_smaller_than_lane_count() {
    let g = generators::path(3);
    let want = run(&g, 99, 12, None);
    let got = run(&g, 99, 12, Some(Arc::new(WorkerPool::new(8))));
    assert_eq!(got, want);
}

/// Single-vertex graph: degenerate receiver ranges (chunk clamps to 1).
#[test]
fn single_vertex_graph() {
    let g = generators::path(1);
    let want = run(&g, 7, 5, None);
    let got = run(&g, 7, 5, Some(Arc::new(WorkerPool::new(4))));
    assert_eq!(got, want);
}

/// Empty rounds: run far past quiescence so many rounds have an empty visit
/// list (all shards empty, zero staged messages).
#[test]
fn empty_rounds_after_quiescence() {
    let g = generators::cycle(10);
    let mut seq = Simulator::new(&g, Scatter::network(10, 3));
    seq.enable_transcript();
    seq.run_rounds(60);

    let mut par = Simulator::new(&g, Scatter::network(10, 3));
    par.set_pool(Arc::new(WorkerPool::new(4)));
    par.set_par_threshold(0);
    par.enable_transcript();
    par.run_rounds(60);

    assert!(par.is_quiescent());
    assert_eq!(
        par.transcript()
            .unwrap()
            .first_divergence(seq.transcript().unwrap()),
        None
    );
    assert_eq!(par.stats(), seq.stats());
}

/// Wake-all rounds: `programs_mut` re-arms a full visit mid-run on both
/// paths; the re-seeded runs must stay identical.
#[test]
fn wake_all_after_programs_mut() {
    let g = generators::grid2d(5, 5);
    let reseed = |sim: &mut Simulator<'_, Scatter>| {
        sim.run_rounds(8);
        let round = 10;
        sim.programs_mut()[13].countdown = Some(round);
        sim.run_rounds(12);
    };

    let mut seq = Simulator::new(&g, Scatter::network(25, 17));
    seq.enable_transcript();
    reseed(&mut seq);

    let mut par = Simulator::new(&g, Scatter::network(25, 17));
    par.set_pool(Arc::new(WorkerPool::new(3)));
    par.set_par_threshold(0);
    par.enable_transcript();
    reseed(&mut par);

    assert_eq!(
        par.transcript().unwrap().digest(),
        seq.transcript().unwrap().digest()
    );
    assert_eq!(par.stats(), seq.stats());
    assert_eq!(snapshot(par.programs()), snapshot(seq.programs()));
}

/// The env-sized default pool (`NAS_THREADS` honored) also stays identical —
/// this is the configuration CI sweeps at 1 and 4 threads.
#[test]
fn default_pool_matches_unpooled() {
    let g = generators::preferential_attachment(60, 3, 5);
    let want = run(&g, 41, 15, None);
    let got = run(
        &g,
        41,
        15,
        Some(Arc::new(WorkerPool::with_default_threads())),
    );
    assert_eq!(got, want);
}

/// Detaching the pool mid-run switches back to the one-lane plane without
/// observable effect.
#[test]
fn pool_can_be_detached_mid_run() {
    let g = generators::cycle(16);
    let mut seq = Simulator::new(&g, Scatter::network(16, 23));
    seq.enable_transcript();
    seq.run_rounds(14);

    let mut par = Simulator::new(&g, Scatter::network(16, 23));
    par.enable_transcript();
    par.set_pool(Arc::new(WorkerPool::new(2)));
    par.set_par_threshold(0);
    par.run_rounds(7);
    par.clear_pool();
    assert!(par.pool().is_none());
    par.run_rounds(7);

    assert_eq!(
        par.transcript().unwrap().digest(),
        seq.transcript().unwrap().digest()
    );
    assert_eq!(snapshot(par.programs()), snapshot(seq.programs()));
}
