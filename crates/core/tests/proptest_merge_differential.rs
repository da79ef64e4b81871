//! Differential property tests for the merged message plane.
//!
//! The production [`Simulator`] applies sender-side combining
//! (`Merge::Min`/`Dedup`/`Or`), broadcast records, timed wake-ups, and
//! (optionally) sharded parallel rounds; the [`ReferenceSimulator`] applies
//! none of them — it is the unmerged, visit-everyone baseline. For every
//! protocol in the construction, the two planes must agree on the final
//! protocol *outputs* (the wire format legitimately differs where inbox
//! ranges collapse), at every lane count and at an aggressive broadcast
//! threshold. A skew-stress case plants a degree-10⁴ hub so the combining
//! and broadcast-tree paths carry real load instead of toy inboxes.

use nas_congest::{NodeProgram, ReferenceSimulator, Simulator};
use nas_core::algo1::{algo1_rounds, Algo1Protocol};
use nas_core::interconnect::TraceProtocol;
use nas_core::supercluster::SuperclusterProtocol;
use nas_core::{Backend, Params, Session};
use nas_graph::{generators, Graph, GraphBuilder};
use nas_par::WorkerPool;
use nas_ruling::{RulingParams, RulingProtocol};
use proptest::prelude::*;
use std::sync::Arc;

/// The graph corpus the issue calls out: gnp, path, grid, pref_attach.
fn arb_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        (8usize..48, 0.06f64..0.3, 0u64..1000).prop_map(|(n, p, s)| generators::gnp(n, p, s)),
        (6usize..40).prop_map(generators::path),
        (2usize..7, 2usize..7).prop_map(|(a, b)| generators::grid2d(a, b)),
        (10usize..48, 2usize..4, 0u64..1000)
            .prop_map(|(n, m, s)| generators::preferential_attachment(n, m, s)),
    ]
}

/// Runs `programs` on the production plane for `rounds` rounds.
/// `lanes > 1` attaches a pool and forces the sharded path
/// (`par_threshold = 0`); `bcast` is the broadcast-record threshold
/// (1 = every `send_all` takes the broadcast path); `ff = false` disables
/// round fast-forward so every eventless round executes.
fn run_merged<P: NodeProgram + Send>(
    g: &Graph,
    programs: Vec<P>,
    rounds: u64,
    lanes: usize,
    bcast: usize,
    ff: bool,
) -> Vec<P> {
    let mut sim = Simulator::new(g, programs);
    sim.set_bcast_threshold(bcast);
    sim.set_fast_forward(ff);
    if lanes > 1 {
        sim.set_pool(Arc::new(WorkerPool::new(lanes)));
        sim.set_par_threshold(0);
    }
    sim.run_rounds(rounds);
    sim.into_programs()
}

/// Runs `programs` on the unmerged reference plane for `rounds` rounds.
fn run_reference<P: NodeProgram>(g: &Graph, programs: Vec<P>, rounds: u64) -> Vec<P> {
    let mut sim = ReferenceSimulator::new(g, programs);
    sim.run_rounds(rounds);
    sim.into_programs()
}

/// The lane/broadcast/fast-forward grid every per-protocol differential
/// sweeps: one lane with default and aggressive broadcast thresholds,
/// 2 and 4 lanes (all with fast-forward on, the default), then
/// skip-disabled legs on one lane and on several — the same execution
/// with every eventless round actually stepped.
const GRID: [(usize, usize, bool); 6] = [
    (1, 16, true),
    (1, 1, true),
    (2, 16, true),
    (4, 1, true),
    (1, 16, false),
    (4, 1, false),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Algorithm 1 (`Merge::Dedup` on every forward wave): knowledge tables
    /// and popularity agree with the unmerged baseline.
    #[test]
    fn algo1_output_matches_unmerged_reference(
        g in arb_graph(),
        deg in 2usize..6,
        delta in 1u64..5,
        stride in 1usize..4,
    ) {
        let n = g.num_vertices();
        let mk = |v: usize| Algo1Protocol::new(v.is_multiple_of(stride), deg, delta);
        let rounds = algo1_rounds(deg, delta);
        let want = run_reference(&g, (0..n).map(mk).collect(), rounds);
        for (lanes, bcast, ff) in GRID {
            let got = run_merged(&g, (0..n).map(mk).collect(), rounds, lanes, bcast, ff);
            for v in 0..n {
                prop_assert_eq!(
                    got[v].knowledge(), want[v].knowledge(),
                    "knowledge diverges at v={} (lanes={}, bcast={})", v, lanes, bcast
                );
                prop_assert_eq!(got[v].popular(), want[v].popular(), "popularity at v={}", v);
            }
        }
    }

    /// The ruling-set protocol (`Merge::Min` on kill waves): membership and
    /// killer pointers agree with the unmerged baseline.
    #[test]
    fn ruling_output_matches_unmerged_reference(
        g in arb_graph(),
        q in 1u32..4,
        c in 1u32..3,
        stride in 1usize..4,
    ) {
        let n = g.num_vertices();
        let params = RulingParams::new(q, c);
        let mk = |v: usize| RulingProtocol::new(n, params, v.is_multiple_of(stride));
        let rounds = RulingProtocol::total_rounds(n, params);
        let want = run_reference(&g, (0..n).map(mk).collect(), rounds);
        for (lanes, bcast, ff) in GRID {
            let got = run_merged(&g, (0..n).map(mk).collect(), rounds, lanes, bcast, ff);
            for v in 0..n {
                prop_assert_eq!(
                    got[v].is_member(), want[v].is_member(),
                    "membership diverges at v={} (lanes={}, bcast={})", v, lanes, bcast
                );
                prop_assert_eq!(got[v].killer(), want[v].killer(), "killer at v={}", v);
            }
        }
    }

    /// Superclustering (`Merge::Min` claims, `Merge::Or` confirms): the BFS
    /// forest and the marked tree edges agree with the unmerged baseline.
    #[test]
    fn supercluster_output_matches_unmerged_reference(
        g in arb_graph(),
        depth in 0u64..6,
        root_stride in 2usize..6,
    ) {
        let n = g.num_vertices();
        let mk = |v: usize| SuperclusterProtocol::new(v.is_multiple_of(root_stride), v.is_multiple_of(2), depth);
        let rounds = SuperclusterProtocol::total_rounds(depth);
        let want = run_reference(&g, (0..n).map(mk).collect(), rounds);
        for (lanes, bcast, ff) in GRID {
            let got = run_merged(&g, (0..n).map(mk).collect(), rounds, lanes, bcast, ff);
            for v in 0..n {
                prop_assert_eq!(
                    got[v].root(), want[v].root(),
                    "root diverges at v={} (lanes={}, bcast={})", v, lanes, bcast
                );
                prop_assert_eq!(got[v].parent(), want[v].parent(), "parent at v={}", v);
                prop_assert_eq!(
                    got[v].marked_edges(), want[v].marked_edges(),
                    "marked edges at v={}", v
                );
            }
        }
    }

    /// Interconnection traces (`Merge::Dedup` on forwards): marked spanner
    /// edges agree with the unmerged baseline. Knowledge (and with it the
    /// parent pointers the traces walk) comes from a real Algorithm 1 run.
    #[test]
    fn interconnect_output_matches_unmerged_reference(
        g in arb_graph(),
        deg in 2usize..6,
        delta in 2u64..5,
        init_stride in 1usize..4,
    ) {
        let n = g.num_vertices();
        let centers = vec![true; n];
        let info = nas_core::algo1::algo1_centralized(&g, &centers, deg, delta);
        let mk = |v: usize| TraceProtocol::new(v.is_multiple_of(init_stride), &info.knowledge[v]);
        // Generous fixed window; both planes must have drained inside it.
        let rounds = delta * (deg as u64 + 1) + 2;
        let want = run_reference(&g, (0..n).map(mk).collect(), rounds);
        for (lanes, bcast, ff) in GRID {
            let got = run_merged(&g, (0..n).map(mk).collect(), rounds, lanes, bcast, ff);
            for v in 0..n {
                prop_assert!(got[v].drained() && want[v].drained(), "queues not drained at v={}", v);
                prop_assert_eq!(
                    got[v].marked_edges(), want[v].marked_edges(),
                    "marked edges diverge at v={} (lanes={}, bcast={})", v, lanes, bcast
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The whole construction end to end: the spanner `Report` — edges,
    /// schedule, settled map, and the CONGEST cost accounting — is
    /// identical at 1, 2, and 4 lanes, with round fast-forward on and off,
    /// and the edges/settlement match the centralized (simulator-free)
    /// backend. The only permitted divergence between the skip-enabled and
    /// skip-disabled runs is `skipped_rounds` itself (a skip-disabled run
    /// executes every round, so it reports 0 there).
    #[test]
    fn spanner_report_identical_across_lanes_and_fast_forward(
        g in arb_graph(),
        rho in prop_oneof![Just(0.4f64), Just(0.45), Just(0.49)],
    ) {
        let params = Params::practical(0.5, 4, rho);
        let run = |threads: usize, ff: bool| {
            Session::on(&g)
                .params(params)
                .backend(Backend::Congest)
                .threads(threads)
                .fast_forward(ff)
                .run()
                .expect("spanner run")
        };
        let base = run(1, true);
        let central = Session::on(&g)
            .params(params)
            .backend(Backend::Centralized)
            .run()
            .expect("centralized run");
        let edges = |r: &nas_core::Report| {
            let mut e: Vec<_> = r.spanner.iter().collect();
            e.sort_unstable();
            e
        };
        // Everything but the skip counter: what must agree between a
        // skipping and a non-skipping execution.
        let executed = |r: &nas_core::Report| {
            let mut s = r.stats;
            s.skipped_rounds = 0;
            s
        };
        prop_assert_eq!(edges(&base), edges(&central), "congest vs centralized edges");
        prop_assert_eq!(&base.settled, &central.settled, "congest vs centralized settled");
        for threads in [2usize, 4] {
            let r = run(threads, true);
            prop_assert_eq!(edges(&base), edges(&r), "edges diverge at {} lanes", threads);
            prop_assert_eq!(&base.schedule, &r.schedule, "schedule diverges at {} lanes", threads);
            prop_assert_eq!(&base.settled, &r.settled, "settled diverges at {} lanes", threads);
            prop_assert_eq!(base.stats, r.stats, "round/message accounting diverges at {} lanes", threads);
        }
        for threads in [1usize, 2, 4] {
            let r = run(threads, false);
            prop_assert_eq!(r.stats.skipped_rounds, 0, "skip-disabled run skipped rounds");
            prop_assert_eq!(edges(&base), edges(&r), "edges diverge ff-off at {} lanes", threads);
            prop_assert_eq!(&base.schedule, &r.schedule, "schedule diverges ff-off at {} lanes", threads);
            prop_assert_eq!(&base.settled, &r.settled, "settled diverges ff-off at {} lanes", threads);
            prop_assert_eq!(
                executed(&base), executed(&r),
                "executed-round accounting diverges ff-off at {} lanes", threads
            );
        }
    }
}

/// Builds a sparse connected graph of `n` vertices with vertex 0 planted as
/// a degree-`hub_deg` hub: a Hamiltonian path keeps it connected, seeded
/// chords keep it irregular, and the hub star forces `send_all` onto the
/// broadcast-record path and the hub's inbox through the merge pass.
fn hub_graph(n: usize, hub_deg: usize, seed: u64) -> Graph {
    assert!(hub_deg < n);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(v - 1, v);
    }
    // Hub star over distinct non-adjacent-by-path targets.
    for k in 0..hub_deg {
        let u = 2 + (k * (n - 3)) / hub_deg; // spread over [2, n-1]
        b.add_edge(0, u);
    }
    // A few seeded chords for asymmetry.
    let mut x = seed | 1;
    for _ in 0..n / 8 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = (x >> 33) as usize % n;
        let c = (x >> 13) as usize % n;
        if a != c {
            b.add_edge(a, c);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Skew stress: Algorithm 1 on a graph with a planted degree-10⁴ hub.
    /// Every hub `send_all` stages one broadcast record expanded over 10⁴
    /// neighbors, and the hub's inbox absorbs up to 10⁴ same-class messages
    /// per round through the merge pass — outputs must still match the
    /// unmerged baseline exactly, on one lane and on several.
    #[test]
    fn skew_stress_hub_matches_unmerged_reference(seed in 0u64..1000) {
        let n = 10_050;
        let g = hub_graph(n, 10_000, seed);
        let (deg, delta) = (3usize, 3u64);
        let mk = |v: usize| Algo1Protocol::new(v.is_multiple_of(2), deg, delta);
        let rounds = algo1_rounds(deg, delta);
        let want = run_reference(&g, (0..n).map(mk).collect(), rounds);
        for (lanes, bcast) in [(1usize, 16usize), (4, 1)] {
            let got = run_merged(&g, (0..n).map(mk).collect(), rounds, lanes, bcast, true);
            for v in 0..n {
                prop_assert_eq!(
                    got[v].knowledge(), want[v].knowledge(),
                    "knowledge diverges at v={} (lanes={}, bcast={})", v, lanes, bcast
                );
                prop_assert_eq!(got[v].popular(), want[v].popular(), "popularity at v={}", v);
            }
        }
    }
}

/// A workload engineered to produce **long eventless gaps** between
/// timer-wheel appointments: Algorithm 1 with a large `delta` on a short
/// path finishes each forwarding wave within a few rounds of hop
/// propagation, leaving the rest of every `delta`-round interval provably
/// eventless until the next phase appointment. Fast-forward must skip a
/// substantial share of the schedule here — and the skip must change
/// nothing: knowledge tables, popularity, round count, message count, and
/// word count all agree between skip-on, skip-off (sequential and
/// sharded), and the unmerged reference.
#[test]
fn long_eventless_gaps_skip_without_output_drift() {
    let g = generators::path(10);
    let n = g.num_vertices();
    let (deg, delta) = (2usize, 40u64);
    let mk = |v: usize| Algo1Protocol::new(v.is_multiple_of(2), deg, delta);
    let rounds = algo1_rounds(deg, delta);
    let reference = run_reference(&g, (0..n).map(mk).collect(), rounds);

    let run = |ff: bool, lanes: usize| {
        let mut sim = Simulator::new(&g, (0..n).map(mk).collect());
        sim.set_fast_forward(ff);
        if lanes > 1 {
            sim.set_pool(Arc::new(WorkerPool::new(lanes)));
            sim.set_par_threshold(0);
        }
        sim.run_rounds(rounds);
        let stats = *sim.stats();
        (sim.into_programs(), stats)
    };

    let (on, on_stats) = run(true, 1);
    // The gap engineering worked: most of the schedule is eventless and
    // was skipped, and the clock still advanced the full span.
    assert!(
        on_stats.skipped_rounds > rounds / 2,
        "expected most of {rounds} rounds skipped, got {}",
        on_stats.skipped_rounds
    );
    assert_eq!(on_stats.rounds, rounds);
    for lanes in [1usize, 4] {
        let (off, off_stats) = run(false, lanes);
        assert_eq!(off_stats.skipped_rounds, 0, "ff-off run skipped rounds");
        assert_eq!(on_stats.rounds, off_stats.rounds, "round counts diverge");
        assert_eq!(
            on_stats.messages, off_stats.messages,
            "message counts diverge"
        );
        assert_eq!(on_stats.words, off_stats.words, "word counts diverge");
        for v in 0..n {
            assert_eq!(on[v].knowledge(), off[v].knowledge(), "knowledge at v={v}");
            assert_eq!(
                on[v].knowledge(),
                reference[v].knowledge(),
                "knowledge vs reference at v={v}"
            );
            assert_eq!(
                on[v].popular(),
                reference[v].popular(),
                "popularity at v={v}"
            );
        }
    }
}
