//! Golden-transcript regression tests for the message plane.
//!
//! The digests below were captured from the pre-arena simulator (per-node
//! `Vec<Vec<Incoming>>` inboxes, every node visited every round). The
//! rebuilt plane must stay **bit-identical**: same per-round delivery
//! digests, same round counts under quiescence detection, same message and
//! word totals. If any of these change, the simulator's observable
//! semantics changed — that is a bug, not a test to update.

use nas_congest::programs::Flood;
use nas_congest::Simulator;
use nas_graph::{generators, CompactGraph};
use nas_par::WorkerPool;
use std::sync::Arc;

fn run_flood_store(
    g: &nas_graph::Graph,
    sources: &[usize],
    pool: Option<Arc<WorkerPool>>,
    fast_forward: bool,
    compact: bool,
) -> (u64, usize, u64, u64, u64) {
    let programs = Flood::network(g.num_vertices(), sources);
    let mut sim = if compact {
        Simulator::new_compact(Arc::new(CompactGraph::from_graph(g)), programs)
    } else {
        Simulator::new(g, programs)
    };
    if let Some(pool) = pool {
        sim.set_pool(pool);
        // The golden graphs are small; force every round onto the pool so
        // the digests are asserted against real multi-lane execution.
        sim.set_par_threshold(0);
    }
    sim.set_fast_forward(fast_forward);
    sim.enable_transcript();
    let outcome = sim.run_until_quiet(10_000);
    assert!(outcome.quiescent, "flood must go quiet");
    let t = sim.transcript().unwrap();
    let s = sim.stats();
    (t.digest(), t.len(), s.rounds, s.messages, s.words)
}

fn run_flood_with(
    g: &nas_graph::Graph,
    sources: &[usize],
    pool: Option<Arc<WorkerPool>>,
    fast_forward: bool,
) -> (u64, usize, u64, u64, u64) {
    run_flood_store(g, sources, pool, fast_forward, false)
}

fn run_flood(g: &nas_graph::Graph, sources: &[usize]) -> (u64, usize, u64, u64, u64) {
    run_flood_with(g, sources, None, true)
}

struct Golden {
    name: &'static str,
    graph: nas_graph::Graph,
    sources: Vec<usize>,
    digest: u64,
    rounds: usize,
    messages: u64,
}

#[test]
fn flood_transcripts_match_pre_refactor_goldens() {
    let cases = vec![
        Golden {
            name: "grid2d(9,11)",
            graph: generators::grid2d(9, 11),
            sources: vec![0, 57],
            digest: 0x55dd68f46f6010c8,
            rounds: 13,
            messages: 356,
        },
        Golden {
            name: "gnp(120,0.05,11)",
            graph: generators::gnp(120, 0.05, 11),
            sources: vec![3, 77, 101],
            digest: 0x55a6d70894b17809,
            rounds: 6,
            messages: 676,
        },
        Golden {
            name: "pref(90,3,2)",
            graph: generators::preferential_attachment(90, 3, 2),
            sources: vec![0, 89],
            digest: 0x7fab1745cde95bc6,
            rounds: 5,
            messages: 528,
        },
        Golden {
            name: "cycle(64)",
            graph: generators::cycle(64),
            sources: vec![5],
            digest: 0x0de969bfe18362ea,
            rounds: 34,
            messages: 128,
        },
    ];
    for c in cases {
        let (digest, len, rounds, messages, words) = run_flood(&c.graph, &c.sources);
        assert_eq!(digest, c.digest, "{}: transcript digest drifted", c.name);
        assert_eq!(len, c.rounds, "{}: transcript length drifted", c.name);
        assert_eq!(rounds, c.rounds as u64, "{}: round count drifted", c.name);
        assert_eq!(messages, c.messages, "{}: message count drifted", c.name);
        assert_eq!(words, c.messages, "{}: word count drifted", c.name);

        // With fast-forward disabled, every round — including the eventless
        // ones a skipping run would bulk-advance over — executes normally,
        // and the transcript must still be verbatim identical: digests,
        // lengths, and all counters.
        let (digest, len, rounds, messages, words) =
            run_flood_with(&c.graph, &c.sources, None, false);
        assert_eq!(digest, c.digest, "{}: digest drifted with ff off", c.name);
        assert_eq!(len, c.rounds, "{}: length drifted with ff off", c.name);
        assert_eq!(
            rounds, c.rounds as u64,
            "{}: rounds drifted with ff off",
            c.name
        );
        assert_eq!(
            messages, c.messages,
            "{}: messages drifted with ff off",
            c.name
        );
        assert_eq!(words, c.messages, "{}: words drifted with ff off", c.name);

        // The compact delta/varint store must reproduce the same goldens
        // verbatim — the store changes how adjacency is *read*, never what
        // the network observably does — on one lane and on several.
        let (digest, len, rounds, messages, words) =
            run_flood_store(&c.graph, &c.sources, None, true, true);
        assert_eq!(digest, c.digest, "{}: digest drifted on compact", c.name);
        assert_eq!(len, c.rounds, "{}: length drifted on compact", c.name);
        assert_eq!(
            rounds, c.rounds as u64,
            "{}: rounds drifted on compact",
            c.name
        );
        assert_eq!(
            messages, c.messages,
            "{}: messages drifted on compact",
            c.name
        );
        assert_eq!(words, c.messages, "{}: words drifted on compact", c.name);
        let pool = Arc::new(WorkerPool::new(4));
        let (digest, ..) = run_flood_store(&c.graph, &c.sources, Some(pool), true, true);
        assert_eq!(
            digest, c.digest,
            "{}: digest drifted on pooled compact",
            c.name
        );

        // The same goldens must hold verbatim sharded over every lane
        // count — the transcripts are part of the public
        // determinism contract, independent of execution strategy.
        for threads in [1usize, 2, 3, 8] {
            let pool = Arc::new(WorkerPool::new(threads));
            let (digest, len, rounds, messages, words) =
                run_flood_with(&c.graph, &c.sources, Some(pool), true);
            assert_eq!(
                digest, c.digest,
                "{}: transcript digest drifted at {threads} threads",
                c.name
            );
            assert_eq!(
                len, c.rounds,
                "{}: length drifted at {threads} threads",
                c.name
            );
            assert_eq!(
                rounds, c.rounds as u64,
                "{}: rounds drifted at {threads} threads",
                c.name
            );
            assert_eq!(
                messages, c.messages,
                "{}: messages drifted at {threads} threads",
                c.name
            );
            assert_eq!(
                words, c.messages,
                "{}: words drifted at {threads} threads",
                c.name
            );
        }
    }
}
