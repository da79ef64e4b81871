//! Golden regression tests for the engine-level CONGEST runs.
//!
//! The values below (spanner edge sets as FNV hashes, exact round and
//! message totals) were captured from the first engines running on the
//! pre-arena simulator. The rebuilt message plane must reproduce them
//! byte-for-byte: the staged `Backend::Congest` pipeline and the one-shot
//! `Backend::Full` composite both route every protocol message through the
//! plane, so any drift here means delivery order, scheduling, or accounting
//! changed observably. Both run on the process-wide pool (`NAS_THREADS`),
//! so the values are pinned at every lane count the suite runs at.

use nas_core::{Backend, Params, Report, Session};
use nas_graph::{generators, Graph};

fn edge_hash(mut edges: Vec<(usize, usize)>) -> u64 {
    edges.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (a, b) in edges {
        for w in [a as u64, b as u64] {
            for byte in w.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

struct Golden {
    name: &'static str,
    graph: Graph,
    edges: usize,
    edge_hash: u64,
    staged_rounds: u64,
    full_rounds: u64,
    messages: u64,
}

fn goldens() -> Vec<Golden> {
    vec![
        Golden {
            name: "connected_gnp(48,0.1,7)",
            graph: generators::connected_gnp(48, 0.1, 7),
            edges: 49,
            edge_hash: 0x1b66a1e2dcd11bcc,
            staged_rounds: 322,
            full_rounds: 3342,
            messages: 1481,
        },
        Golden {
            name: "grid2d(7,7)",
            graph: generators::grid2d(7, 7),
            edges: 52,
            edge_hash: 0x64791e18bc69295d,
            staged_rounds: 1949,
            full_rounds: 3342,
            messages: 2819,
        },
        Golden {
            name: "pref(40,2,5)",
            graph: generators::preferential_attachment(40, 2, 5),
            edges: 39,
            edge_hash: 0xf57d1d97c35bd475,
            staged_rounds: 317,
            full_rounds: 3342,
            messages: 871,
        },
    ]
}

fn build(g: &Graph, p: Params, b: Backend) -> Report {
    Session::on(g).params(p).backend(b).run().unwrap()
}

#[test]
fn staged_engine_matches_pre_refactor_goldens() {
    let params = Params::practical(0.5, 4, 0.45);
    for g in goldens() {
        let r = build(&g.graph, params, Backend::Congest);
        let edges: Vec<(usize, usize)> = r.spanner.iter().collect();
        assert_eq!(edges.len(), g.edges, "{}: edge count drifted", g.name);
        assert_eq!(
            edge_hash(edges),
            g.edge_hash,
            "{}: edge set drifted",
            g.name
        );
        assert_eq!(
            r.stats.rounds, g.staged_rounds,
            "{}: rounds drifted",
            g.name
        );
        assert_eq!(r.stats.messages, g.messages, "{}: messages drifted", g.name);
        assert_eq!(r.stats.words, g.messages, "{}: words drifted", g.name);
    }
}

#[test]
fn full_protocol_matches_pre_refactor_goldens() {
    let params = Params::practical(0.5, 4, 0.45);
    for g in goldens() {
        let r = build(&g.graph, params, Backend::Full);
        let edges: Vec<(usize, usize)> = r.spanner.iter().collect();
        assert_eq!(edges.len(), g.edges, "{}: edge count drifted", g.name);
        assert_eq!(
            edge_hash(edges),
            g.edge_hash,
            "{}: edge set drifted",
            g.name
        );
        assert_eq!(r.stats.rounds, g.full_rounds, "{}: rounds drifted", g.name);
        assert_eq!(r.stats.messages, g.messages, "{}: messages drifted", g.name);
    }
}
