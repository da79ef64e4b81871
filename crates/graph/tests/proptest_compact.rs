//! Differential property tests for the delta/varint compact codec: every
//! graph round-trips edge-set-identically through [`CompactGraph`], the
//! serialized binary form round-trips byte-exactly, and corrupted or
//! truncated streams error cleanly instead of panicking or decoding to a
//! different graph.

use nas_graph::{generators, io, CompactGraph, GraphBuilder};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lossless round-trip: arbitrary (normalized) graphs survive
    /// `Graph → CompactGraph → Graph` with an identical edge set, and the
    /// decoder agrees with the flat adjacency vertex by vertex.
    #[test]
    fn codec_round_trip_is_edge_identical(
        n in 1usize..64,
        edges in prop::collection::vec((0usize..64, 0usize..64), 0..200),
    ) {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u % n, v % n);
        }
        let g = b.build();
        let c = CompactGraph::from_graph(&g);
        prop_assert_eq!(c.num_vertices(), g.num_vertices());
        prop_assert_eq!(c.num_edges(), g.num_edges());
        prop_assert_eq!(c.max_degree(), g.max_degree());
        prop_assert_eq!(c.to_graph(), g.clone());
        let mut scratch = Vec::new();
        for v in 0..n {
            c.decode_into(v, &mut scratch);
            prop_assert_eq!(&scratch[..], g.neighbors(v), "vertex {} drifted", v);
            let it: Vec<u32> = c.neighbors(v).collect();
            prop_assert_eq!(&it[..], g.neighbors(v), "iter at {} drifted", v);
        }
    }

    /// The binary format round-trips byte-exactly through a buffer.
    #[test]
    fn binary_round_trip(
        n in 1usize..48,
        p in 0.02f64..0.35,
        seed in 0u64..100_000,
    ) {
        let g = generators::gnp(n, p, seed);
        let c = CompactGraph::from_graph(&g);
        let mut buf = Vec::new();
        io::write_compact(&c, &mut buf).unwrap();
        let back = io::read_compact(&buf[..]).unwrap();
        prop_assert_eq!(back.to_graph(), g);
        let mut again = Vec::new();
        io::write_compact(&back, &mut again).unwrap();
        prop_assert_eq!(buf, again, "re-serialization must be byte-stable");
    }

    /// Any prefix truncation of a valid stream errors cleanly — never a
    /// panic, never a successful decode of a different graph.
    #[test]
    fn truncated_streams_error_cleanly(
        n in 2usize..40,
        p in 0.05f64..0.35,
        seed in 0u64..100_000,
        frac in 0.0f64..1.0,
    ) {
        let g = generators::gnp(n, p, seed);
        let c = CompactGraph::from_graph(&g);
        let mut buf = Vec::new();
        io::write_compact(&c, &mut buf).unwrap();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cut = ((buf.len() as f64) * frac) as usize;
        if cut < buf.len() {
            prop_assert!(io::read_compact(&buf[..cut]).is_err(), "cut {} passed", cut);
        }
    }

    /// Single-byte corruption anywhere in the stream is either rejected or
    /// decodes to the original graph (a flip can land in dead padding of a
    /// varint only if it changes nothing observable — asserted by
    /// comparing the decoded edge set).
    #[test]
    fn corrupted_streams_never_yield_a_different_graph(
        n in 2usize..40,
        p in 0.05f64..0.35,
        seed in 0u64..100_000,
        at in 0usize..4096,
        bit in 0u8..8,
    ) {
        let g = generators::gnp(n, p, seed);
        let c = CompactGraph::from_graph(&g);
        let mut buf = Vec::new();
        io::write_compact(&c, &mut buf).unwrap();
        let at = at % buf.len();
        buf[at] ^= 1 << bit;
        if let Ok(back) = io::read_compact(&buf[..]) {
            prop_assert_eq!(
                back.to_graph(), g,
                "corruption at byte {} bit {} decoded to a different graph", at, bit
            );
        }
    }
}
