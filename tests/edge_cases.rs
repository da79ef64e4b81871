//! Boundary conditions: tiny graphs, isolated vertices, extreme parameters.

use nas_core::{Backend, Params, Report, Session, SessionError};
use nas_graph::{generators, Graph, GraphBuilder};

fn build(g: &Graph, p: Params, b: Backend) -> Report {
    Session::on(g).params(p).backend(b).run().unwrap()
}

#[test]
fn two_vertex_graph() {
    let mut b = GraphBuilder::new(2);
    b.add_edge(0, 1);
    let g = b.build();
    let r = build(&g, Params::practical(0.5, 4, 0.45), Backend::Centralized);
    assert_eq!(r.num_edges(), 1, "the only edge must be kept");
    let d = build(&g, Params::practical(0.5, 4, 0.45), Backend::Congest);
    assert_eq!(d.num_edges(), 1);
}

#[test]
fn single_vertex_rejected_cleanly() {
    let single = GraphBuilder::new(1).build();
    let path = generators::path(10);
    for backend in [
        Backend::Centralized,
        Backend::Congest,
        Backend::Local,
        Backend::Full,
    ] {
        for (g, p) in [
            (&single, Params::practical(0.5, 4, 0.45)),
            (&path, Params::practical(0.5, 1, 0.4)),
        ] {
            let err = Session::on(g).params(p).backend(backend).run().unwrap_err();
            assert!(
                matches!(err, SessionError::Param(_)),
                "{backend}: expected a parameter error, got {err:?}"
            );
        }
    }
}

#[test]
fn edgeless_graph() {
    let g = GraphBuilder::new(10).build();
    let r = build(&g, Params::practical(0.5, 4, 0.45), Backend::Centralized);
    assert_eq!(r.num_edges(), 0);
    // Everyone settles as a singleton in phase 0.
    assert!(r.settled.iter().all(|s| s.map(|(p, _)| p) == Some(0)));
}

#[test]
fn isolated_vertices_next_to_a_clique() {
    let mut b = GraphBuilder::new(20);
    for u in 0..10 {
        for v in (u + 1)..10 {
            b.add_edge(u, v);
        }
    }
    let g = b.build();
    let r = build(&g, Params::practical(0.5, 4, 0.45), Backend::Centralized);
    assert!(r.spanner.verify_subgraph_of(&g).is_ok());
    // Isolated vertices settle in phase 0 as their own centers.
    for v in 10..20 {
        assert_eq!(r.settled[v], Some((0, v as u32)));
    }
    // Clique pairs stay within the stretch envelope (they all settle with
    // centers reachable in H).
    let h = r.to_graph();
    for u in 0..10 {
        for v in (u + 1)..10 {
            let d = nas_graph::DistanceMap::from_source(&h, u)
                .get(v)
                .expect("clique stays connected");
            let (alpha, beta) = r.schedule.stretch_envelope();
            assert!((d as f64) <= alpha + beta);
        }
    }
}

#[test]
fn rho_at_lower_boundary() {
    // ρ = 1/κ exactly is legal.
    let p = Params::practical(0.5, 4, 0.25);
    p.validate().unwrap();
    let g = generators::connected_gnp(40, 0.15, 1);
    let r = build(&g, p, Backend::Centralized);
    assert!(r.num_edges() > 0);
}

#[test]
fn eps_at_upper_boundary() {
    let p = Params::practical(1.0, 4, 0.45);
    let g = generators::cycle(30);
    let r = build(&g, p, Backend::Centralized);
    assert!(nas_graph::connectivity::is_connected(&r.to_graph()));
}

#[test]
fn kappa_large_shrinks_nothing_on_sparse_graphs() {
    // κ = 16 ⟹ size budget n^{1.0625}: on a tree the spanner is the tree.
    let g = generators::binary_tree(64);
    let r = build(&g, Params::practical(0.5, 16, 0.45), Backend::Centralized);
    assert_eq!(r.num_edges(), 63);
}

#[test]
fn star_graph_all_leaves_settle_against_hub() {
    let g = generators::star(50);
    let r = build(&g, Params::practical(0.5, 4, 0.45), Backend::Centralized);
    // The star must be kept whole: leaves have only one path to anything.
    assert_eq!(r.num_edges(), 49);
    let d = build(&g, Params::practical(0.5, 4, 0.45), Backend::Congest);
    assert_eq!(d.num_edges(), 49);
}

#[test]
fn dense_small_world_round_trip() {
    let g = generators::watts_strogatz(60, 6, 0.2, 9);
    let params = Params::practical(0.5, 4, 0.45);
    let a = build(&g, params, Backend::Centralized);
    let b = build(&g, params, Backend::Congest);
    assert_eq!(a.spanner, b.spanner);
}
