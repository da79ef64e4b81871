//! End-to-end tests of the weighted distance plane: a weighted graph's
//! skeleton through the `Session` surface, weight inheritance back onto
//! the spanner, and the weighted audit family agreeing with the unweighted
//! one when the weights carry no information.

use nas_core::{Params, Session};
use nas_graph::weighted::WeightDist;
use nas_graph::{generators, WeightedGraph};
use nas_metrics::{
    stretch_audit, stretch_audit_weighted, stretch_audit_weighted_sampled, SpannerOracle,
};

/// The full weighted loop: weighted graph → construction on its skeleton →
/// weights inherited back → weighted audit. The spanner must preserve
/// weighted connectivity (it preserves hop connectivity and is a subgraph
/// on the same vertex set), and every audited figure must be well-formed.
#[test]
fn session_to_weighted_audit_round_trip() {
    let g = generators::weighted_gnp(120, 0.06, 7, WeightDist::Uniform { lo: 1, hi: 100 });
    let report = Session::on(g.graph())
        .params(Params::practical(0.5, 4, 0.45))
        .run()
        .unwrap();
    let h = report.to_weighted_graph(&g);
    assert_eq!(h.num_vertices(), g.num_vertices());
    assert_eq!(h.num_edges(), report.num_edges());
    // Every spanner edge carries its parent weight.
    for (u, v, w) in h.edges_weighted() {
        assert_eq!(g.edge_weight(u, v), Some(w));
    }

    let audit = stretch_audit_weighted(&g, &h, 0.5);
    assert_eq!(
        audit.disconnected_pairs, 0,
        "a spanner of a connected graph stays connected"
    );
    assert!(audit.pairs > 0);
    assert!(audit.max_stretch >= 1.0);
    assert!(audit.mean_dilation() >= 1.0);
    assert!(audit.spanner_dist_sum >= audit.graph_dist_sum);

    // The sampled audit is a lower bound on the exact maxima.
    let sampled = stretch_audit_weighted_sampled(&g, &h, 0.5, 30);
    assert!(sampled.max_stretch <= audit.max_stretch);
    assert!(sampled.effective_beta <= audit.effective_beta);
}

/// With unit weights the whole weighted plane collapses onto the
/// unweighted one: the audit of the session's spanner reports identical
/// stretch figures either way.
#[test]
fn unit_weight_audit_matches_unweighted_audit() {
    let skeleton = generators::connected_gnp(90, 0.07, 21);
    let g = WeightedGraph::uniform(skeleton.clone(), 1);
    let report = Session::on(g.graph()).run().unwrap();
    let h = report.to_weighted_graph(&g);

    let weighted = stretch_audit_weighted(&g, &h, 0.5);
    let plain = stretch_audit(&skeleton, &report.to_graph(), 0.5);
    assert_eq!(weighted.pairs, plain.pairs);
    assert_eq!(weighted.max_stretch, plain.max_stretch);
    assert_eq!(weighted.effective_beta, plain.effective_beta);
    assert_eq!(weighted.disconnected_pairs, plain.disconnected_pairs);
}

/// The construction is weight-agnostic: two weight assignments over the
/// same skeleton select the same edge set as the bare skeleton.
#[test]
fn construction_ignores_weights() {
    let skeleton = generators::connected_gnp(80, 0.08, 3);
    let light =
        WeightedGraph::from_graph(skeleton.clone(), WeightDist::Uniform { lo: 1, hi: 9 }, 1);
    let heavy = WeightedGraph::from_graph(
        skeleton.clone(),
        WeightDist::Uniform { lo: 1000, hi: 9000 },
        2,
    );
    let a = Session::on(light.graph()).run().unwrap();
    let b = Session::on(heavy.graph()).run().unwrap();
    let c = Session::on(&skeleton).run().unwrap();
    assert_eq!(a.spanner, b.spanner);
    assert_eq!(a.spanner, c.spanner);
}

/// The weighted oracle over a session spanner answers queries consistent
/// with the weighted audit's distances.
#[test]
fn weighted_oracle_over_session_spanner() {
    let g = generators::weighted_grid2d(8, 8, 5, WeightDist::Uniform { lo: 1, hi: 20 });
    let report = Session::on(g.graph()).run().unwrap();
    let h = report.to_weighted_graph(&g);
    let mut oracle = SpannerOracle::weighted(h.clone());
    let reference = nas_graph::sssp::dijkstra(&h, [0]);
    for v in 0..g.num_vertices() {
        assert_eq!(oracle.distance(0, v), reference.get(v), "vertex {v}");
    }
    assert_eq!(oracle.stats().traversals, 1);
}
