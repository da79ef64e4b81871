//! Workspace-level smoke test for the `PhaseEngine` seam: the centralized
//! and distributed backends, driven through the *same* generic phase loop,
//! must produce bit-identical spanners on the standard small generators.
//!
//! This is the cheapest end-to-end witness of the paper's headline claim
//! (the construction is deterministic, so derandomization costs no
//! structure) and of the engine seam's core invariant: `Session` on
//! `Backend::Centralized` or `Backend::Congest`, and `build_with_engine`
//! with the matching engine, are the same computation.

use nas_core::{
    build_with_engine, Backend, CentralizedEngine, CongestEngine, Params, Report, Session,
};
use nas_graph::{generators, Graph};

fn build(g: &Graph, p: Params, b: Backend) -> Report {
    Session::on(g).params(p).backend(b).run().unwrap()
}

fn workloads() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid2d(6,6)", generators::grid2d(6, 6)),
        (
            "connected_gnp(48, 0.1)",
            generators::connected_gnp(48, 0.1, 42),
        ),
        ("path(64)", generators::path(64)),
    ]
}

#[test]
fn centralized_equals_distributed_via_engine_seam() {
    let params = Params::practical(0.5, 4, 0.45);
    for (name, g) in workloads() {
        // Through `Session`...
        let central = build(&g, params, Backend::Centralized);
        let distributed = build(&g, params, Backend::Congest);
        // ...and explicitly through the PhaseEngine seam.
        let via_central_engine = build_with_engine(&g, params, &mut CentralizedEngine).unwrap();
        let via_congest_engine = build_with_engine(&g, params, &mut CongestEngine::new()).unwrap();

        let reference = &central.spanner;
        assert_eq!(
            *reference, distributed.spanner,
            "{name}: distributed differs"
        );
        assert_eq!(
            *reference, via_central_engine.spanner,
            "{name}: explicit CentralizedEngine differs"
        );
        assert_eq!(
            *reference, via_congest_engine.spanner,
            "{name}: explicit CongestEngine differs"
        );

        // Settlement records (phase, center per vertex) must agree too —
        // the engines share the whole decision sequence, not just the
        // final edge set.
        assert_eq!(
            central.settled, distributed.settled,
            "{name}: settlement differs"
        );

        // Cost models differ as specified: centralized is free, CONGEST
        // pays real rounds within the schedule bound.
        assert_eq!(central.stats.rounds, 0, "{name}");
        assert!(distributed.stats.rounds > 0, "{name}");
        assert!(
            distributed.stats.rounds <= distributed.schedule.total_round_bound(),
            "{name}: rounds exceed Corollary 2.9 schedule bound"
        );
    }
}

#[test]
fn spanner_is_subgraph_and_connected_on_all_workloads() {
    let params = Params::practical(0.5, 4, 0.45);
    for (name, g) in workloads() {
        let r = build(&g, params, Backend::Centralized);
        assert!(r.spanner.verify_subgraph_of(&g).is_ok(), "{name}");
        assert!(
            nas_graph::connectivity::is_connected(&r.to_graph()),
            "{name}: spanner must preserve connectivity"
        );
    }
}
