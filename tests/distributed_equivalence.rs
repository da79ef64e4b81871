//! The headline determinism claim, end to end: the distributed CONGEST
//! execution produces the *identical* spanner to the centralized reference,
//! and its measured round count respects the schedule bound (Corollary 2.9's
//! concrete analogue).

use nas_core::{Backend, Params, Report, Session};
use nas_graph::{generators, Graph};

fn build(g: &Graph, p: Params, b: Backend) -> Report {
    Session::on(g).params(p).backend(b).run().unwrap()
}

#[test]
fn distributed_equals_centralized_corpus() {
    let graphs = vec![
        ("grid2d(5,6)", generators::grid2d(5, 6)),
        ("cycle(24)", generators::cycle(24)),
        ("gnp(40,0.1)", generators::connected_gnp(40, 0.1, 5)),
        ("pref(35,2)", generators::preferential_attachment(35, 2, 6)),
        ("complete(16)", generators::complete(16)),
        ("barbell(8,3)", generators::barbell(8, 3)),
    ];
    for params in [
        Params::practical(0.5, 4, 0.45),
        Params::practical(1.0, 4, 0.49),
    ] {
        for (name, g) in &graphs {
            let a = build(g, params, Backend::Centralized);
            let b = build(g, params, Backend::Congest);
            assert_eq!(
                a.spanner, b.spanner,
                "{name}: spanner differs between backends"
            );
            assert_eq!(a.settled, b.settled, "{name}: settled differs");
            // Phase observables agree (rounds aside).
            for (pa, pb) in a.phases.iter().zip(&b.phases) {
                assert_eq!(pa.popular, pb.popular, "{name} phase {}", pa.phase);
                assert_eq!(pa.ruling_set, pb.ruling_set, "{name}");
                assert_eq!(pa.superclustered, pb.superclustered, "{name}");
                assert_eq!(pa.settled_clusters, pb.settled_clusters, "{name}");
                assert_eq!(
                    pa.h_edges_cumulative, pb.h_edges_cumulative,
                    "{name}: H diverges at phase {}",
                    pa.phase
                );
            }
            // Round accounting within the schedule bound.
            assert!(b.stats.rounds > 0);
            assert!(
                b.stats.rounds <= b.schedule.total_round_bound(),
                "{name}: {} rounds exceed bound {}",
                b.stats.rounds,
                b.schedule.total_round_bound()
            );
        }
    }
}

#[test]
fn distributed_run_is_reproducible() {
    let g = generators::connected_gnp(30, 0.12, 9);
    let p = Params::practical(0.5, 4, 0.45);
    let a = build(&g, p, Backend::Congest);
    let b = build(&g, p, Backend::Congest);
    assert_eq!(a.stats, b.stats, "transcripts must be identical");
    assert_eq!(a.spanner, b.spanner);
}

#[test]
fn rounds_grow_sublinearly_in_n() {
    // The n^ρ shape at fixed parameters: quadrupling n must *not* quadruple
    // the rounds. Constant-degree random regular graphs keep the pipeline
    // shape stable across sizes (every phase stays populated), so the
    // comparison is apples to apples — unlike lattices, where the popularity
    // threshold deg_0 = n^{1/κ} crosses the lattice degree and phases
    // discontinuously empty out.
    let p = Params::practical(0.5, 4, 0.45);
    let g1 = generators::random_regular(64, 8, 1);
    let g2 = generators::random_regular(256, 8, 1);
    let r1 = build(&g1, p, Backend::Congest);
    let r2 = build(&g2, p, Backend::Congest);
    let ratio = r2.stats.rounds as f64 / r1.stats.rounds as f64;
    assert!(
        ratio < 4.0,
        "rounds grew superlinearly: {} -> {} (ratio {ratio})",
        r1.stats.rounds,
        r2.stats.rounds
    );
}
