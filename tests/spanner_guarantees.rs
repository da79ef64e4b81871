//! Cross-crate integration tests: the paper's end-to-end guarantees
//! (Corollary 2.18 and the lemmas behind it) hold on a corpus of graphs.

use nas_core::cluster::{verify_phase_sizes, verify_settled_partition};
use nas_core::{Backend, Params, Report, Session};
use nas_graph::{connectivity, generators, Graph};
use nas_metrics::stretch_audit;

fn build(g: &Graph, p: Params, b: Backend) -> Report {
    Session::on(g).params(p).backend(b).run().unwrap()
}

fn corpus() -> Vec<(&'static str, Graph)> {
    vec![
        ("path(120)", generators::path(120)),
        ("cycle(101)", generators::cycle(101)),
        ("grid2d(10,12)", generators::grid2d(10, 12)),
        ("torus2d(8,8)", generators::torus2d(8, 8)),
        ("hypercube(7)", generators::hypercube(7)),
        ("complete(60)", generators::complete(60)),
        ("binary_tree(127)", generators::binary_tree(127)),
        ("gnp(150,0.04)", generators::connected_gnp(150, 0.04, 7)),
        ("gnp(100,0.15)", generators::connected_gnp(100, 0.15, 8)),
        (
            "pref_attach(120,3)",
            generators::preferential_attachment(120, 3, 9),
        ),
        ("barbell(20,5)", generators::barbell(20, 5)),
        ("caterpillar(30,3)", generators::caterpillar(30, 3)),
        (
            "random_regular(90,4)",
            generators::random_regular(90, 4, 10),
        ),
        ("circulant(80)", generators::circulant(80, &[1, 9, 23])),
    ]
}

fn params_grid() -> Vec<Params> {
    vec![
        Params::practical(0.5, 4, 0.45),
        Params::practical(1.0, 4, 0.45),
        Params::practical(0.5, 8, 0.45),
        Params::practical(0.25, 4, 0.49),
    ]
}

#[test]
fn spanner_is_valid_and_stretch_bounded_across_corpus() {
    for (name, g) in corpus() {
        for params in params_grid() {
            let r = build(&g, params, Backend::Centralized);
            // Subgraph property.
            assert!(
                r.spanner.verify_subgraph_of(&g).is_ok(),
                "{name}: spanner is not a subgraph"
            );
            // Connectivity is preserved (the graph corpus is connected).
            let h = r.to_graph();
            assert!(
                connectivity::is_connected(&h),
                "{name}: spanner disconnected"
            );
            // Stretch against the *provable* Lemma 2.15/2.16 envelope for
            // this exact schedule (no constant-regime assumptions).
            let audit = stretch_audit(&g, &h, params.eps);
            let (alpha_env, beta_env) = r.schedule.stretch_envelope();
            assert!(
                audit.satisfies(alpha_env - 1.0, beta_env),
                "{name} {params:?}: provable stretch envelope violated \
                 (max stretch {}, effective beta {})",
                audit.max_stretch,
                audit.effective_beta
            );
            assert_eq!(audit.disconnected_pairs, 0, "{name}: lost pairs");
            // Empirically the construction is far better than the envelope:
            // the additive error at ε_user already stays below β_env, with
            // no multiplicative slack at all. Keep this loud as a regression
            // tripwire.
            assert!(
                audit.effective_beta <= beta_env,
                "{name}: effective beta {} exceeds envelope {beta_env}",
                audit.effective_beta
            );
        }
    }
}

#[test]
fn settled_sets_partition_v() {
    // Corollary 2.5 on the corpus.
    for (name, g) in corpus() {
        let r = build(&g, Params::practical(0.5, 4, 0.45), Backend::Centralized);
        verify_settled_partition(g.num_vertices(), &r.settled)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // Settled phases are within [0, ℓ].
        for v in 0..g.num_vertices() {
            assert!(r.settled_phase(v) <= r.schedule.ell);
        }
    }
}

#[test]
fn size_bound_holds_with_margin() {
    // Lemma 2.12: the per-phase size accounting (forest edges < n; at most
    // |U_i|·deg_i interconnect paths, each of length ≤ δ_i) holds on every
    // phase of every corpus run.
    for (name, g) in corpus() {
        let r = build(&g, Params::practical(0.5, 4, 0.45), Backend::Centralized);
        verify_phase_sizes(g.num_vertices(), &r.phases).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    // And the check bites: each counter past its largest bound fails it.
    let g = generators::complete(60);
    let n = g.num_vertices();
    let p = build(&g, Params::practical(0.5, 4, 0.45), Backend::Centralized).phases[0];
    let mut bad = [p; 3];
    bad[0].supercluster_path_edges = n;
    bad[1].interconnect_paths = p.settled_clusters * (n + 1) + 1;
    bad[2].interconnect_edges = (p.settled_clusters * n * p.delta as usize).max(1) + 1;
    for b in bad {
        assert!(verify_phase_sizes(n, &[b]).is_err(), "{b:?}");
    }
}

#[test]
fn radius_invariant_holds_on_corpus() {
    // Lemma 2.3 (via settled clusters): every vertex reaches its settled
    // center within R_i in the final spanner.
    for (name, g) in corpus().into_iter().take(6) {
        let r = build(&g, Params::practical(0.5, 4, 0.45), Backend::Centralized);
        let h = r.to_graph();
        for v in 0..g.num_vertices() {
            let (phase, center) = r.settled[v].unwrap();
            let d = nas_graph::DistanceMap::from_source(&h, v)
                .get(center as usize)
                .unwrap_or_else(|| panic!("{name}: {v} cut off from its center"));
            assert!(
                d as u64 <= r.schedule.r_bound[phase],
                "{name}: vertex {v} radius {d} > R_{phase} = {}",
                r.schedule.r_bound[phase]
            );
        }
    }
}

#[test]
fn deterministic_across_runs() {
    let g = generators::connected_gnp(100, 0.08, 42);
    let p = Params::practical(0.5, 4, 0.45);
    let a = build(&g, p, Backend::Centralized);
    let b = build(&g, p, Backend::Centralized);
    assert_eq!(a.spanner, b.spanner);
    assert_eq!(a.settled, b.settled);
    assert_eq!(a.phases, b.phases);
}

#[test]
fn disconnected_graphs_are_handled() {
    // Two components: the spanner must preserve intra-component distances
    // and produce no cross edges (there are none to add).
    let mut b = nas_graph::GraphBuilder::new(60);
    for v in 1..30 {
        b.add_edge(v - 1, v);
    }
    for v in 31..60 {
        b.add_edge(v - 1, v);
    }
    let g = b.build();
    let r = build(&g, Params::practical(0.5, 4, 0.45), Backend::Centralized);
    let audit = stretch_audit(&g, &r.to_graph(), 0.5);
    assert_eq!(audit.disconnected_pairs, 0);
    assert_eq!(r.num_edges(), 58); // both paths kept whole
}
