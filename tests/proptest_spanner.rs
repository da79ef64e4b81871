//! Property-based end-to-end tests on random graphs and parameters.

use nas_core::{Backend, Params, Report, Session};
use nas_graph::{generators, Graph};
use nas_metrics::stretch_audit;
use proptest::prelude::*;

fn build(g: &Graph, p: Params, b: Backend) -> Report {
    Session::on(g).params(p).backend(b).run().unwrap()
}

fn arb_params() -> impl Strategy<Value = Params> {
    (
        prop_oneof![Just(0.25f64), Just(0.5), Just(1.0)],
        prop_oneof![Just(4u32), Just(6), Just(8)],
        prop_oneof![Just(0.4f64), Just(0.45), Just(0.49)],
    )
        .prop_map(|(eps, kappa, rho)| Params::practical(eps, kappa, rho))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spanner_guarantees_on_random_graphs(
        n in 4usize..70,
        p in 0.05f64..0.3,
        seed in 0u64..10_000,
        params in arb_params(),
    ) {
        let g = generators::gnp(n, p, seed);
        let r = build(&g, params, Backend::Centralized);
        prop_assert!(r.spanner.verify_subgraph_of(&g).is_ok());
        // Same-component pairs stay connected and inside the envelope.
        let audit = stretch_audit(&g, &r.to_graph(), params.eps);
        prop_assert_eq!(audit.disconnected_pairs, 0);
        let (alpha_env, beta_env) = r.schedule.stretch_envelope();
        prop_assert!(audit.satisfies(alpha_env - 1.0, beta_env),
            "max stretch {} effective beta {}", audit.max_stretch, audit.effective_beta);
        // Corollary 2.5.
        nas_core::cluster::verify_settled_partition(n, &r.settled).unwrap();
    }

    #[test]
    fn distributed_equivalence_random(
        n in 4usize..32,
        p in 0.08f64..0.3,
        seed in 0u64..5_000,
    ) {
        let g = generators::gnp(n, p, seed);
        let params = Params::practical(0.5, 4, 0.45);
        let a = build(&g, params, Backend::Centralized);
        let b = build(&g, params, Backend::Congest);
        prop_assert_eq!(a.spanner, b.spanner);
        prop_assert_eq!(a.settled, b.settled);
    }

    #[test]
    fn baselines_remain_valid_spanners(
        n in 10usize..60,
        p in 0.08f64..0.25,
        seed in 0u64..5_000,
        kappa in 2u32..5,
    ) {
        let g = generators::gnp(n, p, seed);
        let bs = nas_baselines::baswana_sen(&g, kappa, seed ^ 0xABCD);
        prop_assert!(bs.verify_subgraph_of(&g).is_ok());
        let audit = stretch_audit(&g, &bs.to_graph(), 0.0);
        prop_assert_eq!(audit.disconnected_pairs, 0);
        prop_assert!(audit.max_stretch <= (2 * kappa - 1) as f64);

        let gr = nas_baselines::greedy_spanner(&g, kappa);
        let audit = stretch_audit(&g, &gr.to_graph(), 0.0);
        prop_assert_eq!(audit.disconnected_pairs, 0);
        prop_assert!(audit.max_stretch <= (2 * kappa - 1) as f64);
    }

    #[test]
    fn en17_preserves_connectivity_random(
        n in 10usize..50,
        p in 0.08f64..0.25,
        seed in 0u64..5_000,
    ) {
        let g = generators::gnp(n, p, seed);
        let r = nas_baselines::build_en17_centralized(
            &g,
            nas_baselines::En17Params { eps: 0.5, kappa: 4, rho: 0.45, seed },
        );
        prop_assert!(r.spanner.verify_subgraph_of(&g).is_ok());
        let audit = stretch_audit(&g, &r.to_graph(), 0.5);
        prop_assert_eq!(audit.disconnected_pairs, 0);
    }
}
