//! Property-based tests: the ruling-set guarantees of Theorem 2.2 hold on
//! random graphs with random parameters, and the distributed protocol agrees
//! with the centralized reference.

use nas_congest::{RunHooks, SimArena};
use nas_graph::generators;
use nas_ruling::{ruling_set_centralized, ruling_set_distributed, verify_ruling_set, RulingParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn guarantees_on_random_graphs(
        n in 2usize..400,
        p in 0.02f64..0.3,
        seed in 0u64..1000,
        q in 1u32..5,
        c in 1u32..4,
        w_mod in 1usize..4,
    ) {
        let g = generators::gnp(n, p, seed);
        let w: Vec<usize> = (0..n).filter(|v| v % w_mod == 0).collect();
        let params = RulingParams::new(q, c);
        let rs = ruling_set_centralized(&g, &w, params);
        prop_assert_eq!(verify_ruling_set(&g, &w, params, &rs).err(), None);
    }

    #[test]
    fn distributed_matches_centralized(
        n in 2usize..40,
        p in 0.05f64..0.3,
        seed in 0u64..500,
        q in 1u32..4,
        c in 1u32..4,
    ) {
        let g = generators::gnp(n, p, seed);
        let w: Vec<usize> = (0..n).filter(|v| v % 2 == 0).collect();
        let params = RulingParams::new(q, c);
        let a = ruling_set_centralized(&g, &w, params);
        let (b, _) = ruling_set_distributed(
            &g,
            &w,
            params,
            &mut SimArena::new(),
            &mut RunHooks::none(),
        );
        prop_assert_eq!(verify_ruling_set(&g, &w, params, &b).err(), None);
        prop_assert_eq!(a.members, b.members);
    }

    #[test]
    fn structured_graphs(
        rows in 2usize..7,
        cols in 2usize..7,
        q in 1u32..4,
        c in 1u32..4,
    ) {
        let g = generators::grid2d(rows, cols);
        let n = g.num_vertices();
        let w: Vec<usize> = (0..n).collect();
        let params = RulingParams::new(q, c);
        let rs = ruling_set_centralized(&g, &w, params);
        prop_assert_eq!(verify_ruling_set(&g, &w, params, &rs).err(), None);
    }

    #[test]
    fn determinism(
        n in 2usize..30,
        seed in 0u64..100,
    ) {
        let g = generators::gnp(n, 0.15, seed);
        let w: Vec<usize> = (0..n).collect();
        let params = RulingParams::new(2, 2);
        // The second run reuses the first one's arena.
        let mut arena = SimArena::new();
        let mut run = || ruling_set_distributed(&g, &w, params, &mut arena, &mut RunHooks::none());
        let (a, sa) = run();
        let (b, sb) = run();
        prop_assert_eq!(a, b);
        prop_assert_eq!(sa, sb);
    }
}
