//! Property-based tests for Algorithm 1 (Appendix A): Lemma A.1 and
//! Theorem 2.1 on random graphs, center sets and thresholds.

use nas_congest::{RunHooks, SimArena};
use nas_core::algo1::{algo1_centralized, algo1_distributed};
use nas_graph::{generators, DistanceMap};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lemma A.1 (self-inclusive capacity form; see algo1 module docs):
    /// every vertex knows at least `min(deg, |Γ^δ(u) ∩ S \ {u}|)` *other*
    /// centers, each within δ, each at a recorded distance that is an upper
    /// bound on (and at least) the true distance.
    #[test]
    fn lemma_a1_knowledge_lower_bound(
        n in 5usize..60,
        p in 0.05f64..0.3,
        seed in 0u64..5000,
        deg in 1usize..8,
        delta in 1u64..5,
        center_mod in 1usize..4,
    ) {
        let g = generators::gnp(n, p, seed);
        let is_center: Vec<bool> = (0..n).map(|v| v % center_mod == 0).collect();
        let info = algo1_centralized(&g, &is_center, deg, delta);
        for u in 0..n {
            let d = DistanceMap::from_source(&g, u);
            let within = (0..n)
                .filter(|&c| c != u && is_center[c])
                .filter(|&c| d.get(c).is_some_and(|x| x as u64 <= delta))
                .count();
            prop_assert!(
                info.knowledge[u].len() >= within.min(deg),
                "vertex {u} knows {} < min(deg {deg}, |Γ^δ ∩ S \\ u| {within})",
                info.knowledge[u].len()
            );
            for &(c, e) in info.knowledge[u].iter() {
                let true_d = d.get(c as usize).expect("known center must be reachable");
                prop_assert!(e.dist >= true_d, "recorded below true distance");
                prop_assert!(e.dist as u64 <= delta, "knowledge beyond δ");
                prop_assert!(is_center[c as usize]);
            }
        }
    }

    /// Theorem 2.1(2): unpopular centers know *all* centers within δ at
    /// *exact* distances, and the parent chains walk shortest paths.
    #[test]
    fn theorem_2_1_unpopular_exactness(
        n in 5usize..50,
        p in 0.05f64..0.3,
        seed in 0u64..5000,
        deg in 2usize..6,
        delta in 1u64..4,
    ) {
        let g = generators::gnp(n, p, seed);
        let is_center = vec![true; n];
        let info = algo1_centralized(&g, &is_center, deg, delta);
        for u in 0..n {
            if info.is_popular(u) {
                continue;
            }
            let d = DistanceMap::from_source(&g, u);
            for c in 0..n {
                if c == u { continue; }
                if let Some(dc) = d.get(c) {
                    if dc as u64 <= delta {
                        let e = info.knowledge[u].get(c as u32);
                        prop_assert!(e.is_some(), "unpopular {u} misses center {c}");
                        prop_assert_eq!(e.unwrap().dist, dc, "inexact at unpopular center");
                    }
                }
            }
            // Parent chains trace shortest paths.
            for &(c, e) in info.knowledge[u].iter() {
                let path = info.trace_path(u, c as usize);
                prop_assert_eq!(path.len() as u32 - 1, e.dist);
                for w in path.windows(2) {
                    prop_assert!(g.has_edge(w[0], w[1]));
                }
            }
        }
    }

    /// The distributed protocol computes identical knowledge.
    #[test]
    fn distributed_equivalence(
        n in 4usize..36,
        p in 0.08f64..0.35,
        seed in 0u64..5000,
        deg in 1usize..6,
        delta in 1u64..4,
    ) {
        let g = generators::gnp(n, p, seed);
        let is_center: Vec<bool> = (0..n).map(|v| v % 2 == 0).collect();
        let a = algo1_centralized(&g, &is_center, deg, delta);
        let (b, _) = algo1_distributed(
            &g,
            &is_center,
            deg,
            delta,
            &mut SimArena::new(),
            &mut RunHooks::none(),
        );
        prop_assert_eq!(a, b);
    }

    /// Popularity is exactly the `|Γ^δ(r_C) ∩ S| ≥ deg` predicate — capped
    /// exploration does not distort it.
    #[test]
    fn popularity_predicate_is_exact(
        n in 5usize..50,
        p in 0.05f64..0.3,
        seed in 0u64..5000,
        deg in 1usize..7,
        delta in 1u64..4,
    ) {
        let g = generators::gnp(n, p, seed);
        let is_center = vec![true; n];
        let info = algo1_centralized(&g, &is_center, deg, delta);
        for u in 0..n {
            let d = DistanceMap::from_source(&g, u);
            let within = (0..n)
                .filter(|&c| c != u && d.get(c).is_some_and(|x| x as u64 <= delta))
                .count();
            prop_assert_eq!(
                info.is_popular(u),
                within >= deg,
                "vertex {} popularity mismatch (|ball| = {}, deg = {})", u, within, deg
            );
        }
    }
}
