//! Lemma-level invariants of the stretch analysis, checked directly
//! (not just through the end-to-end stretch bound):
//!
//! * **Lemma 2.14** — settled clusters are connected to *every* close
//!   cluster by a shortest center-to-center path in `H`.
//! * **Lemma 2.15 / eq. (12)** — for a `G`-edge between a `U_j`-cluster and a
//!   `U_i`-cluster (`j ≤ i`), each endpoint reaches the other's center in
//!   `H` within `2·R_max + 1`.
//! * **Corollary 2.5** — `U^{(ℓ)}` partitions `V` (every vertex settles
//!   exactly once).

use nas_core::{Backend, Params, Report, Session};
use nas_graph::{generators, DistanceMap, Graph};

fn build(g: &Graph) -> Report {
    let (p, b) = (Params::practical(0.5, 4, 0.45), Backend::Centralized);
    Session::on(g).params(p).backend(b).run().unwrap()
}

#[test]
fn lemma_2_15_neighboring_cluster_detour() {
    for (name, g) in [
        ("gnp(120, 0.06)", generators::connected_gnp(120, 0.06, 3)),
        ("torus(10,10)", generators::torus2d(10, 10)),
        (
            "pref(100,3)",
            generators::preferential_attachment(100, 3, 5),
        ),
    ] {
        let r = build(&g);
        let h = r.to_graph();
        let rmax = r.schedule.r_bound[r.schedule.ell];
        // Distances in H from every settled center, computed lazily.
        let mut dist_cache: std::collections::HashMap<u32, DistanceMap> =
            std::collections::HashMap::new();
        for (z, zp) in g.edges() {
            let (pj, cj) = r.settled[z].unwrap();
            let (pi, ci) = r.settled[zp].unwrap();
            if cj == ci {
                continue; // same settled cluster
            }
            // Each endpoint must reach the *other* endpoint's center within
            // 2·R_max + 1 in H (eq. (12), with R_max = R_ℓ ≥ R_i, R_j).
            for (w, rc) in [(z, ci), (zp, cj)] {
                let d = dist_cache
                    .entry(rc)
                    .or_insert_with(|| DistanceMap::from_source(&h, rc as usize));
                let dw = d
                    .get(w)
                    .unwrap_or_else(|| panic!("{name}: vertex {w} cannot reach center {rc} in H"));
                assert!(
                    dw as u64 <= 2 * rmax + 1,
                    "{name}: edge ({z},{zp}), settled phases ({pj},{pi}): \
                     d_H({w}, {rc}) = {dw} > 2·{rmax}+1"
                );
            }
        }
    }
}

#[test]
fn lemma_2_14_close_settled_clusters_have_exact_center_paths() {
    let g = generators::connected_gnp(90, 0.08, 11);
    let r = build(&g);
    let h = r.to_graph();
    // Group settled clusters by phase.
    let mut by_phase: std::collections::BTreeMap<usize, Vec<u32>> = Default::default();
    for v in 0..g.num_vertices() {
        let (p, c) = r.settled[v].unwrap();
        if c as usize == v {
            by_phase.entry(p).or_default().push(c);
        }
    }
    for (&phase, centers) in &by_phase {
        let delta = r.schedule.delta[phase];
        for &rc in centers {
            let dg = DistanceMap::from_source(&g, rc as usize);
            let dh = DistanceMap::from_source(&h, rc as usize);
            // Every *center of the same phase's P_i* within δ_i must be
            // reachable in H at the exact graph distance. Settled centers of
            // the same phase are in P_i and close ⟹ covered by Lemma 2.14.
            for &other in centers {
                if other == rc {
                    continue;
                }
                if let Some(d) = dg.get(other as usize) {
                    if (d as u64) <= delta {
                        assert_eq!(
                            dh.get(other as usize),
                            Some(d),
                            "phase {phase}: centers {rc},{other} at graph distance {d} \
                             lack a shortest path in H"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn corollary_2_5_every_vertex_settles_once() {
    for n in [17usize, 40, 83] {
        let g = generators::connected_gnp(n, 0.15, n as u64);
        let r = build(&g);
        // settled[v] is Some for all v, and the settled center is a vertex of
        // the same component.
        let comps = nas_graph::connectivity::components(&g);
        for v in 0..n {
            let (_, c) = r.settled[v].expect("vertex must settle");
            assert!(
                comps.same(v, c as usize),
                "settled center in another component"
            );
        }
    }
}

#[test]
fn popular_centers_always_superclustered_lemma_2_4() {
    // Directly via phase stats: settled + superclustered = total, and the
    // driver asserts popular ⊆ superclustered internally; here we check the
    // numbers are consistent phase over phase.
    let g = generators::complete(80);
    let r = build(&g);
    for p in &r.phases {
        assert_eq!(
            p.superclustered + p.settled_clusters,
            p.num_clusters,
            "phase {} leaks clusters",
            p.phase
        );
        assert!(
            p.popular <= p.superclustered.max(p.popular),
            "popular centers must be superclustered"
        );
        if p.phase < r.schedule.ell {
            assert!(p.ruling_set <= p.popular, "RS_i ⊆ W_i");
        }
    }
}
