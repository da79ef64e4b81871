//! The paper's figures, measured: superclustering (Figures 1–2), ruling-set
//! separation (Figure 3), the paths added to `H` (Figures 4–5) and the
//! stretch decomposition (Figures 6–8).

use crate::harness::{default_params, measure, run_baswana_sen};
use nas_bench::BenchCli;
use nas_core::algo1::algo1_centralized;
use nas_core::{Backend, Session};
use nas_graph::generators;
use nas_metrics::TableBuilder;
use nas_ruling::{ruling_set_centralized, verify_ruling_set, RulingParams};

/// **E-F1/F2 — Figures 1–2**: superclustering in action.
///
/// The paper's Figures 1–2 illustrate popular centers growing superclusters
/// and their BFS trees entering `H`. The measurable content: per phase, how
/// many centers are popular, how many ruling-set roots are chosen, how many
/// clusters merge, and how many forest-path edges enter the spanner —
/// together with the cluster-count decay of Lemmas 2.10/2.11
/// (`|P_{i+1}| ≤ |P_i| / deg_i`).
pub fn fig_supercluster(cli: &BenchCli) {
    let seed = cli.seed(3);
    let params = default_params();
    for (name, g) in [
        // Local structure keeps several phases populated: superclusters must
        // cascade instead of swallowing the graph in phase 0.
        (
            "random_geometric(600, r=0.06)",
            generators::connected_random_geometric(600, 0.06, seed),
        ),
        (
            "circulant(500; 1..5)",
            generators::circulant(500, &[1, 2, 3, 4, 5]),
        ),
        ("complete(256)", generators::complete(256)),
        (
            "pref_attach(400, 6)",
            generators::preferential_attachment(400, 6, seed),
        ),
    ] {
        let r = Session::on(&g).params(params).run().unwrap();
        println!(
            "== {} (n = {}, m = {}) ==\n",
            name,
            g.num_vertices(),
            g.num_edges()
        );
        let mut t = TableBuilder::new(vec![
            "phase",
            "|P_i|",
            "popular |W_i|",
            "|RS_i|",
            "superclustered",
            "settled |U_i|",
            "forest edges → H",
            "lemma bound |P_i|/deg_i",
        ]);
        for p in &r.phases {
            let bound = if p.phase < r.schedule.ell {
                format!("{:.1}", p.num_clusters as f64 / p.deg as f64)
            } else {
                "—".into()
            };
            t.row(vec![
                p.phase.to_string(),
                p.num_clusters.to_string(),
                p.popular.to_string(),
                p.ruling_set.to_string(),
                p.superclustered.to_string(),
                p.settled_clusters.to_string(),
                p.supercluster_path_edges.to_string(),
                bound,
            ]);
        }
        println!("{}", t.render());
        // Lemma 2.10/2.11 check: |P_{i+1}| = |RS_i| ≤ |P_i| / deg_i holds
        // because ruling-set members have disjoint δ_i-neighborhoods each
        // containing ≥ deg_i centers.
        for w in r.phases.windows(2) {
            let bound = w[0].num_clusters as f64 / w[0].deg as f64;
            assert!(
                (w[1].num_clusters as f64) <= bound.max(1.0) + 1e-9,
                "cluster-count decay violated: {} -> {} (bound {bound})",
                w[0].num_clusters,
                w[1].num_clusters
            );
        }
        println!("cluster-count decay |P_(i+1)| ≤ |P_i|/deg_i: holds ✓\n");
    }
}

/// **E-F3 — Figure 3**: disjointness of the δ-neighborhoods of ruling-set
/// members.
///
/// Figure 3 illustrates that `RS_i` members are `(2δ_i+1)`-separated, so
/// their `δ_i`-balls are pairwise disjoint — the fact the size analysis
/// (Lemmas 2.10/2.11) rests on. We measure it: minimum pairwise distance of
/// the ruling set vs. the guarantee, ball disjointness, and domination
/// radius vs. the `(2/ρ)δ_i` bound.
pub fn fig_rulingset(cli: &BenchCli) {
    // Geometric graph: local edges, diameter ~20 — δ-balls are genuinely
    // local, so ruling sets have interesting sizes.
    let g = generators::connected_random_geometric(500, 0.07, cli.seed(9));
    println!(
        "workload: random_geometric(500, r=0.07), n = {}, m = {}\n",
        g.num_vertices(),
        g.num_edges()
    );
    let mut t = TableBuilder::new(vec![
        "δ",
        "deg",
        "|W|",
        "|RS|",
        "min pairwise dist",
        "guarantee 2δ+1",
        "balls disjoint?",
        "max domination dist",
        "bound 2cδ",
    ]);
    for (delta, deg) in [(1u64, 8usize), (2, 12), (3, 16), (4, 16)] {
        let is_center = vec![true; g.num_vertices()];
        let info = algo1_centralized(&g, &is_center, deg, delta);
        let w = info.popular.clone();
        let c = 3; // ⌈1/ρ⌉ at ρ = 0.45
        let q = u32::try_from(2 * delta).unwrap();
        let params = RulingParams::new(q, c);
        let rs = ruling_set_centralized(&g, &w, params);
        // Separation ≥ 2δ+1 (so the δ-balls are disjoint) and domination
        // ≤ 2cδ, or a named violation.
        let cert = verify_ruling_set(&g, &w, params, &rs)
            .unwrap_or_else(|v| panic!("Theorem 2.2 violated at δ = {delta}: {v:?}"));
        // Two δ-balls are disjoint iff their centers are more than 2δ apart.
        let disjoint = cert.min_separation.is_none_or(|d| d as u64 > 2 * delta);

        t.row(vec![
            delta.to_string(),
            deg.to_string(),
            w.len().to_string(),
            rs.members.len().to_string(),
            cert.min_separation.map_or("—".into(), |d| d.to_string()),
            (2 * delta + 1).to_string(),
            disjoint.to_string(),
            cert.max_domination.to_string(),
            (2 * c as u64 * delta).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Figure 3's disjointness: holds at every sweep point ✓");
}

/// **E-F4/F5 — Figures 4–5**: paths added to the spanner.
///
/// Figure 4 shows root→center forest paths entering `H` (superclustering);
/// Figure 5 shows settled clusters connecting to all near clusters
/// (interconnection). The measurable content is Lemma 2.12's per-phase edge
/// budget: the interconnection adds at most `|U_i| · deg_i` paths of length
/// `≤ δ_i` each, i.e. `O(n^{1+1/κ} · δ_i)` edges per phase.
pub fn fig_paths(cli: &BenchCli) {
    let params = default_params();
    let g = generators::connected_gnp(600, 0.03, cli.seed(21));
    let r = Session::on(&g).params(params).run().unwrap();
    println!(
        "workload: gnp(600), n = {}, m = {}; κ = {}, n^(1+1/κ) = {:.0}\n",
        g.num_vertices(),
        g.num_edges(),
        params.kappa,
        (g.num_vertices() as f64).powf(1.0 + 1.0 / params.kappa as f64)
    );
    let mut t = TableBuilder::new(vec![
        "phase",
        "δ_i",
        "deg_i",
        "|U_i|",
        "paths added (F5)",
        "paths bound |U_i|·deg_i",
        "interconnect edges",
        "edge budget |U_i|·deg_i·δ_i",
        "forest edges (F4)",
    ]);
    for p in &r.phases {
        let path_bound = p.settled_clusters as u64 * p.deg;
        let edge_budget = path_bound * p.delta;
        t.row(vec![
            p.phase.to_string(),
            p.delta.to_string(),
            p.deg.to_string(),
            p.settled_clusters.to_string(),
            p.interconnect_paths.to_string(),
            path_bound.to_string(),
            p.interconnect_edges.to_string(),
            edge_budget.to_string(),
            p.supercluster_path_edges.to_string(),
        ]);
    }
    println!("{}", t.render());
    nas_core::cluster::verify_phase_sizes(g.num_vertices(), &r.phases)
        .unwrap_or_else(|e| panic!("Lemma 2.12's accounting broken: {e}"));
    println!(
        "total |H| = {} ≤ Σ budgets; Lemma 2.12's per-phase accounting holds ✓",
        r.num_edges()
    );
}

/// **E-F6/F7/F8 — Figures 6–8**: the stretch decomposition, measured.
///
/// Figures 6–8 illustrate the stretch analysis: neighboring clusters reach
/// each other through their centers (Lemma 2.15's `3R_j + 1 + R_i ≤ 2R_i+1`
/// detour), and long paths are cut into `ε⁻ⁱ` segments, each paying a
/// bounded detour (Lemma 2.16). Measured analogue: the per-distance worst
/// and mean spanner distance — the additive error must *not* grow with
/// distance (that is what "near-additive" means), while a multiplicative
/// baseline's error grows linearly.
pub fn fig_stretch(cli: &BenchCli) {
    let params = default_params();
    // Circulant: degree 10 (dense enough that superclustering fires and the
    // spanner actually drops edges), diameter ~26 (long distances exist).
    let g = generators::circulant(360, &[1, 2, 3, 4, 7]);
    let (r, ours) = measure(&g, params, Backend::Centralized);
    let (_, bs) = run_baswana_sen(&g, params.kappa, cli.seed(3));

    println!(
        "workload: circulant(360; 1,2,3,4,7); ours: {} edges of {}, Baswana-Sen: see table\n",
        r.num_edges(),
        g.num_edges()
    );

    let mut t = TableBuilder::new(vec![
        "d_G",
        "pairs",
        "ours worst d_H",
        "ours additive err",
        "ours stretch",
        "BS worst d_H",
        "BS additive err",
        "BS stretch",
    ]);
    for d in 1..ours.buckets.len() {
        let a = &ours.buckets[d];
        if a.pairs == 0 || (d > 6 && d % 2 == 1) {
            continue;
        }
        let b = bs.buckets.get(d);
        let (bw, berr, bstr) = match b {
            Some(b) if b.pairs > 0 => (
                b.max_spanner_dist.to_string(),
                (b.max_spanner_dist as i64 - d as i64).to_string(),
                format!("{:.2}", b.max_stretch()),
            ),
            _ => ("—".into(), "—".into(), "—".into()),
        };
        t.row(vec![
            d.to_string(),
            a.pairs.to_string(),
            a.max_spanner_dist.to_string(),
            (a.max_spanner_dist as i64 - d as i64).to_string(),
            format!("{:.2}", a.max_stretch()),
            bw,
            berr,
            bstr,
        ]);
    }
    println!("{}", t.render());

    // The near-additive signature: the additive error of the last buckets is
    // not larger than a constant envelope, while stretch → 1.
    let far: Vec<_> = ours
        .buckets
        .iter()
        .filter(|b| b.pairs > 0 && b.dist >= 10)
        .collect();
    let worst_far_err = far
        .iter()
        .map(|b| b.max_spanner_dist as i64 - b.dist as i64)
        .max()
        .unwrap_or(0);
    let worst_far_stretch = far.iter().map(|b| b.max_stretch()).fold(1.0f64, f64::max);
    println!(
        "\nlong-distance behaviour (d ≥ 10): worst additive error {worst_far_err}, \
         worst stretch {worst_far_stretch:.3} — near-additive, as Figures 6–8 promise."
    );
    println!(
        "effective β (ε = {}) = {:.1}; paper's worst-case envelope: {:.1}",
        params.eps,
        ours.effective_beta,
        r.schedule.stretch_envelope().1
    );
}
