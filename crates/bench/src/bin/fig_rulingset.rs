//! **E-F3 — Figure 3**: disjointness of the δ-neighborhoods of ruling-set
//! members.
//!
//! Figure 3 illustrates that `RS_i` members are `(2δ_i+1)`-separated, so
//! their `δ_i`-balls are pairwise disjoint — the fact the size analysis
//! (Lemmas 2.10/2.11) rests on. We measure it: minimum pairwise distance of
//! the ruling set vs. the guarantee, ball disjointness, and domination
//! radius vs. the `(2/ρ)δ_i` bound.
//!
//! Usage: `fig_rulingset [--seed S] [--threads T]`

use nas_bench::BenchCli;
use nas_core::algo1::algo1_centralized;
use nas_graph::generators;
use nas_metrics::TableBuilder;
use nas_ruling::{ruling_set_centralized, verify_ruling_set, RulingParams};

fn main() {
    let cli = BenchCli::parse();
    cli.init_pool();
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
