//! **E-F4/F5 — Figures 4–5**: paths added to the spanner.
//!
//! Figure 4 shows root→center forest paths entering `H` (superclustering);
//! Figure 5 shows settled clusters connecting to all near clusters
//! (interconnection). The measurable content is Lemma 2.12's per-phase edge
//! budget: the interconnection adds at most `|U_i| · deg_i` paths of length
//! `≤ δ_i` each, i.e. `O(n^{1+1/κ} · δ_i)` edges per phase.
//!
//! Usage: `fig_paths [--seed S] [--threads T]`

use nas_bench::{default_params, BenchCli};
use nas_core::Session;
use nas_graph::generators;
use nas_metrics::TableBuilder;

fn main() {
    let cli = BenchCli::parse();
    cli.init_pool();
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
