//! Shared experiment harness for the table/figure regeneration binaries.
//!
//! Every table and figure of the paper maps to one binary in `src/bin/`,
//! whose module docs open with its experiment id (`E-T1` for Table 1,
//! `E-F3` for Figure 3, …); the workloads, parameter points and runners
//! they share live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nas_baselines::{baswana_sen, build_en17_centralized, build_en17_distributed, En17Params};
use nas_core::{Backend, Params, Report, Session};
use nas_graph::{generators, Graph};
use nas_metrics::{stretch_audit, StretchAudit};

pub mod cli;
pub use cli::BenchCli;

/// The default parameter point used across experiments (practical mode).
pub fn default_params() -> Params {
    Params::practical(0.5, 4, 0.45)
}

/// The standard workload suite: name → graph, at a size scale `n`.
pub fn workloads(n: usize, seed: u64) -> Vec<(String, Graph)> {
    let side = (n as f64).sqrt().round() as usize;
    vec![
        (
            format!("gnp(n={n}, deg≈12)"),
            generators::connected_gnp(n, 12.0 / n as f64, seed),
        ),
        (
            format!("torus({side}x{side})"),
            generators::torus2d(side.max(3), side.max(3)),
        ),
        (
            format!("pref_attach(n={n}, 4)"),
            generators::preferential_attachment(n, 4, seed),
        ),
        (
            format!("random_regular(n={n}, 8)"),
            generators::random_regular(n + (n % 2), 8, seed),
        ),
    ]
}

/// The large-scale workload suite for the `sim_scaling` bench: the four
/// graph families the message-plane scaling story is told on, at `n`
/// vertices each. Structured families exercise long-round/narrow-frontier
/// behavior (path: `n` rounds with an O(1) active set; grid: `O(√n)` rounds
/// with an `O(√n)` frontier); random families exercise few-round/massive-
/// frontier behavior (G(n,p) and preferential attachment flood the whole
/// graph in `O(log n)` rounds).
///
/// `avg_deg` controls the random families' density (the structured families
/// have constant degree by construction).
pub fn large_scale(n: usize, avg_deg: usize, seed: u64) -> Vec<(String, Graph)> {
    let side = (n as f64).sqrt().round() as usize;
    let attach = (avg_deg / 2).max(1);
    vec![
        (format!("path(n={n})"), generators::path(n)),
        (
            format!("grid({side}x{side})"),
            generators::grid2d(side, side),
        ),
        (
            format!("gnp(n={n}, deg≈{avg_deg})"),
            generators::gnp(n, avg_deg as f64 / n as f64, seed),
        ),
        (
            format!("pref_attach(n={n}, {attach})"),
            generators::preferential_attachment(n, attach, seed),
        ),
    ]
}

/// One measured row of our algorithm on a workload.
#[derive(Debug, Clone)]
pub struct MeasuredRun {
    /// Workload name.
    pub workload: String,
    /// Vertices.
    pub n: usize,
    /// Graph edges.
    pub m: usize,
    /// Spanner edges.
    pub spanner_edges: usize,
    /// Measured CONGEST rounds (0 for centralized runs).
    pub rounds: u64,
    /// The stretch audit (exact).
    pub audit: StretchAudit,
    /// The unified construction report.
    pub result: Report,
}

/// Runs a configured [`Session`] on a backend and audits the spanner
/// exactly — the one measurement path every experiment shares.
pub fn run_session(name: &str, g: &Graph, params: Params, backend: Backend) -> MeasuredRun {
    run_session_stored(name, g, params, backend, nas_core::Store::Flat)
}

/// [`run_session`] with an explicit adjacency [`Store`](nas_core::Store) —
/// the compact delta/varint plane produces bit-identical reports on the
/// simulating backends, so audits and tables carry over verbatim.
pub fn run_session_stored(
    name: &str,
    g: &Graph,
    params: Params,
    backend: Backend,
    store: nas_core::Store,
) -> MeasuredRun {
    let result = Session::on(g)
        .params(params)
        .backend(backend)
        .store(store)
        .run()
        .expect("valid parameters");
    let audit = stretch_audit(g, &result.to_graph(), params.eps);
    MeasuredRun {
        workload: name.to_string(),
        n: g.num_vertices(),
        m: g.num_edges(),
        spanner_edges: result.num_edges(),
        rounds: result.rounds(),
        audit,
        result,
    }
}

/// Runs our deterministic algorithm (centralized) and audits it exactly.
pub fn run_ours(name: &str, g: &Graph, params: Params) -> MeasuredRun {
    run_session(name, g, params, Backend::Centralized)
}

/// Runs our deterministic algorithm distributed (measured rounds) and audits
/// it exactly.
pub fn run_ours_distributed(name: &str, g: &Graph, params: Params) -> MeasuredRun {
    run_session(name, g, params, Backend::Congest)
}

/// Measured EN17 row (centralized): `(edges, audit)`.
pub fn run_en17(g: &Graph, params: Params, seed: u64) -> (usize, StretchAudit) {
    let r = build_en17_centralized(
        g,
        En17Params {
            eps: params.eps,
            kappa: params.kappa,
            rho: params.rho,
            seed,
        },
    );
    let audit = stretch_audit(g, &r.to_graph(), params.eps);
    (r.num_edges(), audit)
}

/// Measured EN17 row (distributed): `(edges, rounds)`.
pub fn run_en17_distributed(g: &Graph, params: Params, seed: u64) -> (usize, u64) {
    let r = build_en17_distributed(
        g,
        En17Params {
            eps: params.eps,
            kappa: params.kappa,
            rho: params.rho,
            seed,
        },
    );
    (r.num_edges(), r.stats.rounds)
}

/// Measured Baswana–Sen row: `(edges, audit)`.
pub fn run_baswana_sen(g: &Graph, kappa: u32, seed: u64) -> (usize, StretchAudit) {
    let h = baswana_sen(g, kappa, seed);
    (h.len(), stretch_audit(g, &h.to_graph(), 0.0))
}

/// Fits `y ≈ C·n^e` on two points and returns the exponent `e` — the
/// "shape" check used by the scaling experiments.
pub fn fitted_exponent(n1: usize, y1: f64, n2: usize, y2: f64) -> f64 {
    (y2 / y1).ln() / (n2 as f64 / n1 as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_end_to_end() {
        let g = generators::connected_gnp(60, 0.1, 1);
        let r = run_ours("test", &g, default_params());
        assert!(r.spanner_edges > 0);
        assert_eq!(r.audit.disconnected_pairs, 0);
        let (bs_edges, bs_audit) = run_baswana_sen(&g, 3, 2);
        assert!(bs_edges > 0);
        assert!(bs_audit.max_stretch <= 5.0);
        let (en_edges, en_audit) = run_en17(&g, default_params(), 3);
        assert!(en_edges > 0);
        assert_eq!(en_audit.disconnected_pairs, 0);
    }

    #[test]
    fn exponent_fit() {
        // y = n^1.25 exactly.
        let e = fitted_exponent(100, 100f64.powf(1.25), 400, 400f64.powf(1.25));
        assert!((e - 1.25).abs() < 1e-9);
    }

    #[test]
    fn large_scale_preset_has_expected_families() {
        let ws = large_scale(10_000, 8, 3);
        assert_eq!(ws.len(), 4);
        for (name, g) in &ws {
            assert!(g.num_vertices() >= 9_800, "{name} too small");
            assert!(g.num_edges() > 0, "{name} empty");
        }
        // The structured families are exact.
        assert_eq!(ws[0].1.num_vertices(), 10_000);
        assert_eq!(ws[0].1.num_edges(), 9_999);
        assert_eq!(ws[1].1.num_vertices(), 100 * 100);
    }

    #[test]
    fn workloads_are_connected_and_sized() {
        for (name, g) in workloads(100, 5) {
            assert!(g.num_vertices() >= 81, "{name} too small");
            assert!(
                nas_graph::connectivity::is_connected(&g),
                "{name} disconnected"
            );
        }
    }
}
