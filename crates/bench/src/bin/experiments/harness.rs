//! What the presets share: the workload suite, the default parameter
//! point, one measured run, the baseline rows and the exponent fit.

use nas_baselines::{baswana_sen, build_en17_centralized, build_en17_distributed, En17Params};
use nas_core::{Backend, Params, Report, Session};
use nas_graph::{generators, Graph};
use nas_metrics::{stretch_audit, StretchAudit};

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

/// Builds `g`'s spanner in a [`Session`] on `backend` and audits it
/// exactly: the one measured run the presets share.
pub fn measure(g: &Graph, params: Params, backend: Backend) -> (Report, StretchAudit) {
    let report = Session::on(g)
        .params(params)
        .backend(backend)
        .run()
        .expect("valid parameters");
    let audit = stretch_audit(g, &report.to_graph(), params.eps);
    (report, audit)
}

/// EN17 at `params`' `(ε, κ, ρ)`, sampling with `seed`.
fn en17_params(params: Params, seed: u64) -> En17Params {
    En17Params {
        eps: params.eps,
        kappa: params.kappa,
        rho: params.rho,
        seed,
    }
}

/// Measured EN17 row (centralized): `(edges, audit)`.
pub fn run_en17(g: &Graph, params: Params, seed: u64) -> (usize, StretchAudit) {
    let r = build_en17_centralized(g, en17_params(params, seed));
    (r.num_edges(), stretch_audit(g, &r.to_graph(), params.eps))
}

/// Measured CONGEST rounds of EN17.
pub fn en17_rounds(g: &Graph, params: Params, seed: u64) -> u64 {
    build_en17_distributed(g, en17_params(params, seed))
        .stats
        .rounds
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
        let (r, audit) = measure(&g, default_params(), Backend::Centralized);
        assert!(r.num_edges() > 0);
        assert_eq!(audit.disconnected_pairs, 0);
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
