//! What the bench binaries share: the [`BenchCli`] flag dialect and the
//! [`large_scale`] workload suite.
//!
//! The binaries are `experiments`, which regenerates every table and
//! figure of the paper as a named preset (`--preset table1`, …), and
//! `sim_scaling`, the million-node message-plane bench that writes
//! `BENCH_sim.json`. The nas-serve binaries parse their flags with
//! [`BenchCli`] too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nas_graph::{generators, Graph};

mod cli;
pub use cli::BenchCli;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
