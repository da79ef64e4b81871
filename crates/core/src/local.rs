//! A LOCAL-model variant of the construction, for the LOCAL-vs-CONGEST
//! comparison (the paper's Table 2 lists LOCAL constructions (DGPV09); the
//! open problem the paper answers is precisely doing this *without* large
//! messages).
//!
//! In the LOCAL model message size is unbounded, so Algorithm 1 degenerates
//! to plain neighborhood gathering: every vertex learns its entire
//! `δ_i`-ball in `δ_i` rounds (no `deg_i` bandwidth factor), and trace-backs
//! complete in `δ_i` rounds. The phase structure, ruling sets,
//! superclustering and interconnection logic are unchanged — which is why
//! the whole mode is just another [`PhaseEngine`] plugged into the single
//! phase loop of [`crate::driver::build_with_engine`] (`Session` runs it as
//! `Backend::Local`):
//!
//! * [`LocalEngine::detect_popular`] gathers the *uncapped* `δ_i`-ball
//!   (centralized reference with capacity `n+1`) and applies the popularity
//!   predicate `|Γ^{δ_i}(r_C) ∩ S_i| ≥ deg_i` to the full knowledge,
//!   charging `δ_i` rounds;
//! * the ruling set, superclustering and interconnection run the
//!   centralized references, charged at their LOCAL costs
//!   (`c·m·(q+1)` with `m = ⌈n^{1/c}⌉`, `2·depth + 2`, and `δ_i`
//!   respectively — the ruling set is free when `W_i` is empty, matching
//!   the distributed implementation's early exit).
//!
//! The LOCAL run therefore produces a spanner with the *same* guarantees,
//! in `O(ρ⁻¹·δ_i·n^{1/c})` rounds per phase instead of CONGEST's
//! `O(ρ⁻¹·δ_i·n^ρ)`. Rounds are *accounted* (information can only travel
//! one hop per round, so the accounting is exact for LOCAL) rather than
//! simulated — simulating unbounded messages would exercise nothing the
//! centralized reference does not.

use crate::algo1::{algo1_centralized, PopularityInfo};
use crate::engine::PhaseEngine;
use crate::interconnect::{interconnect_centralized, Interconnection};
use crate::supercluster::{supercluster_centralized, SuperclusterProtocol, Superclustering};
use nas_congest::{RunHooks, RunStats};
use nas_graph::Graph;
use nas_ruling::{ruling_set_centralized, RulingParams, RulingProtocol, RulingSet};

/// LOCAL-model backend: centralized execution of every primitive, with
/// exact LOCAL round accounting and the unbounded-bandwidth popularity rule
/// (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalEngine {
    rounds: u64,
    phase_rounds: u64,
}

impl LocalEngine {
    /// A fresh engine with zeroed accounting.
    pub fn new() -> Self {
        Self::default()
    }

    fn charge(&mut self, rounds: u64) {
        self.phase_rounds += rounds;
        self.rounds += rounds;
    }
}

impl PhaseEngine for LocalEngine {
    fn detect_popular(
        &mut self,
        g: &Graph,
        centers: &[usize],
        is_center: &[bool],
        deg: usize,
        delta: u64,
        _hooks: &mut RunHooks<'_>,
    ) -> PopularityInfo {
        let n = g.num_vertices();
        // LOCAL Algorithm 1: full δ-ball gathering — δ_i rounds, no
        // bandwidth cap.
        let mut info = algo1_centralized(g, is_center, n + 1, delta);
        self.charge(delta);
        // Popularity with the *phase threshold* (knowledge was uncapped).
        info.popular = centers
            .iter()
            .copied()
            .filter(|&c| info.knowledge[c].len() >= deg)
            .collect();
        info
    }

    fn ruling_set(
        &mut self,
        g: &Graph,
        w: &[usize],
        params: RulingParams,
        _hooks: &mut RunHooks<'_>,
    ) -> RulingSet {
        // Ruling-set rounds are bandwidth-light already; same cost as
        // CONGEST. Skipped when W_i is empty — matching the distributed
        // implementation's early exit, so LOCAL and CONGEST accounting stay
        // comparable.
        if !w.is_empty() {
            self.charge(RulingProtocol::total_rounds(g.num_vertices(), params));
        }
        ruling_set_centralized(g, w, params)
    }

    fn supercluster(
        &mut self,
        g: &Graph,
        roots: &[usize],
        centers: &[usize],
        depth: u64,
        _hooks: &mut RunHooks<'_>,
    ) -> Superclustering {
        self.charge(SuperclusterProtocol::total_rounds(depth));
        supercluster_centralized(g, roots, centers, depth)
    }

    fn interconnect(
        &mut self,
        g: &Graph,
        info: &PopularityInfo,
        initiators: &[usize],
        _deg: usize,
        delta: u64,
        _hooks: &mut RunHooks<'_>,
    ) -> Interconnection {
        // LOCAL interconnection: all traces complete within δ_i rounds
        // (unbounded bandwidth, paths of length ≤ δ_i).
        self.charge(delta);
        interconnect_centralized(g, info, initiators)
    }

    fn take_phase_rounds(&mut self) -> u64 {
        std::mem::take(&mut self.phase_rounds)
    }

    fn stats(&self) -> RunStats {
        RunStats {
            rounds: self.rounds,
            ..RunStats::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{build_with_engine, SpannerResult};
    use crate::engine::{CentralizedEngine, CongestEngine};
    use crate::params::Params;
    use nas_graph::generators;
    use nas_metrics_shim::stretch_ok;

    /// Minimal local stretch check to avoid a dev-dependency cycle with
    /// nas-metrics (which depends on nas-core).
    mod nas_metrics_shim {
        use nas_graph::{BfsScratch, DistanceMap, Graph};

        pub fn stretch_ok(g: &Graph, h: &Graph, alpha: f64, beta: f64) -> bool {
            let n = g.num_vertices();
            let mut dg = DistanceMap::new();
            let mut dh = DistanceMap::new();
            let mut scratch = BfsScratch::new();
            for s in 0..n {
                dg.fill(g, [s], &mut scratch);
                dh.fill(h, [s], &mut scratch);
                for v in 0..n {
                    if let Some(d) = dg.get(v) {
                        match dh.get(v) {
                            None => return false,
                            Some(x) => {
                                if x as f64 > alpha * d as f64 + beta {
                                    return false;
                                }
                            }
                        }
                    }
                }
            }
            true
        }
    }

    fn local_run(g: &Graph, params: Params) -> SpannerResult {
        build_with_engine(g, params, &mut LocalEngine::new()).unwrap()
    }

    #[test]
    fn local_run_is_valid() {
        let g = generators::connected_gnp(80, 0.08, 3);
        let params = Params::practical(0.5, 4, 0.45);
        let r = local_run(&g, params);
        assert!(r.spanner.verify_subgraph_of(&g).is_ok());
        let env = r
            .schedule
            .beta_nominal()
            .max(4.0 * r.schedule.r_bound[r.schedule.ell] as f64 + 1.0);
        assert!(stretch_ok(
            &g,
            &r.spanner.to_graph(),
            r.schedule.alpha_nominal(),
            env
        ));
    }

    #[test]
    fn local_rounds_below_congest_rounds() {
        // The whole point: LOCAL drops the deg_i bandwidth factor.
        let g = generators::random_regular(128, 8, 1);
        let params = Params::practical(0.5, 4, 0.45);
        let local = local_run(&g, params);
        let congest = build_with_engine(&g, params, &mut CongestEngine::new()).unwrap();
        assert!(
            local.stats.rounds < congest.stats.rounds,
            "LOCAL {} vs CONGEST {}",
            local.stats.rounds,
            congest.stats.rounds
        );
    }

    #[test]
    fn local_spanner_size_comparable_to_congest() {
        let g = generators::connected_gnp(60, 0.1, 9);
        let params = Params::practical(0.5, 4, 0.45);
        let local = local_run(&g, params);
        let congest = build_with_engine(&g, params, &mut CentralizedEngine).unwrap();
        // Same popularity predicate ⟹ same phase structure; edges may differ
        // slightly (parent tie-breaks), sizes must be in the same ballpark.
        let (a, b) = (local.spanner.len() as f64, congest.spanner.len() as f64);
        assert!(a <= 1.5 * b + 10.0 && b <= 1.5 * a + 10.0, "{a} vs {b}");
    }

    #[test]
    fn ruling_set_is_charged_its_digit_schedule() {
        // 3125 = 5^5: the digit base at c = 5 is exactly 5, so the schedule
        // runs c·m·(q+1) = 5·5·3 rounds.
        let g = generators::path(3125);
        let mut engine = LocalEngine::new();
        engine.ruling_set(
            &g,
            &[0, 1000, 2000],
            RulingParams::new(2, 5),
            &mut RunHooks::none(),
        );
        assert_eq!(engine.take_phase_rounds(), 75);
    }

    #[test]
    fn phase_rounds_sum() {
        let g = generators::grid2d(8, 8);
        let r = local_run(&g, Params::practical(0.5, 4, 0.45));
        assert_eq!(
            r.phases.iter().map(|p| p.rounds).sum::<u64>(),
            r.stats.rounds
        );
    }
}
