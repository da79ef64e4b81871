//! The **`PhaseEngine`** seam: one phase loop, pluggable per-phase
//! primitives.
//!
//! The construction's phase schedule (what runs, in which order, with which
//! thresholds) is identical across execution backends — the paper proves the
//! *same* decision sequence correct whether each step is executed by a
//! centralized reference routine or as a CONGEST protocol on the simulator.
//! What differs per backend is only **how** each of the five per-phase
//! operations is carried out and **what it costs**. This module captures
//! that variation point:
//!
//! * [`PhaseEngine`] — the five operations (popularity detection, ruling
//!   set, superclustering BFS, interconnection, cost collection) the phase
//!   loop in [`crate::driver`] is generic over;
//! * [`CentralizedEngine`] — the reference implementations; zero rounds;
//! * [`CongestEngine`] — every operation is a real protocol on the
//!   `nas-congest` simulator, with exact round/message accounting;
//! * [`crate::local::LocalEngine`] — centralized execution under
//!   LOCAL-model cost accounting (unbounded bandwidth), for the
//!   LOCAL-vs-CONGEST comparison.
//!
//! All engines produce **bit-identical spanner edge sets** for the
//! centralized/distributed pair (asserted in tests at every level) — the
//! paper's headline determinism — while the LOCAL engine intentionally uses
//! the unbounded-bandwidth popularity rule (see [`crate::local`]).

use crate::algo1::{self, PopularityInfo};
use crate::interconnect::{self, Interconnection};
use crate::supercluster::{self, Superclustering};
use nas_congest::{RunHooks, RunStats, SimArena};
use nas_graph::Graph;
use nas_ruling::{ruling_set_centralized, ruling_set_distributed, RulingParams, RulingSet};

/// The per-phase primitives the spanner phase loop is generic over.
///
/// One engine instance lives for the duration of one construction; the
/// driver calls the first four operations in the fixed order the paper's
/// §2.1 prescribes (popularity → ruling set → superclustering →
/// interconnection, with ruling set and superclustering skipped in the
/// concluding phase) and drains the cost ledger once per phase via
/// [`PhaseEngine::take_phase_rounds`].
///
/// Implementations must be deterministic: the driver's correctness
/// assertions (Lemma 2.4, the settled-partition invariant) and the
/// cross-backend equality tests rely on it.
///
/// Every operation receives the phase loop's execution hooks
/// ([`nas_congest::RunHooks`]): simulating engines report each executed
/// round to the hooks' observer (the [`crate::session`] event plane) and
/// attach the hooks' worker pool to their simulators; non-simulating
/// engines ignore them. An observer may *cancel* a run mid-simulation —
/// the operation then returns truncated garbage and the driver, which
/// checks for cancellation after every call, discards it and aborts the
/// build (round-budget enforcement).
pub trait PhaseEngine {
    /// Algorithm 1 (Appendix A / Theorem 2.1): every center discovers up to
    /// `deg` centers within distance `delta`; centers with `≥ deg` near
    /// neighbors are *popular* (`W_i`).
    ///
    /// `centers` lists the phase's cluster centers `S_i` ascending;
    /// `is_center` is the same set as a dense mask.
    fn detect_popular(
        &mut self,
        g: &Graph,
        centers: &[usize],
        is_center: &[bool],
        deg: usize,
        delta: u64,
        hooks: &mut RunHooks<'_>,
    ) -> PopularityInfo;

    /// Theorem 2.2: a deterministic `(q+1, cq)`-ruling set over the popular
    /// centers `w` — the paper's replacement for EN17's random sampling.
    fn ruling_set(
        &mut self,
        g: &Graph,
        w: &[usize],
        params: RulingParams,
        hooks: &mut RunHooks<'_>,
    ) -> RulingSet;

    /// Lemma 2.4: depth-bounded BFS forest from the ruling set; spanned
    /// centers merge into superclusters and the tree paths enter `H`.
    fn supercluster(
        &mut self,
        g: &Graph,
        roots: &[usize],
        centers: &[usize],
        depth: u64,
        hooks: &mut RunHooks<'_>,
    ) -> Superclustering;

    /// Lemma 2.6: every settled cluster center (`initiators`, the centers of
    /// `U_i`) connects to all centers it knows, along the exact shortest
    /// paths recorded by Algorithm 1's parent pointers.
    ///
    /// `deg` and `delta` are the phase thresholds — distributed engines
    /// derive their trace-back round budget from them.
    fn interconnect(
        &mut self,
        g: &Graph,
        info: &PopularityInfo,
        initiators: &[usize],
        deg: usize,
        delta: u64,
        hooks: &mut RunHooks<'_>,
    ) -> Interconnection;

    /// Drains the rounds accumulated since the last call — the cost of the
    /// current phase under this engine's model (Lemma 2.8 is about this
    /// quantity). Centralized execution reports 0.
    fn take_phase_rounds(&mut self) -> u64;

    /// Aggregate cost of the whole run so far (zeros for centralized runs).
    fn stats(&self) -> RunStats;
}

/// Reference backend: every operation runs its centralized implementation;
/// all costs are zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct CentralizedEngine;

impl PhaseEngine for CentralizedEngine {
    fn detect_popular(
        &mut self,
        g: &Graph,
        _centers: &[usize],
        is_center: &[bool],
        deg: usize,
        delta: u64,
        _hooks: &mut RunHooks<'_>,
    ) -> PopularityInfo {
        algo1::algo1_centralized(g, is_center, deg, delta)
    }

    fn ruling_set(
        &mut self,
        g: &Graph,
        w: &[usize],
        params: RulingParams,
        _hooks: &mut RunHooks<'_>,
    ) -> RulingSet {
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
        supercluster::supercluster_centralized(g, roots, centers, depth)
    }

    fn interconnect(
        &mut self,
        g: &Graph,
        info: &PopularityInfo,
        initiators: &[usize],
        _deg: usize,
        _delta: u64,
        _hooks: &mut RunHooks<'_>,
    ) -> Interconnection {
        interconnect::interconnect_centralized(g, info, initiators)
    }

    fn take_phase_rounds(&mut self) -> u64 {
        0
    }

    fn stats(&self) -> RunStats {
        RunStats::new()
    }
}

/// Distributed backend: every operation is a CONGEST protocol on the
/// `nas-congest` simulator; `stats().rounds` is the measured running time
/// the paper's Corollary 2.9 bounds.
///
/// One engine owns **one simulator arena per build** ([`SimArena`],
/// created by [`CongestEngine::new`]): every stage of every phase installs
/// its programs into it and hands it back with its capacities kept, so the
/// n-sized scheduler arrays, the message plane (cut back to O(n) after a
/// burst) and the worker lanes' buckets are allocated once per build rather
/// than once per stage. An installed stage's first round visits only the stage's
/// declared spontaneous actors (centers, `W`, roots, initiators), so a
/// stage costs O(active), not O(n), in simulator work. The protocols
/// declare their spontaneity through `NodeProgram::is_idle` (schedule-driven
/// senders report non-idle until done); the golden-run regression tests pin
/// that the produced spanners and round/message accounting are
/// bit-identical to the pre-arena simulator.
#[derive(Debug, Default)]
pub struct CongestEngine {
    stats: RunStats,
    phase_rounds: u64,
    arena: SimArena,
}

impl CongestEngine {
    /// A fresh engine with zeroed accounting and an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    fn charge<T>(&mut self, (out, s): (T, RunStats)) -> T {
        self.phase_rounds += s.rounds;
        self.stats.merge(&s);
        out
    }
}

impl PhaseEngine for CongestEngine {
    fn detect_popular(
        &mut self,
        g: &Graph,
        _centers: &[usize],
        is_center: &[bool],
        deg: usize,
        delta: u64,
        hooks: &mut RunHooks<'_>,
    ) -> PopularityInfo {
        let run = algo1::algo1_distributed(g, is_center, deg, delta, &mut self.arena, hooks);
        self.charge(run)
    }

    fn ruling_set(
        &mut self,
        g: &Graph,
        w: &[usize],
        params: RulingParams,
        hooks: &mut RunHooks<'_>,
    ) -> RulingSet {
        let run = ruling_set_distributed(g, w, params, &mut self.arena, hooks);
        self.charge(run)
    }

    fn supercluster(
        &mut self,
        g: &Graph,
        roots: &[usize],
        centers: &[usize],
        depth: u64,
        hooks: &mut RunHooks<'_>,
    ) -> Superclustering {
        let run = supercluster::supercluster_distributed(
            g,
            roots,
            centers,
            depth,
            &mut self.arena,
            hooks,
        );
        self.charge(run)
    }

    fn interconnect(
        &mut self,
        g: &Graph,
        info: &PopularityInfo,
        initiators: &[usize],
        deg: usize,
        delta: u64,
        hooks: &mut RunHooks<'_>,
    ) -> Interconnection {
        let run = interconnect::interconnect_distributed(
            g,
            info,
            initiators,
            deg,
            delta,
            &mut self.arena,
            hooks,
        );
        self.charge(run)
    }

    fn take_phase_rounds(&mut self) -> u64 {
        std::mem::take(&mut self.phase_rounds)
    }

    fn stats(&self) -> RunStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::build_with_engine;
    use crate::params::Params;
    use nas_graph::generators;

    #[test]
    fn engines_agree_bit_for_bit() {
        let params = Params::practical(0.5, 4, 0.45);
        for g in [
            generators::grid2d(5, 5),
            generators::connected_gnp(40, 0.1, 7),
            generators::path(30),
        ] {
            let a = build_with_engine(&g, params, &mut CentralizedEngine).unwrap();
            let b = build_with_engine(&g, params, &mut CongestEngine::new()).unwrap();
            assert_eq!(a.spanner, b.spanner);
            assert_eq!(a.settled, b.settled);
        }
    }

    #[test]
    fn congest_engine_drains_phase_rounds() {
        let g = generators::connected_gnp(25, 0.15, 3);
        let params = Params::practical(0.5, 4, 0.45);
        let mut engine = CongestEngine::new();
        let r = build_with_engine(&g, params, &mut engine).unwrap();
        // Every phase's rounds were drained into its PhaseStats record and
        // sum to the aggregate.
        assert_eq!(engine.take_phase_rounds(), 0);
        assert_eq!(
            r.phases.iter().map(|p| p.rounds).sum::<u64>(),
            r.stats.rounds
        );
        assert!(r.stats.rounds > 0);
    }

    #[test]
    fn centralized_engine_is_free() {
        let g = generators::grid2d(4, 4);
        let params = Params::practical(0.5, 4, 0.45);
        let mut engine = CentralizedEngine;
        let r = build_with_engine(&g, params, &mut engine).unwrap();
        assert_eq!(r.stats, RunStats::new());
        assert!(r.phases.iter().all(|p| p.rounds == 0));
    }
}
