//! The **entire construction as one CONGEST protocol** — the engine-free
//! cross-check of the [`crate::engine::PhaseEngine`] backends.
//!
//! `Backend::Congest` runs the shared phase loop
//! ([`crate::driver::build_with_engine`]) over a
//! [`crate::engine::CongestEngine`], which executes each step as its own
//! simulator run and stitches results together outside the network — faithful
//! for round accounting, but the stitching uses global knowledge (e.g. it
//! skips the ruling set when `W_i` is empty, something no real node could
//! know).
//!
//! This module removes even that: `Session` with `Backend::Full` runs **one**
//! simulation in which every stage transition is made *locally* by each
//! node, exactly as the paper's vertices do — by counting rounds against the
//! schedule all nodes can derive from `(n, ε, κ, ρ)`:
//!
//! * a node knows whether it is a phase-`i` center (it was a ruling-set
//!   root of phase `i−1`);
//! * it knows whether it is popular (its own Algorithm 1 knowledge);
//! * it knows whether it was superclustered (it was claimed by the BFS
//!   forest) and therefore whether to initiate interconnection traces;
//! * every stage occupies a fixed, globally computable round window, so no
//!   global coordination is ever needed.
//!
//! Each stage runs on its own clock: a node hosts the stage's program
//! through [`RoundCtx::since`] from the first round of the stage's window,
//! so the program reads round 0 there, exactly as in a standalone run. The
//! stages' timed wake-ups are therefore local to the stage and never read:
//! the composite is never idle, so every node is visited every round.
//!
//! The price of honesty: every window runs to its full worst-case length
//! (e.g. the ruling set runs even in phases where `W_i` happens to be
//! empty), so the measured round count *is* the schedule bound — which is
//! precisely the quantity Lemma 2.8 / Corollary 2.9 bound. The produced
//! spanner is asserted (in tests) to be identical to both other backends.

use crate::algo1::{algo1_rounds, Algo1Protocol, Knowledge};
use crate::driver::{PhaseStats, SpannerResult};
use crate::interconnect::{interconnect_rounds, TraceProtocol};
use crate::params::{Params, Schedule};
use crate::session::{Conduit, SessionError};
use crate::supercluster::SuperclusterProtocol;
use nas_congest::{NodeProgram, RoundCtx, Simulator};
use nas_graph::{CompactGraph, EdgeSet, Graph};
use nas_par::WorkerPool;
use nas_ruling::RulingProtocol;
use std::sync::Arc;

/// Round windows of one phase (absolute global rounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Windows {
    algo1: u64,
    ruling: u64,
    sc: u64,
    inter: u64,
    end: u64,
}

/// Computes the per-phase windows; identical at every node.
fn windows(schedule: &Schedule) -> Vec<Windows> {
    let mut out = Vec::with_capacity(schedule.ell + 1);
    let mut t = 0u64;
    for i in 0..=schedule.ell {
        let deg = schedule.stage_deg(i);
        let delta = schedule.delta[i];
        let a1 = t;
        t += algo1_rounds(deg, delta);
        let ruling = t;
        if i < schedule.ell {
            t += RulingProtocol::total_rounds(schedule.n, schedule.ruling_params(i));
        }
        let sc = t;
        if i < schedule.ell {
            t += SuperclusterProtocol::total_rounds(schedule.sc_depth(i));
        }
        let inter = t;
        t += interconnect_rounds(deg, delta);
        out.push(Windows {
            algo1: a1,
            ruling,
            sc,
            inter,
            end: t,
        });
    }
    out
}

/// Per-node state of the composite protocol.
#[derive(Debug, Clone)]
pub(crate) struct FullProtocol {
    schedule: Schedule,
    windows: Vec<Windows>,
    /// Whether this node is a cluster center in the current phase.
    is_center: bool,
    is_root: bool,
    algo1: Option<Algo1Protocol>,
    ruling: Option<RulingProtocol>,
    sc: Option<SuperclusterProtocol>,
    trace: Option<TraceProtocol<Knowledge>>,
    /// Spanner edges this node marked, accumulated across phases.
    edges: Vec<(u32, u32)>,
}

impl FullProtocol {
    fn new(schedule: Schedule, windows: Vec<Windows>) -> Self {
        FullProtocol {
            schedule,
            windows,
            is_center: true, // P_0: every vertex is a singleton center
            is_root: false,
            algo1: None,
            ruling: None,
            sc: None,
            trace: None,
            edges: Vec::new(),
        }
    }

    fn harvest_phase(&mut self, concluding: bool) {
        if let Some(sc) = self.sc.take() {
            self.edges.extend_from_slice(sc.marked_edges());
        }
        if let Some(trace) = self.trace.take() {
            assert!(trace.drained(), "trace queues must drain within the window");
            self.edges.extend_from_slice(trace.marked_edges());
        }
        self.algo1 = None;
        self.ruling = None;
        // Next phase's centers are this phase's ruling-set roots.
        self.is_center = !concluding && self.is_root;
        self.is_root = false;
    }
}

impl NodeProgram for FullProtocol {
    fn round(&mut self, ctx: &mut RoundCtx<'_>) {
        let r = ctx.round();
        let n = ctx.n();
        // Locate the current phase. ℓ+1 phases; linear scan is fine.
        let Some(i) = self.windows.iter().position(|w| r < w.end) else {
            return; // schedule exhausted
        };
        let w = self.windows[i];
        let concluding = i == self.schedule.ell;

        // Stage entry actions (local decisions only).
        if r == w.algo1 {
            if i > 0 {
                self.harvest_phase(false);
            }
            self.algo1 = Some(Algo1Protocol::new(
                self.is_center,
                self.schedule.stage_deg(i),
                self.schedule.delta[i],
            ));
        }
        if !concluding && r == w.ruling {
            let popular = self.algo1.as_ref().expect("algo1 ran").popular();
            self.ruling = Some(RulingProtocol::new(
                n,
                self.schedule.ruling_params(i),
                popular,
            ));
        }
        if !concluding && r == w.sc {
            let ruling = self.ruling.as_ref().expect("ruling ran");
            self.is_root = ruling.is_member();
            self.sc = Some(SuperclusterProtocol::new(
                self.is_root,
                self.is_center,
                self.schedule.sc_depth(i),
            ));
        }
        if r == w.inter {
            let spanned = self.sc.as_ref().and_then(|sc| sc.root()).is_some();
            let initiator = self.is_center && (concluding || !spanned);
            // Algorithm 1 is over for this phase: its table moves into the
            // trace stage, which only reads it.
            let knowledge = self.algo1.take().expect("algo1 ran").into_knowledge();
            self.trace = Some(TraceProtocol::new(initiator, knowledge));
        }

        // Delegate to the active stage protocol, on the stage's clock.
        if r < w.ruling {
            let algo1 = self.algo1.as_mut().expect("algo1 stage");
            ctx.since(w.algo1, |ctx| algo1.round(ctx));
        } else if r < w.sc {
            let ruling = self.ruling.as_mut().expect("ruling stage");
            ctx.since(w.ruling, |ctx| ruling.round(ctx));
        } else if r < w.inter {
            let sc = self.sc.as_mut().expect("sc stage");
            ctx.since(w.sc, |ctx| sc.round(ctx));
        } else {
            let trace = self.trace.as_mut().expect("trace stage");
            ctx.since(w.inter, |ctx| trace.round(ctx));
        }

        // Final harvest at the last round of the last phase.
        if concluding && r + 1 == w.end {
            self.harvest_phase(true);
        }
    }

    /// Every node derives stage transitions from the global clock (that is
    /// the whole point of this module), so every node must be visited every
    /// round: the composite protocol is never idle. The run is bounded by
    /// `run_rounds(total)`, not by quiescence.
    fn is_idle(&self) -> bool {
        false
    }
}

/// The observed composite run behind `Session::run` with `Backend::Full`:
/// drives the single simulation one schedule window at a time, emitting
/// `PhaseStarted` / `PhaseFinished` through `ctl` and reporting every round
/// to its observer (which may cancel on budget exhaustion).
///
/// The per-phase records carry only the window quantities every node can
/// derive locally (`δ_i`, `deg_i`, rounds); the structural counters
/// (cluster/popular/settled counts) require a global view the composite
/// protocol deliberately does not have, and read as zero. For the same
/// reason the settled table comes back empty.
pub(crate) fn run_full_ctl(
    g: &Graph,
    params: Params,
    ctl: &mut Conduit<'_>,
    pool: Option<&Arc<WorkerPool>>,
    store: Option<&Arc<CompactGraph>>,
) -> Result<SpannerResult, SessionError> {
    let n = g.num_vertices();
    let schedule = params.schedule(n)?;
    let windows = windows(&schedule);
    let programs: Vec<FullProtocol> = (0..n)
        .map(|_| FullProtocol::new(schedule.clone(), windows.clone()))
        .collect();
    let mut sim = Simulator::new(g, programs);
    if let Some(pool) = pool {
        sim.set_pool(Arc::clone(pool));
    }
    if let Some(store) = store {
        sim.set_compact(Arc::clone(store));
    }
    sim.set_fast_forward(ctl.fast_forward_enabled());
    let mut phases = Vec::with_capacity(windows.len());
    for (i, w) in windows.iter().enumerate() {
        ctl.phase_started(i, 0, schedule.delta[i], schedule.deg[i]);
        let executed = sim.run_rounds_observed(w.end - w.algo1, ctl);
        let ps = PhaseStats {
            phase: i,
            num_clusters: 0,
            popular: 0,
            ruling_set: 0,
            superclustered: 0,
            settled_clusters: 0,
            supercluster_path_edges: 0,
            interconnect_paths: 0,
            interconnect_edges: 0,
            h_edges_cumulative: 0,
            delta: schedule.delta[i],
            deg: schedule.deg[i],
            rounds: executed,
        };
        phases.push(ps);
        ctl.phase_finished(&ps);
        ctl.bail()?;
    }
    let stats = *sim.stats();
    let mut spanner = EdgeSet::new(n);
    for p in sim.into_programs() {
        for &(a, b) in &p.edges {
            spanner.insert(a as usize, b as usize);
        }
    }
    Ok(SpannerResult {
        spanner,
        schedule,
        stats,
        phases,
        settled: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::build_with_engine;
    use crate::engine::{CentralizedEngine, CongestEngine};
    use crate::{Backend, Report, Session};
    use nas_graph::generators;

    fn run_full(g: &Graph, params: Params) -> Report {
        Session::on(g)
            .params(params)
            .backend(Backend::Full)
            .run()
            .unwrap()
    }

    #[test]
    fn full_protocol_matches_both_backends() {
        let params = Params::practical(0.5, 4, 0.45);
        for (name, g) in [
            ("gnp(30)", generators::connected_gnp(30, 0.12, 5)),
            ("grid(5,5)", generators::grid2d(5, 5)),
            ("complete(14)", generators::complete(14)),
            ("cycle(18)", generators::cycle(18)),
        ] {
            let central = build_with_engine(&g, params, &mut CentralizedEngine).unwrap();
            let staged = build_with_engine(&g, params, &mut CongestEngine::new()).unwrap();
            let full = run_full(&g, params);
            assert_eq!(central.spanner, full.spanner, "{name} vs centralized");
            assert_eq!(staged.spanner, full.spanner, "{name} vs staged");
            // The one-simulation run pays the full schedule; the staged run
            // may skip globally-detected empty stages — so staged ≤ full.
            assert!(staged.stats.rounds <= full.stats.rounds, "{name}");
        }
    }

    #[test]
    fn rounds_equal_fixed_schedule_length() {
        let params = Params::practical(0.5, 4, 0.45);
        let g = generators::connected_gnp(24, 0.15, 9);
        let full = run_full(&g, params);
        let w = super::windows(&full.schedule);
        assert_eq!(full.stats.rounds, w.last().unwrap().end);
        // And the fixed length respects the per-phase bound of Lemma 2.8.
        assert!(full.stats.rounds <= full.schedule.total_round_bound());
    }

    #[test]
    fn deterministic_transcript() {
        let params = Params::practical(0.5, 4, 0.45);
        let g = generators::preferential_attachment(26, 2, 3);
        let a = run_full(&g, params);
        let b = run_full(&g, params);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.spanner, b.spanner);
    }

    #[test]
    fn windows_are_contiguous() {
        let params = Params::practical(0.5, 4, 0.45);
        let schedule = params.schedule(64).unwrap();
        let w = super::windows(&schedule);
        assert_eq!(w.len(), schedule.ell + 1);
        assert_eq!(w[0].algo1, 0);
        for i in 0..w.len() {
            assert!(w[i].algo1 <= w[i].ruling);
            assert!(w[i].ruling <= w[i].sc);
            assert!(w[i].sc <= w[i].inter);
            assert!(w[i].inter < w[i].end);
            if i + 1 < w.len() {
                assert_eq!(w[i].end, w[i + 1].algo1);
            }
        }
        // Concluding phase has zero-length ruling/sc windows.
        let last = w.last().unwrap();
        assert_eq!(last.ruling, last.sc);
        assert_eq!(last.sc, last.inter);
    }
}
