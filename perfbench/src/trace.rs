//! The traced build: a bench-side [`PhaseEngine`] around [`CongestEngine`].
//!
//! [`TracedEngine`] forwards every stage call to a `CongestEngine` under the
//! hooks `Session::run` would attach — the same worker pool, the flat store,
//! fast-forward on, no observer — and records one [`Span`] per call: its
//! wall time and the difference of `stats()` across it. Driven through the
//! public `build_with_engine`, the traced build runs the program a
//! `Session` runs; [`Trace::summary`] turns the spans into the per-layer
//! metrics.

use nas_congest::{RunHooks, RunStats};
use nas_core::algo1::PopularityInfo;
use nas_core::interconnect::Interconnection;
use nas_core::supercluster::Superclustering;
use nas_core::{CongestEngine, PhaseEngine};
use nas_graph::Graph;
use nas_par::WorkerPool;
use nas_ruling::{RulingParams, RulingSet};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The four stages of a phase, in the order the phase loop calls them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Algorithm 1: popularity detection.
    Algo1,
    /// The deterministic ruling set.
    Ruling,
    /// Superclustering BFS.
    Supercluster,
    /// Interconnection.
    Interconnect,
}

/// One stage call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which stage.
    pub stage: Stage,
    /// Wall time of the call.
    pub wall: Duration,
    /// Cost accrued by the call (`stats()` after minus before).
    pub cost: RunStats,
}

/// The recording engine.
pub struct TracedEngine<'p> {
    inner: CongestEngine,
    pool: Option<&'p Arc<WorkerPool>>,
    spans: Vec<Span>,
}

/// Spans of one traced build.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Stage calls in order.
    pub spans: Vec<Span>,
    /// Wall time of the whole `build_with_engine` call.
    pub wall: Duration,
}

/// `a − b`, field by field; `busiest_round_messages` is a maximum, not a
/// sum, and is left at zero.
fn diff(a: &RunStats, b: &RunStats) -> RunStats {
    RunStats {
        rounds: a.rounds - b.rounds,
        messages: a.messages - b.messages,
        words: a.words - b.words,
        busiest_round_messages: 0,
        merged_messages: a.merged_messages - b.merged_messages,
        skipped_rounds: a.skipped_rounds - b.skipped_rounds,
    }
}

impl<'p> TracedEngine<'p> {
    /// A fresh engine whose simulators run on `pool` (`None` = one lane),
    /// as `Session::threads` would configure them.
    pub fn new(pool: Option<&'p Arc<WorkerPool>>) -> Self {
        TracedEngine {
            inner: CongestEngine::new(),
            pool,
            spans: Vec::new(),
        }
    }

    /// Closes the recording; `wall` is the measured build call.
    pub fn finish(self, wall: Duration) -> Trace {
        Trace {
            spans: self.spans,
            wall,
        }
    }

    fn call<T>(
        &mut self,
        stage: Stage,
        op: impl FnOnce(&mut CongestEngine, &mut RunHooks<'_>) -> T,
    ) -> T {
        let mut hooks = RunHooks {
            observer: None,
            pool: self.pool,
            stopped: false,
            fast_forward: true,
            compact: None,
        };
        let before = self.inner.stats();
        let t = Instant::now();
        let out = op(&mut self.inner, &mut hooks);
        let wall = t.elapsed();
        self.spans.push(Span {
            stage,
            wall,
            cost: diff(&self.inner.stats(), &before),
        });
        out
    }
}

impl PhaseEngine for TracedEngine<'_> {
    fn detect_popular(
        &mut self,
        g: &Graph,
        centers: &[usize],
        is_center: &[bool],
        deg: usize,
        delta: u64,
        _hooks: &mut RunHooks<'_>,
    ) -> PopularityInfo {
        self.call(Stage::Algo1, |e, h| {
            e.detect_popular(g, centers, is_center, deg, delta, h)
        })
    }

    fn ruling_set(
        &mut self,
        g: &Graph,
        w: &[usize],
        params: RulingParams,
        _hooks: &mut RunHooks<'_>,
    ) -> RulingSet {
        self.call(Stage::Ruling, |e, h| e.ruling_set(g, w, params, h))
    }

    fn supercluster(
        &mut self,
        g: &Graph,
        roots: &[usize],
        centers: &[usize],
        depth: u64,
        _hooks: &mut RunHooks<'_>,
    ) -> Superclustering {
        self.call(Stage::Supercluster, |e, h| {
            e.supercluster(g, roots, centers, depth, h)
        })
    }

    fn interconnect(
        &mut self,
        g: &Graph,
        info: &PopularityInfo,
        initiators: &[usize],
        deg: usize,
        delta: u64,
        _hooks: &mut RunHooks<'_>,
    ) -> Interconnection {
        self.call(Stage::Interconnect, |e, h| {
            e.interconnect(g, info, initiators, deg, delta, h)
        })
    }

    fn take_phase_rounds(&mut self) -> u64 {
        self.inner.take_phase_rounds()
    }

    fn stats(&self) -> RunStats {
        self.inner.stats()
    }
}

impl Trace {
    /// The per-layer metrics of the build: per-stage wall, executed rounds
    /// and messages; driver self time (build wall minus stage walls); and
    /// the simulator's round-level ratios.
    pub fn summary(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let stages = [
            Stage::Algo1,
            Stage::Ruling,
            Stage::Supercluster,
            Stage::Interconnect,
        ];
        let names: [[&'static str; 3]; 4] = [
            [
                "core.algo1.wall_s",
                "core.algo1.rounds_executed",
                "core.algo1.messages",
            ],
            ["ruling.wall_s", "ruling.rounds_executed", "ruling.messages"],
            [
                "core.supercluster.wall_s",
                "core.supercluster.rounds_executed",
                "core.supercluster.messages",
            ],
            [
                "core.interconnect.wall_s",
                "core.interconnect.rounds_executed",
                "core.interconnect.messages",
            ],
        ];
        for (stage, [wall, rounds, msgs]) in stages.into_iter().zip(names) {
            let of = self.spans.iter().filter(|s| s.stage == stage);
            out.insert(wall, of.clone().map(|s| s.wall.as_secs_f64()).sum());
            out.insert(
                rounds,
                of.clone()
                    .map(|s| (s.cost.rounds - s.cost.skipped_rounds) as f64)
                    .sum(),
            );
            out.insert(msgs, of.map(|s| s.cost.messages as f64).sum());
        }
        let stage_wall: f64 = self.spans.iter().map(|s| s.wall.as_secs_f64()).sum();
        let wall = self.wall.as_secs_f64();
        out.insert("core.driver.self_s", wall - stage_wall);
        out.insert(
            "congest.zero_msg_stage_s",
            self.spans
                .iter()
                .filter(|s| s.cost.messages == 0)
                .map(|s| s.wall.as_secs_f64())
                .sum(),
        );
        let total = self.stage_cost();
        let executed = total.rounds - total.skipped_rounds;
        out.insert("congest.rounds_skipped", total.skipped_rounds as f64);
        out.insert(
            "congest.msgs_per_executed_round",
            if executed == 0 {
                0.0
            } else {
                total.messages as f64 / executed as f64
            },
        );
        out.insert(
            "congest.merge_ratio",
            if total.messages == 0 {
                0.0
            } else {
                total.merged_messages as f64 / total.messages as f64
            },
        );
        out
    }

    /// Sum of the stage-level cost, for the equality check against the
    /// engine's aggregate.
    pub fn stage_cost(&self) -> RunStats {
        self.spans.iter().fold(RunStats::new(), |mut acc, s| {
            acc.merge(&s.cost);
            acc
        })
    }
}

/// Runs the traced build of `g` with its simulators on `pool` (`None` =
/// one lane) and returns the result with its trace.
///
/// # Errors
///
/// Parameter validation errors from the construction.
pub fn traced_build(
    g: &Graph,
    params: nas_core::Params,
    pool: Option<&Arc<WorkerPool>>,
) -> Result<(nas_core::SpannerResult, Trace), nas_core::ParamError> {
    let mut engine = TracedEngine::new(pool);
    let t = Instant::now();
    let built = nas_core::build_with_engine(g, params, &mut engine)?;
    let wall = t.elapsed();
    Ok((built, engine.finish(wall)))
}
