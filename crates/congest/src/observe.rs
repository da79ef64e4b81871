//! The streaming round-observation plane.
//!
//! Higher layers (progress reporting, streaming metrics, round-budget
//! cancellation) used to need full transcripts to see what a run did. This
//! module gives them a push-based alternative: a [`RoundObserver`] receives
//! one [`RoundInfo`] per executed round and can stop the run early by
//! returning `false`.
//!
//! # Zero cost when silent
//!
//! The observed run loops ([`crate::Simulator::run_rounds_observed`],
//! [`crate::Simulator::run_until_quiet_observed`]) ask the observer once
//! per run whether it is [`enabled`](RoundObserver::enabled); a disabled
//! observer (the [`NoopRoundObserver`], or a [`RunHooks`] with no observer
//! attached) reduces the per-round overhead to a single branch, and no
//! [`RoundInfo`] is ever materialized. Nothing on this path allocates:
//! [`RoundInfo`] is a `Copy` value on the stack, and the observer is a
//! caller-owned `&mut dyn` — the zero-allocation steady state pinned by
//! `tests/zero_alloc.rs` is preserved, observed or not.
//!
//! # [`RunHooks`]: one handle for observer + pool
//!
//! Driver code that runs many sub-simulations (the staged spanner engine)
//! threads a single [`RunHooks`] through every run: it carries the optional
//! observer, the optional worker pool to attach to each simulator
//! ([`RunHooks::attach`]), and records in [`RunHooks::stopped`] whether an
//! observer cancelled a run — so a primitive can distinguish "went quiet"
//! from "was cancelled" without inspecting the observer.

use crate::sim::{NodeProgram, Simulator};
use nas_graph::CompactGraph;
use nas_par::WorkerPool;
use std::sync::Arc;

/// Everything an observer learns about one executed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundInfo {
    /// The round index that was just executed (0-based, counted from the
    /// simulator's creation).
    pub round: u64,
    /// Messages sent during this round.
    pub messages: u64,
    /// Nodes visited by this round, each counted once: the union of message
    /// receivers, nodes that reported non-idle, and nodes whose timed
    /// wake-up ([`NodeProgram::next_wake`]) came due; `n` on a full wake-up
    /// round, and the declared initial set on the first round of an
    /// installed run ([`crate::Simulator::install`]).
    pub active: usize,
}

/// A streaming consumer of per-round execution reports.
///
/// Implementors receive [`RoundInfo`] after every executed round of an
/// observed run and may cancel the run by returning `false` from
/// [`on_round`](RoundObserver::on_round) — the basis for round-budget
/// enforcement without retained transcripts.
pub trait RoundObserver {
    /// Whether this observer wants per-round reports at all. Observed run
    /// loops consult this once per run; when `false`, no [`RoundInfo`] is
    /// computed and [`on_round`](RoundObserver::on_round) is never called.
    fn enabled(&self) -> bool {
        true
    }

    /// Called after every executed round. Return `false` to stop the run
    /// before the next round.
    fn on_round(&mut self, info: RoundInfo) -> bool;

    /// How many rounds the simulator may fast-forward in one span before
    /// checking back with this observer. Consulted before each skip (see
    /// [`crate::Simulator::set_fast_forward`]); the default is unlimited.
    ///
    /// Observers that meter rounds (budget enforcement) bound the span so a
    /// skip never overshoots their limit: returning `k` guarantees
    /// [`on_rounds_skipped`](RoundObserver::on_rounds_skipped) reports at
    /// most `k` rounds, letting cancellation land on exactly the same
    /// global round as a non-skipping run. Returning `0` disables
    /// fast-forward for the next span (the round executes normally).
    fn skip_allowance(&self) -> u64 {
        u64::MAX
    }

    /// Called after the simulator fast-forwarded a span of provably
    /// eventless rounds (no [`on_round`](RoundObserver::on_round) — and
    /// hence no per-round event — fires for them). `skipped` is the span
    /// length, never exceeding the preceding
    /// [`skip_allowance`](RoundObserver::skip_allowance). Return `false` to
    /// stop the run, exactly like `on_round`.
    fn on_rounds_skipped(&mut self, skipped: u64) -> bool {
        let _ = skipped;
        true
    }
}

/// The disabled observer: reports nothing, never cancels.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRoundObserver;

impl RoundObserver for NoopRoundObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn on_round(&mut self, _info: RoundInfo) -> bool {
        true
    }
}

/// Execution hooks threaded through a sequence of simulator runs: an
/// optional round observer and an optional worker pool, plus the sticky
/// [`stopped`](RunHooks::stopped) cancellation record.
///
/// `RunHooks` itself implements [`RoundObserver`] by delegation, so run
/// loops take it directly; when its observer cancels a run, `stopped`
/// latches `true` for the caller to inspect.
pub struct RunHooks<'a> {
    /// The observer receiving per-round reports, if any.
    pub observer: Option<&'a mut dyn RoundObserver>,
    /// The worker pool to attach to each simulator ([`RunHooks::attach`]),
    /// if any.
    pub pool: Option<&'a Arc<WorkerPool>>,
    /// Latched `true` when the observer cancelled a run. Callers that run
    /// several simulations against one `RunHooks` check this between runs.
    pub stopped: bool,
    /// Whether simulators attached through these hooks may fast-forward
    /// provably eventless rounds ([`Simulator::set_fast_forward`]).
    /// Defaults to `true`; the differential tests flip it to compare
    /// skip-enabled and skip-disabled executions of the same build.
    pub fast_forward: bool,
    /// The compact adjacency store to put each attached simulator on
    /// ([`Simulator::set_compact`]), if any. Must describe the same
    /// topology as the graph the simulators are built over; this is how a
    /// driver whose protocol entry points take `&Graph` opts every run of a
    /// staged engine into the compact read path without signature changes.
    pub compact: Option<Arc<CompactGraph>>,
}

impl RunHooks<'static> {
    /// Hooks with no observer and no pool — the silent default a
    /// standalone protocol run uses.
    pub fn none() -> Self {
        RunHooks {
            observer: None,
            pool: None,
            stopped: false,
            fast_forward: true,
            compact: None,
        }
    }
}

impl<'a> RunHooks<'a> {
    /// Hooks carrying an observer (and no pool).
    pub fn observed(observer: &'a mut dyn RoundObserver) -> Self {
        RunHooks {
            observer: Some(observer),
            pool: None,
            stopped: false,
            fast_forward: true,
            compact: None,
        }
    }

    /// Attaches the carried pool (if any), the fast-forward setting, and
    /// the compact store (if any) to `sim`. Call once per simulator, before
    /// running it.
    pub fn attach<P: NodeProgram + Send>(&self, sim: &mut Simulator<'_, P>) {
        if let Some(pool) = self.pool {
            sim.set_pool(Arc::clone(pool));
        }
        sim.set_fast_forward(self.fast_forward);
        if let Some(store) = &self.compact {
            sim.set_compact(Arc::clone(store));
        }
    }
}

impl RoundObserver for RunHooks<'_> {
    fn enabled(&self) -> bool {
        self.observer.as_ref().is_some_and(|o| o.enabled())
    }

    fn on_round(&mut self, info: RoundInfo) -> bool {
        let go = match self.observer.as_deref_mut() {
            Some(o) => o.on_round(info),
            None => true,
        };
        if !go {
            self.stopped = true;
        }
        go
    }

    fn skip_allowance(&self) -> u64 {
        self.observer
            .as_ref()
            .map_or(u64::MAX, |o| o.skip_allowance())
    }

    fn on_rounds_skipped(&mut self, skipped: u64) -> bool {
        let go = match self.observer.as_deref_mut() {
            Some(o) => o.on_rounds_skipped(skipped),
            None => true,
        };
        if !go {
            self.stopped = true;
        }
        go
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::Flood;
    use nas_graph::generators;

    /// Records every report; cancels after `stop_after` rounds if set.
    struct Recorder {
        seen: Vec<RoundInfo>,
        stop_after: Option<usize>,
    }

    impl RoundObserver for Recorder {
        fn on_round(&mut self, info: RoundInfo) -> bool {
            self.seen.push(info);
            self.stop_after.is_none_or(|k| self.seen.len() < k)
        }
    }

    #[test]
    fn observer_sees_every_round_with_exact_message_counts() {
        let g = generators::path(6);
        let mut sim = Simulator::new(&g, Flood::network(6, &[0]));
        let mut rec = Recorder {
            seen: Vec::new(),
            stop_after: None,
        };
        let outcome = sim.run_until_quiet_observed(100, &mut rec);
        assert!(outcome.quiescent);
        assert_eq!(rec.seen.len() as u64, outcome.rounds);
        // The per-round message counts sum to the aggregate.
        let total: u64 = rec.seen.iter().map(|i| i.messages).sum();
        assert_eq!(total, sim.stats().messages);
        // Round 0 is a wake-up round: all n nodes are visited.
        assert_eq!(rec.seen[0].active, 6);
        assert_eq!(rec.seen[0].round, 0);
        // Rounds are consecutive.
        for (k, info) in rec.seen.iter().enumerate() {
            assert_eq!(info.round, k as u64);
        }
    }

    #[test]
    fn observer_can_cancel_mid_run() {
        let g = generators::path(50);
        let mut sim = Simulator::new(&g, Flood::network(50, &[0]));
        let mut rec = Recorder {
            seen: Vec::new(),
            stop_after: Some(5),
        };
        let outcome = sim.run_until_quiet_observed(1000, &mut rec);
        assert!(!outcome.quiescent);
        assert_eq!(outcome.rounds, 5);
        assert_eq!(sim.round(), 5);
        // The run can resume afterwards and still finish correctly.
        let outcome = sim.run_until_quiet(1000);
        assert!(outcome.quiescent);
        assert_eq!(sim.programs()[49].dist, Some(49));
    }

    #[test]
    fn run_hooks_latch_stopped() {
        let g = generators::path(30);
        let mut sim = Simulator::new(&g, Flood::network(30, &[0]));
        let mut rec = Recorder {
            seen: Vec::new(),
            stop_after: Some(3),
        };
        let mut hooks = RunHooks::observed(&mut rec);
        assert!(hooks.enabled());
        sim.run_rounds_observed(100, &mut hooks);
        assert!(hooks.stopped);
        assert_eq!(rec.seen.len(), 3);
    }

    #[test]
    fn noop_observer_is_disabled_and_free() {
        let g = generators::path(6);
        let mut sim = Simulator::new(&g, Flood::network(6, &[0]));
        let executed = sim.run_rounds_observed(4, &mut NoopRoundObserver);
        assert_eq!(executed, 4);
        assert!(!RunHooks::none().enabled());
    }
}
