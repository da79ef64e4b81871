//! Workspace-level tests for the unified `Session` API: cross-backend
//! equivalence through the new surface, the observer event plane's ordering
//! guarantees, and budget/thread knobs.

use nas_congest::{RoundInfo, RoundObserver, RunHooks, RunStats};
use nas_core::algo1::PopularityInfo;
use nas_core::interconnect::Interconnection;
use nas_core::supercluster::Superclustering;
use nas_core::{
    build_with_engine, Backend, CongestEngine, Event, EventLog, Params, PhaseEngine, Session,
    SessionError,
};
use nas_graph::{generators, Graph};
use nas_ruling::{RulingParams, RulingSet};

fn workloads() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid2d(6,6)", generators::grid2d(6, 6)),
        (
            "connected_gnp(48, 0.1)",
            generators::connected_gnp(48, 0.1, 42),
        ),
        ("path(64)", generators::path(64)),
    ]
}

#[test]
fn all_backends_agree_through_the_session_surface() {
    let params = Params::practical(0.5, 4, 0.45);
    for (name, g) in workloads() {
        let run = |b: Backend| Session::on(&g).params(params).backend(b).run().unwrap();
        let central = run(Backend::Centralized);
        let congest = run(Backend::Congest);
        let local = run(Backend::Local);
        let full = run(Backend::Full);
        for r in [&congest, &local, &full] {
            assert_eq!(central.spanner, r.spanner, "{name}: {} differs", r.backend);
        }
        assert_eq!(central.settled, congest.settled, "{name}");
        assert_eq!(central.rounds(), 0, "{name}");
        assert!(congest.rounds() > 0, "{name}");
        assert!(
            congest.rounds() <= congest.schedule.total_round_bound(),
            "{name}: rounds exceed the Corollary 2.9 schedule bound"
        );
        assert!(full.rounds() >= congest.rounds(), "{name}: full < staged");
    }
}

/// The event-plane ordering contract, on both phase-emitting simulated
/// backends: per phase a `PhaseStarted` … (`RoundCompleted`)* …
/// `PhaseFinished` bracket, phases in schedule order, exactly one trailing
/// `BuildFinished`, and global round numbering that is strictly increasing
/// across phase boundaries. Numbering may gap where the simulator
/// fast-forwarded a span of provably eventless rounds (no `RoundCompleted`
/// fires for those); emitted + skipped rounds must reconcile exactly with
/// the report's totals.
#[test]
fn event_stream_is_properly_bracketed_and_numbered() {
    let g = generators::connected_gnp(40, 0.12, 7);
    for backend in [Backend::Congest, Backend::Full] {
        let mut log = EventLog::new();
        let report = Session::on(&g)
            .backend(backend)
            .observer(&mut log)
            .run()
            .unwrap();

        let mut open_phase: Option<usize> = None;
        let mut next_phase = 0usize;
        let mut next_round = 0u64;
        let mut finished = 0usize;
        let mut streamed_messages = 0u64;
        for e in &log.events {
            match *e {
                Event::PhaseStarted { phase, .. } => {
                    assert_eq!(open_phase, None, "{backend}: nested phase");
                    assert_eq!(phase, next_phase, "{backend}: phase order");
                    open_phase = Some(phase);
                }
                Event::RoundCompleted {
                    round, messages, ..
                } => {
                    assert!(open_phase.is_some(), "{backend}: round outside a phase");
                    // Gaps are fast-forwarded eventless spans; numbering
                    // must still be strictly increasing and globally
                    // aligned (a skipped span advances the counter).
                    assert!(round >= next_round, "{backend}: round numbering");
                    next_round = round + 1;
                    streamed_messages += messages;
                }
                Event::PhaseFinished { phase, stats } => {
                    assert_eq!(open_phase, Some(phase), "{backend}: unbalanced finish");
                    assert_eq!(stats.phase, phase);
                    open_phase = None;
                    next_phase += 1;
                }
                Event::BuildFinished {
                    rounds,
                    messages,
                    spanner_edges,
                } => {
                    finished += 1;
                    assert_eq!(rounds, report.rounds(), "{backend}");
                    assert_eq!(messages, report.messages(), "{backend}");
                    assert_eq!(spanner_edges, report.num_edges(), "{backend}");
                }
                other => panic!("{backend}: unexpected event {other:?}"),
            }
        }
        assert_eq!(open_phase, None, "{backend}: phase left open");
        assert_eq!(next_phase, report.phases.len(), "{backend}: phase count");
        assert_eq!(finished, 1, "{backend}: exactly one BuildFinished");
        assert_eq!(
            log.events
                .last()
                .map(|e| matches!(e, Event::BuildFinished { .. })),
            Some(true),
            "{backend}: BuildFinished must be last"
        );
        assert!(
            next_round <= report.rounds(),
            "{backend}: streamed round numbers must stay within the total"
        );
        let emitted = log
            .events
            .iter()
            .filter(|e| matches!(e, Event::RoundCompleted { .. }))
            .count() as u64;
        assert_eq!(
            emitted + report.stats.skipped_rounds,
            report.rounds(),
            "{backend}: every simulated round must be streamed or skipped"
        );
        assert_eq!(
            streamed_messages,
            report.messages(),
            "{backend}: streamed message counts must reconcile with stats \
             (skipped rounds carry no messages)"
        );
        // Per-phase rounds from the stream equal the report's records.
        let per_phase: Vec<u64> = log
            .events
            .iter()
            .filter_map(|e| match e {
                Event::PhaseFinished { stats, .. } => Some(stats.rounds),
                _ => None,
            })
            .collect();
        assert_eq!(
            per_phase,
            report.phases.iter().map(|p| p.rounds).collect::<Vec<_>>(),
            "{backend}"
        );
    }
}

/// Observation must not perturb execution: the observed run's report is
/// bit-identical to the silent run's.
#[test]
fn observers_are_side_effect_free() {
    let g = generators::connected_gnp(40, 0.12, 7);
    let silent = Session::on(&g).backend(Backend::Congest).run().unwrap();
    let mut log = EventLog::new();
    let watched = Session::on(&g)
        .backend(Backend::Congest)
        .observer(&mut log)
        .run()
        .unwrap();
    assert_eq!(silent.spanner, watched.spanner);
    assert_eq!(silent.stats, watched.stats);
    assert_eq!(silent.settled, watched.settled);
    assert!(log.rounds_seen() > 0);
}

#[test]
fn budget_cancellation_emits_no_build_finished() {
    let g = generators::connected_gnp(40, 0.12, 7);
    let full = Session::on(&g).backend(Backend::Congest).run().unwrap();
    let mut log = EventLog::new();
    let err = Session::on(&g)
        .backend(Backend::Congest)
        .round_budget(full.rounds() / 2)
        .observer(&mut log)
        .run()
        .unwrap_err();
    assert!(matches!(err, SessionError::RoundBudgetExhausted { .. }));
    assert!(
        !log.events
            .iter()
            .any(|e| matches!(e, Event::BuildFinished { .. })),
        "a cancelled build must not report completion"
    );
    // The stream stops at the budget-crossing round: nothing past the
    // budget is emitted (fast-forwarded eventless spans are metered by the
    // same counter, so cancellation cannot overshoot), and at least one
    // round must have streamed before cancellation.
    assert!(log.rounds_seen() > 0);
    assert!(log.rounds_seen() as u64 <= full.rounds() / 2 + 1);
}

#[test]
fn session_threads_knob_is_result_invariant() {
    let g = generators::connected_gnp(48, 0.1, 42);
    let params = Params::practical(0.5, 4, 0.45);
    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|t| {
            Session::on(&g)
                .params(params)
                .backend(Backend::Congest)
                .threads(t)
                .run()
                .unwrap()
        })
        .collect();
    for r in &runs[1..] {
        assert_eq!(runs[0].spanner, r.spanner);
        assert_eq!(runs[0].stats, r.stats);
        assert_eq!(runs[0].settled, r.settled);
    }
    // Same invariance on the full-protocol backend.
    let f1 = Session::on(&g)
        .params(params)
        .backend(Backend::Full)
        .threads(1)
        .run()
        .unwrap();
    let f4 = Session::on(&g)
        .params(params)
        .backend(Backend::Full)
        .threads(4)
        .run()
        .unwrap();
    assert_eq!(f1.spanner, f4.spanner);
    assert_eq!(f1.stats, f4.stats);
}

#[test]
fn report_carries_schedule_stretch_and_timings() {
    let g = generators::grid2d(7, 7);
    let r = Session::on(&g).backend(Backend::Congest).run().unwrap();
    assert_eq!(r.phases.len(), r.schedule.ell + 1);
    assert_eq!(r.phase_wall.len(), r.phases.len());
    assert!(r.wall >= r.phase_wall.iter().sum());
    let (alpha_env, beta_env) = r.schedule.stretch_envelope();
    assert_eq!(r.stretch.alpha_envelope, alpha_env);
    assert_eq!(r.stretch.beta_envelope, beta_env);
    assert_eq!(r.stretch.alpha_nominal, r.schedule.alpha_nominal());
    assert_eq!(r.stretch.beta_nominal, r.schedule.beta_nominal());
}

/// One stage call seen by [`StageProbe`].
struct StageCall {
    stage: &'static str,
    /// The stage's declared spontaneous actors (centers, `W`, roots,
    /// initiators).
    initial: usize,
    /// `(round, active)` of every executed round.
    visits: Vec<(u64, usize)>,
    /// Rounds the stage counted (executed plus fast-forwarded).
    rounds: u64,
    messages: u64,
}

/// Records each executed round's index and active-set size.
struct Visits(Vec<(u64, usize)>);

impl RoundObserver for Visits {
    fn on_round(&mut self, info: RoundInfo) -> bool {
        self.0.push((info.round, info.active));
        true
    }
}

/// A `PhaseEngine` that runs every stage on a `CongestEngine` under its own
/// round observer and records what each stage visited.
struct StageProbe {
    inner: CongestEngine,
    calls: Vec<StageCall>,
}

impl StageProbe {
    fn call<T>(
        &mut self,
        stage: &'static str,
        initial: usize,
        op: impl FnOnce(&mut CongestEngine, &mut RunHooks<'_>) -> T,
    ) -> T {
        let mut visits = Visits(Vec::new());
        let before = self.inner.stats();
        let out = op(&mut self.inner, &mut RunHooks::observed(&mut visits));
        let after = self.inner.stats();
        self.calls.push(StageCall {
            stage,
            initial,
            visits: visits.0,
            rounds: after.rounds - before.rounds,
            messages: after.messages - before.messages,
        });
        out
    }
}

impl PhaseEngine for StageProbe {
    fn detect_popular(
        &mut self,
        g: &Graph,
        centers: &[usize],
        is_center: &[bool],
        deg: usize,
        delta: u64,
        _hooks: &mut RunHooks<'_>,
    ) -> PopularityInfo {
        self.call("algo1", centers.len(), |e, h| {
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
        self.call("ruling", w.len(), |e, h| e.ruling_set(g, w, params, h))
    }

    fn supercluster(
        &mut self,
        g: &Graph,
        roots: &[usize],
        centers: &[usize],
        depth: u64,
        _hooks: &mut RunHooks<'_>,
    ) -> Superclustering {
        self.call("supercluster", roots.len(), |e, h| {
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
        self.call("interconnect", initiators.len(), |e, h| {
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

/// Every stage of a build installs into the engine's one arena and starts
/// from its declared spontaneous actors, not a full wake-up: round 0 visits
/// exactly that set, and a stage with an empty set visits nothing, sends
/// nothing, and still counts its rounds — an interconnection without
/// initiators its one round, a superclustering without roots its whole
/// `2·depth + 2`. The build is the `Session` build, bit for bit.
#[test]
fn zero_message_stages_visit_only_their_declared_initial_set() {
    // Every phase-0 center is popular (no initiators) and phase 1 has no
    // popular center (no superclustering roots).
    let g = generators::preferential_attachment(3000, 4, 42);
    let params = Params::practical(0.5, 4, 0.45);
    let mut probe = StageProbe {
        inner: CongestEngine::new(),
        calls: Vec::new(),
    };
    let built = build_with_engine(&g, params, &mut probe).unwrap();
    let session = Session::on(&g)
        .params(params)
        .backend(Backend::Congest)
        .run()
        .unwrap();
    assert_eq!(built.spanner, session.spanner);
    assert_eq!(built.stats, session.stats);

    for c in &probe.calls {
        if let Some(&(0, active)) = c.visits.first() {
            assert_eq!(active, c.initial, "{}: round 0 visits", c.stage);
        }
        if c.initial == 0 {
            let visited: usize = c.visits.iter().map(|&(_, a)| a).sum();
            assert_eq!(visited, 0, "{}: an empty stage visited nodes", c.stage);
            assert_eq!(c.messages, 0, "{}: an empty stage sent", c.stage);
        }
    }
    let empty = |stage: &str| -> Vec<&StageCall> {
        probe
            .calls
            .iter()
            .filter(|c| c.stage == stage && c.initial == 0)
            .collect()
    };
    let idle_interconnects = empty("interconnect");
    assert!(!idle_interconnects.is_empty(), "no initiator-free phase");
    for c in idle_interconnects {
        assert_eq!((c.rounds, c.visits.len()), (1, 1));
    }
    let rootless = empty("supercluster");
    assert!(!rootless.is_empty(), "no rootless superclustering");
    for c in rootless {
        assert!(c.rounds >= 2, "superclustering counts its whole schedule");
        assert!(
            c.visits.is_empty(),
            "an eventless schedule executes nothing"
        );
    }
}
