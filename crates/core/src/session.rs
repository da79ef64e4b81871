//! The unified, fluent entry point: [`Session`] → [`Report`].
//!
//! A `Session` is the one way to run the construction: one composable
//! builder for parameters, backend, adjacency store, worker pool, round
//! budget and observer, returning one [`Report`] for every backend:
//!
//! ```
//! use nas_core::{Backend, Params, Session};
//! use nas_graph::generators;
//!
//! let g = generators::grid2d(8, 8);
//! let report = Session::on(&g)
//!     .params(Params::practical(0.5, 4, 0.45))
//!     .backend(Backend::Congest)
//!     .run()?;
//! assert!(report.num_edges() <= g.num_edges());
//! assert!(report.stats.rounds > 0); // the CONGEST backend measures time
//! # Ok::<(), nas_core::SessionError>(())
//! ```
//!
//! # Builder knobs ↔ the paper's parameters
//!
//! | knob | paper quantity | effect |
//! |------|----------------|--------|
//! | [`Session::eps`] (or [`Session::params`]) | `ε` — multiplicative stretch slack | the spanner is a `(1+ε, β)`-spanner; smaller `ε` means tighter stretch but more phases and a larger `β` |
//! | [`Session::kappa`] | `κ` — size exponent | the spanner has `O(β·n^{1+1/κ})` edges |
//! | [`Session::rho`] | `ρ` — time exponent | the CONGEST construction runs in `O(β·n^ρ·ρ⁻¹)` rounds; must satisfy `1/κ ≤ ρ < 1/2` |
//!
//! The additive term `β` is **derived**, not chosen: the returned
//! [`Report::stretch`] carries the nominal `(α, β)` of Corollary 2.17 and
//! the provable envelope of the Lemma 2.15/2.16 recursion for the exact
//! schedule the run used.
//!
//! # Backends
//!
//! [`Backend`] selects how the *same* deterministic construction executes:
//! the centralized reference (no cost model), the staged CONGEST engine
//! (every step a real protocol on the simulator — measured rounds), the
//! LOCAL-model cost accounting, or the single-simulation full protocol
//! (every stage transition a local decision; rounds equal the schedule
//! bound). All backends produce the **same spanner** — the paper's
//! headline determinism — so switching backends switches *cost semantics*,
//! never output.
//!
//! # The observer event plane
//!
//! Attach an [`Observer`] ([`Session::observer`]) to stream typed
//! [`Event`]s while the build runs: [`Event::PhaseStarted`] /
//! [`Event::PhaseFinished`] from the phase loop,
//! [`Event::RoundCompleted`] for every simulated round (CONGEST and full
//! backends), and a final [`Event::BuildFinished`]. Events are plain `Copy`
//! values pushed through a `&mut dyn` reference — nothing is retained, and
//! the no-observer path allocates nothing. Progress bars, streaming
//! metrics, and cancellation therefore no longer require recording full
//! transcripts.
//!
//! A [`Session::round_budget`] caps the simulated rounds: the run is
//! cancelled (via the same event plane) as soon as the budget is exceeded
//! and [`Session::run`] returns [`SessionError::RoundBudgetExhausted`].
//! Round-granular for the simulating backends; phase-granular for the
//! LOCAL backend (its rounds are accounted, not simulated); never triggers
//! on the centralized backend (zero rounds by definition).

use crate::driver::{build_with_engine_ctl, PhaseStats, SpannerResult};
use crate::engine::{CentralizedEngine, CongestEngine};
use crate::full::run_full_ctl;
use crate::local::LocalEngine;
use crate::params::{ParamError, Params, Schedule};
use nas_congest::{RoundInfo, RoundObserver, RunStats};
use nas_graph::{CompactGraph, EdgeSet, Graph, WeightedGraph};
use nas_par::WorkerPool;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which execution backend a [`Session`] runs the construction on.
///
/// All backends produce bit-identical spanners (asserted across the test
/// suite); they differ only in cost semantics. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The centralized reference implementations — fastest wall clock, no
    /// cost model (`stats` are all zero).
    #[default]
    Centralized,
    /// The staged CONGEST engine: every per-phase operation is a real
    /// protocol on the `nas-congest` simulator, with exact round/message
    /// accounting (the quantity Corollary 2.9 bounds).
    Congest,
    /// Centralized execution under LOCAL-model cost accounting (unbounded
    /// message size — `δ_i` rounds per exploration instead of
    /// `δ_i·(deg_i+1)`), for the LOCAL-vs-CONGEST comparison.
    Local,
    /// The entire construction as **one** CONGEST simulation in which every
    /// stage transition is a local decision (nodes count rounds against the
    /// schedule). Rounds equal the fixed schedule length; per-phase
    /// structural counters are not observable and read as zero.
    Full,
}

impl Backend {
    /// A short stable name, for logs and benchmark records.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Centralized => "centralized",
            Backend::Congest => "congest",
            Backend::Local => "local",
            Backend::Full => "full",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which adjacency representation the **simulating** backends read.
///
/// Transcripts, spanners, stats — everything a run reports — are
/// bit-identical between the stores (pinned by differential tests down in
/// `nas-congest`); the knob trades decode time for memory. On
/// [`Backend::Centralized`] and [`Backend::Local`] nothing is simulated, so
/// the knob has no effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Store {
    /// The flat CSR of the input [`Graph`] plus a lazily built
    /// reverse-port table — fastest, `O(m)` extra memory.
    #[default]
    Flat,
    /// The delta/varint [`nas_graph::CompactGraph`]: the
    /// session encodes the input graph once and every simulator decodes
    /// adjacency per visit into pooled scratch. No reverse-port table is
    /// ever materialized; ~3–6× less adjacency memory at the cost of
    /// decode work.
    Compact,
}

impl Store {
    /// A short stable name, for logs and benchmark records.
    pub fn name(&self) -> &'static str {
        match self {
            Store::Flat => "flat",
            Store::Compact => "compact",
        }
    }
}

impl fmt::Display for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed progress event streamed to a [`Session`]'s [`Observer`].
///
/// Events are `Copy` and borrowed by the observer — nothing is retained by
/// the emitting side. The enum is `#[non_exhaustive]`: the plane is
/// designed to grow, so downstream matches need a wildcard arm and future
/// variants are not breaking changes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// A phase of the §2.1 schedule is starting.
    PhaseStarted {
        /// The phase index `i` (`0..=ℓ`).
        phase: usize,
        /// `|P_i|` — clusters entering the phase (0 on the full-protocol
        /// backend, where no global view exists).
        clusters: usize,
        /// The phase's distance threshold `δ_i`.
        delta: u64,
        /// The phase's degree threshold `deg_i`.
        deg: u64,
    },
    /// One simulated CONGEST round completed (CONGEST and full backends
    /// only — the centralized and LOCAL backends simulate nothing).
    RoundCompleted {
        /// Cumulative simulated-round index across the whole build
        /// (0-based).
        round: u64,
        /// Messages sent during this round.
        messages: u64,
        /// Nodes visited by this round (the simulator's active set).
        active: usize,
    },
    /// A phase finished; `stats` is the phase's complete record.
    PhaseFinished {
        /// The phase index `i`.
        phase: usize,
        /// The per-phase record (structural counters are zero on the
        /// full-protocol backend).
        stats: PhaseStats,
    },
    /// The build completed successfully (not emitted on error).
    BuildFinished {
        /// Total rounds under the backend's cost model.
        rounds: u64,
        /// Total messages sent (0 for non-simulating backends).
        messages: u64,
        /// Edges in the finished spanner.
        spanner_edges: usize,
    },
}

/// A streaming consumer of build [`Event`]s. Attach via
/// [`Session::observer`].
///
/// Any `FnMut(&Event)` closure is an observer; [`EventLog`] is a ready-made
/// recording one.
pub trait Observer {
    /// Called for every emitted event, in order.
    fn on_event(&mut self, event: &Event);

    /// Whether this observer consumes [`Event::RoundCompleted`]. Observers
    /// that only need phase-level events override this to `false`: round
    /// events are then neither computed (the simulator skips the per-round
    /// active-set count) nor emitted. Consulted once per simulator run.
    fn wants_rounds(&self) -> bool {
        true
    }
}

impl<F: FnMut(&Event)> Observer for F {
    fn on_event(&mut self, event: &Event) {
        self(event)
    }
}

/// An [`Observer`] that records every event — convenient for tests and
/// post-hoc inspection.
#[derive(Debug, Default)]
pub struct EventLog {
    /// The recorded events, in emission order.
    pub events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of [`Event::RoundCompleted`] events recorded.
    pub fn rounds_seen(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::RoundCompleted { .. }))
            .count()
    }
}

impl Observer for EventLog {
    fn on_event(&mut self, event: &Event) {
        self.events.push(*event);
    }
}

/// Errors from [`Session::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// Parameter or schedule validation failed.
    Param(ParamError),
    /// The [`Session::round_budget`] was exceeded; the build was cancelled.
    RoundBudgetExhausted {
        /// The configured budget.
        budget: u64,
        /// Rounds executed (under the backend's cost model) when the build
        /// was cancelled — at most one round past the budget for simulating
        /// backends, at most one phase past it for the LOCAL backend.
        executed: u64,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Param(e) => write!(f, "invalid parameters: {e}"),
            SessionError::RoundBudgetExhausted { budget, executed } => {
                write!(f, "round budget {budget} exhausted after {executed} rounds")
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Param(e) => Some(e),
            SessionError::RoundBudgetExhausted { .. } => None,
        }
    }
}

impl From<ParamError> for SessionError {
    fn from(e: ParamError) -> Self {
        SessionError::Param(e)
    }
}

impl SessionError {
    /// Unwraps the [`SessionError::Param`] variant on code paths that
    /// configure no round budget (`build_with_engine`), where budget
    /// exhaustion is impossible by construction.
    pub(crate) fn expect_param(self) -> ParamError {
        match self {
            SessionError::Param(p) => p,
            SessionError::RoundBudgetExhausted { .. } => {
                unreachable!("no round budget configured on the silent path")
            }
        }
    }
}

/// The stretch guarantees of the schedule a run used — the "what did I
/// buy" summary every [`Report`] carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchSummary {
    /// Nominal multiplicative stretch `1 + 30·ε_int·ℓ/ρ` (Corollary 2.17).
    pub alpha_nominal: f64,
    /// Nominal additive stretch `30/(ρ·ε_int^{ℓ−1})` (Corollary 2.17).
    pub beta_nominal: f64,
    /// Provable multiplicative envelope for the exact integer schedule
    /// (Lemma 2.15/2.16 recursion; see [`Schedule::stretch_envelope`]).
    pub alpha_envelope: f64,
    /// Provable additive envelope for the exact integer schedule.
    pub beta_envelope: f64,
}

/// The unified result of a [`Session`] run — one type for every backend.
#[derive(Debug, Clone)]
pub struct Report {
    /// The backend that executed the run.
    pub backend: Backend,
    /// The adjacency store the run's simulators read ([`Store::Flat`]
    /// whenever nothing was simulated).
    pub store: Store,
    /// The parameters the run was configured with.
    pub params: Params,
    /// The fully derived per-phase schedule.
    pub schedule: Schedule,
    /// The spanner edge set `H`.
    pub spanner: EdgeSet,
    /// Aggregate cost under the backend's model (all zero for
    /// [`Backend::Centralized`]).
    pub stats: RunStats,
    /// Per-phase records (structural counters are zero on
    /// [`Backend::Full`], which has no global view).
    pub phases: Vec<PhaseStats>,
    /// For every vertex: `(phase, center)` of the settled cluster it ended
    /// in (Corollary 2.5). Empty on [`Backend::Full`] — settlement is not
    /// observable from a single composite simulation.
    pub settled: Vec<Option<(usize, u32)>>,
    /// Wall-clock time spent in each phase (parallel to
    /// [`Report::phases`]).
    pub phase_wall: Vec<Duration>,
    /// Total wall-clock time of the run.
    pub wall: Duration,
    /// The stretch guarantees of the schedule used.
    pub stretch: StretchSummary,
}

impl Report {
    /// Number of edges in the spanner.
    pub fn num_edges(&self) -> usize {
        self.spanner.len()
    }

    /// Materializes the spanner as a graph.
    pub fn to_graph(&self) -> Graph {
        self.spanner.to_graph()
    }

    /// Materializes the spanner as a **weighted** graph, each edge
    /// inheriting its weight from `parent` — the weighted graph whose
    /// skeleton ([`WeightedGraph::graph`]) the run was built on. The
    /// construction never reads weights; pair the result with
    /// `nas_metrics`'s weighted audits to measure what the same edge set
    /// achieves as a multiplicative spanner over weighted distances (an
    /// empirical figure: the `(1+ε, β)` guarantee is for hop distances).
    ///
    /// # Panics
    ///
    /// Panics if some spanner edge is not present in `parent` (i.e.
    /// `parent` is not the graph the run was built on).
    pub fn to_weighted_graph(&self, parent: &WeightedGraph) -> WeightedGraph {
        parent.subgraph(self.spanner.iter())
    }

    /// Total rounds under the backend's cost model.
    pub fn rounds(&self) -> u64 {
        self.stats.rounds
    }

    /// Total messages sent (0 for non-simulating backends).
    pub fn messages(&self) -> u64 {
        self.stats.messages
    }

    /// The phase in which `v`'s cluster settled.
    ///
    /// # Panics
    ///
    /// Panics if settlement was not tracked ([`Backend::Full`]) or `v`
    /// never settled (would contradict Corollary 2.5).
    pub fn settled_phase(&self, v: usize) -> usize {
        self.settled
            .get(v)
            .copied()
            .flatten()
            .expect("settlement tracked for this backend (Corollary 2.5)")
            .0
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} spanner edges in {} phases, {} ({:.1?})",
            self.backend,
            self.num_edges(),
            self.phases.len(),
            self.stats,
            self.wall
        )
    }
}

/// The internal event conduit: owns the user's observer for the duration of
/// one run, translates simulator-level [`RoundInfo`] reports into
/// [`Event::RoundCompleted`], enforces the round budget, and collects
/// per-phase wall timings.
///
/// One conduit serves both planes: the phase loop calls
/// [`Conduit::phase_started`] / [`Conduit::phase_finished`] directly, and
/// hands `&mut Conduit` (as a [`RoundObserver`]) into each engine
/// operation's [`nas_congest::RunHooks`].
pub(crate) struct Conduit<'o> {
    user: Option<&'o mut dyn Observer>,
    /// [`Observer::wants_rounds`], latched once at construction: whether
    /// executed rounds are emitted as [`Event::RoundCompleted`].
    stream_rounds: bool,
    budget: Option<u64>,
    /// Rounds seen through the simulator-level observer plane.
    simulated: u64,
    /// Rounds accounted through finished phases (the cost-model sum).
    accounted: u64,
    exhausted: bool,
    phase_started_at: Option<Instant>,
    phase_wall: Vec<Duration>,
    /// Whether simulators run under this conduit may fast-forward
    /// eventless rounds (threaded into every engine operation's
    /// [`nas_congest::RunHooks`]).
    fast_forward: bool,
}

impl<'o> Conduit<'o> {
    pub(crate) fn new(user: Option<&'o mut dyn Observer>, budget: Option<u64>) -> Self {
        Conduit {
            stream_rounds: user.as_ref().is_some_and(|u| u.wants_rounds()),
            user,
            budget,
            simulated: 0,
            accounted: 0,
            exhausted: false,
            phase_started_at: None,
            phase_wall: Vec::new(),
            fast_forward: true,
        }
    }

    pub(crate) fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    pub(crate) fn fast_forward_enabled(&self) -> bool {
        self.fast_forward
    }

    /// A silent conduit with no budget — what `build_with_engine` runs
    /// with; every emission and check below is a no-op.
    pub(crate) fn noop() -> Conduit<'static> {
        Conduit::new(None, None)
    }

    fn emit(&mut self, event: Event) {
        if let Some(user) = self.user.as_deref_mut() {
            user.on_event(&event);
        }
    }

    pub(crate) fn phase_started(&mut self, phase: usize, clusters: usize, delta: u64, deg: u64) {
        self.phase_started_at = Some(Instant::now());
        self.emit(Event::PhaseStarted {
            phase,
            clusters,
            delta,
            deg,
        });
    }

    pub(crate) fn phase_finished(&mut self, stats: &PhaseStats) {
        let wall = self
            .phase_started_at
            .take()
            .map(|t| t.elapsed())
            .unwrap_or_default();
        self.phase_wall.push(wall);
        self.accounted += stats.rounds;
        self.emit(Event::PhaseFinished {
            phase: stats.phase,
            stats: *stats,
        });
        if self.budget.is_some_and(|b| self.accounted > b) {
            self.exhausted = true;
        }
    }

    pub(crate) fn build_finished(&mut self, stats: &RunStats, spanner_edges: usize) {
        self.emit(Event::BuildFinished {
            rounds: stats.rounds,
            messages: stats.messages,
            spanner_edges,
        });
    }

    /// Errors out if a budget check or a cancelled simulator run marked the
    /// build exhausted. The phase loop calls this after every engine
    /// operation (before touching its result) and after every phase.
    pub(crate) fn bail(&self) -> Result<(), SessionError> {
        if self.exhausted {
            Err(SessionError::RoundBudgetExhausted {
                budget: self.budget.expect("exhausted implies a budget"),
                executed: self.simulated.max(self.accounted),
            })
        } else {
            Ok(())
        }
    }

    pub(crate) fn take_phase_wall(&mut self) -> Vec<Duration> {
        std::mem::take(&mut self.phase_wall)
    }
}

impl RoundObserver for Conduit<'_> {
    fn enabled(&self) -> bool {
        self.user.is_some() || self.budget.is_some()
    }

    fn on_round(&mut self, info: RoundInfo) -> bool {
        let round = self.simulated;
        self.simulated += 1;
        if self.stream_rounds {
            self.emit(Event::RoundCompleted {
                round,
                messages: info.messages,
                active: info.active,
            });
        }
        if self.budget.is_some_and(|b| self.simulated > b) {
            self.exhausted = true;
            return false;
        }
        true
    }

    /// With a budget, bound each fast-forward span to the rounds left
    /// before exhaustion (+1 so the span can *reach* the cancellation
    /// point): cancellation then lands on exactly the same global round as
    /// a non-skipping run. Unmetered conduits leave spans unbounded.
    fn skip_allowance(&self) -> u64 {
        match self.budget {
            Some(b) => (b + 1).saturating_sub(self.simulated),
            None => u64::MAX,
        }
    }

    /// Skipped spans advance the same `simulated` counter as executed
    /// rounds (so [`Event::RoundCompleted`] numbering stays globally
    /// aligned across gaps) but emit no per-round events — a skipped round
    /// provably carries no activity.
    fn on_rounds_skipped(&mut self, skipped: u64) -> bool {
        self.simulated += skipped;
        if self.budget.is_some_and(|b| self.simulated > b) {
            self.exhausted = true;
            return false;
        }
        true
    }
}

/// The fluent entry point: configure a run, then [`Session::run`] it.
///
/// See the module docs for the knob ↔ paper-parameter mapping, the backend
/// catalogue, and the observer event plane. Defaults: the standard
/// experiment point `(ε, κ, ρ) = (0.5, 4, 0.45)` in practical mode,
/// [`Backend::Centralized`], worker-pool threads inherited from the
/// process-wide `nas-par` pool (`NAS_THREADS`), no round budget, no
/// observer.
pub struct Session<'g, 'o> {
    graph: &'g Graph,
    params: Params,
    backend: Backend,
    store: Store,
    threads: Option<usize>,
    round_budget: Option<u64>,
    fast_forward: bool,
    observer: Option<&'o mut dyn Observer>,
}

impl<'g> Session<'g, 'static> {
    /// Starts configuring a run on `graph`.
    pub fn on(graph: &'g Graph) -> Self {
        Session {
            graph,
            params: Params::practical(0.5, 4, 0.45),
            backend: Backend::default(),
            store: Store::default(),
            threads: None,
            round_budget: None,
            fast_forward: true,
            observer: None,
        }
    }
}

impl<'g, 'o> Session<'g, 'o> {
    /// Sets the full parameter point `(ε, κ, ρ)` plus constant mode.
    pub fn params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Sets `ε`, the multiplicative stretch slack (paper eq. (1)).
    pub fn eps(mut self, eps: f64) -> Self {
        self.params.eps = eps;
        self
    }

    /// Sets `κ`, the size exponent: the spanner has `O(β·n^{1+1/κ})` edges.
    pub fn kappa(mut self, kappa: u32) -> Self {
        self.params.kappa = kappa;
        self
    }

    /// Sets `ρ`, the time exponent: `O(β·n^ρ·ρ⁻¹)` CONGEST rounds. Must
    /// satisfy `1/κ ≤ ρ < 1/2` (validated at [`Session::run`]).
    pub fn rho(mut self, rho: f64) -> Self {
        self.params.rho = rho;
        self
    }

    /// Selects the execution backend (default [`Backend::Centralized`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the adjacency store the simulating backends read (default
    /// [`Store::Flat`]). With [`Store::Compact`] the session encodes the
    /// graph into a [`nas_graph::CompactGraph`] once and
    /// every simulator of the run decodes neighbors on the fly — reports
    /// stay bit-identical, only memory and wall clock move. A no-op on the
    /// non-simulating backends.
    pub fn store(mut self, store: Store) -> Self {
        self.store = store;
        self
    }

    /// Sizes the worker pool the simulating backends shard their rounds
    /// over. `1` runs every round on one lane of the calling thread, with
    /// no pool; values `> 1` create a dedicated pool for this run. Unset
    /// inherits the process-wide pool (`NAS_THREADS` /
    /// `nas_par::init_global`). Transcripts and results are bit-identical
    /// at every thread count — this knob only moves wall clock.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Caps the simulated rounds: the run is cancelled as soon as the cap
    /// is exceeded and [`Session::run`] returns
    /// [`SessionError::RoundBudgetExhausted`]. Phase-granular on
    /// [`Backend::Local`] (accounted rounds); never triggers on
    /// [`Backend::Centralized`] (zero rounds).
    pub fn round_budget(mut self, rounds: u64) -> Self {
        self.round_budget = Some(rounds);
        self
    }

    /// Enables or disables round fast-forward on the simulating backends
    /// (default **on**; see
    /// [`nas_congest::Simulator::set_fast_forward`]). Reports — edges,
    /// schedule, settled map, rounds, messages — are bit-identical either
    /// way; only [`RunStats::skipped_rounds`] (and wall clock) differ. The
    /// off position exists for the differential tests that pin exactly
    /// that equivalence.
    pub fn fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Attaches a streaming [`Observer`] for typed progress [`Event`]s.
    pub fn observer<'o2>(self, observer: &'o2 mut dyn Observer) -> Session<'g, 'o2> {
        Session {
            graph: self.graph,
            params: self.params,
            backend: self.backend,
            store: self.store,
            threads: self.threads,
            round_budget: self.round_budget,
            fast_forward: self.fast_forward,
            observer: Some(observer),
        }
    }

    /// Executes the configured run and returns the unified [`Report`].
    ///
    /// # Errors
    ///
    /// [`SessionError::Param`] on invalid `(ε, κ, ρ)` or an unrunnable
    /// schedule; [`SessionError::RoundBudgetExhausted`] when a configured
    /// [`Session::round_budget`] cancels the build.
    pub fn run(self) -> Result<Report, SessionError> {
        let Session {
            graph,
            params,
            backend,
            store,
            threads,
            round_budget,
            fast_forward,
            observer,
        } = self;
        // Only the simulating backends shard rounds over a pool; resolving
        // it lazily here keeps centralized/LOCAL runs from spawning worker
        // threads (or freezing the process-wide pool's size) they never use.
        let wants_pool = matches!(backend, Backend::Congest | Backend::Full);
        let pool: Option<Arc<WorkerPool>> = match threads {
            _ if !wants_pool => None,
            Some(t) if t > 1 => Some(Arc::new(WorkerPool::new(t))),
            Some(_) => None,
            None => {
                let global = nas_par::global_arc();
                (global.threads() > 1).then_some(global)
            }
        };
        // The compact store only changes what *simulators* read; encode it
        // once here so every sub-simulation of the run shares one copy.
        // Non-simulating backends never decode it — skip the encode.
        let wants_store = matches!(backend, Backend::Congest | Backend::Full);
        let compact: Option<Arc<CompactGraph>> = (wants_store && store == Store::Compact)
            .then(|| Arc::new(CompactGraph::from_graph(graph)));
        let mut conduit = Conduit::new(observer, round_budget);
        conduit.set_fast_forward(fast_forward);
        let start = Instant::now();
        let built: SpannerResult = match backend {
            Backend::Centralized => build_with_engine_ctl(
                graph,
                params,
                &mut CentralizedEngine,
                &mut conduit,
                pool.as_ref(),
                compact.as_ref(),
            )?,
            Backend::Congest => build_with_engine_ctl(
                graph,
                params,
                &mut CongestEngine::new(),
                &mut conduit,
                pool.as_ref(),
                compact.as_ref(),
            )?,
            Backend::Local => build_with_engine_ctl(
                graph,
                params,
                &mut LocalEngine::new(),
                &mut conduit,
                pool.as_ref(),
                compact.as_ref(),
            )?,
            Backend::Full => {
                run_full_ctl(graph, params, &mut conduit, pool.as_ref(), compact.as_ref())?
            }
        };
        let wall = start.elapsed();
        conduit.build_finished(&built.stats, built.spanner.len());
        let phase_wall = conduit.take_phase_wall();
        drop(conduit);
        let (alpha_envelope, beta_envelope) = built.schedule.stretch_envelope();
        Ok(Report {
            backend,
            store: if compact.is_some() {
                Store::Compact
            } else {
                Store::Flat
            },
            params,
            stretch: StretchSummary {
                alpha_nominal: built.schedule.alpha_nominal(),
                beta_nominal: built.schedule.beta_nominal(),
                alpha_envelope,
                beta_envelope,
            },
            schedule: built.schedule,
            spanner: built.spanner,
            stats: built.stats,
            phases: built.phases,
            settled: built.settled,
            phase_wall,
            wall,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nas_graph::generators;

    #[test]
    fn all_backends_agree_on_the_spanner() {
        let g = generators::connected_gnp(36, 0.12, 9);
        let reports: Vec<Report> = [
            Backend::Centralized,
            Backend::Congest,
            Backend::Local,
            Backend::Full,
        ]
        .into_iter()
        .map(|b| Session::on(&g).backend(b).run().unwrap())
        .collect();
        for r in &reports[1..] {
            assert_eq!(reports[0].spanner, r.spanner, "{} differs", r.backend);
        }
        // Cost models differ as specified.
        assert_eq!(reports[0].rounds(), 0);
        assert!(reports[1].rounds() > 0);
        assert!(reports[2].rounds() < reports[1].rounds(), "LOCAL < CONGEST");
        assert!(reports[3].rounds() >= reports[1].rounds(), "full ≥ staged");
        // Settlement is tracked on all but the full backend.
        assert!(reports[0].settled.iter().all(|s| s.is_some()));
        assert_eq!(reports[0].settled, reports[1].settled);
        assert!(reports[3].settled.is_empty());
    }

    #[test]
    fn compact_store_reports_are_bit_identical() {
        let g = generators::connected_gnp(40, 0.12, 21);
        for backend in [Backend::Congest, Backend::Full] {
            let flat = Session::on(&g).backend(backend).run().unwrap();
            assert_eq!(flat.store, Store::Flat);
            for threads in [1usize, 4] {
                let compact = Session::on(&g)
                    .backend(backend)
                    .store(Store::Compact)
                    .threads(threads)
                    .run()
                    .unwrap();
                assert_eq!(compact.store, Store::Compact);
                assert_eq!(
                    compact.spanner, flat.spanner,
                    "{backend} spanner drifted on compact at {threads} threads"
                );
                assert_eq!(compact.stats, flat.stats, "{backend} stats drifted");
                assert_eq!(compact.settled, flat.settled, "{backend} settled drifted");
                assert_eq!(compact.phases, flat.phases, "{backend} phases drifted");
            }
        }
        // On a non-simulating backend the knob is a recorded no-op.
        let r = Session::on(&g).store(Store::Compact).run().unwrap();
        assert_eq!(r.store, Store::Flat);
        assert_eq!(Store::Compact.to_string(), "compact");
    }

    #[test]
    fn fluent_knobs_map_to_params() {
        let g = generators::grid2d(5, 5);
        let r = Session::on(&g).eps(0.25).kappa(8).rho(0.3).run().unwrap();
        assert_eq!(
            r.params,
            Params::practical(0.25, 8, 0.3),
            "knobs must compose into the practical parameter point"
        );
        assert_eq!(r.schedule.params, r.params);
    }

    #[test]
    fn invalid_params_error_is_structured() {
        let g = generators::path(10);
        let err = Session::on(&g).kappa(1).run().unwrap_err();
        match err {
            SessionError::Param(ParamError::KappaTooSmall(1)) => {}
            other => panic!("expected KappaTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn report_display_and_accessors() {
        let g = generators::grid2d(4, 4);
        let r = Session::on(&g).run().unwrap();
        assert_eq!(r.num_edges(), r.spanner.len());
        assert_eq!(r.messages(), 0);
        assert_eq!(r.phase_wall.len(), r.phases.len());
        assert!(r.stretch.beta_envelope >= r.stretch.alpha_nominal - 1.0);
        let s = r.to_string();
        assert!(s.contains("centralized"), "{s}");
        assert_eq!(r.settled_phase(0), r.settled[0].unwrap().0);
    }

    #[test]
    fn round_budget_cancels_congest_build() {
        let g = generators::connected_gnp(36, 0.12, 9);
        let full = Session::on(&g).backend(Backend::Congest).run().unwrap();
        let budget = full.rounds() / 2;
        let err = Session::on(&g)
            .backend(Backend::Congest)
            .round_budget(budget)
            .run()
            .unwrap_err();
        match err {
            SessionError::RoundBudgetExhausted {
                budget: b,
                executed,
            } => {
                assert_eq!(b, budget);
                assert!(executed > budget && executed <= budget + 2);
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        // A sufficient budget completes and is not an error.
        let ok = Session::on(&g)
            .backend(Backend::Congest)
            .round_budget(full.rounds())
            .run()
            .unwrap();
        assert_eq!(ok.spanner, full.spanner);
    }

    #[test]
    fn round_budget_cancels_full_build() {
        let g = generators::grid2d(5, 5);
        let full = Session::on(&g).backend(Backend::Full).run().unwrap();
        let err = Session::on(&g)
            .backend(Backend::Full)
            .round_budget(full.rounds() / 3)
            .run()
            .unwrap_err();
        assert!(matches!(err, SessionError::RoundBudgetExhausted { .. }));
    }

    #[test]
    fn round_budget_is_phase_granular_on_local() {
        let g = generators::connected_gnp(36, 0.12, 9);
        let full = Session::on(&g).backend(Backend::Local).run().unwrap();
        assert!(full.rounds() > 2);
        let err = Session::on(&g)
            .backend(Backend::Local)
            .round_budget(1)
            .run()
            .unwrap_err();
        assert!(matches!(err, SessionError::RoundBudgetExhausted { .. }));
    }

    #[test]
    fn budget_never_triggers_on_centralized() {
        let g = generators::grid2d(5, 5);
        let r = Session::on(&g).round_budget(0).run().unwrap();
        assert_eq!(r.rounds(), 0);
    }

    #[test]
    fn observers_can_opt_out_of_round_events() {
        struct PhasesOnly {
            rounds: usize,
            phases: usize,
        }
        impl Observer for PhasesOnly {
            fn on_event(&mut self, e: &Event) {
                match e {
                    Event::RoundCompleted { .. } => self.rounds += 1,
                    Event::PhaseFinished { .. } => self.phases += 1,
                    _ => {}
                }
            }
            fn wants_rounds(&self) -> bool {
                false
            }
        }
        let g = generators::grid2d(5, 5);
        let mut obs = PhasesOnly {
            rounds: 0,
            phases: 0,
        };
        let r = Session::on(&g)
            .backend(Backend::Congest)
            .observer(&mut obs)
            .run()
            .unwrap();
        assert_eq!(obs.rounds, 0, "opted out of round events");
        assert_eq!(obs.phases, r.phases.len());
        assert!(r.rounds() > 0);
    }

    #[test]
    fn closure_observers_work() {
        let g = generators::grid2d(5, 5);
        let mut finished = 0usize;
        let mut obs = |e: &Event| {
            if matches!(e, Event::BuildFinished { .. }) {
                finished += 1;
            }
        };
        Session::on(&g)
            .backend(Backend::Congest)
            .observer(&mut obs)
            .run()
            .unwrap();
        assert_eq!(finished, 1);
    }

    #[test]
    fn threads_do_not_change_results() {
        let g = generators::connected_gnp(40, 0.1, 4);
        let seq = Session::on(&g)
            .backend(Backend::Congest)
            .threads(1)
            .run()
            .unwrap();
        let par = Session::on(&g)
            .backend(Backend::Congest)
            .threads(3)
            .run()
            .unwrap();
        assert_eq!(seq.spanner, par.spanner);
        assert_eq!(seq.stats, par.stats);
        assert_eq!(seq.settled, par.settled);
    }
}
