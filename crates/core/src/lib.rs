//! The Elkin–Matar deterministic CONGEST near-additive spanner (PODC 2019).
//!
//! This crate is the paper's primary contribution, implemented end-to-end:
//! given an unweighted undirected graph and parameters `(ε, κ, ρ)`, it
//! constructs a `(1+ε, β)`-spanner with `O(β·n^{1+1/κ})` edges in
//! `O(β·n^ρ·ρ⁻¹)` deterministic CONGEST rounds, where
//! `β = (O(log κρ + ρ⁻¹)/(ρε))^{log κρ + ρ⁻¹ + O(1)}` (Corollary 2.18).
//!
//! # Architecture
//!
//! The construction proceeds in `ℓ+1` phases over a shrinking collection of
//! clusters (the *superclustering-and-interconnection* framework of
//! Elkin–Peleg):
//!
//! 1. [`params`] derives the per-phase schedule: distance thresholds `δ_i`,
//!    degree thresholds `deg_i`, radius bounds `R_i`, phase count `ℓ`.
//! 2. [`algo1`] (the paper's Appendix-A procedure) lets every cluster center
//!    discover up to `deg_i` centers within `δ_i` — *popular* centers (with
//!    `≥ deg_i` near neighbors) form `W_i`.
//! 3. A deterministic `(2δ_i+1, 2cδ_i)`-ruling set over `W_i` (crate
//!    `nas-ruling`, the paper's Theorem 2.2) replaces the random sampling of
//!    the randomized predecessor EN17 — *this is the paper's key idea*.
//! 4. [`supercluster`] grows BFS trees of depth `2cδ_i` around the ruling
//!    set; spanned centers merge into superclusters, tree paths enter `H`.
//! 5. [`interconnect`] connects every cluster that did *not* supercluster to
//!    all clusters near it, along exact shortest paths traced back through
//!    Algorithm 1's parent pointers.
//!
//! Every step exists twice: a centralized reference and a real CONGEST
//! protocol on the `nas-congest` simulator. The two implementations are
//! plugged into a **single** phase loop ([`driver::build_with_engine`])
//! through the [`engine::PhaseEngine`] trait — [`engine::CentralizedEngine`]
//! and [`engine::CongestEngine`] (plus [`local::LocalEngine`] for
//! LOCAL-model cost accounting). Both produce **identical** spanners — the
//! algorithm is deterministic — and the distributed run reports true round
//! counts for the time experiments.
//!
//! # Entry point: [`Session`]
//!
//! All backends hang off one fluent builder returning one unified
//! [`Report`] (see [`session`] for the full knob ↔ paper-parameter map and
//! the streaming [`Observer`] event plane):
//!
//! ```
//! use nas_core::{Backend, Params, Session};
//! use nas_graph::generators;
//!
//! let g = generators::grid2d(8, 8);
//! let report = Session::on(&g)
//!     .params(Params::practical(0.5, 4, 0.45))
//!     .backend(Backend::Centralized)
//!     .run()?;
//! assert!(report.num_edges() <= g.num_edges());
//! // The spanner is a subgraph of g.
//! assert!(report.spanner.verify_subgraph_of(&g).is_ok());
//! # Ok::<(), nas_core::SessionError>(())
//! ```
//!
//! [`Session`] is the one entry point. Under it, [`build_with_engine`] is
//! the phase loop itself, for callers that bring their own [`PhaseEngine`]
//! (an instrumented engine, for example).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo1;
pub mod cluster;
pub mod driver;
pub mod engine;
pub mod full;
pub mod interconnect;
pub mod local;
pub mod params;
pub mod session;
pub mod supercluster;

pub use driver::{build_with_engine, PhaseStats, SpannerResult};
pub use engine::{CentralizedEngine, CongestEngine, PhaseEngine};
pub use local::LocalEngine;
pub use params::{betas, Mode, ParamError, Params, Schedule};
pub use session::{
    Backend, Event, EventLog, Observer, Report, Session, SessionError, Store, StretchSummary,
};
