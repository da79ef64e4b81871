//! Umbrella crate for the Elkin–Matar (PODC 2019) near-additive spanner
//! reproduction.
//!
//! Re-exports every workspace member under one roof so downstream users can
//! depend on a single crate:
//!
//! * [`graph`] — CSR graphs, deterministic generators, the flat distance
//!   plane ([`graph::dist`]: dense `u32` rows, reusable scratch, pooled
//!   batch BFS), the weighted plane, edge-list and compact-binary I/O;
//! * [`congest`] — the synchronous CONGEST-model simulator;
//! * [`ruling`] — deterministic `(q+1, cq)`-ruling sets (Theorem 2.2);
//! * [`core`] — the spanner construction itself (three backends plus a
//!   LOCAL-model costing);
//! * [`baselines`] — EN17, Baswana–Sen, greedy;
//! * [`metrics`] — stretch audits and the distance oracle.
//!
//! # Quickstart
//!
//! One fluent entry point ([`core::Session`]) selects any execution backend
//! and returns one unified [`core::Report`]:
//!
//! ```
//! use near_additive_spanner::core::{Params, Session};
//! use near_additive_spanner::graph::generators;
//! use near_additive_spanner::metrics::stretch_audit;
//!
//! let g = generators::grid2d(6, 6);
//! let params = Params::practical(0.5, 4, 0.45);
//! let report = Session::on(&g).params(params).run()?;
//! let audit = stretch_audit(&g, &report.to_graph(), params.eps);
//! assert_eq!(audit.disconnected_pairs, 0);
//! # Ok::<(), near_additive_spanner::core::SessionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nas_baselines as baselines;
pub use nas_congest as congest;
pub use nas_core as core;
pub use nas_graph as graph;
pub use nas_metrics as metrics;
pub use nas_ruling as ruling;
