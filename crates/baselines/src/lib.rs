//! Baseline spanner constructions the paper is compared against.
//!
//! * [`en17`] — the randomized CONGEST near-additive spanner of
//!   Elkin–Neiman (SODA 2017), the paper's direct predecessor: identical
//!   superclustering-and-interconnection skeleton, but cluster-center
//!   selection by *random sampling* instead of a deterministic ruling set.
//!   Running it side by side with `nas-core` isolates exactly the
//!   derandomization cost (larger cluster radii → larger β) and benefit
//!   (no failure probability, deterministic transcripts).
//! * [`baswana_sen()`](baswana_sen::baswana_sen) — the classical randomized `(2κ−1)`-multiplicative
//!   spanner (RSA 2007) with `O(κ·n^{1+1/κ})` expected edges; the reference
//!   point that motivates near-additive spanners in the paper's introduction
//!   (multiplicative stretch hurts *long* distances, near-additive doesn't).
//! * [`greedy`] — the greedy `(2κ−1)`-spanner (Althöfer et al.), the
//!   existential size/stretch yardstick.
//!
//! All randomness is seeded and deterministic per seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baswana_sen;
pub mod en17;
pub mod greedy;

pub use baswana_sen::baswana_sen;
pub use en17::{build_en17_centralized, build_en17_distributed, En17Params, En17Result};
pub use greedy::greedy_spanner;
