//! Deterministic `(q+1, cq)`-ruling sets in the CONGEST model.
//!
//! This crate implements the black box the paper uses through its Theorem 2.2
//! (SEW13: Schneider–Elkin–Wattenhofer; KMW18: Kuhn–Maus–Weidner):
//!
//! > Given a graph `G = (V, E)`, a set `W ⊆ V` and parameters
//! > `q ∈ {1, 2, …}`, `c > 1`, one can compute a `(q+1, cq)`-ruling subset
//! > `A ⊆ W` in `O(q · c · n^{1/c})` deterministic CONGEST rounds.
//!
//! A `(ζ, η)`-ruling set `A` for `W` satisfies: (i) every pair of distinct
//! vertices of `A` is at distance `≥ ζ` in `G`; (ii) every vertex of `W` has
//! a vertex of `A` at distance `≤ η`.
//!
//! # The digit-elimination algorithm
//!
//! Write each vertex id in base `m = ⌈n^{1/c}⌉` as `c` digits (most
//! significant first). All of `W` starts *active*. For each digit position
//! `i = 0..c` (an **iteration**) and each digit value `b = 0..m` (a
//! **sub-phase** of `q+1` rounds): active vertices whose `i`-th digit is `b`
//! start a depth-`q` *kill wave* (a flooded, deduplicated BFS); an active
//! vertex whose `i`-th digit is `> b` that hears a wave becomes inactive,
//! killed by the wave's origin. Vertices whose sub-phase has already passed
//! in this iteration are immune until the next iteration. Survivors of all
//! `c` iterations form the ruling set.
//!
//! **Separation `≥ q+1`:** suppose `x ≠ y` both survive and
//! `d_G(x, y) ≤ q`. Their ids differ in some digit; in the first iteration
//! `i` where they differ (say `digit_i(x) < digit_i(y)`), both are still
//! active, `x` explores in its sub-phase, and its wave reaches `y` — whose
//! sub-phase has not come yet — killing it. Contradiction.
//!
//! **Domination `≤ cq`:** a kill in iteration `i` charges a vertex that
//! survives iteration `i` (it is immune for the rest of it); so killer chains
//! advance the iteration index and have at most `c` hops, each of length
//! `≤ q` (the wave depth). Following the chain from any `w ∈ W` reaches a
//! survivor within distance `cq`.
//!
//! **Round count:** exactly `c · m · (q+1) = O(q · c · n^{1/c})` rounds, one
//! word per edge per round (the wave is a flood with per-sub-phase dedup).
//!
//! Both a centralized reference ([`ruling_set_centralized`]) and a real
//! distributed protocol on the `nas-congest` simulator
//! ([`ruling_set_distributed`]) are provided; they compute identical
//! memberships, which the test suite asserts.
//!
//! # The certificate
//!
//! [`verify_ruling_set`] checks both guarantees of any claimed ruling set
//! with one multi-source BFS, in `O(n + m)` time, and returns either the
//! measured separation and domination ([`RulingCertificate`]) or the first
//! broken guarantee ([`RulingViolation`]). Debug builds of the spanner's
//! phase loop certify every phase's ruling set with it.
//!
//! # Example
//!
//! ```
//! use nas_graph::generators;
//! use nas_ruling::{ruling_set_centralized, verify_ruling_set, RulingParams};
//!
//! let g = generators::path(20);
//! let w: Vec<usize> = (0..20).collect();
//! let params = RulingParams::new(2, 2);
//! let rs = ruling_set_centralized(&g, &w, params);
//! // Members are pairwise at distance >= 3 on the path, and every vertex
//! // is within 4 of one.
//! let cert = verify_ruling_set(&g, &w, params, &rs).expect("Theorem 2.2");
//! assert!(cert.min_separation.is_some_and(|d| d >= 3));
//! assert!(cert.max_domination <= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod centralized;
mod digits;
mod distributed;
mod result;
mod verify;

pub use centralized::ruling_set_centralized;
pub use digits::DigitPlan;
pub use distributed::{ruling_set_distributed, RulingProtocol};
pub use result::{RulingParams, RulingSet};
pub use verify::{verify_ruling_set, RulingCertificate, RulingViolation};
