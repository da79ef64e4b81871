//! Graph substrate for the near-additive spanner reproduction.
//!
//! This crate provides everything the distributed algorithms above it need
//! from a graph library:
//!
//! * a compact, immutable CSR (compressed sparse row) [`Graph`] representation
//!   of unweighted, undirected, simple graphs — the graph class the paper
//!   (Elkin–Matar, PODC 2019) is stated for;
//! * a [`GraphBuilder`] that normalizes arbitrary edge lists (dedup,
//!   self-loop removal) into that representation;
//! * deterministic [`generators`] for the workload families used in the
//!   experiments (paths, grids, tori, hypercubes, random graphs, preferential
//!   attachment, …) — all randomness is driven by an explicit seed through a
//!   local [`rng::SplitMix64`] so results are reproducible across platforms;
//! * the flat distance plane ([`dist`]): dense `u32` [`DistanceMap`] rows
//!   with the [`dist::UNREACHED`] sentinel, reusable BFS scratch, and
//!   batched/pooled multi-row fills — the allocation-free substrate every
//!   stretch audit and oracle runs on (see the [`dist`] module docs for the
//!   sentinel convention, the scratch-reuse contract, and the
//!   determinism-under-parallelism argument);
//! * the weighted plane ([`weighted`] + [`sssp`]): [`WeightedGraph`] (one
//!   `u32` weight per edge, parallel to the CSR adjacency), seeded weight
//!   distributions, and a deterministic delta-stepping SSSP engine with the
//!   same row/scratch/batch contracts as [`dist`] — see the [`sssp`] module
//!   docs for the bucket/reactivation pattern and the saturation
//!   convention;
//! * breadth-first search in several flavors ([`bfs`]): depth-limited
//!   forests with parent tracking and eccentricity;
//! * connectivity utilities ([`connectivity`]);
//! * an [`EdgeSet`] for accumulating spanner edges and turning them back into
//!   a [`Graph`].
//!
//! # Example
//!
//! ```
//! use nas_graph::{generators, DistanceMap};
//!
//! let g = generators::grid2d(4, 5);
//! assert_eq!(g.num_vertices(), 20);
//! let dist = DistanceMap::from_source(&g, 0);
//! assert_eq!(dist.get(19), Some(3 + 4)); // Manhattan distance across the grid
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod builder;
pub mod compact;
pub mod connectivity;
pub mod dist;
pub mod edgeset;
pub mod generators;
pub mod graph;
pub mod io;
pub mod rng;
pub mod sssp;
pub mod weighted;

pub use builder::GraphBuilder;
pub use compact::{CompactError, CompactGraph, CompactGraphBuilder};
pub use dist::{BatchScratch, BfsScratch, DistanceBatch, DistanceMap, EpochMarks, LaneScratch};
pub use edgeset::{EdgeSet, FxBuildHasher, FxHasher};
pub use graph::{Graph, GraphError};
pub use sssp::{SsspBatchScratch, SsspScratch};
pub use weighted::{WeightDist, WeightedGraph, WeightedGraphBuilder};
