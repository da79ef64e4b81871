//! Measurement: stretch audits (unweighted and weighted), the distance
//! oracle over a built spanner, size accounting, analytic formula rows,
//! and the table formatting used to regenerate the paper's Tables 1–2 and
//! the figure experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod stretch;
pub mod tables;
pub mod weighted;

pub use oracle::{OracleStats, SpannerOracle};
pub use stretch::{stretch_audit, stretch_audit_sampled, DistanceBucket, StretchAudit};
pub use tables::TableBuilder;
pub use weighted::{stretch_audit_weighted, stretch_audit_weighted_sampled, WeightedStretchAudit};
