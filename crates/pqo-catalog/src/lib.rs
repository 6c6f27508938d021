//! Synthetic catalogs and column statistics for the PQO reproduction.
//!
//! The SIGMOD 2017 paper evaluates SCR on TPC-H (skewed), TPC-DS and two
//! real-world databases. None of those are available here, so this crate
//! provides the closest synthetic equivalent: table definitions with row
//! counts matching the benchmark scale factors, numeric columns drawn from
//! seeded distributions (uniform, Zipf, normal, exponential), and equi-depth
//! histograms over those columns.
//!
//! Two operations matter downstream:
//!
//! * [`Histogram::selectivity_le`] / [`Histogram::selectivity_ge`] — given a one-sided range predicate value,
//!   estimate the fraction of rows that satisfy it. This backs the engine's
//!   `sVector` API (Section 4.2 of the paper).
//! * [`Histogram::quantile`] — the inverse: given a target selectivity,
//!   produce the predicate value that achieves it. The workload generator
//!   uses this to place query instances at controlled points of the
//!   selectivity space (Section 7.1).

pub mod catalog;
pub mod distribution;
pub mod histogram;
pub mod schemas;
pub mod stats;
pub mod table;

pub use catalog::Catalog;
pub use distribution::Distribution;
pub use histogram::Histogram;
pub use stats::ColumnStats;
pub use table::{ColumnDef, TableDef};
