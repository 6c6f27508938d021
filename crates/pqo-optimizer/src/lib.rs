//! A cost-based query optimizer substrate with the two engine APIs the paper
//! requires (Section 4.2): **selectivity-vector computation** and **plan
//! re-costing**.
//!
//! The paper's prototype extends the Microsoft SQL Server optimizer
//! (Cascades). No open-source optimizer exposes an efficient Recost API, so
//! this crate implements the substrate from scratch:
//!
//! * [`template`] — parameterized query templates: a join graph over catalog
//!   tables with `d` parameterized one-sided range predicates (the paper's
//!   "dimensions").
//! * [`svector`] — computing the selectivity vector of an instance from
//!   histograms, and the inverse (placing an instance at a target vector).
//! * [`cost`] — the cost model: per-operator formulas with I/O + CPU terms
//!   and memory-spill discontinuities (the realistic wrinkle behind the rare
//!   BCG violations of Section 7.2).
//! * [`plan`] — physical plans as postorder arenas with structural
//!   fingerprints (plan identity across instances).
//! * [`optimizer`] — dynamic programming over connected join subsets with
//!   physical alternatives per group (the memo); returns the optimal plan.
//! * [`recost`] — the Recost API: re-derive cardinalities and cost of a
//!   frozen plan bottom-up for new selectivities, without plan search
//!   (the paper's `shrunkenMemo` re-derivation, Appendix B).
//! * [`compact`] — the Appendix B alternative: a byte-encoded plan
//!   representation re-costed by a stack machine (less memory, more time
//!   per Recost call).
//! * [`diagram`] — plan diagrams over the selectivity space (reference
//!   \[18\]), used to analyze plan density.
//! * [`engine`] — [`engine::QueryEngine`], the façade every PQO technique
//!   talks to, with call counters and latency accounting.
//! * [`error`] — [`error::PqoError`], the typed error returned by public
//!   entry points across the workspace instead of panicking on misuse.

pub mod compact;
pub mod cost;
pub mod diagram;
pub mod engine;
pub mod error;
pub mod optimizer;
pub mod plan;
pub mod recost;
pub mod svector;
pub mod template;

pub use engine::{EngineStats, QueryEngine};
pub use error::PqoError;
pub use plan::{Plan, PlanFingerprint, PlanOp};
pub use svector::SVector;
pub use template::{QueryInstance, QueryTemplate};
