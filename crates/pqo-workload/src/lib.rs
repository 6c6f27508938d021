//! Workload construction (paper Section 7.1 and Appendix H.1).
//!
//! * [`regions`] — instances are drawn from a bucketized selectivity space:
//!   `Region0` (all parameterized predicates selective), `Region1` (all
//!   non-selective) and one `Region_di` per dimension (only dimension `i`
//!   non-selective), with `m/(d+2)` instances per region.
//! * [`mod@corpus`] — the 90-template corpus over the four catalogs, with
//!   dimensions 1..=10 (a third of the templates have `d ≥ 4`; `d ≥ 5` only
//!   on RD2, mirroring the paper).
//! * [`orderings`] — the five sequence orderings: random, decreasing
//!   optimal cost, round-robin across plan-optimality groups, inside-out
//!   and outside-in.
//! * [`sqlgen`] — renders corpus templates back out as textual `.sql`
//!   fixtures (directive header + dialected SQL) that `pqo-sql` can
//!   re-compile to the identical template.

pub mod corpus;
pub mod orderings;
pub mod regions;
pub mod sqlgen;

pub use corpus::{corpus, TemplateSpec};
pub use orderings::Ordering;
