//! The stack benchmark: end-to-end and per-layer measurement of the pqo
//! serving stack, timed from outside through public functions and `/proc`.
//! See `README.md` beside this crate.

pub mod aa;
pub mod affinity;
pub mod embedded;
pub mod estimator;
pub mod inputs;
pub mod layers;
pub mod procfs;
pub mod quality;
pub mod replica;
pub mod report;
pub mod run;
pub mod servers;
pub mod spans;
pub mod wire;
pub mod wireprobes;
