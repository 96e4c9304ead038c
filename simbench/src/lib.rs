//! Host-cost benchmark of the dbshare simulator.
//!
//! Runs three named workloads ([`workloads`]) through the library's
//! public API, measures end-to-end host cost with tracing off, and in a
//! separate traced run splits that cost across the simulator's layers
//! ([`spans`], [`replay`]). Every job's output is checked against the
//! pinned fingerprints ([`pins`]) or, at other seeds, against itself.
//! See `README.md` in this directory.

pub mod heap;
pub mod metrics;
pub mod pins;
pub mod replay;
pub mod run;
pub mod spans;
pub mod workloads;
