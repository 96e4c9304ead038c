//! The queryable experiment store: persistent regression history for
//! the reproduction's benchmark runs.
//!
//! This crate is the memory across runs; its [`Record`] is the one
//! per-job schema. `BENCH_repro.json` is a snapshot of *one* run whose
//! rows are these records; the harness writes and reads that document,
//! and this crate does not know its format. It is layered like a
//! scaled-down persistence/index split:
//!
//! - [`json`] — the dependency-free JSON value every layer above
//!   serializes with (moved here from `dbshare-harness`, which
//!   re-exports it), extended with the compact [`Json::render_line`]
//!   form the log uses;
//! - [`record`] — the row schema: one executed job with config and
//!   metric fingerprints, build provenance, and host cost;
//! - [`log`] — the persistence layer: an append-only line-delimited
//!   file ([`Store`]) with torn-tail recovery (truncate and warn);
//! - [`index`] — the query layer: in-memory lookups by figure, config
//!   fingerprint, and git revision, plus per-(run, figure) aggregates
//!   stamped with a config-set fingerprint;
//! - [`gate`] — the policy layer: exact metric-fingerprint matching
//!   and thresholded events/s regression checks against the best
//!   comparable recorded run.
//!
//! The crate has no dependencies at all (not even on the simulator),
//! so anything that can produce a [`Record`] can use the store.

pub mod gate;
pub mod index;
pub mod json;
pub mod log;
pub mod record;

pub use gate::{check as gate_check, short_rev, GateOutcome};
pub use index::{figure_runs, FigureRun, Index};
pub use json::{Json, ParseError};
pub use log::{ReadResult, Recovery, Store};
pub use record::{fnv1a_hex, Provenance, Record, ResourceUtils, SCHEMA_VERSION};
