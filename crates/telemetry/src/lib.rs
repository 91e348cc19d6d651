//! # dcmesh-telemetry
//!
//! The artefact half of the measurement substrate: what a run leaves
//! behind, and how two such artefacts are compared. It sits *beside* the
//! run loop, not inside it — the loop itself is
//! [`dcmesh_core::ResilientRunner`], which records the per-step samples,
//! the whole-run [`InvariantSummary`] and the drift warnings this crate
//! only formats.
//!
//! * [`record`] — [`RunRecord`]: a schema-versioned JSON summary of one
//!   run (config fingerprint, thread count, fault plan, git metadata,
//!   per-phase aggregates, metric snapshots with log₂ histogram buckets,
//!   invariant summary), written under `bench_results/`.
//! * [`compare`] — diff two RunRecords: log₂-histogram latency
//!   comparison, per-phase ratios, invariant-drift thresholds. The
//!   `dcmesh-bench` `compare` binary exits nonzero on any regression.

pub mod compare;
pub mod record;

pub use compare::{compare, CompareConfig, Regression};
pub use dcmesh_core::InvariantSummary;
pub use record::{GitMeta, HistRecord, PhaseRecord, RunRecord, SCHEMA_VERSION};
