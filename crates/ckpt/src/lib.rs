//! # dcmesh-ckpt
//!
//! The robustness subsystem: checkpoint/restart and fault injection.
//!
//! The paper's production campaigns run DC-MESH for thousands of MD steps
//! across hundreds of nodes, where rank failure and SCF divergence are
//! routine. This crate provides the pieces every layer shares:
//!
//! * [`codec`] — a tiny self-describing binary encoder/decoder with
//!   per-field type tags, so a truncated or corrupted snapshot fails to
//!   decode loudly instead of deserializing garbage into a trajectory.
//! * [`file`] — the versioned, checksummed checkpoint container written
//!   via temp-file + atomic rename: a crash mid-write can never destroy
//!   the previous good checkpoint.
//! * [`fault`] — an env-gated [`fault::FaultPlan`] that plants a NaN in a
//!   kernel output at a chosen MD step (`DCMESH_FAULT_PLAN=nan@STEP`), the
//!   fault a supervised run must roll back from. Disarmed it costs one
//!   relaxed atomic load, the same contract as `dcmesh-obs`.
//!
//! Observability rides on `dcmesh-obs`: `ckpt.write_s`, `ckpt.bytes`,
//! `faults.injected` and friends land in the metrics registry when the
//! collector is enabled.

pub mod codec;
pub mod fault;
pub mod file;

pub use codec::{CkptError, Decoder, Encoder};
pub use fault::FaultPlan;
pub use file::{read_checkpoint, write_checkpoint_atomic, FORMAT_VERSION};
