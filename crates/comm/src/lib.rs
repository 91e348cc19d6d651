//! # dcmesh-comm
//!
//! A message-passing substrate standing in for MPI on ALCF Polaris.
//!
//! The paper runs DC-MESH on up to 1,024 MPI ranks over a Slingshot-11
//! dragonfly fabric. This crate substitutes (DESIGN.md):
//!
//! * [`comm::World`] — ranks as OS threads with selective point-to-point
//!   receive and a per-rank **simulated clock**: local compute is added to
//!   it, and every receive charges the modeled transfer, and
//! * [`network::NetworkModel`] — an analytic latency/bandwidth model of the
//!   Slingshot dragonfly (tree collectives cost `ceil(log2 P)` rounds,
//!   priced node-aware: on-node rounds ride shared memory/NVLink), which
//!   prices the fabric's messages and the collectives of the lockstep
//!   scaling model in `dcmesh_core::scaling`.
//!
//! Point-to-point traffic has a nonblocking face —
//! [`comm::Rank::isend`] / [`comm::Rank::irecv`] returning typed request
//! handles settled at [`comm::Rank::wait`] — with per-rank
//! [`comm::OverlapStats`] accounting how much modeled transfer time was
//! hidden behind compute (the paper's Alg. 5 `nowait` discipline, applied
//! at the MPI layer; see DESIGN.md's substitution table).
//! [`comm::OverlapStats::settle`] is the one receive-settle rule: `wait`
//! applies it to a real message, and the scaling model to a modeled one.

pub mod comm;
pub mod network;

pub use comm::{OverlapStats, Rank, RecvRequest, SendRequest, World, WorldError};
pub use network::NetworkModel;
