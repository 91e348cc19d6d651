//! # dcmesh-comm
//!
//! A message-passing substrate standing in for MPI on ALCF Polaris.
//!
//! The paper runs DC-MESH on up to 1,024 MPI ranks over a Slingshot-11
//! dragonfly fabric. This crate substitutes (DESIGN.md):
//!
//! * [`comm::World`] — ranks as OS threads with selective point-to-point
//!   receive, barriers and reductions (the collective set
//!   QXMD's global-local SCF actually uses), and
//! * [`network::NetworkModel`] — an analytic latency/bandwidth model of the
//!   Slingshot dragonfly (tree collectives cost `ceil(log2 P)` rounds,
//!   priced node-aware: on-node rounds ride shared memory/NVLink),
//!   driving per-rank **simulated clocks** so scaling experiments measure
//!   real computation but model communication at full machine scale.
//!
//! Every collective synchronizes the participants' simulated clocks exactly
//! the way a real bulk-synchronous code would: the operation completes at
//! `max(entry clocks) + modeled collective time`.
//!
//! Point-to-point traffic additionally has a nonblocking face —
//! [`comm::Rank::isend`] / [`comm::Rank::irecv`] returning typed request
//! handles settled at [`comm::Rank::wait`] — with per-rank
//! [`comm::OverlapStats`] accounting how much modeled transfer time was
//! hidden behind compute (the paper's Alg. 5 `nowait` discipline, applied
//! at the MPI layer; see DESIGN.md's substitution table).

pub mod comm;
pub mod network;

pub use comm::{OverlapStats, Rank, RecvRequest, SendRequest, World, WorldError};
pub use network::NetworkModel;
