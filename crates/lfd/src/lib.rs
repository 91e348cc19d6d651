//! # dcmesh-lfd
//!
//! The Local Field Dynamics (LFD) subprogram — the paper's GPU-resident
//! real-time TDDFT propagator and the subject of all of its performance
//! engineering (§II-III):
//!
//! * [`kinetic`] — the split-operator kinetic stencil `kin_prop()` in every
//!   optimization stage the paper measures: Algorithm 1 (AoS baseline),
//!   Algorithm 3 (loop interchange + SoA + in-place update), Algorithm 4
//!   (orbital cache blocking), Algorithm 5 (hierarchical teams offload with
//!   optional `nowait`).
//! * [`potential`] — the point-local phase propagator
//!   `exp(-i dt v_loc(r,t))` including the laser coupling.
//! * [`nonlocal`] — the shadow-dynamics nonlocal correction of Eqs. (7)-(9):
//!   scissor-shifted rank-Norb projection, in loop form and "BLASified"
//!   GEMM form (`nlp_prop`, `calc_energy`, `remap_occ`, §III-D), applied as
//!   the projector's exact exponential rather than Eq. (7)'s first order.
//! * [`maxwell`] — 1D FDTD vector-potential propagation across DC domains
//!   plus the analytic laser pulse. The scalar potential `φ_α` of refs
//!   [27, 28] is not propagated: `v_eff` stays frozen.
//! * [`shadow`] — device-resident wavefunction state whose only host
//!   handshake is occupation numbers (§II "shadow dynamics").
//! * [`engine`] — the multiple-time-scale QD loop (N_QD steps per MD step,
//!   Eq. (4)) assembled over all build variants of Table II.
//! * [`fault`] — the one-shot NaN the engine plants in its output at an
//!   armed step (`DCMESH_FAULT_PLAN=nan@STEP`), for the rollback tests.

pub mod engine;
pub mod fault;
pub mod kinetic;
pub mod maxwell;
pub mod nonlocal;
pub mod potential;
pub mod shadow;
pub mod spectrum;

pub use engine::{BuildKind, KernelTimings, LfdConfig, LfdEngine};
pub use kinetic::{Axis, KineticPropagator, StepFraction};
pub use maxwell::{LaserPulse, Maxwell1d};
pub use nonlocal::NonlocalCorrection;
pub use potential::PotentialPropagator;
pub use spectrum::{delta_kick_spectrum, Spectrum};
