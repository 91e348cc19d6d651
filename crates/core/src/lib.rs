//! # dcmesh-core
//!
//! The DC-MESH orchestrator: couples the QXMD subprogram (atoms, CPU) to
//! the LFD subprogram (electrons, device) across divide-and-conquer
//! domains, exactly in the structure of paper Fig. 1(b):
//!
//! * [`simulation`] — [`simulation::DcMeshSim`]: per-domain LFD engines fed
//!   by a shared Maxwell field, occupation-only shadow handshake, FSSH
//!   occupation updates, classical/NN MD for the atoms, and the
//!   Landau–Khalatnikov polarization response used by the Fig. 7
//!   application.
//! * [`scaling`] — the weak/strong scaling drivers behind Figs. 2-3: real
//!   per-rank computation at laptop granularity combined with modeled
//!   communication on the simulated Slingshot fabric, plus the analytic
//!   parallel-efficiency models of §IV-A.
//! * [`metrics`] — the paper's figures of merit: speed = atoms x steps /
//!   second, isogranular speedup, weak/strong parallel efficiency, and
//!   single-node throughput (Fig. 4).
//! * [`checkpoint`] — bit-exact snapshot/restore of the full simulation
//!   state: the tagged payload codec, the versioned and checksummed
//!   container written atomically, and config fingerprinting.
//! * [`invariants`] — the physics invariants of one state, the per-step
//!   [`StepSample`] / whole-run [`InvariantSummary`] built from them, and
//!   the drift ceilings of the watchdog rule.
//! * [`resilience`] — [`ResilientRunner`], the supervised run: per-step
//!   recording, drift warnings, non-finite-state detection with
//!   checkpoint rollback and QD-step halving.

pub mod checkpoint;
pub mod invariants;
pub mod metrics;
pub mod resilience;
pub mod scaling;
pub mod simulation;

pub use checkpoint::{config_fingerprint, CkptError};
pub use invariants::{
    step_series_jsonl, DriftWarning, InvariantSummary, SimInvariants, StepSample,
};
pub use metrics::{parallel_efficiency_strong, parallel_efficiency_weak, Speed};
pub use resilience::{ResilienceError, ResilientRunner, RunEvent};
pub use scaling::{AnalyticEfficiency, ScalingConfig, ScalingPoint};
pub use simulation::{DcMeshConfig, DcMeshSim, SetupSolve, StepReport};
