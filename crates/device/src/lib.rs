//! # dcmesh-device
//!
//! A simulated GPU offload runtime standing in for OpenMP `target`
//! constructs on an Nvidia A100 (see DESIGN.md, substitution table).
//!
//! The paper's GPU port rests on four mechanisms, all reproduced here:
//!
//! 1. **Hierarchical offload** — `#pragma omp target teams distribute` over
//!    coarse work items with nested `parallel for simd` over fine items
//!    (paper §III-C). [`exec`] provides the same two-level structure on the
//!    persistent `dcmesh-pool` executor: teams are claim-loop tasks owning
//!    disjoint output, threads are the inner SIMD-style loop. Workers park
//!    between launches, so a team-grid dispatch costs atomics + a condvar
//!    broadcast instead of thread spawns.
//! 2. **Persistent device data** — `OMPallocator` RAII mapping (paper
//!    Alg. 6). [`Device::enter_data`] / [`Device::exit_data`] are the
//!    `map(alloc)` / `map(delete)` pair; the RAII owner that calls them on
//!    construction/drop and keeps wavefunctions device-resident across the
//!    N_QD inner steps (shadow dynamics, §II) is `dcmesh_lfd::ShadowState`.
//! 3. **Asynchronous streams** — `nowait` offload and CUDA streams with
//!    pinned-memory transfers (§III-E, Table I/II ablations). [`stream`]
//!    models per-stream timelines with a host clock, so synchronous and
//!    asynchronous launch policies produce different makespans.
//! 4. **A calibrated roofline timing model** — [`perf`] converts counted
//!    bytes and flops into modeled kernel/transfer durations for A100 and
//!    EPYC-7543 presets. Real computation always executes on the CPU; the
//!    model only supplies the *timeline*, clearly labeled "modeled" in every
//!    benchmark report.

pub mod exec;
pub mod perf;
pub mod stream;

pub use exec::{teams_distribute, teams_distribute_mut};
pub use perf::{HardwareSpec, KernelWork, Precision, TransferKind};
pub use stream::{Device, LaunchPolicy, StreamId};
