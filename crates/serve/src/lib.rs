//! dcmesh-serve: a batched, multi-tenant simulation job service.
//!
//! The paper's target deployment runs many small DC-MESH trajectories
//! concurrently (parameter sweeps, ensemble averaging, interactive
//! what-if jobs) on one node. This crate is the front door for that mode:
//!
//! - **Admission control** — a bounded [`JobQueue`](queue) rejects work
//!   beyond its capacity with a typed [`Rejected`] instead of queueing
//!   unboundedly; backpressure is the caller's signal to shed or retry.
//! - **Scheduling** — N worker threads drain the queue over the shared
//!   `dcmesh-pool` executor, with a per-job thread-share policy
//!   ([`PoolShare`]): time-share every core per parallel region, or pin
//!   each job to its scheduler thread for contention-free batch
//!   throughput.
//! - **Deadlines & cancellation** — both are cooperative, checked at
//!   every MD-step boundary; a cancel releases the worker and its pool
//!   capacity at the next step edge.
//! - **Graceful degradation** — a job's runner rolls a non-finite state
//!   back to its last good snapshot with a halved QD step; a job still
//!   non-finite after its rollback budget (`ResilienceError::Unrecoverable`)
//!   is evicted ([`JobStatus::Evicted`]). Panics become
//!   [`JobStatus::Failed`]. The service itself never goes down with a
//!   tenant.
//! - **Per-job samples** — a job is stepped by one
//!   `dcmesh_core::ResilientRunner`; its [`JobOutcome`] carries that
//!   runner's step samples and invariant summary as data and formats the
//!   JSONL series when asked.
//!
//! [`load`] is the open-loop load harness behind the `serve_load` bench
//! driver and the deterministic-replay test.

pub mod job;
pub mod load;
pub mod queue;
pub mod service;

pub use job::{JobHandle, JobOutcome, JobSpec, JobStatus, PoolShare};
pub use load::{run_load, LoadConfig, LoadReport};
pub use queue::Rejected;
pub use service::{ServeConfig, Service};
