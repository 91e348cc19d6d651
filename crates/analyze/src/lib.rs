//! dcmesh-analyze — the concurrency-correctness toolkit behind the
//! executor and stream layers.
//!
//! PR 2 moved the whole hot path onto raw-pointer fan-out: the pool's
//! claim-loop dispatch (`SlicePtr`, `JobRef`) is the Rust analogue of the
//! paper's Algorithm 5 hierarchical offload, and its soundness rests on
//! *protocol* arguments (every index claimed exactly once; (plane ×
//! orbital-block) teams write disjoint SoA slabs). This crate turns those
//! arguments from comments into checked artifacts, with three layers:
//!
//! 1. [`sched`] — a deterministic schedule explorer ("loom-lite"): a
//!    controllable scheduler plus the instrumented primitives in
//!    [`sync`] that `dcmesh-pool` is built on. Tests run the *actual*
//!    pool state machine under every interleaving reachable within a
//!    preemption bound, instead of trusting a hand-written handoff
//!    argument.
//! 2. [`race`] — a shadow-access race detector (`DCMESH_RACECHECK=1`):
//!    `SlicePtr` writes are logged as byte intervals with vector-clock
//!    snapshots; at every region settle (dispatch return) overlapping
//!    writes without a happens-before edge are reported through
//!    `dcmesh-obs` and panic the offending test.
//! 3. [`audit`] (`--bin audit`) — whole-workspace static analysis over
//!    one lex per file: the path-scoped hygiene rules (stray
//!    `thread::spawn`, wall-clock reads and prints in kernel crates, raw
//!    `arch` intrinsics outside the SIMD module, `static mut`),
//!    panic-freedom call graphs, and machine-checked SAFETY contracts.
//!
//! Layering: this crate sits *below* `dcmesh-pool` (which links the
//! [`sync`] primitives and [`race`] hooks into its hot path), so it
//! must depend only on `dcmesh-obs`. When neither tool is armed, every
//! instrumentation point costs one relaxed atomic load — the same
//! contract `dcmesh-obs` spans make.

pub mod audit;
pub mod lex;
pub mod race;
pub mod sched;
pub mod sync;
