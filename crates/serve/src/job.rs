//! Job specification, lifecycle status, and the handle a submitter keeps.
//!
//! A [`JobSpec`] is plain `Send` data: the worker thread that picks it up
//! constructs the simulation and its runner locally, so nothing stateful
//! ever crosses a thread boundary. The submitter gets a
//! [`JobHandle`] back — a cancellation flag plus a condvar-backed slot the
//! worker fills with the [`JobOutcome`] when the job leaves the system.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use dcmesh_analyze::sync::{AtomicBool, Condvar, Mutex};
use dcmesh_core::{DcMeshConfig, InvariantSummary, StepSample};

/// How a job shares the process-wide compute pool while it runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PoolShare {
    /// Kernels dispatch through the shared global pool. Dispatches from
    /// concurrent jobs serialize on the pool's dispatch lock, so each
    /// parallel region gets every core — best single-job latency.
    Shared,
    /// Kernels run inside [`dcmesh_pool::run_inline`]: every parallel
    /// region stays on the job's scheduler thread. N concurrent jobs use
    /// N cores with zero cross-job contention — best aggregate throughput
    /// for batches of small jobs.
    Inline,
}

/// Everything needed to run one simulation job. Plain data, `Send`.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Display name.
    pub name: String,
    /// Simulation configuration (including the RNG seed, so a fixed spec
    /// replays deterministically).
    pub cfg: DcMeshConfig,
    /// MD steps to complete.
    pub target_steps: u64,
    /// In-memory snapshot cadence for the resilient runner (the snapshot a
    /// rollback restores).
    pub checkpoint_every: u64,
    /// Rollback budget before the runner declares the state unrecoverable
    /// and the job is evicted.
    pub max_rollbacks: u32,
    /// Wall-clock budget measured from submission; checked cooperatively
    /// at every MD-step boundary.
    pub deadline: Option<Duration>,
    /// Thread-share policy while the job runs.
    pub pool_share: PoolShare,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            name: "job".to_string(),
            cfg: DcMeshConfig::default(),
            target_steps: 4,
            checkpoint_every: 1,
            max_rollbacks: 3,
            deadline: None,
            pool_share: PoolShare::Shared,
        }
    }
}

/// Where a job is in its lifecycle. Terminal variants carry the evidence.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is stepping it.
    Running,
    /// Reached `target_steps`.
    Completed,
    /// The submitter's cancel landed at a step boundary (or while queued).
    Cancelled,
    /// The wall-clock deadline passed at a step boundary.
    DeadlineExceeded,
    /// Still non-finite after the runner's rollbacks ran out; the service
    /// survived.
    Evicted {
        /// Rollbacks the runner performed.
        rollbacks: u32,
    },
    /// Infrastructure failure (checkpoint I/O, panic in the run).
    Failed {
        /// Human-readable reason.
        reason: String,
    },
}

impl JobStatus {
    /// True once the job has left the system (the outcome is final).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// The final account of a job, delivered through [`JobHandle::wait`].
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Terminal status.
    pub status: JobStatus,
    /// MD steps completed when the job left the system.
    pub steps_done: u64,
    /// Rollbacks the runner performed.
    pub rollbacks: u32,
    /// 1 for a job that ran, 0 for one resolved before it started.
    pub attempts: u32,
    /// Seconds spent queued before the run started.
    pub queue_wait_s: f64,
    /// Seconds spent actually running.
    pub run_s: f64,
    /// Excited-state population after the last completed step (NaN if no
    /// step ran) — the physics observable a tenant actually asked for.
    pub excited_population: f64,
    /// Whole-run invariant summary (`None` when no step ran).
    pub summary: Option<InvariantSummary>,
    /// The run's step samples, oldest first — one per attempted step,
    /// rolled-back ones included.
    pub samples: Vec<StepSample>,
}

/// Mutable per-job state shared between the handle and the worker.
#[derive(Debug)]
pub(crate) struct JobState {
    pub(crate) status: JobStatus,
    pub(crate) outcome: Option<JobOutcome>,
}

/// The synchronization core behind a [`JobHandle`].
#[derive(Debug)]
pub(crate) struct JobShared {
    pub(crate) st: Mutex<JobState>,
    pub(crate) done: Condvar,
    pub(crate) cancel: AtomicBool,
}

impl JobShared {
    pub(crate) fn new() -> Self {
        Self {
            st: Mutex::new(JobState {
                status: JobStatus::Queued,
                outcome: None,
            }),
            done: Condvar::new(),
            cancel: AtomicBool::new(false),
        }
    }

    /// Publish the terminal outcome and wake every waiter.
    pub(crate) fn finish(&self, outcome: JobOutcome) {
        debug_assert!(outcome.status.is_terminal());
        let mut st = self.st.lock();
        st.status = outcome.status.clone();
        st.outcome = Some(outcome);
        drop(st);
        self.done.notify_all();
    }

    pub(crate) fn set_running(&self) {
        self.st.lock().status = JobStatus::Running;
    }
}

/// The submitter's view of an admitted job.
#[derive(Clone, Debug)]
pub struct JobHandle {
    pub(crate) id: u64,
    pub(crate) shared: Arc<JobShared>,
}

impl JobHandle {
    /// Service-assigned job id (monotonic per service).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Request cooperative cancellation. Takes effect at the next MD-step
    /// boundary (or immediately if the job is still queued); the worker
    /// thread and its pool capacity are released right there.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Release);
    }

    /// Current lifecycle status (snapshot; may be stale by return time
    /// unless it is terminal).
    pub fn status(&self) -> JobStatus {
        self.shared.st.lock().status.clone()
    }

    /// Block until the job leaves the system and return its outcome.
    pub fn wait(&self) -> JobOutcome {
        let mut st = self.shared.st.lock();
        loop {
            if let Some(outcome) = &st.outcome {
                return outcome.clone();
            }
            st = self.shared.done.wait(st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_statuses_are_terminal() {
        assert!(!JobStatus::Queued.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
        for s in [
            JobStatus::Completed,
            JobStatus::Cancelled,
            JobStatus::DeadlineExceeded,
            JobStatus::Evicted { rollbacks: 3 },
            JobStatus::Failed { reason: "x".into() },
        ] {
            assert!(s.is_terminal(), "{s:?}");
        }
    }

    #[test]
    fn handle_wait_sees_a_finish_from_another_thread() {
        let shared = Arc::new(JobShared::new());
        let handle = JobHandle {
            id: 7,
            shared: Arc::clone(&shared),
        };
        assert_eq!(handle.status(), JobStatus::Queued);
        let publisher = dcmesh_analyze::sync::spawn_named("finisher", move || {
            shared.finish(JobOutcome {
                status: JobStatus::Completed,
                steps_done: 4,
                rollbacks: 0,
                attempts: 1,
                queue_wait_s: 0.0,
                run_s: 0.0,
                excited_population: 0.5,
                summary: None,
                samples: Vec::new(),
            });
        });
        let outcome = handle.wait();
        publisher.join().unwrap();
        assert_eq!(outcome.status, JobStatus::Completed);
        assert_eq!(outcome.steps_done, 4);
        assert_eq!(handle.status(), JobStatus::Completed);
    }
}
