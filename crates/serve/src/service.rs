//! The scheduler: N worker threads draining the admission queue over the
//! shared compute pool.
//!
//! Each worker builds a [`ResilientRunner`] locally from the `Send`
//! [`JobSpec`] and steps it to completion, checking the cancel flag and
//! deadline at every MD-step boundary. The runner is the whole
//! supervision stack — it records the step samples and invariant summary
//! the [`JobOutcome`] carries, warns on drift, and rolls back — so what
//! happens after an MD step is answered in `dcmesh_core::resilience`
//! alone. Kernel dispatches go through the process-wide
//! `dcmesh-pool` executor; under [`PoolShare::Shared`] concurrent jobs
//! serialize on the pool's dispatch lock (each parallel region gets every
//! core), under [`PoolShare::Inline`] each job pins its kernels to its
//! own scheduler thread so N jobs use N cores with no contention.
//!
//! Graceful degradation: the runner's rollbacks are the one recovery. A
//! job whose state is still non-finite once its rollback budget is spent
//! (`ResilienceError::Unrecoverable`, e.g. after an injected NaN with
//! `max_rollbacks: 0`) is evicted with a terminal [`JobStatus::Evicted`].
//! A panic inside the run is caught and converted to
//! [`JobStatus::Failed`]. Either way the worker thread survives and moves
//! to the next job; one tenant's pathology never takes the service down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use dcmesh_analyze::sync::{spawn_named, AtomicUsize, JoinHandle};
use dcmesh_core::{InvariantSummary, ResilienceError, ResilientRunner, StepSample};

use crate::job::{JobHandle, JobOutcome, JobShared, JobSpec, JobStatus, PoolShare};
use crate::queue::{Job, JobQueue, Rejected};

/// Service sizing.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Bound on jobs waiting for a worker; submissions beyond it are
    /// rejected with [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads draining the queue (jobs running concurrently).
    pub concurrency: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 32,
            concurrency: 2,
        }
    }
}

/// A running job service: admission queue plus worker threads.
pub struct Service {
    queue: Arc<JobQueue>,
    workers: Vec<JoinHandle>,
    next_id: AtomicUsize,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("concurrency", &self.workers.len())
            .field("queued", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Spawn the worker threads and start accepting jobs.
    pub fn start(cfg: ServeConfig) -> Self {
        let queue = Arc::new(JobQueue::new(cfg.queue_capacity));
        let workers = (0..cfg.concurrency.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                spawn_named(&format!("dcmesh-serve-{i}"), move || worker_loop(&queue))
            })
            .collect();
        Self {
            queue,
            workers,
            next_id: AtomicUsize::new(0),
        }
    }

    /// Admission control: enqueue the job or reject it immediately.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, Rejected> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) as u64;
        let shared = Arc::new(JobShared::new());
        // A deadline past the clock's range is no deadline.
        let deadline_at = spec.deadline.and_then(|d| Instant::now().checked_add(d));
        let job = Job {
            id,
            spec,
            shared: Arc::clone(&shared),
            submitted_at: Instant::now(),
            deadline_at,
        };
        match self.queue.submit(job) {
            Ok(()) => Ok(JobHandle { id, shared }),
            Err((_job, why)) => Err(why),
        }
    }

    /// Worker threads.
    pub fn concurrency(&self) -> usize {
        self.workers.len()
    }

    /// Stop the service and join every worker. With `drain`, the backlog
    /// is finished first; without it, queued jobs resolve immediately as
    /// [`JobStatus::Cancelled`] (running jobs still finish their step
    /// loop's cooperative checks).
    pub fn shutdown(self, drain: bool) {
        for job in self.queue.shutdown(drain) {
            let waited = job.submitted_at.elapsed().as_secs_f64();
            finish(&job, JobStatus::Cancelled, waited, None);
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// What a run measured, independent of how it ended: read off its runner
/// once the step loop is over.
struct RunStats {
    steps_done: u64,
    rollbacks: u32,
    excited_population: f64,
    summary: Option<InvariantSummary>,
    samples: Vec<StepSample>,
    run_s: f64,
}

impl RunStats {
    /// The stats of a job that never stepped.
    fn empty() -> Self {
        Self {
            steps_done: 0,
            rollbacks: 0,
            excited_population: f64::NAN,
            summary: None,
            samples: Vec::new(),
            run_s: 0.0,
        }
    }
}

fn worker_loop(queue: &JobQueue) {
    while let Some(job) = queue.pop_wait() {
        process(&job);
    }
}

/// Serve one job: pre-flight checks, the run, then the outcome.
fn process(job: &Job) {
    let waited = job.submitted_at.elapsed().as_secs_f64();
    // Pre-SCF checks: a cancel or an expired deadline that landed while
    // the job was queued resolves it before any state is built.
    if job.shared.cancel.load(Ordering::Acquire) {
        return finish(job, JobStatus::Cancelled, waited, None);
    }
    if job.deadline_at.is_some_and(|d| Instant::now() >= d) {
        return finish(job, JobStatus::DeadlineExceeded, waited, None);
    }
    job.shared.set_running();
    let (status, stats) = catch_unwind(AssertUnwindSafe(|| run(job))).unwrap_or_else(|payload| {
        let reason = panic_reason(payload.as_ref());
        (JobStatus::Failed { reason }, RunStats::empty())
    });
    finish(job, status, waited, Some(stats));
}

/// Build the job's runner and step it to the target with cooperative
/// checks at every MD-step boundary.
fn run(job: &Job) -> (JobStatus, RunStats) {
    let spec = &job.spec;
    let started = Instant::now();
    let mut runner = ResilientRunner::new(spec.cfg.clone(), spec.checkpoint_every)
        .with_max_rollbacks(spec.max_rollbacks);

    let mut excited = f64::NAN;
    let step_loop = |runner: &mut ResilientRunner, excited: &mut f64| loop {
        if job.shared.cancel.load(Ordering::Acquire) {
            break JobStatus::Cancelled;
        }
        if job.deadline_at.is_some_and(|d| Instant::now() >= d) {
            break JobStatus::DeadlineExceeded;
        }
        if runner.md_steps() >= spec.target_steps {
            break JobStatus::Completed;
        }
        match runner.step() {
            Ok(report) => *excited = report.excited_population,
            Err(ResilienceError::Unrecoverable { rollbacks }) => {
                break JobStatus::Evicted { rollbacks };
            }
            Err(ResilienceError::Ckpt(e)) => {
                break JobStatus::Failed {
                    reason: format!("checkpoint: {e}"),
                };
            }
        }
    };
    let status = match spec.pool_share {
        PoolShare::Inline => dcmesh_pool::run_inline(|| step_loop(&mut runner, &mut excited)),
        PoolShare::Shared => step_loop(&mut runner, &mut excited),
    };

    (
        status,
        RunStats {
            steps_done: runner.md_steps(),
            rollbacks: runner.rollbacks(),
            excited_population: excited,
            summary: runner.summary(),
            samples: runner.samples().cloned().collect(),
            run_s: started.elapsed().as_secs_f64(),
        },
    )
}

/// Publish the terminal outcome, with the run's samples and summary when
/// the job started: `stats` is `None` for one resolved while queued.
fn finish(job: &Job, status: JobStatus, waited: f64, stats: Option<RunStats>) {
    let attempts = u32::from(stats.is_some());
    let stats = stats.unwrap_or_else(RunStats::empty);
    job.shared.finish(JobOutcome {
        status,
        steps_done: stats.steps_done,
        rollbacks: stats.rollbacks,
        attempts,
        queue_wait_s: waited,
        run_s: stats.run_s,
        excited_population: stats.excited_population,
        summary: stats.summary,
        samples: stats.samples,
    });
}

fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_core::{DcMeshConfig, DcMeshSim};

    fn quick_spec(name: &str) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            cfg: DcMeshConfig {
                n_qd: 5,
                ..DcMeshConfig::default()
            },
            target_steps: 3,
            ..JobSpec::default()
        }
    }

    #[test]
    fn a_served_job_matches_a_direct_run_bit_for_bit() {
        let _guard = dcmesh_lfd::fault::test_lock();
        let service = Service::start(ServeConfig::default());
        let handle = service.submit(quick_spec("direct-equiv")).unwrap();
        let outcome = handle.wait();
        service.shutdown(true);
        assert_eq!(outcome.status, JobStatus::Completed);
        assert_eq!(outcome.steps_done, 3);
        assert_eq!(outcome.attempts, 1);

        let mut sim = DcMeshSim::new(quick_spec("direct-equiv").cfg);
        let mut direct = f64::NAN;
        for _ in 0..3 {
            direct = sim.md_step().excited_population;
        }
        assert_eq!(
            outcome.excited_population.to_bits(),
            direct.to_bits(),
            "serving must not perturb the physics"
        );
        let jsonl = dcmesh_core::step_series_jsonl(&outcome.samples);
        assert_eq!(jsonl.lines().count(), 3);
    }

    #[test]
    fn inline_and_shared_pool_policies_agree_on_the_physics() {
        let _guard = dcmesh_lfd::fault::test_lock();
        let service = Service::start(ServeConfig::default());
        let shared = service
            .submit(JobSpec {
                pool_share: PoolShare::Shared,
                ..quick_spec("policy")
            })
            .unwrap();
        let inline = service
            .submit(JobSpec {
                pool_share: PoolShare::Inline,
                ..quick_spec("policy")
            })
            .unwrap();
        let (a, b) = (shared.wait(), inline.wait());
        service.shutdown(true);
        assert_eq!(a.status, JobStatus::Completed);
        assert_eq!(b.status, JobStatus::Completed);
        assert_eq!(
            a.excited_population.to_bits(),
            b.excited_population.to_bits(),
            "thread-share policy is a performance knob, not a physics knob"
        );
    }

    #[test]
    fn a_panicking_job_fails_without_taking_the_worker_down() {
        let _guard = dcmesh_lfd::fault::test_lock();
        let service = Service::start(ServeConfig {
            concurrency: 1,
            ..ServeConfig::default()
        });
        // domains_x = 0 is structurally invalid and panics inside the
        // attempt; the single worker must survive to serve the next job.
        let bad = service
            .submit(JobSpec {
                cfg: DcMeshConfig {
                    domains_x: 0,
                    ..quick_spec("bad").cfg
                },
                ..quick_spec("bad")
            })
            .unwrap();
        let good = service.submit(quick_spec("good")).unwrap();
        let bad_out = bad.wait();
        let good_out = good.wait();
        service.shutdown(true);
        assert!(
            matches!(bad_out.status, JobStatus::Failed { .. }),
            "{bad_out:?}"
        );
        assert_eq!(good_out.status, JobStatus::Completed);
    }
}
