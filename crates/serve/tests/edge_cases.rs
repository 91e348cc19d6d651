//! Edge cases of the job service: cancellation releasing capacity,
//! admission backpressure under bursts, checkpoint-backed eviction with
//! healthy siblings, and whole-run deterministic replay.

use std::time::{Duration, Instant};

use dcmesh_core::DcMeshConfig;
use dcmesh_lfd::fault;
use dcmesh_serve::{
    run_load, JobHandle, JobSpec, JobStatus, LoadConfig, Rejected, ServeConfig, Service,
};

fn quick_cfg(seed: u64) -> DcMeshConfig {
    DcMeshConfig {
        n_qd: 5,
        seed,
        ..DcMeshConfig::default()
    }
}

fn spec(name: &str, target_steps: u64) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        cfg: quick_cfg(7),
        target_steps,
        ..JobSpec::default()
    }
}

/// Spin until the job reports `Running` (the worker picked it up).
fn wait_running(handle: &JobHandle) {
    let t0 = Instant::now();
    while handle.status() != JobStatus::Running {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "job never started running (status {:?})",
            handle.status()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn cancellation_mid_run_releases_the_worker_for_the_next_job() {
    let _guard = fault::test_lock();
    let service = Service::start(ServeConfig {
        concurrency: 1,
        ..ServeConfig::default()
    });
    // A job long enough that it cannot finish before the cancel lands; the
    // single worker is fully occupied by it.
    let blocker = service.submit(spec("blocker", 100_000)).unwrap();
    wait_running(&blocker);
    let follower = service.submit(spec("follower", 2)).unwrap();
    blocker.cancel();
    let blocked_out = blocker.wait();
    assert_eq!(blocked_out.status, JobStatus::Cancelled);
    assert!(
        blocked_out.steps_done < 100_000,
        "cancel must land at a step boundary, not after completion"
    );
    // The released worker picks up the follower and finishes it — the
    // capacity freed by the cancel is really usable.
    let follow_out = follower.wait();
    assert_eq!(follow_out.status, JobStatus::Completed);
    assert_eq!(follow_out.steps_done, 2);
    service.shutdown(true);
}

#[test]
fn run_seconds_counts_only_jobs_that_started() {
    let _guard = fault::test_lock();
    let service = Service::start(ServeConfig {
        concurrency: 1,
        ..ServeConfig::default()
    });
    let blocker = service.submit(spec("blocker", 100_000)).unwrap();
    wait_running(&blocker);
    // Cancelled while queued behind the blocker: resolved by the worker's
    // pre-flight check, with no attempt.
    let queued = service.submit(spec("queued", 2)).unwrap();
    queued.cancel();
    blocker.cancel();
    let blocker_out = blocker.wait();
    assert_eq!(
        (blocker_out.status, blocker_out.attempts),
        (JobStatus::Cancelled, 1)
    );
    assert!(blocker_out.run_s > 0.0, "the blocker ran");
    let queued_out = queued.wait();
    assert_eq!(
        (queued_out.status, queued_out.attempts, queued_out.run_s),
        (JobStatus::Cancelled, 0, 0.0),
        "a job resolved in the queue has no run time"
    );
    service.shutdown(true);
}

#[test]
fn burst_arrivals_beyond_the_queue_bound_are_rejected_typed() {
    let _guard = fault::test_lock();
    let service = Service::start(ServeConfig {
        concurrency: 1,
        queue_capacity: 1,
    });
    let blocker = service.submit(spec("blocker", 100_000)).unwrap();
    wait_running(&blocker);
    // The worker is busy: one job fits in the queue, the burst overflow is
    // shed at the door with the typed rejection.
    let queued = service.submit(spec("queued", 2)).unwrap();
    let overflow = service.submit(spec("overflow", 2));
    assert_eq!(
        overflow.unwrap_err(),
        Rejected::QueueFull { capacity: 1 },
        "admission control must name the bound it enforced"
    );
    blocker.cancel();
    assert_eq!(blocker.wait().status, JobStatus::Cancelled);
    assert_eq!(queued.wait().status, JobStatus::Completed);
    service.shutdown(true);
}

#[test]
fn an_expired_deadline_resolves_before_any_state_is_built() {
    let _guard = fault::test_lock();
    let service = Service::start(ServeConfig::default());
    let handle = service
        .submit(JobSpec {
            deadline: Some(Duration::ZERO),
            ..spec("already-late", 50)
        })
        .unwrap();
    let out = handle.wait();
    service.shutdown(true);
    assert_eq!(out.status, JobStatus::DeadlineExceeded);
    assert_eq!(
        out.steps_done, 0,
        "no SCF work for a job that is already late"
    );
}

#[test]
fn a_deadline_past_the_clock_is_no_deadline() {
    let _guard = fault::test_lock();
    let service = Service::start(ServeConfig::default());
    let handle = service
        .submit(JobSpec {
            deadline: Some(Duration::MAX),
            ..spec("never-late", 2)
        })
        .unwrap();
    let out = handle.wait();
    service.shutdown(true);
    assert_eq!((out.status, out.steps_done), (JobStatus::Completed, 2));
}

#[test]
fn a_nan_poisoned_job_is_evicted_while_its_siblings_finish() {
    // The one-shot NaN injection poisons whichever concurrent job reaches
    // MD step 1 first. With a zero rollback budget that job must be
    // evicted — and only that job; its siblings complete and the service
    // keeps running.
    fault::with_nan_at(1, || {
        let service = Service::start(ServeConfig {
            concurrency: 2,
            ..ServeConfig::default()
        });
        let handles: Vec<_> = (0..3)
            .map(|i| {
                service
                    .submit(JobSpec {
                        max_rollbacks: 0,
                        ..spec(&format!("tenant-{i}"), 3)
                    })
                    .unwrap()
            })
            .collect();
        let outcomes: Vec<_> = handles.iter().map(|h| h.wait()).collect();
        service.shutdown(true);
        let evicted: Vec<_> = outcomes
            .iter()
            .filter(|o| matches!(o.status, JobStatus::Evicted { .. }))
            .collect();
        let completed = outcomes
            .iter()
            .filter(|o| o.status == JobStatus::Completed)
            .count();
        assert_eq!(
            evicted.len(),
            1,
            "exactly one job consumes the one-shot NaN: {outcomes:?}"
        );
        assert_eq!(completed, 2, "siblings must be unaffected: {outcomes:?}");
        assert_eq!(evicted[0].status, JobStatus::Evicted { rollbacks: 0 });
        assert_eq!(evicted[0].attempts, 1);
    });
}

#[test]
fn a_nan_poisoned_job_rolls_back_to_its_checkpoint_and_completes() {
    // Same injection, but with a rollback budget: the runner restores its
    // last good snapshot with a halved QD step, and — the injection being
    // consumed — the replayed step is clean and the job completes.
    fault::with_nan_at(1, || {
        let service = Service::start(ServeConfig {
            concurrency: 1,
            ..ServeConfig::default()
        });
        let handle = service
            .submit(JobSpec {
                max_rollbacks: 1,
                ..spec("degraded", 3)
            })
            .unwrap();
        let out = handle.wait();
        service.shutdown(true);
        assert_eq!(out.status, JobStatus::Completed, "{out:?}");
        assert_eq!(
            (out.attempts, out.rollbacks),
            (1, 1),
            "one run, one rollback"
        );
        assert_eq!(out.steps_done, 3);
        assert!(out.excited_population.is_finite());
    });
}

#[test]
fn a_whole_load_run_replays_deterministically_under_a_fixed_seed() {
    let _guard = fault::test_lock();
    // Burst arrivals, no deadline, capacity >= jobs: every job is admitted
    // and completes, so the physics digest is a pure function of the seed.
    let cfg = LoadConfig {
        jobs: 6,
        concurrency: 2,
        queue_capacity: 6,
        steps_per_job: 2,
        seed: 1234,
        ..LoadConfig::default()
    };
    let a = run_load(&cfg);
    let b = run_load(&cfg);
    assert_eq!(a.completed, 6);
    assert_eq!(b.completed, 6);
    assert_eq!(a.rejected, 0);
    assert_eq!(
        a.digest, b.digest,
        "same seed, same jobs => identical physics digest"
    );
    // Scheduling freedom (different worker count) must not leak into the
    // physics: the digest is concurrency-invariant.
    let c = run_load(&LoadConfig {
        concurrency: 3,
        ..cfg.clone()
    });
    assert_eq!(c.completed, 6);
    assert_eq!(a.digest, c.digest, "digest must be schedule-independent");
    // A different seed is different physics.
    let d = run_load(&LoadConfig { seed: 4321, ..cfg });
    assert_ne!(a.digest, d.digest);
}
