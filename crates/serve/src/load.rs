//! Open-loop load harness shared by the `serve_load` bench driver and the
//! deterministic-replay test.
//!
//! Arrivals are open-loop: interarrival gaps are drawn from an
//! exponential distribution via the counter-based `SplitMix64` generator,
//! so the offered load does not slow down when the service saturates —
//! saturation shows up as queueing delay and, past the queue bound, as
//! typed rejections, exactly like a real multi-tenant front door. A zero
//! `mean_arrival` degenerates to a burst (every job submitted at once),
//! which is also the deterministic-replay configuration: no sleeps, no
//! deadline, capacity ≥ jobs, so the physics digest depends only on the
//! seeds.

use std::time::{Duration, Instant};

use dcmesh_core::DcMeshConfig;
use rand::rngs::SplitMix64;
use rand::{Rng, SeedableRng};

use crate::job::{JobSpec, JobStatus, PoolShare};
use crate::service::{ServeConfig, Service};

/// Load-run shape.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Jobs to offer.
    pub jobs: usize,
    /// Worker threads (concurrent jobs).
    pub concurrency: usize,
    /// Admission-queue bound.
    pub queue_capacity: usize,
    /// MD steps per job.
    pub steps_per_job: u64,
    /// QD steps per MD step (`DcMeshConfig::n_qd`; the job's cost per step).
    pub n_qd: usize,
    /// Seed for both the arrival process and the per-job physics seeds.
    pub seed: u64,
    /// Mean exponential interarrival gap; zero = burst submission.
    pub mean_arrival: Duration,
    /// Per-job wall-clock deadline.
    pub deadline: Option<Duration>,
    /// Thread-share policy for every job.
    pub pool_share: PoolShare,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            jobs: 16,
            concurrency: 2,
            queue_capacity: 64,
            steps_per_job: 3,
            n_qd: 5,
            seed: 42,
            mean_arrival: Duration::ZERO,
            deadline: None,
            pool_share: PoolShare::Inline,
        }
    }
}

/// Aggregate results of one load run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Jobs admitted.
    pub submitted: usize,
    /// Jobs shed at the door ([`crate::Rejected::QueueFull`]).
    pub rejected: usize,
    /// Terminal-status counts over the admitted jobs.
    pub completed: usize,
    /// Evicted after the runner's rollbacks ran out.
    pub evicted: usize,
    /// Cancelled (shutdown or explicit).
    pub cancelled: usize,
    /// Deadline missed.
    pub deadline_exceeded: usize,
    /// Infrastructure failures.
    pub failed: usize,
    /// Wall seconds from first submission to last outcome.
    pub wall_s: f64,
    /// Completed jobs per wall second.
    pub throughput_jobs_per_s: f64,
    /// Queue-wait quantiles over admitted jobs (seconds).
    pub queue_p50_s: f64,
    /// 95th-percentile queue wait.
    pub queue_p95_s: f64,
    /// Run-time quantiles over the admitted jobs that started (seconds);
    /// NaN when none did.
    pub run_p50_s: f64,
    /// 95th-percentile run time.
    pub run_p95_s: f64,
    /// Order-independent digest over the completed jobs' physics outputs;
    /// equal across replays of the same config (fixed seed, burst
    /// arrivals, no deadline).
    pub digest: u64,
}

/// SplitMix64 output mix — used to fold per-job results into an
/// order-independent digest.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in (0, 1) from the top 53 bits of a `u64`.
fn unit_open(x: u64) -> f64 {
    ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Nearest-rank `q`-quantile of `v` (sorted in place); NaN when empty.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v.get(rank.max(1) - 1).copied().unwrap_or(f64::NAN)
}

/// Offer `cfg.jobs` jobs to a fresh service and account for every one.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    let service = Service::start(ServeConfig {
        queue_capacity: cfg.queue_capacity,
        concurrency: cfg.concurrency,
    });
    let mut rng = SplitMix64::seed_from_u64(cfg.seed);
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(cfg.jobs);
    let mut rejected = 0usize;
    for i in 0..cfg.jobs {
        if i > 0 && !cfg.mean_arrival.is_zero() {
            let gap = cfg.mean_arrival.as_secs_f64() * -unit_open(rng.next_u64()).ln();
            // Cap pathological tail draws so a run's length stays bounded.
            let cap = cfg.mean_arrival.as_secs_f64() * 8.0;
            std::thread::sleep(Duration::from_secs_f64(gap.min(cap)));
        }
        let spec = JobSpec {
            name: format!("load-{i}"),
            cfg: DcMeshConfig {
                n_qd: cfg.n_qd,
                seed: mix(cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ..DcMeshConfig::default()
            },
            target_steps: cfg.steps_per_job,
            deadline: cfg.deadline,
            pool_share: cfg.pool_share,
            ..JobSpec::default()
        };
        match service.submit(spec) {
            Ok(h) => handles.push(h),
            Err(_) => rejected += 1,
        }
    }

    let outcomes: Vec<_> = handles.iter().map(|h| h.wait()).collect();
    let wall_s = t0.elapsed().as_secs_f64();
    service.shutdown(true);

    let mut queue_s: Vec<f64> = outcomes.iter().map(|o| o.queue_wait_s).collect();
    // A job resolved in the queue never ran: its `run_s` is 0, not a run time.
    let mut run_s: Vec<f64> = outcomes
        .iter()
        .map(|o| o.run_s)
        .filter(|&s| s > 0.0)
        .collect();
    let mut report = LoadReport {
        submitted: outcomes.len(),
        rejected,
        completed: 0,
        evicted: 0,
        cancelled: 0,
        deadline_exceeded: 0,
        failed: 0,
        wall_s,
        throughput_jobs_per_s: 0.0,
        queue_p50_s: quantile(&mut queue_s, 0.50),
        queue_p95_s: quantile(&mut queue_s, 0.95),
        run_p50_s: quantile(&mut run_s, 0.50),
        run_p95_s: quantile(&mut run_s, 0.95),
        digest: 0,
    };
    for (h, o) in handles.iter().zip(&outcomes) {
        match &o.status {
            JobStatus::Completed => {
                report.completed += 1;
                report.digest ^= mix(h.id() ^ o.excited_population.to_bits());
            }
            JobStatus::Evicted { .. } => report.evicted += 1,
            JobStatus::Cancelled => report.cancelled += 1,
            JobStatus::DeadlineExceeded => report.deadline_exceeded += 1,
            JobStatus::Failed { .. } => report.failed += 1,
            JobStatus::Queued | JobStatus::Running => {
                unreachable!("wait() only returns terminal outcomes")
            }
        }
    }
    report.throughput_jobs_per_s = if wall_s > 0.0 {
        report.completed as f64 / wall_s
    } else {
        0.0
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_burst_completes_every_job() {
        let _guard = dcmesh_lfd::fault::test_lock();
        let cfg = LoadConfig {
            jobs: 4,
            concurrency: 2,
            steps_per_job: 2,
            ..LoadConfig::default()
        };
        let report = run_load(&cfg);
        assert_eq!(report.submitted, 4);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.completed, 4);
        assert_eq!(report.failed, 0);
        assert!(report.throughput_jobs_per_s > 0.0);
        assert!(report.queue_p95_s >= 0.0);
        assert_ne!(report.digest, 0, "digest folds in every completed job");
    }

    #[test]
    fn jobs_that_never_started_have_no_run_time() {
        let _guard = dcmesh_lfd::fault::test_lock();
        let cfg = LoadConfig {
            jobs: 3,
            concurrency: 1,
            steps_per_job: 2,
            deadline: Some(Duration::ZERO),
            ..LoadConfig::default()
        };
        let report = run_load(&cfg);
        assert_eq!(report.submitted, 3);
        assert_eq!(report.deadline_exceeded, 3);
        assert!(report.queue_p95_s >= 0.0);
        assert!(report.run_p50_s.is_nan(), "run p50 {}", report.run_p50_s);
        assert!(report.run_p95_s.is_nan(), "run p95 {}", report.run_p95_s);
    }
}
