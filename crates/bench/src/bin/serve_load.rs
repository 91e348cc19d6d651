//! Saturation study of the `dcmesh-serve` job service: offer a fixed batch
//! of jobs at each concurrency level and report throughput plus queue/run
//! latency quantiles.
//!
//! Arrivals are open-loop (`--arrival-ms`, counter-based RNG; 0 = burst),
//! so a saturated service shows up as queueing delay and — past the queue
//! bound — typed rejections, not as a politely slowed-down workload.
//! Jobs use [`dcmesh_serve::PoolShare::Inline`], pinning each job's
//! kernels to its scheduler thread: throughput then scales with
//! `--concurrency` until the worker count reaches the machine's cores
//! (pool saturation), which is the curve EXPERIMENTS.md tabulates.
//!
//! The queue holds the whole batch, so without `--deadline-ms` nothing may
//! be shed: the driver fails unless every job completes at every
//! concurrency level.

use std::time::Duration;

use dcmesh_bench::BenchArgs;
use dcmesh_core::metrics::Table;
use dcmesh_serve::{run_load, LoadConfig, PoolShare};

fn main() {
    let args = BenchArgs::parse_with_default(0.1);
    println!("serve_load — batched job-service saturation study");
    args.init_obs();

    let jobs = args.jobs.unwrap_or(16);
    let sweep = args.concurrency.clone().unwrap_or_else(|| vec![1, 2, 4]);
    let steps_per_job = ((30.0 * args.scale).round() as u64).max(2);
    let deadline = args.deadline_ms.map(Duration::from_millis);
    let mean_arrival = Duration::from_secs_f64(args.arrival_ms.unwrap_or(0.0) / 1e3);
    println!(
        "{} jobs x {} MD steps per job, deadline {:?}, mean arrival {:?}, pool {} threads\n",
        jobs,
        steps_per_job,
        deadline,
        mean_arrival,
        dcmesh_pool::configured_threads()
    );

    let mut table = Table::new(&[
        "Concurrency",
        "Completed",
        "Rejected",
        "Deadline",
        "Throughput (jobs/s)",
        "Queue p50 (s)",
        "Queue p95 (s)",
        "Run p50 (s)",
        "Run p95 (s)",
    ]);
    let mut saturation = 0.0f64;
    let mut digest = None;
    let mut lost = Vec::new();
    for &c in &sweep {
        let report = run_load(&LoadConfig {
            jobs,
            concurrency: c,
            queue_capacity: jobs.max(1),
            steps_per_job,
            n_qd: 5,
            seed: 42,
            mean_arrival,
            deadline,
            pool_share: PoolShare::Inline,
        });
        table.row(&[
            c.to_string(),
            report.completed.to_string(),
            report.rejected.to_string(),
            report.deadline_exceeded.to_string(),
            format!("{:.2}", report.throughput_jobs_per_s),
            format!("{:.4}", report.queue_p50_s),
            format!("{:.4}", report.queue_p95_s),
            format!("{:.4}", report.run_p50_s),
            format!("{:.4}", report.run_p95_s),
        ]);
        saturation = saturation.max(report.throughput_jobs_per_s);
        // The physics digest must not depend on the concurrency level (same
        // jobs, same seeds) as long as nothing was shed or cut short.
        if report.completed == jobs {
            match digest {
                None => digest = Some(report.digest),
                Some(d) => assert_eq!(
                    d, report.digest,
                    "completed-job digest drifted across concurrency levels"
                ),
            }
        } else {
            // Rejected, past its deadline, evicted, cancelled or failed.
            lost.push((c, jobs - report.completed));
        }
    }
    println!("{}", table.render());
    if let Some(d) = digest {
        println!("physics digest over completed jobs: {d:016x} (concurrency-invariant)");
    }
    println!("saturation throughput: {saturation:.2} jobs/s");
    args.finish_obs();
    assert!(
        deadline.is_some() || lost.is_empty(),
        "jobs lost with no deadline and a queue that holds them all, (concurrency, jobs): {lost:?}"
    );
}
