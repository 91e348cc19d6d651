//! # dcmesh-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation (§IV). One binary per artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table I — `kin_prop()` optimization ladder (Alg. 1/3/4/5, `nowait` ablation) |
//! | `table2` | Table II — build-variant ladder x SP/DP (electron propagation / nonlocal / total) |
//! | `fig2_weak_scaling` | Fig. 2 — weak-scaling parallel efficiency to 1,024 ranks |
//! | `fig3_strong_scaling` | Fig. 3 — strong scaling, 5,120- and 10,240-atom PbTiO3 |
//! | `fig4_throughput` | Fig. 4 — single-node CPU vs CPU+GPU throughput |
//! | `fig5_kernels` | Fig. 5 — DP kernel runtimes across builds |
//! | `fig6_speedup` | Fig. 6 — cumulative speedup ladder (1x -> 644x) |
//! | `fig7_flux_closure` | Fig. 7 — flux-closure polar topology + laser switching |
//!
//! CPU rows are **measured** wall-clock on this machine; GPU rows are
//! **modeled** by the A100 roofline runtime (clearly labeled). Default
//! workloads are scaled down so every binary finishes in seconds; pass
//! `--full` for the paper-size workload (70x70x72 mesh, 64 orbitals,
//! 1,000 QD steps) and `--scale X` for anything in between.
//!
//! The drivers print their tables (plus `--trace` / `--report`); they write
//! no record. Speed claims are measured by the frozen benchmark under
//! `benchmark/`, and what is deterministic here is gated by `cargo test`.

use dcmesh_core::metrics::Table;
use dcmesh_grid::Mesh3;
use dcmesh_obs::Event;
use std::path::PathBuf;

/// Workload scale and observability options parsed from the command line.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Fraction of the paper workload (1.0 = full).
    pub scale: f64,
    /// Write a Chrome-trace/Perfetto JSON of the run to this path.
    pub trace: Option<PathBuf>,
    /// Print the flat per-phase aggregate table at exit.
    pub report: bool,
    /// Use the deterministic counter clock for host timestamps, so the
    /// trace file is byte-identical across runs of a fixed-seed workload.
    pub deterministic: bool,
    /// Worker-thread count for the persistent pool (`--threads N`).
    /// Precedence: `--threads` > `DCMESH_THREADS` > `available_parallelism`.
    pub threads: Option<usize>,
    /// Write a checkpoint every N MD steps (`--checkpoint-every N`, 0 =
    /// off). Only meaningful to drivers that run a [`dcmesh_core::DcMeshSim`].
    pub checkpoint_every: u64,
    /// Checkpoint file path (`--checkpoint PATH`).
    pub checkpoint: Option<PathBuf>,
    /// Resume from this checkpoint file before stepping (`--restore PATH`).
    pub restore: Option<PathBuf>,
    /// Disable halo/compute overlap in the scaling benches
    /// (`--no-overlap`) — the paper's "disable nowait" ablation. Halo
    /// exchanges run blocking (send, then receive, then compute) instead
    /// of posted-early with the wait after the compute slice.
    pub no_overlap: bool,
    /// Override the scaling benches' rank sweep (`--ranks 4,8,16`).
    pub ranks: Option<Vec<usize>>,
    /// Jobs to offer in the `serve_load` driver (`--jobs N`).
    pub jobs: Option<usize>,
    /// Concurrency sweep for `serve_load` (`--concurrency 1,2,4`).
    pub concurrency: Option<Vec<usize>>,
    /// Per-job wall-clock deadline for `serve_load` (`--deadline-ms MS`).
    pub deadline_ms: Option<u64>,
    /// Mean open-loop interarrival gap for `serve_load`
    /// (`--arrival-ms MS`, 0 = burst).
    pub arrival_ms: Option<f64>,
}

impl BenchArgs {
    /// Parse `--full`, `--scale X`, `--quick`, `--trace PATH`, `--report`,
    /// `--deterministic`, `--threads N`, `--checkpoint-every N`,
    /// `--checkpoint PATH`, `--restore PATH`, `--no-overlap`,
    /// `--ranks P1,P2,...`,
    /// `--jobs N`, `--concurrency C1,C2,...`, `--deadline-ms MS`,
    /// `--arrival-ms MS` from `std::env::args`, and install the
    /// `DCMESH_FAULT_PLAN` fault plan if one is set (exit 2 on a bad one).
    pub fn parse() -> Self {
        Self::parse_with_default(0.25)
    }

    /// Parse with a benchmark-specific default scale.
    pub fn parse_with_default(default_scale: f64) -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut parsed = Self {
            scale: default_scale,
            trace: None,
            report: false,
            deterministic: false,
            threads: None,
            checkpoint_every: 0,
            checkpoint: None,
            restore: None,
            no_overlap: false,
            ranks: None,
            jobs: None,
            concurrency: None,
            deadline_ms: None,
            arrival_ms: None,
        };
        let mut it = args.iter().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => parsed.scale = 1.0,
                "--quick" => parsed.scale = 0.1,
                "--scale" => {
                    parsed.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale requires a number");
                }
                "--trace" => {
                    parsed.trace = Some(PathBuf::from(it.next().expect("--trace requires a path")));
                }
                "--report" => parsed.report = true,
                "--deterministic" => parsed.deterministic = true,
                "--threads" => {
                    parsed.threads = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--threads requires a positive integer"),
                    );
                }
                "--checkpoint-every" => {
                    parsed.checkpoint_every = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--checkpoint-every requires a step count");
                }
                "--checkpoint" => {
                    parsed.checkpoint = Some(PathBuf::from(
                        it.next().expect("--checkpoint requires a path"),
                    ));
                }
                "--restore" => {
                    parsed.restore =
                        Some(PathBuf::from(it.next().expect("--restore requires a path")));
                }
                "--no-overlap" => parsed.no_overlap = true,
                "--ranks" => {
                    let list = it.next().expect("--ranks requires a comma-separated list");
                    let ranks: Vec<usize> = list
                        .split(',')
                        .map(|v| {
                            v.trim()
                                .parse()
                                .unwrap_or_else(|_| panic!("--ranks: bad rank count {v:?}"))
                        })
                        .collect();
                    assert!(!ranks.is_empty(), "--ranks requires at least one entry");
                    parsed.ranks = Some(ranks);
                }
                "--jobs" => {
                    parsed.jobs = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--jobs requires a positive integer"),
                    );
                }
                "--concurrency" => {
                    let list = it
                        .next()
                        .expect("--concurrency requires a comma-separated list");
                    let sweep: Vec<usize> = list
                        .split(',')
                        .map(|v| {
                            v.trim()
                                .parse()
                                .unwrap_or_else(|_| panic!("--concurrency: bad worker count {v:?}"))
                        })
                        .collect();
                    assert!(
                        !sweep.is_empty(),
                        "--concurrency requires at least one entry"
                    );
                    parsed.concurrency = Some(sweep);
                }
                "--deadline-ms" => {
                    parsed.deadline_ms = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--deadline-ms requires a millisecond count"),
                    );
                }
                "--arrival-ms" => {
                    parsed.arrival_ms = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--arrival-ms requires a millisecond value"),
                    );
                }
                other => panic!(
                    "unknown argument: {other} (use --full | --quick | --scale X | \
                     --trace PATH | --report | --deterministic | --threads N | \
                     --checkpoint-every N | --checkpoint PATH | --restore PATH | \
                     --no-overlap | --ranks P1,P2,... | \
                     --jobs N | --concurrency C1,C2,... | --deadline-ms MS | \
                     --arrival-ms MS)"
                ),
            }
        }
        // Must happen before the first pool use anywhere in the binary:
        // the global pool is built once, on first dispatch.
        if let Some(n) = parsed.threads {
            dcmesh_pool::set_thread_override(n);
        }
        // A fault plan that does not parse must not run as a clean one.
        if let Err(e) = dcmesh_lfd::fault::install_from_env() {
            eprintln!("DCMESH_FAULT_PLAN: {e}");
            std::process::exit(2);
        }
        parsed
    }

    /// Whether any observability output was requested.
    pub fn obs_active(&self) -> bool {
        self.trace.is_some() || self.report
    }

    /// Turn the global collector on if `--trace`/`--report` was given.
    /// Call once, before the instrumented work starts.
    pub fn init_obs(&self) {
        if !self.obs_active() {
            return;
        }
        if self.deterministic {
            dcmesh_obs::clock::set_mode(dcmesh_obs::clock::ClockMode::Counter { step_us: 1 });
        }
        dcmesh_obs::enable();
    }

    /// Drain the collector, write the trace file and/or print the report
    /// as requested, and hand back the drained events for further checks.
    /// Returns `None` (and does nothing) when observability is off.
    pub fn finish_obs(&self) -> Option<Vec<Event>> {
        if !self.obs_active() {
            return None;
        }
        dcmesh_obs::disable();
        let events = dcmesh_obs::trace::drain();
        if let Some(path) = &self.trace {
            dcmesh_obs::chrome::write_chrome_trace(path, &events)
                .unwrap_or_else(|e| panic!("cannot write trace to {}: {e}", path.display()));
            println!(
                "wrote Chrome trace ({} events) to {}",
                events.len(),
                path.display()
            );
        }
        if self.report {
            println!("\nPer-phase aggregate report");
            println!("{}", obs_report(&events));
        }
        Some(events)
    }

    /// The benchmark mesh at this scale (paper: 70 x 70 x 72).
    pub fn mesh(&self) -> Mesh3 {
        let d = |n: usize| ((n as f64 * self.scale).round() as usize).max(8);
        Mesh3::new(d(70), d(70), d(72), 0.42, 0.42, 0.42)
    }

    /// Orbital count at this scale (paper: 64).
    pub fn norb(&self) -> usize {
        ((64.0 * self.scale).round() as usize).max(4)
    }

    /// QD steps at this scale (paper: 1,000).
    pub fn n_qd(&self) -> usize {
        ((1000.0 * self.scale).round() as usize).max(10)
    }

    /// Human-readable workload description for report headers.
    pub fn describe(&self) -> String {
        let m = self.mesh();
        format!(
            "workload: {}x{}x{} mesh, {} orbitals, {} QD steps (scale {:.2} of the paper's 70x70x72 / 64 / 1000), {} pool threads",
            m.nx,
            m.ny,
            m.nz,
            self.norb(),
            self.n_qd(),
            self.scale,
            dcmesh_pool::configured_threads()
        )
    }
}

/// Paper reference numbers, quoted verbatim for side-by-side reporting.
pub mod paper {
    /// Table I: (implementation, target, runtime seconds, speedup).
    pub const TABLE1: [(&str, &str, f64, f64); 5] = [
        ("Algorithm 1", "CPU", 8.655, 1.0),
        ("Algorithm 3", "CPU", 2.356, 3.67),
        ("Algorithm 4", "CPU", 0.939, 9.22),
        ("Algorithm 5", "GPU", 0.026, 338.0),
        ("Algorithm 5 (disable nowait)", "GPU", 0.029, 298.0),
    ];

    /// Table II total runtimes (seconds): (build, SP, DP).
    pub const TABLE2_TOTAL: [(&str, f64, f64); 5] = [
        ("CPU OpenMP Parallel", 1082.0, 1167.0),
        ("CPU OpenMP Parallel + BLAS", 38.83, 65.93),
        ("GPU OpenMP Offload + BLAS", 17.14, 29.23),
        ("GPU OpenMP Offload + cuBLAS", 1.33, 2.11),
        ("GPU cuBLAS + Pinned/Streams", 1.06, 1.48),
    ];

    /// Fig. 2: weak-scaling efficiency at P = 1024 ranks.
    pub const WEAK_EFF_1024: f64 = 0.9673;

    /// Fig. 3: strong-scaling efficiencies.
    pub const STRONG_EFF_5120_AT_256: f64 = 0.6634;
    /// 10,240 atoms on 512 ranks.
    pub const STRONG_EFF_10240_AT_512: f64 = 0.8083;

    /// Fig. 4: single-node CPU+GPU over CPU-only throughput.
    pub const FIG4_SPEEDUP: f64 = 19.0;

    /// Fig. 5 speedups (CPU+BLAS -> GPU+cuBLAS+pinned, DP):
    /// electron propagation, nonlocal propagation, energy calculation.
    pub const FIG5_SPEEDUPS: [f64; 3] = [45.0, 42.0, 46.0];

    /// Fig. 6 cumulative ladder: BLAS on CPU, GPU offload over that, pinned
    /// gain, and the total.
    pub const FIG6_CPU_BLAS: f64 = 25.2;
    /// GPU over BLASified CPU.
    pub const FIG6_GPU_OVER_BLAS: f64 = 18.6;
    /// Pinned-memory extra gain (fraction).
    pub const FIG6_PINNED_GAIN: f64 = 0.376;
    /// Total cumulative speedup.
    pub const FIG6_TOTAL: f64 = 644.0;
}

/// Render the flat per-phase aggregate of a drained timeline through the
/// shared [`Table`] formatter: one row per `(phase, track)` with counts,
/// total seconds, and attached bytes.
pub fn obs_report(events: &[Event]) -> String {
    let mut table = Table::new(&["Phase", "Track", "Count", "Total (s)", "Bytes"]);
    for agg in dcmesh_obs::report::aggregate(events) {
        table.row(&[
            agg.name.clone(),
            agg.track.to_string(),
            agg.count.to_string(),
            fmt_s(agg.total_s),
            agg.bytes.to_string(),
        ]);
    }
    table.render()
}

/// Total host-track seconds recorded for one phase name.
pub fn host_phase_seconds(events: &[Event], name: &str) -> f64 {
    dcmesh_obs::report::aggregate(events)
        .iter()
        .filter(|a| a.name == name && a.track == "host")
        .map(|a| a.total_s)
        .sum()
}

/// Format a seconds value with sensible precision.
pub fn fmt_s(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}")
    } else if t >= 1.0 {
        format!("{t:.2}")
    } else {
        format!("{t:.4}")
    }
}

/// Format a speedup.
pub fn fmt_x(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}x")
    } else {
        format!("{x:.2}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_at(scale: f64) -> BenchArgs {
        BenchArgs {
            scale,
            trace: None,
            report: false,
            deterministic: false,
            threads: None,
            checkpoint_every: 0,
            checkpoint: None,
            restore: None,
            no_overlap: false,
            ranks: None,
            jobs: None,
            concurrency: None,
            deadline_ms: None,
            arrival_ms: None,
        }
    }

    #[test]
    fn default_scale_shrinks_workload() {
        let a = args_at(0.25);
        assert!(a.mesh().len() < 70 * 70 * 72 / 10);
        assert_eq!(a.norb(), 16);
        assert_eq!(a.n_qd(), 250);
        assert!(!a.obs_active());
    }

    #[test]
    fn full_scale_matches_paper() {
        let a = args_at(1.0);
        let m = a.mesh();
        assert_eq!((m.nx, m.ny, m.nz), (70, 70, 72));
        assert_eq!(a.norb(), 64);
        assert_eq!(a.n_qd(), 1000);
    }

    #[test]
    fn paper_constants_sane() {
        assert_eq!(paper::TABLE1.len(), 5);
        assert!(paper::TABLE1[3].3 > 300.0);
        const { assert!(paper::FIG6_TOTAL > 600.0) };
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_s(123.4), "123");
        assert_eq!(fmt_s(8.654), "8.65");
        assert_eq!(fmt_s(0.026), "0.0260");
        assert_eq!(fmt_x(338.0), "338x");
        assert_eq!(fmt_x(3.67), "3.67x");
    }
}
