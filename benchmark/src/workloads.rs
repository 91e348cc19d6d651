//! The four workloads: their inputs (made from the seed and nothing
//! else), their timed loops, and their correctness checks.
//!
//! Why these four is argued in `benchmark/README.md`; the short form is in
//! [`Workload::why`]. Each runs in a process of its own because the size
//! of `dcmesh_pool`'s global pool is fixed at first use.

use std::time::Instant;

use dcmesh_core::{DcMeshConfig, DcMeshSim, StepReport};
use dcmesh_grid::Mesh3;
use dcmesh_lfd::{BuildKind, LaserPulse, LfdConfig, LfdEngine};
use dcmesh_serve::{JobSpec, JobStatus, PoolShare, ServeConfig, Service};

/// Operations run and discarded after construction, before timing.
pub const WARMUP_OPS: usize = 2;
/// MD steps of one served job.
pub const JOB_STEPS: u64 = 6;
/// Jobs submitted at once.
pub const BURST_JOBS: usize = 24;
/// Jobs run through a fresh service before it is timed.
pub const WARMUP_JOBS: usize = 4;
/// Worker threads of the service.
pub const SERVE_CONCURRENCY: usize = 2;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrajLfd,
    TrajCoupled,
    ServeBurst,
    LfdSp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrajLfd,
        Workload::TrajCoupled,
        Workload::ServeBurst,
        Workload::LfdSp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrajLfd => "traj_lfd",
            Workload::TrajCoupled => "traj_coupled",
            Workload::ServeBurst => "serve_burst",
            Workload::LfdSp => "lfd_sp",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::TrajLfd => {
                "paper regime: LFD kernels are ~all of md_step (2 domains x 16^3 x 16 orbitals, device-resident build, one pool thread so that one vCPU is busy); a kernel gain must show here"
            }
            Workload::TrajCoupled => {
                "Fig. 7 shape: 640 atoms, Ehrenfest feedback, 4 small domains, 2 threads; LFD is a few % of md_step, so a kernel gain must not show and a coupling-phase gain must"
            }
            Workload::ServeBurst => {
                "ensemble user: bursts of small jobs through dcmesh-serve; eigensolver set-up, per-step snapshots and service overhead dominate, LFD kernels barely matter"
            }
            Workload::LfdSp => {
                "same LFD kernels used differently: f32, state larger than L2, each kernel spread over the 2-thread pool, host build; shows a DP-SIMD gain that costs the generic path"
            }
        }
    }

    /// Size of the global pool. Two threads is this host's
    /// `available_parallelism` and what a user gets by default. `traj_lfd`
    /// has one, as the issue sized it: with one domain per pool thread its
    /// step time spread 22-47 % between the quartiles of ten runs, because
    /// a step then waits for the slower of two vCPUs of a shared host and
    /// the work cannot move to the faster one. See the README.
    pub fn threads(self) -> usize {
        match self {
            Workload::TrajLfd => 1,
            _ => 2,
        }
    }

    /// Set-ups per run; each set-up's object is then timed for its share of
    /// the window. `setup_s` is the median, and the window averages over
    /// where each construction happened to place its arrays. `traj_lfd`
    /// sets up in 3 s and gets three; the others take a fraction of a
    /// second and get five.
    pub fn segments(self) -> usize {
        match self {
            Workload::TrajLfd => 3,
            _ => 5,
        }
    }

    /// Seconds a run is expected to spend outside its timed window
    /// (set-ups, warm-up, checks) on the host this was sized on; the wall
    /// cap is three times window plus this.
    pub fn expected_overhead_s(self) -> f64 {
        match self {
            Workload::TrajLfd => 12.0,
            Workload::TrajCoupled => 5.0,
            Workload::ServeBurst => 5.0,
            Workload::LfdSp => 5.0,
        }
    }
}

fn laser() -> LaserPulse {
    // Long enough that the pulse is on for every timed step of a segment.
    LaserPulse {
        e0: 0.3,
        omega: 0.8,
        duration: 400.0,
    }
}

/// `traj_lfd`: the default supercell with the paper-regime domain shape.
/// Its pool has one thread (see [`Workload::threads`]); the two domains'
/// engines step one after the other.
///
/// The build is `GpuCublas`, not the default `GpuCublasPinned`: the pinned
/// build's `nowait` lanes are threads of their own, and a second busy
/// thread is what made this workload's time depend on where the host put
/// the second vCPU. (At two or more pool threads the pinned build's
/// `md_step` also deadlocks: ROADMAP blocker.) The lanes are exercised by
/// `serve_burst`, whose jobs run the default build inline.
pub fn traj_lfd_cfg(seed: u64) -> DcMeshConfig {
    DcMeshConfig {
        domain_mesh_points: 16,
        norb: 16,
        lumo: 8,
        n_qd: 16,
        build: BuildKind::GpuCublas,
        laser: Some(laser()),
        seed,
        ..DcMeshConfig::default()
    }
}

/// `traj_coupled`: the Fig. 7 application shape.
pub fn traj_coupled_cfg(seed: u64) -> DcMeshConfig {
    DcMeshConfig {
        supercell_dims: [8, 4, 4],
        domains_x: 4,
        domain_mesh_points: 8,
        norb: 4,
        lumo: 2,
        n_qd: 10,
        build: BuildKind::GpuCublas,
        laser: Some(laser()),
        flux_closure_amplitude: Some(0.3),
        ehrenfest_feedback: true,
        seed,
        ..DcMeshConfig::default()
    }
}

/// The configuration every served job runs (apart from its seed).
pub fn job_cfg(seed: u64) -> DcMeshConfig {
    DcMeshConfig {
        n_qd: 5,
        seed,
        ..DcMeshConfig::default()
    }
}

/// Job `index` of the run seeded `seed`.
pub fn job_spec(seed: u64, index: usize) -> JobSpec {
    JobSpec {
        name: format!("burst-{index}"),
        cfg: job_cfg(seed.wrapping_mul(1_000_003).wrapping_add(index as u64)),
        target_steps: JOB_STEPS,
        checkpoint_every: 1,
        pool_share: PoolShare::Inline,
        ..JobSpec::default()
    }
}

/// `lfd_sp`: a stand-alone single-precision engine whose state does not
/// fit one core's L2.
pub fn lfd_sp_cfg(seed: u64) -> LfdConfig {
    LfdConfig {
        mesh: Mesh3::cubic(24, 0.4),
        norb: 32,
        lumo: 16,
        dt: 0.02,
        n_qd: 3,
        block_size: 32,
        build: BuildKind::CpuBlas,
        delta_sci: 0.05,
        laser: None,
        seed,
    }
}

/// How long and how much one run measures.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// When this process started; the first set-up is timed from here.
    pub process_start: Instant,
    /// Length of the timed window, all segments together.
    pub seconds: f64,
    /// The window is extended until this many operations were timed, so
    /// that a p90 has its ten samples beyond it.
    pub min_ops: usize,
    pub segments: usize,
    /// Run the reference comparisons after the window.
    pub verify: bool,
}

impl Plan {
    fn segment_seconds(&self) -> f64 {
        self.seconds / self.segments as f64
    }

    fn segment_min_ops(&self) -> usize {
        self.min_ops.div_ceil(self.segments)
    }
}

/// One correctness check and what it saw.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything a timed pass produced.
#[derive(Debug, Default)]
pub struct Timed {
    /// Seconds from (process or segment) start to the first timed operation.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each timed operation that succeeded.
    pub op_s: Vec<f64>,
    /// Wall seconds of the timed windows, summed over segments.
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Values the physics digest is made of.
    pub observables: Vec<f64>,
    /// QD steps one operation stands for (the factor between `ops_per_s`
    /// and QD steps per second).
    pub qd_steps_per_op: f64,
}

impl Timed {
    fn setup_done(&mut self, plan: &Plan, segment: usize, segment_start: Instant) {
        let from = if segment == 0 {
            plan.process_start
        } else {
            segment_start
        };
        self.setup_s.push(from.elapsed().as_secs_f64());
    }

    /// Closed loop: call `op` until this segment's share of the window has
    /// passed and its share of `min_ops` has run. `op` returns whether the
    /// operation's result was sound.
    fn closed_loop(&mut self, plan: &Plan, mut op: impl FnMut() -> bool) {
        let window = Instant::now();
        let mut done = 0;
        while done < plan.segment_min_ops()
            || window.elapsed().as_secs_f64() < plan.segment_seconds()
        {
            let t0 = Instant::now();
            let ok = op();
            let dt = t0.elapsed().as_secs_f64();
            self.attempted += 1;
            if ok {
                self.op_s.push(dt);
            } else {
                self.failed += 1;
            }
            done += 1;
        }
        self.window_s += window.elapsed().as_secs_f64();
    }

    fn check(&mut self, name: impl Into<String>, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail,
        });
    }

    /// 10th percentile of the operation times: the 11th smallest of 100.
    /// A run shorter than 100 operations (`--smoke`, the one-thread child
    /// behind `pool.speedup_2t`) has fewer than ten samples below it and
    /// says so.
    pub fn op_p10_s(&self) -> f64 {
        crate::stats::low_tail_quantile(&self.op_s, 0.1).unwrap_or_else(|why| {
            println!("# op_p10_s: {why}; reporting it all the same");
            crate::stats::low_quantile(&self.op_s, 0.1)
        })
    }

    /// Successful operations per second of the timed windows.
    pub fn ops_per_s(&self) -> f64 {
        self.op_s.len() as f64 / self.window_s
    }

    /// True when no operation failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Operations attempted and failed, a failed check counting as one
    /// failed operation.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let bad = self.checks.iter().filter(|c| !c.ok).count() as u64;
        (self.attempted + self.checks.len() as u64, self.failed + bad)
    }

    /// FNV-1a over the bits of the observables, for information only:
    /// results are compared by tolerance, never by this.
    pub fn physics_digest(&self) -> u64 {
        self.observables
            .iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

fn report_is_finite(r: &StepReport) -> bool {
    [
        r.time_fs,
        r.excited_population,
        r.toroidal_moment,
        r.mean_polarization[0],
        r.mean_polarization[1],
        r.lfd_electron_s,
        r.lfd_nonlocal_s,
        r.lfd_transfer_s,
        r.temperature_k,
        r.boundary_mismatch,
    ]
    .iter()
    .chain(&r.a_at_domains)
    .all(|x| x.is_finite())
}

/// The untraced, timed pass of `workload`.
pub fn run(workload: Workload, seed: u64, plan: &Plan) -> Timed {
    match workload {
        Workload::TrajLfd => run_traj(&traj_lfd_cfg(seed), plan),
        Workload::TrajCoupled => run_traj(&traj_coupled_cfg(seed), plan),
        Workload::ServeBurst => run_serve(seed, plan),
        Workload::LfdSp => run_lfd_sp(&lfd_sp_cfg(seed), plan),
    }
}

/// Domains and bytes of wavefunction state per domain that `workload`'s
/// timed kernels sweep.
pub fn working_set(workload: Workload, seed: u64) -> (usize, usize) {
    let sim = |cfg: DcMeshConfig| (cfg.domains_x, cfg.domain_mesh_points.pow(3) * cfg.norb * 16);
    match workload {
        Workload::TrajLfd => sim(traj_lfd_cfg(seed)),
        Workload::TrajCoupled => sim(traj_coupled_cfg(seed)),
        Workload::ServeBurst => sim(job_cfg(seed)),
        Workload::LfdSp => {
            let cfg = lfd_sp_cfg(seed);
            (1, cfg.mesh.len() * cfg.norb * 8)
        }
    }
}

/// Steps after which a trajectory is compared with its reference build.
const TRAJ_COMPARE_STEP: usize = 3;

/// `traj_lfd` and `traj_coupled`: closed loop over `DcMeshSim::md_step`.
pub fn run_traj(cfg: &DcMeshConfig, plan: &Plan) -> Timed {
    let mut t = Timed {
        qd_steps_per_op: (cfg.domains_x * cfg.n_qd) as f64,
        ..Timed::default()
    };
    let mut excited_at_compare = f64::NAN;
    for segment in 0..plan.segments {
        let segment_start = Instant::now();
        let mut sim = DcMeshSim::new(cfg.clone());
        let occupation0 = sim.total_occupation();
        let mut step = 0;
        let mut stepper = |sim: &mut DcMeshSim| {
            let r = sim.md_step();
            step += 1;
            if segment == 0 && step == TRAJ_COMPARE_STEP {
                excited_at_compare = r.excited_population;
            }
            report_is_finite(&r)
        };
        let warm_ok = (0..WARMUP_OPS).all(|_| stepper(&mut sim));
        t.setup_done(plan, segment, segment_start);
        t.closed_loop(plan, || stepper(&mut sim));
        let drift = (sim.total_occupation() - occupation0).abs();
        t.check(
            format!("segment {segment}: state finite, occupation conserved to 1e-9"),
            warm_ok && sim.is_finite() && drift < 1e-9,
            format!("after {} steps |dN| = {drift:.3e}", sim.md_steps()),
        );
        t.observables.push(sim.total_occupation());
    }
    t.observables.push(excited_at_compare);
    if plan.verify {
        // Alg. 1 AoS kinetic sweeps and the loop-form nonlocal correction:
        // none of the timed build's kernels.
        let mut reference = DcMeshSim::new(DcMeshConfig {
            build: BuildKind::CpuLoops,
            ..cfg.clone()
        });
        let mut want = f64::NAN;
        for _ in 0..TRAJ_COMPARE_STEP {
            want = reference.md_step().excited_population;
        }
        let diff = rel_diff(excited_at_compare, want);
        t.check(
            format!("excited_population after {TRAJ_COMPARE_STEP} steps matches BuildKind::CpuLoops to 1e-8"),
            diff < 1e-8,
            format!("{excited_at_compare:.12e} vs {want:.12e}, relative {diff:.2e}"),
        );
    }
    t
}

/// Steps after which the f32 engine is compared with an f64 one.
const SP_COMPARE_STEP: usize = 10;

/// `lfd_sp`: closed loop over `LfdEngine::<f32>::run_md_step`.
pub fn run_lfd_sp(cfg: &LfdConfig, plan: &Plan) -> Timed {
    let mut t = Timed {
        qd_steps_per_op: cfg.n_qd as f64,
        ..Timed::default()
    };
    let v_loc = vec![0.0; cfg.mesh.len()];
    let mut excited_at_compare = f64::NAN;
    for segment in 0..plan.segments {
        let segment_start = Instant::now();
        let mut engine = LfdEngine::<f32>::new(cfg.clone(), v_loc.clone());
        let occupation0 = f64::from(engine.total_occupation());
        let mut step = 0;
        let mut stepper = |engine: &mut LfdEngine<f32>| {
            let timings = engine.run_md_step();
            step += 1;
            if segment == 0 && step == SP_COMPARE_STEP {
                excited_at_compare = f64::from(engine.excited_population());
            }
            timings.total.is_finite() && engine.total_occupation().is_finite()
        };
        let warm_ok = (0..WARMUP_OPS).all(|_| stepper(&mut engine));
        t.setup_done(plan, segment, segment_start);
        t.closed_loop(plan, || stepper(&mut engine));
        let norm_error = engine.max_norm_error();
        let drift = rel_diff(f64::from(engine.total_occupation()), occupation0);
        t.check(
            format!("segment {segment}: norm error < 1e-5, occupation conserved to 1e-4"),
            warm_ok && norm_error < 1e-5 && drift < 1e-4,
            format!(
                "after {} steps max | |psi| - 1 | = {norm_error:.3e}, relative dN = {drift:.3e}",
                engine.md_steps()
            ),
        );
        t.observables.push(f64::from(engine.total_occupation()));
    }
    t.observables.push(excited_at_compare);
    if plan.verify {
        let mut reference = LfdEngine::<f64>::new(cfg.clone(), v_loc);
        for _ in 0..SP_COMPARE_STEP {
            reference.run_md_step();
        }
        let want = reference.excited_population();
        let diff = rel_diff(excited_at_compare, want);
        t.check(
            format!(
                "excited_population after {SP_COMPARE_STEP} steps matches LfdEngine::<f64> to 1e-3"
            ),
            diff < 1e-3,
            format!("{excited_at_compare:.9e} vs {want:.9e}, relative {diff:.2e}"),
        );
    }
    t
}

/// What the harness keeps of one job: the `JobOutcome` itself carries a
/// RunRecord and a JSONL ring that would otherwise pile up in memory.
#[derive(Clone, Debug)]
pub struct JobSeen {
    pub index: usize,
    pub completed: bool,
    pub status: String,
    pub queue_wait_s: f64,
    pub run_s: f64,
    pub attempts: u32,
    pub rollbacks: u32,
    pub excited_population: f64,
}

/// One burst: every job due at the moment the burst starts.
#[derive(Debug, Default)]
pub struct Burst {
    pub jobs: Vec<JobSeen>,
    pub rejected: usize,
    /// Seconds the generator took to submit the whole burst, which is how
    /// late its last job entered the queue.
    pub submit_all_s: f64,
    /// First submit to last outcome.
    pub window_s: f64,
}

/// Start a service sized for bursts of `burst_jobs`.
pub fn start_service(burst_jobs: usize) -> Service {
    Service::start(ServeConfig {
        queue_capacity: burst_jobs.max(WARMUP_JOBS),
        concurrency: SERVE_CONCURRENCY,
        ..ServeConfig::default()
    })
}

/// Submit jobs `first..first + n` of the seeded stream at once (open loop:
/// none waits for another) and wait for every handle.
pub fn run_burst(service: &Service, seed: u64, first: usize, n: usize) -> Burst {
    let t0 = Instant::now();
    let mut rejected = 0;
    let handles: Vec<_> = (first..first + n)
        .filter_map(|index| match service.submit(job_spec(seed, index)) {
            Ok(handle) => Some((index, handle)),
            Err(_) => {
                rejected += 1;
                None
            }
        })
        .collect();
    let submit_all_s = t0.elapsed().as_secs_f64();
    let jobs = handles
        .into_iter()
        .map(|(index, handle)| {
            let o = handle.wait();
            JobSeen {
                index,
                completed: o.status == JobStatus::Completed && o.steps_done == JOB_STEPS,
                status: format!("{:?}", o.status),
                queue_wait_s: o.queue_wait_s,
                run_s: o.run_s,
                attempts: o.attempts,
                rollbacks: o.rollbacks,
                excited_population: o.excited_population,
            }
        })
        .collect();
    Burst {
        jobs,
        rejected,
        submit_all_s,
        window_s: t0.elapsed().as_secs_f64(),
    }
}

/// Run job `index`'s configuration directly, the way a served job runs it
/// (`PoolShare::Inline`), and return the final excited population.
fn run_job_directly(seed: u64, index: usize) -> f64 {
    dcmesh_pool::run_inline(|| {
        let mut sim = DcMeshSim::new(job_spec(seed, index).cfg);
        let mut excited = f64::NAN;
        for _ in 0..JOB_STEPS {
            excited = sim.md_step().excited_population;
        }
        excited
    })
}

/// Served jobs re-run directly as the reference.
const SERVE_SAMPLED_JOBS: usize = 4;

/// `serve_burst`: bursts of jobs through `dcmesh-serve`.
pub fn run_serve(seed: u64, plan: &Plan) -> Timed {
    let cfg = job_cfg(seed);
    let mut t = Timed {
        qd_steps_per_op: (JOB_STEPS as usize * cfg.domains_x * cfg.n_qd) as f64,
        ..Timed::default()
    };
    let mut next_job = 0;
    let mut sampled: Vec<JobSeen> = Vec::new();
    for segment in 0..plan.segments {
        let segment_start = Instant::now();
        let service = start_service(BURST_JOBS);
        let warm = run_burst(&service, seed, next_job, WARMUP_JOBS);
        next_job += WARMUP_JOBS;
        t.setup_done(plan, segment, segment_start);
        let window = Instant::now();
        let mut done = 0;
        while done < plan.segment_min_ops()
            || window.elapsed().as_secs_f64() < plan.segment_seconds()
        {
            let burst = run_burst(&service, seed, next_job, BURST_JOBS);
            next_job += BURST_JOBS;
            done += BURST_JOBS;
            t.attempted += BURST_JOBS as u64;
            t.failed += burst.rejected as u64;
            t.window_s += burst.window_s;
            for job in burst.jobs {
                if job.completed {
                    t.op_s.push(job.run_s);
                    if sampled.len() < SERVE_SAMPLED_JOBS {
                        sampled.push(job);
                    }
                } else {
                    t.failed += 1;
                    t.check(format!("job {}", job.index), false, job.status);
                }
            }
        }
        service.shutdown(true);
        t.check(
            format!("segment {segment}: warm-up jobs completed"),
            warm.rejected == 0 && warm.jobs.iter().all(|j| j.completed),
            format!(
                "{} of {WARMUP_JOBS}",
                warm.jobs.iter().filter(|j| j.completed).count()
            ),
        );
    }
    t.observables
        .extend(sampled.iter().map(|j| j.excited_population));
    if plan.verify {
        for job in &sampled {
            let want = run_job_directly(seed, job.index);
            t.check(
                format!(
                    "job {}: served excited_population is bit-identical to a direct run",
                    job.index
                ),
                job.excited_population.to_bits() == want.to_bits(),
                format!("{:.17e} vs {want:.17e}", job.excited_population),
            );
        }
    }
    t
}
