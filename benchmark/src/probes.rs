//! The traced pass: per-layer numbers, taken from outside.
//!
//! After an untraced stretch of the workload's own loop, a second,
//! identical object is built and every operation on it is timed as a
//! parent span. After each operation the harness replays that operation's
//! phases — one public call each, at the workload's exact shapes — as child
//! spans (see `trace.rs` for why they are replays and what `count` means).
//! A layer's metric is the median of its spans.
//!
//! The contract has every run report every per-layer metric, so a layer a
//! workload does not exercise is still measured: `lfd_sp`, which has no
//! `DcMeshSim`, times the sim-level layers on the served job's
//! configuration, and the workloads other than `serve_burst` put one small
//! burst through a service. `benchmark/README.md` says which metric
//! predicts what on which workload; the rest are context.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dcmesh_comm::{NetworkModel, Rank, World};
use dcmesh_core::{DcMeshConfig, DcMeshSim};
use dcmesh_device::{Device, KernelWork, LaunchPolicy, StreamId};
use dcmesh_grid::{WfAos, WfSoa};
use dcmesh_lfd::{
    BuildKind, KineticPropagator, LaserPulse, LfdConfig, LfdEngine, Maxwell1d, NonlocalCorrection,
    PotentialPropagator,
};
use dcmesh_math::gemm::{gemm, gemm_cfmas};
use dcmesh_math::{Complex, Matrix, Op, Real};
use dcmesh_qxmd::{FsshConfig, FsshState};
use dcmesh_tddft::AtomSet;
use rand::rngs::SplitMix64;
use rand::SeedableRng;

use crate::host;
use crate::spec;
use crate::stats::median;
use crate::trace::{Recorder, SpanId};
use crate::workloads::{
    self, job_cfg, job_spec, run_burst, start_service, Burst, Plan, Timed, Workload, BURST_JOBS,
    JOB_STEPS, SERVE_CONCURRENCY, WARMUP_JOBS, WARMUP_OPS,
};

/// Traced operations per run, at least; every replayed layer therefore
/// has at least this many repetitions behind its median.
pub const MIN_ROUNDS: usize = 20;
/// Operation id of spans that belong to no step or job.
const NO_OP: usize = usize::MAX;

/// Per-layer metric values by name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric of the benchmark"
        );
        self.0.insert(name, value);
    }

    /// Median duration of the spans called `span`, as metric `name`.
    fn set_median(&mut self, name: &'static str, rec: &Recorder, span: &str) -> f64 {
        let d = rec.durations(span);
        assert!(!d.is_empty(), "no span named {span} was recorded");
        let m = median(&d);
        self.set(name, m);
        m
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Result of a traced run.
#[derive(Debug)]
pub struct Traced {
    pub layers: Layers,
    /// The untraced stretch, with the traced operations' failures added.
    pub timed: Timed,
}

fn maybe_inline<T>(inline: bool, f: impl FnOnce() -> T) -> T {
    if inline {
        dcmesh_pool::run_inline(f)
    } else {
        f()
    }
}

/// Repeat `f` as root spans called `name`: at least `min` times, then
/// until `budget_s` is spent or `max` is reached.
fn repeat<T>(
    rec: &mut Recorder,
    name: &'static str,
    (min, max): (usize, usize),
    budget_s: f64,
    mut f: impl FnMut() -> T,
) {
    let t0 = Instant::now();
    for i in 0..max {
        if i >= min && t0.elapsed().as_secs_f64() > budget_s {
            break;
        }
        black_box(rec.time(name, NO_OP, None, 1.0, &mut f).0);
    }
}

// ---------------------------------------------------------------------------
// LFD layers at one (mesh, orbitals, precision) shape
// ---------------------------------------------------------------------------

/// The LFD kernels and stand-alone engines of one domain shape.
struct LfdProbes<R: Real> {
    cfg: LfdConfig,
    /// Stand-alone engines, stepped together the way `md_step` steps its
    /// domains' engines (empty when the workload's operation is itself an
    /// engine step).
    wave: Vec<LfdEngine<R>>,
    kin: KineticPropagator<R>,
    pot: PotentialPropagator<R>,
    nl: NonlocalCorrection<R>,
    psi: WfSoa<R>,
    occupations: Vec<R>,
    /// Inside `md_step` the kernels are nested dispatches and so run on
    /// one thread; a stand-alone engine spreads them over the pool.
    serial: bool,
}

impl<R: Real> LfdProbes<R> {
    fn new(cfg: &LfdConfig, wave: usize, serial: bool) -> Self {
        let mesh = cfg.mesh.clone();
        let v_loc = vec![0.0; mesh.len()];
        let mut init = WfAos::<R>::zeros(mesh.clone(), cfg.norb);
        init.randomize(cfg.seed);
        let dt = R::from_f64(cfg.dt);
        let mut occupations = vec![R::ZERO; cfg.norb];
        occupations[..cfg.lumo].fill(R::TWO);
        Self {
            wave: (0..wave)
                .map(|d| {
                    let cfg = LfdConfig {
                        seed: cfg.seed.wrapping_add(d as u64),
                        ..cfg.clone()
                    };
                    LfdEngine::new(cfg, v_loc.clone())
                })
                .collect(),
            kin: KineticPropagator::new(mesh.clone(), dt, R::ONE),
            pot: PotentialPropagator::new(mesh.clone(), &v_loc, dt * R::HALF),
            nl: NonlocalCorrection::new(
                init.to_matrix(),
                cfg.lumo,
                R::from_f64(cfg.delta_sci),
                dt,
                R::from_f64(mesh.dv()),
            ),
            psi: init.to_soa(),
            occupations,
            serial,
            cfg: cfg.clone(),
        }
    }

    /// Step every engine of the wave through the pool, as `md_step` does.
    fn wave_round(
        &mut self,
        rec: &mut Recorder,
        op: usize,
        parent: Option<SpanId>,
        inline: bool,
    ) -> SpanId {
        let wave = &mut self.wave;
        rec.time("lfd.run_md_step_wave", op, parent, 1.0, || {
            maybe_inline(inline, || {
                dcmesh_pool::global().map_mut(wave, |_, e| e.run_md_step())
            })
        })
        .1
    }

    /// One call of each kernel; `engines` is how many engine steps the
    /// parent runs one after another on a thread.
    fn kernel_round(
        &mut self,
        rec: &mut Recorder,
        op: usize,
        parent: Option<SpanId>,
        engines: f64,
    ) {
        let n_qd = self.cfg.n_qd as f64;
        let block = self.cfg.block_size;
        let serial = self.serial;
        let Self {
            kin,
            pot,
            nl,
            psi,
            occupations,
            ..
        } = self;
        rec.time("lfd.kinetic_step", op, parent, n_qd * engines, || {
            maybe_inline(serial, || kin.step_optimized(psi, block, None))
        });
        rec.time(
            "lfd.potential_apply",
            op,
            parent,
            2.0 * n_qd * engines,
            || maybe_inline(serial, || pot.apply(psi, None)),
        );
        rec.time(
            "lfd.nonlocal_prop",
            op,
            parent,
            2.0 * n_qd * engines,
            || maybe_inline(serial, || nl.nlp_prop_soa(psi)),
        );
        rec.time("lfd.remap_occ", op, parent, engines, || {
            maybe_inline(serial, || black_box(nl.remap_occ_soa(psi, occupations)))
        });
    }

    /// Kernel rates from the recorded medians and computed work.
    fn rates(&self, rec: &Recorder, layers: &mut Layers) {
        let elems = (self.cfg.mesh.len() * self.cfg.norb) as f64;
        let csize = 2.0 * std::mem::size_of::<R>() as f64;
        // Five axis steps of three passes, each reading and writing every
        // amplitude: computed, cache misses not counted.
        let kinetic_bytes = 15.0 * 2.0 * elems * csize;
        let t_kin = layers.set_median("lfd.kinetic_step_s", rec, "lfd.kinetic_step");
        layers.set("lfd.kinetic_gbs", kinetic_bytes / t_kin / 1e9);
        layers.set_median("lfd.potential_apply_s", rec, "lfd.potential_apply");
        let t_nl = layers.set_median("lfd.nonlocal_prop_s", rec, "lfd.nonlocal_prop");
        let flops = self.nl.nlp_work(self.cfg.norb).flops as f64;
        layers.set("lfd.nonlocal_gflops", flops / t_nl / 1e9);
        layers.set_median("lfd.remap_occ_s", rec, "lfd.remap_occ");
    }
}

/// Median wall time of `steps` `run_md_step` calls on a fresh stand-alone
/// engine of precision `R`.
fn engine_step_p50<R: Real>(cfg: &LfdConfig, steps: usize, serial: bool) -> f64 {
    let mut engine = LfdEngine::<R>::new(cfg.clone(), vec![0.0; cfg.mesh.len()]);
    let samples: Vec<f64> = (0..WARMUP_OPS + steps)
        .map(|_| {
            let t0 = Instant::now();
            maybe_inline(serial, || black_box(engine.run_md_step()));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples[WARMUP_OPS..])
}

/// Achieved GFLOP/s of `gemm` at the nonlocal shape
/// `(ngrid x norb) . (norb x norb)`.
fn gemm_gflops<R: Real>(cfg: &LfdConfig, serial: bool) -> f64 {
    let (ngrid, norb) = (cfg.mesh.len(), cfg.norb);
    let fill = |rows, cols| {
        Matrix::<R>::from_fn(rows, cols, |i, j| {
            let x = (i * 31 + j * 17) % 97;
            Complex::new(
                R::from_f64(x as f64 / 97.0),
                R::from_f64(0.5 - x as f64 / 194.0),
            )
        })
    };
    let (a, b) = (fill(ngrid, norb), fill(norb, norb));
    let mut c = Matrix::<R>::zeros(ngrid, norb);
    let one = Complex::new(R::ONE, R::ZERO);
    let zero = Complex::new(R::ZERO, R::ZERO);
    let samples: Vec<f64> = (0..MIN_ROUNDS + 1)
        .map(|_| {
            let t0 = Instant::now();
            maybe_inline(serial, || {
                gemm(one, &a, Op::None, &b, Op::None, zero, &mut c)
            });
            black_box(&c);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    8.0 * gemm_cfmas(ngrid, norb, norb) as f64 / median(&samples[1..]) / 1e9
}

// ---------------------------------------------------------------------------
// Sim-level layers at one DcMeshConfig
// ---------------------------------------------------------------------------

/// The phases of `DcMeshSim::md_step` other than LFD propagation, replayed
/// through the public items `md_step` itself is written in.
struct SimProbes {
    cfg: DcMeshConfig,
    /// Whether the workload runs its sims under `dcmesh_pool::run_inline`.
    inline: bool,
    sim: DcMeshSim,
    maxwell: Maxwell1d,
    pulse: LaserPulse,
    fssh: FsshState,
    rng: SplitMix64,
}

impl SimProbes {
    fn new(rec: &mut Recorder, cfg: &DcMeshConfig, inline: bool) -> Self {
        let (mut sim, _) = rec.time("core.sim_new", NO_OP, None, 1.0, || {
            maybe_inline(inline, || DcMeshSim::new(cfg.clone()))
        });
        maybe_inline(inline, || sim.md_step());
        // The Maxwell grid `DcMeshSim::new` builds.
        let cells = (cfg.domains_x * 8).max(16);
        let dx = sim.supercell.box_lengths[0] / cells as f64;
        let substeps = (cfg.dt_qd / Maxwell1d::max_dt(dx)).ceil().max(1.0);
        Self {
            maxwell: Maxwell1d::new(cells, dx, cfg.dt_qd / substeps, 1),
            pulse: cfg.laser.clone().unwrap_or(LaserPulse {
                e0: 0.0,
                omega: 1.0,
                duration: 1.0,
            }),
            fssh: FsshState::new(2, 0, FsshConfig::default()),
            rng: SplitMix64::seed_from_u64(cfg.seed),
            sim,
            inline,
            cfg: cfg.clone(),
        }
    }

    /// Threads that step engines at once inside `md_step`.
    fn engine_threads(&self) -> usize {
        if self.inline {
            1
        } else {
            dcmesh_pool::configured_threads().min(self.cfg.domains_x)
        }
    }

    /// Replay one `md_step`'s phases as children of `md_step` — or, when
    /// the workload has no `md_step` of its own to hang them on, of a step
    /// of the probe sim timed here. `lfd` adds the propagation wave and
    /// its kernels.
    fn round(
        &mut self,
        rec: &mut Recorder,
        op: usize,
        md_step: Option<SpanId>,
        lfd: Option<&mut LfdProbes<f64>>,
    ) {
        let inline = self.inline;
        let parent = Some(md_step.unwrap_or_else(|| {
            let sim = &mut self.sim;
            rec.time("core.md_step", op, None, 1.0, || {
                maybe_inline(inline, || black_box(sim.md_step()))
            })
            .1
        }));
        let cfg = &self.cfg;
        let domains = cfg.domains_x;
        let slab_len = self.sim.supercell.box_lengths[0] / domains as f64;

        // Dipole of each domain: an SoA -> AoS copy per domain per step.
        let engine = self.sim.engine(0);
        rec.time("lfd.state_aos", op, parent, domains as f64, || {
            dcmesh_lfd::spectrum::dipole_moment(&engine.state_aos(), &engine.occupations, 0)
        });

        let (maxwell, pulse) = (&mut self.maxwell, &self.pulse);
        rec.time("lfd.maxwell_window", op, parent, 1.0, || {
            let dx = slab_len * domains as f64 / maxwell.len() as f64;
            for _ in 0..cfg.n_qd {
                for d in 0..domains {
                    let cell = ((d as f64 + 0.5) * slab_len / dx) as usize;
                    maxwell.deposit_current(cell.min(maxwell.len() - 1), 1e-9);
                }
                maxwell.step(pulse);
            }
            (0..domains)
                .map(|d| maxwell.sample((d as f64 + 0.5) * slab_len))
                .sum::<f64>()
        });

        if let Some(lfd) = lfd {
            let wave = lfd.wave_round(rec, op, parent, inline);
            let engines = domains as f64 / self.engine_threads() as f64;
            lfd.kernel_round(rec, op, Some(wave), engines);
        }

        let sim = &self.sim;
        let (_, boundary) = rec.time("core.boundary_exchange", op, parent, 1.0, || {
            sim.boundary_density_mismatch()
        });
        let face = vec![0.5; engine.config().mesh.face_len(0)];
        rec.time("comm.world_run", op, Some(boundary), 1.0, || {
            ring_exchange(domains, &face)
        });

        let (fssh, rng, md) = (&mut self.fssh, &mut self.rng, &self.sim.md);
        rec.time("qxmd.fssh_step", op, parent, domains as f64, || {
            let n = md.atoms.len().max(1) as f64;
            let v2: f64 = md
                .atoms
                .atoms
                .iter()
                .map(|a| a.vel.iter().map(|v| v * v).sum::<f64>())
                .sum();
            let nac = 5.0 * (v2 / n).sqrt();
            let mut kinetic = md.kinetic_energy().max(1e-6);
            fssh.step(
                &[0.0, 0.1],
                &[vec![0.0, nac], vec![-nac, 0.0]],
                cfg.dt_md,
                &mut kinetic,
                rng,
            )
        });

        // Ehrenfest feedback of one domain. Timed on every workload, but a
        // child of the step only where the workload turns feedback on.
        let feedback_parent = if cfg.ehrenfest_feedback { parent } else { None };
        rec.time(
            "tddft.local_pseudo_forces",
            op,
            feedback_parent,
            domains as f64,
            || {
                let rho = engine.density_f64();
                let mut slab = first_slab(&md.atoms, slab_len);
                slab.clear_forces();
                dcmesh_tddft::forces::local_pseudo_forces(&engine.config().mesh, &mut slab, &rho)
            },
        );

        let sim = &mut self.sim;
        rec.time("qxmd.md_integrate", op, parent, 1.0, || {
            sim.md.step();
            sim.supercell.atoms = sim.md.atoms.clone();
        });

        rec.time("qxmd.lk_window", op, parent, 1.0, || {
            let lk = &mut sim.lk;
            let e_c = 2.0 * lk.alpha * lk.p_spontaneous(0.0) / (3.0 * 3.0f64.sqrt());
            let substeps = ((cfg.dt_md * 0.1) / 0.01).ceil().max(1.0) as usize;
            for _ in 0..substeps {
                lk.step(0.01, [0.5 * e_c, 0.0], 0.01);
            }
        });
    }

    /// One checkpoint payload, `count` per parent.
    fn snapshot(&self, rec: &mut Recorder, op: usize, parent: Option<SpanId>, count: f64) -> usize {
        rec.time("core.snapshot", op, parent, count, || {
            self.sim.snapshot_bytes().len()
        })
        .0
    }

    /// The eigensolve `DcMeshSim::new` runs for domain 0.
    fn lowest_states(&self, rec: &mut Recorder) {
        let mesh = self.sim.engine(0).config().mesh.clone();
        let slab_len = self.sim.supercell.box_lengths[0] / self.cfg.domains_x as f64;
        let slab = first_slab(&self.sim.supercell.atoms, slab_len);
        let v_loc = dcmesh_tddft::hamiltonian::local_pseudopotential(&mesh, &slab);
        let h = dcmesh_tddft::Hamiltonian::with_potential(mesh, v_loc);
        let (norb, seed, inline) = (self.cfg.norb, self.cfg.seed, self.inline);
        repeat(rec, "tddft.lowest_states", (3, MIN_ROUNDS), 3.0, || {
            maybe_inline(inline, || {
                dcmesh_tddft::eigensolver::lowest_states(&h, norb, 200, seed)
            })
        });
    }

    /// Sim-level metrics from the recorded spans.
    fn layers(&self, rec: &Recorder, layers: &mut Layers, snapshot_bytes: usize) {
        let face = self.sim.engine(0).config().mesh.face_len(0);
        let domains = self.cfg.domains_x;
        for (metric, span) in [
            ("core.md_step_traced_s", "core.md_step"),
            ("core.sim_new_s", "core.sim_new"),
            ("core.boundary_exchange_s", "core.boundary_exchange"),
            ("core.snapshot_s", "core.snapshot"),
            ("lfd.maxwell_window_s", "lfd.maxwell_window"),
            ("lfd.state_aos_s", "lfd.state_aos"),
            ("tddft.lowest_states_s", "tddft.lowest_states"),
            ("tddft.local_pseudo_forces_s", "tddft.local_pseudo_forces"),
            ("qxmd.md_integrate_s", "qxmd.md_integrate"),
            ("qxmd.lk_window_s", "qxmd.lk_window"),
            ("qxmd.fssh_step_s", "qxmd.fssh_step"),
            ("comm.world_run_s", "comm.world_run"),
        ] {
            layers.set_median(metric, rec, span);
        }
        layers.set("core.snapshot_bytes", snapshot_bytes as f64);
        // Every rank sends its two faces: counts, not measurements.
        layers.set("comm.messages_per_step", (2 * domains) as f64);
        layers.set("comm.bytes_per_step", (2 * domains * face * 8) as f64);
    }
}

/// The atoms of domain 0: those whose x lies in `[0, slab_len)`.
fn first_slab(atoms: &AtomSet, slab_len: f64) -> AtomSet {
    let mut slab = AtomSet::new(atoms.species.clone());
    slab.atoms.extend(
        atoms
            .atoms
            .iter()
            .filter(|a| a.pos[0] >= 0.0 && a.pos[0] < slab_len)
            .cloned(),
    );
    slab
}

/// The exchange `boundary_density_mismatch` runs: each rank sends a face
/// to both ring neighbours and receives theirs.
fn ring_exchange(ranks: usize, face: &[f64]) -> f64 {
    World::run(ranks, NetworkModel::slingshot11(), |rank: &mut Rank| {
        let (d, n) = (rank.id(), rank.size());
        let (next, prev) = ((d + 1) % n, (d + n - 1) % n);
        rank.isend(next, 61, face).wait();
        rank.isend(prev, 62, face).wait();
        let from_prev = rank.irecv(prev, 61);
        let from_next = rank.irecv(next, 62);
        rank.wait(from_prev)[0] + rank.wait(from_next)[0]
    })
    .iter()
    .sum()
}

// ---------------------------------------------------------------------------
// Serve layers
// ---------------------------------------------------------------------------

/// What [`serve_rounds`] saw.
struct Served {
    bursts: Vec<Burst>,
    /// Jobs rejected or not completed, warm-up included.
    failed: u64,
    /// Size of one checkpoint payload of a replayed job.
    snapshot_bytes: usize,
}

/// Bursts through a fresh service for `seconds` (at least one burst), each
/// job a parent span; the first `replays` jobs are then run directly —
/// `DcMeshSim::new`, the steps, a snapshot per step — as that job's
/// children, so a job's self time is what the service adds. `phases`
/// replays the phases of each replayed job's first step.
fn serve_rounds(
    rec: &mut Recorder,
    seed: u64,
    burst_jobs: usize,
    seconds: f64,
    replays: usize,
    mut phases: impl FnMut(&mut Recorder, usize, SpanId),
) -> Served {
    // Clear of the job indices the untraced stretch used.
    let mut next_job = 1 << 20;
    let service = start_service(burst_jobs);
    let warm = run_burst(&service, seed, next_job, WARMUP_JOBS);
    next_job += WARMUP_JOBS;
    let mut failed = warm.rejected + warm.jobs.iter().filter(|j| !j.completed).count();
    let mut bursts = Vec::new();
    let mut job_spans = Vec::new();
    let window = Instant::now();
    while bursts.is_empty() || window.elapsed().as_secs_f64() < seconds {
        let t0 = rec.now_s();
        let burst = run_burst(&service, seed, next_job, burst_jobs);
        next_job += burst_jobs;
        failed += burst.rejected + burst.jobs.iter().filter(|j| !j.completed).count();
        for job in &burst.jobs {
            // Every job of a burst is due when the burst starts.
            let start = t0 + job.queue_wait_s;
            let span = rec.push("serve.job", job.index, None, 1.0, start, start + job.run_s);
            job_spans.push((job.index, span));
        }
        bursts.push(burst);
    }
    service.shutdown(true);

    let mut snapshot_bytes = 0;
    for &(index, job) in job_spans.iter().take(replays) {
        dcmesh_pool::run_inline(|| {
            let (mut sim, _) = rec.time("core.sim_new", index, Some(job), 1.0, || {
                DcMeshSim::new(job_spec(seed, index).cfg)
            });
            for step in 0..JOB_STEPS {
                let (_, md_step) = rec.time("core.md_step", index, Some(job), 1.0, || {
                    black_box(sim.md_step())
                });
                if step == 0 {
                    phases(rec, index, md_step);
                }
            }
            let steps = JOB_STEPS as f64;
            snapshot_bytes = rec
                .time("core.snapshot", index, Some(job), steps, || {
                    sim.snapshot_bytes().len()
                })
                .0;
        });
    }
    Served {
        bursts,
        failed: failed as u64,
        snapshot_bytes,
    }
}

/// Serve metrics from bursts and their job spans.
fn serve_layers(rec: &Recorder, layers: &mut Layers, bursts: &[Burst]) {
    let jobs = || bursts.iter().flat_map(|b| &b.jobs);
    let window: f64 = bursts.iter().map(|b| b.window_s).sum();
    let busy: f64 = jobs().map(|j| j.run_s).sum();
    let waits: Vec<f64> = jobs().map(|j| j.queue_wait_s).collect();
    let submits: Vec<f64> = bursts.iter().map(|b| b.submit_all_s).collect();
    let rejected: usize = bursts.iter().map(|b| b.rejected).sum();
    layers.set("serve.queue_wait_p50_s", median(&waits));
    layers.set("serve.submit_all_s", median(&submits));
    layers.set(
        "serve.worker_busy_share",
        busy / (SERVE_CONCURRENCY as f64 * window),
    );
    let overhead: Vec<f64> = rec.parents("serve.job").map(|(own, _)| own).collect();
    layers.set("serve.overhead_per_job_s", median(&overhead));
    layers.set("serve.submitted", (jobs().count() + rejected) as f64);
    layers.set(
        "serve.completed",
        jobs().filter(|j| j.completed).count() as f64,
    );
    layers.set("serve.rejected", rejected as f64);
    layers.set(
        "serve.failed",
        jobs().filter(|j| !j.completed).count() as f64,
    );
    layers.set(
        "serve.attempts",
        jobs().map(|j| f64::from(j.attempts)).sum(),
    );
    layers.set(
        "serve.rollbacks",
        jobs().map(|j| f64::from(j.rollbacks)).sum(),
    );
}

/// Jobs of the one small burst the workloads other than `serve_burst` put
/// through a service so that the serve layers have a value on every run.
const CONTEXT_BURST_JOBS: usize = 8;

/// The serve layers as context: spans go to a recorder of their own, so
/// they cannot mix with the workload's spans of the same names.
fn serve_context(layers: &mut Layers, seed: u64) {
    let mut rec = Recorder::new();
    let served = serve_rounds(&mut rec, seed, CONTEXT_BURST_JOBS, 0.0, 2, |_, _, _| {});
    serve_layers(&rec, layers, &served.bursts);
}

// ---------------------------------------------------------------------------
// Layers every workload measures the same way
// ---------------------------------------------------------------------------

struct Common<'a> {
    workload: Workload,
    seed: u64,
    lfd_cfg: &'a LfdConfig,
    /// Whether the workload's kernels run as nested (one-thread) calls.
    serial: bool,
    /// Span name of the workload's traced operation.
    root: &'static str,
    /// The untraced stretch of this run.
    timed: &'a Timed,
}

fn common_layers(rec: &mut Recorder, layers: &mut Layers, c: &Common<'_>) {
    let threads = dcmesh_pool::configured_threads();

    // What the replayed children leave unexplained, and what timing the
    // operation as a span cost.
    let shares: Vec<f64> = rec
        .parents(c.root)
        .map(|(own, total)| own / total)
        .collect();
    layers.set("core.unattributed_share", median(&shares));
    let (traced, untraced) = (median(&rec.durations(c.root)), median(&c.timed.op_s));
    layers.set("core.trace_overhead_share", (traced - untraced) / untraced);
    // The operation's median, tail and rate, with tracing off. Not
    // end-to-end metrics because they held no bound on this host (README,
    // "Spreads").
    let p90 = crate::stats::tail_quantile(&c.timed.op_s, 0.9).unwrap_or_else(|why| {
        println!("# core.op_p90_s: {why}");
        f64::NAN
    });
    layers.set("core.op_p50_s", untraced);
    layers.set("core.op_p90_s", p90);
    layers.set("core.ops_per_s", c.timed.ops_per_s());

    // The same engine step in both precisions, stand-alone.
    let sp = engine_step_p50::<f32>(c.lfd_cfg, 10, c.serial);
    let dp = engine_step_p50::<f64>(c.lfd_cfg, 10, c.serial);
    layers.set("lfd.sp_over_dp", sp / dp);
    layers.set(
        "math.gemm_dp_gflops",
        gemm_gflops::<f64>(c.lfd_cfg, c.serial),
    );
    layers.set(
        "math.gemm_sp_gflops",
        gemm_gflops::<f32>(c.lfd_cfg, c.serial),
    );

    // Modeled A100 seconds of one engine step: a count the device model
    // makes from kernel launches and bytes, so it repeats exactly.
    let build = if c.lfd_cfg.build.uses_device() {
        c.lfd_cfg.build
    } else {
        BuildKind::GpuCublas
    };
    let modeled_cfg = LfdConfig {
        build,
        ..c.lfd_cfg.clone()
    };
    let mut modeled = LfdEngine::<f64>::new(modeled_cfg, vec![0.0; c.lfd_cfg.mesh.len()]);
    let timings = dcmesh_pool::run_inline(|| modeled.run_md_step());
    assert!(timings.modeled, "device builds report modeled time");
    layers.set("lfd.modeled_device_s", timings.total);

    layers.set("pool.threads", threads as f64);
    repeat(rec, "pool.dispatch", (200, 200), 0.0, || {
        dcmesh_pool::global().for_each_index(0..threads, |i| {
            black_box(i);
        })
    });
    layers.set(
        "pool.dispatch_us",
        median(&rec.durations("pool.dispatch")) * 1e6,
    );

    let device = Device::a100();
    repeat(rec, "device.nowait_roundtrip", (200, 200), 0.0, || {
        device.nowait_scope(|scope| {
            scope.launch_named(
                "benchmark.empty",
                StreamId(0),
                LaunchPolicy::Async,
                KernelWork::default(),
                || {},
            );
        });
        device.synchronize()
    });
    layers.set(
        "device.nowait_roundtrip_us",
        median(&rec.durations("device.nowait_roundtrip")) * 1e6,
    );

    // The same workload in a one-thread child: the plain single-threaded
    // baseline the pool's speed-up is taken against.
    let one_thread = crate::child_op_p10(c.workload, c.seed, 1);
    layers.set("pool.speedup_2t", one_thread / c.timed.op_p10_s());

    let caches = host::caches();
    let probe_start = Instant::now();
    let triad = host::triad(caches.llc_bytes, threads);
    let fma = host::fma_gflops_dp(threads);
    let probe_s = probe_start.elapsed().as_secs_f64();
    layers.set("host.triad_gbs", triad.gbs);
    layers.set("host.fma_gflops_dp", fma);
    layers.set("host.llc_bytes", caches.llc_bytes as f64);
    layers.set("host.probe_array_bytes", triad.array_bytes as f64);
    println!(
        "# host probes: triad over 3 arrays of {} B (LLC {} B), FMA loop, on {threads} thread(s), \
         took {probe_s:.1} s",
        triad.array_bytes, caches.llc_bytes
    );
    if triad.beyond_llc {
        for (rate, roof, what) in [
            ("lfd.kinetic_gbs", triad.gbs, "triad bandwidth"),
            ("lfd.nonlocal_gflops", fma, "peak DP FMA rate"),
            ("math.gemm_dp_gflops", fma, "peak DP FMA rate"),
        ] {
            let achieved = layers.get(rate).unwrap_or(f64::NAN);
            println!(
                "# roofline: {rate} is {:.3} of this run's {what}",
                achieved / roof
            );
        }
    } else {
        // 16 flops per amplitude per pass over 2 x 16 bytes moved.
        println!(
            "# roofline ratios omitted: memory does not allow triad arrays of 4 x LLC; \
             the kinetic step computes 0.5 flop/byte in DP, 1 in SP"
        );
    }
}

/// The untraced stretch of a traced run: half the window (stretched, like
/// any window, until a p90 has its samples), one set-up, no references.
fn half(plan: &Plan) -> Plan {
    Plan {
        seconds: plan.seconds / 2.0,
        segments: 1,
        verify: false,
        ..*plan
    }
}

/// Write the spans out and make sure no metric of the contract is missing.
fn finish(w: Workload, seed: u64, rec: &Recorder, layers: Layers, timed: Timed) -> Traced {
    let path = crate::out_dir().join(format!("{}.trace.json", w.name()));
    match rec.write_json(&path, w.name(), seed) {
        Ok(()) => println!(
            "# {} spans written to {}",
            rec.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
    println!(
        "# {:<28} {:>6} {:>14} {:>14}",
        "span", "n", "median s", "median self s"
    );
    for (name, own) in rec.self_times() {
        let total = median(&rec.durations(name));
        println!(
            "# {name:<28} {:>6} {total:>14.9} {:>14.9}",
            own.len(),
            median(&own)
        );
    }
    for m in spec::PER_LAYER {
        assert!(layers.get(m.name).is_some(), "{} was not measured", m.name);
    }
    Traced { layers, timed }
}

/// The traced pass of `workload`.
pub fn trace(workload: Workload, seed: u64, plan: &Plan) -> Traced {
    match workload {
        Workload::TrajLfd => trace_traj(workload, &workloads::traj_lfd_cfg(seed), plan),
        Workload::TrajCoupled => trace_traj(workload, &workloads::traj_coupled_cfg(seed), plan),
        Workload::ServeBurst => trace_serve(seed, plan),
        Workload::LfdSp => trace_lfd_sp(&workloads::lfd_sp_cfg(seed), plan),
    }
}

/// Traced pass of `traj_lfd` and `traj_coupled`.
fn trace_traj(w: Workload, cfg: &DcMeshConfig, plan: &Plan) -> Traced {
    let plan = half(plan);
    let mut timed = workloads::run_traj(cfg, &plan);
    let mut rec = Recorder::new();
    let mut layers = Layers::default();

    let (mut sim, _) = rec.time("core.sim_new", NO_OP, None, 1.0, || {
        DcMeshSim::new(cfg.clone())
    });
    for _ in 0..WARMUP_OPS {
        sim.md_step();
    }
    let mut sim_probes = SimProbes::new(&mut rec, cfg, false);
    let lfd_cfg = sim.engine(0).config().clone();
    let mut lfd = LfdProbes::<f64>::new(&lfd_cfg, cfg.domains_x, true);
    // Each step's phases are replayed right after it: this host's speed
    // drifts within seconds, and a step is compared with its own replays.
    let window = Instant::now();
    let mut op = 0;
    let mut snapshot_bytes = 0;
    while op < MIN_ROUNDS || window.elapsed().as_secs_f64() < plan.seconds {
        let (report, md_step) = rec.time("core.md_step", op, None, 1.0, || sim.md_step());
        timed.attempted += 1;
        timed.failed += u64::from(!report.excited_population.is_finite());
        sim_probes.round(&mut rec, op, Some(md_step), Some(&mut lfd));
        snapshot_bytes = sim_probes.snapshot(&mut rec, op, None, 1.0);
        op += 1;
    }
    sim_probes.lowest_states(&mut rec);
    sim_probes.layers(&rec, &mut layers, snapshot_bytes);
    lfd.rates(&rec, &mut layers);
    let engines = cfg.domains_x as f64 / sim_probes.engine_threads() as f64;
    let wave = median(&rec.durations("lfd.run_md_step_wave"));
    layers.set("lfd.run_md_step_s", wave / engines);
    serve_context(&mut layers, cfg.seed);
    common_layers(
        &mut rec,
        &mut layers,
        &Common {
            workload: w,
            seed: cfg.seed,
            lfd_cfg: &lfd_cfg,
            serial: true,
            root: "core.md_step",
            timed: &timed,
        },
    );
    finish(w, cfg.seed, &rec, layers, timed)
}

/// Traced pass of `serve_burst`.
fn trace_serve(seed: u64, plan: &Plan) -> Traced {
    let plan = half(plan);
    let mut timed = workloads::run_serve(seed, &plan);
    let mut rec = Recorder::new();
    let mut layers = Layers::default();

    let cfg = job_cfg(seed);
    let mut sim_probes = SimProbes::new(&mut rec, &cfg, true);
    let lfd_cfg = sim_probes.sim.engine(0).config().clone();
    let mut lfd = LfdProbes::<f64>::new(&lfd_cfg, cfg.domains_x, true);
    let served = serve_rounds(
        &mut rec,
        seed,
        BURST_JOBS,
        plan.seconds,
        MIN_ROUNDS,
        |rec, op, md_step| sim_probes.round(rec, op, Some(md_step), Some(&mut lfd)),
    );
    timed.attempted += served
        .bursts
        .iter()
        .map(|b| b.jobs.len() + b.rejected)
        .sum::<usize>() as u64;
    timed.failed += served.failed;
    sim_probes.lowest_states(&mut rec);
    sim_probes.layers(&rec, &mut layers, served.snapshot_bytes);
    lfd.rates(&rec, &mut layers);
    let wave = median(&rec.durations("lfd.run_md_step_wave"));
    layers.set("lfd.run_md_step_s", wave / cfg.domains_x as f64);
    serve_layers(&rec, &mut layers, &served.bursts);
    common_layers(
        &mut rec,
        &mut layers,
        &Common {
            workload: Workload::ServeBurst,
            seed,
            lfd_cfg: &lfd_cfg,
            serial: true,
            root: "serve.job",
            timed: &timed,
        },
    );
    finish(Workload::ServeBurst, seed, &rec, layers, timed)
}

/// Traced pass of `lfd_sp`. It has no `DcMeshSim`; the sim-level layers
/// are timed on the served job's configuration, as context.
fn trace_lfd_sp(cfg: &LfdConfig, plan: &Plan) -> Traced {
    let plan = half(plan);
    let mut timed = workloads::run_lfd_sp(cfg, &plan);
    let mut rec = Recorder::new();
    let mut layers = Layers::default();

    let mut engine = LfdEngine::<f32>::new(cfg.clone(), vec![0.0; cfg.mesh.len()]);
    for _ in 0..WARMUP_OPS {
        engine.run_md_step();
    }
    let mut lfd = LfdProbes::<f32>::new(cfg, 0, false);
    let mut sim_probes = SimProbes::new(&mut rec, &job_cfg(cfg.seed), true);
    let window = Instant::now();
    let mut op = 0;
    let mut snapshot_bytes = 0;
    while op < MIN_ROUNDS || window.elapsed().as_secs_f64() < plan.seconds {
        let (timings, step) = rec.time("lfd.run_md_step", op, None, 1.0, || engine.run_md_step());
        timed.attempted += 1;
        timed.failed += u64::from(!timings.total.is_finite());
        lfd.kernel_round(&mut rec, op, Some(step), 1.0);
        sim_probes.round(&mut rec, op, None, None);
        snapshot_bytes = sim_probes.snapshot(&mut rec, op, None, 1.0);
        op += 1;
    }
    sim_probes.lowest_states(&mut rec);
    sim_probes.layers(&rec, &mut layers, snapshot_bytes);
    lfd.rates(&rec, &mut layers);
    layers.set_median("lfd.run_md_step_s", &rec, "lfd.run_md_step");
    serve_context(&mut layers, cfg.seed);
    common_layers(
        &mut rec,
        &mut layers,
        &Common {
            workload: Workload::LfdSp,
            seed: cfg.seed,
            lfd_cfg: cfg,
            serial: false,
            root: "lfd.run_md_step",
            timed: &timed,
        },
    );
    finish(Workload::LfdSp, cfg.seed, &rec, layers, timed)
}
