//! The LFD engine: multiple-time-scale QD loop over all build variants.
//!
//! One MD step runs `N_QD` quantum-dynamics steps (paper Eq. (4), with
//! `N_QD = 100-1000` in production). Each QD step applies the Eq. (6)
//! factorization:
//!
//! ```text
//! U(dt) = Nl(dt/2) . E(dt) . Nl(dt/2),    E(dt) = Pot(dt/2) . Kin(dt) . Pot(dt/2)
//! ```
//!
//! where `Nl` is the shadow-dynamics nonlocal correction, `Pot` the local
//! phase, `Kin` the split-operator stencil. `Nl` is the exact projector
//! exponential (see [`crate::nonlocal`]), so `Nl(dt/2) . Nl(dt/2) = Nl(dt)`
//! and nothing reads the state between the trailing half-step of one QD
//! step and the leading half-step of the next: the host runs
//!
//! ```text
//! U(dt)^N_QD = Nl(dt/2) . [E(dt) . Nl(dt)]^(N_QD - 1) . E(dt) . Nl(dt/2)
//! ```
//!
//! — `N_QD + 1` projector applications instead of `2 N_QD` — and the closing
//! half-step alone renormalizes, once per MD step (the f32 kinetic rotations
//! are unitary only to ~1e-7 per QD step). The modeled device still runs the
//! paper's algorithm: two `lfd.nonlocal` launches per QD step, the merged
//! host body riding on one of them. The engine instruments the two
//! kernel families the paper times in Table II — "electron propagation"
//! (kinetic + potential) and "nonlocal correction" — for every build
//! variant from plain CPU loops to the pinned-memory device build.

use std::time::Instant;

use dcmesh_device::{Device, LaunchPolicy, StreamId, TransferKind};
use dcmesh_grid::{Mesh3, WfAos, WfSoa};
use dcmesh_math::Real;
use dcmesh_obs::{Event, Track};

use crate::kinetic::{KineticPropagator, StepFraction};
use crate::maxwell::LaserPulse;
use crate::nonlocal::NonlocalCorrection;
use crate::potential::PotentialPropagator;
use crate::shadow::ShadowState;

/// The build variants of Table II (plus the Fig. 5/6 ladder).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BuildKind {
    /// "CPU OpenMP Parallel": baseline loops, no BLAS, AoS kinetic.
    CpuLoops,
    /// "CPU OpenMP Parallel + BLAS": optimized SoA kinetic + GEMM nonlocal.
    CpuBlas,
    /// "GPU OpenMP Offload + BLAS": stencils on device, nonlocal on host
    /// BLAS — the wavefunctions round-trip over PCIe every QD step.
    GpuBlas,
    /// "GPU OpenMP Offload + cuBLAS": everything device-resident.
    GpuCublas,
    /// "+ pinned memory w/ CUDA streams": asynchronous `nowait` launches
    /// and pinned transfers.
    GpuCublasPinned,
}

impl BuildKind {
    /// All variants in the order Table II lists them.
    pub fn all() -> [BuildKind; 5] {
        [
            BuildKind::CpuLoops,
            BuildKind::CpuBlas,
            BuildKind::GpuBlas,
            BuildKind::GpuCublas,
            BuildKind::GpuCublasPinned,
        ]
    }

    /// Row label matching the paper's table.
    pub fn label(self) -> &'static str {
        match self {
            BuildKind::CpuLoops => "CPU OpenMP Parallel",
            BuildKind::CpuBlas => "CPU OpenMP Parallel + BLAS",
            BuildKind::GpuBlas => "GPU OpenMP Offload + BLAS",
            BuildKind::GpuCublas => "GPU OpenMP Offload + cuBLAS",
            BuildKind::GpuCublasPinned => {
                "GPU OpenMP Offload + cuBLAS (Pinned Memory w/ Cuda Streams)"
            }
        }
    }

    /// Whether this build runs through the device offload runtime.
    pub fn uses_device(self) -> bool {
        !matches!(self, BuildKind::CpuLoops | BuildKind::CpuBlas)
    }

    /// Launch policy: only the pinned/streams build uses `nowait`.
    fn policy(self) -> LaunchPolicy {
        match self {
            BuildKind::GpuCublasPinned => LaunchPolicy::Async,
            _ => LaunchPolicy::Sync,
        }
    }
}

/// Accumulated kernel timings for one measurement window: the per-phase
/// sums of the slices an MD step times (see [`LfdEngine::run_md_step`]).
/// `electron = kinetic + potential`; H2D/D2H time is reported separately as
/// `transfer`.
#[derive(Copy, Clone, Debug, Default)]
pub struct KernelTimings {
    /// Electron propagation (kinetic + potential), seconds.
    pub electron: f64,
    /// Nonlocal correction (nlp_prop compute only), seconds.
    pub nonlocal: f64,
    /// H2D/D2H transfer time (coefficient uploads, PCIe round-trips,
    /// pinned handshakes), seconds.
    pub transfer: f64,
    /// Makespan of the whole window, seconds.
    pub total: f64,
    /// True when the numbers come from the device roofline model rather
    /// than wall-clock measurement.
    pub modeled: bool,
}

/// The phases a QD step is timed in; the discriminant indexes [`PhaseSums`].
#[derive(Copy, Clone)]
enum Phase {
    Kinetic,
    Potential,
    Nonlocal,
    Transfer,
}

impl Phase {
    /// Name of the phase's slices on the trace's host track.
    const fn name(self) -> &'static str {
        [
            "lfd.kinetic",
            "lfd.potential",
            "lfd.nonlocal",
            "lfd.transfer",
        ][self as usize]
    }
}

/// Microseconds per [`Phase`] of the MD step being run: what
/// [`KernelTimings`] reports. A slice is summed here first and, when the
/// collector is on, handed to the trace with the same duration, so the two
/// agree by name (`tests/trace_agreement.rs`).
#[derive(Default)]
struct PhaseSums([f64; 4]);

impl PhaseSums {
    /// Account a slice of `dur_s` seconds that ends now.
    fn add(&mut self, phase: Phase, dur_s: f64, bytes: u64) {
        let dur_us = dur_s * 1e6;
        self.0[phase as usize] += dur_us;
        if dcmesh_obs::enabled() {
            let start_us = (dcmesh_obs::clock::now_us() - dur_us).max(0.0);
            dcmesh_obs::trace::record(
                Event::complete(phase.name(), Track::Host, start_us, dur_us).with_bytes(bytes),
            );
        }
    }

    fn timings(&self, total: f64, modeled: bool) -> KernelTimings {
        let [kinetic, potential, nonlocal, transfer] = self.0.map(|us| us * 1e-6);
        KernelTimings {
            electron: kinetic + potential,
            nonlocal,
            transfer,
            total,
            modeled,
        }
    }
}

/// LFD engine configuration.
#[derive(Clone, Debug)]
pub struct LfdConfig {
    /// Domain mesh.
    pub mesh: Mesh3,
    /// Number of KS orbitals.
    pub norb: usize,
    /// Index of the LUMO (first unoccupied orbital).
    pub lumo: usize,
    /// QD time step (a.u.).
    pub dt: f64,
    /// QD steps per MD step (`N_QD`).
    pub n_qd: usize,
    /// Orbital block size for the blocked kernels. `0` means unblocked:
    /// the engine normalises it to `norb` (paper Alg. 3) at construction.
    pub block_size: usize,
    /// Which build variant to run.
    pub build: BuildKind,
    /// Scissor shift `D_sci` (Hartree).
    pub delta_sci: f64,
    /// Optional laser pulse (length-gauge coupling along x).
    pub laser: Option<LaserPulse>,
    /// RNG seed for synthetic initial states.
    pub seed: u64,
}

impl LfdConfig {
    /// The paper's single-rank benchmark workload: 64 orbitals on a
    /// 70x70x72 mesh, 1,000 QD steps (Tables I-II). `scale` < 1 shrinks the
    /// mesh and step count proportionally for quick runs.
    pub fn paper_benchmark(build: BuildKind, scale: f64) -> Self {
        let dim = |n: usize| ((n as f64 * scale).round() as usize).max(8);
        let mesh = Mesh3::new(dim(70), dim(70), dim(72), 0.42, 0.42, 0.42);
        Self {
            mesh,
            norb: ((64.0 * scale).round() as usize).max(4),
            lumo: ((48.0 * scale).round() as usize).max(2),
            dt: 0.04,
            n_qd: ((1000.0 * scale).round() as usize).max(10),
            block_size: 32,
            build,
            delta_sci: 0.08,
            laser: None,
            seed: 2024,
        }
    }
}

/// The wavefunctions in a build's native layout.
enum State<R: Real> {
    /// Baseline AoS layout (CpuLoops build only).
    Aos(WfAos<R>),
    /// Optimized SoA layout (all other builds).
    Soa(WfSoa<R>),
}

/// The per-domain LFD engine.
pub struct LfdEngine<R: Real> {
    cfg: LfdConfig,
    kin: KineticPropagator<R>,
    pot_half: PotentialPropagator<R>,
    /// The local Hamiltonian the energy meter takes expectations of.
    h_loc: dcmesh_tddft::Hamiltonian,
    nl: NonlocalCorrection<R>,
    /// Squared orbital norms the closing nonlocal application hands back.
    norms2: Vec<R>,
    psi: State<R>,
    device: Option<Device>,
    shadow: Option<ShadowState<R>>,
    /// Simulation time (a.u.).
    pub time: f64,
    /// Occupations of the adiabatic reference states.
    pub occupations: Vec<R>,
    /// MD steps run so far; drives the fault plan's NaN-injection trigger.
    md_steps: u64,
}

impl<R: Real> std::fmt::Debug for LfdEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LfdEngine")
            .field("time", &self.time)
            .finish_non_exhaustive()
    }
}

impl<R: Real> LfdEngine<R> {
    /// Build the engine with a synthetic orthonormal initial state (real:
    /// [`WfAos::randomize`]) and a local potential `v_loc` (pass zeros for
    /// free propagation). Panics when the mesh cannot hold `norb`
    /// independent orbitals: an orbital left zero would still be counted
    /// occupied, and the engine's electron count would disagree with its
    /// density.
    pub fn new(cfg: LfdConfig, v_loc: Vec<f64>) -> Self {
        assert_eq!(v_loc.len(), cfg.mesh.len());
        assert!(cfg.lumo < cfg.norb, "need at least one unoccupied orbital");
        let mut init = WfAos::<R>::zeros(cfg.mesh.clone(), cfg.norb);
        let dropped = init.randomize(cfg.seed);
        assert!(
            dropped.is_empty(),
            "LfdEngine::new: {} mesh points hold no {} independent synthetic orbitals \
             (orbitals {dropped:?} came out dependent)",
            cfg.mesh.len(),
            cfg.norb
        );
        Self::with_initial_state(cfg, v_loc, init)
    }

    /// Build the engine from externally prepared (QXMD ground-state)
    /// orbitals; they define both `Psi(0)` and the initial `Psi(t)`.
    pub fn with_initial_state(mut cfg: LfdConfig, v_loc: Vec<f64>, init: WfAos<R>) -> Self {
        assert_eq!(init.norb(), cfg.norb);
        if cfg.block_size == 0 {
            cfg.block_size = cfg.norb;
        }
        let dt = R::from_f64(cfg.dt);
        let kin = KineticPropagator::new(cfg.mesh.clone(), dt, R::ONE);
        let pot_half = PotentialPropagator::new(cfg.mesh.clone(), &v_loc, dt * R::HALF);
        let nl = NonlocalCorrection::new(
            init.to_matrix(),
            cfg.lumo,
            R::from_f64(cfg.delta_sci),
            dt,
            R::from_f64(cfg.mesh.dv()),
        );
        let mut occupations = vec![R::ZERO; cfg.norb];
        for f in occupations.iter_mut().take(cfg.lumo) {
            *f = R::TWO;
        }
        let device = cfg.build.uses_device().then(Device::a100);
        let shadow = device.as_ref().map(|d| {
            let s = ShadowState::new(d, cfg.mesh.len(), cfg.norb, occupations.clone());
            if cfg.build == BuildKind::GpuCublasPinned {
                s.pinned()
            } else {
                s
            }
        });
        let h_loc = dcmesh_tddft::Hamiltonian::with_potential(cfg.mesh.clone(), v_loc);
        let psi = match cfg.build {
            BuildKind::CpuLoops => State::Aos(init),
            _ => State::Soa(init.to_soa()),
        };
        Self {
            cfg,
            kin,
            pot_half,
            h_loc,
            nl,
            norms2: vec![R::ZERO; occupations.len()],
            psi,
            device,
            shadow,
            time: 0.0,
            occupations,
            md_steps: 0,
        }
    }

    /// The configuration (`block_size` as normalised at construction).
    pub fn config(&self) -> &LfdConfig {
        &self.cfg
    }

    /// The device (if this build uses one).
    pub fn device(&self) -> Option<&Device> {
        self.device.as_ref()
    }

    /// Current state in the AoS layout (copies from SoA if needed).
    pub fn state_aos(&self) -> WfAos<R> {
        match &self.psi {
            State::Aos(a) => a.clone(),
            State::Soa(s) => s.to_aos(),
        }
    }

    /// The raw wavefunction storage in this build's *native* layout (AoS
    /// for the baseline build, SoA otherwise). Checkpointing reads and
    /// writes through this so a restored engine of the same build gets a
    /// bitwise-identical state with no layout conversion.
    pub fn state_data(&self) -> &[dcmesh_math::Complex<R>] {
        match &self.psi {
            State::Aos(a) => a.data(),
            State::Soa(s) => s.data(),
        }
    }

    /// Mutable access to the native-layout wavefunction storage
    /// (see [`LfdEngine::state_data`]).
    pub fn state_data_mut(&mut self) -> &mut [dcmesh_math::Complex<R>] {
        match &mut self.psi {
            State::Aos(a) => a.data_mut(),
            State::Soa(s) => s.data_mut(),
        }
    }

    /// MD steps this engine has run.
    pub fn md_steps(&self) -> u64 {
        self.md_steps
    }

    /// Restore the step counter from a checkpoint (pairs with
    /// [`LfdEngine::md_steps`]).
    pub fn set_md_steps(&mut self, steps: u64) {
        self.md_steps = steps;
    }

    /// True when every wavefunction component and occupation is finite —
    /// the gate the resilient runner checks before trusting a step.
    pub fn state_is_finite(&self) -> bool {
        self.state_data()
            .iter()
            .all(|z| z.re.to_f64().is_finite() && z.im.to_f64().is_finite())
            && self.occupations.iter().all(|f| f.to_f64().is_finite())
    }

    /// Run one MD step = `N_QD` QD steps; returns kernel timings for the
    /// window (wall-clock for CPU builds, modeled for device builds).
    ///
    /// Each QD step times its phases — `lfd.nonlocal`, `lfd.potential`,
    /// `lfd.kinetic`, `lfd.transfer` — as slices; the returned
    /// [`KernelTimings`] holds their per-phase sums, and each slice is also
    /// a host-track event of the global trace when the collector is enabled.
    pub fn run_md_step(&mut self) -> KernelTimings {
        let _step_span = dcmesh_obs::span!("lfd.md_step");
        let n_qd = self.cfg.n_qd;
        let build = self.cfg.build;
        let policy = build.policy();
        let mut sums = PhaseSums::default();
        let wall0 = Instant::now();
        if let Some(dev) = &self.device {
            dev.reset_clock();
        }
        // Fault plan: plant a NaN in the kernel output at the configured
        // step (one-shot — a rollback replaying this step proceeds clean).
        if crate::fault::consume_nan_injection(self.md_steps) {
            if let Some(z) = self.state_data_mut().first_mut() {
                *z = dcmesh_math::Complex::new(R::from_f64(f64::NAN), R::ZERO);
            }
        }

        for q in 0..n_qd {
            // Laser phase table for this QD step, if a pulse is on.
            let pulse_field = self.cfg.laser.as_ref().map(|p| {
                let t_mid = self.time + 0.5 * self.cfg.dt;
                [p.e_field(t_mid), 0.0, 0.0]
            });
            if let Some(e) = pulse_field {
                self.pot_half.set_field(e);
            }
            // Device builds refresh the per-step propagator coefficient
            // table (the time-dependent local phases) on the device: the
            // one transfer shadow dynamics cannot amortize. Pageable for
            // the plain GPU builds, pinned for the streams build (§III-E).
            if let Some(dev) = &self.device {
                let coeff_bytes =
                    (self.cfg.mesh.len() * std::mem::size_of::<dcmesh_math::Complex<R>>()) as u64;
                let kind = if build == BuildKind::GpuCublasPinned {
                    TransferKind::Pinned
                } else {
                    TransferKind::Pageable
                };
                let x0 = self.dev_clocks().1;
                dev.transfer_h2d(StreamId(0), coeff_bytes, kind);
                let dur = self.dev_clocks().1 - x0;
                sums.add(Phase::Transfer, dur, coeff_bytes);
            }

            // --- nonlocal, leading slot: the opening Nl(dt/2). Later QD
            // steps merged theirs into the previous trailing slot; only the
            // modeled device still runs the paper's half-step there. ---
            let (first, last) = (q == 0, q + 1 == n_qd);
            if first || self.device.is_some() {
                let lead = first.then_some(StepFraction::Half);
                let nl = |e: &mut Self, p| e.apply_nonlocal(lead, false, p);
                self.timed_phase(&mut sums, Phase::Nonlocal, nl, policy);
            }

            // --- electron propagation: Pot(dt/2) Kin(dt) Pot(dt/2) ---
            self.apply_electron_propagation(policy, &mut sums);

            // --- nonlocal, trailing slot: Nl(dt), or the closing Nl(dt/2)
            // and the MD step's one renormalization. ---
            let trail = if last {
                StepFraction::Half
            } else {
                StepFraction::Full
            };
            let nl = |e: &mut Self, p| e.apply_nonlocal(Some(trail), last, p);
            self.timed_phase(&mut sums, Phase::Nonlocal, nl, policy);

            self.time += self.cfg.dt;
        }

        // Shadow handshake: occupations only. The remap projects onto the
        // finite adiabatic reference basis; population leaking outside the
        // tracked subspace is re-scaled back in (no-ionization constraint —
        // the DC domain's electron count is fixed by QXMD).
        let _hs_span = dcmesh_obs::span!("lfd.occ_handshake");
        let total_before = self.total_occupation();
        let mut new_occ = match &self.psi {
            State::Soa(soa) => self.nl.remap_occ_soa(soa, &self.occupations),
            State::Aos(aos) => self.nl.remap_occ(&aos.to_matrix(), &self.occupations),
        };
        let total_after: R = new_occ.iter().copied().sum();
        if total_after > R::ZERO {
            let scale = total_before / total_after;
            for f in &mut new_occ {
                *f *= scale;
            }
        }
        if let Some(sh) = &mut self.shadow {
            sh.download_occupations(&new_occ);
        }
        self.occupations = new_occ;
        self.md_steps += 1;

        drop(_hs_span);
        let total = match &self.device {
            Some(dev) => dev.synchronize(),
            None => wall0.elapsed().as_secs_f64(),
        };
        sums.timings(total, build.uses_device())
    }

    /// Modeled (kernel-busy, transfer) seconds so far (0 for CPU builds).
    fn dev_clocks(&self) -> (f64, f64) {
        self.device.as_ref().map_or((0.0, 0.0), |d| {
            let s = d.stats();
            (s.kernel_busy, s.transfer_time)
        })
    }

    /// Run `f` and account its duration to `phase`: modeled kernel-busy
    /// delta for device builds, wall clock for CPU builds. Any transfer
    /// time the body incurs (e.g. the GpuBlas PCIe round-trip) is accounted
    /// separately to [`Phase::Transfer`].
    fn timed_phase(
        &mut self,
        sums: &mut PhaseSums,
        phase: Phase,
        f: impl FnOnce(&mut Self, LaunchPolicy),
        policy: LaunchPolicy,
    ) {
        let modeled = self.cfg.build.uses_device();
        let t0 = Instant::now();
        let (b0, x0) = self.dev_clocks();
        f(self, policy);
        let (b1, x1) = self.dev_clocks();
        let dur = if modeled {
            b1 - b0
        } else {
            t0.elapsed().as_secs_f64()
        };
        sums.add(phase, dur, 0);
        if modeled {
            let xfer = x1 - x0;
            if xfer > 0.0 {
                sums.add(Phase::Transfer, xfer, 0);
            }
        }
    }

    /// `Pot(dt/2) Kin(dt) Pot(dt/2)`. The SoA builds run the potential inside
    /// the kinetic sweeps ([`KineticPropagator::step_with_potential`]), in the
    /// `lfd.kinetic` slice; the baseline runs it, and the modeled device is
    /// charged it, as the paper's kernel of its own on either side.
    fn apply_electron_propagation(&mut self, policy: LaunchPolicy, sums: &mut PhaseSums) {
        let apart = matches!(self.psi, State::Aos(_)) || self.device.is_some();
        let pot = |e: &mut Self, p| match (&mut e.psi, &e.device) {
            (State::Aos(psi), _) => apply_potential_aos(&e.pot_half, psi),
            (State::Soa(psi), Some(dev)) => e.pot_half.charge(dev, p, psi.norb()),
            (State::Soa(_), None) => {}
        };
        if apart {
            self.timed_phase(sums, Phase::Potential, pot, policy);
        }
        self.timed_phase(sums, Phase::Kinetic, |e, p| e.apply_kinetic(p), policy);
        if apart {
            self.timed_phase(sums, Phase::Potential, pot, policy);
        }
    }

    fn apply_kinetic(&mut self, policy: LaunchPolicy) {
        let block = self.cfg.block_size;
        match &mut self.psi {
            State::Aos(psi) => self.kin.step_alg1(psi),
            State::Soa(psi) => {
                let dev_pair = self.device.as_ref().map(|d| (d, policy));
                self.kin
                    .step_with_potential(psi, &self.pot_half, block, dev_pair);
            }
        }
    }

    /// One nonlocal slot of the QD loop: `exp(-i D_sci dt frac P)`, then the
    /// scale sweep to unit norms when `renormalize`. `frac = None` is a slot
    /// whose half-step the host merged into its neighbour: the modeled
    /// device is charged the paper's half-step all the same (one
    /// `lfd.nonlocal` launch; on `GpuBlas` the PCIe round-trip of the host
    /// BLAS), by the precedent of the kinetic kernel's fused passes.
    fn apply_nonlocal(
        &mut self,
        frac: Option<StepFraction>,
        renormalize: bool,
        policy: LaunchPolicy,
    ) {
        let (nl, norb, norms2) = (&self.nl, self.cfg.norb, &mut self.norms2);
        let psi = match &mut self.psi {
            State::Aos(psi) => {
                let Some(frac) = frac else { return };
                let mut m = psi.to_matrix();
                nl.apply(&mut m, frac);
                *psi = WfAos::from_matrix(psi.mesh().clone(), m);
                if renormalize {
                    #[cfg(test)]
                    crate::nonlocal::counts::bump(0, 1);
                    psi.normalize_orbitals();
                }
                return;
            }
            State::Soa(psi) => psi,
        };
        let bytes = std::mem::size_of_val(psi.data()) as u64;
        let mut body = || {
            let Some(frac) = frac else { return };
            if renormalize {
                nl.apply_soa(psi, frac, Some(norms2));
                nl.renormalize_soa(psi, norms2);
            } else {
                nl.apply_soa(psi, frac, None);
            }
        };
        match &self.device {
            None => body(),
            Some(dev) if self.cfg.build == BuildKind::GpuBlas => {
                // Host BLAS forces the wavefunctions over PCIe both ways.
                dev.transfer_d2h(StreamId(0), bytes, TransferKind::Pageable);
                body();
                dev.transfer_h2d(StreamId(0), bytes, TransferKind::Pageable);
            }
            Some(dev) => dev.launch_named(
                Phase::Nonlocal.name(),
                StreamId(0),
                policy,
                nl.nlp_work(norb),
                body,
            ),
        }
    }

    /// `calc_energy()`: total electronic energy of each orbital right now —
    /// kinetic + local potential expectation plus the scissor (nonlocal)
    /// correction of Eq. (8). The expensive expectation runs at f64, as one
    /// block operation: the state cast once into a point-major block (the
    /// SoA storage as it lies, AoS transposed), `h` applied to it as a real
    /// block of `2 norb` columns, each column summed in grid order — every
    /// element takes the operations of the one-orbital
    /// [`Hamiltonian::expectation`](dcmesh_tddft::Hamiltonian::expectation),
    /// in its order.
    pub fn band_energies(&self) -> Vec<f64> {
        use dcmesh_math::{as_reals, as_reals_mut, C64};
        let scissor = self.scissor_energies();
        let (g, norb) = (self.cfg.mesh.len(), self.cfg.norb);
        let mut psi = vec![C64::zero(); g * norb];
        match &self.psi {
            State::Soa(_) => psi
                .iter_mut()
                .zip(self.state_data())
                .for_each(|(o, z)| *o = z.cast()),
            State::Aos(_) => {
                for (n, orbital) in self.state_data().chunks_exact(g).enumerate() {
                    let column = psi[n..].iter_mut().step_by(norb);
                    column.zip(orbital).for_each(|(o, z)| *o = z.cast());
                }
            }
        }
        let mut hpsi = vec![C64::zero(); g * norb];
        self.h_loc
            .apply(as_reals(&psi), as_reals_mut(&mut hpsi), false);
        (0..norb)
            .map(|n| {
                let (p, hp) = (
                    psi[n..].iter().step_by(norb),
                    hpsi[n..].iter().step_by(norb),
                );
                let num: f64 = p.clone().zip(hp).map(|(a, b)| (a.conj() * *b).re).sum();
                let den: f64 = p.map(|z| z.norm_sqr()).sum();
                num / den + scissor[n].to_f64()
            })
            .collect()
    }

    /// Orbital `n` in grid order, read out of the native storage in place
    /// (what `state_aos().orbital(n)` holds).
    fn orbital(&self, n: usize) -> impl Iterator<Item = &dcmesh_math::Complex<R>> {
        let g = self.cfg.mesh.len();
        let (first, stride) = match &self.psi {
            State::Aos(_) => (n * g, 1),
            State::Soa(_) => (n, self.cfg.norb),
        };
        self.state_data()[first..].iter().step_by(stride).take(g)
    }

    /// Total electronic energy `sum_n f_n E_n` (Hartree) — the quantity a
    /// dark (field-free) run conserves and a laser pulse pumps up.
    pub fn total_energy(&self) -> f64 {
        self.band_energies()
            .iter()
            .zip(&self.occupations)
            .map(|(e, f)| e * f.to_f64())
            .sum()
    }

    /// The local Hamiltonian (kinetic + `v_loc`) this engine was built in.
    pub fn local_hamiltonian(&self) -> &dcmesh_tddft::Hamiltonian {
        &self.h_loc
    }

    /// Scissor (excited-state) energy of each orbital right now.
    pub fn scissor_energies(&self) -> Vec<R> {
        match &self.psi {
            State::Soa(s) => self.nl.scissor_energies_soa(s),
            State::Aos(a) => self.nl.scissor_energies(&a.to_matrix()),
        }
    }

    /// Population excited above the LUMO (the light-induced excitation the
    /// application study tracks).
    pub fn excited_population(&self) -> R {
        self.occupations[self.cfg.lumo..].iter().copied().sum()
    }

    /// Total electron count (must be conserved).
    pub fn total_occupation(&self) -> R {
        self.occupations.iter().copied().sum()
    }

    /// Largest per-orbital deviation `| ||psi_n|| - 1 |` from unit L2 norm
    /// (volume element included). The propagators are unitary, so this is
    /// an invariant the flight recorder tracks: growth signals numerical
    /// trouble long before anything overflows. NaN amplitudes surface
    /// as a NaN error, which every threshold comparison treats as a
    /// violation.
    ///
    /// The norm is [`WfAos::orbital_norm`]'s expression with the sum over
    /// the grid carried in f64 (the same bits for an f64 engine): summed in
    /// f32, 10^4 terms carry an error of up to 1e-5 of their own, which
    /// would be the meter's and not the state's.
    pub fn max_norm_error(&self) -> f64 {
        let dv = self.cfg.mesh.dv();
        (0..self.cfg.norb)
            .map(|n| {
                let n2: f64 = self.orbital(n).map(|z| z.norm_sqr().to_f64()).sum();
                let nv = (n2.sqrt().powi(2) * dv).sqrt();
                if nv.is_finite() {
                    (nv - 1.0).abs()
                } else {
                    f64::NAN
                }
            })
            .fold(0.0, |acc, e| {
                // f64::max washes NaN out; keep it sticky instead.
                if acc.is_nan() || e.is_nan() {
                    f64::NAN
                } else {
                    acc.max(e)
                }
            })
    }

    /// The time-dependent electron density of the current state (f64),
    /// weighted by the current occupations — what Ehrenfest dynamics feeds
    /// back into the forces on the ions (paper Eq. (3): TDDFT "dictates
    /// interatomic interaction").
    ///
    /// Reads the native storage in place: no layout copy.
    pub fn density_f64(&self) -> Vec<f64> {
        let mut rho = vec![R::ZERO; self.cfg.mesh.len()];
        self.density_into(&mut rho);
        rho.iter().map(|r| r.to_f64()).collect()
    }

    /// [`LfdEngine::density_f64`] in the engine's precision, written over
    /// `rho` (one value per mesh point): no allocation.
    pub fn density_into(&self, rho: &mut [R]) {
        match &self.psi {
            State::Aos(a) => a.density_into(&self.occupations, rho),
            State::Soa(s) => s.density_into(&self.occupations, rho),
        }
    }

    /// Reference to the shadow state (device builds).
    pub fn shadow(&self) -> Option<&ShadowState<R>> {
        self.shadow.as_ref()
    }
}

/// Apply the potential phase to an AoS state (baseline path).
fn apply_potential_aos<R: Real>(pot: &PotentialPropagator<R>, psi: &mut WfAos<R>) {
    // Reuse the SoA kernel's phase table through a temporary SoA view would
    // defeat the baseline; do the straightforward per-orbital sweep.
    let mesh = psi.mesh().clone();
    let mut tmp = WfSoa::zeros(mesh, 1);
    for n in 0..psi.norb() {
        tmp.data_mut().copy_from_slice(psi.orbital(n));
        pot.apply(&mut tmp, None);
        psi.orbital_mut(n).copy_from_slice(tmp.data());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(build: BuildKind) -> LfdConfig {
        LfdConfig {
            mesh: Mesh3::new(8, 8, 8, 0.5, 0.5, 0.5),
            norb: 4,
            lumo: 2,
            dt: 0.02,
            n_qd: 5,
            block_size: 2,
            build,
            delta_sci: 0.1,
            laser: None,
            seed: 7,
        }
    }

    #[test]
    fn all_builds_produce_identical_states() {
        let v: Vec<f64> = (0..512).map(|i| (i as f64 * 0.013).sin() * 0.5).collect();
        let reference = {
            let mut e = LfdEngine::<f64>::new(small_cfg(BuildKind::CpuLoops), v.clone());
            e.run_md_step();
            e.state_aos()
        };
        for build in [
            BuildKind::CpuBlas,
            BuildKind::GpuBlas,
            BuildKind::GpuCublas,
            BuildKind::GpuCublasPinned,
        ] {
            let mut e = LfdEngine::<f64>::new(small_cfg(build), v.clone());
            e.run_md_step();
            let diff = reference.max_abs_diff(&e.state_aos());
            assert!(diff < 1e-10, "{build:?} diverged by {diff}");
        }
    }

    #[test]
    fn norm_and_occupation_conserved() {
        let v = vec![0.0; 512];
        let mut e = LfdEngine::<f64>::new(small_cfg(BuildKind::CpuBlas), v);
        let n0 = e.total_occupation();
        for _ in 0..3 {
            e.run_md_step();
        }
        assert!((e.total_occupation() - n0).abs() < 1e-9, "occupation drift");
        let aos = e.state_aos();
        for n in 0..4 {
            assert!((aos.orbital_norm(n) - 1.0).abs() < 1e-9);
        }
    }

    /// Harmonic-well eigenstate setup: initial orbitals are true eigenstates
    /// of the propagation Hamiltonian, so dark dynamics is stationary.
    fn eigenstate_setup(n_qd: usize) -> (LfdConfig, Vec<f64>, dcmesh_grid::WfAos<f64>, Vec<f64>) {
        let mesh = Mesh3::new(9, 9, 9, 0.5, 0.5, 0.5);
        let c = mesh.center();
        let mut v = vec![0.0; mesh.len()];
        for (i, j, k) in mesh.iter_points() {
            let p = mesh.position(i, j, k);
            let r2 = (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2) + (p[2] - c[2]).powi(2);
            v[mesh.idx(i, j, k)] = 0.5 * r2;
        }
        let h = dcmesh_tddft::Hamiltonian::with_potential(mesh.clone(), v.clone());
        let eig = dcmesh_tddft::eigensolver::lowest_states(&h, 4, 300, 17);
        let cfg = LfdConfig {
            mesh,
            norb: 4,
            lumo: 1,
            dt: 0.02,
            n_qd,
            block_size: 2,
            build: BuildKind::CpuBlas,
            delta_sci: 0.0,
            laser: None,
            seed: 7,
        };
        (cfg, v, eig.orbitals, eig.values)
    }

    #[test]
    fn field_free_evolution_keeps_ground_state_occupations() {
        let (cfg, v, orbitals, _) = eigenstate_setup(40);
        let mut e = LfdEngine::<f64>::with_initial_state(cfg, v, orbitals);
        e.run_md_step();
        assert!((e.total_occupation() - 2.0).abs() < 1e-9);
        assert!(
            e.excited_population() < 0.02,
            "dark run excited {}",
            e.excited_population()
        );
    }

    #[test]
    fn laser_pulse_excites_electrons() {
        let (mut cfg, v, orbitals, vals) = eigenstate_setup(150);
        // Drive resonantly at the 0 -> 1 gap (the x-polarized p state).
        let gap = vals[1] - vals[0];
        cfg.laser = Some(LaserPulse {
            e0: 0.4,
            omega: gap,
            duration: 150.0 * cfg.dt,
        });
        let mut with_laser =
            LfdEngine::<f64>::with_initial_state(cfg.clone(), v.clone(), orbitals.clone());
        with_laser.run_md_step();
        let mut cfg_off = cfg;
        cfg_off.laser = None;
        let mut without = LfdEngine::<f64>::with_initial_state(cfg_off, v, orbitals);
        without.run_md_step();
        assert!(
            with_laser.excited_population() > 5.0 * without.excited_population().max(1e-6),
            "laser {} vs dark {}",
            with_laser.excited_population(),
            without.excited_population()
        );
    }

    #[test]
    fn dark_run_conserves_total_energy_and_laser_pumps_it() {
        let (cfg, v, orbitals, _) = eigenstate_setup(60);
        let mut dark =
            LfdEngine::<f64>::with_initial_state(cfg.clone(), v.clone(), orbitals.clone());
        let e0 = dark.total_energy();
        dark.run_md_step();
        let e1 = dark.total_energy();
        assert!(
            (e1 - e0).abs() < 2e-2 * e0.abs().max(1.0),
            "dark energy drift {e0} -> {e1}"
        );
        let mut cfg_lit = cfg;
        cfg_lit.laser = Some(LaserPulse {
            e0: 0.5,
            omega: 1.0,
            duration: 60.0 * 0.02,
        });
        let mut lit = LfdEngine::<f64>::with_initial_state(cfg_lit, v, orbitals);
        let l0 = lit.total_energy();
        lit.run_md_step();
        let l1 = lit.total_energy();
        assert!(
            l1 - l0 > 10.0 * (e1 - e0).abs(),
            "laser absorbed no energy: {l0} -> {l1} (dark drift {})",
            e1 - e0
        );
    }

    /// The paper's unmerged QD loop `[Nl(dt/2) . E . Nl(dt/2)]^N_QD`
    /// (field-free engines only), closing with the renormalization iff
    /// `renormalize`: the reference `run_md_step`'s merged loop is held to.
    fn unmerged_md_step<R: Real>(e: &mut LfdEngine<R>, renormalize: bool) {
        assert!(e.cfg.laser.is_none());
        let n_qd = e.cfg.n_qd;
        let sync = LaunchPolicy::Sync;
        for q in 0..n_qd {
            e.apply_nonlocal(Some(StepFraction::Half), false, sync);
            e.apply_electron_propagation(sync, &mut PhaseSums::default());
            let close = renormalize && q + 1 == n_qd;
            e.apply_nonlocal(Some(StepFraction::Half), close, sync);
            e.time += e.cfg.dt;
        }
    }

    #[test]
    fn merged_loop_matches_the_unmerged_reference_loop() {
        let v: Vec<f64> = (0..512).map(|i| (i as f64 * 0.013).sin() * 0.5).collect();
        for build in [BuildKind::CpuBlas, BuildKind::CpuLoops, BuildKind::GpuBlas] {
            let cfg = LfdConfig {
                n_qd: 20,
                ..small_cfg(build)
            };
            let [mut merged, mut unmerged] =
                [(); 2].map(|_| LfdEngine::<f64>::new(cfg.clone(), v.clone()));
            merged.run_md_step();
            unmerged_md_step(&mut unmerged, true);
            let diff = merged.state_aos().max_abs_diff(&unmerged.state_aos());
            assert!(diff < 1e-13, "{build:?}: merged vs unmerged {diff:e}");
        }
    }

    #[test]
    fn one_md_step_is_n_qd_plus_one_projector_applications_and_one_sweep() {
        use crate::nonlocal::counts;
        for build in [
            BuildKind::CpuBlas,
            BuildKind::CpuLoops,
            BuildKind::GpuCublas,
        ] {
            for n_qd in [1usize, 2, 16] {
                let cfg = LfdConfig {
                    n_qd,
                    ..small_cfg(build)
                };
                let mut e = LfdEngine::<f64>::new(cfg, vec![0.0; 512]);
                counts::take();
                e.run_md_step();
                assert_eq!(
                    counts::take(),
                    (n_qd as u32 + 1, 1),
                    "{build:?}, n_qd {n_qd}"
                );
            }
        }
    }

    #[test]
    fn split_operator_error_is_second_order_in_dt_qd() {
        // Scissor shift and laser on: all of Nl, Pot(t) and Kin take part.
        // Halving dt_qd at a fixed total time must cut the error against a
        // dt/8 reference about fourfold (a first-order scheme: twofold).
        let (base, v, orbitals, vals) = eigenstate_setup(32);
        let t_total = 32.0 * base.dt;
        let run = |refine: usize| {
            let cfg = LfdConfig {
                dt: base.dt / refine as f64,
                n_qd: base.n_qd * refine,
                delta_sci: 0.5,
                laser: Some(LaserPulse {
                    e0: 0.4,
                    omega: vals[1] - vals[0],
                    duration: t_total,
                }),
                ..base.clone()
            };
            let mut e = LfdEngine::<f64>::with_initial_state(cfg, v.clone(), orbitals.clone());
            e.run_md_step();
            assert!((e.time - t_total).abs() < 1e-12);
            e.state_aos()
        };
        let reference = run(8);
        let (coarse, fine) = (run(1), run(2));
        let (err_coarse, err_fine) = (
            reference.max_abs_diff(&coarse),
            reference.max_abs_diff(&fine),
        );
        assert!(err_fine > 1e-9, "nothing to converge: {err_fine:e}");
        assert!(
            err_coarse >= 3.0 * err_fine,
            "error {err_coarse:e} at dt, {err_fine:e} at dt/2: ratio {:.2}",
            err_coarse / err_fine
        );
    }

    #[test]
    fn density_and_dipole_read_in_place_match_the_aos_copy_bit_for_bit() {
        // `density_f64` reads the native storage; `state_aos()` + the AoS
        // density is what it replaced. Laser on, so the dipole moves.
        let (cfg, v, orbitals, vals) = eigenstate_setup(10);
        for build in [
            BuildKind::CpuBlas,
            BuildKind::CpuLoops,
            BuildKind::GpuCublasPinned,
        ] {
            let cfg = LfdConfig {
                build,
                delta_sci: 0.1,
                laser: Some(LaserPulse {
                    e0: 0.4,
                    omega: vals[1] - vals[0],
                    duration: 30.0 * cfg.dt,
                }),
                ..cfg.clone()
            };
            let mut e = LfdEngine::<f64>::with_initial_state(cfg, v.clone(), orbitals.clone());
            let mut dipoles = Vec::new();
            for step in 0..3 {
                e.run_md_step();
                let aos = e.state_aos();
                let (want, got) = (aos.density(&e.occupations), e.density_f64());
                assert!(
                    want.iter()
                        .zip(&got)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{build:?}, step {step}: density bits differ"
                );
                let mesh = &e.config().mesh;
                let mu = crate::spectrum::density_dipole(mesh, &got, 0);
                let mu_aos = crate::spectrum::dipole_moment(&aos, &e.occupations, 0);
                assert_eq!(mu.to_bits(), mu_aos.to_bits(), "{build:?}, step {step}");
                dipoles.push(mu);
                let meter = energies_one_by_one(&e);
                assert_eq!(bits(&e.band_energies()), meter, "{build:?}, step {step}");
            }
            assert!(
                dipoles[0] != dipoles[2],
                "{build:?}: the dipole never moved"
            );
        }
        let mut e = LfdEngine::<f32>::with_initial_state(cfg, v, orbitals.cast());
        for step in 0..3 {
            e.run_md_step();
            assert_eq!(
                bits(&e.band_energies()),
                energies_one_by_one(&e),
                "f32, step {step}"
            );
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The energy meter one orbital at a time: the one-orbital expectation
    /// of each orbital of an AoS copy at f64, plus its scissor energy. The
    /// block meter must give its bits.
    fn energies_one_by_one<R: Real>(e: &LfdEngine<R>) -> Vec<u64> {
        let (aos, scissor) = (e.state_aos(), e.scissor_energies());
        let energy = |n: usize| {
            let psi: Vec<_> = aos.orbital(n).iter().map(|z| z.cast()).collect();
            e.h_loc.expectation(&psi, false) + scissor[n].to_f64()
        };
        bits(&(0..aos.norb()).map(energy).collect::<Vec<_>>())
    }

    #[test]
    fn device_builds_report_modeled_timings() {
        let v = vec![0.0; 512];
        let mut e = LfdEngine::<f64>::new(small_cfg(BuildKind::GpuCublas), v);
        let t = e.run_md_step();
        assert!(t.modeled);
        assert!(t.electron > 0.0 && t.nonlocal > 0.0 && t.total > 0.0);
        let mut c = LfdEngine::<f64>::new(small_cfg(BuildKind::CpuBlas), vec![0.0; 512]);
        let tc = c.run_md_step();
        assert!(!tc.modeled);
    }

    #[test]
    fn modeled_device_runs_the_papers_kernels_whatever_the_host_executor_fuses() {
        // One QD step is 15 kinetic + 2 potential + 2 nonlocal launches,
        // and their modeled busy time is a function of the bytes and flops
        // charged, in order. The constants are what the pre-fusion kernels
        // (three host sweeps per directional step, BLAS-2 nonlocal) charged.
        let one_qd = LfdConfig {
            n_qd: 1,
            ..small_cfg(BuildKind::GpuCublas)
        };
        let mut e = LfdEngine::<f64>::new(one_qd, vec![0.0; 512]);
        e.run_md_step();
        let stats = e.device().unwrap().stats();
        assert_eq!(stats.kernels_launched, 19);
        assert_eq!(stats.kernel_busy.to_bits(), 0x3eb7_df8a_5f45_9c0e);
        for (build, total_bits) in [
            (BuildKind::GpuCublas, 0x3f50_7f92_709a_4704u64),
            (BuildKind::GpuCublasPinned, 0x3f1b_003f_1daa_be57),
        ] {
            let mut e = LfdEngine::<f64>::new(small_cfg(build), vec![0.0; 512]);
            let t = e.run_md_step();
            assert_eq!(e.device().unwrap().stats().kernels_launched, 5 * 19);
            assert_eq!(t.total.to_bits(), total_bits, "{build:?}: {:e}", t.total);
        }
    }

    /// Names of the threads the dcmesh runtime has spawned in this process
    /// (`dcmesh-pool-*`; once also `dcmesh-lane-*`). The raw `Threads:`
    /// count of `/proc/self/status` will not do here: the test harness
    /// starts and retires its own threads while this test runs.
    #[cfg(target_os = "linux")]
    fn runtime_threads() -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim().to_string())
            .filter(|comm| comm.starts_with("dcmesh-"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn pinned_build_differs_from_cublas_in_the_modeled_clock_only() {
        // `nowait` + pinned transfers are a policy of the modeled clock:
        // same kernels, same order, same thread, so the same bits — and no
        // thread of its own (the global pool is built first so that its
        // workers are in both counts).
        let v: Vec<f64> = (0..512).map(|i| (i as f64 * 0.013).sin() * 0.5).collect();
        dcmesh_pool::global();
        #[cfg(target_os = "linux")]
        let threads_before = runtime_threads();
        let [mut pinned, mut cublas] = [BuildKind::GpuCublasPinned, BuildKind::GpuCublas]
            .map(|build| LfdEngine::<f64>::new(small_cfg(build), v.clone()));
        for step in 0..3 {
            let (tp, tc) = (pinned.run_md_step(), cublas.run_md_step());
            assert!(tp.modeled && tc.modeled);
            assert!(
                tp.total < tc.total,
                "step {step}: pinned {:e} !< cublas {:e}",
                tp.total,
                tc.total
            );
        }
        assert!(pinned.state_data() == cublas.state_data());
        assert!(pinned.occupations == cublas.occupations);
        #[cfg(target_os = "linux")]
        assert_eq!(
            runtime_threads(),
            threads_before,
            "a pinned engine spawned a thread"
        );
    }

    #[test]
    fn norm_meter_of_an_f64_engine_reads_orbital_norm_to_the_bit() {
        // Carrying the grid sum in f64 changed the meter for f32 engines
        // only: for f64 it is `WfAos::orbital_norm`, bit for bit.
        for build in [
            BuildKind::CpuLoops,
            BuildKind::CpuBlas,
            BuildKind::GpuCublas,
        ] {
            let mut e = LfdEngine::<f64>::new(small_cfg(build), vec![0.0; 512]);
            e.run_md_step();
            let aos = e.state_aos();
            let want = (0..e.config().norb)
                .map(|n| (aos.orbital_norm(n) - 1.0).abs())
                .fold(0.0, f64::max);
            assert_eq!(e.max_norm_error().to_bits(), want.to_bits(), "{build:?}");
        }
    }

    #[test]
    fn single_precision_orbitals_stay_normalised_by_one_sweep_per_md_step() {
        // The projector step is unitary, but the f32 kinetic rotations are
        // only to ~1e-7 per QD step: with one renormalization per MD step
        // the norms hold to single precision (measured with an f64 sum,
        // which is what tells a state error from the meter's summation
        // error); with none they drift past 1e-5 — the measurement that
        // keeps the closing sweep.
        let cfg = LfdConfig {
            mesh: Mesh3::cubic(16, 0.4),
            norb: 16,
            lumo: 8,
            n_qd: 3,
            block_size: 16,
            ..small_cfg(BuildKind::CpuBlas)
        };
        let [mut swept, mut never] =
            [(); 2].map(|_| LfdEngine::<f32>::new(cfg.clone(), vec![0.0; 4096]));
        for _ in 0..150 {
            swept.run_md_step();
            unmerged_md_step(&mut never, false);
        }
        let (swept, never) = (swept.max_norm_error(), never.max_norm_error());
        assert!(swept < 1e-6, "one sweep per MD step: {swept:e}");
        assert!(never > 1e-5, "no sweep at all: {never:e}");
    }

    #[test]
    fn gpu_blas_pays_pcie_transfers_cublas_does_not() {
        let v = vec![0.0; 512];
        let mut blas = LfdEngine::<f64>::new(small_cfg(BuildKind::GpuBlas), v.clone());
        blas.run_md_step();
        let xfer_blas = blas.device().unwrap().stats().h2d_bytes;
        let mut cublas = LfdEngine::<f64>::new(small_cfg(BuildKind::GpuCublas), v);
        cublas.run_md_step();
        let xfer_cublas = cublas.device().unwrap().stats().h2d_bytes;
        // Both builds refresh the per-step phase table; only the host-BLAS
        // build additionally round-trips the full wavefunction matrix. With
        // norb orbitals the extra traffic is ~2*norb the table size.
        assert!(
            xfer_blas > 3 * xfer_cublas.max(1),
            "blas {xfer_blas} vs cublas {xfer_cublas}"
        );
        let d2h_blas = blas.device().unwrap().stats().d2h_bytes;
        let d2h_cublas = cublas.device().unwrap().stats().d2h_bytes;
        assert!(
            d2h_blas > 100 * d2h_cublas.max(1),
            "d2h {d2h_blas} vs {d2h_cublas}"
        );
    }

    #[test]
    fn shadow_handshake_happens_once_per_md_step() {
        let v = vec![0.0; 512];
        let mut e = LfdEngine::<f64>::new(small_cfg(BuildKind::GpuCublasPinned), v);
        e.run_md_step();
        e.run_md_step();
        assert_eq!(e.shadow().unwrap().handshakes(), 2);
    }

    #[test]
    fn zero_block_size_means_unblocked() {
        // block_size = 0 is normalised to norb (Alg. 3) at construction and
        // steps bit-identically to saying so.
        let v: Vec<f64> = (0..512).map(|i| (i as f64 * 0.013).sin() * 0.5).collect();
        let base = LfdConfig {
            norb: 6,
            lumo: 3,
            ..small_cfg(BuildKind::CpuBlas)
        };
        let [zero, norb] = [0, base.norb].map(|block_size| {
            let cfg = LfdConfig {
                block_size,
                ..base.clone()
            };
            let mut e = LfdEngine::<f64>::new(cfg, v.clone());
            assert_eq!(e.config().block_size, 6);
            e.run_md_step();
            e
        });
        assert!(zero.state_data() == norb.state_data());
        assert!(zero.occupations == norb.occupations);
    }

    #[test]
    #[should_panic(expected = "8 mesh points hold no 16 independent")]
    fn an_engine_refuses_a_mesh_too_small_for_its_orbitals() {
        // 2^3 points hold 8 independent orbitals, not 16. Built anyway, the
        // engine would count 2.0 electrons on each of its 12 occupied
        // orbitals, zero ones included, while its density held at most 16.
        let cfg = LfdConfig {
            mesh: Mesh3::cubic(2, 0.5),
            norb: 16,
            lumo: 12,
            ..small_cfg(BuildKind::CpuBlas)
        };
        LfdEngine::<f64>::new(cfg, vec![0.0; 8]);
    }

    #[test]
    fn paper_benchmark_config_scales() {
        let cfg = LfdConfig::paper_benchmark(BuildKind::GpuCublas, 1.0);
        assert_eq!((cfg.mesh.nx, cfg.mesh.ny, cfg.mesh.nz), (70, 70, 72));
        assert_eq!(cfg.norb, 64);
        assert_eq!(cfg.n_qd, 1000);
        let small = LfdConfig::paper_benchmark(BuildKind::CpuLoops, 0.2);
        assert!(small.mesh.len() < cfg.mesh.len() / 50);
    }
}
