//! The coupled DC-MESH simulation (paper Fig. 1b).
//!
//! One [`DcMeshSim`] owns:
//!
//! * a PbTiO3 supercell, decomposed into DC domains along x,
//! * one [`LfdEngine`] per domain (electrons, device-resident via shadow
//!   dynamics), seeded with the lowest eigenstates of its slab's bare local
//!   potential,
//! * the 1D FDTD [`Maxwell1d`] field threading the domains (reported and
//!   checkpointed; the engines take `E(t)` from the pulse analytically),
//! * classical MD for the atoms ([`PerovskiteFF`]),
//! * per-domain FSSH surface hopping on a two-level model (`HOP_LEVELS`,
//!   coupling `5 v_rms` from the atoms' speed; the LFD state does not enter,
//!   and a hop moves no occupation and no atom: it is counted), and
//! * Landau–Khalatnikov polarization dynamics for the Fig. 7 application.
//!
//! Each DC domain is one `Domain`: its engine, its slab of atoms, its
//! hopping state, and the density and dipole of its electrons. One
//! [`DcMeshSim::md_step`] is the multiscale cycle of Eq. (3) in three
//! phases:
//!
//! 1. Maxwell, global: the field advances through the MD window, driven by
//!    each domain's polarization current (the change of its dipole).
//! 2. One pool claim over the domains: each runs its N_QD electronic steps
//!    (with the occupation-only handshake), writes its density once, takes
//!    its dipole from it and, with Ehrenfest feedback, the pseudo-forces on
//!    its slab's atoms.
//! 3. Serial, in domain order: the seam diagnostic over the densities, the
//!    surface hops (one RNG stream and one kinetic-energy reservoir), the
//!    force scatter, the atomic update and the polarization response.

use dcmesh_grid::{Mesh3, WfAos};
use dcmesh_lfd::{BuildKind, LaserPulse, LfdConfig, LfdEngine, Maxwell1d};
use dcmesh_qxmd::forcefield::SimBox;
use dcmesh_qxmd::md::{MdConfig, MdIntegrator};
use dcmesh_qxmd::pbtio3::{PbTiO3Cell, Supercell};
use dcmesh_qxmd::polarization::{LkDynamics, PolarizationField};
use dcmesh_qxmd::{FsshConfig, FsshState, PerovskiteFF};
use dcmesh_tddft::AtomSet;
use rand::rngs::SplitMix64;
use rand::SeedableRng;

/// Classical perovskite field plus per-atom external (Ehrenfest) forces
/// that are held constant across one MD step — the multiscale contract:
/// the electrons update the force field once per Delta_MD.
pub struct EhrenfestFF {
    /// The classical backbone.
    pub classical: PerovskiteFF,
    pub(crate) external: Vec<[f64; 3]>,
}

impl std::fmt::Debug for EhrenfestFF {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EhrenfestFF").finish_non_exhaustive()
    }
}

impl EhrenfestFF {
    /// Wrap a classical field with zeroed external forces for `natoms`.
    pub fn new(classical: PerovskiteFF, natoms: usize) -> Self {
        Self {
            classical,
            external: vec![[0.0; 3]; natoms],
        }
    }

    /// Current external forces, one per atom.
    pub fn external(&self) -> &[[f64; 3]] {
        &self.external
    }
}

impl dcmesh_qxmd::md::ForceProvider for EhrenfestFF {
    fn compute(&self, atoms: &mut AtomSet) -> f64 {
        let e = self.classical.compute(atoms);
        for (a, f) in atoms.atoms.iter_mut().zip(&self.external) {
            for (fa, &fe) in a.force.iter_mut().zip(f) {
                *fa += fe;
            }
        }
        e
    }
}

/// DC-MESH simulation configuration.
#[derive(Clone, Debug)]
pub struct DcMeshConfig {
    /// Supercell dimensions in unit cells.
    pub supercell_dims: [usize; 3],
    /// Number of DC domains along x (each owns one LFD engine).
    pub domains_x: usize,
    /// Mesh points per domain (cubic).
    pub domain_mesh_points: usize,
    /// LFD orbitals per domain.
    pub norb: usize,
    /// LUMO index per domain.
    pub lumo: usize,
    /// QD time step (a.u.).
    pub dt_qd: f64,
    /// QD steps per MD step (N_QD).
    pub n_qd: usize,
    /// MD time step (a.u.).
    pub dt_md: f64,
    /// LFD build variant.
    pub build: BuildKind,
    /// Laser pulse (shared by all domains; E along x).
    pub laser: Option<LaserPulse>,
    /// Imprint a flux-closure vortex of this Ti amplitude (Bohr) at start.
    pub flux_closure_amplitude: Option<f64>,
    /// Feed the time-dependent LFD electron density back into the forces
    /// on the ions (Ehrenfest electron-atom coupling, paper Eq. (3)).
    pub ehrenfest_feedback: bool,
    /// RNG seed of domain 0's set-up start block and of the hop stream, and
    /// nothing else: every later domain starts from its neighbour's states.
    pub seed: u64,
}

impl Default for DcMeshConfig {
    fn default() -> Self {
        Self {
            supercell_dims: [4, 2, 2],
            domains_x: 2,
            domain_mesh_points: 8,
            norb: 4,
            lumo: 2,
            dt_qd: 0.02,
            n_qd: 20,
            dt_md: dcmesh_math::phys::femtoseconds_to_au(0.5),
            build: BuildKind::GpuCublasPinned,
            laser: None,
            flux_closure_amplitude: None,
            ehrenfest_feedback: false,
            seed: 2024,
        }
    }
}

/// Per-step observables.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Simulation time after the step (fs).
    pub time_fs: f64,
    /// Total excited population across domains.
    pub excited_population: f64,
    /// Toroidal moment of the polarization field.
    pub toroidal_moment: f64,
    /// Mean (Px, Pz) polarization.
    pub mean_polarization: [f64; 2],
    /// Surface hops that occurred this step.
    pub hops: usize,
    /// LFD electron-propagation time (summed over domains; modeled for
    /// device builds).
    pub lfd_electron_s: f64,
    /// LFD nonlocal-correction time.
    pub lfd_nonlocal_s: f64,
    /// LFD H2D/D2H transfer time (coefficient uploads, PCIe round-trips).
    pub lfd_transfer_s: f64,
    /// Instantaneous MD temperature (K).
    pub temperature_k: f64,
    /// Vector potential sampled at each domain center.
    pub a_at_domains: Vec<f64>,
    /// Mean absolute electron-density mismatch per boundary point across
    /// the DC domain seams (0 for a single domain) — the divide-and-conquer
    /// consistency diagnostic carried by the halo exchange.
    pub boundary_mismatch: f64,
}

/// One DC domain's share of the x-decomposition: derived once, in
/// [`DcMeshSim::new`], and read everywhere else.
#[derive(Clone)]
struct Slab {
    /// Low x edge and length (Bohr).
    x0: f64,
    len: f64,
    /// Centre, where the domain's vector potential is sampled.
    center: f64,
    /// Maxwell cell holding the centre: where the domain radiates.
    cell: usize,
    /// Scratch, refilled by [`Slab::local_potential`] and the Ehrenfest
    /// phase: the slab's atoms at their wrapped x, and their indices in the
    /// full atom set.
    atoms: AtomSet,
    indices: Vec<usize>,
}

impl Slab {
    /// Collect the atoms of `all` whose periodic-wrapped x coordinate falls
    /// in `[x0, x0 + len)`. The copies sit at the wrapped x: a domain mesh
    /// is not periodic, so an atom that drifted out of `[0, Lx)` must be
    /// seen where its image inside the box is.
    fn refill(&mut self, all: &AtomSet, sim_box: &SimBox) {
        self.atoms.atoms.clear();
        self.indices.clear();
        for (i, a) in all.atoms.iter().enumerate() {
            let x = sim_box.wrap(a.pos)[0];
            if x >= self.x0 && x < self.x0 + self.len {
                let mut copy = a.clone();
                copy.pos[0] = x;
                self.atoms.atoms.push(copy);
                self.indices.push(i);
            }
        }
    }

    /// Refill from `all` and sum the slab's bare local pseudopotential on
    /// the domain's `mesh`: the potential a domain is solved and propagated
    /// in.
    fn local_potential(&mut self, all: &AtomSet, sim_box: &SimBox, mesh: &Mesh3) -> Vec<f64> {
        self.refill(all, sim_box);
        dcmesh_tddft::hamiltonian::local_pseudopotential(mesh, &self.atoms)
    }
}

/// What the set-up eigensolve of one domain reported: cold for domain 0,
/// warm from domain `d - 1`'s converged block for every `d > 0`. Not evolving
/// state: a restored simulation solves again, and no checkpoint holds it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SetupSolve {
    /// Outer iterations taken (the cap is 200).
    pub iterations: usize,
    /// Applications of `H` to one orbital.
    pub h_applications: usize,
    /// Largest residual norm at exit (Ha); NaN when any is.
    pub max_residual: f64,
}

impl SetupSolve {
    /// Did every seed state reach the solver's tolerance? `false` when the
    /// solve hit its cap, lost its `[X W P]` room or met a non-finite `v_loc`:
    /// the run then starts from non-stationary states, whose beating a job
    /// would report as `excited_population`.
    pub fn converged(&self) -> bool {
        self.max_residual <= dcmesh_tddft::eigensolver::TOLERANCE
    }
}

impl From<&dcmesh_tddft::eigensolver::EigenResult> for SetupSolve {
    fn from(eig: &dcmesh_tddft::eigensolver::EigenResult) -> Self {
        let worst = |a: f64, &r: &f64| if a.is_nan() || r <= a { a } else { r };
        Self {
            iterations: eig.iterations,
            h_applications: eig.h_applications,
            max_residual: eig.residuals.iter().fold(0.0, worst),
        }
    }
}

/// Adiabatic energies of the two-level hop model (Hartree): `|ground>` and
/// `|excited>` a model gap apart.
const HOP_LEVELS: [f64; 2] = [0.0, 0.1];

/// One DC domain: everything the multiscale step keeps per domain.
pub(crate) struct Domain {
    pub(crate) engine: LfdEngine<f64>,
    slab: Slab,
    pub(crate) fssh: FsshState,
    setup: SetupSolve,
    /// x-dipole of the electrons at the start of the last MD step, and
    /// `dipole` now: the domain radiates their difference.
    pub(crate) prev_dipole: f64,
    dipole: f64,
    /// Electron density of the engine's present state, one value per mesh
    /// point: written once per step, read by the dipole, the seam
    /// diagnostic and the Ehrenfest forces.
    density: Vec<f64>,
}

impl Domain {
    /// Take the density and the dipole of the engine's present state.
    pub(crate) fn observe(&mut self) {
        self.engine.density_into(&mut self.density);
        self.dipole =
            dcmesh_lfd::spectrum::density_dipole(&self.engine.config().mesh, &self.density, 0);
    }

    /// The low and high x-faces of the density: with z fastest, the first
    /// and the last `ny * nz` points.
    fn seam_faces(&self) -> (&[f64], &[f64]) {
        let n = self.engine.config().mesh.face_len(0);
        (&self.density[..n], &self.density[self.density.len() - n..])
    }
}

/// The coupled simulation.
pub struct DcMeshSim {
    pub(crate) cfg: DcMeshConfig,
    /// The atomic system.
    pub md: MdIntegrator<EhrenfestFF>,
    /// Supercell bookkeeping (dims, polarization extraction).
    pub supercell: Supercell,
    /// The DC domains, in x order.
    pub(crate) domains: Vec<Domain>,
    /// Volume of one slab (Bohr^3).
    slab_volume: f64,
    /// Maxwell steps per QD step (the field grid's Courant limit is below
    /// `dt_qd`).
    field_substeps: usize,
    pub(crate) maxwell: Maxwell1d,
    /// Nonadiabatic coupling matrix of the hop model; its off-diagonals
    /// are rewritten every step.
    hop_nac: [Vec<f64>; 2],
    /// Polarization dynamics (Fig. 7 application).
    pub lk: LkDynamics,
    pub(crate) rng: SplitMix64,
    pub(crate) time: f64,
    pub(crate) md_steps: u64,
}

impl std::fmt::Debug for DcMeshSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DcMeshSim")
            .field("time", &self.time)
            .field("md_steps", &self.md_steps)
            .finish_non_exhaustive()
    }
}

impl DcMeshSim {
    /// Build the coupled simulation.
    pub fn new(cfg: DcMeshConfig) -> Self {
        assert!(
            cfg.supercell_dims[0].is_multiple_of(cfg.domains_x),
            "domains must tile the supercell"
        );
        let mut supercell = Supercell::build(&PbTiO3Cell::cubic(), cfg.supercell_dims);
        if let Some(amp) = cfg.flux_closure_amplitude {
            supercell.imprint_flux_closure(amp, 1.0);
        }
        let sim_box = SimBox {
            lengths: supercell.box_lengths,
        };
        let ff = EhrenfestFF::new(PerovskiteFF::pbtio3(sim_box.clone()), supercell.atoms.len());
        let md = MdIntegrator::new(
            supercell.atoms.clone(),
            ff,
            MdConfig {
                dt: cfg.dt_md,
                thermostat: None,
            },
        );

        // Maxwell grid: a few cells per domain along x, stepped at the
        // largest divisor of the QD step its Courant limit allows.
        let mx_cells = (cfg.domains_x * 8).max(16);
        let mx_dx = supercell.box_lengths[0] / mx_cells as f64;
        let substeps = (cfg.dt_qd / Maxwell1d::max_dt(mx_dx)).ceil().max(1.0);
        let maxwell = Maxwell1d::new(mx_cells, mx_dx, cfg.dt_qd / substeps, 1);

        // Domains: cubic boxes spanning each x-slab of the supercell.
        let slab_len = supercell.box_lengths[0] / cfg.domains_x as f64;
        let slab_volume = slab_len * supercell.box_lengths[1] * supercell.box_lengths[2];
        let spacing = slab_len / cfg.domain_mesh_points as f64;
        let mut domains = Vec::with_capacity(cfg.domains_x);
        let mut warm: Option<WfAos<f64>> = None;
        for d in 0..cfg.domains_x {
            let center = (d as f64 + 0.5) * slab_len;
            let mut slab = Slab {
                x0: d as f64 * slab_len,
                len: slab_len,
                center,
                cell: ((center / mx_dx) as usize).min(mx_cells - 1),
                atoms: AtomSet::new(supercell.atoms.species.clone()),
                indices: Vec::new(),
            };
            let mut mesh = Mesh3::cubic(cfg.domain_mesh_points, spacing);
            mesh.origin = [slab.x0, 0.0, 0.0];
            let v_loc = slab.local_potential(&supercell.atoms, &sim_box, &mesh);
            let lfd_cfg = LfdConfig {
                mesh: mesh.clone(),
                norb: cfg.norb,
                lumo: cfg.lumo,
                dt: cfg.dt_qd,
                n_qd: cfg.n_qd,
                block_size: cfg.norb.max(1),
                build: cfg.build,
                delta_sci: 0.05,
                laser: cfg.laser.clone(),
                seed: cfg.seed.wrapping_add(d as u64),
            };
            // Seed with eigenstates of the bare local potential, converged
            // to a residual of 1e-4 Ha (`eigensolver::TOLERANCE`; the 200
            // only caps the iterations), so the dark dynamics is stationary
            // (the reference basis of the shadow nonlocal correction must be
            // adiabatic states): `excited_population` stays below 1e-12.
            // One cold solve: domain 0 starts from a seeded random block; each
            // later one refines its neighbour's converged block in place
            // (translated slabs share a potential to rounding), then copies it.
            let h = dcmesh_tddft::Hamiltonian::with_potential(mesh.clone(), v_loc);
            let eig = match warm.as_mut() {
                None => dcmesh_tddft::eigensolver::lowest_states(&h, cfg.norb, 200, cfg.seed),
                Some(x) => dcmesh_tddft::eigensolver::refine_states(&h, x, 200),
            };
            let setup = SetupSolve::from(&eig);
            let mut init = WfAos::zeros(mesh.clone(), cfg.norb);
            init.data_mut()
                .copy_from_slice(warm.get_or_insert(eig.orbitals).data());
            let mut domain = Domain {
                engine: LfdEngine::with_initial_state(lfd_cfg, h.v_loc, init),
                slab,
                fssh: FsshState::new(2, 0, FsshConfig::default()),
                setup,
                prev_dipole: 0.0,
                dipole: 0.0,
                density: vec![0.0; mesh.len()],
            };
            domain.observe();
            domain.prev_dipole = domain.dipole;
            domains.push(domain);
        }

        let pol = PolarizationField::from_supercell(&supercell, 0);
        let lk = LkDynamics::new(pol, 0.5, 0.05);
        // Counter-based generator: its whole state is one u64, so a
        // checkpoint can capture and resume the hop stream bit-exactly.
        let rng = SplitMix64::seed_from_u64(cfg.seed);
        Self {
            cfg,
            md,
            supercell,
            domains,
            slab_volume,
            field_substeps: substeps as usize,
            maxwell,
            hop_nac: [vec![0.0; 2], vec![0.0; 2]],
            lk,
            rng,
            time: 0.0,
            md_steps: 0,
        }
    }

    /// Number of DC domains.
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// Completed MD steps.
    pub fn md_steps(&self) -> u64 {
        self.md_steps
    }

    /// Access a domain engine.
    pub fn engine(&self, d: usize) -> &LfdEngine<f64> {
        &self.domains[d].engine
    }

    /// What each domain's set-up eigensolve reported, in domain order.
    pub fn setup_solves(&self) -> impl ExactSizeIterator<Item = SetupSolve> + '_ {
        self.domains.iter().map(|d| d.setup)
    }

    /// The bare local Hamiltonian of domain `d` at the present atom
    /// positions: at construction, the one whose lowest states seed it.
    pub fn domain_hamiltonian(&self, d: usize) -> dcmesh_tddft::Hamiltonian {
        let mesh = self.engine(d).config().mesh.clone();
        let sim_box = &self.md.forces.classical.sim_box;
        let mut slab = self.domains[d].slab.clone();
        let v_loc = slab.local_potential(&self.md.atoms, sim_box, &mesh);
        dcmesh_tddft::Hamiltonian::with_potential(mesh, v_loc)
    }

    /// Run one full multiscale MD step, in the three phases of the module
    /// doc. Each multiscale phase runs under a `sim.*` span, so an enabled
    /// trace collector sees the full Eq. (3) cycle under `sim.md_step`.
    pub fn md_step(&mut self) -> StepReport {
        let step_span = dcmesh_obs::span!("sim.md_step");
        let step_id = step_span.id();
        let cfg = &self.cfg;
        // --- 1. Maxwell: advance the field through this MD window. ---
        let maxwell_span = dcmesh_obs::span!("sim.maxwell_fdtd", parent = step_id);
        let pulse = cfg.laser.clone().unwrap_or(LaserPulse {
            e0: 0.0,
            omega: 1.0,
            duration: 1.0,
        });
        // Polarization-current feedback: each domain radiates the change of
        // its dipole moment over the previous MD window (matter -> field
        // coupling of the Maxwell-TDDFT loop). The field's clock runs with
        // the electrons': `n_qd` QD steps of `substeps` field steps each.
        for _ in 0..cfg.n_qd * self.field_substeps {
            for dom in &self.domains {
                let j = (dom.dipole - dom.prev_dipole) / cfg.dt_md.max(1e-12) / self.slab_volume;
                self.maxwell.deposit_current(dom.slab.cell, j);
            }
            self.maxwell.step(&pulse);
        }
        let a_at_domains: Vec<f64> = (self.domains.iter())
            .map(|dom| self.maxwell.sample(dom.slab.center))
            .collect();
        drop(maxwell_span);

        // --- 2. One `map_mut` over the domains: N_QD electronic steps, the
        // density and the dipole, and with feedback the forces of that
        // density on the slab's atoms (the hops of phase 3 move no atom, so
        // these are the atoms this step integrates). ---
        let domains_span = dcmesh_obs::span!("sim.domain_step", parent = step_id);
        let (atoms, sim_box) = (&self.md.atoms, &self.md.forces.classical.sim_box);
        let feedback = cfg.ehrenfest_feedback;
        let timings = dcmesh_pool::global().map_mut(&mut self.domains, |_, dom| {
            let timings = dom.engine.run_md_step();
            dom.prev_dipole = dom.dipole;
            dom.observe();
            if feedback {
                let slab = &mut dom.slab;
                slab.refill(atoms, sim_box);
                slab.atoms.clear_forces();
                let mesh = &dom.engine.config().mesh;
                dcmesh_tddft::forces::local_pseudo_forces(mesh, &mut slab.atoms, &dom.density);
            }
            timings
        });
        drop(domains_span);

        // --- 3. Serial, in domain order. ---
        let lfd_electron_s: f64 = timings.iter().map(|t| t.electron).sum();
        let lfd_nonlocal_s: f64 = timings.iter().map(|t| t.nonlocal).sum();
        let lfd_transfer_s: f64 = timings.iter().map(|t| t.transfer).sum();
        let excited: f64 = (self.domains.iter())
            .map(|dom| dom.engine.excited_population())
            .sum();

        // Domain-boundary exchange: neighbouring domains compare density
        // faces across their seams (diagnostic only — it must not perturb
        // the physics).
        let boundary_span = dcmesh_obs::span!("sim.boundary_exchange", parent = step_id);
        let boundary_mismatch = self.boundary_density_mismatch();
        drop(boundary_span);

        // Surface hopping: one FSSH step per domain.
        let fssh_span = dcmesh_obs::span!("sim.fssh_hop", parent = step_id);
        // Two-level model ([`HOP_LEVELS`]); NAC scales with atomic velocity.
        let v_rms = {
            let n = self.md.atoms.len().max(1);
            (self
                .md
                .atoms
                .atoms
                .iter()
                .map(|a| a.vel[0].powi(2) + a.vel[1].powi(2) + a.vel[2].powi(2))
                .sum::<f64>()
                / n as f64)
                .sqrt()
        };
        let mut hops = 0;
        let mut kinetic = self.md.kinetic_energy().max(1e-6);
        let nac = 5.0 * v_rms; // velocity-proportional coupling
        self.hop_nac[0][1] = nac;
        self.hop_nac[1][0] = -nac;
        for dom in &mut self.domains {
            if let dcmesh_qxmd::fssh::HopEvent::Hopped(_) = dom.fssh.step(
                &HOP_LEVELS,
                &self.hop_nac,
                cfg.dt_md,
                &mut kinetic,
                &mut self.rng,
            ) {
                hops += 1;
            }
        }
        drop(fssh_span);

        // Ehrenfest feedback: the domains' forces, scattered in domain order
        // (every atom no slab holds gets zero).
        let ehrenfest_span = dcmesh_obs::span!("sim.ehrenfest_feedback", parent = step_id);
        if feedback {
            let external = &mut self.md.forces.external;
            external.fill([0.0; 3]);
            for slab in self.domains.iter().map(|dom| &dom.slab) {
                for (&atom, a) in slab.indices.iter().zip(&slab.atoms.atoms) {
                    external[atom] = a.force;
                }
            }
        }
        drop(ehrenfest_span);

        // MD: advance the atoms.
        let md_span = dcmesh_obs::span!("sim.md_integration", parent = step_id);
        self.md.step();
        // Keep the supercell's atom view in sync for polarization analysis:
        // a fresh clone, as `clone_from` raised `traj_lfd`'s peak RSS by 18 %
        // through glibc's heap layout (EXPERIMENTS.md, "One `Domain` per DC").
        self.supercell.atoms = self.md.atoms.clone();
        drop(md_span);

        // Polarization response (LK), driven by the excitation.
        let lk_span = dcmesh_obs::span!("sim.lk_polarization", parent = step_id);
        let n_cells = self.supercell.num_cells() as f64;
        let n_exc = (excited / n_cells).min(1.0);
        let e_pulse = cfg
            .laser
            .as_ref()
            .map(|p| p.e_field(self.time + 0.5 * cfg.dt_md))
            .unwrap_or(0.0);
        // The depolarization-screened internal field acting on the soft
        // mode is a small fraction of the raw laser field; clamp the drive
        // to the coercive scale so the relaxational dynamics stays in its
        // validity regime.
        let e_c = 2.0 * self.lk.alpha * self.lk.p_spontaneous(0.0) / (3.0 * 3.0f64.sqrt());
        let drive = e_c * e_pulse.clamp(-1.0, 1.0);
        // Sub-cycle the explicit LK integrator at its stable step.
        let dt_lk = 0.01;
        let substeps = ((cfg.dt_md * 0.1) / dt_lk).ceil().max(1.0) as usize;
        self.lk.advance(dt_lk, substeps, [drive, 0.0], n_exc);
        drop(lk_span);

        self.time += cfg.dt_md;
        self.md_steps += 1;
        drop(step_span);
        StepReport {
            time_fs: dcmesh_math::phys::au_to_femtoseconds(self.time),
            excited_population: excited,
            toroidal_moment: self.lk.field.toroidal_moment(),
            mean_polarization: self.lk.field.mean(),
            hops,
            lfd_electron_s,
            lfd_nonlocal_s,
            lfd_transfer_s,
            temperature_k: self.md.temperature(),
            a_at_domains,
            boundary_mismatch,
        }
    }

    /// Electron-density continuity across the DC domain seams.
    ///
    /// Each domain compares the low/high x-faces of its density (the seam
    /// planes of the x-decomposition) with the facing planes of its two
    /// ring neighbours: a plain loop over the domains, with the per-domain
    /// sums and the domain-ordered reduction of the posted-receive exchange
    /// it replaced (which stays as the test oracle). Returns the mean
    /// absolute mismatch per boundary point (0 for one domain) of the
    /// densities the last step wrote — what its
    /// [`StepReport::boundary_mismatch`] reported. Purely diagnostic.
    pub fn boundary_density_mismatch(&self) -> f64 {
        let nd = self.domains.len();
        if nd < 2 {
            return 0.0;
        }
        // Summed in domain order: the diagnostic is bit-exact run to run
        // (the determinism test compares reports exactly).
        let total: f64 = (0..nd)
            .map(|d| {
                let (lo, hi) = self.domains[d].seam_faces();
                let prev_hi = self.domains[(d + nd - 1) % nd].seam_faces().1;
                let next_lo = self.domains[(d + 1) % nd].seam_faces().0;
                let diff: f64 = lo
                    .iter()
                    .zip(prev_hi)
                    .chain(hi.iter().zip(next_lo))
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                diff / (lo.len() + hi.len()) as f64
            })
            .sum();
        total / nd as f64
    }

    /// Total electron occupation across domains (conservation check).
    pub fn total_occupation(&self) -> f64 {
        (self.domains.iter())
            .map(|dom| dom.engine.total_occupation())
            .sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The default shape at a quarter of its QD steps: what every test
    /// of this crate builds.
    pub(crate) fn quick_cfg() -> DcMeshConfig {
        DcMeshConfig {
            n_qd: 5,
            ..DcMeshConfig::default()
        }
    }

    #[test]
    fn a_poisoned_set_up_solve_is_not_converged() {
        let sim = DcMeshSim::new(quick_cfg());
        assert!(sim.setup_solves().all(|s| s.converged()));
        // Domain 0's cold solve iterates; the warm domains may not need to.
        assert!(sim.setup_solves().next().is_some_and(|s| s.iterations > 0));
        // One NaN in `v_loc` and every residual is non-finite: the summary
        // keeps the NaN, which no `f64::max` fold would.
        let mut h = sim.domain_hamiltonian(0);
        h.v_loc[17] = f64::NAN;
        let eig = dcmesh_tddft::eigensolver::lowest_states(&h, 4, 200, 1);
        let solve = SetupSolve::from(&eig);
        assert!(solve.max_residual.is_nan() && !solve.converged());
    }

    #[test]
    fn laser_produces_field_and_excitation() {
        let mut cfg = quick_cfg();
        cfg.n_qd = 50;
        // A short, strong pulse fully contained in the simulated window
        // (4 MD steps x 50 QD steps x 0.02 au = 4 au).
        cfg.laser = Some(LaserPulse {
            e0: 1.5,
            omega: 0.8,
            duration: 4.0,
        });
        let mut lit = DcMeshSim::new(cfg.clone());
        let mut dark_cfg = cfg;
        dark_cfg.laser = None;
        let mut dark = DcMeshSim::new(dark_cfg);
        let mut lit_exc = 0.0;
        let mut dark_exc = 0.0;
        let mut a_seen = false;
        for _ in 0..4 {
            let r = lit.md_step();
            lit_exc = r.excited_population;
            if r.a_at_domains.iter().any(|a| a.abs() > 1e-12) {
                a_seen = true;
            }
            dark_exc = dark.md_step().excited_population;
        }
        assert!(a_seen, "vector potential never reached the domains");
        assert!(
            lit_exc > 1.2 * dark_exc,
            "laser did not excite: lit {lit_exc} vs dark {dark_exc}"
        );
    }

    #[test]
    fn flux_closure_initialization_shows_in_report() {
        let mut cfg = quick_cfg();
        cfg.supercell_dims = [6, 1, 6];
        cfg.domains_x = 2;
        cfg.flux_closure_amplitude = Some(0.3);
        let mut sim = DcMeshSim::new(cfg);
        let r = sim.md_step();
        assert!(
            r.toroidal_moment.abs() > 1e-6,
            "vortex lost: G = {}",
            r.toroidal_moment
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let r1 = DcMeshSim::new(quick_cfg()).md_step();
        let r2 = DcMeshSim::new(quick_cfg()).md_step();
        assert_eq!(r1.excited_population, r2.excited_population);
        assert_eq!(r1.mean_polarization, r2.mean_polarization);
        assert_eq!(r1.hops, r2.hops);
        // The seam diagnostic is bit-exact too (summed in domain order).
        assert_eq!(r1.boundary_mismatch, r2.boundary_mismatch);
    }

    /// The posted-receive exchange the seam diagnostic replaced, kept as its
    /// oracle: a rank per domain packs both x-faces of the domain's density
    /// point by point, sends them, posts both receives and settles them
    /// where the neighbour data is consumed.
    fn seam_mismatch_over_the_world(sim: &DcMeshSim) -> f64 {
        use dcmesh_comm::{NetworkModel, Rank, World};
        let face = |d: usize, i: usize| -> Vec<f64> {
            let (mesh, rho) = (&sim.engine(d).config().mesh, &sim.domains[d].density);
            let row = |j| (0..mesh.nz).map(move |k| rho[mesh.idx(i, j, k)]);
            (0..mesh.ny).flat_map(row).collect()
        };
        let nx = sim.engine(0).config().mesh.nx;
        let nd = sim.num_domains();
        // Distinct tags per direction: with two domains, prev == next, so
        // the two inbound faces must demultiplex by tag alone.
        const TAG_HI: u64 = 61; // my high face, headed to next's low seam
        const TAG_LO: u64 = 62; // my low face, headed to prev's high seam
        let out = World::run(nd, NetworkModel::slingshot11(), |rank: &mut Rank| {
            let d = rank.id();
            let n = rank.size();
            let next = (d + 1) % n;
            let prev = (d + n - 1) % n;
            let (lo, hi) = (face(d, 0), face(d, nx - 1));
            rank.isend(next, TAG_HI, &hi).wait();
            rank.isend(prev, TAG_LO, &lo).wait();
            let from_prev = rank.irecv(prev, TAG_HI);
            let from_next = rank.irecv(next, TAG_LO);
            let prev_hi = rank.wait(from_prev);
            let next_lo = rank.wait(from_next);
            let diff: f64 = lo
                .iter()
                .zip(&prev_hi)
                .chain(hi.iter().zip(&next_lo))
                .map(|(a, b)| (a - b).abs())
                .sum();
            diff / (lo.len() + hi.len()) as f64
        });
        out.iter().sum::<f64>() / nd as f64
    }

    #[test]
    fn seam_loop_is_the_world_exchange_bit_for_bit() {
        for domains_x in [2, 4] {
            let mut sim = DcMeshSim::new(DcMeshConfig {
                domains_x,
                ..quick_cfg()
            });
            for step in 0..2 {
                let reported = sim.md_step().boundary_mismatch;
                // The domains' densities are their engines' own.
                for d in 0..domains_x {
                    assert_eq!(sim.domains[d].density, sim.engine(d).density_f64());
                }
                let want = seam_mismatch_over_the_world(&sim);
                assert!(want > 0.0, "{domains_x} domains: seams agree exactly");
                for got in [reported, sim.boundary_density_mismatch()] {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{domains_x} domains, step {step}: {got:e} vs {want:e}"
                    );
                }
            }
        }
        // One domain has no seam.
        let mut single = DcMeshSim::new(DcMeshConfig {
            domains_x: 1,
            ..quick_cfg()
        });
        assert_eq!(single.md_step().boundary_mismatch, 0.0);
    }

    #[test]
    fn ehrenfest_feedback_changes_the_forces() {
        let mut cfg = quick_cfg();
        cfg.ehrenfest_feedback = true;
        let mut with_fb = DcMeshSim::new(cfg.clone());
        with_fb.md_step();
        with_fb.md_step(); // positions feel the new forces from step 2 on
        let ext = with_fb.md.forces.external();
        let any_nonzero = ext.iter().any(|f| f.iter().any(|x| x.abs() > 1e-12));
        assert!(any_nonzero, "Ehrenfest feedback produced no forces");
        // And the trajectory differs from the classical-only run.
        let mut cfg_off = quick_cfg();
        cfg_off.ehrenfest_feedback = false;
        let mut without = DcMeshSim::new(cfg_off);
        without.md_step();
        without.md_step();
        let dx: f64 = with_fb
            .md
            .atoms
            .atoms
            .iter()
            .zip(&without.md.atoms.atoms)
            .map(|(a, b)| (a.pos[0] - b.pos[0]).abs())
            .sum();
        assert!(dx > 0.0, "feedback did not affect the trajectory");
    }

    #[test]
    fn atom_outside_the_box_keeps_its_ehrenfest_force() {
        // Pb sits at x = 0 exactly: any negative displacement used to drop
        // it from every slab and zero its electronic force.
        let mut cfg = quick_cfg();
        cfg.ehrenfest_feedback = true;
        let external_at = |x: f64| {
            let mut sim = DcMeshSim::new(cfg.clone());
            let atoms = &mut sim.md.atoms.atoms;
            let pb = atoms
                .iter()
                .position(|a| a.species == 0 && a.pos == [0.0; 3])
                .expect("Pb at the origin");
            atoms[pb].pos[0] = x;
            sim.md_step();
            sim.md.forces.external()[pb]
        };
        let lx = DcMeshSim::new(cfg.clone()).supercell.box_lengths[0];
        let outside = external_at(-0.01);
        let image = external_at(lx - 0.01);
        assert!(
            outside.iter().any(|f| f.abs() > 1e-12),
            "no electronic force on the atom at x = -0.01: {outside:?}"
        );
        for ax in 0..3 {
            assert!(
                (outside[ax] - image[ax]).abs() <= 1e-12 * image[ax].abs().max(1.0),
                "axis {ax}: {} at x = -0.01, {} at its image",
                outside[ax],
                image[ax]
            );
        }
    }

    #[test]
    fn domain_hamiltonian_at_construction_is_the_potential_new_solved_in() {
        for domains_x in [2, 4] {
            let sim = DcMeshSim::new(DcMeshConfig {
                domains_x,
                ..quick_cfg()
            });
            for d in 0..domains_x {
                let (now, solved) = (
                    sim.domain_hamiltonian(d).v_loc,
                    &sim.engine(d).local_hamiltonian().v_loc,
                );
                assert!(solved.iter().any(|v| *v != 0.0));
                assert!(
                    now.iter()
                        .zip(solved)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{domains_x} domains, domain {d}"
                );
            }
        }
    }

    #[test]
    fn field_clock_keeps_the_electrons_time() {
        // This shape's field grid needs two steps per QD step.
        let cfg = quick_cfg();
        let mut sim = DcMeshSim::new(cfg.clone());
        assert_eq!(sim.field_substeps, 2);
        for k in 1..=3 {
            sim.md_step();
            let want = k as f64 * cfg.n_qd as f64 * cfg.dt_qd;
            assert!(
                (sim.maxwell.time - want).abs() < 1e-12 * want,
                "step {k}: field at {}, electrons at {want}",
                sim.maxwell.time
            );
            assert!((sim.engine(0).time - want).abs() < 1e-12 * want);
        }
    }
}
