//! The self-consistent-field (SCF) loop of the QXMD substrate.
//!
//! Global–local structure per the paper (§II): the electrostatic potential
//! is solved *globally* (multigrid, on the total electron-minus-ion charge,
//! so the cell is neutral), while exchange-correlation and the dense
//! eigenproblem are *local* to the domain. Density mixing stabilizes the
//! fixed point; the benchmark setting "3 SCF iterations, 3 CG per cycle"
//! maps to `scf_iters = 3, eig_iters = 3`.

use dcmesh_grid::{Mesh3, WfAos};

use crate::atoms::AtomSet;
use crate::eigensolver::{self, EigenResult};
use crate::hamiltonian::{build_projectors, Hamiltonian};
use crate::hartree::{ionic_density, HartreeSolver};
use crate::xc;

/// SCF configuration.
#[derive(Clone, Debug)]
pub struct ScfConfig {
    /// Total orbitals to solve (occupied + virtuals for HOMO/LUMO work).
    pub norb: usize,
    /// Outer SCF cycles.
    pub scf_iters: usize,
    /// Eigensolver refinement iterations per SCF cycle ("CG per SCF").
    pub eig_iters: usize,
    /// Extra eigensolver iterations on the first cycle (cold start).
    pub init_eig_iters: usize,
    /// Linear density mixing fraction (new density weight).
    pub mixing: f64,
    /// Electronic temperature for Fermi smearing of occupations (Hartree).
    /// Smearing stabilizes SCF when frontier orbitals are near-degenerate.
    pub smearing: f64,
    /// RNG seed for the initial orbital guess.
    pub seed: u64,
}

impl Default for ScfConfig {
    fn default() -> Self {
        Self {
            norb: 4,
            scf_iters: 8,
            eig_iters: 20,
            init_eig_iters: 120,
            mixing: 0.4,
            smearing: 0.05,
            seed: 12345,
        }
    }
}

impl ScfConfig {
    /// The paper's benchmark work per MD step: 3 SCF x 3 CG.
    pub fn paper_benchmark(norb: usize) -> Self {
        Self {
            norb,
            scf_iters: 3,
            eig_iters: 3,
            init_eig_iters: 60,
            mixing: 0.4,
            smearing: 0.05,
            seed: 12345,
        }
    }
}

/// Energy decomposition of a converged SCF state (Hartree).
#[derive(Clone, Debug, Default)]
pub struct EnergyBreakdown {
    /// Kinetic energy of occupied orbitals.
    pub kinetic: f64,
    /// Electrostatic energy of the total (electron - ion) charge.
    pub electrostatic: f64,
    /// Exchange-correlation energy.
    pub xc: f64,
    /// Sum of occupied KS eigenvalues (band energy), for reference.
    pub band: f64,
    /// Total: kinetic + electrostatic + xc.
    pub total: f64,
}

/// Converged (or best-effort) SCF state.
#[derive(Clone, Debug)]
pub struct ScfResult {
    /// KS orbitals (occupied + virtual), orthonormal.
    pub orbitals: WfAos<f64>,
    /// KS eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Occupation numbers (0..=2 each, spin-restricted).
    pub occupations: Vec<f64>,
    /// Electron density on the mesh.
    pub density: Vec<f64>,
    /// Effective local potential (electrostatic + XC) on the mesh.
    pub v_eff: Vec<f64>,
    /// Density residual per SCF cycle (L2, dv-weighted).
    pub residual_history: Vec<f64>,
    /// Energy decomposition.
    pub energies: EnergyBreakdown,
    /// Final eigensolver residual norms.
    pub eigen_residuals: Vec<f64>,
    /// Eigensolver iterations of the cold start, then of each SCF cycle.
    pub eigen_iterations: Vec<usize>,
}

/// Fermi–Dirac occupations at electronic temperature `kt` (Hartree):
/// `f_n = 2 / (1 + exp((eps_n - mu)/kt))` with `mu` found by bisection so
/// the occupations sum to `nelec`. `kt <= 0` falls back to Aufbau filling.
///
/// ```
/// use dcmesh_tddft::scf::fermi_occupations;
/// let occ = fermi_occupations(&[-1.0, -0.5, 0.5], 4.0, 0.01);
/// assert!((occ.iter().sum::<f64>() - 4.0).abs() < 1e-9);
/// assert!(occ[0] > 1.99 && occ[2] < 0.01);
/// ```
pub fn fermi_occupations(values: &[f64], nelec: f64, kt: f64) -> Vec<f64> {
    let norb = values.len();
    if kt <= 0.0 {
        return fill_occupations(nelec, norb);
    }
    assert!(
        nelec <= 2.0 * norb as f64 + 1e-9,
        "not enough orbitals ({norb}) for {nelec} electrons"
    );
    let count = |mu: f64| -> f64 {
        values
            .iter()
            .map(|&e| 2.0 / (1.0 + ((e - mu) / kt).exp()))
            .sum()
    };
    let (mut lo, mut hi) = (
        values.iter().cloned().fold(f64::INFINITY, f64::min) - 50.0 * kt,
        values.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + 50.0 * kt,
    );
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if count(mid) < nelec {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let mu = 0.5 * (lo + hi);
    values
        .iter()
        .map(|&e| 2.0 / (1.0 + ((e - mu) / kt).exp()))
        .collect()
}

/// Aufbau occupations: fill lowest orbitals with 2 electrons each; the
/// frontier orbital may be fractional.
pub fn fill_occupations(nelec: f64, norb: usize) -> Vec<f64> {
    assert!(nelec >= 0.0, "negative electron count");
    assert!(
        nelec <= 2.0 * norb as f64 + 1e-9,
        "not enough orbitals ({norb}) for {nelec} electrons"
    );
    let mut occ = vec![0.0; norb];
    let mut left = nelec;
    for o in occ.iter_mut() {
        let f = left.min(2.0);
        *o = f;
        left -= f;
        if left <= 0.0 {
            break;
        }
    }
    occ
}

/// Run the SCF loop for `atoms` on `mesh`.
pub fn run_scf(mesh: &Mesh3, atoms: &AtomSet, cfg: &ScfConfig) -> ScfResult {
    let nelec = atoms.electron_count();
    assert!(
        cfg.norb as f64 * 2.0 >= nelec,
        "norb = {} cannot hold {} electrons",
        cfg.norb,
        nelec
    );
    let hartree = HartreeSolver::new(mesh.clone());
    let rho_ion = ionic_density(mesh, atoms);
    let projectors = build_projectors(mesh, atoms);

    // Initial guess: solve in the bare ionic electrostatic potential.
    let v_bare: Vec<f64> = {
        let neg_ion: Vec<f64> = rho_ion.iter().map(|&r| -r).collect();
        hartree.solve(&neg_ion)
    };
    let mut orbitals = WfAos::<f64>::zeros(mesh.clone(), cfg.norb);
    orbitals.randomize(cfg.seed);
    let mut h = Hamiltonian::with_potential(mesh.clone(), v_bare);
    h.projectors = projectors.clone();
    let mut eig: EigenResult = eigensolver::refine_states(&h, &mut orbitals, cfg.init_eig_iters);
    let mut eigen_iterations = vec![eig.iterations];

    let mut occupations = fermi_occupations(&eig.values, nelec, cfg.smearing);
    // rho_in: the mixed input density driving the potential.
    let mut rho = orbitals.density(&occupations);
    let mut residual_history = Vec::with_capacity(cfg.scf_iters);
    let dv = mesh.dv();
    let mut v_eff = h.v_loc.clone();

    for _ in 0..cfg.scf_iters {
        // Global electrostatics on the neutral total charge of rho_in.
        let rho_tot: Vec<f64> = rho.iter().zip(&rho_ion).map(|(e, i)| e - i).collect();
        let v_es = hartree.solve(&rho_tot);
        // Local XC.
        let mut v_x = vec![0.0; mesh.len()];
        xc::xc_potential(&rho, &mut v_x);
        for (idx, v) in v_eff.iter_mut().enumerate() {
            *v = v_es[idx] + v_x[idx];
        }
        let mut h = Hamiltonian::with_potential(mesh.clone(), v_eff.clone());
        h.projectors = projectors.clone();
        eig = eigensolver::refine_states(&h, &mut orbitals, cfg.eig_iters);
        eigen_iterations.push(eig.iterations);
        occupations = fermi_occupations(&eig.values, nelec, cfg.smearing);
        let rho_out = orbitals.density(&occupations);
        let res = rho
            .iter()
            .zip(&rho_out)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
            * dv.sqrt();
        dcmesh_obs::metrics::gauge_set("tddft.scf_residual", res);
        dcmesh_obs::metrics::counter_add("tddft.scf_iterations", 1);
        residual_history.push(res);
        // A non-finite residual means the density or orbitals are poisoned
        // (overflow, or an injected NaN). Stop iterating instead of mixing
        // the contamination into rho_in; the caller's resilience layer
        // decides whether to roll back.
        if !res.is_finite() {
            dcmesh_obs::metrics::counter_add("tddft.scf_nonfinite", 1);
            break;
        }
        // Linear density mixing: rho_in <- (1-a) rho_in + a rho_out.
        for (ri, ro) in rho.iter_mut().zip(&rho_out) {
            *ri = (1.0 - cfg.mixing) * *ri + cfg.mixing * ro;
        }
    }

    // Energies at exit.
    let rho_tot: Vec<f64> = rho.iter().zip(&rho_ion).map(|(e, i)| e - i).collect();
    let v_es = hartree.solve(&rho_tot);
    let e_es = hartree.energy(&rho_tot, &v_es);
    let e_xc = xc::xc_energy(&rho, dv);
    let mut h_kin = Hamiltonian::with_potential(mesh.clone(), vec![0.0; mesh.len()]);
    h_kin.projectors.clear();
    let mut kinetic = 0.0;
    for (n, &occ) in occupations.iter().enumerate().take(cfg.norb) {
        if occ == 0.0 {
            continue;
        }
        kinetic += occ * h_kin.expectation(orbitals.orbital(n), false);
    }
    let band: f64 = eig
        .values
        .iter()
        .zip(&occupations)
        .map(|(e, f)| e * f)
        .sum();
    let energies = EnergyBreakdown {
        kinetic,
        electrostatic: e_es,
        xc: e_xc,
        band,
        total: kinetic + e_es + e_xc,
    };

    ScfResult {
        orbitals,
        values: eig.values,
        occupations,
        density: rho,
        v_eff,
        residual_history,
        energies,
        eigen_residuals: eig.residuals,
        eigen_iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::Species;

    fn oxygen_on_mesh() -> (Mesh3, AtomSet) {
        let mesh = Mesh3::cubic(12, 0.55);
        let mut atoms = AtomSet::new(vec![Species::oxygen()]);
        atoms.push(0, mesh.center());
        (mesh, atoms)
    }

    #[test]
    fn occupations_fill_aufbau() {
        assert_eq!(fill_occupations(6.0, 5), vec![2.0, 2.0, 2.0, 0.0, 0.0]);
        assert_eq!(fill_occupations(5.0, 3), vec![2.0, 2.0, 1.0]);
        assert_eq!(fill_occupations(0.0, 2), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not enough orbitals")]
    fn too_many_electrons_rejected() {
        fill_occupations(7.0, 3);
    }

    #[test]
    fn scf_converges_for_single_atom() {
        let (mesh, atoms) = oxygen_on_mesh();
        let cfg = ScfConfig {
            norb: 5,
            scf_iters: 10,
            eig_iters: 25,
            init_eig_iters: 120,
            mixing: 0.35,
            smearing: 0.05,
            seed: 1,
        };
        let res = run_scf(&mesh, &atoms, &cfg);
        let first = res.residual_history[0];
        let last = *res.residual_history.last().unwrap();
        assert!(
            last < first,
            "density residual did not shrink: {first} -> {last}"
        );
        assert!(last < 0.05, "final residual {last}");
    }

    #[test]
    fn non_finite_density_stops_the_scf_loop() {
        // A NaN atom position poisons the ionic density, so the first
        // residual is non-finite; the loop must bail out instead of mixing
        // NaN through the remaining iterations.
        let mesh = Mesh3::cubic(8, 0.6);
        let mut atoms = AtomSet::new(vec![Species::oxygen()]);
        atoms.push(0, [f64::NAN, 0.0, 0.0]);
        let cfg = ScfConfig {
            norb: 4,
            scf_iters: 6,
            eig_iters: 2,
            init_eig_iters: 2,
            ..ScfConfig::default()
        };
        let res = run_scf(&mesh, &atoms, &cfg);
        assert_eq!(
            res.residual_history.len(),
            1,
            "loop ran past the poisoned iteration"
        );
        assert!(!res.residual_history[0].is_finite());
    }

    #[test]
    fn warm_started_cycles_take_fewer_eigensolver_iterations() {
        let (mesh, atoms) = oxygen_on_mesh();
        let cfg = ScfConfig {
            scf_iters: 4,
            eig_iters: 200,
            init_eig_iters: 200,
            ..ScfConfig::default()
        };
        let its = run_scf(&mesh, &atoms, &cfg).eigen_iterations;
        assert_eq!(its.len(), 5);
        // The cold start from plane waves; the first cycle, whose potential
        // gained Hartree + XC; the second, which only mixes the density on.
        assert!(its[2] < its[1] && its[2] < its[0], "{its:?}");
        assert!(its.iter().all(|&i| i < 200), "a solve hit its cap: {its:?}");
    }

    #[test]
    fn electron_count_conserved_through_scf() {
        let (mesh, atoms) = oxygen_on_mesh();
        let cfg = ScfConfig {
            norb: 4,
            scf_iters: 4,
            ..ScfConfig::default()
        };
        let res = run_scf(&mesh, &atoms, &cfg);
        let count: f64 = res.density.iter().sum::<f64>() * mesh.dv();
        assert!((count - 6.0).abs() < 1e-8, "electron count {count}");
    }

    #[test]
    fn occupied_states_are_bound() {
        let (mesh, atoms) = oxygen_on_mesh();
        let cfg = ScfConfig {
            norb: 5,
            scf_iters: 6,
            ..ScfConfig::default()
        };
        let res = run_scf(&mesh, &atoms, &cfg);
        // The deepest occupied state sits well below the cell-edge
        // potential (the periodic, mean-free analog of the vacuum level).
        let v_edge = res.v_eff[mesh.idx(0, 0, 0)];
        assert!(
            res.values[0] < v_edge - 0.5,
            "lowest state {} vs edge potential {v_edge}",
            res.values[0]
        );
        // Eigenvalues ascend.
        for w in res.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-10);
        }
    }

    #[test]
    fn energies_have_physical_signs() {
        let (mesh, atoms) = oxygen_on_mesh();
        let cfg = ScfConfig {
            norb: 4,
            scf_iters: 5,
            ..ScfConfig::default()
        };
        let res = run_scf(&mesh, &atoms, &cfg);
        assert!(res.energies.kinetic > 0.0);
        assert!(res.energies.xc < 0.0);
        assert!(res.energies.total.is_finite());
    }

    #[test]
    fn paper_benchmark_config_matches_paper() {
        let cfg = ScfConfig::paper_benchmark(288);
        assert_eq!(cfg.scf_iters, 3);
        assert_eq!(cfg.eig_iters, 3);
        assert_eq!(cfg.norb, 288);
    }
}
