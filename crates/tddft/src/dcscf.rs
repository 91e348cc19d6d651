//! Divide-and-conquer global–local SCF — the "DC" of DC-MESH (paper §II).
//!
//! The global cell is decomposed into DC domains (Fig. 1a). Each SCF cycle
//! alternates:
//!
//! * **global**: assemble the electron density from the domain *cores*
//!   (the recombine step), solve the Hartree problem once on the global
//!   mesh with the O(N) multigrid, add local XC — producing the global
//!   effective potential;
//! * **local**: scatter that potential into each domain's core + buffer
//!   mesh (the LDC density-adaptive boundary condition: the buffer sees
//!   the *globally informed* potential, not vacuum) and refine the
//!   domain's Kohn–Sham orbitals with the dense local eigensolver.
//!
//! Occupations use a single **global Fermi level** across all domains, so
//! electrons can flow between domains during SCF — the "globally sparse,
//! locally dense" coupling the paper credits for its scalability.

use dcmesh_grid::{DcDecomposition, Domain, Mesh3, WfAos};

use crate::atoms::{Atom, AtomSet};
use crate::eigensolver::{self};
use crate::hamiltonian::{build_projectors, Hamiltonian};
use crate::hartree::{ionic_density, HartreeSolver};
use crate::scf::fermi_occupations;
use crate::xc;

/// DC-SCF configuration.
#[derive(Clone, Debug)]
pub struct DcScfConfig {
    /// Domain counts per axis.
    pub parts: [usize; 3],
    /// Buffer width in mesh points (the LDC embedding shell).
    pub buffer: usize,
    /// KS orbitals solved per domain (occupied + virtuals).
    pub norb_per_domain: usize,
    /// Outer global-local SCF cycles.
    pub scf_iters: usize,
    /// Eigensolver refinements per cycle per domain.
    pub eig_iters: usize,
    /// Cold-start eigensolver iterations.
    pub init_eig_iters: usize,
    /// Linear density mixing fraction.
    pub mixing: f64,
    /// Fermi smearing temperature (Hartree) for the global level.
    pub smearing: f64,
    /// Seed for initial orbital guesses.
    pub seed: u64,
}

impl Default for DcScfConfig {
    fn default() -> Self {
        Self {
            parts: [2, 1, 1],
            buffer: 2,
            norb_per_domain: 4,
            scf_iters: 6,
            eig_iters: 20,
            init_eig_iters: 100,
            mixing: 0.35,
            smearing: 0.05,
            seed: 99,
        }
    }
}

/// Per-domain electronic solution.
#[derive(Clone, Debug)]
pub struct DomainSolution {
    /// The domain geometry.
    pub domain: Domain,
    /// Atoms inside this domain's local mesh (used for its projectors).
    pub atoms: AtomSet,
    /// KS orbitals on the local (core + buffer) mesh.
    pub orbitals: WfAos<f64>,
    /// KS eigenvalues.
    pub values: Vec<f64>,
    /// Occupations from the global Fermi level.
    pub occupations: Vec<f64>,
}

/// Result of a DC-SCF run.
#[derive(Clone, Debug)]
pub struct DcScfResult {
    /// The decomposition used.
    pub decomposition: DcDecomposition,
    /// Per-domain solutions.
    pub domains: Vec<DomainSolution>,
    /// Electron density on the global mesh.
    pub global_density: Vec<f64>,
    /// Effective potential (electrostatic + XC) on the global mesh.
    pub global_potential: Vec<f64>,
    /// Global chemical potential (Fermi level).
    pub fermi_level: f64,
    /// Global density residual per cycle (dv-weighted L2).
    pub residual_history: Vec<f64>,
}

impl DcScfResult {
    /// Total electron count of the assembled global density.
    pub fn electron_count(&self) -> f64 {
        let dv = self.decomposition.global.dv();
        self.global_density.iter().sum::<f64>() * dv
    }

    /// HOMO/LUMO across ALL domains (global frontier states).
    pub fn global_homo_lumo(&self) -> (f64, f64) {
        let mut homo = f64::NEG_INFINITY;
        let mut lumo = f64::INFINITY;
        for d in &self.domains {
            for (e, f) in d.values.iter().zip(&d.occupations) {
                // Majority-occupied states count as filled (degenerate
                // frontier levels under smearing sit just below 1.0).
                if *f >= 0.5 {
                    homo = homo.max(*e);
                } else {
                    lumo = lumo.min(*e);
                }
            }
        }
        (homo, lumo)
    }
}

/// Atoms whose position falls inside `dom`'s local mesh box (periodic
/// images of the global cell included, so edge-domain buffers see their
/// wrapped neighbours).
fn atoms_in_domain(global: &Mesh3, dom: &Domain, atoms: &AtomSet) -> AtomSet {
    let mut out = AtomSet::new(atoms.species.clone());
    let lo = dom.mesh.origin;
    let len = dom.mesh.lengths();
    let cell = global.lengths();
    for a in &atoms.atoms {
        // Try the atom and its 26 periodic images.
        'images: for sx in -1i32..=1 {
            for sy in -1i32..=1 {
                for sz in -1i32..=1 {
                    let p = [
                        a.pos[0] + sx as f64 * cell[0],
                        a.pos[1] + sy as f64 * cell[1],
                        a.pos[2] + sz as f64 * cell[2],
                    ];
                    if (0..3).all(|ax| p[ax] >= lo[ax] && p[ax] < lo[ax] + len[ax]) {
                        let mut img = Atom::at(a.species, p);
                        img.vel = a.vel;
                        out.atoms.push(img);
                        break 'images;
                    }
                }
            }
        }
    }
    out
}

/// Run the divide-and-conquer global-local SCF.
pub fn run_dc_scf(global: &Mesh3, atoms: &AtomSet, cfg: &DcScfConfig) -> DcScfResult {
    let decomposition = DcDecomposition::new(global.clone(), cfg.parts, cfg.buffer);
    let hartree = HartreeSolver::new(global.clone());
    let rho_ion = ionic_density(global, atoms);
    let nelec_total = atoms.electron_count();
    assert!(
        cfg.norb_per_domain as f64 * 2.0 * decomposition.len() as f64 >= nelec_total,
        "not enough orbitals across domains for {nelec_total} electrons"
    );

    // Per-domain setup: local atoms, projectors, initial orbitals.
    struct Local {
        atoms: AtomSet,
        orbitals: WfAos<f64>,
        values: Vec<f64>,
    }
    let mut locals: Vec<Local> = decomposition
        .domains
        .iter()
        .map(|dom| {
            let datoms = atoms_in_domain(global, dom, atoms);
            let mut orbitals = WfAos::<f64>::zeros(dom.mesh.clone(), cfg.norb_per_domain);
            orbitals.randomize(cfg.seed.wrapping_add(dom.id as u64));
            Local {
                atoms: datoms,
                orbitals,
                values: vec![0.0; cfg.norb_per_domain],
            }
        })
        .collect();

    // Initial global potential: bare ionic electrostatics.
    let neg_ion: Vec<f64> = rho_ion.iter().map(|r| -r).collect();
    let mut v_global = hartree.solve(&neg_ion);

    // Initial local solves in the scattered bare potential.
    for (dom, local) in decomposition.domains.iter().zip(locals.iter_mut()) {
        let v_local = decomposition.scatter_field(dom, &v_global);
        let mut h = Hamiltonian::with_potential(dom.mesh.clone(), v_local);
        h.projectors = build_projectors(&dom.mesh, &local.atoms);
        let eig = eigensolver::refine_states(&h, &mut local.orbitals, cfg.init_eig_iters);
        local.values = eig.values;
    }

    let dv = global.dv();
    let mut rho_global = vec![0.0; global.len()];
    let mut residual_history = Vec::with_capacity(cfg.scf_iters);
    let mut occupations_per_domain: Vec<Vec<f64>> =
        vec![vec![0.0; cfg.norb_per_domain]; decomposition.len()];

    for cycle in 0..cfg.scf_iters {
        // --- Global Fermi level over the union of domain spectra. ---
        let all_values: Vec<f64> = locals
            .iter()
            .flat_map(|l| l.values.iter().copied())
            .collect();
        let all_occ = fermi_occupations(&all_values, nelec_total, cfg.smearing);
        for (d, occs) in occupations_per_domain.iter_mut().enumerate() {
            let base = d * cfg.norb_per_domain;
            occs.copy_from_slice(&all_occ[base..base + cfg.norb_per_domain]);
        }

        // --- Recombine: assemble the global density from domain cores. ---
        let mut rho_new = vec![0.0; global.len()];
        for ((dom, local), occs) in decomposition
            .domains
            .iter()
            .zip(&locals)
            .zip(&occupations_per_domain)
        {
            let local_rho = local.orbitals.density(occs);
            decomposition.gather_core(dom, &local_rho, &mut rho_new);
        }
        // LDC renormalization: orbital tails extending into buffers are
        // dropped by the core gather; rescale to the exact electron count.
        let raw: f64 = rho_new.iter().sum::<f64>() * dv;
        if raw > 1e-12 {
            let s = nelec_total / raw;
            for r in rho_new.iter_mut() {
                *r *= s;
            }
        }

        let res = rho_global
            .iter()
            .zip(&rho_new)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
            * dv.sqrt();
        dcmesh_obs::metrics::gauge_set("tddft.dcscf_residual", res);
        residual_history.push(res);
        if cycle == 0 {
            rho_global = rho_new;
        } else {
            for (r, n) in rho_global.iter_mut().zip(&rho_new) {
                *r = (1.0 - cfg.mixing) * *r + cfg.mixing * n;
            }
        }

        // --- Global potential: multigrid electrostatics + local XC. ---
        let rho_tot: Vec<f64> = rho_global
            .iter()
            .zip(&rho_ion)
            .map(|(e, i)| e - i)
            .collect();
        let v_es = hartree.solve(&rho_tot);
        let mut v_x = vec![0.0; global.len()];
        xc::xc_potential(&rho_global, &mut v_x);
        for (idx, v) in v_global.iter_mut().enumerate() {
            *v = v_es[idx] + v_x[idx];
        }

        // --- Local solves in the scattered (embedded) potential. ---
        for (dom, local) in decomposition.domains.iter().zip(locals.iter_mut()) {
            let v_local = decomposition.scatter_field(dom, &v_global);
            let mut h = Hamiltonian::with_potential(dom.mesh.clone(), v_local);
            h.projectors = build_projectors(&dom.mesh, &local.atoms);
            let eig = eigensolver::refine_states(&h, &mut local.orbitals, cfg.eig_iters);
            local.values = eig.values;
        }
    }

    // Final occupations consistent with the *final* spectra (the loop's
    // occupations were computed before the last local solve).
    let fermi_level = {
        let all_values: Vec<f64> = locals
            .iter()
            .flat_map(|l| l.values.iter().copied())
            .collect();
        let all_occ = fermi_occupations(&all_values, nelec_total, cfg.smearing);
        for (d, occs) in occupations_per_domain.iter_mut().enumerate() {
            let base = d * cfg.norb_per_domain;
            occs.copy_from_slice(&all_occ[base..base + cfg.norb_per_domain]);
        }
        estimate_fermi(&all_values, &all_occ)
    };

    let domains = decomposition
        .domains
        .iter()
        .zip(locals)
        .zip(occupations_per_domain)
        .map(|((dom, local), occupations)| DomainSolution {
            domain: dom.clone(),
            atoms: local.atoms,
            orbitals: local.orbitals,
            values: local.values,
            occupations,
        })
        .collect();

    DcScfResult {
        decomposition,
        domains,
        global_density: rho_global,
        global_potential: v_global,
        fermi_level,
        residual_history,
    }
}

/// Rough Fermi-level estimate: midpoint between the highest level with
/// occupation > 1 and the lowest with occupation < 1.
fn estimate_fermi(values: &[f64], occ: &[f64]) -> f64 {
    let mut homo = f64::NEG_INFINITY;
    let mut lumo = f64::INFINITY;
    for (e, f) in values.iter().zip(occ) {
        if *f >= 0.5 {
            homo = homo.max(*e);
        } else {
            lumo = lumo.min(*e);
        }
    }
    if homo.is_finite() && lumo.is_finite() {
        0.5 * (homo + lumo)
    } else if homo.is_finite() {
        homo
    } else {
        lumo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::Species;

    fn two_atom_system() -> (Mesh3, AtomSet) {
        let global = Mesh3::new(16, 8, 8, 0.55, 0.55, 0.55);
        let mut atoms = AtomSet::new(vec![Species::hydrogen()]);
        // One H in each half of the cell, centered in y-z.
        atoms.push(0, [4.0 * 0.55, 4.0 * 0.55, 4.0 * 0.55]);
        atoms.push(0, [12.0 * 0.55, 4.0 * 0.55, 4.0 * 0.55]);
        (global, atoms)
    }

    #[test]
    fn dc_scf_converges_and_conserves_electrons() {
        let (global, atoms) = two_atom_system();
        let cfg = DcScfConfig {
            parts: [2, 1, 1],
            buffer: 2,
            norb_per_domain: 2,
            ..Default::default()
        };
        let res = run_dc_scf(&global, &atoms, &cfg);
        assert_eq!(res.domains.len(), 2);
        assert!((res.electron_count() - 2.0).abs() < 1e-9);
        let first = res.residual_history[1]; // [0] is the cold-start jump
        let last = *res.residual_history.last().unwrap();
        assert!(last < first, "residuals {:?}", res.residual_history);
    }

    #[test]
    fn symmetric_system_gives_symmetric_domains() {
        let (global, atoms) = two_atom_system();
        let cfg = DcScfConfig {
            parts: [2, 1, 1],
            buffer: 2,
            norb_per_domain: 2,
            ..Default::default()
        };
        let res = run_dc_scf(&global, &atoms, &cfg);
        // Equivalent atoms in equivalent domains: eigenvalues match.
        let v0 = &res.domains[0].values;
        let v1 = &res.domains[1].values;
        for (a, b) in v0.iter().zip(v1) {
            assert!((a - b).abs() < 5e-2, "domain spectra differ: {a} vs {b}");
        }
        // And occupations split the 2 electrons evenly.
        let n0: f64 = res.domains[0].occupations.iter().sum();
        let n1: f64 = res.domains[1].occupations.iter().sum();
        assert!((n0 - n1).abs() < 0.1, "occupations {n0} vs {n1}");
    }

    #[test]
    fn single_domain_dc_scf_matches_plain_scf_density() {
        // parts = [1,1,1], buffer 0: DC-SCF degenerates to the plain loop.
        let global = Mesh3::cubic(12, 0.55);
        let mut atoms = AtomSet::new(vec![Species::oxygen()]);
        atoms.push(0, global.center());
        let cfg = DcScfConfig {
            parts: [1, 1, 1],
            buffer: 0,
            norb_per_domain: 5,
            scf_iters: 8,
            ..Default::default()
        };
        let dc = run_dc_scf(&global, &atoms, &cfg);
        let plain = crate::scf::run_scf(
            &global,
            &atoms,
            &crate::scf::ScfConfig {
                norb: 5,
                scf_iters: 8,
                eig_iters: 20,
                init_eig_iters: 100,
                mixing: 0.35,
                smearing: 0.05,
                seed: 99,
            },
        );
        // Densities agree closely (same discretization, same solver family).
        let dv = global.dv();
        let diff: f64 = dc
            .global_density
            .iter()
            .zip(&plain.density)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
            * dv.sqrt();
        let norm: f64 = plain.density.iter().map(|x| x * x).sum::<f64>().sqrt() * dv.sqrt();
        assert!(diff / norm < 0.05, "relative density diff {}", diff / norm);
    }

    #[test]
    fn buffer_improves_the_embedding() {
        // LDC claim: a thicker buffer reduces the DC error against the
        // single-domain reference.
        let (global, atoms) = two_atom_system();
        let reference = {
            let cfg = DcScfConfig {
                parts: [1, 1, 1],
                buffer: 0,
                norb_per_domain: 4,
                scf_iters: 8,
                ..Default::default()
            };
            run_dc_scf(&global, &atoms, &cfg).global_density
        };
        let err_for = |buffer: usize| -> f64 {
            let cfg = DcScfConfig {
                parts: [2, 1, 1],
                buffer,
                norb_per_domain: 2,
                scf_iters: 8,
                ..Default::default()
            };
            let dc = run_dc_scf(&global, &atoms, &cfg);
            dc.global_density
                .iter()
                .zip(&reference)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        let e_none = err_for(0);
        let e_buffered = err_for(2);
        assert!(
            e_buffered < e_none,
            "buffer did not help: none {e_none} buffered {e_buffered}"
        );
    }

    #[test]
    fn fermi_level_sits_between_homo_and_lumo() {
        let (global, atoms) = two_atom_system();
        let cfg = DcScfConfig {
            parts: [2, 1, 1],
            buffer: 2,
            norb_per_domain: 3,
            ..Default::default()
        };
        let res = run_dc_scf(&global, &atoms, &cfg);
        let (homo, lumo) = res.global_homo_lumo();
        assert!(homo <= res.fermi_level + 1e-9);
        assert!(res.fermi_level <= lumo + 1e-9);
    }

    #[test]
    fn atoms_assigned_to_domains_via_periodic_images() {
        let (global, atoms) = two_atom_system();
        let d = DcDecomposition::new(global.clone(), [2, 1, 1], 2);
        // Each domain's local box must contain its own atom.
        for dom in &d.domains {
            let local = atoms_in_domain(&global, dom, &atoms);
            assert!(!local.is_empty(), "domain {} found no atoms", dom.id);
        }
    }
}
