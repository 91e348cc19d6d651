//! # dcmesh-tddft
//!
//! The density-functional-theory substrate of DC-MESH: everything QXMD needs
//! to produce ground-state Kohn–Sham (KS) wavefunctions, potentials and
//! eigenvalues per DC domain, which LFD then propagates in real time.
//!
//! Replaces the paper's Fortran plane-wave QXMD electronic-structure core
//! with a real-space finite-difference formulation on the same meshes LFD
//! uses (DESIGN.md substitution table):
//!
//! * [`atoms`] — species/atom containers with smooth local pseudopotentials
//!   and Kleinman–Bylander (KB) nonlocal projectors,
//! * [`xc`] — LDA exchange-correlation (Slater exchange + Perdew–Zunger
//!   correlation),
//! * [`hartree`] — the global Hartree potential via the O(N) multigrid
//!   solver (paper §II "globally scalable" solver),
//! * [`hamiltonian`] — KS Hamiltonian application split into local and
//!   nonlocal parts exactly as paper Eq. (5) requires,
//! * [`eigensolver`] — preconditioned block conjugate gradient (LOBPCG)
//!   to a residual tolerance (the "locally fast" dense solve),
//! * [`scf`] — the global-local self-consistent-field loop with linear
//!   density mixing (3 SCF x 3 CG iterations in the paper's benchmarks).

pub mod atoms;
pub mod dcscf;
pub mod eigensolver;
pub mod forces;
pub mod hamiltonian;
pub mod hartree;
pub mod scf;
pub mod xc;

pub use atoms::{Atom, AtomSet, Species};
pub use hamiltonian::Hamiltonian;
pub use scf::{ScfConfig, ScfResult};
