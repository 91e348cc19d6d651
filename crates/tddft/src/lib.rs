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
//! * [`hamiltonian`] — KS Hamiltonian application split into local and
//!   nonlocal parts exactly as paper Eq. (5) requires,
//! * [`eigensolver`] — preconditioned block conjugate gradient (LOBPCG)
//!   to a residual tolerance (the "locally fast" dense solve).
//!
//! The set-up diagonalises each slab's bare local potential: DC-SCF, Hartree
//! and exchange-correlation are not reproduced, and stand as the modeled
//! cost terms of `dcmesh-core`'s scaling figures.

pub mod atoms;
pub mod eigensolver;
pub mod forces;
pub mod hamiltonian;

pub use atoms::{Atom, AtomSet, Species};
pub use hamiltonian::Hamiltonian;
