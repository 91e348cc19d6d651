//! # dcmesh-grid
//!
//! Real-space meshes, wavefunction storage layouts, and the
//! divide-and-conquer (DC) domain decomposition of DC-MESH.
//!
//! The paper's central data structure is a set of `Norb` complex Kohn–Sham
//! wavefunctions discretized on an `Nx x Ny x Nz` finite-difference mesh per
//! DC domain. Two memory layouts are implemented because converting between
//! them *is* one of the paper's optimizations (§III-A):
//!
//! * [`wavefunction::WfAos`] — array-of-structures `psi[n][i][j][k]`
//!   (orbital-major; the baseline of Algorithm 1),
//! * [`wavefunction::WfSoa`] — structure-of-arrays `psi[i][j][k][n]`
//!   (grid-major with the orbital index fastest; Algorithms 2–5).
//!
//! [`domain`] implements the DC decomposition of Fig. 1(a): the global cell
//! is split into spatially localized domains, each extended by a buffer
//! region, with gather/scatter of densities between local and global grids.

pub mod domain;
pub mod mesh;
pub mod wavefunction;

pub use domain::{DcDecomposition, Domain};
pub use mesh::Mesh3;
pub use wavefunction::{WfAos, WfSoa};
