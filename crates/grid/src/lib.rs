//! # dcmesh-grid
//!
//! Real-space meshes and the wavefunction storage layouts of DC-MESH.
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

pub mod mesh;
pub mod wavefunction;

pub use mesh::Mesh3;
pub use wavefunction::{WfAos, WfSoa};
