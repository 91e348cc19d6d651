//! # dcmesh-qxmd
//!
//! The QXMD (Quantum eXcitation Molecular Dynamics) subprogram: the
//! CPU-side half of DC-MESH (paper Fig. 1b). It owns the atoms — molecular
//! dynamics, force fields, nonadiabatic surface hopping — while LFD owns
//! the electrons.
//!
//! * [`md`] — velocity-Verlet integration, kinetic energy/temperature,
//!   Berendsen thermostat.
//! * [`forcefield`] — a classical polarizable-perovskite reference force
//!   field (Buckingham short range + Wolf-summed Coulomb + on-site
//!   anharmonic double well) standing in for the paper's neural-network
//!   force field trained with ground-state quantum MD (ref. [35]), which is
//!   not reproduced.
//! * [`fssh`] — Tully fewest-switches surface hopping: the
//!   `U_SH(Rdot, Delta_MD)` occupation-update of paper Eq. (3).
//! * [`pbtio3`] — PbTiO3 perovskite lattice/supercell builders with
//!   displacement-based polarization (Born effective charges) and the
//!   flux-closure vortex initialization of Fig. 7.
//! * [`polarization`] — polarization field analysis (toroidal moment,
//!   vorticity) and Landau–Khalatnikov switching dynamics driven by the
//!   laser-induced excitation LFD reports.

pub mod forcefield;
pub mod fssh;
pub mod md;
pub mod pbtio3;
pub mod polarization;

pub use forcefield::{ForceField, PerovskiteFF};
pub use fssh::{FsshConfig, FsshState};
pub use md::{MdConfig, MdIntegrator};
pub use pbtio3::{PbTiO3Cell, Supercell};
pub use polarization::{LkDynamics, PolarizationField};
