//! Checkpoint/restart for the coupled simulation.
//!
//! A snapshot captures every mutable field of a [`DcMeshSim`] bit-exactly:
//! atom positions/velocities/forces (the Verlet half-kick reuses the stored
//! forces), the per-domain wavefunctions in their *native* engine layout
//! (no AoS/SoA permutation, so restore is a memcpy-equivalent), the Maxwell
//! vector-potential history (`a`, `a_prev`, `j`), the Landau–Khalatnikov
//! polarization field, per-domain FSSH amplitudes and active surfaces, the
//! counter-based RNG state, and the step/time counters. Restoring into a
//! freshly built simulation therefore resumes the trajectory **bitwise
//! identical** to the uninterrupted run (the restart-equivalence test in
//! `tests/restart_equivalence.rs` enforces this).
//!
//! The payload leads with a configuration fingerprint so a snapshot cannot
//! silently restore into a simulation with different physics. Rollback
//! retries that deliberately shrink the QD step bypass the fingerprint
//! check (see [`crate::resilience`]).
//!
//! The bytes are written by `codec`, a tagged field encoding that fails
//! loudly on a truncated or wrong payload, and held on disk by `file`, a
//! versioned, checksummed container written through a temp file and an
//! atomic rename.

mod codec;
mod file;

use crate::simulation::{DcMeshConfig, DcMeshSim};
use codec::{checksum64, Decoder, Encoder};
use dcmesh_math::C64;
use file::read_checkpoint;
use rand::rngs::SplitMix64;
use std::path::Path;

pub use codec::CkptError;
pub(crate) use file::write_checkpoint_atomic;

/// FNV-1a fingerprint of every configuration field that affects the shape
/// or physics of the simulation state. Two configs with equal fingerprints
/// build structurally identical simulations.
pub fn config_fingerprint(cfg: &DcMeshConfig) -> u64 {
    let mut e = Encoder::new();
    for &d in &cfg.supercell_dims {
        e.put_usize(d);
    }
    e.put_usize(cfg.domains_x);
    e.put_usize(cfg.domain_mesh_points);
    e.put_usize(cfg.norb);
    e.put_usize(cfg.lumo);
    e.put_f64(cfg.dt_qd);
    e.put_usize(cfg.n_qd);
    e.put_f64(cfg.dt_md);
    e.put_bytes(cfg.build.label().as_bytes());
    match &cfg.laser {
        None => e.put_bool(false),
        Some(p) => {
            e.put_bool(true);
            e.put_f64(p.e0);
            e.put_f64(p.omega);
            e.put_f64(p.duration);
        }
    }
    match cfg.flux_closure_amplitude {
        None => e.put_bool(false),
        Some(a) => {
            e.put_bool(true);
            e.put_f64(a);
        }
    }
    e.put_bool(cfg.ehrenfest_feedback);
    e.put_u64(cfg.seed);
    checksum64(&e.finish())
}

/// Read the next f64 slice into `rows`, three values each.
fn take_rows<'a>(
    d: &mut Decoder,
    rows: impl ExactSizeIterator<Item = &'a mut [f64; 3]>,
    what: &str,
) -> Result<(), CkptError> {
    let flat = d.take_f64_vec()?;
    if flat.len() != 3 * rows.len() {
        return Err(CkptError::Corrupt(format!(
            "{what}: expected {} values, found {}",
            3 * rows.len(),
            flat.len()
        )));
    }
    for (row, c) in rows.zip(flat.chunks_exact(3)) {
        row.copy_from_slice(c);
    }
    Ok(())
}

/// Append complex amplitudes as interleaved `(re, im)` pairs.
fn put_complex(e: &mut Encoder, z: &[C64]) {
    e.put_f64_slice(dcmesh_math::as_reals(z));
}

/// Read the next f64 slice into `out`. A slice of another length was taken
/// under another configuration.
fn take_into(d: &mut Decoder, out: &mut [f64]) -> Result<(), CkptError> {
    let v = d.take_f64_vec()?;
    if v.len() != out.len() {
        return Err(CkptError::ConfigMismatch);
    }
    out.copy_from_slice(&v);
    Ok(())
}

/// [`take_into`] for what [`put_complex`] wrote.
fn take_complex_into(d: &mut Decoder, out: &mut [C64]) -> Result<(), CkptError> {
    let v = d.take_f64_vec()?;
    if v.len() != 2 * out.len() {
        return Err(CkptError::ConfigMismatch);
    }
    for (z, p) in out.iter_mut().zip(v.chunks_exact(2)) {
        *z = C64::new(p[0], p[1]);
    }
    Ok(())
}

impl DcMeshSim {
    /// Elapsed simulation time (a.u.).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The configuration this simulation was built from.
    pub fn config(&self) -> &DcMeshConfig {
        &self.cfg
    }

    /// True when every piece of evolving state is finite — the cheap
    /// health check the resilience layer polls after each step.
    pub fn is_finite(&self) -> bool {
        self.md.is_finite()
            && self.lk.field.is_finite()
            && self.maxwell.is_finite()
            && (self.domains.iter()).all(|d| d.engine.state_is_finite() && d.fssh.is_finite())
    }

    /// Serialize the full mutable state into a checkpoint payload.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot_into(Vec::new())
    }

    /// [`DcMeshSim::snapshot_bytes`] written into `buf`'s allocation (its
    /// old bytes dropped), so that a runner snapshotting every step reuses
    /// one buffer.
    pub fn snapshot_into(&self, buf: Vec<u8>) -> Vec<u8> {
        let mut e = Encoder::reusing(buf);
        e.put_u64(config_fingerprint(&self.cfg));
        e.put_f64(self.time);
        e.put_u64(self.md_steps);
        e.put_u64(self.rng.state());

        // Atoms + integrator internals.
        let atoms = &self.md.atoms;
        e.put_usize(atoms.len());
        e.put_f64_rows(atoms.atoms.iter().map(|a| a.pos));
        e.put_f64_rows(atoms.atoms.iter().map(|a| a.vel));
        e.put_f64_rows(atoms.atoms.iter().map(|a| a.force));
        e.put_f64(self.md.potential_energy());
        e.put_u64(self.md.steps());

        // Ehrenfest external forces held constant over the MD step.
        e.put_f64_slice(self.md.forces.external.as_flattened());

        // Maxwell field history.
        for level in self.maxwell.field() {
            e.put_f64_slice(level);
        }
        e.put_f64(self.maxwell.time);

        // Polarization dynamics.
        e.put_f64_slice(&self.lk.field.px);
        e.put_f64_slice(&self.lk.field.pz);
        e.put_f64(self.lk.time);

        // Dipole history driving the polarization current.
        e.put_f64_rows(self.domains.iter().map(|d| [d.prev_dipole]));

        // Per-domain FSSH state.
        e.put_usize(self.domains.len());
        for f in self.domains.iter().map(|d| &d.fssh) {
            e.put_usize(f.surface);
            put_complex(&mut e, &f.c);
        }

        // Per-domain LFD engines: wavefunctions in native layout.
        e.put_usize(self.domains.len());
        for eng in self.domains.iter().map(|d| &d.engine) {
            e.put_f64(eng.time);
            e.put_u64(eng.md_steps());
            e.put_f64_slice(&eng.occupations);
            put_complex(&mut e, eng.state_data());
        }
        e.finish()
    }

    /// Rebuild a simulation from `cfg` and restore a snapshot payload into
    /// it. With `enforce_fingerprint`, a payload taken under a different
    /// configuration is rejected with [`CkptError::ConfigMismatch`];
    /// rollback retries that deliberately change the QD step pass `false`.
    pub fn restore_from_bytes(
        cfg: DcMeshConfig,
        bytes: &[u8],
        enforce_fingerprint: bool,
    ) -> Result<Self, CkptError> {
        let _span = dcmesh_obs::span!("ckpt.restore");
        let mut d = Decoder::new(bytes);
        let fp = d.take_u64()?;
        if enforce_fingerprint && fp != config_fingerprint(&cfg) {
            return Err(CkptError::ConfigMismatch);
        }
        let mut sim = DcMeshSim::new(cfg);

        sim.time = d.take_f64()?;
        sim.md_steps = d.take_u64()?;
        sim.rng = SplitMix64::from_state(d.take_u64()?);

        // Atoms + integrator internals.
        let atoms = &mut sim.md.atoms.atoms;
        if d.take_usize()? != atoms.len() {
            return Err(CkptError::ConfigMismatch);
        }
        take_rows(&mut d, atoms.iter_mut().map(|a| &mut a.pos), "positions")?;
        take_rows(&mut d, atoms.iter_mut().map(|a| &mut a.vel), "velocities")?;
        take_rows(&mut d, atoms.iter_mut().map(|a| &mut a.force), "forces")?;
        sim.md.import_state(d.take_f64()?, d.take_u64()?);
        sim.supercell.atoms = sim.md.atoms.clone();
        take_rows(&mut d, sim.md.forces.external.iter_mut(), "external forces")?;

        // Maxwell field history.
        let (a_prev, a, j) = (d.take_f64_vec()?, d.take_f64_vec()?, d.take_f64_vec()?);
        if !sim.maxwell.restore([&a_prev, &a, &j], d.take_f64()?) {
            return Err(CkptError::ConfigMismatch);
        }

        // Polarization dynamics.
        take_into(&mut d, &mut sim.lk.field.px)?;
        take_into(&mut d, &mut sim.lk.field.pz)?;
        sim.lk.time = d.take_f64()?;

        // Dipole history.
        let mut prev_dipole = vec![0.0; sim.domains.len()];
        take_into(&mut d, &mut prev_dipole)?;
        (sim.domains.iter_mut().zip(prev_dipole)).for_each(|(dom, p)| dom.prev_dipole = p);

        // Per-domain FSSH state.
        if d.take_usize()? != sim.domains.len() {
            return Err(CkptError::ConfigMismatch);
        }
        for f in sim.domains.iter_mut().map(|dom| &mut dom.fssh) {
            let surface = d.take_usize()?;
            if surface >= f.nstates() {
                return Err(CkptError::ConfigMismatch);
            }
            f.surface = surface;
            take_complex_into(&mut d, &mut f.c)?;
        }

        // Per-domain LFD engines, and the density and dipole they imply.
        if d.take_usize()? != sim.domains.len() {
            return Err(CkptError::ConfigMismatch);
        }
        for dom in sim.domains.iter_mut() {
            let eng = &mut dom.engine;
            eng.time = d.take_f64()?;
            eng.set_md_steps(d.take_u64()?);
            take_into(&mut d, &mut eng.occupations)?;
            take_complex_into(&mut d, eng.state_data_mut())?;
            dom.observe();
        }

        if !d.is_done() {
            return Err(CkptError::Corrupt("trailing bytes after payload".into()));
        }
        Ok(sim)
    }

    /// Write a checkpoint file (atomic: temp file + rename).
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), CkptError> {
        write_checkpoint_atomic(path, &self.snapshot_bytes())
    }

    /// Rebuild from `cfg` and restore from a checkpoint file.
    pub fn restore_from_checkpoint(cfg: DcMeshConfig, path: &Path) -> Result<Self, CkptError> {
        let payload = read_checkpoint(path)?;
        Self::restore_from_bytes(cfg, &payload, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::tests::quick_cfg;

    #[test]
    fn fingerprint_distinguishes_configs() {
        let base = quick_cfg();
        let fp = config_fingerprint(&base);
        let mut dt = quick_cfg();
        dt.dt_qd *= 0.5;
        assert_ne!(fp, config_fingerprint(&dt));
        let mut seed = quick_cfg();
        seed.seed += 1;
        assert_ne!(fp, config_fingerprint(&seed));
        assert_eq!(fp, config_fingerprint(&quick_cfg()));
    }

    #[test]
    fn snapshot_roundtrips_into_identical_state() {
        let mut sim = DcMeshSim::new(quick_cfg());
        sim.md_step();
        sim.md_step();
        let bytes = sim.snapshot_bytes();
        let restored = DcMeshSim::restore_from_bytes(quick_cfg(), &bytes, true).unwrap();
        assert_eq!(restored.md_steps(), sim.md_steps());
        assert_eq!(restored.time().to_bits(), sim.time().to_bits());
        for (a, b) in sim.md.atoms.atoms.iter().zip(&restored.md.atoms.atoms) {
            for ax in 0..3 {
                assert_eq!(a.pos[ax].to_bits(), b.pos[ax].to_bits());
                assert_eq!(a.vel[ax].to_bits(), b.vel[ax].to_bits());
                assert_eq!(a.force[ax].to_bits(), b.force[ax].to_bits());
            }
        }
        for d in 0..sim.num_domains() {
            let (e0, e1) = (sim.engine(d), restored.engine(d));
            assert_eq!(e0.time.to_bits(), e1.time.to_bits());
            for (x, y) in e0.state_data().iter().zip(e1.state_data()) {
                assert_eq!(x.re.to_bits(), y.re.to_bits());
                assert_eq!(x.im.to_bits(), y.im.to_bits());
            }
        }
    }

    #[test]
    fn a_snapshot_into_a_dirty_longer_buffer_is_the_snapshot() {
        let mut sim = DcMeshSim::new(quick_cfg());
        sim.md_step();
        let wider = DcMeshConfig {
            domains_x: 4,
            supercell_dims: [8, 2, 2],
            ..quick_cfg()
        };
        let dirty = DcMeshSim::new(wider).snapshot_bytes();
        let want = sim.snapshot_bytes();
        assert!(dirty.len() > want.len());
        assert!(sim.snapshot_into(dirty) == want);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let sim = DcMeshSim::new(quick_cfg());
        let bytes = sim.snapshot_bytes();
        let mut other = quick_cfg();
        other.seed += 99;
        assert_eq!(
            DcMeshSim::restore_from_bytes(other.clone(), &bytes, true).unwrap_err(),
            CkptError::ConfigMismatch
        );
        // The rollback path may bypass the fingerprint deliberately —
        // structural checks still apply and this config is shape-compatible.
        assert!(DcMeshSim::restore_from_bytes(other, &bytes, false).is_ok());
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let sim = DcMeshSim::new(quick_cfg());
        let bytes = sim.snapshot_bytes();
        let cut = &bytes[..bytes.len() / 2];
        assert!(DcMeshSim::restore_from_bytes(quick_cfg(), cut, true).is_err());
    }

    #[test]
    fn a_nan_in_any_component_fails_the_health_check() {
        type Plant = fn(&mut DcMeshSim);
        let plants: [(&str, Plant); 5] = [
            ("maxwell a", |sim| {
                let [a_prev, a, j] = sim.maxwell.field().map(<[f64]>::to_vec);
                let mut a = a;
                a[3] = f64::NAN;
                assert!(sim.maxwell.restore([&a_prev, &a, &j], 0.0));
            }),
            ("lk px", |sim| sim.lk.field.px[0] = f64::NAN),
            ("fssh amplitude", |sim| {
                sim.domains[1].fssh.c[0].im = f64::NAN
            }),
            ("atom velocity", |sim| {
                sim.md.atoms.atoms[5].vel[2] = f64::NAN
            }),
            ("engine amplitude", |sim| {
                sim.domains[1].engine.state_data_mut()[7].re = f64::NAN
            }),
        ];
        let mut sim = DcMeshSim::new(quick_cfg());
        let clean = sim.snapshot_bytes();
        for (what, plant) in plants {
            assert!(sim.is_finite(), "before {what}");
            plant(&mut sim);
            assert!(!sim.is_finite(), "a NaN in {what} went unseen");
            sim = DcMeshSim::restore_from_bytes(quick_cfg(), &clean, true).unwrap();
        }
    }

    #[test]
    fn a_field_vector_of_the_wrong_length_is_a_mismatch_not_a_panic() {
        // Same atoms, so each payload decodes up to the one vector whose
        // length its shape changes: the Maxwell grid (32 cells for 16), the
        // LK field (4 x 4 cells for 4 x 2), the dipole history (1 for 2).
        let other = |domains_x, supercell_dims| DcMeshConfig {
            domains_x,
            supercell_dims,
            ..quick_cfg()
        };
        for (what, cfg) in [
            ("maxwell", other(4, [4, 2, 2])),
            ("lk", other(2, [4, 1, 4])),
            ("dipoles", other(1, [4, 2, 2])),
        ] {
            let bytes = DcMeshSim::new(cfg).snapshot_bytes();
            assert_eq!(
                DcMeshSim::restore_from_bytes(quick_cfg(), &bytes, false).unwrap_err(),
                CkptError::ConfigMismatch,
                "{what}"
            );
        }
    }
}
