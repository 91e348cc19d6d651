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

use crate::simulation::{DcMeshConfig, DcMeshSim};
use dcmesh_ckpt::{read_checkpoint, write_checkpoint_atomic, CkptError, Decoder, Encoder};
use rand::rngs::SplitMix64;
use std::path::Path;

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
    e.put_bool(cfg.scf_initial_state);
    e.put_bool(cfg.ehrenfest_feedback);
    e.put_u64(cfg.seed);
    dcmesh_ckpt::codec::checksum64(&e.finish())
}

fn flatten3(rows: impl Iterator<Item = [f64; 3]>) -> Vec<f64> {
    let mut out = Vec::new();
    for r in rows {
        out.extend_from_slice(&r);
    }
    out
}

fn unflatten3(flat: &[f64], n: usize, what: &str) -> Result<Vec<[f64; 3]>, CkptError> {
    if flat.len() != 3 * n {
        return Err(CkptError::Corrupt(format!(
            "{what}: expected {} values, found {}",
            3 * n,
            flat.len()
        )));
    }
    Ok(flat.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect())
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
        let atoms_ok = self.md.atoms.atoms.iter().all(|a| {
            a.pos.iter().all(|x| x.is_finite())
                && a.vel.iter().all(|x| x.is_finite())
                && a.force.iter().all(|x| x.is_finite())
        });
        atoms_ok
            && self.md.potential_energy().is_finite()
            && self.engines.iter().all(|e| e.state_is_finite())
            && self.lk.field.px.iter().all(|x| x.is_finite())
            && self.lk.field.pz.iter().all(|x| x.is_finite())
            && self.maxwell.export_state().a.iter().all(|x| x.is_finite())
            && self
                .fssh
                .iter()
                .all(|f| f.c.iter().all(|z| z.re.is_finite() && z.im.is_finite()))
    }

    /// Serialize the full mutable state into a checkpoint payload.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(config_fingerprint(&self.cfg));
        e.put_f64(self.time);
        e.put_u64(self.md_steps);
        e.put_u64(self.rng.state());

        // Atoms + integrator internals.
        let atoms = &self.md.atoms;
        e.put_usize(atoms.len());
        e.put_f64_slice(&flatten3(atoms.atoms.iter().map(|a| a.pos)));
        e.put_f64_slice(&flatten3(atoms.atoms.iter().map(|a| a.vel)));
        e.put_f64_slice(&flatten3(atoms.atoms.iter().map(|a| a.force)));
        e.put_f64(self.md.potential_energy());
        e.put_u64(self.md.steps());

        // Ehrenfest external forces held constant over the MD step.
        e.put_f64_slice(&flatten3(self.md.forces.external().into_iter()));

        // Maxwell field history.
        let mx = self.maxwell.export_state();
        e.put_f64_slice(&mx.a_prev);
        e.put_f64_slice(&mx.a);
        e.put_f64_slice(&mx.j);
        e.put_f64(mx.time);

        // Polarization dynamics.
        e.put_f64_slice(&self.lk.field.px);
        e.put_f64_slice(&self.lk.field.pz);
        e.put_f64(self.lk.time);

        // Dipole history driving the polarization current.
        e.put_f64_slice(&self.prev_dipole);

        // Per-domain FSSH state.
        e.put_usize(self.fssh.len());
        for f in &self.fssh {
            e.put_usize(f.surface);
            let mut c = Vec::with_capacity(2 * f.c.len());
            for z in &f.c {
                c.push(z.re);
                c.push(z.im);
            }
            e.put_f64_slice(&c);
        }

        // Per-domain LFD engines: wavefunctions in native layout.
        e.put_usize(self.engines.len());
        for eng in &self.engines {
            e.put_f64(eng.time);
            e.put_u64(eng.md_steps());
            e.put_f64_slice(&eng.occupations);
            let data = eng.state_data();
            let mut flat = Vec::with_capacity(2 * data.len());
            for z in data {
                flat.push(z.re);
                flat.push(z.im);
            }
            e.put_f64_slice(&flat);
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
        let natoms = d.take_usize()?;
        if natoms != sim.md.atoms.len() {
            return Err(CkptError::ConfigMismatch);
        }
        let pos = unflatten3(&d.take_f64_vec()?, natoms, "atom positions")?;
        let vel = unflatten3(&d.take_f64_vec()?, natoms, "atom velocities")?;
        let force = unflatten3(&d.take_f64_vec()?, natoms, "atom forces")?;
        let potential = d.take_f64()?;
        let md_step_count = d.take_u64()?;
        let mut atoms = sim.md.atoms.clone();
        for (i, a) in atoms.atoms.iter_mut().enumerate() {
            a.pos = pos[i];
            a.vel = vel[i];
            a.force = force[i];
        }
        sim.md.import_state(atoms, potential, md_step_count);
        sim.supercell.atoms = sim.md.atoms.clone();

        let external = unflatten3(&d.take_f64_vec()?, natoms, "external forces")?;
        sim.md.forces.set_external(external.into_iter().enumerate());

        // Maxwell field history.
        let mut mx = sim.maxwell.export_state();
        let a_prev = d.take_f64_vec()?;
        let a = d.take_f64_vec()?;
        let j = d.take_f64_vec()?;
        if a_prev.len() != mx.a_prev.len() || a.len() != mx.a.len() || j.len() != mx.j.len() {
            return Err(CkptError::ConfigMismatch);
        }
        mx.a_prev = a_prev;
        mx.a = a;
        mx.j = j;
        mx.time = d.take_f64()?;
        sim.maxwell.import_state(mx);

        // Polarization dynamics.
        let px = d.take_f64_vec()?;
        let pz = d.take_f64_vec()?;
        if px.len() != sim.lk.field.px.len() || pz.len() != sim.lk.field.pz.len() {
            return Err(CkptError::ConfigMismatch);
        }
        sim.lk.field.px = px;
        sim.lk.field.pz = pz;
        sim.lk.time = d.take_f64()?;

        // Dipole history.
        let prev_dipole = d.take_f64_vec()?;
        if prev_dipole.len() != sim.prev_dipole.len() {
            return Err(CkptError::ConfigMismatch);
        }
        sim.prev_dipole = prev_dipole;

        // Per-domain FSSH state.
        let nfssh = d.take_usize()?;
        if nfssh != sim.fssh.len() {
            return Err(CkptError::ConfigMismatch);
        }
        for f in sim.fssh.iter_mut() {
            let surface = d.take_usize()?;
            let flat = d.take_f64_vec()?;
            if flat.len() != 2 * f.nstates() || surface >= f.nstates() {
                return Err(CkptError::ConfigMismatch);
            }
            let c = flat
                .chunks_exact(2)
                .map(|p| dcmesh_math::C64::new(p[0], p[1]))
                .collect();
            f.import_state(c, surface);
        }

        // Per-domain LFD engines.
        let nengines = d.take_usize()?;
        if nengines != sim.engines.len() {
            return Err(CkptError::ConfigMismatch);
        }
        for eng in sim.engines.iter_mut() {
            eng.time = d.take_f64()?;
            eng.set_md_steps(d.take_u64()?);
            let occ = d.take_f64_vec()?;
            if occ.len() != eng.occupations.len() {
                return Err(CkptError::ConfigMismatch);
            }
            eng.occupations = occ;
            let flat = d.take_f64_vec()?;
            let data = eng.state_data_mut();
            if flat.len() != 2 * data.len() {
                return Err(CkptError::ConfigMismatch);
            }
            for (z, p) in data.iter_mut().zip(flat.chunks_exact(2)) {
                *z = dcmesh_math::C64::new(p[0], p[1]);
            }
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

    fn quick_cfg() -> DcMeshConfig {
        DcMeshConfig {
            n_qd: 5,
            ..DcMeshConfig::default()
        }
    }

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
}
