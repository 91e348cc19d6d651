//! Integration of the full coupled pipeline: QXMD atoms + LFD electrons +
//! Maxwell field + surface hopping + polarization response.

use dcmesh::core::{DcMeshConfig, DcMeshSim};
use dcmesh::lfd::LaserPulse;

fn base_cfg() -> DcMeshConfig {
    DcMeshConfig {
        supercell_dims: [4, 2, 2],
        domains_x: 2,
        domain_mesh_points: 8,
        norb: 4,
        lumo: 2,
        dt_qd: 0.02,
        n_qd: 10,
        dt_md: dcmesh::math::phys::femtoseconds_to_au(0.5),
        build: dcmesh::lfd::BuildKind::GpuCublasPinned,
        laser: None,
        flux_closure_amplitude: None,
        ehrenfest_feedback: false,
        seed: 4242,
    }
}

#[test]
fn multistep_run_conserves_electrons_and_stays_finite() {
    let mut sim = DcMeshSim::new(base_cfg());
    let n0 = sim.total_occupation();
    for _ in 0..5 {
        let r = sim.md_step();
        assert!(r.time_fs.is_finite());
        assert!(r.excited_population.is_finite() && r.excited_population >= 0.0);
        assert!(r.temperature_k.is_finite() && r.temperature_k >= 0.0);
        assert!(r.mean_polarization.iter().all(|p| p.is_finite()));
    }
    assert!((sim.total_occupation() - n0).abs() < 1e-9);
    assert_eq!(sim.md_steps(), 5);
}

#[test]
fn md_time_advances_by_dt_md_per_step() {
    let cfg = base_cfg();
    let dt_fs = dcmesh::math::phys::au_to_femtoseconds(cfg.dt_md);
    let mut sim = DcMeshSim::new(cfg);
    let r1 = sim.md_step();
    let r2 = sim.md_step();
    assert!((r1.time_fs - dt_fs).abs() < 1e-12);
    assert!((r2.time_fs - 2.0 * dt_fs).abs() < 1e-12);
}

#[test]
fn shadow_handshake_counts_match_steps_and_domains() {
    let mut sim = DcMeshSim::new(base_cfg());
    for _ in 0..3 {
        sim.md_step();
    }
    for d in 0..sim.num_domains() {
        let shadow = sim.engine(d).shadow().expect("device build");
        assert_eq!(shadow.handshakes(), 3, "domain {d}");
        // The handshake is occupations only: tiny.
        assert!(shadow.handshake_bytes() < 1024);
    }
}

#[test]
fn vortex_toroidal_moment_is_weakened_by_excitation() {
    let mut cfg = base_cfg();
    cfg.supercell_dims = [6, 1, 6];
    cfg.flux_closure_amplitude = Some(0.3);
    cfg.n_qd = 30;
    let mut lit_cfg = cfg.clone();
    lit_cfg.laser = Some(LaserPulse {
        e0: 1.5,
        omega: 0.8,
        duration: 6.0,
    });
    let mut dark = DcMeshSim::new(cfg);
    let mut lit = DcMeshSim::new(lit_cfg);
    let (mut g_dark, mut g_lit) = (0.0, 0.0);
    for _ in 0..7 {
        g_dark = dark.md_step().toroidal_moment;
        g_lit = lit.md_step().toroidal_moment;
    }
    assert!(
        g_dark.abs() > 1e-6,
        "vortex not visible in the dark run: {g_dark}"
    );
    // Excitation screens the double well -> smaller spontaneous
    // polarization -> weaker vortex than the identical dark run.
    assert!(
        g_lit.abs() < g_dark.abs(),
        "excitation did not weaken the vortex: dark {g_dark} vs lit {g_lit}"
    );
}

#[test]
fn field_free_and_lit_runs_diverge() {
    let mut dark_cfg = base_cfg();
    dark_cfg.n_qd = 25;
    let mut lit_cfg = dark_cfg.clone();
    lit_cfg.laser = Some(LaserPulse {
        e0: 1.5,
        omega: 0.8,
        duration: 2.0,
    });
    let mut dark = DcMeshSim::new(dark_cfg);
    let mut lit = DcMeshSim::new(lit_cfg);
    let mut diverged = false;
    for _ in 0..4 {
        let rd = dark.md_step();
        let rl = lit.md_step();
        if (rd.excited_population - rl.excited_population).abs() > 1e-6 {
            diverged = true;
        }
    }
    assert!(diverged, "laser had no effect on the coupled pipeline");
}

/// The pulse of the digests' lit runs.
const LIT: LaserPulse = LaserPulse {
    e0: 0.3,
    omega: 0.8,
    duration: 400.0,
};

/// FNV-1a over a stream of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a_bytes(words.into_iter().flat_map(u64::to_le_bytes))
}

fn fnv1a_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Bits of everything a fixed 3-step run reports, for the host-resident
/// and the device-resident build, plus the full wavefunction state of a
/// stand-alone engine of each, plus the atom positions of a run with
/// Ehrenfest feedback.
fn physics_digest() -> u64 {
    use dcmesh::lfd::{BuildKind, LfdEngine};
    let mut words = Vec::new();
    for build in [BuildKind::CpuBlas, BuildKind::GpuCublas] {
        let mut cfg = base_cfg();
        cfg.build = build;
        cfg.laser = Some(LIT);
        let mut sim = DcMeshSim::new(cfg);
        for _ in 0..3 {
            let r = sim.md_step();
            words.extend([
                r.excited_population.to_bits(),
                r.mean_polarization[0].to_bits(),
                r.mean_polarization[1].to_bits(),
                r.hops as u64,
            ]);
        }
        let (cfg, v_loc) = standalone_engine(build);
        let mut engine = LfdEngine::<f64>::new(cfg, v_loc);
        engine.run_md_step();
        words.extend(
            engine
                .state_data()
                .iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()]),
        );
        words.extend(engine.occupations.iter().map(|f| f.to_bits()));
    }
    // The coupling phases: 160 atoms are three row chunks of the pair
    // loop, the two domains two claims of the domain step; the atoms
    // carry whatever order the pool added their forces in.
    let mut cfg = base_cfg();
    cfg.supercell_dims = [4, 4, 2];
    cfg.build = BuildKind::GpuCublas;
    cfg.flux_closure_amplitude = Some(0.3);
    cfg.ehrenfest_feedback = true;
    let mut sim = DcMeshSim::new(cfg);
    for _ in 0..3 {
        sim.md_step();
    }
    words.extend(
        sim.md
            .atoms
            .atoms
            .iter()
            .flat_map(|a| a.pos)
            .map(f64::to_bits),
    );
    fnv1a(words)
}

/// The stand-alone engine of the digests: 24^3 x 8 is 27 chunks of the
/// projector's grid contraction, more than any pool here has threads.
fn standalone_engine(build: dcmesh::lfd::BuildKind) -> (dcmesh::lfd::LfdConfig, Vec<f64>) {
    let mesh = dcmesh::grid::Mesh3::cubic(24, 0.4);
    let v_loc = vec![0.0; mesh.len()];
    let cfg = dcmesh::lfd::LfdConfig {
        mesh,
        norb: 8,
        lumo: 4,
        dt: 0.02,
        n_qd: 2,
        block_size: 4,
        build,
        delta_sci: 0.05,
        laser: None,
        seed: 11,
    };
    (cfg, v_loc)
}

/// Bits of a single-precision engine after one MD step (the projector's
/// chunk partials on the f32 lanes).
fn sp_digest() -> u64 {
    use dcmesh::lfd::{BuildKind, LfdEngine};
    let (cfg, v_loc) = standalone_engine(BuildKind::CpuBlas);
    let mut engine = LfdEngine::<f32>::new(cfg, v_loc);
    engine.run_md_step();
    let state = engine.state_data().iter().flat_map(|z| [z.re, z.im]);
    fnv1a(
        state
            .chain(engine.occupations.iter().copied())
            .map(|x| u64::from(x.to_bits())),
    )
}

/// Bits of every piece of evolving state — the Maxwell field, the dipole
/// history, FSSH, the RNG, the external forces, the engines — after three
/// steps of a 4-domain run with the laser and Ehrenfest feedback on.
fn snapshot_digest() -> u64 {
    let mut sim = DcMeshSim::new(DcMeshConfig {
        domains_x: 4,
        ehrenfest_feedback: true,
        laser: Some(LIT),
        ..base_cfg()
    });
    for _ in 0..3 {
        sim.md_step();
    }
    fnv1a_bytes(sim.snapshot_bytes())
}

/// Prints the digests `scripts/check.sh quick` compares across
/// `DCMESH_THREADS=1,2,4` (the pool's size is fixed per process, so each
/// thread count is a run of its own) and `DCMESH_SIMD`, and the lanes run.
#[test]
fn prints_physics_digest() {
    println!("simd-backend {:?}", dcmesh::math::simd::active_backend());
    println!("physics-digest {:016x}", physics_digest());
    println!("sp-digest {:016x}", sp_digest());
    println!("snapshot-digest {:016x}", snapshot_digest());
}
