//! The restart-equivalence keystone: checkpoint at step k, throw the
//! simulation away, restore, and verify the resumed trajectory is
//! **bitwise identical** to the uninterrupted run — positions, velocities,
//! wavefunctions, FSSH amplitudes, polarization, and RNG stream all
//! compared through `f64::to_bits`.

use dcmesh_core::{DcMeshConfig, DcMeshSim, ResilientRunner};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn quick_cfg() -> DcMeshConfig {
    DcMeshConfig {
        n_qd: 5,
        ..DcMeshConfig::default()
    }
}

fn laser_cfg() -> DcMeshConfig {
    DcMeshConfig {
        n_qd: 10,
        laser: Some(dcmesh_lfd::LaserPulse {
            e0: 1.0,
            omega: 0.8,
            duration: 6.0,
        }),
        ..DcMeshConfig::default()
    }
}

/// Ehrenfest feedback on a supercell of 160 atoms: three row chunks of the
/// pair loop, two domain claims of the pseudo-force loop.
fn feedback_cfg() -> DcMeshConfig {
    DcMeshConfig {
        supercell_dims: [4, 4, 2],
        n_qd: 5,
        flux_closure_amplitude: Some(0.3),
        ehrenfest_feedback: true,
        ..DcMeshConfig::default()
    }
}

/// Unique temp path without a tempfile dependency.
fn temp_ckpt_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "dcmesh_restart_{tag}_{}_{n}.ckpt",
        std::process::id()
    ))
}

fn assert_bitwise_identical(a: &DcMeshSim, b: &DcMeshSim) {
    assert_eq!(a.md_steps(), b.md_steps());
    assert_eq!(a.time().to_bits(), b.time().to_bits(), "simulation time");
    for (i, (x, y)) in a.md.atoms.atoms.iter().zip(&b.md.atoms.atoms).enumerate() {
        for ax in 0..3 {
            assert_eq!(x.pos[ax].to_bits(), y.pos[ax].to_bits(), "atom {i} pos");
            assert_eq!(x.vel[ax].to_bits(), y.vel[ax].to_bits(), "atom {i} vel");
            assert_eq!(
                x.force[ax].to_bits(),
                y.force[ax].to_bits(),
                "atom {i} force"
            );
        }
    }
    for d in 0..a.num_domains() {
        let (ea, eb) = (a.engine(d), b.engine(d));
        assert_eq!(ea.time.to_bits(), eb.time.to_bits(), "engine {d} time");
        for (n, (x, y)) in ea.state_data().iter().zip(eb.state_data()).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "domain {d} psi[{n}].re");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "domain {d} psi[{n}].im");
        }
        for (n, (x, y)) in ea.occupations.iter().zip(&eb.occupations).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "domain {d} occupation {n}");
        }
    }
    for (x, y) in a.lk.field.px.iter().zip(&b.lk.field.px) {
        assert_eq!(x.to_bits(), y.to_bits(), "polarization px");
    }
    for (x, y) in a.lk.field.pz.iter().zip(&b.lk.field.pz) {
        assert_eq!(x.to_bits(), y.to_bits(), "polarization pz");
    }
}

/// Run `total` steps uninterrupted; separately run `k` steps, snapshot,
/// "kill" the process state by dropping the simulation, restore from the
/// snapshot bytes, and continue to `total`. Both must agree bitwise.
fn restart_matches_uninterrupted(cfg: DcMeshConfig, k: u64, total: u64) {
    let mut uninterrupted = DcMeshSim::new(cfg.clone());
    for _ in 0..total {
        uninterrupted.md_step();
    }

    let bytes = {
        let mut first_leg = DcMeshSim::new(cfg.clone());
        for _ in 0..k {
            first_leg.md_step();
        }
        first_leg.snapshot_bytes()
        // first_leg dropped here — the "killed" process.
    };
    let mut resumed = DcMeshSim::restore_from_bytes(cfg, &bytes, true).unwrap();
    assert_eq!(resumed.md_steps(), k);
    for _ in k..total {
        resumed.md_step();
    }

    assert_bitwise_identical(&uninterrupted, &resumed);
}

#[test]
fn restart_is_bitwise_identical_dark() {
    restart_matches_uninterrupted(quick_cfg(), 2, 5);
}

#[test]
fn restart_is_bitwise_identical_under_laser() {
    // The laser exercises the time-dependent propagator rebuild and the
    // Maxwell history: both legs must agree through the pulse.
    restart_matches_uninterrupted(laser_cfg(), 2, 4);
}

#[test]
fn restart_is_bitwise_identical_with_ehrenfest_feedback() {
    // The external forces ride in the checkpoint, and the pool-parallel
    // force loops add in an order that only the atom count fixes.
    restart_matches_uninterrupted(feedback_cfg(), 2, 4);
}

#[test]
fn restart_through_a_checkpoint_file_is_bitwise_identical() {
    let cfg = quick_cfg();
    let total = 4;
    let k = 2;
    let path = temp_ckpt_path("file");

    let mut uninterrupted = DcMeshSim::new(cfg.clone());
    for _ in 0..total {
        uninterrupted.md_step();
    }

    {
        let mut first_leg = DcMeshSim::new(cfg.clone());
        for _ in 0..k {
            first_leg.md_step();
        }
        first_leg.save_checkpoint(&path).unwrap();
    }
    let mut resumed = DcMeshSim::restore_from_checkpoint(cfg, &path).unwrap();
    std::fs::remove_file(&path).ok();
    for _ in k..total {
        resumed.md_step();
    }
    assert_bitwise_identical(&uninterrupted, &resumed);
}

#[test]
fn a_file_the_runner_mirrored_restores_bitwise_identical() {
    // The fig7 driver's path: both legs are stepped by `ResilientRunner`,
    // the first mirroring its step-k snapshot to disk. Supervision (the
    // per-step invariant sampling) must not perturb the trajectory either.
    let cfg = quick_cfg();
    let total = 4;
    let k = 2;
    let path = temp_ckpt_path("runner");

    let mut uninterrupted = DcMeshSim::new(cfg.clone());
    for _ in 0..total {
        uninterrupted.md_step();
    }

    ResilientRunner::new(cfg.clone(), k)
        .with_checkpoint_path(path.clone())
        .run_to(k)
        .unwrap();
    let restored = DcMeshSim::restore_from_checkpoint(cfg, &path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.md_steps(), k, "the file holds the step-k snapshot");
    let mut resumed = ResilientRunner::from_sim(restored, k);
    resumed.run_to(total).unwrap();
    assert_eq!(resumed.rollbacks(), 0);
    assert_bitwise_identical(&uninterrupted, resumed.sim());
}

#[test]
fn rng_stream_continues_across_restart() {
    // The FSSH hop decisions downstream of the restart consume the *same*
    // random stream as the uninterrupted run; a fresh-seeded RNG would
    // diverge. Covered implicitly by bitwise equality above, but assert
    // the hop counts explicitly so an RNG regression is named.
    let cfg = quick_cfg();
    let mut uninterrupted = DcMeshSim::new(cfg.clone());
    let mut hops_a = 0;
    for _ in 0..6 {
        hops_a += uninterrupted.md_step().hops;
    }
    let bytes = {
        let mut first_leg = DcMeshSim::new(cfg.clone());
        let mut h = 0;
        for _ in 0..3 {
            h += first_leg.md_step().hops;
        }
        (first_leg.snapshot_bytes(), h)
    };
    let mut resumed = DcMeshSim::restore_from_bytes(cfg, &bytes.0, true).unwrap();
    let mut hops_b = bytes.1;
    for _ in 3..6 {
        hops_b += resumed.md_step().hops;
    }
    assert_eq!(hops_a, hops_b, "hop counts diverged across the restart");
}
