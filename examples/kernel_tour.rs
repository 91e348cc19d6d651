//! A guided tour of the paper's kernel optimizations (Algorithms 1-5 and
//! the BLASification) with live timings — the Table I/II story as a demo.
//!
//! Run: `cargo run --release --example kernel_tour`

use std::time::Instant;

use dcmesh::device::{Device, LaunchPolicy};
use dcmesh::grid::{Mesh3, WfAos};
use dcmesh::lfd::kinetic::{Axis, KineticPropagator, StepFraction};
use dcmesh::lfd::nonlocal::NonlocalCorrection;

fn time(label: &str, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let dt = t0.elapsed().as_secs_f64();
    println!("  {label:<46} {:>9.3} ms", dt * 1e3);
    dt
}

fn main() {
    let mesh = Mesh3::new(28, 28, 28, 0.42, 0.42, 0.42);
    let norb = 24;
    let reps = 20;
    println!(
        "kernel tour on a {}x{}x{} mesh, {norb} orbitals, {reps} repetitions each\n",
        mesh.nx, mesh.ny, mesh.nz
    );

    let mut init = WfAos::<f64>::zeros(mesh.clone(), norb);
    init.randomize(5);
    let prop = KineticPropagator::new(mesh.clone(), 0.04, 1.0);

    println!("1) kin_prop(): the split-operator kinetic stencil (paper Algorithms 1-5)");
    let t1 = {
        let mut psi = init.clone();
        time("Algorithm 1: AoS + whole-mesh scratch buffer", || {
            for _ in 0..reps {
                prop.apply_axis_alg1(&mut psi, Axis::X, StepFraction::Full);
            }
        })
    };
    let t3 = {
        let mut psi = init.to_soa();
        time("Algorithm 3: loop interchange + SoA, in place", || {
            for _ in 0..reps {
                prop.apply_axis_alg3(&mut psi, Axis::X, StepFraction::Full);
            }
        })
    };
    let t4 = {
        let mut psi = init.to_soa();
        time("Algorithm 4: + orbital cache blocking", || {
            for _ in 0..reps {
                prop.apply_axis_alg4(&mut psi, Axis::X, StepFraction::Full, 8);
            }
        })
    };
    let t5 = {
        let mut psi = init.to_soa();
        time("Algorithm 5: + teams-distribute parallelism", || {
            for _ in 0..reps {
                prop.apply_axis_alg5(&mut psi, Axis::X, StepFraction::Full, 8, None);
            }
        })
    };
    println!(
        "  speedups vs Algorithm 1: alg3 {:.2}x, alg4 {:.2}x, alg5 {:.2}x\n",
        t1 / t3,
        t1 / t4,
        t1 / t5
    );

    println!("2) the same Algorithm-5 kernel through the device offload runtime");
    let dev = Device::a100();
    let mut psi = init.to_soa();
    for policy in [LaunchPolicy::Sync, LaunchPolicy::Async] {
        dev.reset_clock();
        for _ in 0..reps {
            prop.apply_axis_alg5(
                &mut psi,
                Axis::X,
                StepFraction::Full,
                8,
                Some((&dev, policy)),
            );
        }
        println!(
            "  modeled A100 time, {:?} launches{:<24} {:>9.3} ms",
            policy,
            ":",
            dev.synchronize() * 1e3
        );
    }

    println!("\n3) nonlocal correction: loops vs BLASified GEMM (paper SIII-D)");
    let nl = NonlocalCorrection::new(init.to_matrix(), norb * 3 / 4, 0.08, 0.04, mesh.dv());
    let tl = {
        let mut state = init.to_matrix();
        time("point-by-point loops (pre-BLAS formulation)", || {
            for _ in 0..reps {
                nl.nlp_prop(&mut state);
            }
        })
    };
    let tb = {
        let mut state = init.to_soa();
        time("BLAS level-3 (zero-copy SoA GEMM)", || {
            for _ in 0..reps {
                nl.nlp_prop_soa(&mut state);
            }
        })
    };
    println!("  BLASification speedup: {:.2}x", tl / tb);
}
