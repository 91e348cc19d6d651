//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. orbital block size in the blocked stencil (paper Alg. 4),
//! 2. loops vs BLAS nonlocal correction across problem sizes (§III-D),
//! 3. LDC buffer width: embedding accuracy vs cost (paper §II),
//! 4. load imbalance vs weak-scaling efficiency (Fig. 2 sensitivity).
//!
//! (A fifth sweep timed the spawn-per-call dispatch the persistent pool
//! replaced in PR 2; its 10-28x is recorded in EXPERIMENTS.md.)
//!
//! Run: `cargo run --release -p dcmesh-bench --bin ablations`

use std::time::Instant;

use dcmesh_bench::BenchArgs;
use dcmesh_core::metrics::Table;
use dcmesh_core::scaling::{weak_scaling, ScalingConfig};
use dcmesh_grid::{Mesh3, WfAos};
use dcmesh_lfd::kinetic::{Axis, KineticPropagator, StepFraction};
use dcmesh_lfd::nonlocal::NonlocalCorrection;
use dcmesh_tddft::dcscf::{run_dc_scf, DcScfConfig};
use dcmesh_tddft::{AtomSet, Species};

fn main() {
    // The sweeps use fixed workloads; BenchArgs only carries the
    // observability flags (`--trace PATH`, `--report`) here.
    let args = BenchArgs::parse();
    args.init_obs();
    block_size_sweep();
    gemm_path_sweep();
    buffer_width_sweep();
    imbalance_sweep();
    args.finish_obs();
}

fn block_size_sweep() {
    println!("=== ablation 1: orbital block size (Algorithm 4) ===");
    let mesh = Mesh3::new(30, 30, 30, 0.42, 0.42, 0.42);
    let norb = 32;
    let reps = 60;
    let mut init = WfAos::<f64>::zeros(mesh.clone(), norb);
    init.randomize(1);
    let prop = KineticPropagator::new(mesh.clone(), 0.04, 1.0);
    let mut table = Table::new(&["block_size", "time (ms)", "relative"]);
    let mut base = 0.0;
    for block in [1usize, 2, 4, 8, 16, 32] {
        let mut psi = init.to_soa();
        let t0 = Instant::now();
        for _ in 0..reps {
            prop.apply_axis_alg4(&mut psi, Axis::X, StepFraction::Full, block);
        }
        let dt = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        if block == 1 {
            base = dt;
        }
        table.row(&[
            block.to_string(),
            format!("{dt:.3}"),
            format!("{:.2}x", base / dt),
        ]);
    }
    println!("{}", table.render());
    println!("(block = norb reproduces Algorithm 3; the paper's Alg. 4 gains depend on\n the carry-buffer pressure our exact-unitary pairwise kernel avoids)\n");
}

fn gemm_path_sweep() {
    println!("=== ablation 2: nonlocal correction, loops vs BLAS (SIII-D) ===");
    let mut table = Table::new(&[
        "mesh",
        "norb",
        "state (MB)",
        "loops (ms)",
        "BLAS (ms)",
        "BLAS speedup",
    ]);
    for (n, norb) in [(16usize, 12usize), (24, 20), (32, 28), (40, 40)] {
        let mesh = Mesh3::cubic(n, 0.42);
        let mut psi0 = WfAos::<f64>::zeros(mesh.clone(), norb);
        psi0.randomize(2);
        let nl = NonlocalCorrection::new(psi0.to_matrix(), norb * 3 / 4, 0.08, 0.04, mesh.dv());
        let reps = (30_000_000 / (mesh.len() * norb)).max(2);
        let mut m = psi0.to_matrix();
        let t0 = Instant::now();
        for _ in 0..reps {
            nl.nlp_prop(&mut m);
        }
        let t_loops = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let mut s = psi0.to_soa();
        let t0 = Instant::now();
        for _ in 0..reps {
            nl.nlp_prop_soa(&mut s);
        }
        let t_blas = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        table.row(&[
            format!("{n}^3"),
            norb.to_string(),
            format!("{:.1}", (mesh.len() * norb * 16) as f64 / 1e6),
            format!("{t_loops:.2}"),
            format!("{t_blas:.2}"),
            format!("{:.2}x", t_loops / t_blas),
        ]);
    }
    println!("{}", table.render());
    println!("(the BLAS advantage grows once the state outgrows cache — the paper's point)\n");
}

fn buffer_width_sweep() {
    println!("=== ablation 3: LDC buffer width (embedding accuracy vs cost) ===");
    let global = Mesh3::new(16, 8, 8, 0.55, 0.55, 0.55);
    let mut atoms = AtomSet::new(vec![Species::hydrogen()]);
    atoms.push(0, [4.0 * 0.55, 4.0 * 0.55, 4.0 * 0.55]);
    atoms.push(0, [12.0 * 0.55, 4.0 * 0.55, 4.0 * 0.55]);
    // Single-domain reference.
    let reference = run_dc_scf(
        &global,
        &atoms,
        &DcScfConfig {
            parts: [1, 1, 1],
            buffer: 0,
            norb_per_domain: 4,
            scf_iters: 8,
            ..Default::default()
        },
    )
    .global_density;
    let mut table = Table::new(&[
        "buffer (pts)",
        "local mesh",
        "density err (L2)",
        "time (ms)",
    ]);
    for buffer in [0usize, 1, 2, 3] {
        let cfg = DcScfConfig {
            parts: [2, 1, 1],
            buffer,
            norb_per_domain: 2,
            scf_iters: 8,
            ..Default::default()
        };
        let t0 = Instant::now();
        let dc = run_dc_scf(&global, &atoms, &cfg);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        let err: f64 = dc
            .global_density
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let side = 8 + 2 * buffer;
        table.row(&[
            buffer.to_string(),
            format!("{side}x{}x{}", 8 + 2 * buffer, 8 + 2 * buffer),
            format!("{err:.4}"),
            format!("{dt:.0}"),
        ]);
    }
    println!("{}", table.render());
    println!("(thicker buffers embed better but cost (s+2b)^3/s^3 more work — the\n strong-scaling alpha term of §IV-A)\n");
}

fn imbalance_sweep() {
    println!("=== ablation 4: load imbalance vs weak-scaling efficiency ===");
    let mut table = Table::new(&["imbalance", "eff @ P=64", "eff @ P=256"]);
    for imb in [0.0, 0.02, 0.035, 0.07] {
        let cfg = ScalingConfig {
            n_qd: 20,
            imbalance: imb,
            global_solve_serial: 0.0004,
            ..ScalingConfig::default()
        };
        let pts = weak_scaling(&cfg, &[4, 64, 256]);
        table.row(&[
            format!("{:.1}%", imb * 100.0),
            format!("{:.4}", pts[1].efficiency),
            format!("{:.4}", pts[2].efficiency),
        ]);
    }
    println!("{}", table.render());
    println!("(the Fig. 2 plateau is set almost entirely by per-domain load spread)\n");
}
