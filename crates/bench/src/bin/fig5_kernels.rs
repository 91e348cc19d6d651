//! Fig. 5: DP runtime of the compute-intensive kernels — electron
//! time-propagation (Eq. (6)), nonlocal propagation (Eq. (7)), and energy
//! calculation — across the build ladder.

use std::time::Instant;

use dcmesh_bench::{fmt_s, fmt_x, paper, BenchArgs};
use dcmesh_core::metrics::Table;
use dcmesh_lfd::{BuildKind, LfdConfig, LfdEngine};

struct KernelRow {
    build: BuildKind,
    electron: f64,
    nonlocal: f64,
    transfer: f64,
    energy: f64,
    modeled: bool,
}

fn run(args: &BenchArgs, build: BuildKind) -> KernelRow {
    let cfg = LfdConfig {
        mesh: args.mesh(),
        norb: args.norb(),
        lumo: (args.norb() * 3 / 4).max(1),
        dt: 0.04,
        n_qd: args.n_qd(),
        block_size: (args.norb() / 2).max(1),
        build,
        delta_sci: 0.08,
        laser: None,
        seed: 7,
    };
    let v_loc = vec![0.0; cfg.mesh.len()];
    let mut engine = LfdEngine::<f64>::new(cfg, v_loc);
    let t = engine.run_md_step();
    // Energy-calculation kernel (calc_energy()): time scissor_energies over
    // the paper's number of nlp_prop calls per MD step (2 per QD step — what
    // the modeled device runs; the host merges them into n_qd + 1).
    let calls = 2 * args.n_qd();
    let e0 = Instant::now();
    for _ in 0..calls {
        let _ = engine.scissor_energies();
    }
    let mut energy = e0.elapsed().as_secs_f64();
    if build.uses_device() {
        // Model the energy kernel like the nonlocal GEMM it is.
        energy = t.nonlocal * 0.45; // one GEMM of the two in nlp_prop
    }
    KernelRow {
        build,
        electron: t.electron,
        nonlocal: t.nonlocal,
        transfer: t.transfer,
        energy,
        modeled: t.modeled,
    }
}

fn main() {
    let args = BenchArgs::parse();
    println!("Fig. 5 reproduction — DP kernel runtimes across builds");
    println!("{}\n", args.describe());
    args.init_obs();

    let builds = [
        BuildKind::CpuBlas,
        BuildKind::GpuBlas,
        BuildKind::GpuCublas,
        BuildKind::GpuCublasPinned,
    ];
    let rows: Vec<KernelRow> = builds.iter().map(|&b| run(&args, b)).collect();

    let mut table = Table::new(&[
        "Build",
        "Electron prop (s)",
        "Nonlocal prop (s)",
        "Transfer (s)",
        "Energy calc (s)",
        "Source",
    ]);
    for r in &rows {
        table.row(&[
            r.build.label().to_string(),
            fmt_s(r.electron),
            fmt_s(r.nonlocal),
            fmt_s(r.transfer),
            fmt_s(r.energy),
            if r.modeled { "modeled" } else { "measured" }.to_string(),
        ]);
    }
    println!("{}", table.render());

    if let Some(events) = args.finish_obs() {
        // Cross-check: the host-track phase totals in the trace must agree
        // with the KernelTimings the steps returned (each slice is summed
        // and traced with one duration, so any mismatch means lost events).
        let kin = dcmesh_bench::host_phase_seconds(&events, "lfd.kinetic");
        let pot = dcmesh_bench::host_phase_seconds(&events, "lfd.potential");
        let nonl = dcmesh_bench::host_phase_seconds(&events, "lfd.nonlocal");
        let elec_legacy: f64 = rows.iter().map(|r| r.electron).sum();
        let nonl_legacy: f64 = rows.iter().map(|r| r.nonlocal).sum();
        let agree = |a: f64, b: f64| (a - b).abs() <= 0.01 * a.abs().max(b.abs()).max(1e-12);
        println!(
            "trace vs KernelTimings: electron {} vs {} ({}), nonlocal {} vs {} ({})",
            fmt_s(kin + pot),
            fmt_s(elec_legacy),
            if agree(kin + pot, elec_legacy) {
                "agree"
            } else {
                "MISMATCH"
            },
            fmt_s(nonl),
            fmt_s(nonl_legacy),
            if agree(nonl, nonl_legacy) {
                "agree"
            } else {
                "MISMATCH"
            },
        );
    }

    let base = &rows[0];
    let best = rows.last().unwrap();
    println!(
        "speedups CPU+BLAS -> GPU+cuBLAS+pinned: electron {}, nonlocal {}, energy {}",
        fmt_x(base.electron / best.electron),
        fmt_x(base.nonlocal / best.nonlocal),
        fmt_x(base.energy / best.energy),
    );
    println!(
        "paper: electron {}x, nonlocal {}x, energy {}x",
        paper::FIG5_SPEEDUPS[0],
        paper::FIG5_SPEEDUPS[1],
        paper::FIG5_SPEEDUPS[2]
    );
}
