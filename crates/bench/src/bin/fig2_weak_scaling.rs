//! Fig. 2: weak-scaling parallel efficiency of DC-MESH, 40 atoms per rank,
//! P = 4 ... 1024 simulated ranks on the modeled Slingshot fabric.
//!
//! `--no-overlap` runs the paper's "disable nowait" ablation (halo
//! exchanges blocking instead of posted before the compute slice), and
//! `--ranks 4,8,16` overrides the sweep.

use dcmesh_bench::{paper, BenchArgs};
use dcmesh_core::metrics::Table;
use dcmesh_core::scaling::{weak_scaling, AnalyticEfficiency, ScalingConfig};

fn main() {
    let args = BenchArgs::parse();
    println!("Fig. 2 reproduction — weak-scaling parallel efficiency");
    println!("(simulated ranks in lockstep; compute = calibrated roofline model,");
    println!(" communication = modeled Slingshot dragonfly; see DESIGN.md)\n");
    if args.no_overlap {
        println!("halo/compute overlap DISABLED (--no-overlap ablation)\n");
    }
    args.init_obs();

    let cfg = ScalingConfig {
        overlap: !args.no_overlap,
        ..ScalingConfig::default()
    };
    let default_ranks = vec![4usize, 8, 16, 32, 64, 128, 256, 512, 1024];
    let ranks = args.ranks.clone().unwrap_or(default_ranks);
    let points = weak_scaling(&cfg, &ranks);

    // Fit-free analytic overlay with the paper's functional form.
    let analytic = AnalyticEfficiency {
        alpha: 0.02,
        beta: 0.12,
    };

    let mut table = Table::new(&[
        "Ranks (P)",
        "Atoms",
        "t/MD step (s, simulated)",
        "Efficiency",
        "Comm wait (s)",
        "Overlap",
        "Analytic model",
    ]);
    for p in &points {
        table.row(&[
            p.ranks.to_string(),
            p.atoms.to_string(),
            format!("{:.3}", p.sim_seconds),
            format!("{:.4}", p.efficiency),
            format!("{:.2e}", p.comm_wait_s),
            format!("{:.3}", p.overlap_ratio),
            format!("{:.4}", analytic.weak(cfg.atoms_per_rank as f64, p.ranks)),
        ]);
    }
    println!("{}", table.render());
    let last = points.last().unwrap();
    println!(
        "efficiency at P = {}: {:.4} (paper at P = 1024: {:.4})",
        last.ranks,
        last.efficiency,
        paper::WEAK_EFF_1024
    );
    println!("shape check: efficiency stays > 0.9 and decays slowly (log P).");
    args.finish_obs();
}
