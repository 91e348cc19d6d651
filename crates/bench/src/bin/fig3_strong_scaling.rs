//! Fig. 3: strong-scaling parallel efficiency for 5,120- and 10,240-atom
//! PbTiO3 systems (constant total problem, rank sweep).
//!
//! `--no-overlap` runs the paper's "disable nowait" ablation (blocking
//! halo exchanges), and `--ranks 64,128,256` overrides both sweeps.

use dcmesh_bench::{paper, BenchArgs};
use dcmesh_core::metrics::Table;
use dcmesh_core::scaling::{strong_scaling, AnalyticEfficiency, ScalingConfig};

fn main() {
    let args = BenchArgs::parse();
    println!("Fig. 3 reproduction — strong-scaling parallel efficiency");
    println!("(simulated ranks; compute modeled, communication modeled; see DESIGN.md)\n");
    if args.no_overlap {
        println!("halo/compute overlap DISABLED (--no-overlap ablation)\n");
    }
    args.init_obs();

    let cfg = ScalingConfig {
        overlap: !args.no_overlap,
        ..ScalingConfig::default()
    };
    let analytic = AnalyticEfficiency {
        alpha: 0.6,
        beta: 1.2,
    };

    for (atoms, default_ranks, paper_eff, paper_at) in [
        (
            5120usize,
            vec![64usize, 128, 256],
            paper::STRONG_EFF_5120_AT_256,
            256usize,
        ),
        (
            10240,
            vec![128, 256, 512],
            paper::STRONG_EFF_10240_AT_512,
            512,
        ),
    ] {
        let ranks = args.ranks.clone().unwrap_or(default_ranks);
        println!("--- {atoms}-atom PbTiO3 ---");
        let points = strong_scaling(&cfg, atoms, &ranks);
        let mut table = Table::new(&[
            "Ranks (P)",
            "Atoms/rank",
            "t/MD step (s, simulated)",
            "Efficiency",
            "Comm wait (s)",
            "Overlap",
            "Analytic model",
        ]);
        for p in &points {
            table.row(&[
                p.ranks.to_string(),
                (atoms / p.ranks).to_string(),
                format!("{:.3}", p.sim_seconds),
                format!("{:.4}", p.efficiency),
                format!("{:.2e}", p.comm_wait_s),
                format!("{:.3}", p.overlap_ratio),
                format!(
                    "{:.4}",
                    analytic.strong(atoms as f64, p.ranks)
                        / analytic.strong(atoms as f64, ranks[0])
                ),
            ]);
        }
        println!("{}", table.render());
        let last = points.last().unwrap();
        println!(
            "efficiency at P = {}: {:.4} (paper at P = {paper_at}: {paper_eff:.4})\n",
            last.ranks, last.efficiency
        );
    }
    println!("shape check: strong scaling degrades faster than weak (P^(1/3), P log P terms),");
    println!("and the larger system holds efficiency better at the same P.");
    args.finish_obs();
}
