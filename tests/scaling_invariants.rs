//! Integration of the scaling drivers with the network model and metrics:
//! the Figs. 2-4 pipeline at reduced size.

use dcmesh::core::metrics::{parallel_efficiency_strong, parallel_efficiency_weak, Speed};
use dcmesh::core::scaling::{
    single_node_throughput, strong_scaling, weak_scaling, AnalyticEfficiency, ScalingConfig,
};

fn quick_cfg() -> ScalingConfig {
    ScalingConfig {
        n_qd: 20,
        global_solve_serial: 0.0004,
        ..ScalingConfig::default()
    }
}

#[test]
fn weak_scaling_stays_in_the_paper_band() {
    let cfg = quick_cfg();
    let pts = weak_scaling(&cfg, &[4, 16, 64, 256]);
    for p in &pts {
        assert!(p.efficiency > 0.9, "P = {}: eff {}", p.ranks, p.efficiency);
        assert!(p.efficiency <= 1.0 + 1e-9);
    }
    // Monotone non-increasing (up to tiny jitter noise).
    for w in pts.windows(2) {
        assert!(w[1].efficiency <= w[0].efficiency + 0.01);
    }
}

#[test]
fn default_weak_scaling_step_times_are_the_pinned_ones() {
    // The scaling clocks are modeled, hence machine-independent: these are
    // the Fig. 2 driver's t/MD step at its first four rank counts. Printed
    // so that a deliberate change to the model re-blesses them from the
    // output.
    let want = [20.1951, 20.3540, 20.4080, 20.4620];
    let pts = weak_scaling(&ScalingConfig::default(), &[4, 8, 16, 32]);
    assert_eq!(pts.len(), want.len());
    for (p, t) in pts.iter().zip(want) {
        println!("weak-scaling P = {}: {} s", p.ranks, p.sim_seconds);
        assert!(
            (p.sim_seconds / t - 1.0).abs() < 0.01,
            "P = {}: modeled step {} s left 1 % of {t}",
            p.ranks,
            p.sim_seconds
        );
    }
}

#[test]
fn default_weak_sweep_reaches_1024_ranks() {
    // Fig. 2's default sweep, as `fig2_weak_scaling` runs it: every rank
    // count up to P = 1,024 yields a point, and the last one is the
    // efficiency the figure prints.
    let ranks = [4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let pts = weak_scaling(&ScalingConfig::default(), &ranks);
    assert_eq!(pts.len(), 9);
    let eff = pts[8].efficiency;
    println!("weak-scaling efficiency at P = 1024: {eff}");
    assert!(
        (eff - 0.9741).abs() < 1e-4,
        "P = 1024: efficiency {eff} left 1e-4 of 0.9741"
    );
}

#[test]
fn strong_scaling_bands_match_figure3() {
    let cfg = quick_cfg();
    let s5120 = strong_scaling(&cfg, 5120, &[64, 128, 256]);
    let eff = s5120.last().unwrap().efficiency;
    // Paper: 0.6634. Allow the modeled band around it.
    assert!((0.5..0.85).contains(&eff), "5120-atom strong eff {eff}");
    // The time per step must actually shrink (it is strong scaling).
    assert!(s5120[2].sim_seconds < s5120[0].sim_seconds);
}

#[test]
fn strong_scaling_degrades_faster_than_weak() {
    let cfg = quick_cfg();
    let weak = weak_scaling(&cfg, &[64, 256]);
    let strong = strong_scaling(&cfg, 5120, &[64, 256]);
    assert!(strong.last().unwrap().efficiency < weak.last().unwrap().efficiency);
}

#[test]
fn efficiency_definitions_are_consistent_with_metrics_module() {
    let cfg = quick_cfg();
    let pts = weak_scaling(&cfg, &[4, 64]);
    let s_ref = Speed {
        atoms: pts[0].atoms,
        md_steps: 1,
        seconds: pts[0].sim_seconds,
    };
    let s_p = Speed {
        atoms: pts[1].atoms,
        md_steps: 1,
        seconds: pts[1].sim_seconds,
    };
    let eff = parallel_efficiency_weak(s_ref, 4, s_p, 64);
    assert!((eff - pts[1].efficiency).abs() < 1e-12);

    let st = strong_scaling(&cfg, 5120, &[64, 256]);
    let eff_s = parallel_efficiency_strong(st[0].sim_seconds, 64, st[1].sim_seconds, 256);
    assert!((eff_s - st[1].efficiency).abs() < 1e-12);
}

#[test]
fn throughput_speedup_in_figure4_band() {
    let (cpu, gpu) = single_node_throughput(&ScalingConfig::default());
    let speedup = gpu / cpu;
    // Paper: 19x. The modeled band depends on the QXMD/LFD split; require
    // the qualitative claim: order-of-magnitude node-level gain.
    assert!(speedup > 5.0 && speedup < 60.0, "Fig. 4 speedup {speedup}");
}

#[test]
fn analytic_models_bracket_measured_curves() {
    let cfg = quick_cfg();
    let m = AnalyticEfficiency {
        alpha: 0.02,
        beta: 0.12,
    };
    for p in weak_scaling(&cfg, &[4, 64, 256]) {
        let model = m.weak(cfg.atoms_per_rank as f64, p.ranks);
        assert!(
            (model - p.efficiency).abs() < 0.1,
            "P={}: {model} vs {}",
            p.ranks,
            p.efficiency
        );
    }
}
