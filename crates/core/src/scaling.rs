//! Weak/strong scaling drivers (paper Figs. 2-3) and the analytic
//! parallel-efficiency models of §IV-A.
//!
//! Strategy (DESIGN.md substitution table): the paper measured wall-clock
//! on up to 1,024 ranks of Polaris; we have one machine. The drivers
//! therefore step one modeled clock per simulated rank in lockstep, where
//!
//! * per-rank *compute* time comes from the calibrated roofline model of
//!   the per-rank DC-MESH workload (LFD on the A100 model + QXMD on the
//!   EPYC model) plus a deterministic per-rank load-imbalance jitter, and
//! * *communication* is modeled message passing with physically sized
//!   messages on the [`NetworkModel`]: halo exchanges with the domain
//!   neighbours per SCF iteration, settled by the rule
//!   [`OverlapStats::settle`] that the `dcmesh_comm` fabric's receives use,
//!   and tree collectives for the global potential.
//!
//! The simulated makespan then yields the same efficiency definitions the
//! paper uses. Calibration constants are documented in EXPERIMENTS.md; the
//! claim reproduced is the *shape* (flat weak scaling with a log P decay;
//! strong scaling degrading with P^(1/3) and P log P terms).

use dcmesh_comm::{NetworkModel, OverlapStats};
use dcmesh_device::HardwareSpec;

/// The analytic efficiency models of §IV-A.
#[derive(Clone, Debug)]
pub struct AnalyticEfficiency {
    /// Surface-to-volume coefficient (alpha).
    pub alpha: f64,
    /// Global-operation coefficient (beta).
    pub beta: f64,
}

impl AnalyticEfficiency {
    /// Weak scaling: `eta = 1 / (1 + alpha n^(-1/3) + beta n^(-1) log P)`
    /// with constant granularity `n = N / P`.
    pub fn weak(&self, n_per_rank: f64, p: usize) -> f64 {
        let logp = (p.max(2) as f64).ln();
        1.0 / (1.0 + self.alpha * n_per_rank.powf(-1.0 / 3.0) + self.beta / n_per_rank * logp)
    }

    /// Strong scaling: `eta = 1 / (1 + alpha (P/N)^(1/3) + beta N^(-1) P log P)`
    /// with constant total size `N`.
    pub fn strong(&self, n_total: f64, p: usize) -> f64 {
        let logp = (p.max(2) as f64).ln();
        1.0 / (1.0
            + self.alpha * (p as f64 / n_total).powf(1.0 / 3.0)
            + self.beta * p as f64 * logp / n_total)
    }
}

/// Scaling-driver configuration. Defaults reproduce the paper's setup:
/// 40 atoms (8 unit cells) per rank, 70x70x72 LFD mesh, 64 LFD orbitals,
/// 1,000 QD steps and 3 SCF x 3 CG iterations per MD step.
#[derive(Clone, Debug)]
pub struct ScalingConfig {
    /// Atoms per rank in the weak-scaling (isogranular) setup.
    pub atoms_per_rank: usize,
    /// LFD mesh points per rank at the reference granularity.
    pub mesh_points_per_rank: usize,
    /// LFD orbitals per rank at the reference granularity.
    pub lfd_orbitals: usize,
    /// QXMD KS wavefunctions per rank (plane-wave side).
    pub qxmd_orbitals: usize,
    /// QD steps per MD step.
    pub n_qd: usize,
    /// SCF iterations per MD step.
    pub scf_iters: usize,
    /// CG iterations per SCF.
    pub cg_iters: usize,
    /// Network model.
    pub net: NetworkModel,
    /// Fractional deterministic load imbalance across ranks (the paper's
    /// dominant weak-scaling loss; DC domains have unequal work).
    pub imbalance: f64,
    /// DC-domain buffer width in unit cells: the LDC buffer shell is
    /// recomputed with every domain, so shrinking cores (strong scaling)
    /// pay a growing surface-to-volume overhead — the `alpha (P/N)^(1/3)`
    /// term of the paper's strong-scaling analysis.
    pub buffer_cells: f64,
    /// Per-tree-level cost of the global multigrid potential solve
    /// (seconds per SCF per log2 P level): the coarse levels have fewer
    /// points than ranks, so their smoothing/broadcast depth grows with
    /// the reduction-tree height — the `beta log P` term of §IV-A.
    pub global_solve_serial: f64,
    /// Accelerator model for LFD.
    pub device: HardwareSpec,
    /// Host model for QXMD.
    pub host: HardwareSpec,
    /// Post the halo exchange *before* the SCF compute slice (the paper's
    /// Alg. 5 `nowait` discipline applied at the MPI layer) so the modeled
    /// transfer hides behind compute. `false` is the `--no-overlap`
    /// ablation: sends are stamped after the slice and every transfer is
    /// exposed on the critical path.
    pub overlap: bool,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        Self {
            atoms_per_rank: 40,
            mesh_points_per_rank: 70 * 70 * 72,
            lfd_orbitals: 64,
            qxmd_orbitals: 288,
            n_qd: 1000,
            scf_iters: 3,
            cg_iters: 3,
            net: NetworkModel::slingshot11(),
            imbalance: 0.035,
            buffer_cells: 0.4,
            global_solve_serial: 0.018,
            device: HardwareSpec::a100(),
            host: HardwareSpec::epyc_7543_socket(),
            overlap: true,
        }
    }
}

/// One point on a scaling curve.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// MPI ranks.
    pub ranks: usize,
    /// Total atoms.
    pub atoms: usize,
    /// Simulated wall-clock for one MD step (seconds).
    pub sim_seconds: f64,
    /// Parallel efficiency relative to the curve's reference point.
    pub efficiency: f64,
    /// Total exposed halo-exchange stall time across all ranks (seconds).
    pub comm_wait_s: f64,
    /// Fraction of the modeled halo-transfer window hidden behind the SCF
    /// compute slice, aggregated over ranks (0 with `overlap: false`).
    pub overlap_ratio: f64,
}

impl ScalingConfig {
    /// Modeled compute time of one rank's MD step at granularity
    /// `scale` x the reference workload (scale = atoms_rank / 40).
    pub fn rank_compute_time(&self, scale: f64) -> f64 {
        let ngrid = (self.mesh_points_per_rank as f64 * scale) as u64;
        let norb = self.lfd_orbitals as u64;
        let csize = 8u64; // single-precision complex, the production choice
                          // LFD per QD step: 15 kinetic passes + 2 potential + nonlocal GEMMs.
        let stencil_bytes = 17 * 2 * ngrid * norb * csize;
        let nu = norb / 4;
        let gemm_flops = 2 * 8 * ngrid * norb * nu;
        let lfd_step = dcmesh_device::KernelWork {
            bytes: stencil_bytes,
            flops: 16 * ngrid * norb + gemm_flops,
            precision: Some(dcmesh_device::Precision::Sp),
        };
        let t_lfd = self.device.kernel_time(&lfd_step) * self.n_qd as f64;
        // QXMD per MD step: SCF x CG plane-wave band updates on the host
        // (each CG refinement of a band is an FFT-based H*psi application,
        // ~10 N log2 N real flops) plus the density build.
        let pw = self.qxmd_orbitals as u64;
        let logn = (ngrid.max(2) as f64).log2();
        let qxmd_flops =
            (self.scf_iters * self.cg_iters) as u64 * pw * (10.0 * ngrid as f64 * logn) as u64
                + 16 * ngrid * pw;
        let t_qxmd = self.host.kernel_time(&dcmesh_device::KernelWork {
            bytes: 4 * ngrid * pw,
            flops: qxmd_flops,
            precision: Some(dcmesh_device::Precision::Dp),
        });
        (t_lfd + t_qxmd) * self.buffer_overhead_factor(scale)
    }

    /// Work inflation from the LDC buffer shell: a domain core of side `s`
    /// unit cells is solved on a mesh of side `s + 2 b`, so the work ratio
    /// is `(s + 2b)^3 / s^3`. Constant in weak scaling (fixed granularity),
    /// growing as cores shrink in strong scaling.
    pub fn buffer_overhead_factor(&self, scale: f64) -> f64 {
        let atoms = self.atoms_per_rank as f64 * scale;
        // 5 atoms per perovskite unit cell.
        let side = (atoms / 5.0).powf(1.0 / 3.0).max(0.5);
        ((side + 2.0 * self.buffer_cells) / side).powi(3)
    }

    /// Deterministic per-rank jitter factor in `[1, 1 + imbalance]`
    /// (splitmix-style hash so the distribution is scale-free in P).
    pub fn jitter(&self, rank: usize) -> f64 {
        let mut x = rank as u64 ^ 0x9E37_79B9_7F4A_7C15;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        1.0 + self.imbalance * (x as f64 / u64::MAX as f64)
    }

    /// Halo bytes one rank exchanges with each neighbour per SCF iteration
    /// (one face of the domain mesh, complex f64).
    pub fn halo_bytes(&self, scale: f64) -> u64 {
        let ngrid = self.mesh_points_per_rank as f64 * scale;
        let face = ngrid.powf(2.0 / 3.0);
        (face * 16.0) as u64
    }
}

/// Simulate one MD step on `p` ranks at per-rank granularity `scale`;
/// returns the simulated makespan (max rank completion time) plus the
/// world-aggregated halo overlap accounting.
///
/// The ranks' clocks step in lockstep, one SCF iteration at a time: every
/// rank stamps its halo sends, then settles its two receives (`prev`, then
/// `next`) through [`OverlapStats::settle`], the rule `Rank::wait` applies
/// to a real message; the global potential solve and its tree allreduce end
/// the iteration, and a barrier ends the step. A single rank exchanges
/// nothing and pays no collective.
fn simulate_md_step(cfg: &ScalingConfig, p: usize, scale: f64) -> (f64, OverlapStats) {
    assert!(p >= 1, "need at least one rank");
    let t_base = cfg.rank_compute_time(scale);
    let halo_bytes = (3 * cfg.halo_bytes(scale)) as usize;
    // Coarse-level depth of the global multigrid solve (log2 P levels).
    let global_solve = cfg.global_solve_serial * (p.max(2) as f64).log2().ceil();
    let mut clock = vec![0.0f64; p];
    let mut stats = vec![OverlapStats::default(); p];
    // Every rank joins the collective at the slowest rank's clock and
    // leaves it after the modeled tree.
    let collective = |clock: &mut [f64], bytes: usize| {
        if p > 1 {
            let done =
                clock.iter().copied().fold(0.0, f64::max) + cfg.net.tree_collective_time(bytes, p);
            clock.fill(done);
        }
    };
    for _ in 0..cfg.scf_iters {
        let posted = clock.clone();
        // Local compute slice of this SCF iteration (+ LFD on the last).
        for (id, c) in clock.iter_mut().enumerate() {
            *c += t_base / cfg.scf_iters as f64 * cfg.jitter(id);
        }
        if p > 1 {
            // Halo exchange with the two ring neighbours (the 1D projection
            // of the 6-neighbour exchange; bytes scaled accordingly). The
            // faces sent are the *previous* SCF iterate's boundary, available
            // before the slice starts, so the exchange is posted first and
            // settled where the new iterate needs it — the transfer rides
            // under compute. The `--no-overlap` ablation stamps the sends
            // after the slice and posts each receive where it waits, so
            // every receive exposes the full transfer.
            let stamp = if cfg.overlap { &posted } else { &clock }.clone();
            for id in 0..p {
                for from in [(id + p - 1) % p, (id + 1) % p] {
                    let arrival = stamp[from] + cfg.net.p2p_time(halo_bytes, from, id);
                    let post = if cfg.overlap { posted[id] } else { clock[id] };
                    clock[id] = stats[id].settle(post, clock[id], arrival);
                }
            }
        }
        // Global potential: the log P-deep coarse-level solve of the
        // multigrid, then a coarse-grid tree reduction + broadcast.
        for c in clock.iter_mut() {
            *c += global_solve;
        }
        collective(&mut clock, 512 * 8);
    }
    collective(&mut clock, 0); // the closing barrier
    let makespan = clock.iter().copied().fold(0.0, f64::max);
    let mut total = OverlapStats::default();
    for s in &stats {
        total.merge(s);
    }
    (makespan, total)
}

/// Weak-scaling sweep (paper Fig. 2): constant `atoms_per_rank`, P grows.
pub fn weak_scaling(cfg: &ScalingConfig, rank_counts: &[usize]) -> Vec<ScalingPoint> {
    assert!(!rank_counts.is_empty());
    let mut points = Vec::with_capacity(rank_counts.len());
    let mut ref_speed = None;
    for &p in rank_counts {
        let (t, stats) = simulate_md_step(cfg, p, 1.0);
        let atoms = cfg.atoms_per_rank * p;
        let speed = atoms as f64 / t;
        let p_ref = rank_counts[0];
        let eff = match ref_speed {
            None => {
                ref_speed = Some((speed, p_ref));
                1.0
            }
            Some((s0, p0)) => (speed / s0) / (p as f64 / p0 as f64),
        };
        points.push(ScalingPoint {
            ranks: p,
            atoms,
            sim_seconds: t,
            efficiency: eff,
            comm_wait_s: stats.wait_s,
            overlap_ratio: stats.overlap_ratio(),
        });
    }
    points
}

/// Strong-scaling sweep (paper Fig. 3): constant total `atoms`, P grows.
pub fn strong_scaling(
    cfg: &ScalingConfig,
    total_atoms: usize,
    rank_counts: &[usize],
) -> Vec<ScalingPoint> {
    assert!(!rank_counts.is_empty());
    let mut points = Vec::with_capacity(rank_counts.len());
    let mut reference: Option<(f64, usize)> = None;
    for &p in rank_counts {
        let scale = total_atoms as f64 / p as f64 / cfg.atoms_per_rank as f64;
        let (t, stats) = simulate_md_step(cfg, p, scale);
        let eff = match reference {
            None => {
                reference = Some((t, p));
                1.0
            }
            Some((t0, p0)) => (t0 / t) / (p as f64 / p0 as f64),
        };
        points.push(ScalingPoint {
            ranks: p,
            atoms: total_atoms,
            sim_seconds: t,
            efficiency: eff,
            comm_wait_s: stats.wait_s,
            overlap_ratio: stats.overlap_ratio(),
        });
    }
    points
}

/// Fig. 4: single-node throughput comparison. Returns
/// `(cpu_throughput, gpu_throughput)` in ranks/second for 4 ranks running
/// the fixed per-rank problem on the host model vs. host + device.
pub fn single_node_throughput(cfg: &ScalingConfig) -> (f64, f64) {
    // CPU-only: the LFD work also runs on the host.
    let ngrid = cfg.mesh_points_per_rank as u64;
    let norb = cfg.lfd_orbitals as u64;
    let nu = norb / 4;
    let lfd_work = dcmesh_device::KernelWork {
        bytes: 17 * 2 * ngrid * norb * 8,
        flops: 16 * ngrid * norb + 2 * 8 * ngrid * norb * nu,
        precision: Some(dcmesh_device::Precision::Sp),
    };
    // Four ranks share the 32-core socket.
    let mut quarter_socket = cfg.host.clone();
    quarter_socket.mem_bw /= 4.0;
    quarter_socket.peak_sp /= 4.0;
    quarter_socket.peak_dp /= 4.0;
    let t_lfd_cpu = quarter_socket.kernel_time(&lfd_work) * cfg.n_qd as f64;
    let t_lfd_gpu = cfg.device.kernel_time(&lfd_work) * cfg.n_qd as f64;
    let pw = cfg.qxmd_orbitals as u64;
    let logn = (ngrid.max(2) as f64).log2();
    let t_qxmd = quarter_socket.kernel_time(&dcmesh_device::KernelWork {
        bytes: 4 * ngrid * pw,
        flops: (cfg.scf_iters * cfg.cg_iters) as u64 * pw * (10.0 * ngrid as f64 * logn) as u64
            + 16 * ngrid * pw,
        precision: Some(dcmesh_device::Precision::Dp),
    });
    let t_cpu = t_qxmd + t_lfd_cpu;
    let t_gpu = t_qxmd + t_lfd_gpu;
    (4.0 / t_cpu, 4.0 / t_gpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ScalingConfig {
        // Shrink the modeled workload so tests run in milliseconds.
        ScalingConfig {
            n_qd: 50,
            global_solve_serial: 0.0009,
            ..ScalingConfig::default()
        }
    }

    #[test]
    fn analytic_weak_model_decays_logarithmically() {
        let m = AnalyticEfficiency {
            alpha: 0.05,
            beta: 0.4,
        };
        let e4 = m.weak(40.0, 4);
        let e1024 = m.weak(40.0, 1024);
        assert!(e4 > e1024);
        assert!(e1024 > 0.9, "weak model collapsed: {e1024}");
    }

    #[test]
    fn analytic_strong_model_decays_faster() {
        let m = AnalyticEfficiency {
            alpha: 0.5,
            beta: 1.0,
        };
        let weak_drop = m.weak(40.0, 4) - m.weak(40.0, 256);
        let strong_drop = m.strong(5120.0, 4 * 40) - m.strong(5120.0, 256 * 40);
        assert!(strong_drop > weak_drop, "strong should degrade faster");
    }

    #[test]
    fn weak_scaling_efficiency_high_and_decaying() {
        let cfg = quick_cfg();
        let pts = weak_scaling(&cfg, &[4, 16, 64]);
        assert_eq!(pts[0].efficiency, 1.0);
        assert!(pts[2].efficiency < pts[0].efficiency + 1e-12);
        assert!(pts[2].efficiency > 0.90, "weak eff {}", pts[2].efficiency);
        // Atoms grow with ranks.
        assert_eq!(pts[2].atoms, 64 * 40);
    }

    #[test]
    fn strong_scaling_efficiency_decays_below_weak() {
        let cfg = quick_cfg();
        let strong = strong_scaling(&cfg, 5120, &[64, 128, 256]);
        assert_eq!(strong[0].efficiency, 1.0);
        let last = strong.last().unwrap();
        // Paper Fig. 3: 0.6634 at P = 256 for 5,120 atoms.
        assert!(
            last.efficiency > 0.5 && last.efficiency < 0.85,
            "strong eff out of paper band: {}",
            last.efficiency
        );
        // Time per step shrinks as ranks grow (it is strong scaling).
        assert!(strong[2].sim_seconds < strong[0].sim_seconds);
    }

    #[test]
    fn gpu_throughput_beats_cpu_substantially() {
        let cfg = ScalingConfig::default();
        let (cpu, gpu) = single_node_throughput(&cfg);
        let speedup = gpu / cpu;
        assert!(
            speedup > 5.0 && speedup < 100.0,
            "Fig. 4 speedup out of range: {speedup}"
        );
    }

    #[test]
    fn rank_compute_time_scales_roughly_linearly() {
        let cfg = ScalingConfig::default();
        let t1 = cfg.rank_compute_time(1.0);
        let t2 = cfg.rank_compute_time(2.0);
        let ratio = t2 / t1;
        // Linear in the core work, slightly sublinear overall because the
        // relative buffer overhead shrinks as domains grow.
        assert!(ratio > 1.5 && ratio < 2.2, "ratio {ratio}");
        // And the buffer factor itself is monotone decreasing in size.
        assert!(cfg.buffer_overhead_factor(0.5) > cfg.buffer_overhead_factor(2.0));
    }

    #[test]
    fn overlap_strictly_reduces_modeled_step_time() {
        // Acceptance criterion: at P >= 8 the posted-exchange path must be
        // strictly faster than the --no-overlap ablation. The saving per
        // SCF iteration is the halo p2p time of the critical-path rank's
        // exchange (every rank is someone's neighbour, so the makespan of
        // the blocking order carries slice_max + p2p into each allreduce).
        let with = quick_cfg();
        let without = ScalingConfig {
            overlap: false,
            ..quick_cfg()
        };
        for p in [8usize, 16, 64] {
            let (t_overlap, s_overlap) = simulate_md_step(&with, p, 1.0);
            let (t_blocking, s_blocking) = simulate_md_step(&without, p, 1.0);
            assert!(
                t_overlap < t_blocking,
                "P={p}: overlap {t_overlap} !< blocking {t_blocking}"
            );
            assert!(
                s_overlap.overlap_ratio() > s_blocking.overlap_ratio(),
                "P={p}: ratios {} vs {}",
                s_overlap.overlap_ratio(),
                s_blocking.overlap_ratio()
            );
            assert_eq!(s_blocking.hidden_s, 0.0, "blocking order must hide nothing");
        }
    }

    #[test]
    fn two_rank_step_is_the_closed_form_in_both_orders() {
        // One SCF iteration on two ranks: each rank's receives settle
        // against the other's stamp (before its slice when overlapped,
        // after it when blocking), the global solve adds g, and the
        // allreduce and the barrier start from the slower rank.
        for overlap in [true, false] {
            let cfg = ScalingConfig {
                scf_iters: 1,
                overlap,
                ..quick_cfg()
            };
            let slice = [0, 1].map(|r| cfg.rank_compute_time(1.0) * cfg.jitter(r));
            let p2p = cfg.net.p2p_time((3 * cfg.halo_bytes(1.0)) as usize, 0, 1);
            let g = cfg.global_solve_serial;
            let end = [0, 1].map(|r| {
                let settled = if overlap {
                    slice[r].max(p2p)
                } else {
                    slice[r].max(slice[1 - r] + p2p)
                };
                settled + g
            });
            let want = end[0].max(end[1])
                + cfg.net.tree_collective_time(512 * 8, 2)
                + cfg.net.tree_collective_time(0, 2);
            let (t, stats) = simulate_md_step(&cfg, 2, 1.0);
            assert!(
                (t / want - 1.0).abs() < 1e-12,
                "overlap {overlap}: step {t} vs closed form {want}"
            );
            assert_eq!(stats.receives, 4);
            if !overlap {
                assert_eq!(stats.hidden_s, 0.0, "blocking order must hide nothing");
            }
        }
    }

    #[test]
    fn overlap_stats_flow_into_scaling_points() {
        let pts = weak_scaling(&quick_cfg(), &[8]);
        assert!(pts[0].overlap_ratio > 0.0 && pts[0].overlap_ratio <= 1.0);
        // Fully hidden halos leave no exposed wait in this regime.
        assert!(pts[0].comm_wait_s >= 0.0);
    }

    #[test]
    fn jitter_bounded_and_deterministic() {
        let cfg = ScalingConfig::default();
        for r in 0..2000 {
            let j = cfg.jitter(r);
            assert!(j >= 1.0 && j <= 1.0 + cfg.imbalance);
            assert_eq!(j, cfg.jitter(r));
        }
    }
}
