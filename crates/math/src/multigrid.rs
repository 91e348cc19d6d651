//! Geometric multigrid Poisson solver.
//!
//! The DC-MESH recombine phase computes the *global* Hartree potential with a
//! "scalable O(N) multigrid method" (paper §II). This module implements that
//! substrate: a V-cycle with Gauss–Seidel smoothing, full-weighting
//! restriction and trilinear prolongation on a periodic uniform mesh,
//! solving `-lap(phi) = f` (with `f = 4 pi rho` for the Hartree problem).
//!
//! Periodic boundary conditions have a constant null space; the solver works
//! with mean-free right-hand sides and returns a mean-free potential.

/// Parameters of the multigrid cycle.
#[derive(Clone, Debug)]
pub struct MgParams {
    /// Pre-smoothing Gauss–Seidel sweeps per level.
    pub pre_sweeps: usize,
    /// Post-smoothing sweeps per level.
    pub post_sweeps: usize,
    /// Sweeps on the coarsest level (acts as the coarse solver).
    pub coarse_sweeps: usize,
    /// Maximum V-cycles.
    pub max_cycles: usize,
    /// Relative residual tolerance `||r|| / ||f||`.
    pub tol: f64,
}

impl Default for MgParams {
    fn default() -> Self {
        Self {
            pre_sweeps: 3,
            post_sweeps: 3,
            coarse_sweeps: 200,
            max_cycles: 40,
            tol: 1e-8,
        }
    }
}

/// Result of a multigrid solve.
#[derive(Clone, Debug)]
pub struct MgSolve {
    /// The mean-free solution `phi`.
    pub phi: Vec<f64>,
    /// Number of V-cycles performed.
    pub cycles: usize,
    /// Final relative residual.
    pub rel_residual: f64,
}

/// One grid level of the hierarchy.
#[derive(Clone, Debug)]
struct Level {
    nx: usize,
    ny: usize,
    nz: usize,
    hx2_inv: f64,
    hy2_inv: f64,
    hz2_inv: f64,
}

impl Level {
    fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    #[inline(always)]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        i + self.nx * (j + self.ny * k)
    }

    #[inline(always)]
    fn wrap(p: isize, n: usize) -> usize {
        let n = n as isize;
        (((p % n) + n) % n) as usize
    }

    /// One lexicographic Gauss–Seidel sweep for `-lap(phi) = f`.
    fn gauss_seidel(&self, phi: &mut [f64], f: &[f64]) {
        let diag = 2.0 * (self.hx2_inv + self.hy2_inv + self.hz2_inv);
        for k in 0..self.nz {
            let km = Self::wrap(k as isize - 1, self.nz);
            let kp = Self::wrap(k as isize + 1, self.nz);
            for j in 0..self.ny {
                let jm = Self::wrap(j as isize - 1, self.ny);
                let jp = Self::wrap(j as isize + 1, self.ny);
                for i in 0..self.nx {
                    let im = Self::wrap(i as isize - 1, self.nx);
                    let ip = Self::wrap(i as isize + 1, self.nx);
                    let nb = self.hx2_inv * (phi[self.idx(im, j, k)] + phi[self.idx(ip, j, k)])
                        + self.hy2_inv * (phi[self.idx(i, jm, k)] + phi[self.idx(i, jp, k)])
                        + self.hz2_inv * (phi[self.idx(i, j, km)] + phi[self.idx(i, j, kp)]);
                    phi[self.idx(i, j, k)] = (f[self.idx(i, j, k)] + nb) / diag;
                }
            }
        }
    }

    /// Residual `r = f - (-lap phi)`.
    fn residual(&self, phi: &[f64], f: &[f64], r: &mut [f64]) {
        let diag = 2.0 * (self.hx2_inv + self.hy2_inv + self.hz2_inv);
        for k in 0..self.nz {
            let km = Self::wrap(k as isize - 1, self.nz);
            let kp = Self::wrap(k as isize + 1, self.nz);
            for j in 0..self.ny {
                let jm = Self::wrap(j as isize - 1, self.ny);
                let jp = Self::wrap(j as isize + 1, self.ny);
                for i in 0..self.nx {
                    let im = Self::wrap(i as isize - 1, self.nx);
                    let ip = Self::wrap(i as isize + 1, self.nx);
                    let nb = self.hx2_inv * (phi[self.idx(im, j, k)] + phi[self.idx(ip, j, k)])
                        + self.hy2_inv * (phi[self.idx(i, jm, k)] + phi[self.idx(i, jp, k)])
                        + self.hz2_inv * (phi[self.idx(i, j, km)] + phi[self.idx(i, j, kp)]);
                    let ax = diag * phi[self.idx(i, j, k)] - nb;
                    r[self.idx(i, j, k)] = f[self.idx(i, j, k)] - ax;
                }
            }
        }
    }
}

/// Multigrid hierarchy for a periodic box of `nx x ny x nz` cells spanning
/// physical lengths `lx x ly x lz`.
pub struct Multigrid {
    levels: Vec<Level>,
    params: MgParams,
}

impl std::fmt::Debug for Multigrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Multigrid").finish_non_exhaustive()
    }
}

impl Multigrid {
    /// Build the hierarchy, coarsening by 2 while all dimensions stay even
    /// and at least 4 cells.
    pub fn new(
        nx: usize,
        ny: usize,
        nz: usize,
        lx: f64,
        ly: f64,
        lz: f64,
        params: MgParams,
    ) -> Self {
        assert!(
            nx >= 4 && ny >= 4 && nz >= 4,
            "grid too small for multigrid"
        );
        let mut levels = Vec::new();
        let (mut cx, mut cy, mut cz) = (nx, ny, nz);
        loop {
            let hx = lx / cx as f64;
            let hy = ly / cy as f64;
            let hz = lz / cz as f64;
            levels.push(Level {
                nx: cx,
                ny: cy,
                nz: cz,
                hx2_inv: 1.0 / (hx * hx),
                hy2_inv: 1.0 / (hy * hy),
                hz2_inv: 1.0 / (hz * hz),
            });
            if cx % 2 != 0 || cy % 2 != 0 || cz % 2 != 0 || cx / 2 < 4 || cy / 2 < 4 || cz / 2 < 4 {
                break;
            }
            cx /= 2;
            cy /= 2;
            cz /= 2;
        }
        Self { levels, params }
    }

    /// Number of levels in the hierarchy.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Solve `-lap(phi) = f` to the configured tolerance.
    /// The mean of `f` is removed (periodic compatibility condition).
    pub fn solve(&self, f: &[f64]) -> MgSolve {
        let fine = &self.levels[0];
        assert_eq!(f.len(), fine.len());
        let mut rhs = f.to_vec();
        remove_mean(&mut rhs);
        let fnorm = l2(&rhs).max(f64::MIN_POSITIVE);
        let mut phi = vec![0.0; fine.len()];
        let mut r = vec![0.0; fine.len()];
        let mut cycles = 0;
        let mut rel = 1.0;
        for _ in 0..self.params.max_cycles {
            self.vcycle(0, &mut phi, &rhs);
            remove_mean(&mut phi);
            fine.residual(&phi, &rhs, &mut r);
            cycles += 1;
            rel = l2(&r) / fnorm;
            if rel < self.params.tol {
                break;
            }
        }
        MgSolve {
            phi,
            cycles,
            rel_residual: rel,
        }
    }

    fn vcycle(&self, lvl: usize, phi: &mut [f64], f: &[f64]) {
        let level = &self.levels[lvl];
        if lvl + 1 == self.levels.len() {
            for _ in 0..self.params.coarse_sweeps {
                level.gauss_seidel(phi, f);
            }
            return;
        }
        for _ in 0..self.params.pre_sweeps {
            level.gauss_seidel(phi, f);
        }
        let mut r = vec![0.0; level.len()];
        level.residual(phi, f, &mut r);
        let coarse = &self.levels[lvl + 1];
        let mut fc = vec![0.0; coarse.len()];
        restrict(level, coarse, &r, &mut fc);
        remove_mean(&mut fc);
        let mut ec = vec![0.0; coarse.len()];
        self.vcycle(lvl + 1, &mut ec, &fc);
        prolong_add(level, coarse, &ec, phi);
        for _ in 0..self.params.post_sweeps {
            level.gauss_seidel(phi, f);
        }
    }
}

fn l2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn remove_mean(v: &mut [f64]) {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    for x in v.iter_mut() {
        *x -= mean;
    }
}

/// Full-weighting restriction (27-point) from `fine` onto `coarse`.
fn restrict(fine: &Level, coarse: &Level, rf: &[f64], rc: &mut [f64]) {
    for kc in 0..coarse.nz {
        for jc in 0..coarse.ny {
            for ic in 0..coarse.nx {
                let (i0, j0, k0) = (2 * ic, 2 * jc, 2 * kc);
                let mut acc = 0.0;
                for dk in -1i32..=1 {
                    for dj in -1i32..=1 {
                        for di in -1i32..=1 {
                            let w = weight(di) * weight(dj) * weight(dk);
                            let i = Level::wrap(i0 as isize + di as isize, fine.nx);
                            let j = Level::wrap(j0 as isize + dj as isize, fine.ny);
                            let k = Level::wrap(k0 as isize + dk as isize, fine.nz);
                            acc += w * rf[fine.idx(i, j, k)];
                        }
                    }
                }
                rc[coarse.idx(ic, jc, kc)] = acc;
            }
        }
    }
}

#[inline(always)]
fn weight(d: i32) -> f64 {
    if d == 0 {
        0.5
    } else {
        0.25
    }
}

/// Trilinear prolongation of the coarse correction, added onto the fine grid.
fn prolong_add(fine: &Level, coarse: &Level, ec: &[f64], phi: &mut [f64]) {
    for k in 0..fine.nz {
        let kf = k as f64 / 2.0;
        let k0 = (kf.floor() as usize) % coarse.nz;
        let k1 = (k0 + 1) % coarse.nz;
        let wk = kf - kf.floor();
        for j in 0..fine.ny {
            let jf = j as f64 / 2.0;
            let j0 = (jf.floor() as usize) % coarse.ny;
            let j1 = (j0 + 1) % coarse.ny;
            let wj = jf - jf.floor();
            for i in 0..fine.nx {
                let ifl = i as f64 / 2.0;
                let i0 = (ifl.floor() as usize) % coarse.nx;
                let i1 = (i0 + 1) % coarse.nx;
                let wi = ifl - ifl.floor();
                let c000 = ec[coarse.idx(i0, j0, k0)];
                let c100 = ec[coarse.idx(i1, j0, k0)];
                let c010 = ec[coarse.idx(i0, j1, k0)];
                let c110 = ec[coarse.idx(i1, j1, k0)];
                let c001 = ec[coarse.idx(i0, j0, k1)];
                let c101 = ec[coarse.idx(i1, j0, k1)];
                let c011 = ec[coarse.idx(i0, j1, k1)];
                let c111 = ec[coarse.idx(i1, j1, k1)];
                let v = (1.0 - wk)
                    * ((1.0 - wj) * ((1.0 - wi) * c000 + wi * c100)
                        + wj * ((1.0 - wi) * c010 + wi * c110))
                    + wk * ((1.0 - wj) * ((1.0 - wi) * c001 + wi * c101)
                        + wj * ((1.0 - wi) * c011 + wi * c111));
                phi[fine.idx(i, j, k)] += v;
            }
        }
    }
}

/// Count of fine-grid point updates a full V-cycle performs — used by the
/// scaling model to account the O(N) cost of the global Hartree solve.
pub fn vcycle_work_estimate(nx: usize, ny: usize, nz: usize, params: &MgParams) -> u64 {
    // Geometric series over levels: N + N/8 + N/64 + ... < 8N/7 per sweep.
    let n = (nx * ny * nz) as u64;
    let sweeps = (params.pre_sweeps + params.post_sweeps + 2) as u64; // +residual/restrict
    n * sweeps * 8 / 7
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::poisson_fft_periodic;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn hierarchy_depth() {
        let mg = Multigrid::new(32, 32, 32, 1.0, 1.0, 1.0, MgParams::default());
        assert_eq!(mg.depth(), 4); // 32 -> 16 -> 8 -> 4
        let mg = Multigrid::new(24, 24, 24, 1.0, 1.0, 1.0, MgParams::default());
        assert_eq!(mg.depth(), 3); // 24 -> 12 -> 6 (6/2 = 3 < 4 stops)
    }

    #[test]
    fn solves_single_cosine_mode() {
        let n = 16;
        let l = 4.0;
        let mg = Multigrid::new(n, n, n, l, l, l, MgParams::default());
        let mut f = vec![0.0; n * n * n];
        let kx = 2.0 * std::f64::consts::PI / l;
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let x = i as f64 * l / n as f64;
                    f[i + n * (j + n * k)] = (kx * x).cos();
                }
            }
        }
        let sol = mg.solve(&f);
        assert!(sol.rel_residual < 1e-8, "residual {}", sol.rel_residual);
        // -lap(phi) = cos(kx x) has phi = cos / keff^2 with the *discrete*
        // eigenvalue keff^2 = (2 - 2 cos(kx h)) / h^2.
        let h = l / n as f64;
        let keff2 = (2.0 - 2.0 * (kx * h).cos()) / (h * h);
        for i in 0..n {
            let idx = i + n * (3 + n * 5);
            let want = f[idx] / keff2;
            assert!((sol.phi[idx] - want).abs() < 1e-6, "i={i}");
        }
    }

    #[test]
    fn matches_fft_reference_on_random_rhs() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 16;
        let l = 5.0;
        let mut rho = vec![0.0; n * n * n];
        for r in rho.iter_mut() {
            *r = rng.gen_range(-1.0..1.0);
        }
        let mean = rho.iter().sum::<f64>() / rho.len() as f64;
        for r in rho.iter_mut() {
            *r -= mean;
        }
        // Smooth the random field a touch so the FD/spectral operator
        // difference stays small: one Jacobi-like averaging pass.
        let smooth = |v: &[f64]| -> Vec<f64> {
            let lvl = Level {
                nx: n,
                ny: n,
                nz: n,
                hx2_inv: 1.0,
                hy2_inv: 1.0,
                hz2_inv: 1.0,
            };
            let mut out = vec![0.0; v.len()];
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        let mut acc = 2.0 * v[lvl.idx(i, j, k)];
                        for (di, dj, dk) in [
                            (1i32, 0i32, 0i32),
                            (-1, 0, 0),
                            (0, 1, 0),
                            (0, -1, 0),
                            (0, 0, 1),
                            (0, 0, -1),
                        ] {
                            let ii = Level::wrap(i as isize + di as isize, n);
                            let jj = Level::wrap(j as isize + dj as isize, n);
                            let kk = Level::wrap(k as isize + dk as isize, n);
                            acc += v[lvl.idx(ii, jj, kk)];
                        }
                        out[lvl.idx(i, j, k)] = acc / 8.0;
                    }
                }
            }
            out
        };
        let rho = smooth(&smooth(&rho));
        let f: Vec<f64> = rho
            .iter()
            .map(|&r| 4.0 * std::f64::consts::PI * r)
            .collect();
        let mg = Multigrid::new(n, n, n, l, l, l, MgParams::default());
        let sol = mg.solve(&f);
        assert!(sol.rel_residual < 1e-8);
        let mut phi_fft = poisson_fft_periodic(&rho, n, n, n, l, l, l);
        remove_mean(&mut phi_fft);
        let mut phi_mg = sol.phi.clone();
        remove_mean(&mut phi_mg);
        // FD (multigrid) vs spectral (FFT) discretizations differ at O(h^2);
        // compare with a modest relative tolerance.
        let ref_norm = l2(&phi_fft);
        let diff: f64 = phi_mg
            .iter()
            .zip(&phi_fft)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(diff / ref_norm < 0.15, "rel diff {}", diff / ref_norm);
    }

    #[test]
    fn vcycle_converges_fast() {
        // A healthy V-cycle contracts the residual by >~5x per cycle.
        let n = 32;
        let params = MgParams {
            max_cycles: 8,
            tol: 1e-12,
            ..MgParams::default()
        };
        let mg = Multigrid::new(n, n, n, 2.0, 2.0, 2.0, params);
        let mut rng = StdRng::seed_from_u64(32);
        let mut f: Vec<f64> = (0..n * n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        remove_mean(&mut f);
        let sol = mg.solve(&f);
        assert!(
            sol.rel_residual < 1e-5,
            "after {} cycles residual {}",
            sol.cycles,
            sol.rel_residual
        );
    }

    #[test]
    fn solution_is_mean_free() {
        let n = 8;
        let mg = Multigrid::new(n, n, n, 1.0, 1.0, 1.0, MgParams::default());
        let mut rng = StdRng::seed_from_u64(33);
        let f: Vec<f64> = (0..n * n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let sol = mg.solve(&f);
        let mean = sol.phi.iter().sum::<f64>() / sol.phi.len() as f64;
        assert!(mean.abs() < 1e-12);
    }

    #[test]
    fn work_estimate_scales_linearly() {
        let p = MgParams::default();
        let w1 = vcycle_work_estimate(16, 16, 16, &p);
        let w2 = vcycle_work_estimate(32, 32, 32, &p);
        let ratio = w2 as f64 / w1 as f64;
        assert!((ratio - 8.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn anisotropic_spacing_accepted() {
        let mg = Multigrid::new(16, 8, 8, 4.0, 1.0, 1.0, MgParams::default());
        let mut f = vec![0.0; 16 * 8 * 8];
        f[0] = 1.0;
        f[1] = -1.0;
        let sol = mg.solve(&f);
        assert!(sol.rel_residual < 1e-8);
    }
}
