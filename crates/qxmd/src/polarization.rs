//! Polarization-field analysis and Landau–Khalatnikov switching dynamics.
//!
//! The application study (paper §V, Fig. 7) follows the flux-closure polar
//! topology of strained PbTiO3 under femtosecond laser drive. Two pieces
//! live here:
//!
//! * [`PolarizationField`] — the coarse-grained per-cell polarization map
//!   (from [`crate::pbtio3::Supercell`]) with the topological observables:
//!   toroidal moment `G = <r x P>_y` and the winding/vorticity measure that
//!   distinguishes flux closure from mono-domain states.
//! * [`LkDynamics`] — Landau–Khalatnikov relaxational dynamics
//!   `dP/dt = -Gamma dF/dP` in the double-well free energy
//!   `F = sum_cells [-(alpha/2)(1 - s n_exc) P^2 + (beta/4) P^4 - E.P] +
//!   (kappa/2) sum_<cells> |P_i - P_j|^2`, where `n_exc` is the
//!   laser-induced excited-carrier density LFD reports: excitation screens
//!   the double well, lowering the switching barrier — the mechanism behind
//!   light-induced topological switching (refs \[12, 35\]).

use dcmesh_pool::arena::with_scratch;

use crate::pbtio3::Supercell;

/// A 2D (x-z plane) polarization field on the supercell's cell grid.
#[derive(Clone, Debug)]
pub struct PolarizationField {
    /// Cells along x.
    pub nx: usize,
    /// Cells along z.
    pub nz: usize,
    /// Px per cell, row-major `[ix * nz + iz]`.
    pub px: Vec<f64>,
    /// Pz per cell.
    pub pz: Vec<f64>,
    /// Cell dimensions (Bohr).
    pub cell: [f64; 2],
}

impl PolarizationField {
    /// Extract the x-z polarization map of layer `iy` from a supercell.
    pub fn from_supercell(sc: &Supercell, iy: usize) -> Self {
        let (nx, nz) = (sc.dims[0], sc.dims[2]);
        let mut px = vec![0.0; nx * nz];
        let mut pz = vec![0.0; nx * nz];
        for ix in 0..nx {
            for iz in 0..nz {
                let p = sc.cell_polarization(ix, iy, iz);
                px[ix * nz + iz] = p[0];
                pz[ix * nz + iz] = p[2];
            }
        }
        Self {
            nx,
            nz,
            px,
            pz,
            cell: [sc.cell.a[0], sc.cell.a[2]],
        }
    }

    /// Build directly from component arrays.
    pub fn from_components(
        nx: usize,
        nz: usize,
        px: Vec<f64>,
        pz: Vec<f64>,
        cell: [f64; 2],
    ) -> Self {
        assert_eq!(px.len(), nx * nz);
        assert_eq!(pz.len(), nx * nz);
        Self {
            nx,
            nz,
            px,
            pz,
            cell,
        }
    }

    /// True when both components are finite in every cell.
    pub fn is_finite(&self) -> bool {
        self.px.iter().chain(&self.pz).all(|p| p.is_finite())
    }

    /// Mean polarization vector `(Px, Pz)`.
    pub fn mean(&self) -> [f64; 2] {
        let n = (self.nx * self.nz) as f64;
        [
            self.px.iter().sum::<f64>() / n,
            self.pz.iter().sum::<f64>() / n,
        ]
    }

    /// Mean polarization magnitude per cell.
    pub fn mean_magnitude(&self) -> f64 {
        let n = (self.nx * self.nz) as f64;
        self.px
            .iter()
            .zip(&self.pz)
            .map(|(&x, &z)| (x * x + z * z).sqrt())
            .sum::<f64>()
            / n
    }

    /// Toroidal moment (y component): `G = (1/N) sum (r - r0) x P`,
    /// the order parameter of the flux-closure vortex.
    pub fn toroidal_moment(&self) -> f64 {
        let cx = (self.nx as f64 - 1.0) / 2.0 * self.cell[0];
        let cz = (self.nz as f64 - 1.0) / 2.0 * self.cell[1];
        let mut g = 0.0;
        for ix in 0..self.nx {
            for iz in 0..self.nz {
                let x = ix as f64 * self.cell[0] - cx;
                let z = iz as f64 * self.cell[1] - cz;
                let i = ix * self.nz + iz;
                // (r x P)_y = z * Px - x * Pz
                g += z * self.px[i] - x * self.pz[i];
            }
        }
        g / (self.nx * self.nz) as f64
    }

    /// Discrete curl average `(dPx/dz - dPz/dx)` — the vorticity density.
    pub fn mean_vorticity(&self) -> f64 {
        let mut v = 0.0;
        let mut count = 0usize;
        for ix in 0..self.nx.saturating_sub(1) {
            for iz in 0..self.nz.saturating_sub(1) {
                let i = ix * self.nz + iz;
                let ixp = (ix + 1) * self.nz + iz;
                let izp = ix * self.nz + iz + 1;
                let dpx_dz = (self.px[izp] - self.px[i]) / self.cell[1];
                let dpz_dx = (self.pz[ixp] - self.pz[i]) / self.cell[0];
                v += dpx_dz - dpz_dx;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            v / count as f64
        }
    }

    /// ASCII rendering of the field (one glyph per cell by angle) — the
    /// textual stand-in for Fig. 7's vector map.
    pub fn render_ascii(&self) -> String {
        let glyphs = [
            '\u{2192}', '\u{2197}', '\u{2191}', '\u{2196}', '\u{2190}', '\u{2199}', '\u{2193}',
            '\u{2198}',
        ];
        let mut out = String::new();
        for iz in (0..self.nz).rev() {
            for ix in 0..self.nx {
                let i = ix * self.nz + iz;
                let (x, z) = (self.px[i], self.pz[i]);
                if (x * x + z * z).sqrt() < 1e-12 {
                    out.push('.');
                } else {
                    let ang = z.atan2(x); // angle in the x-z plane
                    let sector = ((ang + std::f64::consts::PI) / (std::f64::consts::PI / 4.0))
                        .round() as usize
                        % 8;
                    // sector 0 corresponds to angle -pi (pointing -x).
                    out.push(glyphs[(sector + 4) % 8]);
                }
                out.push(' ');
            }
            out.push('\n');
        }
        out
    }

    /// CSV dump `ix,iz,x,z,px,pz` for plotting.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("ix,iz,x,z,px,pz\n");
        for ix in 0..self.nx {
            for iz in 0..self.nz {
                let i = ix * self.nz + iz;
                s.push_str(&format!(
                    "{ix},{iz},{},{},{},{}\n",
                    ix as f64 * self.cell[0],
                    iz as f64 * self.cell[1],
                    self.px[i],
                    self.pz[i]
                ));
            }
        }
        s
    }
}

/// Landau–Khalatnikov relaxational dynamics of the polarization field.
#[derive(Clone, Debug)]
pub struct LkDynamics {
    /// The evolving field.
    pub field: PolarizationField,
    /// Landau quadratic coefficient (double-well depth), > 0.
    pub alpha: f64,
    /// Landau quartic coefficient, > 0.
    pub beta: f64,
    /// Inter-cell gradient coupling.
    pub kappa: f64,
    /// Kinetic (relaxation) coefficient.
    pub gamma: f64,
    /// Excitation screening strength: `alpha_eff = alpha (1 - s n_exc)`.
    pub screening: f64,
    /// Cubic (tetragonal) anisotropy `F += a' Px^2 Pz^2` locking P to the
    /// crystal axes: without it polarization rotates barrier-free and any
    /// bias unwinds a vortex — with it, rotation costs energy and only the
    /// photo-softened well switches (the Fig. 7 mechanism).
    pub anisotropy: f64,
    /// Elapsed time.
    pub time: f64,
}

impl LkDynamics {
    /// Standard parameters around a given spontaneous polarization `p0`:
    /// chooses `beta` so the well minimum sits at `p0`.
    pub fn new(field: PolarizationField, alpha: f64, p0: f64) -> Self {
        let beta = alpha / (p0 * p0);
        Self {
            field,
            alpha,
            beta,
            kappa: 0.3 * alpha,
            gamma: 1.0,
            screening: 1.0,
            anisotropy: 4.0 * beta,
            time: 0.0,
        }
    }

    /// Spontaneous polarization of the current parameters.
    pub fn p_spontaneous(&self, n_exc: f64) -> f64 {
        let a_eff = self.alpha * (1.0 - self.screening * n_exc);
        if a_eff <= 0.0 {
            0.0
        } else {
            (a_eff / self.beta).sqrt()
        }
    }

    /// One explicit LK step: `dP/dt = -gamma dF/dP` under applied field
    /// `(ex, ez)` and excited-carrier density `n_exc` (from LFD).
    pub fn step(&mut self, dt: f64, e_applied: [f64; 2], n_exc: f64) {
        let (nx, nz) = (self.field.nx, self.field.nz);
        let a_eff = self.alpha * (1.0 - self.screening * n_exc);
        // Arena scratch: no allocation per sub-step.
        with_scratch::<f64, 2, ()>([nx * nz, nx * nz], |[dpx, dpz]| {
            for ix in 0..nx {
                for iz in 0..nz {
                    let i = ix * self.field.nz + iz;
                    let (px, pz) = (self.field.px[i], self.field.pz[i]);
                    let p2 = px * px + pz * pz;
                    // Landau part: dF/dP = -a_eff P + beta |P|^2 P - E,
                    // plus tetragonal anisotropy a' d(Px^2 Pz^2)/dP (screened
                    // alongside the well by the excited carriers).
                    let an = self.anisotropy * (a_eff / self.alpha).max(0.0);
                    let mut fx =
                        -a_eff * px + self.beta * p2 * px - e_applied[0] + 2.0 * an * px * pz * pz;
                    let mut fz =
                        -a_eff * pz + self.beta * p2 * pz - e_applied[1] + 2.0 * an * pz * px * px;
                    // Gradient coupling (periodic neighbours in the plane).
                    let neighbors = [
                        ((ix + 1) % nx, iz),
                        ((ix + nx - 1) % nx, iz),
                        (ix, (iz + 1) % nz),
                        (ix, (iz + nz - 1) % nz),
                    ];
                    for (jx, jz) in neighbors {
                        let j = jx * self.field.nz + jz;
                        fx += self.kappa * (px - self.field.px[j]);
                        fz += self.kappa * (pz - self.field.pz[j]);
                    }
                    dpx[i] = -self.gamma * fx;
                    dpz[i] = -self.gamma * fz;
                }
            }
            // A component with no drive decays by a fixed factor per step
            // and would sit in the subnormal range for ever (a 35x slower
            // step): below 1e-300 it is zero.
            let flushed = |p: f64| if p.abs() < 1e-300 { 0.0 } else { p };
            for i in 0..nx * nz {
                self.field.px[i] = flushed(self.field.px[i] + dt * dpx[i]);
                self.field.pz[i] = flushed(self.field.pz[i] + dt * dpz[i]);
            }
        });
        self.time += dt;
    }

    /// Run `steps` LK steps with a time-dependent drive
    /// `(e_field, n_exc) = drive(t)`; returns the toroidal-moment history.
    pub fn run(
        &mut self,
        dt: f64,
        steps: usize,
        mut drive: impl FnMut(f64) -> ([f64; 2], f64),
    ) -> Vec<f64> {
        let mut history = Vec::with_capacity(steps);
        for _ in 0..steps {
            let (e, nexc) = drive(self.time);
            self.step(dt, e, nexc);
            history.push(self.field.toroidal_moment());
        }
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbtio3::PbTiO3Cell;

    fn vortex_field(n: usize, sense: f64) -> PolarizationField {
        let mut sc = Supercell::build(&PbTiO3Cell::cubic(), [n, 1, n]);
        sc.imprint_flux_closure(0.3, sense);
        PolarizationField::from_supercell(&sc, 0)
    }

    #[test]
    fn vortex_has_toroidal_moment_with_circulation_sign() {
        let gp = vortex_field(8, 1.0).toroidal_moment();
        let gm = vortex_field(8, -1.0).toroidal_moment();
        assert!(gp.abs() > 1e-6);
        assert!(
            (gp + gm).abs() < 1e-12 * gp.abs().max(1.0),
            "not odd under sense flip"
        );
        assert!(gp * gm < 0.0);
    }

    #[test]
    fn uniform_field_has_zero_toroidal_moment() {
        let mut sc = Supercell::build(&PbTiO3Cell::cubic(), [6, 1, 6]);
        sc.imprint_uniform(2, 0.25);
        let f = PolarizationField::from_supercell(&sc, 0);
        assert!(f.toroidal_moment().abs() < 1e-12);
        assert!(f.mean()[1] > 0.0);
    }

    #[test]
    fn vortex_vorticity_nonzero_uniform_zero() {
        let v = vortex_field(10, 1.0).mean_vorticity();
        assert!(v.abs() > 1e-8, "vortex vorticity {v}");
        let mut sc = Supercell::build(&PbTiO3Cell::cubic(), [6, 1, 6]);
        sc.imprint_uniform(0, 0.2);
        let u = PolarizationField::from_supercell(&sc, 0).mean_vorticity();
        assert!(u.abs() < 1e-12);
    }

    #[test]
    fn lk_relaxes_into_double_well_minimum() {
        // Start slightly polarized: LK should deepen to P0.
        let n = 6;
        let p_seed = 0.02;
        let field = PolarizationField::from_components(
            n,
            n,
            vec![0.0; n * n],
            vec![p_seed; n * n],
            [7.5, 7.5],
        );
        let p0 = 0.1;
        let mut lk = LkDynamics::new(field, 0.5, p0);
        for _ in 0..4000 {
            lk.step(0.01, [0.0, 0.0], 0.0);
        }
        let m = lk.field.mean();
        assert!(
            (m[1] - p0).abs() < 0.01 * p0,
            "relaxed to {} want {p0}",
            m[1]
        );
    }

    #[test]
    fn strong_field_switches_polarization_weak_field_does_not() {
        let n = 6;
        let p0 = 0.1;
        let make = || {
            let f = PolarizationField::from_components(
                n,
                n,
                vec![0.0; n * n],
                vec![p0; n * n],
                [7.5, 7.5],
            );
            LkDynamics::new(f, 0.5, p0)
        };
        // Coercive field of the homogeneous LK well: E_c = 2 a P0 / (3 sqrt 3).
        let ec = 2.0 * 0.5 * p0 / (3.0 * 3.0f64.sqrt());
        let mut strong = make();
        for _ in 0..8000 {
            strong.step(0.01, [0.0, -3.0 * ec], 0.0);
        }
        assert!(
            strong.field.mean()[1] < 0.0,
            "strong field failed to switch"
        );
        let mut weak = make();
        for _ in 0..8000 {
            weak.step(0.01, [0.0, -0.3 * ec], 0.0);
        }
        assert!(weak.field.mean()[1] > 0.0, "weak field switched anyway");
    }

    #[test]
    fn excitation_screens_the_well_and_enables_switching() {
        // The Fig. 7 mechanism: a bias below the coercive field switches
        // only when the laser-excited carrier density softens the well.
        let n = 6;
        let p0 = 0.1;
        let ec = 2.0 * 0.5 * p0 / (3.0 * 3.0f64.sqrt());
        let bias = [0.0, -0.6 * ec];
        let make = || {
            let f = PolarizationField::from_components(
                n,
                n,
                vec![0.0; n * n],
                vec![p0; n * n],
                [7.5, 7.5],
            );
            LkDynamics::new(f, 0.5, p0)
        };
        let mut dark = make();
        for _ in 0..8000 {
            dark.step(0.01, bias, 0.0);
        }
        assert!(dark.field.mean()[1] > 0.0, "dark run switched below E_c");
        let mut lit = make();
        for _ in 0..8000 {
            lit.step(0.01, bias, 0.8); // strong excitation: well nearly flat
        }
        assert!(
            lit.field.mean()[1] < 0.0,
            "excitation failed to enable switching"
        );
    }

    #[test]
    fn vortex_is_topologically_protected_in_the_dark_but_switched_when_lit() {
        // The Fig. 7 protocol: relax a flux-closure vortex to equilibrium,
        // hit it with a finite sub-coercive bias pulse, then let it relax.
        // Dark: the vortex distorts and RECOVERS (topological protection).
        // Photo-excited: the softened well lets the bias align the cells —
        // after the pulse the texture is mono-domain.
        let p0 = 0.1;
        let ec = 2.0 * 0.5 * p0 / (3.0 * 3.0f64.sqrt());
        let make_relaxed = || {
            let mut s = Supercell::build(&PbTiO3Cell::cubic(), [8, 1, 8]);
            s.imprint_flux_closure(0.3, 1.0);
            let f = PolarizationField::from_supercell(&s, 0);
            let mut lk = LkDynamics::new(f, 0.5, p0);
            lk.run(0.01, 4000, |_| ([0.0, 0.0], 0.0));
            lk
        };
        let drive = 500;
        let bias = [0.0, -0.5 * ec];

        let mut dark = make_relaxed();
        let g0 = dark.field.toroidal_moment();
        dark.run(0.01, drive, |_| (bias, 0.0));
        dark.run(0.01, 4000, |_| ([0.0, 0.0], 0.0));
        let g_dark = dark.field.toroidal_moment();
        assert!(
            g_dark.abs() > 0.8 * g0.abs(),
            "dark vortex not protected: {g0} -> {g_dark}"
        );

        let mut lit = make_relaxed();
        lit.run(0.01, drive, |_| (bias, 0.8));
        lit.run(0.01, 4000, |_| ([0.0, 0.0], 0.0));
        let g_lit = lit.field.toroidal_moment();
        assert!(
            g_lit.abs() < 0.1 * g0.abs(),
            "photo-excited vortex not switched: {g0} -> {g_lit}"
        );
        // And the lit run ends mono-domain along the bias.
        assert!(
            lit.field.mean()[1] < -0.5 * p0,
            "mean Pz {}",
            lit.field.mean()[1]
        );
    }

    /// FNV-1a of the toroidal moment and mean polarization after each of
    /// `windows` `md_step`-sized LK windows (207 sub-steps of 0.01 at the
    /// default `dt_md`) from the flux-closure start, driven along x only.
    fn x_driven_windows(lk: &mut LkDynamics, windows: usize) -> u64 {
        let e_c = 2.0 * lk.alpha * lk.p_spontaneous(0.0) / (3.0 * 3.0f64.sqrt());
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..windows {
            for _ in 0..207 {
                lk.step(0.01, [0.5 * e_c, 0.0], 0.01);
            }
            let m = lk.field.mean();
            for word in [lk.field.toroidal_moment(), m[0], m[1]] {
                h = (h ^ word.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn undriven_component_flushes_to_zero_instead_of_going_subnormal() {
        // With ez = 0, pz decays a fixed factor per sub-step. Under this
        // drive it passes 1e-300 near window 68 (near MD step 233 in the
        // `traj_coupled` run that found this), where it used to stick at
        // 4.4e-323 and make every later step 35x slower. The observables
        // of the windows before the flush are the parent commit's bits.
        let mut sc = Supercell::build(&PbTiO3Cell::cubic(), [8, 4, 4]);
        sc.imprint_flux_closure(0.3, 1.0);
        let mut lk = LkDynamics::new(PolarizationField::from_supercell(&sc, 0), 0.5, 0.05);
        assert_eq!(x_driven_windows(&mut lk, 60), 0x128d_f805_fe6b_3256);
        assert!(lk.field.pz.iter().all(|p| p.is_normal()), "flushed early");
        x_driven_windows(&mut lk, 340);
        assert!(lk.field.pz.iter().all(|p| *p == 0.0), "pz never flushed");
        assert!(lk.field.px.iter().all(|p| p.is_normal()), "px is driven");
    }

    #[test]
    fn spontaneous_polarization_shrinks_with_excitation() {
        let f = vortex_field(4, 1.0);
        let lk = LkDynamics::new(f, 0.5, 0.1);
        assert!((lk.p_spontaneous(0.0) - 0.1).abs() < 1e-12);
        assert!(lk.p_spontaneous(0.5) < 0.1);
        assert_eq!(lk.p_spontaneous(1.5), 0.0);
    }

    #[test]
    fn ascii_render_has_expected_shape() {
        let f = vortex_field(5, 1.0);
        let art = f.render_ascii();
        let lines: Vec<&str> = art.trim_end().split('\n').collect();
        assert_eq!(lines.len(), 5);
        assert!(art.chars().any(|c| "→↗↑↖←↙↓↘".contains(c)));
    }

    #[test]
    fn csv_roundtrip_row_count() {
        let f = vortex_field(4, 1.0);
        let csv = f.to_csv();
        assert_eq!(csv.lines().count(), 1 + 16);
        assert!(csv.starts_with("ix,iz,"));
    }
}
