//! `kin_prop()` — split-operator kinetic propagation of the KS wavefunctions,
//! in every optimization stage the paper benchmarks (Table I).
//!
//! Physics: per Suzuki–Trotter, `exp(-i dt T)` factorizes by Cartesian axis;
//! along one axis the tridiagonal finite-difference kinetic operator is
//! split into even/odd 2x2 blocks whose exponentials are *exact* 2x2
//! unitaries (space-splitting method, paper ref. \[28\]). One directional
//! application is the three-pass sweep `E(dt/2) O(dt) E(dt/2)`; the paper's
//! full 3D step is the sequence `X(dt/2) Y(dt/2) Z(dt) Y(dt/2) X(dt/2)`.
//! Every pass is an in-place 3-point-stencil-shaped sweep — the loop nest
//! the paper's Algorithms 1-5 restructure.
//!
//! The optimization stages map to the paper as:
//!
//! | paper | here | what changes |
//! |---|---|---|
//! | Algorithm 1 | [`KineticPropagator::apply_axis_alg1`] | AoS layout, orbital-outermost loops, full-mesh `wrk` scratch written then copied back |
//! | Algorithm 3 | [`KineticPropagator::apply_axis_alg3`] | SoA layout, orbital index fastest, in-place pair update (no `wrk`) |
//! | Algorithm 4 | [`KineticPropagator::apply_axis_alg4`] | + orbital cache blocking |
//! | Algorithm 5 | [`KineticPropagator::apply_axis_alg5`] | + `teams distribute` hierarchical parallelism over disjoint line sets, optional device launch with `nowait` |
//!
//! Algorithms 3-5 are one kernel, `sweep_axis` over
//! [`dcmesh_math::simd::stencil_lines_raw`], with two parameters: the orbital
//! block (`norb` for Algorithm 3) and whether the line sets are spread over
//! teams. The kernel fuses the passes of a sweep per axis line, so a line is
//! read from beyond L1 once per sweep; the device model still sees the
//! paper's launches, one per pass of the paper's sequence. Which pass touches
//! which point next is worked out once, in [`KineticPropagator::new`]: each
//! sweep is a [`dcmesh_math::simd::Sweep`], a unit list the kernel replays on
//! every line, so the loop nest does no per-unit control work.
//!
//! The exact-unitary pairwise update makes the in-place sweep safe without
//! the paper's `psi_old` carry buffer; eliminating that buffer is precisely
//! the memory-reuse optimization §III-A describes.
//!
//! The optimized step (DESIGN.md §4, PR 18): directional steps act on
//! different mesh indices with per-axis constant coefficients, so they commute
//! exactly — the paper's sequence *is* `X(½)² Y(½)² Z(1)`, and the adjacent
//! even passes inside `X(½)²` add their angles: three sweeps of 5 + 5 + 3
//! passes instead of five of 3 (Algorithm 1 keeps the paper's order and is the
//! oracle). A pass also multiplies *every* point of a line by one scalar phase:
//! the tables hold the bare rotation, a list's last pass the list's whole phase.
//!
//! The potential runs here too: [`KineticPropagator::step_with_potential`]
//! is `Pot(dt/2) Kin(dt) Pot(dt/2)` with each point's phase multiplied in by
//! the line kernel right before the X sweep's first pass touches the point
//! and once the Z sweep is done with its line, so on a host build the
//! potential's time is part of the `lfd.kinetic` slice.

use dcmesh_device::{
    teams_distribute, teams_distribute_mut, Device, KernelWork, LaunchPolicy, Precision, StreamId,
};
use dcmesh_grid::{Mesh3, WfAos, WfSoa};
use dcmesh_math::simd::{self, LineSet, PhaseAt, PointPhases, StencilPass, Sweep};
use dcmesh_math::{Complex, Real};
use dcmesh_pool::SlicePtr;

use crate::potential::PotentialPropagator;

/// Cartesian sweep direction `d` of the paper's `kin_prop(…, d, …)`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Axis {
    /// Sweep couples neighbouring x indices.
    X = 0,
    /// Sweep couples neighbouring y indices.
    Y = 1,
    /// Sweep couples neighbouring z indices.
    Z = 2,
}

/// Time-step fraction `p` of the paper's `kin_prop(…, p, …)`:
/// half steps open/close the Strang sequence.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StepFraction {
    /// `dt / 2`.
    Half = 0,
    /// `dt`.
    Full = 1,
}

impl StepFraction {
    pub(crate) fn scale<R: Real>(self) -> R {
        match self {
            StepFraction::Half => R::HALF,
            StepFraction::Full => R::ONE,
        }
    }
}

/// Precomputed kinetic propagator for one mesh and QD time step.
#[derive(Clone, Debug)]
pub struct KineticPropagator<R> {
    mesh: Mesh3,
    mass: R,
    dt: R,
    /// Sweeps `[axis][list]` over the axis's lines, each with its unit list
    /// (built here, replayed by every call): the directional step `E O E` at
    /// `dt/2` and at `dt`, then ([`STEP`]) the axis's share of a whole step —
    /// X, Y: two half-steps, `E(dt/4) O(dt/2) E(dt/2) O(dt/2) E(dt/4)`; Z: its
    /// `Z(dt)`.
    sweeps: [[Sweep<R>; 3]; 3],
}

/// Index of an axis's share of a whole step, beside `Half = 0`, `Full = 1`.
const STEP: usize = 2;

impl<R: Real> KineticPropagator<R> {
    /// Build coefficient tables for `mesh` and time step `dt`.
    pub fn new(mesh: Mesh3, dt: R, mass: R) -> Self {
        let (half, quarter) = (dt * R::HALF, dt * R::HALF * R::HALF);
        let spacing = [mesh.dx, mesh.dy, mesh.dz];
        let extent = [mesh.nx, mesh.ny, mesh.nz];
        let sweeps = std::array::from_fn(|ax| {
            let h = R::from_f64(spacing[ax]);
            let diag = R::ONE / (mass * h * h);
            let list = |angles: &[(R, usize)]| {
                Sweep::new(&build_passes(angles, diag, -(diag * R::HALF)), extent[ax])
            };
            let full = list(&[(half, 0), (dt, 1), (half, 0)]);
            let step = if ax == Axis::Z as usize {
                full.clone()
            } else {
                list(&[(quarter, 0), (half, 1), (half, 0), (half, 1), (quarter, 0)])
            };
            [list(&[(quarter, 0), (half, 1), (quarter, 0)]), full, step]
        });
        Self {
            mesh,
            mass,
            dt,
            sweeps,
        }
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh3 {
        &self.mesh
    }

    /// Electron mass (atomic units).
    pub fn mass(&self) -> R {
        self.mass
    }

    /// QD time step `Delta_QD` (atomic units).
    pub fn dt(&self) -> R {
        self.dt
    }

    fn pass_set(&self, axis: Axis, frac: StepFraction) -> &[StencilPass<R>] {
        self.sweeps[axis as usize][frac as usize].passes()
    }

    fn axis_extent(&self, axis: Axis) -> usize {
        match axis {
            Axis::X => self.mesh.nx,
            Axis::Y => self.mesh.ny,
            Axis::Z => self.mesh.nz,
        }
    }

    // ------------------------------------------------------------------
    // Algorithm 1: AoS baseline with a full-mesh scratch array.
    // ------------------------------------------------------------------

    /// Paper Algorithm 1: orbital-outermost loops over the AoS layout,
    /// with each pass computed into a whole-mesh `wrk` buffer and copied
    /// back — the baseline whose memory traffic the later stages remove.
    pub fn apply_axis_alg1(&self, psi: &mut WfAos<R>, axis: Axis, frac: StepFraction) {
        assert_eq!(psi.mesh().len(), self.mesh.len(), "mesh mismatch");
        let passes = self.pass_set(axis, frac);
        let m = self.mesh.clone();
        let g = m.len();
        let n_axis = self.axis_extent(axis);
        let mut wrk = vec![Complex::<R>::zero(); g];
        for n in 0..psi.norb() {
            for pass in passes {
                let orb = psi.orbital_mut(n);
                // Compute every point's new value into wrk, then copy back
                // (the paper's explicitly wasteful baseline).
                wrk.copy_from_slice(orb);
                // Head lone point for odd passes.
                if pass.start == 1 {
                    for_each_on_plane(&m, axis, |idx_of| {
                        let c = idx_of(0);
                        wrk[c] = orb[c] * pass.lone;
                    });
                }
                let mut i = pass.start;
                while i + 1 < n_axis {
                    let ii = i;
                    for_each_on_plane(&m, axis, |idx_of| {
                        let a = idx_of(ii);
                        let b = idx_of(ii + 1);
                        let u = orb[a];
                        let v = orb[b];
                        wrk[a] = pass.d * u + pass.o * v;
                        wrk[b] = pass.o * u + pass.d * v;
                    });
                    i += 2;
                }
                if i < n_axis {
                    let ii = i;
                    for_each_on_plane(&m, axis, |idx_of| {
                        let c = idx_of(ii);
                        wrk[c] = orb[c] * pass.lone;
                    });
                }
                orb.copy_from_slice(&wrk);
            }
        }
    }

    // ------------------------------------------------------------------
    // Algorithms 3-5: one line kernel, two parameters.
    // ------------------------------------------------------------------

    /// Paper Algorithm 3: loop interchange so the orbital index is fastest
    /// (SoA layout), updating in place with no scratch mesh.
    pub fn apply_axis_alg3(&self, psi: &mut WfSoa<R>, axis: Axis, frac: StepFraction) {
        self.apply_axis_alg4(psi, axis, frac, 0);
    }

    /// Paper Algorithm 4: Algorithm 3 plus cache blocking over the orbital
    /// index (`block_size` orbitals at a time stay register/cache resident;
    /// `0` means all of them, i.e. Algorithm 3).
    pub fn apply_axis_alg4(
        &self,
        psi: &mut WfSoa<R>,
        axis: Axis,
        frac: StepFraction,
        block_size: usize,
    ) {
        assert_eq!(psi.mesh().len(), self.mesh.len(), "mesh mismatch");
        let norb = psi.norb();
        let (sweep, data) = (&self.sweeps[axis as usize][frac as usize], psi.data_mut());
        // No teams: the same line sets, one after the other on this thread.
        dcmesh_pool::run_inline(|| {
            sweep_axis(data, &self.mesh, norb, axis, sweep, block_size, None);
        });
    }

    /// Paper Algorithm 5: the blocked SoA kernel distributed over teams
    /// (disjoint line sets of the SoA array — data-race free by
    /// construction) with the inner orbital loop as the `parallel for simd`
    /// level. When a [`Device`] is supplied the step is launched through
    /// the offload runtime: `policy = Async` reproduces `nowait`, `Sync` the
    /// ablation of Table I's last row.
    pub fn apply_axis_alg5(
        &self,
        psi: &mut WfSoa<R>,
        axis: Axis,
        frac: StepFraction,
        block_size: usize,
        device: Option<(&Device, LaunchPolicy)>,
    ) {
        self.sweep(psi, axis, frac as usize, block_size, device, None);
    }

    /// One axis's share of [`KineticPropagator::step_optimized`] — `X(dt/2)²`
    /// or `Y(dt/2)²` as one five-pass sweep, `Z(dt)` — as Algorithm 5 runs it.
    pub fn apply_axis_step(
        &self,
        psi: &mut WfSoa<R>,
        axis: Axis,
        block_size: usize,
        device: Option<(&Device, LaunchPolicy)>,
    ) {
        self.sweep(psi, axis, STEP, block_size, device, None);
    }

    /// One fused sweep of the pass list `list` (`Half`, `Full` or [`STEP`])
    /// along `axis`, multiplying in `phases` as it goes. The modeled device
    /// runs the paper's kernel: three launches per directional step on stream
    /// 0 (data-dependent, so `nowait` only removes the host-side gaps), the
    /// host body on the first.
    fn sweep(
        &self,
        psi: &mut WfSoa<R>,
        axis: Axis,
        list: usize,
        block_size: usize,
        device: Option<(&Device, LaunchPolicy)>,
        phases: Option<PointPhases<'_, R>>,
    ) {
        assert_eq!(psi.mesh().len(), self.mesh.len(), "mesh mismatch");
        let sweep = &self.sweeps[axis as usize][list];
        let paper_passes = if list == STEP && axis != Axis::Z {
            6
        } else {
            3
        };
        let norb = psi.norb();
        let data = psi.data_mut();
        let mut run = || sweep_axis(data, &self.mesh, norb, axis, sweep, block_size, phases);
        match device {
            Some((dev, policy)) => {
                let work = self.pass_work(norb);
                dev.launch_named(PHASE, StreamId(0), policy, work, run);
                for _ in 1..paper_passes {
                    dev.launch_named(PHASE, StreamId(0), policy, work, || ());
                }
            }
            None => run(),
        }
    }

    /// Bytes + flops of one pass of the *paper's* kernel over the whole
    /// wavefunction set (feeds the device roofline model): a full complex 2x2
    /// update per pair, by design, not the bare rotation the host runs.
    fn pass_work(&self, norb: usize) -> KernelWork {
        let elems = (self.mesh.len() * norb) as u64;
        let csize = 2 * std::mem::size_of::<R>() as u64;
        KernelWork {
            bytes: 2 * elems * csize, // read + write every amplitude
            flops: 16 * elems,        // 2 complex mul + 1 add per amplitude
            precision: Some(Precision::of::<R>()),
        }
    }

    // ------------------------------------------------------------------
    // Full 3D steps.
    // ------------------------------------------------------------------

    /// Full kinetic step in the paper's order `X(dt/2) Y(dt/2) Z(dt) Y(dt/2)
    /// X(dt/2)`, pass by pass, using the baseline Algorithm 1 kernels.
    pub fn step_alg1(&self, psi: &mut WfAos<R>) {
        for (axis, frac) in STRANG_SEQUENCE {
            self.apply_axis_alg1(psi, axis, frac);
        }
    }

    /// Full kinetic step using the optimized SoA kernels (`block_size = 0`
    /// or `norb` reproduces Algorithm 3; smaller blocks Algorithm 4;
    /// `device`/`teams` Algorithm 5): the paper's sequence with its commuting
    /// axis factors gathered, `X(dt/2)² Y(dt/2)² Z(dt)`, 13 passes in three
    /// sweeps. The modeled device is charged the paper's 15.
    pub fn step_optimized(
        &self,
        psi: &mut WfSoa<R>,
        block_size: usize,
        device: Option<(&Device, LaunchPolicy)>,
    ) {
        self.step(psi, block_size, device, None);
    }

    /// `Pot(dt/2) Kin(dt) Pot(dt/2)` — `pot.apply`, [`step_optimized`],
    /// `pot.apply`, bit for bit — in the three sweeps of `step_optimized`: a
    /// point takes `pot`'s phase right before the X sweep's first pass touches
    /// it and once the Z sweep is done with its line (while the line is in
    /// L1), so the potential costs no pass over the state of its own. Lines
    /// are independent and each element takes the same operations in the
    /// same order, so no bit moves. The modeled device is charged
    /// the 15 kinetic launches; the paper's two `lfd.potential` launches are
    /// the caller's ([`PotentialPropagator::charge`]), so that it can time
    /// the two kernels apart.
    ///
    /// [`step_optimized`]: KineticPropagator::step_optimized
    pub fn step_with_potential(
        &self,
        psi: &mut WfSoa<R>,
        pot: &PotentialPropagator<R>,
        block_size: usize,
        device: Option<(&Device, LaunchPolicy)>,
    ) {
        assert_eq!(pot.mesh().len(), self.mesh.len(), "mesh mismatch");
        self.step(psi, block_size, device, Some(pot.phases()));
    }

    /// The three sweeps of a step, a phase per point (if any) multiplied in
    /// before X and after Z.
    fn step(
        &self,
        psi: &mut WfSoa<R>,
        block_size: usize,
        device: Option<(&Device, LaunchPolicy)>,
        table: Option<&[Complex<R>]>,
    ) {
        let norb = psi.norb();
        let (before, after) = (Some(PhaseAt::BeforeFirstPass), Some(PhaseAt::AfterLastPass));
        for (axis, at) in [(Axis::X, before), (Axis::Y, None), (Axis::Z, after)] {
            let phases = table
                .zip(at)
                .map(|(table, at)| PointPhases { table, norb, at });
            self.sweep(psi, axis, STEP, block_size, device, phases);
        }
    }
}

/// Build the pass list `[(angle, start)]` for one axis: bare rotations
/// `[[c, -is], [-is, c]]`, `c + is = cis(angle * off)`, partnerless points
/// untouched. The scalar `cis(-angle * diag / 2)` a pass of the split
/// exponential also applies to *every* point commutes with all of them; the
/// last pass carries the product for the whole list.
fn build_passes<R: Real>(angles: &[(R, usize)], diag: R, off: R) -> Vec<StencilPass<R>> {
    let mut passes: Vec<_> = angles
        .iter()
        .map(|&(angle, start)| StencilPass {
            start,
            d: Complex::new((angle * off).cos(), R::ZERO),
            o: Complex::new(R::ZERO, -(angle * off).sin()),
            lone: Complex::one(),
        })
        .collect();
    if let Some(last) = passes.last_mut() {
        let total = angles.iter().fold(R::ZERO, |sum, a| sum + a.0);
        let phase = Complex::cis(-total * (diag * R::HALF));
        (last.d, last.o, last.lone) = (last.d * phase, last.o * phase, phase);
    }
    passes
}

/// Iterate the two non-axis indices; the callback receives a closure
/// mapping the axis index to the mesh linear index (AoS layouts).
fn for_each_on_plane(m: &Mesh3, axis: Axis, mut body: impl FnMut(&dyn Fn(usize) -> usize)) {
    match axis {
        Axis::X => {
            for j in 0..m.ny {
                for k in 0..m.nz {
                    body(&|i| m.idx(i, j, k));
                }
            }
        }
        Axis::Y => {
            for i in 0..m.nx {
                for k in 0..m.nz {
                    body(&|j| m.idx(i, j, k));
                }
            }
        }
        Axis::Z => {
            for i in 0..m.nx {
                for j in 0..m.ny {
                    body(&|k| m.idx(i, j, k));
                }
            }
        }
    }
}

/// Trace / device-track name of the kinetic kernel.
const PHASE: &str = "lfd.kinetic";

/// The paper's sequence `X(dt/2) Y(dt/2) Z(dt) Y(dt/2) X(dt/2)` — the order
/// Algorithm 1 keeps and the modeled device is charged for.
const STRANG_SEQUENCE: [(Axis, StepFraction); 5] = [
    (Axis::X, StepFraction::Half),
    (Axis::Y, StepFraction::Half),
    (Axis::Z, StepFraction::Full),
    (Axis::Y, StepFraction::Half),
    (Axis::X, StepFraction::Half),
];

/// One sweep — all of its passes, in the unit order it was built with — over
/// every line along `axis` of an SoA array (`block == 0`: all orbitals
/// together): the kernel behind Algorithms 3-5.
///
/// Teams own disjoint line sets. Y and Z lines lie inside one x-slab
/// (`ny * nz * norb` contiguous elements), so the teams are the slabs; an X
/// line crosses every slab, so the teams are the `ny` rows of fixed `j`,
/// each the `nz` adjacent lines through that row. Adjacent X or Y lines
/// (consecutive `k`) are `norb` elements apart, so unless the orbital block
/// splits a point's run they are swept as one line of `nz * norb`-element
/// runs: long contiguous streams instead of `nz` short ones. `phases` (one
/// per mesh point) go to the line kernel, a Z team's from its slab on.
// AUDIT: no_panic
fn sweep_axis<R: Real>(
    data: &mut [Complex<R>],
    m: &Mesh3,
    norb: usize,
    axis: Axis,
    sweep: &Sweep<R>,
    block: usize,
    phases: Option<PointPhases<'_, R>>,
) {
    let block = if block == 0 { norb.max(1) } else { block };
    let row = m.nz * norb;
    let slab = m.ny * row;
    let backend = simd::active_backend();
    // The `nz` lines through one row of an x-slab, `stride` between points.
    let row_lines = |first, n_axis, stride| {
        let (n_lines, run, block) = if block >= norb {
            (1, row, row)
        } else {
            (m.nz, norb, block)
        };
        LineSet {
            first,
            n_lines,
            line_step: norb,
            n_axis,
            stride,
            run,
            block,
        }
    };
    let set = match axis {
        Axis::X => {
            // AUDIT: waiver(the resolver takes this for KineticPropagator::new; SlicePtr::new only captures pointer and length)
            let base = SlicePtr::new(data);
            return teams_distribute(m.ny, |j| {
                let set = row_lines(j * row, m.nx, slab);
                // SAFETY: team j touches row j of every slab and nothing
                // else, rows of different j are disjoint, and `data` stays
                // mutably borrowed until the teams have joined.
                unsafe {
                    let ptr = base.rows_mut(set.first, row, slab, m.nx);
                    let len = base.len();
                    simd::stencil_lines_raw(backend, ptr, len, &set, sweep, phases.as_ref());
                }
            });
        }
        Axis::Y => row_lines(0, m.ny, row),
        Axis::Z => LineSet {
            first: 0,
            n_lines: m.ny,
            line_step: row,
            n_axis: m.nz,
            stride: norb,
            run: norb,
            block,
        },
    };
    teams_distribute_mut(data, m.nx, |x, chunk| {
        let slab_phases = phases.map(|p| PointPhases {
            table: p.table.get(x * m.ny * m.nz..).unwrap_or_default(),
            ..p
        });
        simd::stencil_lines_with(backend, chunk, &set, sweep, slab_phases.as_ref());
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_math::tridiag::{kinetic_step_1d, KineticTridiag};
    use dcmesh_math::C64;

    fn test_wf(mesh: &Mesh3, norb: usize, seed: u64) -> WfAos<f64> {
        let mut wf = WfAos::zeros(mesh.clone(), norb);
        wf.randomize(seed);
        wf
    }

    fn norms(wf: &WfAos<f64>) -> Vec<f64> {
        (0..wf.norb()).map(|n| wf.orbital_norm(n)).collect()
    }

    #[test]
    fn alg1_conserves_norm() {
        let mesh = Mesh3::new(8, 6, 7, 0.5, 0.5, 0.5);
        let prop = KineticPropagator::new(mesh.clone(), 0.05, 1.0);
        let mut wf = test_wf(&mesh, 3, 1);
        let before = norms(&wf);
        for _ in 0..20 {
            prop.step_alg1(&mut wf);
        }
        for (a, b) in before.iter().zip(norms(&wf)) {
            assert!((a - b).abs() < 1e-12, "norm drift {a} -> {b}");
        }
    }

    #[test]
    fn all_algorithms_agree() {
        let mesh = Mesh3::new(9, 6, 5, 0.4, 0.5, 0.6);
        let prop = KineticPropagator::new(mesh.clone(), 0.03, 1.0);
        let wf0 = test_wf(&mesh, 4, 2);

        let mut aos = wf0.clone();
        prop.step_alg1(&mut aos);

        let mut soa3 = wf0.to_soa();
        prop.apply_axis_alg3(&mut soa3, Axis::X, StepFraction::Half);
        prop.apply_axis_alg3(&mut soa3, Axis::Y, StepFraction::Half);
        prop.apply_axis_alg3(&mut soa3, Axis::Z, StepFraction::Full);
        prop.apply_axis_alg3(&mut soa3, Axis::Y, StepFraction::Half);
        prop.apply_axis_alg3(&mut soa3, Axis::X, StepFraction::Half);
        assert!(aos.max_abs_diff(&soa3.to_aos()) < 1e-13, "alg3 != alg1");

        let mut soa4 = wf0.to_soa();
        prop.step_optimized(&mut soa4, 2, None);
        assert!(aos.max_abs_diff(&soa4.to_aos()) < 1e-13, "alg4 != alg1");

        let mut soa5 = wf0.to_soa();
        let dev = Device::a100();
        prop.step_optimized(&mut soa5, 2, Some((&dev, LaunchPolicy::Async)));
        assert!(aos.max_abs_diff(&soa5.to_aos()) < 1e-13, "alg5 != alg1");
        assert!(dev.stats().kernels_launched > 0);
    }

    #[test]
    fn agrees_with_1d_reference_along_each_axis() {
        // A mesh that is effectively 1D along the tested axis must match the
        // reference 1D split propagator from dcmesh-math.
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            let (nx, ny, nz) = match axis {
                Axis::X => (16, 1, 1),
                Axis::Y => (1, 16, 1),
                Axis::Z => (1, 1, 16),
            };
            let mesh = Mesh3::new(nx, ny, nz, 0.5, 0.5, 0.5);
            let prop = KineticPropagator::new(mesh.clone(), 0.04, 1.0);
            let mut wf = test_wf(&mesh, 1, 3);
            let mut line: Vec<C64> = wf.orbital(0).to_vec();
            // One full directional step dt on the 3D code.
            let mut soa = wf.to_soa();
            prop.apply_axis_alg3(&mut soa, axis, StepFraction::Full);
            wf = soa.to_aos();
            // Reference: 1D kinetic step.
            let t = KineticTridiag::new(16, 1.0, 0.5);
            kinetic_step_1d(&mut line, 0.04, &t);
            for (i, want) in line.iter().enumerate() {
                let got = wf.orbital(0)[i];
                assert!((got - *want).abs() < 1e-13, "axis {axis:?} i={i}");
            }
        }
    }

    #[test]
    fn blocking_sizes_are_equivalent() {
        let mesh = Mesh3::new(6, 6, 6, 0.5, 0.5, 0.5);
        let prop = KineticPropagator::new(mesh.clone(), 0.02, 1.0);
        let wf0 = test_wf(&mesh, 7, 4); // norb not divisible by block
        let mut a = wf0.to_soa();
        prop.apply_axis_alg4(&mut a, Axis::Y, StepFraction::Full, 7);
        for block in [1usize, 2, 3, 4, 16] {
            let mut b = wf0.to_soa();
            prop.apply_axis_alg4(&mut b, Axis::Y, StepFraction::Full, block);
            // Every element rounds alike wherever it sits in a run, so the
            // orbital block changes the traversal and not one bit.
            assert_eq!(a.data(), b.data(), "block {block}");
        }
    }

    /// The pre-fusion formulation of Algorithms 3-5: one whole-mesh sweep
    /// per pass, each pair and lone point through the pointwise kernel the
    /// line kernel picks for that pass, orbital block by orbital block.
    fn separate_sweeps<R: Real>(
        m: &Mesh3,
        psi: &mut WfSoa<R>,
        axis: Axis,
        passes: &[StencilPass<R>],
        block: usize,
    ) {
        let norb = psi.norb();
        let (n_axis, stride) = match axis {
            Axis::X => (m.nx, m.ny * m.nz * norb),
            Axis::Y => (m.ny, m.nz * norb),
            Axis::Z => (m.nz, norb),
        };
        let (data, backend) = (psi.data_mut(), simd::active_backend());
        for pass in passes {
            for_each_on_plane(m, axis, |idx_of| {
                for nb in (0..norb).step_by(block) {
                    let len = block.min(norb - nb);
                    let at = |i: usize| idx_of(i) * norb + nb;
                    let lone = |data: &mut [Complex<R>], i: usize| {
                        if pass.rotation().is_none() {
                            simd::scale_with(backend, &mut data[at(i)..at(i) + len], pass.lone);
                        }
                    };
                    if pass.start == 1 {
                        lone(data, 0);
                    }
                    let mut i = pass.start;
                    while i + 1 < n_axis {
                        let (head, tail) = data.split_at_mut(at(i) + stride);
                        let (a, b) = (&mut head[at(i)..at(i) + len], &mut tail[..len]);
                        match pass.rotation() {
                            Some((c, s)) => simd::pair_rotate_with(backend, a, b, c, s),
                            None => simd::pair_update_with(backend, a, b, pass.d, pass.o),
                        }
                        i += 2;
                    }
                    if i < n_axis {
                        lone(data, i);
                    }
                }
            });
        }
    }

    /// Line kernel == separate sweeps, bit for bit (three-pass directional
    /// steps and the five-pass merged ones), the step with the potential
    /// folded in == `pot.apply; step_optimized; pot.apply`, bit for bit, and
    /// the commuted step == Alg. 1 in the paper's order to rounding, over odd
    /// extents, ragged orbital counts and block sizes (blocks of a whole
    /// point among them).
    fn line_kernel_matches_its_references<R: Real>(tol: f64) {
        for (nx, ny, nz) in [(7, 4, 5), (4, 5, 7), (1, 6, 2)] {
            let mesh = Mesh3::new(nx, ny, nz, 0.4, 0.5, 0.6);
            let prop = KineticPropagator::<R>::new(mesh.clone(), R::from_f64(0.03), R::ONE);
            let v: Vec<f64> = (0..mesh.len()).map(|i| (i as f64 * 0.37).sin()).collect();
            let pot = PotentialPropagator::with_field(mesh.clone(), &v, [0.2, 0.1, -0.3], prop.dt);
            for norb in [1usize, 3, 4, 7, 16, 33] {
                let mut wf0 = WfAos::<R>::zeros(mesh.clone(), norb);
                wf0.randomize(40 + norb as u64);
                for block in [1, 2, norb] {
                    for axis in [Axis::X, Axis::Y, Axis::Z] {
                        let tag = format!("{nx}x{ny}x{nz} norb {norb} block {block} {axis:?}");
                        let half = prop.pass_set(axis, StepFraction::Half);
                        let mut want = wf0.to_soa();
                        separate_sweeps(&mesh, &mut want, axis, half, block);
                        let mut alg4 = wf0.to_soa();
                        prop.apply_axis_alg4(&mut alg4, axis, StepFraction::Half, block);
                        let mut alg5 = wf0.to_soa();
                        prop.apply_axis_alg5(&mut alg5, axis, StepFraction::Half, block, None);
                        assert_eq!(alg4.data(), want.data(), "alg4 {tag}");
                        assert_eq!(alg5.data(), want.data(), "alg5 {tag}");
                        if axis != Axis::Z {
                            let mut want = wf0.to_soa();
                            let merged = prop.sweeps[axis as usize][STEP].passes();
                            assert_eq!(merged.len(), 5);
                            separate_sweeps(&mesh, &mut want, axis, merged, block);
                            let mut step = wf0.to_soa();
                            prop.apply_axis_step(&mut step, axis, block, None);
                            assert_eq!(step.data(), want.data(), "merged {tag}");
                        }
                    }
                    let (mut fused, mut soa) = (wf0.to_soa(), wf0.to_soa());
                    prop.step_with_potential(&mut fused, &pot, block, None);
                    pot.apply(&mut soa, None);
                    prop.step_optimized(&mut soa, block, None);
                    pot.apply(&mut soa, None);
                    assert_eq!(
                        fused.data(),
                        soa.data(),
                        "fused {nx}x{ny}x{nz} x {norb}, {block}"
                    );
                    let (mut aos, mut soa) = (wf0.clone(), wf0.to_soa());
                    prop.step_alg1(&mut aos);
                    prop.step_optimized(&mut soa, block, None);
                    let diff = aos.max_abs_diff(&soa.to_aos()).to_f64();
                    assert!(
                        diff < tol,
                        "{nx}x{ny}x{nz} norb {norb} block {block}: {diff}"
                    );
                }
            }
        }
    }

    #[test]
    fn line_kernel_matches_three_sweeps_bitwise_and_alg1_dp() {
        line_kernel_matches_its_references::<f64>(1e-13);
    }

    #[test]
    fn line_kernel_matches_three_sweeps_bitwise_and_alg1_sp() {
        line_kernel_matches_its_references::<f32>(1e-5);
    }

    /// A randomized state of `norb` orbitals in the SoA layout.
    fn soa<R: Real>(mesh: &Mesh3, norb: usize, seed: u64) -> WfSoa<R> {
        let mut wf = WfAos::<R>::zeros(mesh.clone(), norb);
        wf.randomize(seed);
        wf.to_soa()
    }

    /// Extents that leave a line lone points only (1), one pair only (2) or
    /// both (3), next to ordinary odd and even ones.
    const COMMUTATION_MESHES: [(usize, usize, usize); 6] = [
        (1, 2, 3),
        (3, 1, 2),
        (2, 3, 1),
        (4, 5, 6),
        (7, 4, 5),
        (1, 1, 4),
    ];

    /// The directional steps are tensor factors: any two of them commute.
    fn axis_steps_commute<R: Real>(tol: f64) {
        for (nx, ny, nz) in COMMUTATION_MESHES {
            let mesh = Mesh3::new(nx, ny, nz, 0.4, 0.5, 0.6);
            let prop = KineticPropagator::<R>::new(mesh.clone(), R::from_f64(0.03), R::ONE);
            let psi0 = soa::<R>(&mesh, 3, 11);
            for (a, b) in [(Axis::X, Axis::Y), (Axis::X, Axis::Z), (Axis::Y, Axis::Z)] {
                let [ab, ba] = [[a, b], [b, a]].map(|order| {
                    let mut psi = psi0.clone();
                    for axis in order {
                        prop.apply_axis_alg3(&mut psi, axis, StepFraction::Full);
                    }
                    psi
                });
                let diff = ab.max_abs_diff(&ba).to_f64();
                assert!(diff < tol, "{nx}x{ny}x{nz} {a:?}{b:?}: {diff:e}");
            }
        }
    }

    #[test]
    fn axis_steps_commute_dp() {
        axis_steps_commute::<f64>(1e-14);
    }

    #[test]
    fn axis_steps_commute_sp() {
        axis_steps_commute::<f32>(1e-6);
    }

    #[test]
    fn merged_sweep_is_two_half_steps() {
        for (nx, ny, nz) in COMMUTATION_MESHES {
            let mesh = Mesh3::new(nx, ny, nz, 0.4, 0.5, 0.6);
            let prop = KineticPropagator::new(mesh.clone(), 0.03, 1.0);
            let psi0 = soa::<f64>(&mesh, 3, 12);
            // Z's share of a step is the one `Z(dt)` of the paper's order.
            for axis in [Axis::X, Axis::Y] {
                let mut twice = psi0.clone();
                prop.apply_axis_alg5(&mut twice, axis, StepFraction::Half, 2, None);
                prop.apply_axis_alg5(&mut twice, axis, StepFraction::Half, 2, None);
                let mut once = psi0.clone();
                prop.apply_axis_step(&mut once, axis, 2, None);
                let diff = twice.max_abs_diff(&once);
                assert!(diff < 1e-14, "{nx}x{ny}x{nz} {axis:?}: {diff:e}");
            }
        }
    }

    #[test]
    fn zero_block_means_all_orbitals_on_every_axis() {
        // `0` used to reach the line kernel's entry assert (on a pool
        // worker, for X) outside `LfdEngine`, which normalises its own.
        let mesh = Mesh3::new(6, 6, 6, 0.5, 0.5, 0.5);
        let prop = KineticPropagator::new(mesh.clone(), 0.02, 1.0);
        let psi0 = soa::<f64>(&mesh, 4, 13);
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            let [zero, norb] = [0, 4].map(|block| {
                let mut psi = psi0.clone();
                prop.apply_axis_alg4(&mut psi, axis, StepFraction::Full, block);
                prop.apply_axis_alg5(&mut psi, axis, StepFraction::Half, block, None);
                prop.step_optimized(&mut psi, block, None);
                psi
            });
            assert_eq!(zero.data(), norb.data(), "{axis:?}");
        }
    }

    /// `|a - b|` in units of the spacing of doubles at `b`'s magnitude.
    fn ulps(a: f64, b: f64) -> f64 {
        (a - b).abs() / (b.abs().max(f64::MIN_POSITIVE) * f64::EPSILON)
    }

    #[test]
    fn pass_lists_are_bare_rotations_times_one_phase() {
        use dcmesh_math::tridiag::exp_2x2_symmetric;
        let (diag, off) = (6.25, -3.125);
        let e_o_e = [(0.01, 0), (0.02, 1), (0.01, 0)];
        let merged = [(0.005, 0), (0.01, 1), (0.01, 0), (0.01, 1), (0.005, 0)];
        for angles in [&e_o_e[..], &merged[..]] {
            let passes = build_passes(angles, diag, off);
            let total: f64 = angles.iter().map(|a| a.0).sum();
            let phase = Complex::cis(-total * diag * 0.5);
            for (q, (pass, &(angle, start))) in passes.iter().zip(angles).enumerate() {
                assert_eq!(pass.start, start);
                let last = q + 1 == passes.len();
                assert_eq!(pass.rotation().is_some(), !last, "pass {q}");
                // Coefficient by coefficient: the bare pass times its own
                // uniform phase is the pass of the split exponential.
                let own = Complex::cis(-angle * diag * 0.5);
                let (d, o) = exp_2x2_symmetric(angle, diag * 0.5, off);
                let (c, s) = ((angle * off).cos(), (angle * off).sin());
                if let Some(rot) = pass.rotation() {
                    assert_eq!(rot, (c, s));
                    assert_eq!((pass.d, pass.o), (C64::new(c, 0.0), C64::new(0.0, -s)));
                } else {
                    assert_eq!(pass.lone, phase);
                    assert_eq!(
                        (pass.d, pass.o),
                        (phase.scale(c), phase.mul_neg_i().scale(s))
                    );
                }
                for (bare, full) in [(C64::new(c, 0.0), d), (C64::new(0.0, -s), o)] {
                    let got = bare * own;
                    assert!(ulps(got.re, full.re) <= 2.0 && ulps(got.im, full.im) <= 2.0);
                }
            }
            // As operators on a line: the list == the split exponential's
            // passes, every point of which carries the phase of its pass.
            for n in 1..=6 {
                let line0: Vec<C64> = (0..n)
                    .map(|i| C64::from_polar(1.0 / (1.0 + i as f64), 0.7 * i as f64))
                    .collect();
                let apply = |line: &mut [C64], start: usize, d: C64, o: C64, lone: C64| {
                    let paired =
                        |i: usize| i >= start && (i - start).is_multiple_of(2) && i + 1 < n;
                    for i in 0..n {
                        if paired(i) {
                            let (u, v) = (line[i], line[i + 1]);
                            (line[i], line[i + 1]) = (d * u + o * v, o * u + d * v);
                        } else if !(i > 0 && paired(i - 1)) {
                            line[i] *= lone;
                        }
                    }
                };
                let (mut got, mut want) = (line0.clone(), line0.clone());
                for (pass, &(angle, start)) in passes.iter().zip(angles) {
                    apply(&mut got, pass.start, pass.d, pass.o, pass.lone);
                    let (d, o) = exp_2x2_symmetric(angle, diag * 0.5, off);
                    apply(&mut want, start, d, o, Complex::cis(-angle * diag * 0.5));
                }
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (*g - *w).abs() < 4.0 * f64::EPSILON,
                        "n {n}: {g:?} vs {w:?}"
                    );
                }
                if n == 1 {
                    // Lone points only: exactly the list's phase, once.
                    assert_eq!(got[0], line0[0] * phase);
                }
            }
        }
    }

    #[test]
    fn kinetic_step_is_second_order_against_the_closed_form() {
        // Free propagation of a Gaussian packet along one axis of a mesh
        // that is one point thick in the other two. `T` along the axis is a
        // Toeplitz tridiagonal with Dirichlet walls, diagonal in the sine
        // basis: lambda_k = diag + 2 off cos(k pi / (n + 1)); an axis of one
        // point contributes its `diag` as a phase. Halving dt at a fixed
        // total time must cut the even/odd splitting error about fourfold.
        let (n, h, t_total) = (32usize, 0.5, 0.64);
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            let (nx, ny, nz) = match axis {
                Axis::X => (n, 1, 1),
                Axis::Y => (1, n, 1),
                Axis::Z => (1, 1, n),
            };
            let mesh = Mesh3::new(nx, ny, nz, h, h, h);
            let t = KineticTridiag::new(n, 1.0, h);
            let packet: Vec<C64> = (0..n)
                .map(|j| {
                    let x = j as f64 - 15.5;
                    C64::from_polar((-x * x / 18.0).exp(), 0.6 * x)
                })
                .collect();
            let sine = |k: usize, j: usize| {
                let arg = ((k + 1) * (j + 1)) as f64 * std::f64::consts::PI / (n + 1) as f64;
                (2.0 / (n + 1) as f64).sqrt() * arg.sin()
            };
            let mut exact = vec![C64::zero(); n];
            for k in 0..n {
                let theta = (k + 1) as f64 * std::f64::consts::PI / (n + 1) as f64;
                let lambda = t.diag + 2.0 * t.offdiag * theta.cos() + 2.0 * t.diag;
                let coeff: C64 =
                    (0..n).fold(C64::zero(), |acc, j| acc + packet[j].scale(sine(k, j)));
                let evolved = coeff * Complex::cis(-lambda * t_total);
                for (j, z) in exact.iter_mut().enumerate() {
                    *z += evolved.scale(sine(k, j));
                }
            }
            let error = |steps: usize| {
                let prop = KineticPropagator::new(mesh.clone(), t_total / steps as f64, 1.0);
                let mut wf = WfAos::<f64>::zeros(mesh.clone(), 1);
                wf.orbital_mut(0).copy_from_slice(&packet);
                let mut psi = wf.to_soa();
                for _ in 0..steps {
                    prop.step_optimized(&mut psi, 0, None);
                }
                let got = psi.to_aos();
                let diffs = got
                    .orbital(0)
                    .iter()
                    .zip(&exact)
                    .map(|(g, w)| (*g - *w).abs());
                diffs.fold(0.0, f64::max)
            };
            let (coarse, fine) = (error(16), error(32));
            assert!(fine > 1e-9, "{axis:?}: nothing to converge, {fine:e}");
            assert!(
                coarse >= 3.5 * fine,
                "{axis:?}: error {coarse:e} at dt, {fine:e} at dt/2: ratio {:.2}",
                coarse / fine
            );
        }
    }

    #[test]
    fn modeled_device_is_charged_the_papers_fifteen_passes() {
        // 13 passes run on the host in three sweeps; the device model sees
        // the paper's 6 + 6 + 3 launches of one full pass each. The busy
        // time is what the five three-pass launches of PR 17 charged.
        let mesh = Mesh3::new(6, 5, 4, 0.4, 0.5, 0.6);
        let prop = KineticPropagator::new(mesh.clone(), 0.03, 1.0);
        for policy in [LaunchPolicy::Async, LaunchPolicy::Sync] {
            let dev = Device::a100();
            let mut psi = soa::<f64>(&mesh, 3, 2);
            prop.step_optimized(&mut psi, 2, Some((&dev, policy)));
            let stats = dev.stats();
            assert_eq!(stats.kernels_launched, 15, "{policy:?}");
            assert_eq!(
                stats.kernel_busy.to_bits(),
                0x3e88_dbbb_9eee_efb3,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn odd_extent_boundary_points_keep_norm() {
        // nx = 7 (odd): both parities create lone boundary points.
        let mesh = Mesh3::new(7, 4, 4, 0.5, 0.5, 0.5);
        let prop = KineticPropagator::new(mesh.clone(), 0.05, 1.0);
        let mut wf = test_wf(&mesh, 2, 5).to_soa();
        for _ in 0..10 {
            prop.step_optimized(&mut wf, 2, None);
        }
        let aos = wf.to_aos();
        for n in 0..2 {
            assert!((aos.orbital_norm(n) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn device_async_makespan_beats_sync() {
        let mesh = Mesh3::new(16, 16, 16, 0.4, 0.4, 0.4);
        let prop = KineticPropagator::new(mesh.clone(), 0.02, 1.0);
        let wf0 = test_wf(&mesh, 8, 6);

        let dev_sync = Device::a100();
        let mut a = wf0.to_soa();
        for _ in 0..5 {
            prop.step_optimized(&mut a, 8, Some((&dev_sync, LaunchPolicy::Sync)));
        }
        let t_sync = dev_sync.synchronize();

        let dev_async = Device::a100();
        let mut b = wf0.to_soa();
        for _ in 0..5 {
            prop.step_optimized(&mut b, 8, Some((&dev_async, LaunchPolicy::Async)));
        }
        let t_async = dev_async.synchronize();
        assert!(t_async < t_sync, "async {t_async} !< sync {t_sync}");
        // Results identical regardless of policy.
        assert!(a.max_abs_diff(&b) == 0.0);
    }

    #[test]
    fn energy_conserved_by_free_propagation() {
        let mesh = Mesh3::new(12, 12, 12, 0.5, 0.5, 0.5);
        let prop = KineticPropagator::new(mesh.clone(), 0.02, 1.0);
        let mut wf = test_wf(&mesh, 2, 8).to_soa();
        let kinetic_energy = |w: &WfSoa<f64>| -> f64 {
            let aos = w.to_aos();
            let t = dcmesh_tddft::Hamiltonian::with_potential(mesh.clone(), vec![0.0; mesh.len()]);
            (0..2).map(|n| t.expectation(aos.orbital(n), false)).sum()
        };
        let e0 = kinetic_energy(&wf);
        for _ in 0..100 {
            prop.step_optimized(&mut wf, 2, None);
        }
        let e1 = kinetic_energy(&wf);
        assert!((e1 - e0).abs() / e0.abs() < 2e-2, "E {e0} -> {e1}");
    }

    #[test]
    fn single_precision_build_works() {
        let mesh = Mesh3::new(8, 8, 8, 0.5, 0.5, 0.5);
        let prop = KineticPropagator::new(mesh.clone(), 0.02f32, 1.0f32);
        let mut wf: WfSoa<f32> = {
            let mut aos = WfAos::<f32>::zeros(mesh.clone(), 2);
            aos.randomize(9);
            aos.to_soa()
        };
        for _ in 0..20 {
            prop.step_optimized(&mut wf, 2, None);
        }
        let aos = wf.to_aos();
        for n in 0..2 {
            assert!((aos.orbital_norm(n) - 1.0).abs() < 1e-4);
        }
    }
}
