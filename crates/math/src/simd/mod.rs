//! SIMD kernels with runtime backend dispatch.
//!
//! The paper's SoA-layout contribution (§III-A, Alg. 3) observes that
//! interleaved complex arrays defeat vector units: every vector load drags
//! in the other component, halving effective bandwidth and blocking FMA
//! contraction. This module applies the same idea at register level:
//!
//! * **Pointwise kernels** ([`pair_update_with`], [`pair_rotate_with`], [`scale_with`])
//!   — the kinetic stencil 2×2 pair update, its bare form `[[c, -is], [-is,
//!   c]]` with real `c`, `s` (half the arithmetic) and the phase/potential
//!   pointwise multiply. All work on the interleaved complex lanes directly
//!   (a complex product is a multiply and an FMA against the value and its
//!   re/im swap), so every element rounds alike wherever it sits in a run.
//! * **Real block kernels** ([`real_overlap_with`], [`real_update_with`]) —
//!   the two skinny GEMM shapes `Lᵀ·R` (tiny output, contraction over the
//!   grid) and `T += S·C` (tiny inner dimension) in real arithmetic, one
//!   register-tiled body `C += X·B` on the calling thread, every element one
//!   chain of sums, a ragged width an overlapping or a masked vector. They
//!   serve the set-up eigensolver, whose Hamiltonian is real symmetric, and
//!   the nonlocal projector, whose reference is real: a complex block read
//!   as reals is a real block of twice the columns.
//! * **Kinetic line kernel** ([`stencil_lines_with`]) — paper Algorithms 3–5 as
//!   one loop nest: the passes of a sweep (up to [`MAX_PASSES`]) applied to
//!   a line (or a bundle of adjacent lines) as a wavefront, so the live
//!   points stay in L1 and the backend is resolved once per call, not once
//!   per 256-byte run. The wavefront's order is worked out once, when the
//!   [`Sweep`] is built, into a list of units that every line replays, each
//!   unit's kernel chosen there: a pass that is a bare rotation goes through
//!   [`pair_rotate_with`] and leaves its partnerless points alone. A sweep
//!   may also multiply in a phase per point ([`PointPhases`]).
//! * **Radial pass** ([`radial_with`]) — one centre against a run of
//!   partners: displacements and `r²`, a closed-form far field, and the near
//!   partners left-packed with a caller's [`NearTerms`], written once over
//!   [`Lane`] and run on the same lanes (the quintic tables' reads gathers).
//!
//! # Backend selection
//!
//! The active backend resolves once from `DCMESH_SIMD`:
//!
//! * `auto` (default, also unset or empty, and what anything unknown is
//!   read as after one line on stderr) — the widest lanes the CPU has:
//!   AVX-512F, else AVX2+FMA, else scalar;
//! * `avx2` — AVX2 lanes, 256 bits on any CPU (silently degrades to scalar
//!   when unsupported);
//! * `scalar` — the lane bodies one complex value at a time, on any CPU:
//!   auto's bits.
//!
//! Each kernel body is written once over the lane trait of `lanes.rs` and
//! instantiated per backend: the scalar one runs it on the portable lanes
//! (one complex value, `fmadd` as [`Real::mul_add`]); on x86, `f64` runs it
//! in `__m256d` or `__m512d` (two or four complex values per vector), `f32`
//! in `__m256` or `__m512` (four or eight), the vector chosen from `R`
//! through [`Vectorized`]. Every lane operation is lane-local and no body
//! reduces across lanes (the radial pass sums into eight fixed slots, one,
//! two or four vectors), so every backend gives the same bits.
//!
//! Every kernel also has a `*_with(backend, ..)` variant taking an explicit
//! [`Backend`], used by the equivalence tests and benches so they never
//! mutate process-global state. All raw `std::arch` use in the workspace
//! lives in this directory — enforced by the `analyze` lint.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::complex::Complex;
use crate::real::Real;

mod bodies;
mod lanes;
#[cfg(target_arch = "x86_64")]
mod x86;

use bodies::{Body, Gemm, Lines, Pair, Radial, Scale};
use lanes::{Lanes, Scalar};

/// Names the 256- and the 512-bit vector the kernels run `Self` in, so that
/// a kernel generic over `R` picks its instantiation from `R` and the width
/// alone. A supertrait of [`Real`]; implemented for `f32` and `f64`.
pub trait Vectorized: Sized {
    /// The 256-bit vector of `Self` lanes (a detail of this module).
    #[cfg(target_arch = "x86_64")]
    #[doc(hidden)]
    type V256: lanes::Lanes<R = Self>;
    /// The 512-bit vector of `Self` lanes.
    #[cfg(target_arch = "x86_64")]
    #[doc(hidden)]
    type V512: lanes::Lanes<R = Self>;
}

impl Vectorized for f64 {
    #[cfg(target_arch = "x86_64")]
    type V256 = core::arch::x86_64::__m256d;
    #[cfg(target_arch = "x86_64")]
    type V512 = core::arch::x86_64::__m512d;
}

impl Vectorized for f32 {
    #[cfg(target_arch = "x86_64")]
    type V256 = core::arch::x86_64::__m256;
    #[cfg(target_arch = "x86_64")]
    type V512 = core::arch::x86_64::__m512;
}

// ---------------------------------------------------------------------------
// Backend dispatch
// ---------------------------------------------------------------------------

/// Instruction-set backend for the kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// AVX-512F kernels: `f64` eight reals to a vector, `f32` sixteen.
    Avx512,
    /// AVX2 + FMA kernels: `f64` four reals to a vector, `f32` eight.
    Avx2,
    /// The same kernel bodies on portable lanes, one complex value at a
    /// time: the other backends' bits on any CPU.
    Scalar,
}

/// What `backend` runs as on this CPU: a width the CPU lacks degrades to
/// the next narrower one, AVX-512F to AVX2+FMA and that to scalar. (`std`
/// caches the detection.)
pub fn resolve(backend: Backend) -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if backend == Backend::Avx512 && has!("avx512f") {
            return Backend::Avx512;
        }
        if backend != Backend::Scalar && has!("avx2") && has!("fma") {
            return Backend::Avx2;
        }
    }
    let _ = backend;
    Backend::Scalar
}

/// Runs `body` on the lanes `backend` resolves to: the portable ones where
/// that is the scalar path.
///
/// # Safety
///
/// The body's own contract holds.
unsafe fn vector<R: Real>(backend: Backend, body: impl Body<R>) {
    match resolve(backend) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: (cpu=avx512f) checked by `resolve`; the rest is the caller's.
        Backend::Avx512 => unsafe { x86::on_512(body) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: (cpu=avx2) checked by `resolve`; the rest is the caller's.
        Backend::Avx2 => unsafe { x86::on_256(body) },
        // Scalar (all there is off x86).
        // SAFETY: the portable lanes need no feature; the rest is the caller's.
        _ => unsafe { body.run::<Scalar<R>>() },
    }
}

/// 0 = no override, 1 = Avx2, 2 = Scalar, 3 = Avx512.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// What a `DCMESH_SIMD` value asks for: `None` is `auto` (also the empty
/// string, i.e. unset); anything unknown is an error naming the choices.
fn parse_simd(value: &str) -> Result<Option<Backend>, String> {
    match value.trim() {
        "" | "auto" => Ok(None),
        "avx2" => Ok(Some(Backend::Avx2)),
        "scalar" => Ok(Some(Backend::Scalar)),
        _ => Err(format!(
            "DCMESH_SIMD={value:?}: expected auto|avx2|scalar, using auto"
        )),
    }
}

fn env_backend() -> Backend {
    static DEFAULT: OnceLock<Backend> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let value = std::env::var("DCMESH_SIMD").unwrap_or_default();
        let want = parse_simd(&value).unwrap_or_else(|msg| {
            // A message, not an unwind: a closed stderr must not panic here.
            let _ = writeln!(std::io::stderr(), "{msg}");
            None
        });
        // "auto" is the widest backend the CPU has.
        resolve(want.unwrap_or(Backend::Avx512))
    })
}

/// The backend the implicit-dispatch kernels use right now:
/// programmatic override (see [`set_backend`]) else `DCMESH_SIMD`.
pub fn active_backend() -> Backend {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => Backend::Avx2,
        2 => Backend::Scalar,
        3 => Backend::Avx512,
        _ => env_backend(),
    }
}

/// Programmatic backend override (benches / `--simd` flags). A request the
/// CPU cannot run degrades as [`resolve`] says — dispatch re-checks CPU
/// support.
pub fn set_backend(b: Backend) {
    let v = match b {
        Backend::Avx2 => 1,
        Backend::Scalar => 2,
        Backend::Avx512 => 3,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// Drop the [`set_backend`] override, returning to `DCMESH_SIMD` dispatch.
pub fn clear_backend_override() {
    OVERRIDE.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Pointwise kernels
// ---------------------------------------------------------------------------

/// `z *= ph` over a slice on an explicit backend.
pub fn scale_with<R: Real>(backend: Backend, zs: &mut [Complex<R>], ph: Complex<R>) {
    // SAFETY: a slice is all the body asks for.
    unsafe { vector(backend, Scale(zs, ph)) };
}

/// The kinetic stencil's 2×2 pair rotation over two equal-length slices on
/// an explicit backend: `a' = d*a + o*b`, `b' = o*a + d*b`.
pub fn pair_update_with<R: Real>(
    backend: Backend,
    a: &mut [Complex<R>],
    b: &mut [Complex<R>],
    d: Complex<R>,
    o: Complex<R>,
) {
    // SAFETY: two disjoint slices are all the body asks for.
    unsafe { vector(backend, Pair::<R, false>(a, b, d, o)) };
}

/// The bare pair rotation `a' = c*a - i*s*b`, `b' = -i*s*a + c*b` with real
/// `c`, `s` on an explicit backend: [`pair_update_with`] at `d = (c, 0)`,
/// `o = (0, -s)`, the same bits without the products that are zero.
pub fn pair_rotate_with<R: Real>(
    backend: Backend,
    a: &mut [Complex<R>],
    b: &mut [Complex<R>],
    c: R,
    s: R,
) {
    let (d, o) = (Complex::new(c, R::ZERO), Complex::new(R::ZERO, -s));
    // SAFETY: two disjoint slices are all the body asks for.
    unsafe { vector(backend, Pair::<R, true>(a, b, d, o)) };
}

// ---------------------------------------------------------------------------
// Real block kernels (the set-up solve's and the projector's two GEMM shapes)
// ---------------------------------------------------------------------------

/// Mesh points per pass of [`real_overlap_with`]: both blocks of a pass stay
/// in L1 while every tile of the output re-reads them.
const REAL_BLOCK: usize = 64;

/// `c[a][j] += sum_q x[a * sa + q * sq] * b[q][j]` for real row-major `c`
/// (`ncols` to a row) and `b` (`nq` rows): the one body of both real block
/// kernels. It runs on the calling thread, and every element is one chain of
/// sums in `q` order, so the bits depend on the shapes alone.
fn real_gemm<R: Real>(
    backend: Backend,
    x: &[R],
    (sa, sq): (usize, usize),
    nq: usize,
    b: &[R],
    c: &mut [R],
    ncols: usize,
) {
    let rows = c.len() / ncols;
    assert!(
        c.len() == rows * ncols
            && b.len() == nq * ncols
            && (rows == 0 || nq == 0 || (rows - 1) * sa + (nq - 1) * sq < x.len()),
        "block product shape mismatch"
    );
    // A row narrower than a 512-bit vector (64 bytes) is one masked vector
    // there, slower than the 256-bit lanes' whole or equally masked ones
    // (EXPERIMENTS.md "512-bit lanes"): such a product takes those.
    let narrow = backend == Backend::Avx512 && ncols * std::mem::size_of::<R>() < 64;
    let backend = if narrow { Backend::Avx2 } else { backend };
    // SAFETY: (bounds=the assert above is the body's contract)
    unsafe { vector(backend, Gemm(x, (sa, sq), nq, b, c, ncols)) };
}

/// The real block overlap `out[i * nr + c] = alpha * sum_p l[p * nl + i] *
/// r[p * nr + c]` of two point-major blocks (`nl`, `nr` columns) on an
/// explicit backend. An empty shape leaves `out` alone.
pub fn real_overlap_with<R: Real>(
    backend: Backend,
    alpha: R,
    l: &[R],
    (nl, nr): (usize, usize),
    r: &[R],
    out: &mut [R],
) {
    if nl == 0 || nr == 0 {
        return;
    }
    let npts = l.len() / nl;
    assert!(
        l.len() == npts * nl && r.len() == npts * nr && out.len() == nl * nr,
        "overlap shape mismatch"
    );
    out.fill(R::ZERO);
    for (lb, rb) in l.chunks(REAL_BLOCK * nl).zip(r.chunks(REAL_BLOCK * nr)) {
        real_gemm(backend, lb, (1, nl), lb.len() / nl, rb, out, nr);
    }
    out.iter_mut().for_each(|z| *z = alpha * *z);
}

/// The real block update `t[p * nt + j] += sum_k s[p * ns + k] * c[k * nt +
/// j]` of the point-major block `t` (`nt` columns) by the block `s` (`ns`
/// columns) on an explicit backend. An empty shape leaves `t` alone.
pub fn real_update_with<R: Real>(
    backend: Backend,
    c: &[R],
    s: &[R],
    (ns, nt): (usize, usize),
    t: &mut [R],
) {
    if ns == 0 || nt == 0 {
        return;
    }
    real_gemm(backend, s, (ns, 1), ns, c, t, nt);
}

// ---------------------------------------------------------------------------
// Kinetic line kernel (paper Algorithms 3-5 in one loop nest)
// ---------------------------------------------------------------------------

/// One even- or odd-parity pass of the split kinetic exponential along a
/// line: points `start, start+1`, `start+2, start+3`, ... are rotated
/// pairwise by `[[d, o], [o, d]]`; points left without a partner (the head
/// of an odd pass, the tail when the count is odd) take the phase `lone`.
#[derive(Copy, Clone, Debug)]
pub struct StencilPass<R> {
    /// First index of the first pair (0 = even pass, 1 = odd pass).
    pub start: usize,
    /// 2x2 diagonal coefficient.
    pub d: Complex<R>,
    /// 2x2 off-diagonal coefficient.
    pub o: Complex<R>,
    /// Phase applied to unpaired boundary points.
    pub lone: Complex<R>,
}

impl<R: Real> StencilPass<R> {
    /// `(c, s)` when the pass is the bare rotation `d = (c, 0)`, `o = (0, -s)`,
    /// `lone = 1`, whose units a [`Sweep`] sends to [`pair_rotate_with`].
    #[inline(always)]
    pub fn rotation(&self) -> Option<(R, R)> {
        (self.d.im == R::ZERO && self.o.re == R::ZERO && self.lone == Complex::one())
            .then_some((self.d.re, -self.o.im))
    }
}

/// Most passes one sweep takes: two merged half-steps, `E O E O E`.
pub const MAX_PASSES: usize = 5;

/// When a sweep multiplies in its [`PointPhases`]: right before its first
/// pass touches a point, or once its last pass is done with the point's line.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PhaseAt {
    BeforeFirstPass,
    AfterLastPass,
}

/// A phase per point that a sweep multiplies in (the potential's `Pot(dt/2)`
/// folded into the kinetic sweeps): element `e` of the storage the line
/// kernel is given is multiplied by `table[e / norb]`, as [`scale_with`]
/// multiplies it. A sweep of no passes is its phases after them alone.
#[derive(Copy, Clone, Debug)]
pub struct PointPhases<'a, R> {
    pub table: &'a [Complex<R>],
    pub norb: usize,
    pub at: PhaseAt,
}

/// A family of equally shaped stencil lines inside one flat SoA array:
/// element `n` of the run at point `i` of line `l` lives at
/// `first + l * line_step + i * stride + n`. A run is the orbitals of one
/// grid point, or of several adjacent ones when neighbouring lines are
/// swept as one (every element of a pass takes the same coefficients).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LineSet {
    /// Element offset of line 0, point 0, orbital 0.
    pub first: usize,
    /// Number of lines.
    pub n_lines: usize,
    /// Element offset between the starts of consecutive lines.
    pub line_step: usize,
    /// Points per line (the extent of the swept axis).
    pub n_axis: usize,
    /// Element offset between consecutive points of a line.
    pub stride: usize,
    /// Contiguous elements per point.
    pub run: usize,
    /// Elements of a run swept together (paper Alg. 4's cache block).
    pub block: usize,
}

impl LineSet {
    /// One past the last element any line of the set touches.
    pub fn span(&self) -> usize {
        if self.n_lines == 0 || self.n_axis == 0 || self.run == 0 {
            return 0;
        }
        self.first
            + (self.n_lines - 1) * self.line_step
            + (self.n_axis - 1) * self.stride
            + self.run
    }
}

/// The order in which one line takes its passes: a wavefront.
///
/// Pass `q` may touch a point as soon as pass `q - 1` is done with it, so
/// instead of one sweep per pass over the whole line the passes chase each
/// other down it, the later pass first: at any moment only the last four
/// points (six for five passes) are live, which keeps a line in L1 however
/// long it is and whatever its stride (a power-of-two stride maps all of a
/// line's points to one cache set). Every point still sees its updates in
/// pass order, with the same partner and the same operands, so the result
/// is bit-for-bit that of separate sweeps. [`Sweep::new`] walks it once.
struct Wavefront<'a, R> {
    passes: &'a [StencilPass<R>],
    n_axis: usize,
    /// First point each pass has not touched yet.
    done: [usize; MAX_PASSES],
}

/// One step is `(q, pass, at, lone)`: rotate the pair `at, at + 1` by pass
/// `q`, or (`lone`) multiply the partnerless point `at` by its phase.
impl<'a, R> Iterator for Wavefront<'a, R> {
    type Item = (usize, &'a StencilPass<R>, usize, bool);

    // AUDIT: no_panic
    fn next(&mut self) -> Option<Self::Item> {
        // The latest pass that can move does: `ready` is how far the pass
        // before has got (the whole line, for the first).
        let mut ready = self.n_axis;
        let mut pick = None;
        for (q, (pass, done)) in self.passes.iter().zip(self.done.iter_mut()).enumerate() {
            let at = *done;
            let lone = (at == 0 && pass.start == 1) || at + 1 == self.n_axis;
            let next = at + if lone { 1 } else { 2 };
            if at < self.n_axis && next <= ready {
                pick = Some((q, pass, done, at, lone, next));
            }
            ready = at;
        }
        let (q, pass, done, at, lone, next) = pick?;
        *done = next;
        Some((q, pass, at, lone))
    }
}

/// What one unit of a [`Sweep`] does at its point `at`.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Op<R> {
    /// [`Pair`] by `d`, `o` on the runs at `at` and `at + 1`.
    Pair(Complex<R>, Complex<R>),
    /// Its bare form, for a [`StencilPass::rotation`].
    Rotate(Complex<R>, Complex<R>),
    /// [`Scale`] of the partnerless run at `at` by the pass's `lone` phase.
    Scale(Complex<R>),
    /// Nothing: a partnerless point of a bare first pass, kept because the
    /// phases before the first pass go with the first pass's units.
    Touch,
}

/// One unit of a [`Sweep`]: pass `q` at point `at`.
#[derive(Copy, Clone, Debug, PartialEq)]
struct Unit<R> {
    q: usize,
    at: usize,
    op: Op<R>,
}

/// A sweep of up to [`MAX_PASSES`] passes along lines of `n_axis` points,
/// with its `Wavefront` order worked out once: the line kernel replays the
/// unit list on every line, with no per-unit choice of the next pass and no
/// per-unit test of the pass's kind. The units of a bare rotation over a
/// partnerless point do nothing and are left out, but for the first pass's
/// (the phases before the first pass go with them).
#[derive(Clone, Debug)]
pub struct Sweep<R> {
    passes: Vec<StencilPass<R>>,
    n_axis: usize,
    units: Vec<Unit<R>>,
}

impl<R: Real> Sweep<R> {
    /// The wavefront of `passes` over lines of `n_axis` points. The line
    /// kernel refuses a sweep of more than [`MAX_PASSES`] passes, or of a pass
    /// that starts past 1.
    pub fn new(passes: &[StencilPass<R>], n_axis: usize) -> Self {
        let order = Wavefront {
            passes,
            n_axis,
            done: [0; MAX_PASSES],
        };
        let units = order.filter_map(|(q, pass, at, lone)| {
            let op = match (pass.rotation(), lone) {
                (Some(_), true) if q > 0 => return None,
                (Some(_), true) => Op::Touch,
                (Some(_), false) => Op::Rotate(pass.d, pass.o),
                (None, true) => Op::Scale(pass.lone),
                (None, false) => Op::Pair(pass.d, pass.o),
            };
            Some(Unit { q, at, op })
        });
        Self {
            passes: passes.to_vec(),
            n_axis,
            units: units.collect(),
        }
    }

    /// The passes, in order.
    pub fn passes(&self) -> &[StencilPass<R>] {
        &self.passes
    }
}

/// The loop nest of the line kernel on the lanes `L`: every line of `set`,
/// one orbital block at a time, replays the units of `sweep` — [`Pair`],
/// its bare form or [`Scale`] on the run of the unit's point (and its
/// partner's). With `phases`, each point is scaled by its phase before the
/// first pass's unit over it, or after the wavefront of its line: in one run
/// where the line's runs follow each other. The helpers are
/// `#[inline(always)]` fns, not closures, so that they compile into the
/// lanes' entry point.
///
/// # Safety
///
/// Same contract as [`stencil_lines_raw`], whose checks ran already, and the
/// target features of `L` are enabled.
// SAFETY: (bounds=every run of len elements from first + line*line_step +
// nb + i*stride with line < n_lines and i < n_axis and nb + len <= run ends
// at or below set.span() which the dispatcher checked against the
// allocation and the phase table; a unit's point is below sweep.n_axis ==
// set.n_axis and a paired unit's partner too, aliasing=the caller owns the
// set's lines; partner runs are stride >= run >= len apart)
#[inline(always)]
unsafe fn line_units<L: Lanes>(
    ptr: *mut Complex<L::R>,
    set: &LineSet,
    sweep: &Sweep<L::R>,
    phases: Option<&PointPhases<'_, L::R>>,
) {
    let pre = phases.filter(|p| p.at == PhaseAt::BeforeFirstPass);
    let post = phases.filter(|p| p.at == PhaseAt::AfterLastPass);
    // A run's point by multiply-adds where the set steps by whole points: a
    // division per run costs more than a point's phase.
    let norb = phases.map_or(1, |p| p.norb.max(1));
    let (pl, ps) = (set.line_step / norb, set.stride / norb);
    let whole = set.line_step.is_multiple_of(norb) && set.stride.is_multiple_of(norb);
    for l in 0..set.n_lines {
        let mut nb = 0;
        while nb < set.run {
            let len = (set.run - nb).min(set.block);
            let (p0, r0) = ((set.first + nb) / norb, (set.first + nb) % norb);
            let line = set.first + l * set.line_step + nb;
            // Element `e`, point `i` of the line: its point and offset in it.
            let point = |i: usize, e: usize| match whole {
                true => (p0 + l * pl + i * ps, r0),
                false => (e / norb, e % norb),
            };
            for &Unit { q, at, op } in &sweep.units {
                let paired = matches!(op, Op::Pair(..) | Op::Rotate(..));
                let a = line + at * set.stride;
                let b = a + set.stride;
                if let Some(p) = pre.filter(|_| q == 0) {
                    // SAFETY: the runs claimed above; the caller's contract
                    // covers `L` (here and below).
                    unsafe { phase_run::<L>(ptr, a, len, point(at, a), p) };
                    if paired {
                        // SAFETY: as above.
                        unsafe { phase_run::<L>(ptr, b, len, point(at + 1, b), p) };
                    }
                }
                // SAFETY: as above; each slice is dropped before the next
                // one over its elements.
                let run = |e: usize| unsafe { std::slice::from_raw_parts_mut(ptr.add(e), len) };
                // SAFETY: as above; the features are the caller's.
                unsafe {
                    match op {
                        Op::Pair(d, o) => Pair::<_, false>(run(a), run(b), d, o).run::<L>(),
                        Op::Rotate(d, o) => Pair::<_, true>(run(a), run(b), d, o).run::<L>(),
                        Op::Scale(lone) => Scale(run(a), lone).run::<L>(),
                        Op::Touch => {}
                    }
                }
            }
            if let Some(p) = post {
                let (count, step) = match set.stride == len {
                    true => (1, set.n_axis * len),
                    false => (set.n_axis, len),
                };
                for i in 0..count {
                    let e = line + i * set.stride;
                    // SAFETY: the runs claimed above, `count` of them one.
                    unsafe { phase_run::<L>(ptr, e, step, point(i, e), p) };
                }
            }
            nb += len;
        }
    }
}

/// The `len` elements at `e`, which start `r` elements into point `pt`,
/// times their phases from `p`: [`Scale`] on the lanes `L`, one point (or the
/// part of one they hold) at a time.
///
/// # Safety
///
/// The elements are live and the caller's alone, and the target features of
/// `L` are enabled.
#[inline(always)]
unsafe fn phase_run<L: Lanes>(
    ptr: *mut Complex<L::R>,
    e: usize,
    len: usize,
    (pt, r): (usize, usize),
    p: &PointPhases<'_, L::R>,
) {
    // SAFETY: the caller's.
    let mut zs = unsafe { std::slice::from_raw_parts_mut(ptr.add(e), len) };
    let (mut take, mut phases) = (p.norb.saturating_sub(r), p.table.iter().skip(pt));
    while let Some(ph) = phases.next().filter(|_| !zs.is_empty()) {
        let (z, rest) = zs.split_at_mut(take.min(zs.len()));
        // SAFETY: the caller's.
        unsafe { Scale(z, *ph).run::<L>() };
        (zs, take) = (rest, p.norb);
    }
}

/// The kinetic line kernel on an explicit backend, over raw storage: every
/// line of `set`, one orbital block at a time, replays the units of `sweep`
/// (its passes as one wavefront), so a line's `n_axis x block` amplitudes
/// are read from beyond L1 once per sweep instead of once per pass. The
/// backend is resolved once per call; per element the arithmetic is that of
/// [`pair_rotate_with`] for a bare [`StencilPass::rotation`] (partnerless
/// points untouched), of [`pair_update_with`] / [`scale_with`] for any other
/// pass, on a run of the block's length — and, with `phases`, that of
/// [`scale_with`] by the point's phase before the first pass or after the
/// last. Lines are independent, so the phases' place in the wavefront moves
/// no bit.
///
/// The raw form exists for callers that hand disjoint, *strided* line
/// sets of one array to different threads (no `&mut` sub-slice can express
/// that); everyone else uses [`stencil_lines_with`].
///
/// # Safety
///
/// `len` elements must be live behind `ptr`, and for the duration of the
/// call nothing else may access the elements of the set's lines.
// SAFETY: (bounds=set.span() <= len, block >= 1, sweep.n_axis == set.n_axis
// (a unit's pair at, at + 1 is then on the line), at most MAX_PASSES passes
// each starting at 0 or 1, and a phase table covering set.span() are
// asserted before any access, aliasing=the caller grants exclusive access to
// the set's lines; stride >= norb is asserted so partner runs never overlap)
pub unsafe fn stencil_lines_raw<R: Real>(
    backend: Backend,
    ptr: *mut Complex<R>,
    len: usize,
    set: &LineSet,
    sweep: &Sweep<R>,
    phases: Option<&PointPhases<'_, R>>,
) {
    // AUDIT: waiver(entry guard before the raw-pointer sweep; a bad line set must fail loudly)
    assert!(
        set.block >= 1
            && set.span() <= len
            && (set.n_axis <= 1 || set.stride >= set.run)
            && sweep.n_axis == set.n_axis
            && sweep.passes.len() <= MAX_PASSES
            && sweep.passes.iter().all(|p| p.start <= 1)
            && phases.is_none_or(|p| {
                p.norb >= 1 && set.span() <= p.table.len().saturating_mul(p.norb)
            }),
        "invalid line set {set:?} for a sweep of {} passes over {} points, {len} elements",
        sweep.passes.len(),
        sweep.n_axis
    );
    // SAFETY: (bounds=the checks above cover the body's contract)
    unsafe { vector(backend, Lines(ptr, set, sweep, phases)) };
}

/// [`stencil_lines_raw`] over a slice the caller owns outright.
pub fn stencil_lines_with<R: Real>(
    backend: Backend,
    data: &mut [Complex<R>],
    set: &LineSet,
    sweep: &Sweep<R>,
    phases: Option<&PointPhases<'_, R>>,
) {
    // SAFETY: the exclusive borrow covers every element of every line.
    unsafe { stencil_lines_raw(backend, data.as_mut_ptr(), data.len(), set, sweep, phases) };
}

// ---------------------------------------------------------------------------
// Radial pass (one centre against a run of partners)
// ---------------------------------------------------------------------------

/// What the radial pass adds for a partner beyond the near radius, at
/// distance `d` and displacement `(dx, dy, dz)`; a near partner goes to the
/// [`Near`] list instead, with the caller's [`NearTerms`].
#[derive(Debug)]
pub enum Far<'a> {
    /// Nothing: the caller's function vanishes there.
    None,
    /// `Sums(w, force2)`: `[sum w dx/d^3, sum w dy/d^3, sum w dz/d^3]` over
    /// the partners that are not near and have `r2 <= force2` — the force of
    /// `-Z/d` against the weights `w`, over `Z`; no energy. A vector of
    /// partners none of which is near or inside `force2` is skipped whole.
    Sums(&'a [f64], f64),
    /// `Field(v, s)`: `v[j] += s / d`.
    Field(&'a [Cell<f64>], f64),
}

/// One radial pass: `centre` against the partners `(x[j], y[j], z[j])`,
/// displacement `partner - centre` minimum-imaged as `d - l round(d / l)`
/// where `period` (the box lengths) is given. Partners with `r2 <= near2`
/// are near and go to the [`Near`] list; every other adds what `far` asks
/// for.
#[derive(Debug)]
pub struct RadialPass<'a> {
    pub centre: [f64; 3],
    pub partners: [&'a [f64]; 3],
    pub period: Option<[f64; 3]>,
    pub near2: f64,
    pub far: Far<'a>,
}

/// Reals of scratch per partner that a radial pass and its [`Near`] list
/// take: eight columns, `j | dx | dy | dz | r2 | t0 | t1 | t2`.
pub const NEAR_COLUMNS: usize = 8;

/// The arithmetic a caller's per-pair terms are written in, once: `f64` is
/// one pair, and the lane bodies run the same code on a vector of pairs.
/// Every operation rounds as the scalar IEEE one does and none is fused, so
/// a term has the same bits on every backend.
pub trait Lane:
    Copy
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::ops::Div<Output = Self>
{
    /// `x` in every lane.
    fn splat(x: f64) -> Self;
    fn sqrt(self) -> Self;
    /// To the nearest whole number, ties to even.
    fn round(self) -> Self;
    /// `if self <= b { x } else { y }` (`y` on a NaN).
    fn select_le(self, b: Self, x: Self, y: Self) -> Self;
    /// `table[k]`, `k` the whole part of `at` clamped into the table (and
    /// below `i32::MAX`), a NaN to the last entry; NaN from an empty table.
    fn gather(table: &[f64], at: Self) -> Self;
}

impl Lane for f64 {
    fn splat(x: f64) -> Self {
        x
    }
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    fn round(self) -> Self {
        self.round_ties_even()
    }
    fn select_le(self, b: Self, x: Self, y: Self) -> Self {
        if self <= b {
            x
        } else {
            y
        }
    }
    fn gather(table: &[f64], at: Self) -> Self {
        clamp(table, at).map_or(f64::NAN, |k| table[k as usize])
    }
}

/// `at` clamped into the indices of `table` (at most `i32::MAX`), a NaN to
/// the last; `None` for an empty table.
#[inline(always)]
fn clamp<V: Lane>(table: &[f64], at: V) -> Option<V> {
    let last = V::splat(table.len().min(i32::MAX as usize).checked_sub(1)? as f64);
    let (zero, at) = (V::splat(0.0), at.select_le(last, at, last));
    Some(at.select_le(zero, zero, at))
}

/// A caller's terms of one near pair, written once over [`Lane`] and run on
/// the lanes or one pair at a time. An implementation is
/// `#[inline(always)]`, so that it compiles into the lane entry point.
pub trait NearTerms {
    /// Three terms of the near partners `j` (whole numbers) at squared
    /// distances `r2`.
    fn terms<V: Lane>(&self, j: V, r2: V) -> [V; 3];
}

/// A radial pass's near partners in `j` order, left-packed into the
/// caller's scratch ([`NEAR_COLUMNS`] columns of `n` reals, the first
/// `count` of each filled), with their terms.
#[derive(Debug)]
pub struct Near<'a> {
    cols: &'a [f64],
    n: usize,
    count: usize,
}

impl Near<'_> {
    /// How many partners are near.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Near partner `k`: its index in the run, its displacement, its `r2`
    /// and its terms.
    pub fn get(&self, k: usize) -> (usize, [f64; 3], f64, [f64; 3]) {
        assert!(k < self.count, "near partner {k} of {}", self.count);
        let c = |col: usize| self.cols[col * self.n + k];
        (c(0) as usize, [c(1), c(2), c(3)], c(4), [c(5), c(6), c(7)])
    }
}

/// The radial pass on an explicit backend: the [`Far::Sums`] (zeros
/// otherwise) and the near partners, left-packed into `scratch` (at least
/// [`NEAR_COLUMNS`] reals per partner) in `j` order with their `terms`. One
/// body on every backend's lanes, and a sum is eight slots (partner `j` in
/// slot `j % 8`) added in one order, so the bits are the same on all of them.
pub fn radial_with<'a>(
    backend: Backend,
    pass: &RadialPass<'_>,
    terms: &impl NearTerms,
    scratch: &'a mut [f64],
) -> ([f64; 3], Near<'a>) {
    let n = pass.partners[0].len();
    let far = match pass.far {
        Far::Sums(w, _) => w.len(),
        Far::Field(v, _) => v.len(),
        Far::None => n,
    };
    let shapes = pass.partners.iter().all(|p| p.len() == n) && far == n;
    assert!(shapes, "radial pass shape mismatch");
    let cols = &mut scratch[..NEAR_COLUMNS * n];
    let (mut sums, mut count) = ([[0.0; 8]; 3], 0);
    let body = Radial(pass, terms, &mut *cols, &mut sums, &mut count);
    // SAFETY: (bounds=the assert and the slice above are the body's contract)
    unsafe { vector(backend, body) };
    let sums = sums.map(|s| ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])));
    (sums, Near { cols, n, count })
}

/// [`radial_with`] on the [`active_backend`].
pub fn radial<'a>(
    pass: &RadialPass<'_>,
    terms: &impl NearTerms,
    scratch: &'a mut [f64],
) -> ([f64; 3], Near<'a>) {
    radial_with(active_backend(), pass, terms, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simd_choice_parses_or_says_why_not() {
        for auto in ["", "  ", "auto", " auto\n"] {
            assert_eq!(parse_simd(auto), Ok(None), "{auto:?}");
        }
        assert_eq!(parse_simd("avx2"), Ok(Some(Backend::Avx2)));
        assert_eq!(parse_simd(" scalar "), Ok(Some(Backend::Scalar)));
        for bad in ["sclar", "Scalar", "0", "avx512"] {
            let msg = parse_simd(bad).expect_err(bad);
            assert!(msg.contains(&format!("{bad:?}")) && msg.contains("auto|avx2|scalar"));
        }
    }

    #[test]
    fn a_sweep_is_its_wavefront_less_the_units_that_do_nothing() {
        // Every start pattern of up to MAX_PASSES passes, all bare, none bare
        // or bare but the last (the kinetic tables), on lines of 0..=40
        // points: the units are the wavefront's in its order, but for the
        // bare passes' partnerless points after the first pass, and as many
        // as the passes' pairs and kept partnerless points.
        let pass = |start: usize, bare: bool| StencilPass {
            start,
            d: Complex::new(0.6, if bare { 0.0 } else { 0.1 }),
            o: Complex::new(0.0, -0.8),
            lone: if bare {
                Complex::one()
            } else {
                Complex::new(0.0, 1.0)
            },
        };
        for n_axis in 0..=40 {
            for n in 0..=MAX_PASSES {
                let kinds = [0, !0, !(1 << n.saturating_sub(1))];
                for (starts, bare) in (0..1 << n).flat_map(|s| kinds.map(|k| (s, k))) {
                    let passes: Vec<_> = (0..n)
                        .map(|q| pass(starts >> q & 1, bare >> q & 1 == 1))
                        .collect();
                    let sweep = Sweep::new(&passes, n_axis);
                    let mut units = sweep.units.iter();
                    let order = Wavefront {
                        passes: &passes,
                        n_axis,
                        done: [0; MAX_PASSES],
                    };
                    for (q, pass, at, lone) in order {
                        let rotation = pass.rotation().is_some();
                        if lone && rotation && q > 0 {
                            continue;
                        }
                        let op = match (rotation, lone) {
                            (true, true) => Op::Touch,
                            (true, false) => Op::Rotate(pass.d, pass.o),
                            (false, true) => Op::Scale(pass.lone),
                            (false, false) => Op::Pair(pass.d, pass.o),
                        };
                        assert_eq!(
                            units.next(),
                            Some(&Unit { q, at, op }),
                            "{n_axis} {passes:?}"
                        );
                    }
                    assert_eq!(units.next(), None, "{n_axis} {passes:?}");
                    let kept: usize = (passes.iter().enumerate())
                        .map(|(q, p)| {
                            let pairs = n_axis.saturating_sub(p.start) / 2;
                            let dropped = p.rotation().is_some() && q > 0;
                            pairs + if dropped { 0 } else { n_axis - 2 * pairs }
                        })
                        .sum();
                    assert_eq!(sweep.units.len(), kept, "{n_axis} {passes:?}");
                }
            }
        }
    }
}
