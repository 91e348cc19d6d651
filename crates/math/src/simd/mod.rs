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
//!   per 256-byte run. A pass that is a bare rotation goes through
//!   [`pair_rotate_with`] and leaves its partnerless points alone. A sweep
//!   may also multiply in a phase per point ([`PointPhases`]).
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
//! * `scalar` — force the portable path: plain `Complex<R>` arithmetic, no
//!   FMA contraction. The pointwise and line kernels then perform the
//!   arithmetic sequence of the pre-SIMD code.
//!
//! Each vector kernel body is written once over the lane trait of
//! `lanes.rs` and instantiated per width: `f64` runs it in `__m256d` or
//! `__m512d` (two or four complex values per vector), `f32` in `__m256` or
//! `__m512` (four or eight), the vector chosen from `R` through
//! [`Vectorized`]. Every lane operation is lane-local and no body reduces
//! across lanes (the radial pass sums into eight fixed slots, one or two
//! vectors), so both widths give the same bits.
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

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod lanes;

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
    /// Portable scalar kernels — bitwise identical to the pre-SIMD code.
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

/// Runs `body` on the lanes `backend` resolves to; `false`, having run
/// nothing, where that is the scalar path.
///
/// # Safety
///
/// The body's own contract holds.
#[cfg(target_arch = "x86_64")]
unsafe fn vector<R: Real>(backend: Backend, body: impl avx2::Body<R>) -> bool {
    match resolve(backend) {
        // SAFETY: (cpu=avx512f) checked by `resolve`; the rest is the caller's.
        Backend::Avx512 => unsafe { avx2::on_512(body) },
        // SAFETY: (cpu=avx2) checked by `resolve`; the rest is the caller's.
        Backend::Avx2 => unsafe { avx2::on_256(body) },
        Backend::Scalar => return false,
    }
    true
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
// Pointwise kernels (scalar reference + dispatch)
// ---------------------------------------------------------------------------

/// `z *= ph` over a slice — scalar reference (the potential/phase loop).
// Out of line for the same reason as `pair_update_scalar`.
#[inline(never)]
pub fn scale_scalar<R: Real>(zs: &mut [Complex<R>], ph: Complex<R>) {
    for z in zs {
        *z *= ph;
    }
}

/// The kinetic stencil 2×2 pair rotation over two equal-length slices —
/// scalar reference (the exact arithmetic of the sweep inner loop):
/// `a' = d*a + o*b`, `b' = o*a + d*b`.
// Out of line: the `noalias` of the two `&mut` runs only survives a call
// boundary. Inlined into the portable line kernel, whose runs all derive
// from one raw pointer, the loop no longer auto-vectorizes (the forced-scalar
// path 3.5x slower on f32, measured).
#[inline(never)]
pub fn pair_update_scalar<R: Real>(
    a: &mut [Complex<R>],
    b: &mut [Complex<R>],
    d: Complex<R>,
    o: Complex<R>,
) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let u = *x;
        let v = *y;
        *x = d * u + o * v;
        *y = o * u + d * v;
    }
}

/// The bare pair rotation `a' = c*a - i*s*b`, `b' = -i*s*a + c*b` with real
/// `c`, `s` — scalar reference: [`pair_update_scalar`] at `d = (c, 0)`,
/// `o = (0, -s)` without the products that are zero.
// Out of line for the same reason as `pair_update_scalar`.
#[inline(never)]
pub fn pair_rotate_scalar<R: Real>(a: &mut [Complex<R>], b: &mut [Complex<R>], c: R, s: R) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let (u, v) = (*x, *y);
        *x = Complex::new(c * u.re + s * v.im, c * u.im - s * v.re);
        *y = Complex::new(c * v.re + s * u.im, c * v.im - s * u.re);
    }
}

/// `z *= ph` over a slice on an explicit backend.
pub fn scale_with<R: Real>(backend: Backend, zs: &mut [Complex<R>], ph: Complex<R>) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a slice is all the body asks for.
    if unsafe { vector(backend, avx2::Scale(zs, ph)) } {
        return;
    }
    let _ = backend;
    scale_scalar(zs, ph);
}

/// A run of a line.
type Run<'a, R> = &'a mut [Complex<R>];

/// What the line kernel does with a unit of a wavefront (`p` on the run `a`
/// and its partner `b`, if any) and with a point's phase: the scalar
/// references or a lane body's. Not closures, so that a lane body's methods
/// are `#[inline(always)]` into its entry point.
trait LineOps<R: Real> {
    /// # Safety
    ///
    /// The target features of the implementor's lanes are enabled.
    unsafe fn unit(&self, p: &StencilPass<R>, a: Run<R>, b: Option<Run<R>>);
    /// # Safety
    ///
    /// As for `unit`.
    unsafe fn point(&self, z: Run<R>, ph: Complex<R>);
}

struct ScalarOps;

impl<R: Real> LineOps<R> for ScalarOps {
    unsafe fn unit(&self, p: &StencilPass<R>, a: Run<R>, b: Option<Run<R>>) {
        match (p.rotation(), b) {
            (Some(_), None) => {}
            (Some((c, s)), Some(b)) => pair_rotate_scalar(a, b, c, s),
            (None, None) => scale_scalar(a, p.lone),
            (None, Some(b)) => pair_update_scalar(a, b, p.d, p.o),
        }
    }

    unsafe fn point(&self, z: Run<R>, ph: Complex<R>) {
        scale_scalar(z, ph);
    }
}

/// Stencil pair rotation on an explicit backend.
pub fn pair_update_with<R: Real>(
    backend: Backend,
    a: &mut [Complex<R>],
    b: &mut [Complex<R>],
    d: Complex<R>,
    o: Complex<R>,
) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: two disjoint slices are all the body asks for.
    if unsafe { vector(backend, avx2::Pair::<R, false>(a, b, d, o)) } {
        return;
    }
    let _ = backend;
    pair_update_scalar(a, b, d, o);
}

/// Bare pair rotation (see [`pair_rotate_scalar`]) on an explicit backend.
pub fn pair_rotate_with<R: Real>(
    backend: Backend,
    a: &mut [Complex<R>],
    b: &mut [Complex<R>],
    c: R,
    s: R,
) {
    #[cfg(target_arch = "x86_64")]
    {
        let (d, o) = (Complex::new(c, R::ZERO), Complex::new(R::ZERO, -s));
        // SAFETY: two disjoint slices are all the body asks for.
        if unsafe { vector(backend, avx2::Pair::<R, true>(a, b, d, o)) } {
            return;
        }
    }
    let _ = backend;
    pair_rotate_scalar(a, b, c, s);
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
    #[cfg(target_arch = "x86_64")]
    // SAFETY: (bounds=the assert above is the body's contract)
    if unsafe { vector(backend, avx2::Gemm(x, (sa, sq), nq, b, c, ncols)) } {
        return;
    }
    let _ = backend;
    for (a, row) in c.chunks_exact_mut(ncols).enumerate() {
        for (q, brow) in b.chunks_exact(ncols).enumerate() {
            let xv = x[a * sa + q * sq];
            for (z, bv) in row.iter_mut().zip(brow) {
                *z += xv * *bv;
            }
        }
    }
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
    /// `lone = 1`, which the line kernel sends to [`pair_rotate_with`].
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
/// is bit-for-bit that of separate sweeps.
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
    #[inline(always)]
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

/// How many lines of `set` one wavefront of `n_passes` drives in lockstep,
/// paying its per-unit bookkeeping once for all of them (short lines pay it
/// often): when a run is one block and the line step is no multiple of 4 KiB
/// (4K aliasing: such lines share L1 sets and fool the store buffer), as many
/// lines as keep their live points, one more than the passes each, in 16 KiB
/// (half an L1).
fn lockstep_lines<R>(set: &LineSet, n_passes: usize) -> usize {
    let size = std::mem::size_of::<Complex<R>>();
    if set.block < set.run || (set.line_step * size).is_multiple_of(4096) {
        return 1;
    }
    (16384 / ((n_passes + 1) * set.run * size).max(1)).clamp(1, set.n_lines.max(1))
}

/// The loop nest of the line kernel, one for both backends: every line of
/// `set`, one orbital block at a time, hands the units of a [`Wavefront`]
/// over `passes` to `ops.unit` as the pass, the run it touches and that run's
/// partner (none for a partnerless point). Short lines go in lockstep groups
/// ([`lockstep_lines`]): each unit for every line of the group. With
/// `phases`, each point goes to `ops.point` with its phase before the first
/// pass's unit over it, or after the wavefront of its line (group): in one
/// run where the line's runs follow each other.
///
/// # Safety
///
/// Same contract as [`stencil_lines_raw`], whose checks ran already.
// SAFETY: (bounds=every run of len elements from first + line*line_step +
// nb + i*stride with line < n_lines and i < n_axis and nb + len <= run ends
// at or below set.span() which the dispatcher checked against the
// allocation and the phase table, aliasing=the caller owns the set's lines;
// partner runs are stride >= run >= len apart)
#[inline(always)]
unsafe fn line_units<R: Real>(
    ptr: *mut Complex<R>,
    set: &LineSet,
    passes: &[StencilPass<R>],
    phases: Option<&PointPhases<'_, R>>,
    ops: &impl LineOps<R>,
) {
    let group = lockstep_lines::<R>(set, passes.len());
    let pre = phases.filter(|p| p.at == PhaseAt::BeforeFirstPass);
    let post = phases.filter(|p| p.at == PhaseAt::AfterLastPass);
    // A run's point by multiply-adds where the set steps by whole points: a
    // division per run costs more than a point's phase.
    let norb = phases.map_or(1, |p| p.norb.max(1));
    let (pl, ps) = (set.line_step / norb, set.stride / norb);
    let whole = set.line_step.is_multiple_of(norb) && set.stride.is_multiple_of(norb);
    let mut line = 0;
    while line < set.n_lines {
        let lines = group.min(set.n_lines - line);
        let mut nb = 0;
        while nb < set.run {
            let len = (set.run - nb).min(set.block);
            let (p0, r0) = ((set.first + nb) / norb, (set.first + nb) % norb);
            // Element `e`, point `i` of line `l`: its point and offset in it.
            let point = |l: usize, i: usize, e: usize| match whole {
                true => (p0 + l * pl + i * ps, r0),
                false => (e / norb, e % norb),
            };
            let units = Wavefront {
                passes,
                n_axis: set.n_axis,
                done: [0; MAX_PASSES],
            };
            for (q, pass, at, lone) in units {
                for l in line..line + lines {
                    let a = set.first + l * set.line_step + nb + at * set.stride;
                    let b = a + set.stride;
                    if let Some(p) = pre.filter(|_| q == 0) {
                        // SAFETY: the runs claimed above; the caller's
                        // contract covers `ops` (here and below).
                        unsafe { phase_run(ptr, a, len, point(l, at, a), p, ops) };
                        if !lone {
                            // SAFETY: as above.
                            unsafe { phase_run(ptr, b, len, point(l, at + 1, b), p, ops) };
                        }
                    }
                    // SAFETY: as above; each slice is dropped before the
                    // next one over its elements.
                    let run = |e: usize| unsafe { std::slice::from_raw_parts_mut(ptr.add(e), len) };
                    // SAFETY: as above.
                    unsafe { ops.unit(pass, run(a), (!lone).then(|| run(b))) };
                }
            }
            if let Some(p) = post {
                let (count, step) = match set.stride == len {
                    true => (1, set.n_axis * len),
                    false => (set.n_axis, len),
                };
                for l in line..line + lines {
                    for i in 0..count {
                        let e = set.first + l * set.line_step + nb + i * set.stride;
                        // SAFETY: the runs claimed above, `count` of them one.
                        unsafe { phase_run(ptr, e, step, point(l, i, e), p, ops) };
                    }
                }
            }
            nb += len;
        }
        line += lines;
    }
}

/// The `len` elements at `e`, which start `r` elements into point `pt`, to
/// `ops.point` one point (or the part of one they hold) at a time with its
/// phase from `p`: a fn, not a closure, to be inlined into a lane body.
///
/// # Safety
///
/// The elements are live and the caller's alone, and the contract of `ops`.
#[inline(always)]
unsafe fn phase_run<R: Real>(
    ptr: *mut Complex<R>,
    e: usize,
    len: usize,
    (pt, r): (usize, usize),
    p: &PointPhases<'_, R>,
    ops: &impl LineOps<R>,
) {
    // SAFETY: the caller's.
    let mut zs = unsafe { std::slice::from_raw_parts_mut(ptr.add(e), len) };
    let (mut take, mut phases) = (p.norb.saturating_sub(r), p.table.iter().skip(pt));
    while let Some(ph) = phases.next().filter(|_| !zs.is_empty()) {
        let (z, rest) = zs.split_at_mut(take.min(zs.len()));
        // SAFETY: the caller's.
        unsafe { ops.point(z, *ph) };
        (zs, take) = (rest, p.norb);
    }
}

/// The kinetic line kernel on an explicit backend, over raw storage: every
/// line of `set`, one orbital block at a time, takes the passes of a sweep
/// (at most [`MAX_PASSES`]) as one wavefront, so a line's `n_axis x block`
/// amplitudes are read from beyond L1 once per sweep instead of once per
/// pass. The backend is resolved once per call; per element the arithmetic
/// is that of [`pair_rotate_with`] for a bare [`StencilPass::rotation`]
/// (partnerless points untouched), of [`pair_update_with`] / [`scale_with`]
/// for any other pass, on a run of the block's length — and, with `phases`,
/// that of [`scale_with`] by the point's phase before the first pass or
/// after the last. Lines are independent, so neither the lockstep groups nor
/// the phases' place in the wavefront move a bit.
///
/// The raw form exists for callers that hand disjoint, *strided* line
/// sets of one array to different threads (no `&mut` sub-slice can express
/// that); everyone else uses [`stencil_lines_with`].
///
/// # Safety
///
/// `len` elements must be live behind `ptr`, and for the duration of the
/// call nothing else may access the elements of the set's lines.
// SAFETY: (bounds=set.span() <= len, block >= 1 and a phase table covering
// set.span() are asserted before any access, aliasing=the caller grants
// exclusive access to the set's lines; stride >= norb is asserted so
// partner runs never overlap)
pub unsafe fn stencil_lines_raw<R: Real>(
    backend: Backend,
    ptr: *mut Complex<R>,
    len: usize,
    set: &LineSet,
    passes: &[StencilPass<R>],
    phases: Option<&PointPhases<'_, R>>,
) {
    // AUDIT: waiver(entry guard before the raw-pointer sweep; a bad line set must fail loudly)
    assert!(
        set.block >= 1
            && set.span() <= len
            && (set.n_axis <= 1 || set.stride >= set.run)
            && passes.len() <= MAX_PASSES
            && passes.iter().all(|p| p.start <= 1)
            && phases.is_none_or(|p| {
                p.norb >= 1 && set.span() <= p.table.len().saturating_mul(p.norb)
            }),
        "invalid line set {set:?} of {} passes over {len} elements",
        passes.len()
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: (bounds=the checks above cover the body's contract)
    if unsafe { vector(backend, avx2::Lines(ptr, set, passes, phases)) } {
        return;
    }
    let _ = backend;
    // SAFETY: the checks above cover the nest's contract.
    unsafe { line_units(ptr, set, passes, phases, &ScalarOps) };
}

/// [`stencil_lines_raw`] over a slice the caller owns outright.
pub fn stencil_lines_with<R: Real>(
    backend: Backend,
    data: &mut [Complex<R>],
    set: &LineSet,
    passes: &[StencilPass<R>],
    phases: Option<&PointPhases<'_, R>>,
) {
    // SAFETY: the exclusive borrow covers every element of every line.
    unsafe { stencil_lines_raw(backend, data.as_mut_ptr(), data.len(), set, passes, phases) };
}

// ---------------------------------------------------------------------------
// Radial pass (one centre against a run of partners)
// ---------------------------------------------------------------------------

/// What the radial pass adds for a partner beyond the near radius, at
/// distance `d` and displacement `(dx, dy, dz)`.
#[derive(Debug)]
pub enum Far<'a> {
    /// Nothing: the caller's function vanishes there.
    None,
    /// `Sums(w, force2)`: `[sum w/d, sum w dx/d^3, sum w dy/d^3, sum w dz/d^3]`,
    /// the last three over `r2 <= force2` only — the energy and the force of
    /// `-Z/d` against the weights `w`, over `Z`.
    Sums(&'a [f64], f64),
    /// `Field(v, s)`: `v[j] += s / d`.
    Field(&'a [Cell<f64>], f64),
}

/// One radial pass: `centre` against the partners `(x[j], y[j], z[j])`,
/// displacement `partner - centre` minimum-imaged as `d - l round(d / l)`
/// where `period` (the box lengths) is given. Partners with `r2 <= near2`
/// are near; every other adds what `far` asks for.
#[derive(Debug)]
pub struct RadialPass<'a> {
    pub centre: [f64; 3],
    pub partners: [&'a [f64]; 3],
    pub period: Option<[f64; 3]>,
    pub near2: f64,
    pub far: Far<'a>,
}

/// The radial pass on an explicit backend: every near partner goes to
/// `on_near(j, displacement, r2)` in `j` order, and the [`Far::Sums`] come
/// back (zeros otherwise). The lanes and the scalar twin make the same IEEE
/// operations, and a sum is eight slots (partner `j` in slot `j % 8`) added
/// in one order, so the bits are the same on every backend.
pub fn radial_with(
    backend: Backend,
    pass: &RadialPass<'_>,
    mut on_near: impl FnMut(usize, [f64; 3], f64),
) -> [f64; 4] {
    let n = pass.partners[0].len();
    let far = match pass.far {
        Far::Sums(w, _) => w.len(),
        Far::Field(v, _) => v.len(),
        Far::None => n,
    };
    let shapes = pass.partners.iter().all(|p| p.len() == n) && far == n;
    assert!(shapes, "radial pass shape mismatch");
    let mut sums = [[0.0; 8]; 4];
    dcmesh_pool::arena::with_scratch::<f64, 1, ()>([4 * n], |[out]| {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: (bounds=the assert above is the body's contract)
        let done = unsafe { vector(backend, avx2::Radial(pass, &mut *out, &mut sums)) };
        #[cfg(not(target_arch = "x86_64"))]
        let done = false;
        if !done {
            radial_scalar(pass, out, &mut sums);
        }
        let (d, r2) = out.split_at(3 * n);
        // The near list, compacted without a branch per partner (a fifth of
        // them are near, in no pattern a predictor learns).
        dcmesh_pool::arena::with_scratch::<u32, 1, ()>([n], |[near]| {
            let mut m = 0;
            for (j, &r2) in r2.iter().enumerate() {
                near[m] = j as u32;
                m += usize::from(r2 <= pass.near2);
            }
            for &j in &near[..m] {
                let j = j as usize;
                on_near(j, [d[j], d[n + j], d[2 * n + j]], r2[j]);
            }
        });
    });
    sums.map(|s| ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])))
}

/// [`radial_with`] on the [`active_backend`].
pub fn radial(pass: &RadialPass<'_>, on_near: impl FnMut(usize, [f64; 3], f64)) -> [f64; 4] {
    radial_with(active_backend(), pass, on_near)
}

/// The scalar twin of `avx2::Radial`, operation for operation.
fn radial_scalar(pass: &RadialPass<'_>, out: &mut [f64], sums: &mut [[f64; 8]; 4]) {
    let n = pass.partners[0].len();
    for j in 0..n {
        let d: [f64; 3] = std::array::from_fn(|ax| {
            let x = pass.partners[ax][j] - pass.centre[ax];
            pass.period
                .map_or(x, |l| x - l[ax] * (x * (1.0 / l[ax])).round_ties_even())
        });
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        for (k, x) in d.into_iter().chain([r2]).enumerate() {
            out[k * n + j] = x;
        }
        match pass.far {
            _ if r2 <= pass.near2 => {}
            Far::None => {}
            Far::Sums(w, force2) => {
                let (e, slot) = (w[j] / r2.sqrt(), j % 8);
                let g = if r2 <= force2 { e / r2 } else { 0.0 };
                sums[0][slot] += e;
                (1..4).for_each(|k| sums[k][slot] += g * d[k - 1]);
            }
            Far::Field(v, scale) => v[j].set(v[j].get() + scale / r2.sqrt()),
        }
    }
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
}
