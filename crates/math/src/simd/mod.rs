//! Split-complex SIMD microkernels with runtime backend dispatch.
//!
//! The paper's SoA-layout contribution (§III-A, Alg. 3) observes that
//! interleaved complex arrays defeat vector units: every vector load drags
//! in the other component, halving effective bandwidth and blocking FMA
//! contraction. This module applies the same idea at register level:
//!
//! * **Split-complex packed GEMM** ([`try_gemm_packed`]) — operands are
//!   repacked into separate re/im panels (SoA), and a 4×4 register-tiled
//!   AVX2+FMA microkernel contracts them with 16 FMAs per k-step, the
//!   textbook BLIS structure specialized to complex-as-two-reals.
//! * **Pointwise kernels** ([`pair_update`], [`pair_rotate_with`], [`scale`])
//!   — the kinetic stencil 2×2 pair update, its bare form `[[c, -is], [-is,
//!   c]]` with real `c`, `s` (half the arithmetic) and the phase/potential
//!   pointwise multiply. All work on the interleaved `Complex<f64>` lanes
//!   directly (a complex product is a multiply and an FMA against the value
//!   and its re/im swap), so every element rounds alike wherever it sits in
//!   a run.
//! * **Projector kernels** ([`proj_overlap_with`], [`proj_update`]) — the two
//!   skinny complex GEMMs of the nonlocal correction, `M = T·T0ᴴ` (tiny
//!   output, contraction over the grid) and `T += M·T0` (tiny inner
//!   dimension) with the row norms of the result from the same pass. The
//!   accumulator tile, respectively the orbital run of a grid point, stays
//!   in registers; grid chunks are spread over the pool and their partials
//!   added in an order that depends on the shape alone.
//! * **Kinetic line kernel** ([`stencil_lines_with`]) — paper Algorithms 3–5 as
//!   one loop nest: the passes of a sweep (up to [`MAX_PASSES`]) applied to
//!   a line (or a bundle of adjacent lines) as a wavefront, so the live
//!   points stay in L1 and the backend is resolved once per call, not once
//!   per 256-byte run. A pass that is a bare rotation goes through
//!   [`pair_rotate_with`] and leaves its partnerless points alone.
//!
//! # Backend selection
//!
//! The active backend resolves once from `DCMESH_SIMD`:
//!
//! * `auto` (default) — AVX2+FMA when the CPU has it, else scalar;
//! * `avx2` — force AVX2 (silently degrades to scalar when unsupported);
//! * `scalar` — force the portable path: plain `Complex<R>` arithmetic, no
//!   FMA contraction, also what every `f32` call runs. The pointwise and
//!   line kernels then perform the arithmetic sequence of the pre-SIMD
//!   code; the projector kernels sum their chunk partials in chunk order.
//!
//! Every kernel also has a `*_with(backend, ..)` variant taking an explicit
//! [`Backend`], used by the equivalence tests and benches so they never
//! mutate process-global state. All raw `std::arch` use in the workspace
//! lives in this directory — enforced by the `analyze` lint.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::complex::Complex;
use crate::gemm::Op;
use crate::real::Real;
use dcmesh_pool::arena::with_scratch;
use dcmesh_pool::{global as pool, SlicePtr};

#[cfg(target_arch = "x86_64")]
mod avx2;

// ---------------------------------------------------------------------------
// Backend dispatch
// ---------------------------------------------------------------------------

/// Instruction-set backend for the complex kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// AVX2 + FMA split-complex kernels (f64 only; other types fall back).
    Avx2,
    /// Portable scalar kernels — bitwise identical to the pre-SIMD code.
    Scalar,
}

/// Does this CPU support the AVX2+FMA kernels? Cached after first query.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// 0 = no override, 1 = Avx2, 2 = Scalar.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn env_backend() -> Backend {
    static DEFAULT: OnceLock<Backend> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let want = std::env::var("DCMESH_SIMD").unwrap_or_default();
        match want.trim() {
            "scalar" => Backend::Scalar,
            // "avx2" and "auto" (or unset) both take AVX2 when available.
            _ => {
                if avx2_available() {
                    Backend::Avx2
                } else {
                    Backend::Scalar
                }
            }
        }
    })
}

/// The backend the implicit-dispatch kernels use right now:
/// programmatic override (see [`set_backend`]) else `DCMESH_SIMD`.
pub fn active_backend() -> Backend {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => Backend::Avx2,
        2 => Backend::Scalar,
        _ => env_backend(),
    }
}

/// Programmatic backend override (benches / `--simd` flags). An `Avx2`
/// request on hardware without AVX2+FMA still runs scalar — dispatch
/// re-checks CPU support.
pub fn set_backend(b: Backend) {
    let v = match b {
        Backend::Avx2 => 1,
        Backend::Scalar => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// Drop the [`set_backend`] override, returning to `DCMESH_SIMD` dispatch.
pub fn clear_backend_override() {
    OVERRIDE.store(0, Ordering::Relaxed);
}

#[inline(always)]
fn is_f64<R: Real>() -> bool {
    std::any::TypeId::of::<R>() == std::any::TypeId::of::<f64>()
}

/// Reinterpret a `Complex<R>` slice as `Complex<f64>`.
///
/// # Safety
///
/// Caller must have proven `R == f64` (e.g. via [`is_f64`]); the layouts
/// are then identical and the cast is the identity.
// SAFETY: (bounds=identity cast; element layout and slice length are
// unchanged, aliasing=borrow rules carry over from the input reference)
#[inline(always)]
unsafe fn cast_slice<R: Real>(s: &[Complex<R>]) -> &[Complex<f64>] {
    // SAFETY: R == f64 per the caller contract, so element layout and
    // slice length are unchanged.
    unsafe { &*(s as *const [Complex<R>] as *const [Complex<f64>]) }
}

/// Mutable variant of [`cast_slice`].
///
/// # Safety
///
/// Same contract as [`cast_slice`].
// SAFETY: (bounds=identity cast; element layout and slice length are
// unchanged, aliasing=the exclusive borrow carries over from the input)
#[inline(always)]
unsafe fn cast_slice_mut<R: Real>(s: &mut [Complex<R>]) -> &mut [Complex<f64>] {
    // SAFETY: R == f64 per the caller contract.
    unsafe { &mut *(s as *mut [Complex<R>] as *mut [Complex<f64>]) }
}

/// Reinterpret an `R` slice as `f64`.
///
/// # Safety
///
/// Same contract as [`cast_slice`].
// SAFETY: (bounds=identity cast; element layout and slice length are
// unchanged, aliasing=the exclusive borrow carries over from the input)
#[inline(always)]
unsafe fn cast_reals_mut<R: Real>(s: &mut [R]) -> &mut [f64] {
    // SAFETY: R == f64 per the caller contract.
    unsafe { &mut *(s as *mut [R] as *mut [f64]) }
}

#[inline(always)]
fn cast_c<R: Real>(z: Complex<R>) -> Complex<f64> {
    Complex::new(z.re.to_f64(), z.im.to_f64())
}

/// Should the AVX2 path run for this call? (backend, element type, CPU.)
#[inline(always)]
fn use_avx2<R: Real>(backend: Backend) -> bool {
    backend == Backend::Avx2 && is_f64::<R>() && avx2_available()
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
// boundary. Inlined into the line kernel, whose runs all derive from one
// raw pointer, the loop no longer vectorizes (3.5x slower on f32, measured).
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
    if use_avx2::<R>(backend) {
        // SAFETY: (bounds=R == f64 per use_avx2 so the casts are identity)
        let z64 = unsafe { cast_slice_mut(zs) };
        // SAFETY: (cpu=avx2) `use_avx2` verified AVX2+FMA CPU support.
        unsafe { avx2::scale(z64, cast_c(ph)) };
        return;
    }
    let _ = backend;
    scale_scalar(zs, ph);
}

/// `z *= ph` over a slice on the [`active_backend`].
#[inline]
pub fn scale<R: Real>(zs: &mut [Complex<R>], ph: Complex<R>) {
    scale_with(active_backend(), zs, ph);
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
    if use_avx2::<R>(backend) {
        // SAFETY: (bounds=R == f64 per use_avx2 so the casts are identity)
        let (a64, b64) = unsafe { (cast_slice_mut(a), cast_slice_mut(b)) };
        // SAFETY: (cpu=avx2) `use_avx2` verified AVX2+FMA CPU support.
        unsafe { avx2::pair_update::<false>(a64, b64, cast_c(d), cast_c(o)) };
        return;
    }
    let _ = backend;
    pair_update_scalar(a, b, d, o);
}

/// Stencil pair rotation on the [`active_backend`].
#[inline]
pub fn pair_update<R: Real>(
    a: &mut [Complex<R>],
    b: &mut [Complex<R>],
    d: Complex<R>,
    o: Complex<R>,
) {
    pair_update_with(active_backend(), a, b, d, o);
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
    if use_avx2::<R>(backend) {
        let d = Complex::new(c.to_f64(), 0.0);
        let o = Complex::new(0.0, -s.to_f64());
        // SAFETY: (cpu=avx2, bounds=R == f64 per use_avx2 so the casts are
        // identity) `use_avx2` verified AVX2+FMA CPU support.
        unsafe { avx2::pair_update::<true>(cast_slice_mut(a), cast_slice_mut(b), d, o) };
        return;
    }
    let _ = backend;
    pair_rotate_scalar(a, b, c, s);
}

// ---------------------------------------------------------------------------
// Skinny projector kernels (the nonlocal correction's two GEMM shapes)
// ---------------------------------------------------------------------------

/// Grid points per parallel work unit (and per partial sum) of the
/// projector kernels. A constant, so the order in which partials are added
/// depends on the shape alone — never on the size of the pool.
pub const PROJ_CHUNK: usize = 512;

/// Portable body of [`proj_overlap_with`] for orbitals `n_lo..norb` of one
/// chunk: `part[u][n] += sum_p t[p][n] * conj(t0[p][u])`.
fn proj_overlap_portable<R: Real>(
    t: &[Complex<R>],
    norb: usize,
    t0: &[Complex<R>],
    nref: usize,
    n_lo: usize,
    part: &mut [Complex<R>],
) {
    if n_lo == norb {
        return;
    }
    for (tp, bp) in t.chunks_exact(norb).zip(t0.chunks_exact(nref)) {
        for (b, col) in bp.iter().zip(part.chunks_exact_mut(norb)) {
            let bc = b.conj();
            for (acc, z) in col[n_lo..].iter_mut().zip(&tp[n_lo..]) {
                *acc += *z * bc;
            }
        }
    }
}

/// The projector overlap `M = alpha * T * T0^H + beta * M` on an explicit
/// backend: `t` is the SoA wavefunction array viewed as a column-major
/// `norb x ngrid` matrix, `t0` a `nref x ngrid` reference block, `out` the
/// small column-major `norb x nref` result. `beta == 0` ignores what `out`
/// held.
///
/// The contraction runs over the grid in chunks of [`PROJ_CHUNK`] points
/// spread over the pool; each chunk accumulates its own partial (on AVX2
/// with the accumulator tile in registers across an L1-sized block of
/// points) and the partials are added in chunk order.
#[allow(clippy::too_many_arguments)]
pub fn proj_overlap_with<R: Real>(
    backend: Backend,
    alpha: Complex<R>,
    t: &[Complex<R>],
    norb: usize,
    t0: &[Complex<R>],
    nref: usize,
    beta: Complex<R>,
    out: &mut [Complex<R>],
) {
    assert_eq!(out.len(), norb * nref, "overlap output shape mismatch");
    if out.is_empty() {
        return;
    }
    let ngrid = t.len() / norb;
    assert_eq!(t.len(), ngrid * norb, "T storage size mismatch");
    assert_eq!(t0.len(), ngrid * nref, "T0 storage size mismatch");
    let avx2 = use_avx2::<R>(backend);
    let len = out.len();
    with_scratch::<Complex<R>, 1, ()>([ngrid.div_ceil(PROJ_CHUNK) * len], |[partials]| {
        pool().for_each_chunks_of_mut(partials, len, |ci, part| {
            part.fill(Complex::zero());
            let (p0, p1) = (ci * PROJ_CHUNK, ((ci + 1) * PROJ_CHUNK).min(ngrid));
            let (tc, bc) = (&t[p0 * norb..p1 * norb], &t0[p0 * nref..p1 * nref]);
            let mut n_lo = 0;
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: (cpu=avx2, bounds=R == f64 per use_avx2 so the
                // casts are identity) `use_avx2` verified CPU support.
                unsafe {
                    avx2::proj_overlap(
                        cast_slice(tc),
                        norb,
                        cast_slice(bc),
                        nref,
                        cast_slice_mut(part),
                    );
                }
                n_lo = norb & !3;
            }
            let _ = avx2;
            proj_overlap_portable(tc, norb, bc, nref, n_lo, part);
        });
        for (i, cv) in out.iter_mut().enumerate() {
            let mut acc = Complex::zero();
            for part in partials.chunks_exact(len) {
                acc += part[i];
            }
            *cv = if beta == Complex::zero() {
                alpha * acc
            } else {
                alpha * acc + beta * *cv
            };
        }
    });
}

/// Portable body of [`proj_update_with`] for orbitals `n_lo..norb` of one
/// chunk.
fn proj_update_portable<R: Real>(
    m: &[Complex<R>],
    t0: &[Complex<R>],
    nref: usize,
    t: &mut [Complex<R>],
    norb: usize,
    n_lo: usize,
    nrm: &mut [R],
) {
    if n_lo == norb {
        return;
    }
    for (tp, bp) in t.chunks_exact_mut(norb).zip(t0.chunks_exact(nref)) {
        let tp = &mut tp[n_lo..];
        for (b, col) in bp.iter().zip(m.chunks_exact(norb)) {
            for (z, mv) in tp.iter_mut().zip(&col[n_lo..]) {
                *z += *mv * *b;
            }
        }
        for (acc, z) in nrm[n_lo..].iter_mut().zip(tp.iter()) {
            *acc += z.norm_sqr();
        }
    }
}

/// The projector rank update `T += M * T0` on an explicit backend, with
/// the squared norm of every updated row `norms[n] = sum_g |T[n][g]|^2`
/// accumulated in the same pass: `m` is the small
/// column-major `norb x nref` coefficient matrix, `t0` the `nref x ngrid`
/// reference block, `t` the SoA array updated in place.
///
/// Chunks of [`PROJ_CHUNK`] grid points are spread over the pool (on AVX2
/// the orbital run of one grid point stays in registers across all `nref`
/// terms); per-chunk norm partials are added in chunk order.
pub fn proj_update_with<R: Real>(
    backend: Backend,
    m: &[Complex<R>],
    t0: &[Complex<R>],
    nref: usize,
    t: &mut [Complex<R>],
    norb: usize,
    norms: &mut [R],
) {
    assert_eq!(m.len(), norb * nref, "coefficient shape mismatch");
    assert_eq!(norms.len(), norb, "norm output length mismatch");
    if t.is_empty() {
        norms.fill(R::ZERO);
        return;
    }
    let ngrid = t.len() / norb;
    assert_eq!(t.len(), ngrid * norb, "T storage size mismatch");
    assert_eq!(t0.len(), ngrid * nref, "T0 storage size mismatch");
    let avx2 = use_avx2::<R>(backend);
    let n_chunks = ngrid.div_ceil(PROJ_CHUNK);
    with_scratch::<Complex<R>, 1, ()>([if avx2 { m.len() } else { 0 }], |[im]| {
        for (d, z) in im.iter_mut().zip(m) {
            *d = Complex::new(-z.im, z.re);
        }
        let im = &*im;
        with_scratch::<R, 1, ()>([n_chunks * norb], |[partials]| {
            let slots = SlicePtr::new(partials);
            pool().for_each_chunks_of_mut(t, PROJ_CHUNK * norb, |ci, tc| {
                // SAFETY: chunk index ci is claimed exactly once, so slot
                // [ci*norb, (ci+1)*norb) has no other live reference;
                // `partials` outlives the dispatch.
                let nrm = unsafe { slots.subslice_mut(ci * norb, (ci + 1) * norb) };
                nrm.fill(R::ZERO);
                let p0 = ci * PROJ_CHUNK;
                let bc = &t0[p0 * nref..(p0 + tc.len() / norb) * nref];
                let mut n_lo = 0;
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    // SAFETY: (cpu=avx2, bounds=R == f64 per use_avx2 so
                    // the casts are identity) `use_avx2` verified CPU
                    // support.
                    unsafe {
                        avx2::proj_update(
                            cast_slice(m),
                            cast_slice(im),
                            cast_slice(bc),
                            nref,
                            cast_slice_mut(tc),
                            norb,
                            cast_reals_mut(nrm),
                        );
                    }
                    n_lo = norb & !3;
                }
                let _ = (avx2, im);
                proj_update_portable(m, bc, nref, tc, norb, n_lo, nrm);
            });
            for (n, out) in norms.iter_mut().enumerate() {
                *out = partials.chunks_exact(norb).map(|part| part[n]).sum();
            }
        });
    });
}

/// [`proj_update_with`] on the [`active_backend`].
#[inline]
pub fn proj_update<R: Real>(
    m: &[Complex<R>],
    t0: &[Complex<R>],
    nref: usize,
    t: &mut [Complex<R>],
    norb: usize,
    norms: &mut [R],
) {
    proj_update_with(active_backend(), m, t0, nref, t, norb, norms);
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

/// One step of a [`Wavefront`]: rotate the pair `at, at + 1` by `pass`, or
/// (`lone`) multiply the partnerless point `at` by its phase.
struct StencilUnit<'a, R> {
    pass: &'a StencilPass<R>,
    at: usize,
    lone: bool,
}

impl<'a, R> Wavefront<'a, R> {
    fn new(passes: &'a [StencilPass<R>], n_axis: usize) -> Self {
        Self {
            passes,
            n_axis,
            done: [0; MAX_PASSES],
        }
    }
}

impl<'a, R> Iterator for Wavefront<'a, R> {
    type Item = StencilUnit<'a, R>;

    // AUDIT: no_panic
    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        // The latest pass that can move does: `ready` is how far the pass
        // before has got (the whole line, for the first).
        let mut ready = self.n_axis;
        let mut pick = None;
        for (pass, done) in self.passes.iter().zip(self.done.iter_mut()) {
            let at = *done;
            let lone = (at == 0 && pass.start == 1) || at + 1 == self.n_axis;
            let next = at + if lone { 1 } else { 2 };
            if at < self.n_axis && next <= ready {
                pick = Some((pass, done, at, lone, next));
            }
            ready = at;
        }
        let (pass, done, at, lone, next) = pick?;
        *done = next;
        Some(StencilUnit { pass, at, lone })
    }
}

/// Portable body of the line kernel: the loop nest of
/// `avx2::stencil_lines` over the scalar reference kernels.
///
/// # Safety
///
/// Same contract as [`stencil_lines_raw`], whose checks ran already.
// SAFETY: (bounds=every run of len elements from base + nb + i*stride
// with i < n_axis and nb + len <= run ends at or below set.span() which
// the dispatcher checked against the allocation, aliasing=the caller owns
// the set's lines; partner runs are stride >= run >= len apart)
unsafe fn stencil_lines_portable<R: Real>(
    ptr: *mut Complex<R>,
    set: &LineSet,
    passes: &[StencilPass<R>],
) {
    for line in 0..set.n_lines {
        let base = set.first + line * set.line_step;
        let mut nb = 0;
        while nb < set.run {
            let len = (set.run - nb).min(set.block);
            // SAFETY: see the bounds= and aliasing= claims above; each
            // slice is dropped before the next one over its elements.
            let run = |i: usize| unsafe {
                std::slice::from_raw_parts_mut(ptr.add(base + nb + i * set.stride), len)
            };
            for unit in Wavefront::new(passes, set.n_axis) {
                let (pass, at) = (unit.pass, unit.at);
                match (pass.rotation(), unit.lone) {
                    (Some(_), true) => {}
                    (Some((c, s)), false) => pair_rotate_scalar(run(at), run(at + 1), c, s),
                    (None, true) => scale_scalar(run(at), pass.lone),
                    (None, false) => pair_update_scalar(run(at), run(at + 1), pass.d, pass.o),
                }
            }
            nb += len;
        }
    }
}

/// The kinetic line kernel on an explicit backend, over raw storage: every
/// line of `set`, one orbital block at a time, takes the passes of a sweep
/// (at most [`MAX_PASSES`]) as one wavefront, so a line's `n_axis x block`
/// amplitudes are read from beyond L1 once per sweep instead of once per
/// pass. The backend is resolved once per call; per element the arithmetic
/// is that of [`pair_rotate_with`] for a bare [`StencilPass::rotation`]
/// (partnerless points untouched), of [`pair_update_with`] / [`scale_with`]
/// for any other pass, on a run of the block's length.
///
/// The raw form exists for callers that hand disjoint, *strided* line
/// sets of one array to different threads (no `&mut` sub-slice can express
/// that); everyone else uses [`stencil_lines_with`].
///
/// # Safety
///
/// `len` elements must be live behind `ptr`, and for the duration of the
/// call nothing else may access the elements of the set's lines.
// SAFETY: (bounds=set.span() <= len and block >= 1 are asserted before any
// access, aliasing=the caller grants exclusive access to the set's lines;
// stride >= norb is asserted so partner runs never overlap)
pub unsafe fn stencil_lines_raw<R: Real>(
    backend: Backend,
    ptr: *mut Complex<R>,
    len: usize,
    set: &LineSet,
    passes: &[StencilPass<R>],
) {
    // AUDIT: waiver(entry guard before the raw-pointer sweep; a bad line set must fail loudly)
    assert!(
        set.block >= 1
            && set.span() <= len
            && (set.n_axis <= 1 || set.stride >= set.run)
            && passes.len() <= MAX_PASSES
            && passes.iter().all(|p| p.start <= 1),
        "invalid line set {set:?} of {} passes over {len} elements",
        passes.len()
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2::<R>(backend) {
        // SAFETY: (cpu=avx2, bounds=R == f64 per use_avx2 so both pointer
        // casts are identities; the checks above cover the kernel's
        // contract) `use_avx2` verified CPU support.
        unsafe {
            avx2::stencil_lines(
                ptr as *mut Complex<f64>,
                set,
                &*(passes as *const [StencilPass<R>] as *const [StencilPass<f64>]),
            );
        }
        return;
    }
    let _ = backend;
    // SAFETY: the checks above cover the portable body's contract.
    unsafe { stencil_lines_portable(ptr, set, passes) };
}

/// [`stencil_lines_raw`] over a slice the caller owns outright.
pub fn stencil_lines_with<R: Real>(
    backend: Backend,
    data: &mut [Complex<R>],
    set: &LineSet,
    passes: &[StencilPass<R>],
) {
    // SAFETY: the exclusive borrow covers every element of every line.
    unsafe { stencil_lines_raw(backend, data.as_mut_ptr(), data.len(), set, passes) };
}

// ---------------------------------------------------------------------------
// Split-complex packed GEMM
// ---------------------------------------------------------------------------

/// Microkernel register tile: rows of C per microkernel call.
pub const MR: usize = 4;
/// Microkernel register tile: cols of C per microkernel call.
pub const NR: usize = 4;

/// Cache tiles of the packed GEMM: rows of the packed A block and
/// contraction depth per packing pass (A-panel 2 × MC × KC × 8 B = 256 KiB,
/// L2-resident; B sliver L1-resident), and columns per C panel — also the
/// parallel work-distribution grain.
const MC: usize = 64;
const KC: usize = 256;
const NC: usize = 128;

/// Element of `op(S)` at (r, c) for column-major storage with `rows` rows.
#[inline(always)]
fn op_at(s: &[Complex<f64>], rows: usize, op: Op, r: usize, c: usize) -> Complex<f64> {
    match op {
        Op::None => s[c * rows + r],
        Op::Trans => s[r * rows + c],
        Op::ConjTrans => s[r * rows + c].conj(),
    }
}

/// Pack an `mw x kw` block of `op(A)` (top-left at `(ic, pc)`) into
/// MR-row split-complex panels, zero-padding the ragged row tile.
/// Layout: panel `t` (rows `t*MR..`) occupies `[t*kw*MR ..][p*MR + ii]`.
#[allow(clippy::too_many_arguments)]
fn pack_a_splitc(
    a: &[Complex<f64>],
    rows: usize,
    op_a: Op,
    ic: usize,
    mw: usize,
    pc: usize,
    kw: usize,
    re: &mut [f64],
    im: &mut [f64],
) {
    let mp = mw.next_multiple_of(MR);
    for t in (0..mp).step_by(MR) {
        let base = t * kw; // == (t / MR) * (kw * MR)
        for p in 0..kw {
            for ii in 0..MR {
                let i = t + ii;
                let z = if i < mw {
                    op_at(a, rows, op_a, ic + i, pc + p)
                } else {
                    Complex::zero()
                };
                re[base + p * MR + ii] = z.re;
                im[base + p * MR + ii] = z.im;
            }
        }
    }
}

/// Pack a `kw x nw` block of `op(B)` (top-left at `(pc, jc)`) into
/// NR-column split-complex panels, zero-padding the ragged column tile.
#[allow(clippy::too_many_arguments)]
fn pack_b_splitc(
    b: &[Complex<f64>],
    rows: usize,
    op_b: Op,
    pc: usize,
    kw: usize,
    jc: usize,
    nw: usize,
    re: &mut [f64],
    im: &mut [f64],
) {
    let np = nw.next_multiple_of(NR);
    for t in (0..np).step_by(NR) {
        let base = t * kw; // == (t / NR) * (kw * NR)
        for p in 0..kw {
            for jj in 0..NR {
                let j = t + jj;
                let z = if j < nw {
                    op_at(b, rows, op_b, pc + p, jc + j)
                } else {
                    Complex::zero()
                };
                re[base + p * NR + jj] = z.re;
                im[base + p * NR + jj] = z.im;
            }
        }
    }
}

/// Split-complex packed GEMM on raw column-major f64 storage:
/// `C = alpha * op(A) * op(B) + beta * C`.
///
/// Parallelizes over `NC`-column panels of C on the persistent pool (each
/// panel is a disjoint output slice, and per-panel arithmetic order is
/// fixed, so results are deterministic for any worker count). Panel scratch
/// comes from the per-thread aligned arena — no allocation in steady state.
///
/// Callers must have verified AVX2+FMA support (see [`avx2_available`]);
/// [`try_gemm_packed`] is the checked dispatch.
#[allow(clippy::too_many_arguments)]
#[cfg(target_arch = "x86_64")]
fn gemm_packed_f64(
    alpha: Complex<f64>,
    a: &[Complex<f64>],
    (ar, _ac): (usize, usize),
    op_a: Op,
    b: &[Complex<f64>],
    (br, _bc): (usize, usize),
    op_b: Op,
    beta: Complex<f64>,
    c: &mut [Complex<f64>],
    (m, _n): (usize, usize),
    k: usize,
) {
    assert!(avx2_available(), "gemm_packed_f64 requires AVX2+FMA");
    pool().for_each_chunks_of_mut(c, m * NC, |panel, cpanel| {
        let j0 = panel * NC;
        let ncols = cpanel.len() / m.max(1);
        if beta != Complex::one() {
            for z in cpanel.iter_mut() {
                *z *= beta;
            }
        }
        let np = ncols.next_multiple_of(NR);
        with_scratch::<f64, 6, ()>(
            [MC * KC, MC * KC, KC * np, KC * np, MR * NR, MR * NR],
            |[are, aim, bre, bim, tre, tim]| {
                for pc in (0..k).step_by(KC) {
                    let kw = (pc + KC).min(k) - pc;
                    pack_b_splitc(b, br, op_b, pc, kw, j0, ncols, bre, bim);
                    for ic in (0..m).step_by(MC) {
                        let mw = (ic + MC).min(m) - ic;
                        pack_a_splitc(a, ar, op_a, ic, mw, pc, kw, are, aim);
                        for jt in (0..ncols).step_by(NR) {
                            let jw = (ncols - jt).min(NR);
                            let bre_p = &bre[jt * kw..(jt + NR) * kw];
                            let bim_p = &bim[jt * kw..(jt + NR) * kw];
                            for it in (0..mw).step_by(MR) {
                                let iw = (mw - it).min(MR);
                                let are_p = &are[it * kw..(it + MR) * kw];
                                let aim_p = &aim[it * kw..(it + MR) * kw];
                                // SAFETY: AVX2+FMA availability asserted at
                                // function entry; slices are kw*MR / kw*NR
                                // as the kernel requires.
                                unsafe {
                                    avx2::mk4x4(kw, are_p, aim_p, bre_p, bim_p, tre, tim);
                                }
                                for jj in 0..jw {
                                    let col = &mut cpanel
                                        [(jt + jj) * m + ic + it..(jt + jj) * m + ic + it + iw];
                                    for (ii, cv) in col.iter_mut().enumerate() {
                                        let z = Complex::new(tre[jj * MR + ii], tim[jj * MR + ii]);
                                        *cv += alpha * z;
                                    }
                                }
                            }
                        }
                    }
                }
            },
        );
    });
}

/// Checked dispatch into the split-complex packed GEMM. Returns `false`
/// (without touching `C`) when the backend, element type, or CPU has no
/// SIMD path — the caller then runs its scalar fallback.
#[allow(clippy::too_many_arguments)]
pub fn try_gemm_packed<R: Real>(
    backend: Backend,
    alpha: Complex<R>,
    a: &[Complex<R>],
    adims: (usize, usize),
    op_a: Op,
    b: &[Complex<R>],
    bdims: (usize, usize),
    op_b: Op,
    beta: Complex<R>,
    c: &mut [Complex<R>],
    cdims: (usize, usize),
    k: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if use_avx2::<R>(backend) {
        let (m, n) = cdims;
        // SAFETY: `use_avx2` proved R == f64, so these casts are identities.
        let (a64, b64, c64) = unsafe { (cast_slice(a), cast_slice(b), cast_slice_mut(c)) };
        gemm_packed_f64(
            cast_c(alpha),
            a64,
            adims,
            op_a,
            b64,
            bdims,
            op_b,
            cast_c(beta),
            c64,
            (m, n),
            k,
        );
        return true;
    }
    let _ = (
        backend, alpha, a, adims, op_a, b, bdims, op_b, beta, c, cdims, k,
    );
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::C64;

    fn seq(n: usize, salt: f64) -> Vec<C64> {
        (0..n)
            .map(|i| {
                let x = (i as f64) * 0.37 + salt;
                C64::new((x * 1.3).sin(), (x * 0.7).cos())
            })
            .collect()
    }

    #[test]
    fn pointwise_kernels_match_scalar_across_remainders() {
        // Covers every remainder lane count (len % 4 in 0..4).
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 17, 64, 65] {
            let alpha = C64::new(0.3, -0.8);
            let d = C64::new(0.9, 0.1);
            let o = C64::new(-0.2, 0.4);

            let mut zs = seq(len, 0.3);
            let mut zv = zs.clone();
            scale_with(Backend::Scalar, &mut zs, alpha);
            scale_with(Backend::Avx2, &mut zv, alpha);
            for (s, v) in zs.iter().zip(&zv) {
                assert!((*s - *v).abs() < 1e-14, "scale len={len}");
            }

            let (mut a_s, mut b_s) = (seq(len, 0.4), seq(len, 0.5));
            let (mut a_v, mut b_v) = (a_s.clone(), b_s.clone());
            pair_update_with(Backend::Scalar, &mut a_s, &mut b_s, d, o);
            pair_update_with(Backend::Avx2, &mut a_v, &mut b_v, d, o);
            for (s, v) in a_s.iter().zip(&a_v).chain(b_s.iter().zip(&b_v)) {
                assert!((*s - *v).abs() < 1e-14, "pair_update len={len}");
            }
        }
    }
}
