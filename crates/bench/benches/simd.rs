//! Criterion microbenchmarks of the split-complex SIMD layer: the packed
//! AVX2 GEMM against the scalar blocked reference at the paper-relevant
//! nonlocal shape (Table II: the overlap `S = dv * Psi0^H Psi` is a tall
//! skinny `(norb, nu, ngrid)` contraction), and the kinetic stencil under the
//! scalar vs AVX2 backend: the pair kernels on one L1-resident run, one
//! directional step, each axis's merged sweep and the whole step.
//!
//! Backend selection uses the process-global override; criterion runs the
//! benchmark functions serially, so flipping it between groups is safe.
//! The override is always cleared before a function returns.

use criterion::{criterion_group, criterion_main, Criterion};
use dcmesh_grid::{Mesh3, WfAos};
use dcmesh_lfd::kinetic::{Axis, KineticPropagator, StepFraction};
use dcmesh_math::gemm::{gemm_blocked, gemm_with_backend, Matrix, Op};
use dcmesh_math::simd::{self, Backend};
use dcmesh_math::C64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Table II nonlocal shape, mesh scaled 1/10 so one rep stays in the ms
/// range: full norb and nu, contraction depth `k` = grid points.
const M: usize = 64;
const N: usize = 16;
const K: usize = 35280;

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |_, _| {
        C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    })
}

fn bench_simd_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let a = random_matrix(&mut rng, M, K);
    let b = random_matrix(&mut rng, K, N);
    let alpha = C64::new(0.7, -0.1);

    let mut group = c.benchmark_group("simd_gemm");
    group.sample_size(20);

    group.bench_function("scalar_blocked_m64_n16_k35280", |bch| {
        let mut cm = Matrix::zeros(M, N);
        bch.iter(|| gemm_blocked(alpha, &a, Op::None, &b, Op::None, C64::zero(), &mut cm));
    });
    group.bench_function("avx2_packed_m64_n16_k35280", |bch| {
        let mut cm = Matrix::zeros(M, N);
        bch.iter(|| {
            gemm_with_backend(
                Backend::Avx2,
                alpha,
                &a,
                Op::None,
                &b,
                Op::None,
                C64::zero(),
                &mut cm,
            );
        });
    });
    group.finish();
}

/// The two pair kernels over one 4 KiB run (16 orbitals x 16 z points, the
/// unit of an X or Y sweep at the benchmark's shape): a full complex 2x2
/// update against the bare rotation the kinetic tables hold.
fn bench_simd_pair_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(12);
    let mut run = |n| -> Vec<C64> {
        (0..n)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    };
    let (a0, b0) = (run(256), run(256));
    let (cs, sn) = (0.3f64.cos(), 0.3f64.sin());
    let (d, o) = (C64::new(cs, 0.0), C64::new(0.0, -sn));

    let mut group = c.benchmark_group("simd_pair");
    group.sample_size(20);
    for (backend, tag) in [(Backend::Scalar, "scalar"), (Backend::Avx2, "avx2")] {
        group.bench_function(format!("pair_update_{tag}_256").as_str(), |bch| {
            let (mut a, mut b) = (a0.clone(), b0.clone());
            bch.iter(|| simd::pair_update_with(backend, &mut a, &mut b, d, o));
        });
        group.bench_function(format!("pair_rotate_{tag}_256").as_str(), |bch| {
            let (mut a, mut b) = (a0.clone(), b0.clone());
            bch.iter(|| simd::pair_rotate_with(backend, &mut a, &mut b, cs, sn));
        });
    }
    group.finish();
}

fn bench_simd_stencil(c: &mut Criterion) {
    let mesh = Mesh3::new(24, 24, 24, 0.42, 0.42, 0.42);
    let norb = 16;
    let prop = KineticPropagator::new(mesh.clone(), 0.04, 1.0);
    let mut init = WfAos::<f64>::zeros(mesh.clone(), norb);
    init.randomize(5);

    let mut group = c.benchmark_group("simd_stencil");
    group.sample_size(20);

    simd::set_backend(Backend::Scalar);
    group.bench_function("sweep_x_scalar_norb16", |b| {
        let mut psi = init.to_soa();
        b.iter(|| prop.apply_axis_alg5(&mut psi, Axis::X, StepFraction::Full, 8, None));
    });
    simd::set_backend(Backend::Avx2);
    group.bench_function("sweep_x_avx2_norb16", |b| {
        let mut psi = init.to_soa();
        b.iter(|| prop.apply_axis_alg5(&mut psi, Axis::X, StepFraction::Full, 8, None));
    });
    // Each axis's share of a whole step (five merged passes for X and Y,
    // three for Z) and the whole step, both backends — the work one QD step
    // performs. Per pass: divide by 5, 5, 3 and 13.
    for (backend, tag) in [(Backend::Scalar, "scalar"), (Backend::Avx2, "avx2")] {
        simd::set_backend(backend);
        for (axis, name) in [(Axis::X, "x"), (Axis::Y, "y"), (Axis::Z, "z")] {
            group.bench_function(format!("step_sweep_{name}_{tag}_norb16").as_str(), |b| {
                let mut psi = init.to_soa();
                b.iter(|| prop.apply_axis_step(&mut psi, axis, 8, None));
            });
        }
        group.bench_function(format!("strang_step_{tag}_norb16").as_str(), |b| {
            let mut psi = init.to_soa();
            b.iter(|| prop.step_optimized(&mut psi, 8, None));
        });
    }
    simd::clear_backend_override();
    group.finish();
}

criterion_group!(
    benches,
    bench_simd_gemm,
    bench_simd_pair_kernels,
    bench_simd_stencil
);
criterion_main!(benches);
