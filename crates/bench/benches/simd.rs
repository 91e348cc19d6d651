//! Criterion microbenchmarks of the SIMD layer under the scalar, AVX2 and
//! AVX-512 backends: the nonlocal projector's step and overlap (real x complex on the
//! real block kernels) at the benchmark workloads' shapes, the real block
//! kernels at the set-up eigensolver's shapes, and the kinetic stencil: the
//! pair kernels on one L1-resident run, one directional step, each axis's
//! merged sweep and the whole step. The projector, pair and sweep rows run in
//! both precisions (`dp` = f64 x 4 lanes at AVX2 and x 8 at AVX-512, `sp` =
//! f32 x 8 and x 16).
//!
//! Backend selection uses the process-global override; criterion runs the
//! benchmark functions serially, so flipping it between groups is safe.
//! The override is always cleared before a function returns.

use criterion::{criterion_group, criterion_main, Criterion};
use dcmesh_grid::{Mesh3, WfAos};
use dcmesh_lfd::kinetic::{Axis, KineticPropagator, StepFraction};
use dcmesh_lfd::nonlocal::NonlocalCorrection;
use dcmesh_lfd::PotentialPropagator;
use dcmesh_math::simd::{self, Backend, Backend::*};
use dcmesh_math::{Complex, Real, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BACKENDS: [(Backend, &str); 3] = [(Scalar, "scalar"), (Avx2, "avx2"), (Avx512, "avx512")];

fn random_vec<R: Real>(rng: &mut StdRng, n: usize) -> Vec<Complex<R>> {
    let mut unit = || R::from_f64(rng.gen_range(-1.0..1.0));
    (0..n).map(|_| Complex::new(unit(), unit())).collect()
}

/// "dp" / "sp".
fn prec<R: Real>() -> String {
    R::PRECISION_LABEL.to_lowercase()
}

/// Row-name infix of the pair and sweep rows: the f64 rows keep the names
/// they had before the f32 ones existed.
fn sp_infix<R: Real>() -> &'static str {
    if R::PRECISION_LABEL == "SP" {
        "sp_"
    } else {
        ""
    }
}

/// The nonlocal projector at the benchmark workloads' shapes, `g` points x
/// `norb` orbitals of which `nu` unoccupied: 8^3 x 4|2 (`serve_burst`,
/// `traj_coupled`) and 16^3 x 16|8 (`traj_lfd`) in f64, 24^3 x 32|16
/// (`lfd_sp`) in f32. `apply` is one half-step `nlp_prop_soa` (overlap and
/// update), `overlap` the full-basis overlap of `remap_occ_soa`.
fn bench_nonlocal_projector_at<R: Real>(
    group: &mut criterion::BenchmarkGroup,
    side: usize,
    norb: usize,
) {
    let mesh = Mesh3::cubic(side, 0.4);
    let mut psi0 = WfAos::<R>::zeros(mesh.clone(), norb);
    psi0.randomize(2);
    let (lumo, dt) = (norb / 2, R::from_f64(0.04));
    let dv = R::from_f64(mesh.dv());
    let nl = NonlocalCorrection::new(psi0.to_matrix(), lumo, R::from_f64(0.08), dt, dv);
    let occ = vec![R::TWO; norb];
    for (backend, tag) in BACKENDS {
        simd::set_backend(backend);
        let shape = format!(
            "{}_{tag}_g{}_n{norb}_u{}",
            prec::<R>(),
            mesh.len(),
            norb - lumo
        );
        group.bench_function(format!("apply_{shape}").as_str(), |bch| {
            let mut state = psi0.to_soa();
            bch.iter(|| nl.nlp_prop_soa(&mut state));
        });
        group.bench_function(format!("overlap_{shape}").as_str(), |bch| {
            let state = psi0.to_soa();
            bch.iter(|| nl.remap_occ_soa(&state, &occ));
        });
    }
    simd::clear_backend_override();
}

fn bench_nonlocal_projector(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_nonlocal");
    group.sample_size(20);
    bench_nonlocal_projector_at::<f64>(&mut group, 8, 4);
    bench_nonlocal_projector_at::<f64>(&mut group, 16, 16);
    bench_nonlocal_projector_at::<f32>(&mut group, 24, 32);
    group.finish();
}

/// The set-up eigensolver's two block kernels at its two benchmark shapes
/// (8^3 x 4 and 16^3 x 16), `dp` only: the solver is `f64`.
fn bench_simd_real_blocks(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(14);
    let mut group = c.benchmark_group("simd_block");
    group.sample_size(20);
    for (g, n) in [(512, 4), (4096, 16)] {
        let (zl, zr) = (
            random_vec::<f64>(&mut rng, g * n),
            random_vec::<f64>(&mut rng, g * n),
        );
        let zc = random_vec::<f64>(&mut rng, n * n);
        let re = |zs: &[C64], scale: f64| zs.iter().map(|z| z.re * scale).collect::<Vec<f64>>();
        let (l, r, coeff) = (re(&zl, 1.0), re(&zr, 1.0), re(&zc, 1e-4));
        for (backend, tag) in BACKENDS {
            let shape = format!("{tag}_g{g}_n{n}");
            group.bench_function(format!("real_overlap_{shape}").as_str(), |bch| {
                let mut out = vec![0.0; n * n];
                bch.iter(|| simd::real_overlap_with(backend, 1.0, &l, (n, n), &r, &mut out));
            });
            group.bench_function(format!("real_update_{shape}").as_str(), |bch| {
                let mut t = r.clone();
                bch.iter(|| simd::real_update_with(backend, &coeff, &l, (n, n), &mut t));
            });
        }
    }
    group.finish();
}

/// The two pair kernels over one run of 256 values (16 orbitals x 16 z
/// points, the unit of an X or Y sweep at the benchmark's shape; 4 KiB in
/// f64): a full complex 2x2 update against the bare rotation the kinetic
/// tables hold.
fn bench_simd_pair_kernels_at<R: Real>(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(12);
    let (a0, b0) = (
        random_vec::<R>(&mut rng, 256),
        random_vec::<R>(&mut rng, 256),
    );
    let (cs, sn) = (R::from_f64(0.3f64.cos()), R::from_f64(0.3f64.sin()));
    let (d, o) = (Complex::new(cs, R::ZERO), Complex::new(R::ZERO, -sn));
    let sp = sp_infix::<R>();

    let mut group = c.benchmark_group("simd_pair");
    group.sample_size(20);
    for (backend, tag) in BACKENDS {
        group.bench_function(format!("pair_update_{sp}{tag}_256").as_str(), |bch| {
            let (mut a, mut b) = (a0.clone(), b0.clone());
            bch.iter(|| simd::pair_update_with(backend, &mut a, &mut b, d, o));
        });
        group.bench_function(format!("pair_rotate_{sp}{tag}_256").as_str(), |bch| {
            let (mut a, mut b) = (a0.clone(), b0.clone());
            bch.iter(|| simd::pair_rotate_with(backend, &mut a, &mut b, cs, sn));
        });
    }
    group.finish();
}

fn bench_simd_pair_kernels(c: &mut Criterion) {
    bench_simd_pair_kernels_at::<f64>(c);
    bench_simd_pair_kernels_at::<f32>(c);
}

/// Each axis's share of a whole step (five merged passes for X and Y, three
/// for Z) and the whole step, every backend — the work one QD step
/// performs. Per pass: divide by 5, 5, 3 and 13.
fn bench_simd_step_sweeps<R: Real>(group: &mut criterion::BenchmarkGroup, mesh: &Mesh3) {
    let norb = 16;
    let prop = KineticPropagator::<R>::new(mesh.clone(), R::from_f64(0.04), R::ONE);
    let v_loc: Vec<f64> = (0..mesh.len()).map(|i| (i as f64 * 0.37).sin()).collect();
    let pot = PotentialPropagator::new(mesh.clone(), &v_loc, R::from_f64(0.02));
    let mut init = WfAos::<R>::zeros(mesh.clone(), norb);
    init.randomize(5);
    let sp = sp_infix::<R>();
    for (backend, tag) in BACKENDS {
        simd::set_backend(backend);
        for (axis, name) in [(Axis::X, "x"), (Axis::Y, "y"), (Axis::Z, "z")] {
            group.bench_function(
                format!("step_sweep_{name}_{sp}{tag}_norb16").as_str(),
                |b| {
                    let mut psi = init.to_soa();
                    b.iter(|| prop.apply_axis_step(&mut psi, axis, 8, None));
                },
            );
        }
        group.bench_function(format!("strang_step_{sp}{tag}_norb16").as_str(), |b| {
            let mut psi = init.to_soa();
            b.iter(|| prop.step_optimized(&mut psi, 8, None));
        });
        // The step with `Pot(dt/2)` on either side, fused into its sweeps.
        group.bench_function(format!("fused_step_{sp}{tag}_norb16").as_str(), |b| {
            let mut psi = init.to_soa();
            b.iter(|| prop.step_with_potential(&mut psi, &pot, 8, None));
        });
    }
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
    bench_simd_step_sweeps::<f64>(&mut group, &mesh);
    bench_simd_step_sweeps::<f32>(&mut group, &mesh);
    simd::clear_backend_override();
    group.finish();
}

criterion_group!(
    benches,
    bench_nonlocal_projector,
    bench_simd_real_blocks,
    bench_simd_pair_kernels,
    bench_simd_stencil
);
criterion_main!(benches);
