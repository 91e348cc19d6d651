//! Criterion microbenchmarks of the paper's hot kernels:
//! the `kin_prop()` optimization ladder (Table I), the nonlocal correction
//! in loop vs BLAS form (Table II / §III-D), and `pot_prop()`.
//!
//! These complement the table/figure binaries with statistically rigorous
//! per-kernel timings on a fixed sub-scale workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcmesh_grid::{Mesh3, WfAos};
use dcmesh_lfd::kinetic::{Axis, KineticPropagator, StepFraction};
use dcmesh_lfd::nonlocal::NonlocalCorrection;
use dcmesh_lfd::PotentialPropagator;

fn bench_mesh() -> Mesh3 {
    Mesh3::new(24, 24, 24, 0.42, 0.42, 0.42)
}

const NORB: usize = 16;

fn bench_kin_prop(c: &mut Criterion) {
    let mesh = bench_mesh();
    let prop = KineticPropagator::new(mesh.clone(), 0.04, 1.0);
    let mut init = WfAos::<f64>::zeros(mesh.clone(), NORB);
    init.randomize(1);
    let mut group = c.benchmark_group("kin_prop_x_direction");
    group.sample_size(20);

    group.bench_function(BenchmarkId::new("alg1_aos_baseline", NORB), |b| {
        let mut psi = init.clone();
        b.iter(|| prop.apply_axis_alg1(&mut psi, Axis::X, StepFraction::Full));
    });
    group.bench_function(BenchmarkId::new("alg3_soa_interchange", NORB), |b| {
        let mut psi = init.to_soa();
        b.iter(|| prop.apply_axis_alg3(&mut psi, Axis::X, StepFraction::Full));
    });
    group.bench_function(BenchmarkId::new("alg4_blocked", NORB), |b| {
        let mut psi = init.to_soa();
        b.iter(|| prop.apply_axis_alg4(&mut psi, Axis::X, StepFraction::Full, 8));
    });
    group.bench_function(BenchmarkId::new("alg5_teams", NORB), |b| {
        let mut psi = init.to_soa();
        b.iter(|| prop.apply_axis_alg5(&mut psi, Axis::X, StepFraction::Full, 8, None));
    });
    group.finish();
}

fn bench_nonlocal(c: &mut Criterion) {
    let mesh = bench_mesh();
    let mut psi0 = WfAos::<f64>::zeros(mesh.clone(), NORB);
    psi0.randomize(2);
    let nl = NonlocalCorrection::new(psi0.to_matrix(), NORB * 3 / 4, 0.08, 0.04, mesh.dv());
    let mut group = c.benchmark_group("nonlocal_correction");
    group.sample_size(20);

    group.bench_function("nlp_prop_loops", |b| {
        let mut state = psi0.to_matrix();
        b.iter(|| nl.nlp_prop(&mut state));
    });
    group.bench_function("nlp_prop_soa_zero_copy", |b| {
        let mut state = psi0.to_soa();
        b.iter(|| nl.nlp_prop_soa(&mut state));
    });
    group.bench_function("remap_occ_blas", |b| {
        let state = psi0.to_soa();
        let occ = vec![2.0; NORB];
        b.iter(|| nl.remap_occ_soa(&state, &occ));
    });
    group.finish();
}

fn bench_pot_prop(c: &mut Criterion) {
    let mesh = bench_mesh();
    let v: Vec<f64> = (0..mesh.len()).map(|i| (i as f64 * 0.01).sin()).collect();
    let prop = PotentialPropagator::new(mesh.clone(), &v, 0.02);
    let mut init = WfAos::<f64>::zeros(mesh.clone(), NORB);
    init.randomize(3);
    let mut psi = init.to_soa();
    c.bench_function("pot_prop", |b| {
        b.iter(|| prop.apply(&mut psi, None));
    });
}

fn bench_obs_overhead(c: &mut Criterion) {
    // The acceptance bar for the observability layer: with the collector
    // disabled (the default), the instrumented kinetic stencil must sit
    // within noise of the uninstrumented seed — the only added work on the
    // disabled path is one relaxed atomic load per launch/span.
    let mesh = bench_mesh();
    let prop = KineticPropagator::new(mesh.clone(), 0.04, 1.0);
    let mut init = WfAos::<f64>::zeros(mesh.clone(), NORB);
    init.randomize(4);
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(20);

    dcmesh_obs::reset();
    group.bench_function("kin_stencil_collector_disabled", |b| {
        let mut psi = init.to_soa();
        b.iter(|| prop.apply_axis_alg5(&mut psi, Axis::X, StepFraction::Full, 8, None));
    });
    group.bench_function("span_guard_disabled", |b| {
        b.iter(|| {
            let _s = dcmesh_obs::span!("bench.noop");
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kin_prop,
    bench_nonlocal,
    bench_pot_prop,
    bench_obs_overhead
);
criterion_main!(benches);
