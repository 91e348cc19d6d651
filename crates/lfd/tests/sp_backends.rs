//! The single-precision engine on the AVX2 lanes, the AVX-512 lanes and the
//! forced-scalar path: the `lfd_sp` benchmark shape scaled to 12^3 x 16,
//! three MD steps. The two lane widths give the same bits; the vector and
//! the scalar path hold the norm, agree with each other at f32 rounding, and
//! agree with the double-precision engine at f32 accuracy.
//!
//! One test in this file: `simd::set_backend` is process-global.

use dcmesh_grid::Mesh3;
use dcmesh_lfd::{BuildKind, LfdConfig, LfdEngine};
use dcmesh_math::simd::{self, Backend};
use dcmesh_math::Real;

/// `(max | |psi| - 1 |, excited population)` after three MD steps.
fn three_steps<R: Real>(backend: Backend) -> (f64, f64) {
    simd::set_backend(backend);
    let mesh = Mesh3::cubic(12, 0.4);
    let v_loc = vec![0.0; mesh.len()];
    let cfg = LfdConfig {
        mesh,
        norb: 16,
        lumo: 8,
        dt: 0.02,
        n_qd: 3,
        block_size: 16,
        build: BuildKind::CpuBlas,
        delta_sci: 0.05,
        laser: None,
        seed: 1,
    };
    let mut engine = LfdEngine::<R>::new(cfg, v_loc);
    for _ in 0..3 {
        engine.run_md_step();
    }
    (
        engine.max_norm_error(),
        engine.excited_population().to_f64(),
    )
}

#[test]
fn f32_engine_agrees_across_backends_and_with_f64() {
    let (norm_v, excited_v) = three_steps::<f32>(Backend::Avx2);
    let wide = three_steps::<f32>(Backend::Avx512);
    let (norm_s, excited_s) = three_steps::<f32>(Backend::Scalar);
    let (_, excited_dp) = three_steps::<f64>(Backend::Avx2);
    simd::clear_backend_override();
    // Without AVX-512F the wide request runs the AVX2 lanes: equal anyway.
    assert_eq!(wide, (norm_v, excited_v), "avx512 against avx2");
    assert!(
        norm_v < 1e-5 && norm_s < 1e-5,
        "norm error: avx2 {norm_v:.3e}, scalar {norm_s:.3e}"
    );
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
    assert!(
        rel(excited_v, excited_s) < 1e-5,
        "excited population: avx2 {excited_v:.9e}, scalar {excited_s:.9e}"
    );
    for (tag, sp) in [("avx2", excited_v), ("scalar", excited_s)] {
        assert!(
            rel(sp, excited_dp) < 1e-3,
            "excited population: f32 {tag} {sp:.9e}, f64 {excited_dp:.9e}"
        );
    }
}
