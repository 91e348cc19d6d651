//! Property-based tests (proptest) on the core invariants the whole stack
//! leans on: unitarity, conservation, layout round-trips and GEMM
//! correctness on arbitrary shapes.

use dcmesh::grid::{Mesh3, WfAos};
use dcmesh::lfd::kinetic::{Axis, KineticPropagator, StepFraction};
use dcmesh::lfd::nonlocal::NonlocalCorrection;
use dcmesh::math::gemm::{gemm, gemm_naive, Matrix, Op};
use dcmesh::math::{Complex, C64};
use proptest::prelude::*;

fn small_complex() -> impl Strategy<Value = C64> {
    (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(re, im)| Complex::new(re, im))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kinetic_step_is_unitary_for_any_mesh(
        nx in 2usize..8,
        ny in 1usize..6,
        nz in 1usize..6,
        norb in 1usize..4,
        dt in 0.001f64..0.2,
        seed in 0u64..1000,
    ) {
        let mesh = Mesh3::new(nx, ny, nz, 0.5, 0.6, 0.4);
        let prop = KineticPropagator::new(mesh.clone(), dt, 1.0);
        let mut wf = WfAos::<f64>::zeros(mesh, norb);
        wf.randomize(seed);
        let before: Vec<f64> = (0..norb).map(|n| wf.orbital_norm(n)).collect();
        let mut soa = wf.to_soa();
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            prop.apply_axis_alg3(&mut soa, axis, StepFraction::Full);
        }
        let after = soa.to_aos();
        for (n, &b) in before.iter().enumerate() {
            prop_assert!((after.orbital_norm(n) - b).abs() < 1e-10);
        }
    }

    #[test]
    fn layout_roundtrip_any_shape(
        nx in 1usize..6,
        ny in 1usize..6,
        nz in 1usize..6,
        norb in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mesh = Mesh3::new(nx, ny, nz, 0.5, 0.5, 0.5);
        let mut wf = WfAos::<f64>::zeros(mesh, norb);
        wf.randomize(seed);
        prop_assert!(wf.max_abs_diff(&wf.to_soa().to_aos()) == 0.0);
    }

    #[test]
    fn gemm_matches_naive_on_arbitrary_shapes(
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..48,
        entries in proptest::collection::vec(small_complex(), 1..8),
    ) {
        let pick = |i: usize| entries[i % entries.len()];
        let a = Matrix::from_fn(m, k, |r, c| pick(r * 31 + c * 7));
        let b = Matrix::from_fn(k, n, |r, c| pick(r * 13 + c * 3 + 1));
        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        gemm_naive(C64::one(), &a, Op::None, &b, Op::None, C64::zero(), &mut c1);
        gemm(C64::one(), &a, Op::None, &b, Op::None, C64::zero(), &mut c2);
        prop_assert!(c1.max_abs_diff(&c2) < 1e-10 * (k as f64));
    }

    #[test]
    fn gemm_adjoint_shape_matches_naive(
        m in 1usize..12,
        n in 1usize..12,
        k in 1usize..300,
    ) {
        // op_a = ConjTrans, op_b = None: the eigensolver's `X^H Y` shape.
        let a = Matrix::from_fn(k, m, |r, c| Complex::new((r as f64 * 0.1).sin(), (c as f64 * 0.2).cos()));
        let b = Matrix::from_fn(k, n, |r, c| Complex::new((r as f64 * 0.3).cos(), (c as f64 * 0.05).sin()));
        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        gemm_naive(C64::one(), &a, Op::ConjTrans, &b, Op::None, C64::zero(), &mut c1);
        gemm(C64::one(), &a, Op::ConjTrans, &b, Op::None, C64::zero(), &mut c2);
        prop_assert!(c1.max_abs_diff(&c2) < 1e-10 * (k as f64));
    }

    #[test]
    fn remap_occ_conserves_total_in_span(
        norb in 2usize..6,
        seed in 0u64..500,
        theta in 0.0f64..1.5,
    ) {
        // Rotate within span(Psi0): total occupation must be preserved.
        let mesh = Mesh3::cubic(5, 0.5);
        let mut wf = WfAos::<f64>::zeros(mesh.clone(), norb);
        wf.randomize(seed);
        let lumo = norb / 2;
        let nl = NonlocalCorrection::new(wf.to_matrix(), lumo, 0.2, 0.02, mesh.dv());
        let occ0: Vec<f64> = (0..norb).map(|i| if i < lumo { 2.0 } else { 0.0 }).collect();
        // Unitary pair rotation between first and last orbital.
        let mut psi = wf.to_matrix();
        let (c, s) = (theta.cos(), theta.sin());
        for r in 0..psi.rows() {
            let a = psi[(r, 0)];
            let b = psi[(r, norb - 1)];
            psi[(r, 0)] = a.scale(c) + b.scale(s);
            psi[(r, norb - 1)] = a.scale(-s) + b.scale(c);
        }
        let f = nl.remap_occ_soa(&WfAos::from_matrix(mesh, psi).to_soa(), &occ0);
        let total: f64 = f.iter().sum();
        let want: f64 = occ0.iter().sum();
        prop_assert!((total - want).abs() < 1e-9);
        prop_assert!(f.iter().all(|&x| x >= -1e-12));
    }
}
