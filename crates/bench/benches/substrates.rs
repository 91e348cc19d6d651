//! Criterion microbenchmarks of the substrate layers: the reference
//! complex GEMM, the classical force field, and the set-up eigensolve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcmesh_core::{DcMeshConfig, DcMeshSim};
use dcmesh_math::gemm::{gemm, Op};
use dcmesh_math::{Complex, Matrix};
use dcmesh_qxmd::forcefield::{PerovskiteFF, SimBox};
use dcmesh_qxmd::md::ForceProvider;
use dcmesh_qxmd::pbtio3::{PbTiO3Cell, Supercell};
use dcmesh_tddft::eigensolver::lowest_states;

fn random_matrix(seed: u64, rows: usize, cols: usize) -> Matrix<f64> {
    let mut x = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let i = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        Complex::new(r, i)
    })
}

fn bench_gemm(c: &mut Criterion) {
    let n = 96;
    let a = random_matrix(1, n, n);
    let b = random_matrix(2, n, n);
    let mut out = Matrix::zeros(n, n);
    c.bench_function("complex_gemm_96", |bch| {
        bch.iter(|| {
            gemm(
                Complex::one(),
                &a,
                Op::None,
                &b,
                Op::None,
                Complex::zero(),
                &mut out,
            )
        });
    });
}

fn bench_forcefield(c: &mut Criterion) {
    let sc = Supercell::build(&PbTiO3Cell::cubic(), [3, 3, 3]);
    let ff = PerovskiteFF::pbtio3(SimBox {
        lengths: sc.box_lengths,
    });
    c.bench_function("perovskite_ff_135_atoms", |b| {
        let mut atoms = sc.atoms.clone();
        b.iter(|| {
            atoms.clear_forces();
            ff.compute(&mut atoms)
        });
    });
}

/// `DcMeshSim::new`'s solve for domain 0 of the default cell, at the
/// served-job shape and at `traj_lfd`'s.
fn bench_eigensolver(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigensolver");
    for (points, norb) in [(8, 4), (16, 16)] {
        let sim = DcMeshSim::new(DcMeshConfig {
            domain_mesh_points: points,
            norb,
            lumo: norb / 2,
            ..DcMeshConfig::default()
        });
        let h = sim.domain_hamiltonian(0);
        let id = BenchmarkId::new("lowest_states", format!("{points}^3x{norb}"));
        group.bench_function(id, |b| {
            b.iter(|| lowest_states(&h, norb, 200, 1).iterations)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_forcefield, bench_eigensolver);
criterion_main!(benches);
