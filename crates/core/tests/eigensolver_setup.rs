//! The set-up eigensolve of `DcMeshSim::new` at the frozen benchmark's
//! shapes: it converges, within an iteration budget, to the same bits
//! whoever runs its kernels, and buys what the set-up comment claims — a
//! dark run is stationary.
//!
//! `scripts/check.sh gates` runs this file in release mode and prints its
//! `eig <shape>: ...` lines.

use dcmesh_core::{DcMeshConfig, DcMeshSim, ResilientRunner, SetupSolve};
use dcmesh_lfd::{BuildKind, LaserPulse};
use dcmesh_tddft::eigensolver::{half_mesh, lowest_states, refine_states, EigenResult, TOLERANCE};
use dcmesh_tddft::Hamiltonian;

/// The Hamiltonian `DcMeshSim::new` solves for domain 0 of a supercell cut
/// into `domains_x` slabs of `points`^3 mesh points.
fn domain0_hamiltonian(dims: [usize; 3], domains_x: usize, points: usize) -> Hamiltonian {
    let sim = DcMeshSim::new(DcMeshConfig {
        supercell_dims: dims,
        domains_x,
        domain_mesh_points: points,
        ..DcMeshConfig::default()
    });
    sim.domain_hamiltonian(0)
}

/// The seeds of `serve_burst`'s first burst at benchmark seed 1.
fn job_seeds() -> impl Iterator<Item = u64> {
    (0..24).map(|index| 1_000_003 + index)
}

/// Solve over `seeds`; print the shape's line; hold every solve to the
/// tolerance, to `max_iterations`, and the median to `median_iterations`.
fn solve_shape(
    shape: &str,
    h: &Hamiltonian,
    norb: usize,
    seeds: impl Iterator<Item = u64>,
    (median_iterations, max_iterations): (usize, usize),
) -> EigenResult {
    let mut solves: Vec<EigenResult> = seeds.map(|s| lowest_states(h, norb, 200, s)).collect();
    solves.sort_by_key(|r| r.iterations);
    let worst = solves
        .iter()
        .flat_map(|r| &r.residuals)
        .fold(0.0, |a: f64, r| a.max(*r));
    let (median, last) = (&solves[solves.len() / 2], &solves[solves.len() - 1]);
    println!(
        "eig {shape}: iterations {}..{} (median {}), h_applications {}..{} (median {}), \
         max residual {worst:.2e} Ha, lowest values {:.5?}",
        solves[0].iterations,
        last.iterations,
        median.iterations,
        solves.iter().map(|r| r.h_applications).min().unwrap_or(0),
        solves.iter().map(|r| r.h_applications).max().unwrap_or(0),
        median.h_applications,
        &median.values[..4],
    );
    assert!(worst <= TOLERANCE, "{shape}: residual {worst:e}");
    assert!(
        last.iterations <= max_iterations,
        "{shape}: {} iterations",
        last.iterations
    );
    assert!(
        median.iterations <= median_iterations,
        "{shape}: median {}",
        median.iterations
    );
    solves.swap_remove(solves.len() / 2)
}

#[test]
fn the_half_mesh_of_a_domain_is_the_domain_at_half_the_points() {
    // The cold start injects v_loc onto the even points; the same supercell
    // cut at half the points has them, spacings and origin included.
    let fine = domain0_hamiltonian([4, 2, 2], 2, 16);
    let coarse = half_mesh(&fine, 16).expect("16^3 is even, local and roomy");
    let direct = domain0_hamiltonian([4, 2, 2], 2, 8);
    assert_eq!(coarse.mesh(), direct.mesh());
    let bits = |h: &Hamiltonian| h.v_loc.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert!(bits(&coarse) == bits(&direct));
}

/// The steepest-descent loop this replaced spent `(2 * 200 + 3) * norb`
/// column applications of `H` per solve, and did not converge.
fn old_h_applications(norb: usize) -> usize {
    (2 * 200 + 3) * norb
}

#[test]
fn served_job_shape_converges_within_the_iteration_budget() {
    // Every seed takes 10 finest-level iterations here (8 at [8,4,4], 26 at
    // 16^3 x 16): the budgets leave four, six and six.
    let h = domain0_hamiltonian([4, 2, 2], 2, 8);
    let median = solve_shape("8^3 x 4, default cell", &h, 4, job_seeds(), (14, 14));
    assert!(median.h_applications <= old_h_applications(4) / 4);
    for (value, want) in median
        .values
        .iter()
        .zip([-37.17698, -37.17694, -37.17694, -34.3420])
    {
        assert!((value - want).abs() < 1e-4, "{:?}", median.values);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a minute in a debug build; check.sh gates runs it in release"
)]
fn trajectory_shapes_converge_within_the_iteration_budget() {
    // traj_coupled's shape, then traj_lfd's.
    let h = domain0_hamiltonian([8, 4, 4], 4, 8);
    let median = solve_shape("8^3 x 4, [8,4,4] cell", &h, 4, job_seeds(), (14, 14));
    // The third level lies above the block on the half mesh: a start without
    // a component of it converged to the fifth instead.
    let want = [-83.62639, -80.39933, -80.39925, -79.21526];
    for (value, want) in median.values.iter().zip(want) {
        assert!((value - want).abs() < 1e-4, "{:?}", median.values);
    }
    let h = domain0_hamiltonian([4, 2, 2], 2, 16);
    let median = solve_shape("16^3 x 16, default cell", &h, 16, job_seeds(), (32, 32));
    assert!(median.h_applications <= old_h_applications(16) / 4);
    let want = [-35.14442, -35.14433, -35.14433, -32.72192];
    for (value, want) in median.values.iter().zip(want) {
        assert!((value - want).abs() < 1e-4, "{:?}", median.values);
    }
}

#[test]
fn results_do_not_depend_on_who_ran_the_kernels() {
    // The solver's block kernels run on the calling thread and sum in an
    // order the shapes alone fix: inside a pool of whatever size
    // DCMESH_THREADS makes it or under `run_inline`, as a served job runs,
    // the served == direct check of the benchmark needs the same bits.
    let h = domain0_hamiltonian([4, 2, 2], 2, 12);
    let bits = |r: &EigenResult| {
        let reals = r.orbitals.data().iter().flat_map(|z| [z.re, z.im]);
        let all = reals.chain(r.values.iter().chain(&r.residuals).copied());
        all.map(f64::to_bits).collect::<Vec<u64>>()
    };
    let spread = lowest_states(&h, 4, 200, 7);
    let inline = dcmesh_pool::run_inline(|| lowest_states(&h, 4, 200, 7));
    assert_eq!(spread.iterations, inline.iterations);
    assert!(bits(&spread) == bits(&inline));
    // `check.sh quick` wants this line equal at DCMESH_THREADS=1,2,4.
    let fnv = |h: u64, b: &u64| (h ^ b).wrapping_mul(0x0000_0100_0000_01b3);
    println!(
        "eig-digest {:016x}",
        bits(&spread).iter().fold(0xcbf2_9ce4_8422_2325, fnv)
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a minute in a debug build; check.sh gates runs it in release"
)]
fn benchmark_shapes_set_up_without_a_warning() {
    // `serve_burst`'s, `traj_coupled`'s and `traj_lfd`'s simulations: every
    // domain's solve converges, so the runner has nothing to say at step 0.
    let shapes = [
        ("8^3 x 4, default cell", shape([4, 2, 2], 2, 8, 4, None)),
        ("8^3 x 4, [8,4,4] cell", shape([8, 4, 4], 4, 8, 4, None)),
        ("16^3 x 16, default cell", shape([4, 2, 2], 2, 16, 16, None)),
    ];
    for (name, cfg) in shapes {
        let runner = ResilientRunner::new(cfg, 1);
        assert!(runner.events().is_empty(), "{:?}", runner.events());
        let solves: Vec<SetupSolve> = runner.sim().setup_solves().collect();
        // `check.sh gates` prints these lines: a warm start that stops
        // paying shows as a count.
        let counts = |f: fn(&SetupSolve) -> usize| solves.iter().map(f).collect::<Vec<_>>();
        println!(
            "setup {name}: iterations {:?} h_applications {:?}",
            counts(|s| s.iterations),
            counts(|s| s.h_applications)
        );
        assert!(solves.iter().all(|s| s.converged() && s.iterations <= 32));
        // Translated slabs: each warm domain starts converged, to rounding.
        assert!(solves[1..].iter().all(|s| s.iterations <= 1), "{solves:?}");
    }
}

/// A `DcMeshConfig` for `(supercell, domains, mesh points, orbitals)` with
/// a flux-closure vortex of `vortex` Bohr.
fn shape(
    dims: [usize; 3],
    domains_x: usize,
    points: usize,
    norb: usize,
    vortex: Option<f64>,
) -> DcMeshConfig {
    DcMeshConfig {
        supercell_dims: dims,
        domains_x,
        domain_mesh_points: points,
        norb,
        lumo: norb / 2,
        flux_closure_amplitude: vortex,
        ..DcMeshConfig::default()
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a minute in a debug build; check.sh gates runs it in release"
)]
fn warm_domains_take_few_iterations_and_match_a_cold_solve() {
    // Translated slabs (≤ 1 iteration each), then cells a 0.3 Bohr vortex makes
    // differ: `[8,4,4]`, fig7_flux_closure's and a simulation unit test's.
    let shapes = [
        (shape([4, 2, 2], 2, 8, 4, None), 1),
        (shape([4, 2, 2], 2, 16, 16, None), 1),
        (shape([8, 4, 4], 4, 8, 4, Some(0.3)), 8),
        (shape([8, 1, 8], 2, 8, 4, Some(0.3)), 8),
        (shape([6, 1, 6], 2, 8, 4, Some(0.3)), 8),
    ];
    for (cfg, most) in shapes {
        let sim = DcMeshSim::new(cfg.clone());
        for (d, solve) in sim.setup_solves().enumerate().skip(1) {
            let h = sim.domain_hamiltonian(d);
            let what = format!("{:?} / {}, domain {d}", cfg.supercell_dims, cfg.domains_x);
            assert!(
                solve.converged() && solve.iterations <= most,
                "{what}: {solve:?}"
            );
            // The engine's seed states, read back: their Ritz values.
            let warm = refine_states(&h, &mut sim.engine(d).state_aos(), 0).values;
            let cold = lowest_states(&h, cfg.norb, 200, cfg.seed).values;
            let worst = (warm.iter().zip(&cold)).fold(0.0, |a: f64, (w, c)| a.max((w - c).abs()));
            println!(
                "warm {what}: {} iterations, values within {worst:.1e} Ha of a cold solve",
                solve.iterations
            );
            assert!(worst < 1e-5, "{what}: {warm:?} vs {cold:?}");
        }
    }
}

#[test]
fn dark_dynamics_is_stationary() {
    // What the comment in `DcMeshSim::new` claims of its seed states. The
    // loop this solver replaced left residuals of 7-10 Ha, and this run
    // read 8e-3 ... 0.22 after its six steps.
    let mut sim = DcMeshSim::new(DcMeshConfig {
        n_qd: 5,
        seed: 1_000_003,
        ..DcMeshConfig::default()
    });
    for step in 1..=6 {
        let excited = sim.md_step().excited_population;
        assert!(
            excited < 1e-12,
            "step {step}: excited_population {excited:e}"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; check.sh gates runs it in release"
)]
fn device_resident_build_agrees_with_the_loops_under_the_laser() {
    // The frozen benchmark's check on both trajectories, at 1e-8 relative.
    // Near-eigenstates excite little (3e-9 after three steps here), so the
    // check now compares small numbers: hold it to 1e-9, a decade inside,
    // so that a tighter tolerance or another start cannot erode it unseen.
    let lit = |build| {
        let mut sim = DcMeshSim::new(DcMeshConfig {
            domain_mesh_points: 16,
            norb: 16,
            lumo: 8,
            n_qd: 16,
            build,
            laser: Some(LaserPulse {
                e0: 0.3,
                omega: 0.8,
                duration: 400.0,
            }),
            seed: 1,
            ..DcMeshConfig::default()
        });
        (0..3).map(|_| sim.md_step().excited_population).last()
    };
    let (device, loops) = (lit(BuildKind::GpuCublas), lit(BuildKind::CpuLoops));
    let (device, loops) = (device.unwrap_or(f64::NAN), loops.unwrap_or(f64::NAN));
    assert!(loops > 1e-10, "the laser excites: {loops:e}");
    let relative = (device - loops).abs() / loops;
    assert!(relative < 1e-9, "{device:e} vs {loops:e}: {relative:e}");
}
