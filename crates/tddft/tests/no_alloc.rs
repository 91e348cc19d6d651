//! The eigensolver's iteration must not touch the heap: a solve allocates
//! the same number of times whether it is cut off after 5 iterations or
//! runs its 20-odd to convergence, with and without nonlocal channels.
//!
//! One test in this file, so nothing else allocates while it counts (the
//! pool's workers only run this test's kernels).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dcmesh_grid::Mesh3;
use dcmesh_tddft::eigensolver::lowest_states;
use dcmesh_tddft::{AtomSet, Hamiltonian, Species};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` for every operation; the counter is a relaxed
// statistic that publishes no data.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the caller's contract to `System` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Iterations taken and heap allocations made by one solve capped at `iters`.
fn solve(h: &Hamiltonian, iters: usize) -> (usize, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let iterations = lowest_states(h, 6, iters, 3).iterations;
    (iterations, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_solve_allocates_the_same_at_5_and_at_50_iterations() {
    if std::env::var_os("DCMESH_RACECHECK").is_some() {
        // The race detector's shadow log of every access is heap-backed.
        return;
    }
    let mesh = Mesh3::cubic(8, 0.6);
    let mut atoms = AtomSet::new(vec![Species::titanium(), Species::oxygen()]);
    atoms.push(0, mesh.center());
    atoms.push(1, [1.5, 2.5, 2.0]);
    let with_channels = Hamiltonian::from_atoms(mesh.clone(), &atoms);
    let mut local_only = with_channels.clone();
    local_only.projectors.clear();
    for h in [&local_only, &with_channels] {
        // Warm-up: the kernels' per-thread arenas grow to their high-water mark.
        solve(h, 50);
        let (short, few) = solve(h, 5);
        let (long, many) = solve(h, 50);
        assert!(short == 5 && long > 10, "{short} and {long} iterations");
        assert_eq!(
            few, many,
            "{few} allocations at 5 iterations, {many} at {long}"
        );
    }
}
