//! A warmed-up `DcMeshSim::md_step` (laser and Ehrenfest feedback on)
//! allocates as often at 2 QD steps as at 12, and at most `MOST` times; the
//! `physics_invariants` a supervised step takes, at most `METER_MOST` times.
//!
//! One test in this file, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dcmesh_core::{DcMeshConfig, DcMeshSim};
use dcmesh_lfd::LaserPulse;

/// Two domains: one per `run_md_step`, the claim's timings, `a_at_domains`,
/// the atom clone (two), two per FSSH step (its RK4 buffer, hop odds).
const MOST: u64 = 10;

/// Per domain of a served job: the scissor energies, the state block and its
/// `h` block, the band energies and the FSSH populations. (16 when
/// `band_energies` applied `h` to one orbital at a time, a buffer each.)
const METER_MOST: u64 = 10;

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

/// Heap allocations of one warmed-up `md_step` of `n_qd` QD steps.
fn allocations_per_md_step(n_qd: usize) -> u64 {
    let mut sim = DcMeshSim::new(DcMeshConfig {
        n_qd,
        laser: Some(LaserPulse {
            e0: 0.3,
            omega: 0.8,
            duration: 400.0,
        }),
        ehrenfest_feedback: true,
        ..DcMeshConfig::default()
    });
    // Warm-up: arenas and scratch grow to their high-water mark.
    sim.md_step();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.md_step();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Heap allocations of one `physics_invariants` of a served job (the
/// default configuration at 5 QD steps) after a step.
fn allocations_per_invariants() -> u64 {
    let mut sim = DcMeshSim::new(DcMeshConfig {
        n_qd: 5,
        ..DcMeshConfig::default()
    });
    sim.md_step();
    sim.physics_invariants();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    std::hint::black_box(sim.physics_invariants());
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn md_step_allocations_do_not_grow_with_the_qd_steps() {
    if std::env::var_os("DCMESH_RACECHECK").is_some() {
        // The race detector's shadow log of every access is heap-backed.
        return;
    }
    let meter = allocations_per_invariants();
    assert!(
        meter <= METER_MOST,
        "{meter} allocations per physics_invariants (at most {METER_MOST})"
    );
    let short = allocations_per_md_step(2);
    let long = allocations_per_md_step(12);
    assert_eq!(
        short, long,
        "{short} allocations at 2 QD steps, {long} at 12"
    );
    assert!(
        short <= MOST,
        "{short} allocations per MD step (at most {MOST})"
    );
}
