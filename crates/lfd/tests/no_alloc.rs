//! The QD loop must not touch the heap: an MD step allocates the same
//! number of times whether it runs 2 QD steps or 12, in either precision.
//!
//! One test in this file, so nothing else allocates while it counts (the
//! pool's workers only run this test's kernels).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dcmesh_grid::Mesh3;
use dcmesh_lfd::{BuildKind, LaserPulse, LfdConfig, LfdEngine};
use dcmesh_math::Real;

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

/// Heap allocations of one warmed-up `run_md_step` of `n_qd` QD steps.
fn allocations_per_md_step<R: Real>(build: BuildKind, n_qd: usize) -> u64 {
    let mesh = Mesh3::cubic(10, 0.5);
    let v_loc: Vec<f64> = (0..mesh.len()).map(|i| (i as f64 * 0.01).sin()).collect();
    let cfg = LfdConfig {
        mesh,
        norb: 6,
        lumo: 3,
        dt: 0.02,
        n_qd,
        block_size: 4,
        build,
        delta_sci: 0.1,
        // The laser rebuilds the potential phases every QD step.
        laser: Some(LaserPulse {
            e0: 0.3,
            omega: 0.8,
            duration: 400.0,
        }),
        seed: 7,
    };
    let mut engine = LfdEngine::<R>::new(cfg, v_loc);
    // Warm-up: arenas grow to their high-water mark.
    engine.run_md_step();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    engine.run_md_step();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn qd_loop_allocates_nothing_after_warm_up() {
    if std::env::var_os("DCMESH_RACECHECK").is_some() {
        // The race detector's shadow log of every access is heap-backed.
        return;
    }
    for build in [BuildKind::CpuBlas, BuildKind::GpuCublas] {
        assert_flat::<f64>(build);
        assert_flat::<f32>(build);
    }
}

fn assert_flat<R: Real>(build: BuildKind) {
    let short = allocations_per_md_step::<R>(build, 2);
    let long = allocations_per_md_step::<R>(build, 12);
    assert_eq!(
        short,
        long,
        "{build:?} {}: {short} allocations per MD step at 2 QD steps, {long} at 12",
        R::PRECISION_LABEL
    );
}
