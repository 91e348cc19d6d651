//! The timings `run_md_step` returns and the `lfd.*` slices it hands to the
//! trace are the same numbers: every slice that is summed is traced, every
//! slice that is traced is summed, and with the collector off nothing is
//! traced at all.
//!
//! One test in this file: the collector is process-global.

use dcmesh_lfd::{BuildKind, LfdConfig, LfdEngine};
use dcmesh_obs::clock::{self, ClockMode};
use dcmesh_obs::{trace, Event, EventKind, Track};

/// The host-track slices named `name`, in the order they were recorded
/// (the order the engine summed them in).
fn slices<'a>(events: &'a [Event], name: &str) -> Vec<&'a Event> {
    let mut slices: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::Complete && e.track == Track::Host && e.name == name)
        .collect();
    slices.sort_by_key(|e| e.seq);
    slices
}

#[test]
fn returned_timings_are_the_per_name_sums_of_the_traced_slices() {
    for build in [BuildKind::CpuBlas, BuildKind::GpuCublas] {
        // 8^3 points, 6 orbitals, 100 QD steps.
        let cfg = LfdConfig::paper_benchmark(build, 0.1);
        let (points, n_qd) = (cfg.mesh.len() as u64, cfg.n_qd as u64);
        let mut e = LfdEngine::<f64>::new(cfg, vec![0.0; points as usize]);
        dcmesh_obs::reset();
        e.run_md_step();
        assert!(trace::drain().is_empty(), "{build:?}: traced while off");

        clock::set_mode(ClockMode::Counter { step_us: 10 });
        dcmesh_obs::enable();
        let t = e.run_md_step();
        dcmesh_obs::disable();
        let events = trace::drain();
        let traced = |name| {
            slices(&events, name)
                .iter()
                .fold(0.0, |us, e| us + e.dur_us)
                * 1e-6
        };
        assert!(t.electron > 0.0 && t.nonlocal > 0.0, "{build:?}: {t:?}");
        for (what, returned, traced) in [
            (
                "electron",
                t.electron,
                traced("lfd.kinetic") + traced("lfd.potential"),
            ),
            ("nonlocal", t.nonlocal, traced("lfd.nonlocal")),
            ("transfer", t.transfer, traced("lfd.transfer")),
        ] {
            assert_eq!(returned.to_bits(), traced.to_bits(), "{build:?}: {what}");
        }
        // Only device builds move data: the phase table, once per QD step.
        let uploaded: u64 = slices(&events, "lfd.transfer")
            .iter()
            .map(|e| e.bytes)
            .sum();
        let table_bytes = u64::from(build.uses_device()) * n_qd * points * 16;
        assert_eq!(uploaded, table_bytes, "{build:?}");
        assert_eq!(t.transfer > 0.0, build.uses_device(), "{build:?}");
    }
    dcmesh_obs::reset();
}
