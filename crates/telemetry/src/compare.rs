//! Diff two [`RunRecord`]s and report regressions.

use crate::record::RunRecord;

/// Regression thresholds for [`compare`].
#[derive(Clone, Copy, Debug)]
pub struct CompareConfig {
    /// Candidate histogram p50 may be at most this multiple of the
    /// baseline's before it counts as a latency regression.
    pub latency_ratio: f64,
    /// Candidate histogram p95 may be at most this multiple of the
    /// baseline's — the tail-latency gate. Tails are noisier than medians,
    /// so the default is looser; the serve queue/run latency gate tightens
    /// it explicitly.
    pub latency_tail_ratio: f64,
    /// Candidate per-phase total seconds may be at most this multiple of
    /// the baseline's.
    pub phase_ratio: f64,
    /// Latency/phase totals below this many seconds are noise and never
    /// flagged (a 2x blowup of 50µs is jitter, not a regression).
    pub noise_floor_s: f64,
    /// Absolute ceiling on the candidate's relative energy drift.
    pub max_energy_drift: f64,
    /// Absolute ceiling on the candidate's wavefunction norm error.
    pub max_norm_error: f64,
    /// Absolute ceiling on the candidate's FSSH population error.
    pub max_population_error: f64,
    /// Candidate `scaling.modeled_step_s.*` gauges (simulated per-step
    /// makespan at each rank count) may be at most this multiple of the
    /// baseline's. Modeled clocks are deterministic, so the overlap
    /// ablation gate runs this at 1.0: overlap must never cost time.
    pub modeled_step_ratio: f64,
    /// Require identical config fingerprints (apples-to-apples physics).
    pub require_same_config: bool,
}

impl Default for CompareConfig {
    fn default() -> Self {
        Self {
            latency_ratio: 1.5,
            latency_tail_ratio: 2.5,
            phase_ratio: 1.5,
            noise_floor_s: 5e-3,
            max_energy_drift: 0.05,
            max_norm_error: 1e-3,
            max_population_error: 1e-3,
            modeled_step_ratio: 1.5,
            require_same_config: true,
        }
    }
}

/// One detected regression.
#[derive(Clone, Debug)]
pub struct Regression {
    /// What regressed, e.g. `"histogram sim.md_step_seconds p50"`.
    pub what: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Human-readable explanation with the threshold.
    pub detail: String,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.6e} -> {:.6e} ({})",
            self.what, self.baseline, self.candidate, self.detail
        )
    }
}

/// `candidate > baseline * ratio`, written NaN-hostile: a NaN candidate
/// is always a regression.
// The negated form is deliberate: `candidate > bound` would pass NaN.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn ratio_regressed(baseline: f64, candidate: f64, ratio: f64) -> bool {
    !(candidate <= baseline * ratio)
}

/// Diff `candidate` against `baseline`. Returns the (possibly empty)
/// regression list, or `Err` when the records are not comparable at all
/// (schema mismatch).
pub fn compare(
    baseline: &RunRecord,
    candidate: &RunRecord,
    cfg: &CompareConfig,
) -> Result<Vec<Regression>, String> {
    if baseline.schema_version != candidate.schema_version {
        return Err(format!(
            "schema mismatch: baseline v{} vs candidate v{}",
            baseline.schema_version, candidate.schema_version
        ));
    }
    let mut regressions = Vec::new();

    if cfg.require_same_config && baseline.config_fingerprint != candidate.config_fingerprint {
        regressions.push(Regression {
            what: "config_fingerprint".into(),
            baseline: 0.0,
            candidate: 0.0,
            detail: format!(
                "baseline {:?} vs candidate {:?} — not the same physics",
                baseline.config_fingerprint.map(|f| format!("{f:016x}")),
                candidate.config_fingerprint.map(|f| format!("{f:016x}")),
            ),
        });
    }

    // Histogram latency: compare p50s (and the p95 tail) re-derived from
    // the sparse buckets, so both sides go through identical quantile
    // math.
    for base_h in &baseline.histograms {
        let Some(cand_h) = candidate.histograms.iter().find(|h| h.name == base_h.name) else {
            continue;
        };
        let base = base_h.to_histogram();
        let cand = cand_h.to_histogram();
        for (quantile, base_q, cand_q, ratio) in [
            ("p50", base.p50(), cand.p50(), cfg.latency_ratio),
            ("p95", base.p95(), cand.p95(), cfg.latency_tail_ratio),
        ] {
            if base_q.is_nan() {
                continue;
            }
            if base_q < cfg.noise_floor_s && cand_q < cfg.noise_floor_s {
                continue;
            }
            if ratio_regressed(base_q, cand_q, ratio) {
                regressions.push(Regression {
                    what: format!("histogram {} {quantile}", base_h.name),
                    baseline: base_q,
                    candidate: cand_q,
                    detail: format!("exceeds {ratio}x baseline"),
                });
            }
        }
    }

    // Per-phase wall time.
    for base_p in &baseline.phases {
        let Some(cand_p) = candidate
            .phases
            .iter()
            .find(|p| p.name == base_p.name && p.track == base_p.track)
        else {
            continue;
        };
        if base_p.total_s < cfg.noise_floor_s && cand_p.total_s < cfg.noise_floor_s {
            continue;
        }
        if ratio_regressed(base_p.total_s, cand_p.total_s, cfg.phase_ratio) {
            regressions.push(Regression {
                what: format!("phase {} ({})", base_p.name, base_p.track),
                baseline: base_p.total_s,
                candidate: cand_p.total_s,
                detail: format!("exceeds {}x baseline", cfg.phase_ratio),
            });
        }
    }

    // Modeled scaling makespans (`scaling.modeled_step_s.pN` gauges, one
    // per simulated rank count). These come from the deterministic
    // simulated clocks, not wall time, so no noise floor applies; the
    // overlap-ablation gate compares them at ratio 1.0. NaN-hostile like
    // every other ratio check. Keys on only one side are skipped (a sweep
    // over different rank counts is not a regression).
    for (name, base_v) in &baseline.gauges {
        if !name.starts_with("scaling.modeled_step_s") {
            continue;
        }
        let Some(cand_v) = candidate.gauges.get(name) else {
            continue;
        };
        if ratio_regressed(*base_v, *cand_v, cfg.modeled_step_ratio) {
            regressions.push(Regression {
                what: format!("modeled gauge {name}"),
                baseline: *base_v,
                candidate: *cand_v,
                detail: format!(
                    "modeled step time exceeds {}x baseline",
                    cfg.modeled_step_ratio
                ),
            });
        }
    }

    // Candidate invariants against absolute ceilings; `!(v <= t)` so NaN
    // (a sample that went non-finite) always trips.
    if let Some(inv) = &candidate.invariants {
        let checks = [
            ("energy drift", inv.max_energy_drift, cfg.max_energy_drift),
            ("norm error", inv.max_norm_error, cfg.max_norm_error),
            (
                "population error",
                inv.max_population_error,
                cfg.max_population_error,
            ),
        ];
        for (what, value, threshold) in checks {
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(value <= threshold) {
                regressions.push(Regression {
                    what: format!("invariant {what}"),
                    baseline: threshold,
                    candidate: value,
                    detail: "candidate exceeds absolute threshold".into(),
                });
            }
        }
    }

    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{GitMeta, RunRecord};
    use dcmesh_core::InvariantSummary;
    use dcmesh_obs::metrics::{Histogram, MetricsSnapshot};
    use dcmesh_obs::trace::{Event, Track};

    fn record_with_step_time(step_s: f64) -> RunRecord {
        let mut m = MetricsSnapshot::default();
        let mut h = Histogram::default();
        for _ in 0..64 {
            h.record(step_s);
        }
        m.histograms.insert("sim.md_step_seconds".into(), h);
        let events = vec![Event::complete(
            "sim.md_step",
            Track::Host,
            0.0,
            step_s * 64.0 * 1e6,
        )];
        RunRecord::from_parts(
            "fig5_kernels",
            "test",
            Some(7),
            4,
            String::new(),
            GitMeta::unknown(),
            &events,
            &m,
            Some(InvariantSummary {
                samples: 64,
                initial_total_energy: -1.0,
                final_total_energy: -1.0,
                max_energy_drift: 1e-6,
                max_norm_error: 1e-9,
                max_population_error: 1e-12,
                max_occupation_drift: 1e-12,
            }),
        )
    }

    #[test]
    fn identical_records_have_no_regressions() {
        let rec = record_with_step_time(0.05);
        let regs = compare(&rec, &rec, &CompareConfig::default()).unwrap();
        assert!(regs.is_empty(), "self-compare must pass: {regs:?}");
    }

    #[test]
    fn two_x_slowdown_is_a_regression() {
        let base = record_with_step_time(0.05);
        let slow = record_with_step_time(0.10);
        let regs = compare(&base, &slow, &CompareConfig::default()).unwrap();
        assert!(
            regs.iter().any(|r| r.what.contains("sim.md_step_seconds")),
            "2x p50 must trip the 1.5x latency gate: {regs:?}"
        );
        assert!(
            regs.iter().any(|r| r.what.contains("phase sim.md_step")),
            "2x phase total must trip the phase gate: {regs:?}"
        );
        // And the reverse direction (a speedup) is not a regression.
        let regs = compare(&slow, &base, &CompareConfig::default()).unwrap();
        assert!(regs.is_empty(), "speedups are fine: {regs:?}");
    }

    #[test]
    fn sub_noise_floor_jitter_is_ignored() {
        let base = record_with_step_time(1e-5);
        let jittery = record_with_step_time(3e-5);
        let regs = compare(&base, &jittery, &CompareConfig::default()).unwrap();
        assert!(regs.is_empty(), "microsecond jitter is noise: {regs:?}");
    }

    #[test]
    fn tail_latency_blowup_trips_the_p95_gate() {
        // Identical medians, but the candidate grows a fat tail: 8 of 64
        // samples land two orders of magnitude out. The p50 gate stays
        // quiet; the p95 gate must fire.
        let mk = |tail_s: f64| {
            let mut m = MetricsSnapshot::default();
            let mut h = Histogram::default();
            for i in 0..64 {
                h.record(if i % 8 == 0 { tail_s } else { 0.05 });
            }
            m.histograms.insert("serve.run_seconds".into(), h);
            RunRecord::from_parts(
                "serve_load",
                "test",
                None,
                4,
                String::new(),
                GitMeta::unknown(),
                &[],
                &m,
                None,
            )
        };
        let base = mk(0.05);
        let fat_tail = mk(8.0);
        let regs = compare(&base, &fat_tail, &CompareConfig::default()).unwrap();
        assert!(
            regs.iter()
                .any(|r| r.what == "histogram serve.run_seconds p95"),
            "tail blowup must trip the p95 gate: {regs:?}"
        );
        assert!(
            !regs.iter().any(|r| r.what.ends_with("p50")),
            "median unchanged — p50 must stay quiet: {regs:?}"
        );
        // Self-compare is clean even with the tail present.
        let regs = compare(&fat_tail, &fat_tail, &CompareConfig::default()).unwrap();
        assert!(regs.is_empty(), "{regs:?}");
    }

    #[test]
    fn energy_drift_violation_is_a_regression() {
        let base = record_with_step_time(0.05);
        let mut drifted = record_with_step_time(0.05);
        drifted.invariants.as_mut().unwrap().max_energy_drift = 0.2;
        let regs = compare(&base, &drifted, &CompareConfig::default()).unwrap();
        assert!(
            regs.iter().any(|r| r.what == "invariant energy drift"),
            "20% drift must trip the 5% ceiling: {regs:?}"
        );
    }

    #[test]
    fn nan_invariants_are_regressions() {
        let base = record_with_step_time(0.05);
        let mut poisoned = record_with_step_time(0.05);
        poisoned.invariants.as_mut().unwrap().max_norm_error = f64::NAN;
        let regs = compare(&base, &poisoned, &CompareConfig::default()).unwrap();
        assert!(regs.iter().any(|r| r.what == "invariant norm error"));
    }

    #[test]
    fn fingerprint_mismatch_is_flagged_when_required() {
        let base = record_with_step_time(0.05);
        let mut other = record_with_step_time(0.05);
        other.config_fingerprint = Some(99);
        let regs = compare(&base, &other, &CompareConfig::default()).unwrap();
        assert!(regs.iter().any(|r| r.what == "config_fingerprint"));
        let relaxed = CompareConfig {
            require_same_config: false,
            ..CompareConfig::default()
        };
        let regs = compare(&base, &other, &relaxed).unwrap();
        assert!(regs.is_empty());
    }

    #[test]
    fn modeled_step_gauges_gate_at_configured_ratio() {
        let with_steps = |p8: f64, p16: f64| {
            let mut r = record_with_step_time(0.05);
            r.gauges.insert("scaling.modeled_step_s.p8".into(), p8);
            r.gauges.insert("scaling.modeled_step_s.p16".into(), p16);
            r
        };
        let base = with_steps(1.0, 1.1);
        // At the strict 1.0 ratio even a 1% slowdown at one rank count is
        // flagged — the overlap-ablation contract.
        let strict = CompareConfig {
            modeled_step_ratio: 1.0,
            ..CompareConfig::default()
        };
        let slower = with_steps(1.0, 1.111);
        let regs = compare(&base, &slower, &strict).unwrap();
        assert!(
            regs.iter()
                .any(|r| r.what == "modeled gauge scaling.modeled_step_s.p16"),
            "1% modeled slowdown must trip ratio 1.0: {regs:?}"
        );
        // Equal or faster passes; default 1.5 tolerates the 1%.
        assert!(compare(&base, &base, &strict).unwrap().is_empty());
        let faster = with_steps(0.9, 1.0);
        assert!(compare(&base, &faster, &strict).unwrap().is_empty());
        assert!(compare(&base, &slower, &CompareConfig::default())
            .unwrap()
            .is_empty());
        // NaN is always a regression.
        let poisoned = with_steps(1.0, f64::NAN);
        assert!(!compare(&base, &poisoned, &strict).unwrap().is_empty());
        // A rank count present only on one side is skipped.
        let mut extra = base.clone();
        extra
            .gauges
            .insert("scaling.modeled_step_s.p32".into(), 9.0);
        assert!(compare(&base, &extra, &strict).unwrap().is_empty());
    }

    #[test]
    fn schema_mismatch_is_an_error_not_a_regression() {
        let base = record_with_step_time(0.05);
        let mut future = record_with_step_time(0.05);
        future.schema_version += 1;
        assert!(compare(&base, &future, &CompareConfig::default()).is_err());
    }
}
