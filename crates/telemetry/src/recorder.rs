//! The bounded flight recorder: per-step samples in a ring buffer.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use dcmesh_core::{DcMeshSim, SimInvariants, StepReport};

use crate::sample::{InvariantSummary, StepSample};

/// NaN-sticky maximum (plain `f64::max` discards NaN operands).
fn max_sticky(acc: f64, v: f64) -> f64 {
    if acc.is_nan() || v.is_nan() {
        f64::NAN
    } else {
        acc.max(v)
    }
}

/// Recorder sizing and sampling stride.
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Ring-buffer capacity in samples; the oldest samples are dropped
    /// (and counted) once the buffer is full.
    pub capacity: usize,
    /// Evaluate the (expensive) physics invariants every N observed
    /// steps; the first observed step is always sampled. 0 disables
    /// invariant sampling entirely (perf series only).
    pub sample_every: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            sample_every: 1,
        }
    }
}

/// Bounded per-step telemetry buffer over a running [`DcMeshSim`].
///
/// `observe` is called once per attempted MD step with the step's report;
/// it records the cheap perf series every call and the physics invariants
/// on the configured stride. The whole-run extremes (worst drift, worst
/// norm error) are accumulated independently of the ring buffer, so a
/// long run's summary is exact even after old samples have been evicted.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: RecorderConfig,
    samples: VecDeque<StepSample>,
    dropped: u64,
    observed: u64,
    baseline: Option<SimInvariants>,
    summary: Option<InvariantSummary>,
    last_wall: Option<Instant>,
}

impl FlightRecorder {
    /// An empty recorder.
    pub fn new(cfg: RecorderConfig) -> Self {
        Self {
            cfg,
            samples: VecDeque::with_capacity(cfg.capacity.min(4096)),
            dropped: 0,
            observed: 0,
            baseline: None,
            summary: None,
            last_wall: None,
        }
    }

    /// Record one step. Returns the sample just taken.
    pub fn observe(&mut self, sim: &DcMeshSim, report: &StepReport) -> &StepSample {
        let wall_s = match self.last_wall.replace(Instant::now()) {
            Some(prev) => prev.elapsed().as_secs_f64(),
            None => 0.0,
        };
        let sample_invariants = self.cfg.sample_every > 0
            && (self.baseline.is_none() || self.observed.is_multiple_of(self.cfg.sample_every));
        self.observed += 1;
        let (invariants, energy_drift) = if sample_invariants {
            let inv = sim.physics_invariants();
            let base = *self.baseline.get_or_insert(inv);
            let scale = base.total_energy.abs().max(1e-12);
            let drift = (inv.total_energy - base.total_energy).abs() / scale;
            self.accumulate_summary(&inv, drift, &base);
            (Some(inv), Some(drift))
        } else {
            (None, None)
        };
        let sample = StepSample {
            step: sim.md_steps(),
            time_fs: report.time_fs,
            wall_s,
            lfd_electron_s: report.lfd_electron_s,
            lfd_nonlocal_s: report.lfd_nonlocal_s,
            lfd_transfer_s: report.lfd_transfer_s,
            excited_population: report.excited_population,
            hops: report.hops as u64,
            temperature_k: report.temperature_k,
            resident_bytes: sim.resident_bytes(),
            invariants,
            energy_drift,
        };
        if self.samples.len() >= self.cfg.capacity.max(1) {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
        self.samples.back().expect("just pushed")
    }

    fn accumulate_summary(&mut self, inv: &SimInvariants, drift: f64, base: &SimInvariants) {
        let s = self.summary.get_or_insert(InvariantSummary {
            samples: 0,
            initial_total_energy: base.total_energy,
            final_total_energy: base.total_energy,
            max_energy_drift: 0.0,
            max_norm_error: 0.0,
            max_population_error: 0.0,
            max_occupation_drift: 0.0,
        });
        s.samples += 1;
        s.final_total_energy = inv.total_energy;
        s.max_energy_drift = max_sticky(s.max_energy_drift, drift);
        s.max_norm_error = max_sticky(s.max_norm_error, inv.max_norm_error);
        s.max_population_error = max_sticky(s.max_population_error, inv.max_population_error);
        s.max_occupation_drift = max_sticky(
            s.max_occupation_drift,
            (inv.total_occupation - base.total_occupation).abs(),
        );
    }

    /// The buffered samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &StepSample> {
        self.samples.iter()
    }

    /// Samples evicted from the ring buffer so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Steps observed (whether or not still buffered).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// The first sampled invariants (the drift baseline).
    pub fn baseline(&self) -> Option<&SimInvariants> {
        self.baseline.as_ref()
    }

    /// Whole-run invariant summary; `None` until the first sampled step.
    pub fn summary(&self) -> Option<InvariantSummary> {
        self.summary
    }

    /// The buffered samples as JSONL (one JSON object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Flush the buffered samples to `path` as JSONL.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_core::DcMeshConfig;

    fn quick_cfg() -> DcMeshConfig {
        DcMeshConfig {
            n_qd: 5,
            ..DcMeshConfig::default()
        }
    }

    #[test]
    fn records_samples_and_summary() {
        // Steps engines: must not steal a fault plan a sibling test installed.
        let _guard = dcmesh_ckpt::fault::test_lock();
        let mut sim = DcMeshSim::new(quick_cfg());
        let mut rec = FlightRecorder::new(RecorderConfig {
            capacity: 8,
            sample_every: 2,
        });
        for _ in 0..4 {
            let r = sim.md_step();
            rec.observe(&sim, &r);
        }
        assert_eq!(rec.observed(), 4);
        assert_eq!(rec.samples().count(), 4);
        // Stride 2: steps 0 and 2 carry invariants.
        let with_inv = rec.samples().filter(|s| s.invariants.is_some()).count();
        assert_eq!(with_inv, 2);
        let summary = rec.summary().expect("sampled at least once");
        assert_eq!(summary.samples, 2);
        assert!(summary.max_energy_drift.is_finite());
        assert!(summary.max_occupation_drift < 1e-9);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        // Steps engines: must not steal a fault plan a sibling test installed.
        let _guard = dcmesh_ckpt::fault::test_lock();
        let mut sim = DcMeshSim::new(quick_cfg());
        let mut rec = FlightRecorder::new(RecorderConfig {
            capacity: 3,
            sample_every: 0,
        });
        for _ in 0..5 {
            let r = sim.md_step();
            rec.observe(&sim, &r);
        }
        assert_eq!(rec.samples().count(), 3);
        assert_eq!(rec.dropped(), 2);
        let first = rec.samples().next().unwrap();
        assert_eq!(first.step, 3, "oldest two samples evicted");
        assert!(rec.summary().is_none(), "stride 0 disables invariants");
    }

    #[test]
    fn jsonl_lines_parse_back() {
        // Steps engines: must not steal a fault plan a sibling test installed.
        let _guard = dcmesh_ckpt::fault::test_lock();
        let mut sim = DcMeshSim::new(quick_cfg());
        let mut rec = FlightRecorder::new(RecorderConfig::default());
        for _ in 0..2 {
            let r = sim.md_step();
            rec.observe(&sim, &r);
        }
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = dcmesh_obs::json::Json::parse(line).expect("valid JSON");
            assert!(v.get("step").is_some());
            assert!(v.get("total_energy").is_some(), "stride 1 samples all");
        }
    }
}
