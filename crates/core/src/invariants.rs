//! Physics-invariant probes and the per-step record built from them.
//!
//! A [`SimInvariants`] snapshot collects every conserved (or
//! slowly-varying) quantity of the coupled simulation in one pass:
//! classical + electronic total energy, per-domain wavefunction norm
//! error, FSSH population sums, the Maxwell field energy, and the total
//! electron occupation. [`crate::ResilientRunner`] takes one per MD step
//! and turns it into a [`StepSample`], folds it into the run's
//! [`InvariantSummary`], and checks it against the drift ceilings
//! ([`drift_warnings`]) *before* its hard non-finite check — the early
//! warning ahead of a rollback.
//!
//! The electronic energy evaluation is the expensive part
//! (`LfdEngine::band_energies` runs full Hamiltonian expectations).

use crate::simulation::{DcMeshSim, StepReport};
use dcmesh_obs::json::Json;

/// One snapshot of the simulation's physics invariants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimInvariants {
    /// Classical MD total energy (kinetic + potential, Hartree).
    pub md_total_energy: f64,
    /// Electronic energy summed over domains (`sum_n f_n E_n`, Hartree).
    pub electronic_energy: f64,
    /// Maxwell field energy on the 1D grid.
    pub field_energy: f64,
    /// `md_total_energy + electronic_energy + field_energy` — the
    /// conserved total a dark run must hold and a driven run changes only
    /// through the pulse.
    pub total_energy: f64,
    /// Largest per-orbital deviation from unit L2 norm across domains.
    pub max_norm_error: f64,
    /// Largest per-domain deviation of the FSSH population sum from 1.
    pub max_population_error: f64,
    /// Total electron occupation across domains (conserved exactly).
    pub total_occupation: f64,
}

impl SimInvariants {
    /// True when every probe is a finite number.
    pub fn is_finite(&self) -> bool {
        [
            self.md_total_energy,
            self.electronic_energy,
            self.field_energy,
            self.total_energy,
            self.max_norm_error,
            self.max_population_error,
            self.total_occupation,
        ]
        .iter()
        .all(|v| v.is_finite())
    }
}

/// NaN-sticky maximum: `f64::max` silently discards NaN operands, which
/// would let a poisoned domain hide behind a healthy one.
pub(crate) fn max_sticky(acc: f64, v: f64) -> f64 {
    if acc.is_nan() || v.is_nan() {
        f64::NAN
    } else {
        acc.max(v)
    }
}

impl DcMeshSim {
    /// Evaluate every physics invariant of the current state in one pass.
    ///
    /// Costs one full electronic-energy evaluation per domain — sample on
    /// a stride, not in the inner loop.
    pub fn physics_invariants(&self) -> SimInvariants {
        let md_total_energy = self.md.total_energy();
        let domains = &self.domains;
        let electronic_energy: f64 = domains.iter().map(|d| d.engine.total_energy()).sum();
        let field_energy = self.maxwell.energy();
        let max_norm_error = (domains.iter())
            .map(|d| d.engine.max_norm_error())
            .fold(0.0, max_sticky);
        let max_population_error = (domains.iter())
            .map(|d| (d.fssh.norm() - 1.0).abs())
            .fold(0.0, max_sticky);
        SimInvariants {
            md_total_energy,
            electronic_energy,
            field_energy,
            total_energy: md_total_energy + electronic_energy + field_energy,
            max_norm_error,
            max_population_error,
            total_occupation: self.total_occupation(),
        }
    }
}

/// Drift ceilings of the watchdog rule. One value each has ever been in
/// use, so they are constants rather than options.
const MAX_ENERGY_DRIFT: f64 = 0.05;
const MAX_NORM_ERROR: f64 = 1e-3;
const MAX_POPULATION_ERROR: f64 = 1e-3;
const MAX_OCCUPATION_DRIFT: f64 = 1e-6;

/// One watched quantity of a sample: `(name, value, ceiling)`.
pub(crate) type Watched = (&'static str, f64, f64);

/// The four watched quantities of `inv` against the run's `base`line (its
/// first sample), computed once per step: the sample, the summary and the
/// warnings all read this one array. Drifts are relative to `base`; the
/// energy drift is scaled by `|base.total_energy|`.
pub(crate) fn watched(base: &SimInvariants, inv: &SimInvariants) -> [Watched; 4] {
    let scale = base.total_energy.abs().max(1e-12);
    [
        (
            "energy_drift",
            (inv.total_energy - base.total_energy).abs() / scale,
            MAX_ENERGY_DRIFT,
        ),
        ("norm_error", inv.max_norm_error, MAX_NORM_ERROR),
        (
            "population_error",
            inv.max_population_error,
            MAX_POPULATION_ERROR,
        ),
        (
            "occupation_drift",
            (inv.total_occupation - base.total_occupation).abs(),
            MAX_OCCUPATION_DRIFT,
        ),
    ]
}

/// One ceiling crossed by one sample.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftWarning {
    /// MD step the violating sample was taken at.
    pub step: u64,
    /// Which invariant degraded (e.g. `"energy_drift"`).
    pub what: &'static str,
    /// Observed value (may be NaN).
    pub value: f64,
    /// The ceiling it crossed.
    pub threshold: f64,
}

impl std::fmt::Display for DriftWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {}: {} = {:.3e} exceeds {:.3e}",
            self.step, self.what, self.value, self.threshold
        )
    }
}

/// The watchdog rule: every ceiling the sample taken at `step` crossed.
/// Written `!(value <= ceiling)` so a NaN counts as a violation rather
/// than slipping past.
pub(crate) fn drift_warnings(
    step: u64,
    watched: &[Watched; 4],
) -> impl Iterator<Item = DriftWarning> + '_ {
    watched
        .iter()
        .filter(
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            |(_, value, ceiling)| !(*value <= *ceiling),
        )
        .map(move |&(what, value, threshold)| DriftWarning {
            step,
            what,
            value,
            threshold,
        })
}

/// One per-step sample of a supervised run: the perf series of the step
/// and the physics invariants after it.
#[derive(Clone, Debug)]
pub struct StepSample {
    /// Completed MD steps when the sample was taken. After a rollback the
    /// series visibly moves backwards — that is the point of a flight
    /// recorder.
    pub step: u64,
    /// Wall-clock seconds the `md_step` call that produced this sample
    /// took (not the snapshot or the invariant evaluation after it).
    pub wall_s: f64,
    /// What that `md_step` call reported.
    pub report: StepReport,
    /// Bytes of evolving state: the length of the runner's last snapshot,
    /// the footprint a checkpoint captures.
    pub resident_bytes: u64,
    /// Physics invariants after the step.
    pub invariants: SimInvariants,
    /// Relative total-energy drift vs. the run's first sample.
    pub energy_drift: f64,
}

impl StepSample {
    /// One JSONL line for this sample.
    pub fn to_json(&self) -> Json {
        let (inv, report) = (&self.invariants, &self.report);
        Json::Obj(vec![
            ("step".into(), Json::Num(self.step as f64)),
            ("time_fs".into(), Json::Num(report.time_fs)),
            ("wall_s".into(), Json::Num(self.wall_s)),
            ("lfd_electron_s".into(), Json::Num(report.lfd_electron_s)),
            ("lfd_nonlocal_s".into(), Json::Num(report.lfd_nonlocal_s)),
            ("lfd_transfer_s".into(), Json::Num(report.lfd_transfer_s)),
            (
                "excited_population".into(),
                Json::Num(report.excited_population),
            ),
            ("hops".into(), Json::Num(report.hops as f64)),
            ("temperature_k".into(), Json::Num(report.temperature_k)),
            (
                "resident_bytes".into(),
                Json::Num(self.resident_bytes as f64),
            ),
            ("total_energy".into(), Json::Num(inv.total_energy)),
            ("md_total_energy".into(), Json::Num(inv.md_total_energy)),
            ("electronic_energy".into(), Json::Num(inv.electronic_energy)),
            ("field_energy".into(), Json::Num(inv.field_energy)),
            ("max_norm_error".into(), Json::Num(inv.max_norm_error)),
            (
                "max_population_error".into(),
                Json::Num(inv.max_population_error),
            ),
            ("total_occupation".into(), Json::Num(inv.total_occupation)),
            ("energy_drift".into(), Json::Num(self.energy_drift)),
        ])
    }
}

/// A step series as JSONL: one [`StepSample::to_json`] object per line.
pub fn step_series_jsonl<'a>(samples: impl IntoIterator<Item = &'a StepSample>) -> String {
    let mut out = String::new();
    for s in samples {
        out.push_str(&s.to_json().to_string());
        out.push('\n');
    }
    out
}

/// Whole-run invariant summary. The extremes are accumulated over every
/// sample of the run, so they stay exact after old samples have left the
/// runner's bounded buffer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InvariantSummary {
    /// Steps sampled.
    pub samples: u64,
    /// Total energy at the first sampled step.
    pub initial_total_energy: f64,
    /// Total energy at the last sampled step.
    pub final_total_energy: f64,
    /// Worst relative total-energy drift over the run. NaN when a sample
    /// went non-finite — every threshold comparison treats that as a
    /// violation.
    pub max_energy_drift: f64,
    /// Worst per-orbital norm error over the run.
    pub max_norm_error: f64,
    /// Worst FSSH population-sum error over the run.
    pub max_population_error: f64,
    /// Largest deviation of the total occupation from its initial value.
    pub max_occupation_drift: f64,
}

impl InvariantSummary {
    /// The summary of a run whose first sample is `base`, before any
    /// sample has been folded in.
    pub(crate) fn starting_at(base: &SimInvariants) -> Self {
        Self {
            samples: 0,
            initial_total_energy: base.total_energy,
            final_total_energy: base.total_energy,
            max_energy_drift: 0.0,
            max_norm_error: 0.0,
            max_population_error: 0.0,
            max_occupation_drift: 0.0,
        }
    }

    /// Fold one sample in; the maxima are NaN-sticky.
    pub(crate) fn fold(&mut self, inv: &SimInvariants, watched: &[Watched; 4]) {
        self.samples += 1;
        self.final_total_energy = inv.total_energy;
        let maxima = [
            &mut self.max_energy_drift,
            &mut self.max_norm_error,
            &mut self.max_population_error,
            &mut self.max_occupation_drift,
        ];
        for (max, (_, value, _)) in maxima.into_iter().zip(watched) {
            *max = max_sticky(*max, *value);
        }
    }

    /// The summary as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("samples".into(), Json::Num(self.samples as f64)),
            (
                "initial_total_energy".into(),
                Json::Num(self.initial_total_energy),
            ),
            (
                "final_total_energy".into(),
                Json::Num(self.final_total_energy),
            ),
            ("max_energy_drift".into(), Json::Num(self.max_energy_drift)),
            ("max_norm_error".into(), Json::Num(self.max_norm_error)),
            (
                "max_population_error".into(),
                Json::Num(self.max_population_error),
            ),
            (
                "max_occupation_drift".into(),
                Json::Num(self.max_occupation_drift),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::tests::quick_cfg;

    fn healthy() -> SimInvariants {
        SimInvariants {
            md_total_energy: 1.0,
            electronic_energy: -3.0,
            field_energy: 0.5,
            total_energy: -1.5,
            max_norm_error: 1e-9,
            max_population_error: 1e-12,
            total_occupation: 8.0,
        }
    }

    fn warnings(step: u64, inv: &SimInvariants) -> Vec<DriftWarning> {
        drift_warnings(step, &watched(&healthy(), inv)).collect()
    }

    #[test]
    fn healthy_samples_raise_no_warnings() {
        assert!(warnings(0, &healthy()).is_empty());
    }

    #[test]
    fn energy_drift_is_relative_to_the_baseline() {
        let drifted = SimInvariants {
            total_energy: -1.5 * 1.2,
            ..healthy()
        };
        let warns = warnings(5, &drifted);
        assert_eq!(warns.len(), 1);
        assert_eq!(warns[0].what, "energy_drift");
        assert_eq!(warns[0].step, 5);
        assert!((warns[0].value - 0.2).abs() < 1e-12);
    }

    #[test]
    fn nan_invariants_always_warn() {
        let poisoned = SimInvariants {
            total_energy: f64::NAN,
            max_norm_error: f64::NAN,
            ..healthy()
        };
        let whats: Vec<&str> = warnings(1, &poisoned).iter().map(|w| w.what).collect();
        assert_eq!(whats, ["energy_drift", "norm_error"]);
    }

    #[test]
    fn multiple_violations_are_all_reported_and_summarized() {
        let worse = SimInvariants {
            total_energy: -1.2,
            max_norm_error: 1e-2,
            max_population_error: 1e-2,
            total_occupation: 8.1,
            ..healthy()
        };
        assert_eq!(warnings(1, &worse).len(), 4);
        let mut summary = InvariantSummary::starting_at(&healthy());
        summary.fold(&healthy(), &watched(&healthy(), &healthy()));
        summary.fold(&worse, &watched(&healthy(), &worse));
        assert_eq!(summary.samples, 2);
        assert_eq!(summary.final_total_energy, -1.2);
        assert!((summary.max_energy_drift - 0.2).abs() < 1e-12);
        assert_eq!(summary.max_norm_error, 1e-2);
        assert!((summary.max_occupation_drift - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fresh_state_is_near_invariant() {
        let sim = DcMeshSim::new(quick_cfg());
        let inv = sim.physics_invariants();
        assert!(inv.is_finite());
        // Initial orbitals are orthonormal; FSSH starts in a pure state.
        assert!(inv.max_norm_error < 1e-9, "{}", inv.max_norm_error);
        assert!(inv.max_population_error < 1e-12);
        assert_eq!(
            inv.total_energy,
            inv.md_total_energy + inv.electronic_energy + inv.field_energy
        );
    }

    #[test]
    fn dark_run_conserves_occupation_and_norm() {
        let mut sim = DcMeshSim::new(quick_cfg());
        let before = sim.physics_invariants();
        for _ in 0..3 {
            sim.md_step();
        }
        let after = sim.physics_invariants();
        assert!((after.total_occupation - before.total_occupation).abs() < 1e-9);
        assert!(after.max_norm_error < 1e-6, "{}", after.max_norm_error);
    }
}
