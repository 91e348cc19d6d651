//! The supervised run: per-step recording, drift warnings, and
//! checkpoint-backed rollback — the one way to step a [`DcMeshSim`] under
//! supervision.
//!
//! [`ResilientRunner`] wraps a [`DcMeshSim`]. After every attempted MD
//! step it, in this order: records a [`StepSample`] (the wall time of the
//! `md_step` call plus the physics invariants) and folds it into the
//! run's [`InvariantSummary`]; turns every drift ceiling the sample
//! crossed into a [`RunEvent::Warning`]; and only then checks the state
//! for non-finite values (a NaN escaping a kernel, an exploding
//! integrator). On detection it rolls the simulation back to the last
//! in-memory snapshot and retries with a halved QD time step (`dt_qd / 2`,
//! `n_qd * 2` — the MD step length is preserved), up to a bounded number
//! of rollbacks — so a poisoned step's warnings are ordered strictly
//! before its [`RunEvent::Rollback`], and the poisoned sample stays in
//! the record. Snapshots are taken at construction and every
//! `checkpoint_every` successful steps; an optional path mirrors them to
//! disk through the atomic checkpoint writer.

use crate::checkpoint::{write_checkpoint_atomic, CkptError};
use crate::invariants::{
    drift_warnings, watched, DriftWarning, InvariantSummary, SimInvariants, StepSample,
};
use crate::simulation::{DcMeshConfig, DcMeshSim, StepReport};
use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

/// Why a resilient run could not continue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResilienceError {
    /// The rollback budget is exhausted and the state is still non-finite.
    Unrecoverable {
        /// Rollbacks attempted before giving up.
        rollbacks: u32,
    },
    /// A checkpoint write or restore failed.
    Ckpt(CkptError),
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::Unrecoverable { rollbacks } => {
                write!(
                    f,
                    "simulation state non-finite after {rollbacks} rollback(s)"
                )
            }
            ResilienceError::Ckpt(e) => write!(f, "checkpoint error during recovery: {e}"),
        }
    }
}

impl std::error::Error for ResilienceError {}

impl From<CkptError> for ResilienceError {
    fn from(e: CkptError) -> Self {
        ResilienceError::Ckpt(e)
    }
}

/// Something the runner noticed during a run, in the order it happened.
#[derive(Clone, Debug, PartialEq)]
pub enum RunEvent {
    /// A sample crossed a drift ceiling. Raised before the finiteness
    /// check of the same step, so for a poisoned step the warning precedes
    /// the matching [`RunEvent::Rollback`].
    Warning(DriftWarning),
    /// The runner rolled back to its last snapshot.
    Rollback {
        /// MD step counter after the rollback restored the snapshot.
        step: u64,
        /// Total rollbacks so far.
        rollbacks: u32,
    },
}

/// Step samples kept in memory; older ones are evicted (the summary is
/// accumulated separately and stays exact).
const SAMPLE_CAPACITY: usize = 4096;

fn push_bounded(ring: &mut VecDeque<StepSample>, sample: StepSample) {
    if ring.len() >= SAMPLE_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(sample);
}

/// Checkpoint-backed driver that records every step, warns on invariant
/// drift, detects non-finite state and retries from the last snapshot
/// with a smaller electronic time step.
pub struct ResilientRunner {
    sim: DcMeshSim,
    checkpoint_every: u64,
    checkpoint_path: Option<PathBuf>,
    steps_since_ckpt: u64,
    last_snapshot: Vec<u8>,
    rollbacks: u32,
    max_rollbacks: u32,
    /// The drift baseline (the run's first sample) and the summary
    /// accumulated against it.
    summary: Option<(SimInvariants, InvariantSummary)>,
    samples: VecDeque<StepSample>,
    events: Vec<RunEvent>,
}

impl fmt::Debug for ResilientRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResilientRunner")
            .field("rollbacks", &self.rollbacks)
            .field("max_rollbacks", &self.max_rollbacks)
            .field("checkpoint_every", &self.checkpoint_every)
            .finish_non_exhaustive()
    }
}

impl ResilientRunner {
    /// Wrap a fresh simulation built from `cfg`, snapshotting every
    /// `checkpoint_every` successful steps (0 disables periodic
    /// snapshots beyond the initial one).
    pub fn new(cfg: DcMeshConfig, checkpoint_every: u64) -> Self {
        Self::from_sim(DcMeshSim::new(cfg), checkpoint_every)
    }

    /// Wrap an existing simulation (e.g. one restored from disk). A domain
    /// whose set-up eigensolve did not converge opens the event list with a
    /// `setup_residual` warning at step 0.
    pub fn from_sim(sim: DcMeshSim, checkpoint_every: u64) -> Self {
        let last_snapshot = sim.snapshot_bytes();
        let unconverged = sim.setup_solves().filter(|s| !s.converged());
        let warn = |solve: crate::simulation::SetupSolve| {
            RunEvent::Warning(DriftWarning {
                step: 0,
                what: "setup_residual",
                value: solve.max_residual,
                threshold: dcmesh_tddft::eigensolver::TOLERANCE,
            })
        };
        let events = unconverged.map(warn).collect();
        Self {
            sim,
            checkpoint_every,
            checkpoint_path: None,
            steps_since_ckpt: 0,
            last_snapshot,
            rollbacks: 0,
            max_rollbacks: 3,
            summary: None,
            samples: VecDeque::new(),
            events,
        }
    }

    /// Mirror every periodic snapshot to `path` (atomic write).
    pub fn with_checkpoint_path(mut self, path: PathBuf) -> Self {
        self.checkpoint_path = Some(path);
        self
    }

    /// Cap on rollback attempts before a step is declared unrecoverable.
    pub fn with_max_rollbacks(mut self, max: u32) -> Self {
        self.max_rollbacks = max;
        self
    }

    /// The wrapped simulation.
    pub fn sim(&self) -> &DcMeshSim {
        &self.sim
    }

    /// Completed MD steps of the wrapped simulation. After a rollback this
    /// moves *backwards* to the snapshot's step counter.
    pub fn md_steps(&self) -> u64 {
        self.sim.md_steps()
    }

    /// Rollbacks performed so far.
    pub fn rollbacks(&self) -> u32 {
        self.rollbacks
    }

    /// The last good in-memory snapshot (taken at construction and every
    /// `checkpoint_every` successful steps), the one a rollback restores.
    pub fn last_snapshot(&self) -> &[u8] {
        &self.last_snapshot
    }

    /// Warnings and rollbacks in occurrence order.
    pub fn events(&self) -> &[RunEvent] {
        &self.events
    }

    /// Whole-run invariant summary; `None` until the first step.
    pub fn summary(&self) -> Option<InvariantSummary> {
        self.summary.map(|(_, summary)| summary)
    }

    /// The buffered step samples, oldest first — one per *attempted* step,
    /// so a rolled-back step's poisoned sample is in the series.
    pub fn samples(&self) -> impl Iterator<Item = &StepSample> {
        self.samples.iter()
    }

    /// Advance one MD step, rolling back and retrying with a halved QD
    /// step whenever the post-step state is non-finite.
    pub fn step(&mut self) -> Result<StepReport, ResilienceError> {
        loop {
            let started = Instant::now();
            let report = self.sim.md_step();
            self.record(&report, started.elapsed().as_secs_f64());
            if self.sim.is_finite() {
                self.steps_since_ckpt += 1;
                if self.checkpoint_every > 0 && self.steps_since_ckpt >= self.checkpoint_every {
                    self.take_snapshot()?;
                }
                return Ok(report);
            }
            if self.rollbacks >= self.max_rollbacks {
                return Err(ResilienceError::Unrecoverable {
                    rollbacks: self.rollbacks,
                });
            }
            self.rollbacks += 1;
            // Degrade gracefully: halve the electronic step (keeping the MD
            // step length), restore the last good snapshot, and replay. The
            // changed dt_qd shifts the fingerprint, so the restore bypasses
            // the fingerprint check — structural checks still apply.
            let mut cfg = self.sim.config().clone();
            cfg.dt_qd *= 0.5;
            cfg.n_qd *= 2;
            self.sim = DcMeshSim::restore_from_bytes(cfg, &self.last_snapshot, false)?;
            self.events.push(RunEvent::Rollback {
                step: self.sim.md_steps(),
                rollbacks: self.rollbacks,
            });
        }
    }

    /// Sample the step just attempted (`wall_s` is its `md_step` call
    /// alone): one invariant evaluation against one baseline feeds the
    /// sample, the summary and the drift warnings.
    fn record(&mut self, report: &StepReport, wall_s: f64) {
        let inv = self.sim.physics_invariants();
        let (base, summary) = self
            .summary
            .get_or_insert_with(|| (inv, InvariantSummary::starting_at(&inv)));
        let watched = watched(base, &inv);
        summary.fold(&inv, &watched);
        for warning in drift_warnings(self.sim.md_steps(), &watched) {
            self.events.push(RunEvent::Warning(warning));
        }
        let [(_, energy_drift, _), ..] = watched;
        let sample = StepSample {
            step: self.sim.md_steps(),
            wall_s,
            report: report.clone(),
            resident_bytes: self.last_snapshot.len() as u64,
            invariants: inv,
            energy_drift,
        };
        push_bounded(&mut self.samples, sample);
    }

    /// Run until the wrapped simulation has completed `target` MD steps
    /// (rollbacks replay the lost window automatically).
    pub fn run_to(&mut self, target: u64) -> Result<Option<StepReport>, ResilienceError> {
        let mut last = None;
        while self.sim.md_steps() < target {
            last = Some(self.step()?);
        }
        Ok(last)
    }

    fn take_snapshot(&mut self) -> Result<(), CkptError> {
        let buf = std::mem::take(&mut self.last_snapshot);
        self.last_snapshot = self.sim.snapshot_into(buf);
        self.steps_since_ckpt = 0;
        if let Some(path) = &self.checkpoint_path {
            write_checkpoint_atomic(path, &self.last_snapshot)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::tests::quick_cfg;
    use crate::simulation::DcMeshConfig;
    use dcmesh_lfd::fault;

    #[test]
    fn clean_run_records_every_step_without_events() {
        let _guard = fault::test_lock();
        let mut runner = ResilientRunner::new(quick_cfg(), 2);
        runner.run_to(4).unwrap();
        assert_eq!(runner.md_steps(), 4);
        assert_eq!(runner.rollbacks(), 0);
        assert!(runner.events().is_empty(), "no drift, no rollback");
        let summary = runner.summary().expect("every step is sampled");
        assert_eq!(summary.samples, 4);
        assert!(summary.max_energy_drift < 0.05);
        assert!(summary.max_occupation_drift < 1e-9);
        let steps: Vec<u64> = runner.samples().map(|s| s.step).collect();
        assert_eq!(steps, [1, 2, 3, 4]);
        assert!(
            runner.samples().all(|s| s.wall_s > 0.0),
            "wall_s is the md_step call's own duration, first sample included"
        );
    }

    #[test]
    fn an_unconverged_set_up_opens_the_events_with_a_warning() {
        let _guard = fault::test_lock();
        // 40 orbitals on 4^3 points: not even [X W] fits, the solve stops at
        // the Rayleigh–Ritz of its start block and the run starts from
        // states that beat. Before, only `excited_population` showed it.
        let wide = DcMeshConfig {
            domain_mesh_points: 4,
            norb: 40,
            lumo: 20,
            ..quick_cfg()
        };
        let runner = ResilientRunner::new(wide, 1);
        assert_eq!(runner.events().len(), runner.sim().num_domains());
        for (event, solve) in runner.events().iter().zip(runner.sim().setup_solves()) {
            let RunEvent::Warning(warning) = event else {
                panic!("{event:?}");
            };
            assert_eq!((warning.step, warning.what), (0, "setup_residual"));
            assert_eq!(warning.threshold, dcmesh_tddft::eigensolver::TOLERANCE);
            assert!(warning.value == solve.max_residual && warning.value > warning.threshold);
            assert_eq!((solve.iterations, solve.h_applications), (0, 40));
        }
    }

    #[test]
    fn warning_precedes_rollback_for_an_injected_nan() {
        fault::with_nan_at(1, || {
            let mut runner = ResilientRunner::new(quick_cfg(), 1);
            runner.run_to(3).unwrap();
            assert_eq!(runner.rollbacks(), 1);
            let events = runner.events();
            let first_warning = events
                .iter()
                .position(|e| matches!(e, RunEvent::Warning(_)))
                .expect("poisoned step must warn");
            let first_rollback = events
                .iter()
                .position(|e| matches!(e, RunEvent::Rollback { .. }))
                .expect("NaN injection must roll back");
            assert!(
                first_warning < first_rollback,
                "drift warning must be ordered strictly before the rollback \
                 (events: {events:?})"
            );
            assert_eq!(
                events[first_rollback],
                RunEvent::Rollback {
                    step: 1,
                    rollbacks: 1
                },
                "the rollback restores the step-1 snapshot"
            );
            // The run recovered, but the poisoned attempt stays on record.
            assert!(runner.sim().is_finite());
            assert_eq!(runner.samples().count(), 4, "3 good steps + 1 poisoned");
            assert!(
                runner.summary().unwrap().max_energy_drift.is_nan(),
                "the poisoned sample must stay visible in the summary"
            );
        });
    }

    #[test]
    fn step_series_jsonl_lines_parse_back() {
        let _guard = fault::test_lock();
        let mut runner = ResilientRunner::new(quick_cfg(), 0);
        runner.run_to(2).unwrap();
        let jsonl = crate::invariants::step_series_jsonl(runner.samples());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        // The 18 keys of a line, in order, as consumers have read them
        // since PR 21.
        let want = "step time_fs wall_s lfd_electron_s lfd_nonlocal_s lfd_transfer_s \
                    excited_population hops temperature_k resident_bytes total_energy \
                    md_total_energy electronic_energy field_energy max_norm_error \
                    max_population_error total_occupation energy_drift";
        for line in lines {
            let dcmesh_obs::json::Json::Obj(fields) =
                dcmesh_obs::json::Json::parse(line).expect("valid JSON")
            else {
                panic!("a sample is an object: {line}");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys.join(" "), want);
        }
        let snapshot = runner.last_snapshot().len() as u64;
        assert!(runner.samples().all(|s| s.resident_bytes == snapshot));
    }

    #[test]
    fn sample_buffer_evicts_the_oldest_at_capacity() {
        let _guard = fault::test_lock();
        let mut runner = ResilientRunner::new(quick_cfg(), 0);
        runner.step().unwrap();
        let template = runner.samples().next().unwrap().clone();
        let mut ring = VecDeque::new();
        for step in 0..SAMPLE_CAPACITY as u64 + 2 {
            push_bounded(
                &mut ring,
                StepSample {
                    step,
                    ..template.clone()
                },
            );
        }
        assert_eq!(ring.len(), SAMPLE_CAPACITY);
        assert_eq!(ring.front().unwrap().step, 2, "oldest two evicted");
    }

    #[test]
    fn injected_nan_is_detected_and_recovered() {
        fault::with_nan_at(1, || {
            let mut runner = ResilientRunner::new(quick_cfg(), 1);
            let last = runner.run_to(3).unwrap();
            assert_eq!(runner.md_steps(), 3);
            assert_eq!(
                runner.rollbacks(),
                1,
                "NaN injection must cost one rollback"
            );
            assert!(runner.sim().is_finite());
            assert!(last.unwrap().excited_population.is_finite());
        });
    }

    #[test]
    fn a_rollback_from_a_reused_snapshot_buffer_is_bit_exact() {
        // The uninterrupted run's step-3 snapshot, and that snapshot
        // replayed at the halved QD step a rollback takes.
        let (at_3, replayed) = {
            let _guard = fault::test_lock();
            let mut sim = DcMeshSim::new(quick_cfg());
            (0..3).for_each(|_| drop(sim.md_step()));
            let halved = DcMeshConfig {
                dt_qd: 0.5 * quick_cfg().dt_qd,
                n_qd: 2 * quick_cfg().n_qd,
                ..quick_cfg()
            };
            let at_3 = sim.snapshot_bytes();
            let mut replay = DcMeshSim::restore_from_bytes(halved, &at_3, false).unwrap();
            replay.md_step();
            (at_3, replay.snapshot_bytes())
        };
        fault::with_nan_at(3, || {
            let mut runner = ResilientRunner::new(quick_cfg(), 1);
            let buffer = runner.last_snapshot().as_ptr();
            for step in 1..=3 {
                runner.run_to(step).unwrap();
                assert_eq!(runner.last_snapshot().as_ptr(), buffer, "snapshot {step}");
            }
            assert!(
                runner.last_snapshot() == at_3,
                "the third snapshot in one buffer"
            );
            runner.run_to(4).unwrap();
            assert_eq!(runner.rollbacks(), 1);
            assert!(
                runner.sim().snapshot_bytes() == replayed,
                "the rolled-back step"
            );
        });
    }

    #[test]
    fn persistent_nan_exhausts_the_rollback_budget() {
        // Inject at step 0 with a zero budget: the one-shot injection is
        // consumed, but the runner must refuse to continue.
        fault::with_nan_at(0, || {
            let mut runner = ResilientRunner::new(quick_cfg(), 1).with_max_rollbacks(0);
            let err = runner.step().unwrap_err();
            assert_eq!(err, ResilienceError::Unrecoverable { rollbacks: 0 });
        });
    }
}
