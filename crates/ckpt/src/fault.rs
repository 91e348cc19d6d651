//! Deterministic fault injection: a NaN planted in a kernel output.
//!
//! A [`FaultPlan`] names the engine step at which `LfdEngine::run_md_step`
//! poisons its output once — the fault a supervised run must detect, roll
//! back from and recover. The plan is installed globally ([`install`], or
//! [`install_from_env`] via `DCMESH_FAULT_PLAN=nan@STEP`) and queried from
//! the engine's step. Disarmed, the query is a single relaxed atomic load —
//! the same contract as the `dcmesh-obs` collector. An injection counts
//! `faults.injected`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};

/// A declarative description of the fault to inject into one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Plant a NaN in a kernel output at this engine step (one-shot).
    pub nan_at_step: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a builder base).
    pub fn none() -> Self {
        Self::default()
    }

    /// Parse the `DCMESH_FAULT_PLAN` syntax: `nan@STEP`, or nothing.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(Self::none());
        }
        let step = spec
            .strip_prefix("nan@")
            .ok_or_else(|| format!("unknown fault directive: {spec}"))?;
        let step = step.parse().map_err(|_| format!("bad nan step: {spec}"))?;
        Ok(Self {
            nan_at_step: Some(step),
        })
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);
/// Set once the plan's NaN injection has fired; never rearms, so a
/// rollback that replays the trigger step does not loop forever.
static NAN_CONSUMED: AtomicBool = AtomicBool::new(false);

/// True when a fault plan is installed. One relaxed load; the fast path
/// for every injection site.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Install `plan` globally, arming the injection sites.
pub fn install(plan: FaultPlan) {
    *PLAN.write().expect("fault plan lock poisoned") = Some(plan);
    NAN_CONSUMED.store(false, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Remove any installed plan, disarming the injection sites.
pub fn clear() {
    ARMED.store(false, Ordering::Relaxed);
    *PLAN.write().expect("fault plan lock poisoned") = None;
    NAN_CONSUMED.store(false, Ordering::Relaxed);
}

/// Install a plan from `DCMESH_FAULT_PLAN` if the variable is set and not
/// blank. `Ok` says whether a plan was installed; a malformed spec is an
/// `Err` with the parse message and installs nothing (a silently ignored
/// fault plan would defeat the test it gates, so callers exit on it).
pub fn install_from_env() -> Result<bool, String> {
    install_spec(std::env::var("DCMESH_FAULT_PLAN").ok().as_deref())
}

fn install_spec(spec: Option<&str>) -> Result<bool, String> {
    match spec.filter(|s| !s.trim().is_empty()) {
        Some(spec) => FaultPlan::parse(spec).map(|plan| {
            install(plan);
            true
        }),
        None => Ok(false),
    }
}

fn with_plan<T>(f: impl FnOnce(&FaultPlan) -> T) -> Option<T> {
    if !armed() {
        return None;
    }
    PLAN.read()
        .expect("fault plan lock poisoned")
        .as_ref()
        .map(f)
}

/// True exactly once, when the engine reaches the plan's NaN step. The
/// injection is consumed on first fire so a checkpoint rollback that
/// replays the same step recovers instead of re-tripping the fault.
pub fn consume_nan_injection(step: u64) -> bool {
    let due = with_plan(|plan| plan.nan_at_step == Some(step)).unwrap_or(false);
    if due && !NAN_CONSUMED.swap(true, Ordering::Relaxed) {
        dcmesh_obs::metrics::counter_add("faults.injected", 1);
        return true;
    }
    false
}

static TEST_GUARD: Mutex<()> = Mutex::new(());

/// Serialize access to the global plan across tests (the plan is
/// process-global state). Returns a guard; hold it for the duration of
/// any test that installs a plan.
pub fn test_lock() -> MutexGuard<'static, ()> {
    TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with `plan` installed, clearing it afterwards (even on panic
/// the next [`with_installed`]/[`install`] call resets the state). Tests
/// touching the global plan are serialized through an internal lock.
pub fn with_installed<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
    let _guard = test_lock();
    install(plan);
    let out = f();
    clear();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_injects_nothing() {
        let _guard = test_lock();
        clear();
        assert!(!armed());
        assert!(!consume_nan_injection(0));
    }

    #[test]
    fn nan_injection_is_one_shot() {
        let plan = FaultPlan {
            nan_at_step: Some(3),
        };
        with_installed(plan, || {
            assert!(!consume_nan_injection(2));
            assert!(consume_nan_injection(3));
            // A rollback replaying step 3 must not re-trip the fault.
            assert!(!consume_nan_injection(3));
        });
    }

    #[test]
    fn env_spec_installs_a_good_plan_skips_a_blank_one_and_reports_a_bad_one() {
        let _guard = test_lock();
        clear();
        assert_eq!(install_spec(Some("nan@2")), Ok(true));
        let want = FaultPlan {
            nan_at_step: Some(2),
        };
        assert_eq!(with_plan(FaultPlan::clone), Some(want));
        clear();
        for blank in [None, Some(""), Some("  ")] {
            assert_eq!(install_spec(blank), Ok(false));
            assert!(!armed(), "{blank:?} armed the injection sites");
        }
        let err = install_spec(Some("nan@x")).unwrap_err();
        assert!(err.contains("nan@x"), "{err}");
        assert!(!armed(), "a malformed plan must install nothing");
    }

    #[test]
    fn parse_rejects_garbage() {
        let nan2 = FaultPlan {
            nan_at_step: Some(2),
        };
        assert_eq!(FaultPlan::parse(" nan@2 "), Ok(nan2));
        assert_eq!(FaultPlan::parse(""), Ok(FaultPlan::none()));
        // The message faults are gone: a stale plan naming one fails loudly
        // instead of injecting nothing.
        for removed in [
            "seed=3",
            "drop=0.1",
            "delay=0.5@0.25",
            "dup=0.2@100",
            "kill=1@3",
        ] {
            let err = FaultPlan::parse(removed).unwrap_err();
            assert_eq!(err, format!("unknown fault directive: {removed}"));
        }
        for bad in ["nan@", "nan@-1", "nan@2,nan@3", "frobnicate=1"] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }
}
