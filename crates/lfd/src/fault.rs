//! Deterministic fault injection: a NaN planted in a kernel output.
//!
//! `DCMESH_FAULT_PLAN=nan@STEP` names the engine step at which
//! [`LfdEngine::run_md_step`](crate::LfdEngine::run_md_step) poisons its
//! output once — the fault a supervised run must detect, roll back from and
//! recover. The whole plan is one atomic: 0 is disarmed, `step + 1` arms the
//! injection for `step`. Disarmed, the engine's query is one relaxed load —
//! the same contract as the `dcmesh-obs` collector.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// 0: disarmed; `step + 1`: a NaN is due at engine step `step`.
static NAN_AT: AtomicU64 = AtomicU64::new(0);

/// Parse the `DCMESH_FAULT_PLAN` syntax: `nan@STEP`, or nothing (`None`).
/// `STEP` stops below `u64::MAX`, whose `step + 1` would not fit.
fn parse(spec: &str) -> Result<Option<u64>, String> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Ok(None);
    }
    let step = spec
        .strip_prefix("nan@")
        .ok_or_else(|| format!("unknown fault directive: {spec}"))?;
    match step.parse::<u64>() {
        Ok(step) if step < u64::MAX => Ok(Some(step)),
        _ => Err(format!("bad nan step: {spec}")),
    }
}

/// Arm the injection for engine step `step` (one-shot).
fn arm(step: u64) {
    let due = step.checked_add(1).expect("nan@u64::MAX cannot be armed");
    NAN_AT.store(due, Ordering::Relaxed);
}

/// Arm the injection from `DCMESH_FAULT_PLAN` if the variable is set and
/// not blank. `Ok` says whether it armed; a malformed spec is an `Err` with
/// the parse message and arms nothing (a silently ignored fault plan would
/// defeat the test it gates, so callers exit on it).
pub fn install_from_env() -> Result<bool, String> {
    install_spec(std::env::var("DCMESH_FAULT_PLAN").ok().as_deref())
}

fn install_spec(spec: Option<&str>) -> Result<bool, String> {
    let step = parse(spec.unwrap_or(""))?;
    if let Some(step) = step {
        arm(step);
    }
    Ok(step.is_some())
}

/// True exactly once, when the engine reaches the armed step. Firing
/// disarms, so a checkpoint rollback that replays the same step recovers
/// instead of re-tripping the fault.
#[inline]
pub(crate) fn consume_nan_injection(step: u64) -> bool {
    let due = NAN_AT.load(Ordering::Relaxed);
    if due == 0 || due - 1 != step {
        return false;
    }
    NAN_AT
        .compare_exchange(due, 0, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
}

static TEST_GUARD: Mutex<()> = Mutex::new(());

/// Serialize access to the injection across tests (it is process-global
/// state). Returns a guard; hold it for the duration of any test that arms
/// the injection or must not meet one.
pub fn test_lock() -> MutexGuard<'static, ()> {
    TEST_GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` under [`test_lock`] with a NaN due at engine step `step`,
/// disarming afterwards.
pub fn with_nan_at<T>(step: u64, f: impl FnOnce() -> T) -> T {
    let _guard = test_lock();
    arm(step);
    let out = f();
    NAN_AT.store(0, Ordering::Relaxed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed_step() -> Option<u64> {
        NAN_AT.load(Ordering::Relaxed).checked_sub(1)
    }

    #[test]
    fn disarmed_injects_nothing() {
        let _guard = test_lock();
        NAN_AT.store(0, Ordering::Relaxed);
        assert!(!consume_nan_injection(0));
    }

    #[test]
    fn nan_injection_is_one_shot() {
        with_nan_at(3, || {
            assert!(!consume_nan_injection(2));
            assert!(consume_nan_injection(3));
            // A rollback replaying step 3 must not re-trip the fault.
            assert!(!consume_nan_injection(3));
        });
    }

    #[test]
    fn env_spec_installs_a_good_plan_skips_a_blank_one_and_reports_a_bad_one() {
        let _guard = test_lock();
        NAN_AT.store(0, Ordering::Relaxed);
        assert_eq!(install_spec(Some("nan@2")), Ok(true));
        assert_eq!(armed_step(), Some(2));
        NAN_AT.store(0, Ordering::Relaxed);
        for blank in [None, Some(""), Some("  ")] {
            assert_eq!(install_spec(blank), Ok(false));
            assert_eq!(armed_step(), None, "{blank:?} armed the injection");
        }
        let err = install_spec(Some("nan@x")).unwrap_err();
        assert!(err.contains("nan@x"), "{err}");
        assert_eq!(armed_step(), None, "a malformed plan must arm nothing");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse(" nan@2 "), Ok(Some(2)));
        assert_eq!(parse(""), Ok(None));
        assert_eq!(parse("nan@18446744073709551614"), Ok(Some(u64::MAX - 1)));
        // The message faults are gone: a stale plan naming one fails loudly
        // instead of injecting nothing.
        for removed in [
            "seed=3",
            "drop=0.1",
            "delay=0.5@0.25",
            "dup=0.2@100",
            "kill=1@3",
        ] {
            let err = parse(removed).unwrap_err();
            assert_eq!(err, format!("unknown fault directive: {removed}"));
        }
        // u64::MAX would wrap the armed state `step + 1` to disarmed.
        for bad in [
            "nan@",
            "nan@-1",
            "nan@2,nan@3",
            "frobnicate=1",
            "nan@18446744073709551615",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }
}
