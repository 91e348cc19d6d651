//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes which faults to inject: message drops, delays
//! and duplications (by probability), a rank kill at a chosen communication
//! operation, and a NaN planted in a kernel output at a chosen step. The
//! plan is installed globally ([`install`] or [`install_from_env`] via
//! `DCMESH_FAULT_PLAN`) and queried from the comm and engine hot paths.
//!
//! Two properties make the injected faults debuggable:
//!
//! * **Disarmed is free.** With no plan installed every query is a single
//!   relaxed atomic load — the same contract as the `dcmesh-obs` collector.
//! * **Decisions are deterministic.** Each per-message decision hashes
//!   `(plan seed, from, to, tag, sequence number)` through SplitMix64, so
//!   whether a given message is dropped does not depend on thread
//!   interleaving and a failing run replays exactly.
//!
//! Every injected fault increments `faults.injected` plus a per-kind
//! counter (`faults.dropped`, `faults.delayed`, ...).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};

/// The kinds of fault a [`FaultPlan`] can inject.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A message silently discarded in transit.
    Drop,
    /// A message delivered with extra modeled latency.
    Delay,
    /// A message delivered twice.
    Duplicate,
    /// A rank panicking at a chosen communication operation.
    Kill,
    /// A NaN planted in a kernel output.
    Nan,
}

impl FaultKind {
    fn metric(self) -> &'static str {
        match self {
            FaultKind::Drop => "faults.dropped",
            FaultKind::Delay => "faults.delayed",
            FaultKind::Duplicate => "faults.duplicated",
            FaultKind::Kill => "faults.killed",
            FaultKind::Nan => "faults.nan",
        }
    }
}

/// What the comm layer should do with one message.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum MessageAction {
    /// Deliver normally.
    Deliver,
    /// Discard the message.
    Drop,
    /// Deliver with this many extra modeled seconds of latency.
    Delay(f64),
    /// Deliver the message twice.
    Duplicate,
}

/// A declarative description of the faults to inject into one run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-message fault decisions.
    pub seed: u64,
    /// Probability a point-to-point message is dropped.
    pub drop_prob: f64,
    /// Probability a message is delayed.
    pub delay_prob: f64,
    /// Extra modeled latency (seconds) applied to a delayed message.
    pub delay_s: f64,
    /// Probability a message is duplicated.
    pub dup_prob: f64,
    /// Defer each duplicate copy until the sender has posted this many
    /// *further* messages (0 = replay immediately, adjacent to the
    /// original). A deferred duplicate models a retransmitted packet
    /// surfacing long after the original — the adversarial case for any
    /// bounded receive-side dedup window.
    pub dup_defer_msgs: u64,
    /// Kill rank `.0` when it performs its `.1`-th communication operation.
    pub kill_rank: Option<(usize, u64)>,
    /// Plant a NaN in a kernel output at this engine step (one-shot).
    pub nan_at_step: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay_s: 0.0,
            dup_prob: 0.0,
            dup_defer_msgs: 0,
            kill_rank: None,
            nan_at_step: None,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a builder base).
    pub fn none() -> Self {
        Self::default()
    }

    /// Parse the `DCMESH_FAULT_PLAN` syntax: comma-separated directives
    /// `seed=N`, `drop=P`, `delay=P@S` (probability `P`, extra seconds
    /// `S`), `dup=P` or `dup=P@N` (replay the duplicate after `N` further
    /// sends), `kill=R@OP` (rank `R` at its `OP`-th comm operation),
    /// `nan@STEP`.
    ///
    /// Example: `seed=42,drop=0.1,delay=0.5@0.25,kill=1@3,nan@2`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some(v) = part.strip_prefix("seed=") {
                plan.seed = v.parse().map_err(|_| format!("bad seed: {part}"))?;
            } else if let Some(v) = part.strip_prefix("drop=") {
                plan.drop_prob = parse_prob(v, part)?;
            } else if let Some(v) = part.strip_prefix("delay=") {
                let (p, s) = v
                    .split_once('@')
                    .ok_or_else(|| format!("delay needs P@S: {part}"))?;
                plan.delay_prob = parse_prob(p, part)?;
                plan.delay_s = s
                    .parse()
                    .map_err(|_| format!("bad delay seconds: {part}"))?;
            } else if let Some(v) = part.strip_prefix("dup=") {
                match v.split_once('@') {
                    Some((p, defer)) => {
                        plan.dup_prob = parse_prob(p, part)?;
                        plan.dup_defer_msgs = defer
                            .parse()
                            .map_err(|_| format!("bad dup defer count: {part}"))?;
                    }
                    None => plan.dup_prob = parse_prob(v, part)?,
                }
            } else if let Some(v) = part.strip_prefix("kill=") {
                let (r, op) = v
                    .split_once('@')
                    .ok_or_else(|| format!("kill needs RANK@OP: {part}"))?;
                plan.kill_rank = Some((
                    r.parse().map_err(|_| format!("bad kill rank: {part}"))?,
                    op.parse().map_err(|_| format!("bad kill op: {part}"))?,
                ));
            } else if let Some(v) = part.strip_prefix("nan@") {
                plan.nan_at_step = Some(v.parse().map_err(|_| format!("bad nan step: {part}"))?);
            } else {
                return Err(format!("unknown fault directive: {part}"));
            }
        }
        Ok(plan)
    }
}

fn parse_prob(v: &str, part: &str) -> Result<f64, String> {
    let p: f64 = v.parse().map_err(|_| format!("bad probability: {part}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability out of [0, 1]: {part}"));
    }
    Ok(p)
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

fn record(kind: FaultKind) {
    dcmesh_obs::metrics::counter_add("faults.injected", 1);
    dcmesh_obs::metrics::counter_add(kind.metric(), 1);
}

/// SplitMix64 output mix: the per-message decision hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hash a message identity plus a per-decision salt into a uniform
/// draw in `[0, 1)`.
fn draw(plan_seed: u64, salt: u64, from: usize, to: usize, tag: u64, seq: u64) -> f64 {
    let mut h = mix(plan_seed ^ salt);
    h = mix(h ^ from as u64);
    h = mix(h ^ to as u64);
    h = mix(h ^ tag);
    h = mix(h ^ seq);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_DROP: u64 = 0xD509;
const SALT_DELAY: u64 = 0xDE1A;
const SALT_DUP: u64 = 0xD0B1;

/// Decide the fate of one point-to-point message. Deterministic in the
/// message identity `(from, to, tag, seq)` and the plan seed — independent
/// of thread interleaving. Records fault metrics for non-`Deliver`
/// outcomes.
pub fn message_action(from: usize, to: usize, tag: u64, seq: u64) -> MessageAction {
    with_plan(|plan| {
        if plan.drop_prob > 0.0 && draw(plan.seed, SALT_DROP, from, to, tag, seq) < plan.drop_prob {
            record(FaultKind::Drop);
            return MessageAction::Drop;
        }
        if plan.delay_prob > 0.0
            && draw(plan.seed, SALT_DELAY, from, to, tag, seq) < plan.delay_prob
        {
            record(FaultKind::Delay);
            return MessageAction::Delay(plan.delay_s);
        }
        if plan.dup_prob > 0.0 && draw(plan.seed, SALT_DUP, from, to, tag, seq) < plan.dup_prob {
            record(FaultKind::Duplicate);
            return MessageAction::Duplicate;
        }
        MessageAction::Deliver
    })
    .unwrap_or(MessageAction::Deliver)
}

/// How many subsequent messages the sender should post before replaying a
/// duplicate copy (see [`FaultPlan::dup_defer_msgs`]). Zero — replay
/// immediately — when disarmed or unset; one relaxed load when disarmed.
pub fn dup_defer() -> u64 {
    with_plan(|plan| plan.dup_defer_msgs).unwrap_or(0)
}

/// True when `rank` should die at its `op`-th communication operation.
/// Records the kill when it fires.
pub fn should_kill(rank: usize, op: u64) -> bool {
    let kill = with_plan(|plan| plan.kill_rank == Some((rank, op))).unwrap_or(false);
    if kill {
        record(FaultKind::Kill);
    }
    kill
}

/// True exactly once, when the engine reaches the plan's NaN step. The
/// injection is consumed on first fire so a checkpoint rollback that
/// replays the same step recovers instead of re-tripping the fault.
pub fn consume_nan_injection(step: u64) -> bool {
    let due = with_plan(|plan| plan.nan_at_step == Some(step)).unwrap_or(false);
    if due && !NAN_CONSUMED.swap(true, Ordering::Relaxed) {
        record(FaultKind::Nan);
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
        for seq in 0..1000 {
            assert_eq!(message_action(0, 1, 7, seq), MessageAction::Deliver);
        }
        assert!(!should_kill(0, 0));
        assert!(!consume_nan_injection(0));
    }

    #[test]
    fn drop_rate_matches_probability_and_is_deterministic() {
        let plan = FaultPlan {
            seed: 42,
            drop_prob: 0.25,
            ..FaultPlan::none()
        };
        with_installed(plan, || {
            let first: Vec<MessageAction> =
                (0..4000).map(|seq| message_action(0, 1, 3, seq)).collect();
            let second: Vec<MessageAction> =
                (0..4000).map(|seq| message_action(0, 1, 3, seq)).collect();
            assert_eq!(first, second, "decisions must be replayable");
            let dropped = first.iter().filter(|a| **a == MessageAction::Drop).count() as f64;
            let rate = dropped / first.len() as f64;
            assert!((rate - 0.25).abs() < 0.05, "drop rate {rate}");
        });
    }

    #[test]
    fn delay_and_duplicate_fire() {
        let plan = FaultPlan {
            seed: 7,
            delay_prob: 0.5,
            delay_s: 0.125,
            dup_prob: 0.5,
            ..FaultPlan::none()
        };
        with_installed(plan, || {
            let actions: Vec<MessageAction> =
                (0..256).map(|seq| message_action(1, 0, 9, seq)).collect();
            assert!(actions.contains(&MessageAction::Delay(0.125)));
            assert!(actions.contains(&MessageAction::Duplicate));
        });
    }

    #[test]
    fn kill_targets_exactly_one_rank_and_op() {
        let plan = FaultPlan {
            kill_rank: Some((2, 5)),
            ..FaultPlan::none()
        };
        with_installed(plan, || {
            assert!(!should_kill(2, 4));
            assert!(!should_kill(1, 5));
            assert!(should_kill(2, 5));
        });
    }

    #[test]
    fn nan_injection_is_one_shot() {
        let plan = FaultPlan {
            nan_at_step: Some(3),
            ..FaultPlan::none()
        };
        with_installed(plan, || {
            assert!(!consume_nan_injection(2));
            assert!(consume_nan_injection(3));
            // A rollback replaying step 3 must not re-trip the fault.
            assert!(!consume_nan_injection(3));
        });
    }

    #[test]
    fn parse_full_spec() {
        let plan =
            FaultPlan::parse("seed=42, drop=0.1, delay=0.5@0.25, dup=0.2@100, kill=1@3, nan@2")
                .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.drop_prob, 0.1);
        assert_eq!(plan.delay_prob, 0.5);
        assert_eq!(plan.delay_s, 0.25);
        assert_eq!(plan.dup_prob, 0.2);
        assert_eq!(plan.dup_defer_msgs, 100);
        assert_eq!(plan.kill_rank, Some((1, 3)));
        assert_eq!(plan.nan_at_step, Some(2));
        // Bare `dup=P` keeps the immediate-replay default.
        assert_eq!(FaultPlan::parse("dup=0.5").unwrap().dup_defer_msgs, 0);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
    }

    #[test]
    fn dup_defer_visible_only_while_armed() {
        let plan = FaultPlan {
            dup_prob: 1.0,
            dup_defer_msgs: 7,
            ..FaultPlan::none()
        };
        with_installed(plan, || assert_eq!(dup_defer(), 7));
        let _guard = test_lock();
        clear();
        assert_eq!(dup_defer(), 0);
    }

    #[test]
    fn env_spec_installs_a_good_plan_skips_a_blank_one_and_reports_a_bad_one() {
        let _guard = test_lock();
        clear();
        assert_eq!(install_spec(Some("seed=3,nan@2")), Ok(true));
        let want = FaultPlan {
            seed: 3,
            nan_at_step: Some(2),
            ..FaultPlan::none()
        };
        assert_eq!(with_plan(FaultPlan::clone), Some(want));
        clear();
        for blank in [None, Some(""), Some("  ")] {
            assert_eq!(install_spec(blank), Ok(false));
            assert!(!armed(), "{blank:?} armed the injection sites");
        }
        let err = install_spec(Some("seed=3,drop=1.5")).unwrap_err();
        assert!(err.contains("drop=1.5"), "{err}");
        assert!(!armed(), "a malformed plan must install nothing");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("delay=0.5").is_err());
        assert!(FaultPlan::parse("kill=1").is_err());
        assert!(FaultPlan::parse("frobnicate=1").is_err());
    }
}
