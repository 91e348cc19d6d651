//! Deterministic schedule exploration ("loom-lite") for the executor
//! protocols.
//!
//! [`explore`] runs a closure many times, once per *schedule*. Inside the
//! closure, every thread created through [`crate::sync::spawn_named`] and
//! every operation on the [`crate::sync`] primitives becomes a scheduling
//! point: exactly one controlled thread runs at a time, and at each point
//! where more than one thread is runnable the explorer decides who
//! continues. A depth-first search over those decisions — bounded by the
//! number of *preemptions* (switching away from a thread that could have
//! continued, the CHESS bound) — visits every interleaving reachable
//! within the bound. The state machines under test are the **real**
//! `dcmesh-pool` dispatch/steal/park protocol and `dcmesh-comm` request
//! lifecycle, not models of them.
//!
//! What the model covers and what it does not:
//!
//! * Scheduling nondeterminism is explored exhaustively (within the
//!   preemption bound). Lost wakeups, missed epochs, double claims and
//!   dropped panics all show up as assertion failures or deadlocks on
//!   some schedule, and the failing decision trace is printed.
//! * Memory is sequentially consistent: operations execute serially in
//!   schedule order, so `Relaxed`-ordering bugs are out of scope (the
//!   protocols under test publish through mutexes and RMW ops, which are
//!   SC in practice on the targets we care about).
//! * Condition-variable wakeups are exact — no spurious wakeups are
//!   injected. The pool's wait loops re-check predicates anyway.
//!
//! Deadlock (no runnable thread while some are blocked) and livelock
//! (schedule exceeding `max_steps`) abort the run: every controlled
//! thread is unwound with a private panic payload, and [`explore`] panics
//! with the decision trace that led there.

use std::cell::Cell as StdCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Whether an explorer is currently driving this process. One relaxed
/// load on every instrumented operation when off.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Serializes concurrent [`explore`] calls (e.g. parallel test threads).
fn explore_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// True while a schedule exploration is running somewhere in the process.
#[inline(always)]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

thread_local! {
    /// The controller + thread id of a controlled thread, `None` on
    /// ordinary threads (which pass through the primitives untouched).
    static CURRENT: StdCell<Option<(&'static Controller, usize)>> = const { StdCell::new(None) };
    /// Set once this thread has been handed an abort: all further
    /// instrumented operations fall back to uncontrolled behavior so the
    /// thread can unwind (through `Drop` impls that lock) without pausing.
    static ABORTED: StdCell<bool> = const { StdCell::new(false) };
}

/// The current thread's controller + tid, if it is a controlled,
/// non-aborted thread under an active exploration.
pub(crate) fn current() -> Option<(&'static Controller, usize)> {
    if !is_active() || ABORTED.with(|a| a.get()) {
        return None;
    }
    CURRENT.with(|c| c.get())
}

/// Run `f` with the current thread's controller, if any (see [`current`]).
pub(crate) fn with_token<R>(f: impl FnOnce(&Controller, usize) -> R) -> Option<R> {
    current().map(|(ctrl, tid)| f(ctrl, tid))
}

/// A scheduling point: on a controlled thread, hands the decision of who
/// runs next to the explorer. No-op (one relaxed load) otherwise.
#[inline]
pub fn yield_point() {
    if !is_active() {
        return;
    }
    with_token(|ctrl, tid| ctrl.on_yield(tid));
}

/// Private payload used to unwind controlled threads when a run aborts.
struct AbortToken;

fn is_abort(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<AbortToken>()
}

// ---------------------------------------------------------------------------
// Controller: the serialized-thread state machine
// ---------------------------------------------------------------------------

/// What a non-running controlled thread is waiting for.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum BlockOn {
    /// A [`crate::sync::Mutex`] held by someone else (key: mutex address).
    Lock(usize),
    /// A [`crate::sync::Condvar`] notification (key: condvar address).
    Signal(usize),
    /// Exit of another controlled thread (key: its tid).
    Thread(usize),
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Status {
    /// Eligible to be granted the processor.
    Ready,
    /// Currently holds the (single) processor.
    Running,
    Blocked(BlockOn),
    Exited,
}

/// Per-thread handshake cell: the thread parks here until granted.
struct ThreadCell {
    go: Mutex<Go>,
    cv: Condvar,
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum Go {
    Wait,
    Run,
    Abort,
}

struct ThreadEntry {
    status: Status,
    cell: Arc<ThreadCell>,
    name: String,
}

struct CtrlState {
    threads: Vec<ThreadEntry>,
    /// The tid currently granted, if any. The scheduler only acts when
    /// this is `None` (every controlled thread paused/blocked/exited).
    running: Option<usize>,
    /// Set when a controlled thread unwound with a non-abort payload.
    failure: Option<String>,
    /// Grants issued this run (livelock guard).
    steps: usize,
    aborting: bool,
}

/// The per-run scheduler shared by all controlled threads.
pub(crate) struct Controller {
    state: Mutex<CtrlState>,
    /// The scheduler thread waits here for `running` to clear.
    sched_cv: Condvar,
}

fn lock_ctrl(c: &Controller) -> MutexGuard<'_, CtrlState> {
    c.state.lock().unwrap_or_else(|e| e.into_inner())
}

impl Controller {
    fn new() -> Self {
        Controller {
            state: Mutex::new(CtrlState {
                threads: Vec::new(),
                running: None,
                failure: None,
                steps: 0,
                aborting: false,
            }),
            sched_cv: Condvar::new(),
        }
    }

    /// Park the calling thread with `status` and wait to be granted again.
    /// Panics with [`AbortToken`] if the run is being torn down.
    fn pause(&self, tid: usize, status: Status) {
        let cell = {
            let mut st = lock_ctrl(self);
            st.threads[tid].status = status;
            if st.running == Some(tid) {
                st.running = None;
            }
            self.sched_cv.notify_all();
            Arc::clone(&st.threads[tid].cell)
        };
        let mut go = cell.go.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match *go {
                Go::Run => {
                    *go = Go::Wait;
                    return;
                }
                Go::Abort => {
                    *go = Go::Wait;
                    drop(go);
                    ABORTED.with(|a| a.set(true));
                    std::panic::panic_any(AbortToken);
                }
                Go::Wait => {
                    go = cell.cv.wait(go).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// A voluntary scheduling point: pause only if some *other* thread is
    /// ready (otherwise there is no decision to make and the thread can
    /// keep running without a handshake).
    pub(crate) fn on_yield(&self, tid: usize) {
        {
            let st = lock_ctrl(self);
            let contended = st
                .threads
                .iter()
                .enumerate()
                .any(|(i, t)| i != tid && t.status == Status::Ready);
            if !contended && !st.aborting {
                return;
            }
        }
        self.pause(tid, Status::Ready);
    }

    /// Block until the mutex keyed by `key` is released.
    pub(crate) fn block_on_lock(&self, tid: usize, key: usize) {
        self.pause(tid, Status::Blocked(BlockOn::Lock(key)));
    }

    /// Mark every thread waiting on mutex `key` ready again.
    pub(crate) fn lock_released(&self, key: usize) {
        let mut st = lock_ctrl(self);
        for t in st.threads.iter_mut() {
            if t.status == Status::Blocked(BlockOn::Lock(key)) {
                t.status = Status::Ready;
            }
        }
    }

    /// Park the calling thread as a waiter on condvar `key`. The caller
    /// must have already released the associated mutex.
    pub(crate) fn condvar_wait(&self, tid: usize, key: usize) {
        self.pause(tid, Status::Blocked(BlockOn::Signal(key)));
    }

    /// Wake one (lowest tid, deterministic) or all waiters on condvar
    /// `key`. A notify with no waiters is lost, exactly like the real
    /// primitive — the protocols' predicate loops are what's under test.
    pub(crate) fn condvar_notify(&self, key: usize, all: bool) {
        let mut st = lock_ctrl(self);
        for t in st.threads.iter_mut() {
            if t.status == Status::Blocked(BlockOn::Signal(key)) {
                t.status = Status::Ready;
                if !all {
                    break;
                }
            }
        }
    }

    /// Register and start a new controlled thread running `f`. The child
    /// becomes `Ready` before this returns (deterministic registration);
    /// it does not execute until the explorer grants it.
    pub(crate) fn spawn_controlled(
        &'static self,
        name: &str,
        f: Box<dyn FnOnce() + Send + 'static>,
    ) -> (usize, std::thread::JoinHandle<()>) {
        let (tid, cell) = {
            let mut st = lock_ctrl(self);
            let tid = st.threads.len();
            let cell = Arc::new(ThreadCell {
                go: Mutex::new(Go::Wait),
                cv: Condvar::new(),
            });
            st.threads.push(ThreadEntry {
                status: Status::Ready,
                cell: Arc::clone(&cell),
                name: name.to_string(),
            });
            (tid, cell)
        };
        let ctrl: &'static Controller = self;
        let handle = std::thread::Builder::new()
            .name(format!("sched-{name}"))
            .spawn(move || {
                CURRENT.with(|c| c.set(Some((ctrl, tid))));
                // Wait for the first grant before touching anything.
                {
                    let mut go = cell.go.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        match *go {
                            Go::Run => {
                                *go = Go::Wait;
                                break;
                            }
                            Go::Abort => {
                                *go = Go::Wait;
                                ABORTED.with(|a| a.set(true));
                                break; // exit without running `f`
                            }
                            Go::Wait => {
                                go = cell.cv.wait(go).unwrap_or_else(|e| e.into_inner());
                            }
                        }
                    }
                }
                let ran_abort = ABORTED.with(|a| a.get());
                let result = if ran_abort {
                    Ok(())
                } else {
                    catch_unwind(AssertUnwindSafe(f))
                };
                let mut st = lock_ctrl(ctrl);
                if let Err(payload) = result {
                    if !is_abort(payload.as_ref()) {
                        let msg = payload_to_string(payload.as_ref());
                        let name = st.threads[tid].name.clone();
                        st.failure
                            .get_or_insert_with(|| format!("thread '{name}' panicked: {msg}"));
                    }
                }
                st.threads[tid].status = Status::Exited;
                if st.running == Some(tid) {
                    st.running = None;
                }
                // Wake joiners.
                for t in st.threads.iter_mut() {
                    if t.status == Status::Blocked(BlockOn::Thread(tid)) {
                        t.status = Status::Ready;
                    }
                }
                ctrl.sched_cv.notify_all();
            })
            .expect("failed to spawn controlled thread");
        (tid, handle)
    }

    /// Controlled join: block until `target` exits. Returns immediately
    /// during teardown so `Drop` impls that join (the pool's) cannot
    /// double-panic while unwinding.
    pub(crate) fn join_thread(&self, tid: usize, target: usize) {
        loop {
            {
                let st = lock_ctrl(self);
                if st.aborting || st.threads[target].status == Status::Exited {
                    return;
                }
            }
            self.pause(tid, Status::Blocked(BlockOn::Thread(target)));
        }
    }

    /// Grant the processor to `tid`.
    fn grant(&self, tid: usize) {
        let cell = {
            let mut st = lock_ctrl(self);
            st.threads[tid].status = Status::Running;
            st.running = Some(tid);
            st.steps += 1;
            Arc::clone(&st.threads[tid].cell)
        };
        let mut go = cell.go.lock().unwrap_or_else(|e| e.into_inner());
        *go = Go::Run;
        cell.cv.notify_all();
    }

    /// Tear a run down: repeatedly hand every live thread an abort until
    /// all have exited.
    fn abort_all(&self) {
        {
            let mut st = lock_ctrl(self);
            st.aborting = true;
            // Unblock everything; aborted threads fall back to
            // uncontrolled primitives while unwinding.
            for t in st.threads.iter_mut() {
                if matches!(t.status, Status::Blocked(_)) {
                    t.status = Status::Ready;
                }
            }
        }
        loop {
            let cells: Vec<Arc<ThreadCell>> = {
                let st = lock_ctrl(self);
                if st.threads.iter().all(|t| t.status == Status::Exited) {
                    return;
                }
                st.threads
                    .iter()
                    .filter(|t| t.status != Status::Exited)
                    .map(|t| Arc::clone(&t.cell))
                    .collect()
            };
            for cell in cells {
                let mut go = cell.go.lock().unwrap_or_else(|e| e.into_inner());
                if *go == Go::Wait {
                    *go = Go::Abort;
                }
                cell.cv.notify_all();
            }
            // Let the unwinding threads make progress before re-checking.
            let st = lock_ctrl(self);
            let _ = self
                .sched_cv
                .wait_timeout(st, std::time::Duration::from_millis(1));
        }
    }
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// The DFS over schedules
// ---------------------------------------------------------------------------

/// Exploration limits.
#[derive(Copy, Clone, Debug)]
pub struct Options {
    /// Maximum preemptive context switches per schedule (CHESS bound).
    pub preemption_bound: usize,
    /// Hard cap on schedules explored; exceeding it ends exploration
    /// with [`Stats::complete`] `== false` rather than running forever.
    pub max_schedules: usize,
    /// Hard cap on grants within one schedule (livelock guard).
    pub max_steps: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            preemption_bound: 2,
            max_schedules: 100_000,
            max_steps: 100_000,
        }
    }
}

/// Result of an exploration.
#[derive(Clone, Debug)]
pub struct Stats {
    /// Distinct schedules executed.
    pub schedules: usize,
    /// True when the DFS exhausted every schedule within the preemption
    /// bound (rather than stopping at `max_schedules`).
    pub complete: bool,
    /// Most controlled threads alive at once across all schedules.
    pub max_threads: usize,
}

/// One recorded scheduling decision (a point with ≥ 2 ready threads).
#[derive(Clone, Debug)]
struct Decision {
    chosen: usize,
    ready: Vec<usize>,
    /// Thread granted immediately before this decision, if any.
    prev: Option<usize>,
}

impl Decision {
    /// The default (non-preemptive) choice at this point.
    fn natural(&self) -> usize {
        match self.prev {
            Some(p) if self.ready.contains(&p) => p,
            _ => self.ready[0],
        }
    }

    /// Whether choosing `cand` preempts a still-ready previous thread.
    fn is_preemption(&self, cand: usize) -> bool {
        matches!(self.prev, Some(p) if self.ready.contains(&p) && cand != p)
    }

    /// Candidate order: natural first, then ready ascending.
    fn candidates(&self) -> Vec<usize> {
        let nat = self.natural();
        let mut order = vec![nat];
        order.extend(self.ready.iter().copied().filter(|&t| t != nat));
        order
    }
}

enum RunOutcome {
    Done(Vec<Decision>),
    Deadlock(Vec<Decision>, String),
    TooLong(Vec<Decision>),
    Failed(Vec<Decision>, String),
}

/// Execute one schedule of `f` under `ctrl`, replaying `prefix` at the
/// recorded decision points and defaulting to run-to-completion after.
fn run_one(
    ctrl: &'static Controller,
    prefix: &[usize],
    opts: &Options,
    f: Arc<dyn Fn() + Send + Sync>,
) -> (RunOutcome, usize, std::thread::JoinHandle<()>) {
    let (_root_tid, root_handle) = ctrl.spawn_controlled("main", Box::new(move || f()));
    let mut decisions: Vec<Decision> = Vec::new();
    let mut prev: Option<usize> = None;
    let mut peak_threads = 0usize;
    let outcome = loop {
        // Wait until nothing is running.
        let (ready, live, failure, steps) = {
            let mut st = lock_ctrl(ctrl);
            while st.running.is_some() {
                st = ctrl.sched_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            let ready: Vec<usize> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == Status::Ready)
                .map(|(i, _)| i)
                .collect();
            let live = st
                .threads
                .iter()
                .filter(|t| t.status != Status::Exited)
                .count();
            (ready, live, st.failure.clone(), st.steps)
        };
        peak_threads = peak_threads.max(live);
        if let Some(msg) = failure {
            break RunOutcome::Failed(decisions, msg);
        }
        if ready.is_empty() {
            if live == 0 {
                break RunOutcome::Done(decisions);
            }
            let snapshot = {
                let st = lock_ctrl(ctrl);
                st.threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.status != Status::Exited)
                    .map(|(i, t)| format!("  t{} '{}': {:?}", i, t.name, t.status))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            break RunOutcome::Deadlock(decisions, snapshot);
        }
        if steps > opts.max_steps {
            break RunOutcome::TooLong(decisions);
        }
        let chosen = if ready.len() == 1 {
            ready[0]
        } else {
            let d = Decision {
                chosen: 0, // filled below
                ready: ready.clone(),
                prev,
            };
            let idx = decisions.len();
            let chosen = if idx < prefix.len() {
                assert!(
                    ready.contains(&prefix[idx]),
                    "schedule replay diverged at decision {idx}: \
                     prefix wants t{} but ready set is {ready:?}",
                    prefix[idx]
                );
                prefix[idx]
            } else {
                d.natural()
            };
            decisions.push(Decision { chosen, ..d });
            chosen
        };
        prev = Some(chosen);
        ctrl.grant(chosen);
    };
    (outcome, peak_threads, root_handle)
}

/// Compute the next DFS prefix after a run with `decisions`, or `None`
/// when the bounded space is exhausted.
fn next_prefix(decisions: &[Decision], bound: usize) -> Option<Vec<usize>> {
    // Preemptions consumed before each decision index.
    let mut used = vec![0usize; decisions.len() + 1];
    for (i, d) in decisions.iter().enumerate() {
        used[i + 1] = used[i] + usize::from(d.is_preemption(d.chosen));
    }
    for i in (0..decisions.len()).rev() {
        let d = &decisions[i];
        let order = d.candidates();
        let pos = order
            .iter()
            .position(|&c| c == d.chosen)
            .expect("chosen is a candidate");
        for &cand in &order[pos + 1..] {
            if used[i] + usize::from(d.is_preemption(cand)) <= bound {
                let mut prefix: Vec<usize> = decisions[..i].iter().map(|d| d.chosen).collect();
                prefix.push(cand);
                return Some(prefix);
            }
        }
    }
    None
}

/// Exhaustively explore the schedules of `f` within `opts`.
///
/// `f` is executed once per schedule; it should build its concurrent
/// scenario from scratch (construct pools, dispatch, assert, drop).
/// Panics — with the decision trace — if any schedule fails an assertion,
/// deadlocks, or exceeds `max_steps`.
pub fn explore(opts: Options, f: impl Fn() + Send + Sync + 'static) -> Stats {
    let _serialize = explore_lock().lock().unwrap_or_else(|e| e.into_inner());
    // Suppress the default printed backtrace for the thousands of
    // expected panics (aborts, protocol-test panics) during exploration.
    let saved_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    ACTIVE.store(true, Ordering::SeqCst);

    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let result = catch_unwind(AssertUnwindSafe(|| explore_inner(&opts, f)));

    ACTIVE.store(false, Ordering::SeqCst);
    std::panic::set_hook(saved_hook);
    match result {
        Ok(stats) => stats,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

fn explore_inner(opts: &Options, f: Arc<dyn Fn() + Send + Sync>) -> Stats {
    let mut prefix: Vec<usize> = Vec::new();
    let mut stats = Stats {
        schedules: 0,
        complete: false,
        max_threads: 0,
    };
    loop {
        if stats.schedules >= opts.max_schedules {
            return stats; // complete stays false
        }
        // Controllers are intentionally leaked ('static) so controlled
        // threads can hold references; each holds a few hundred bytes per
        // thread and exploration is test-only.
        let ctrl: &'static Controller = Box::leak(Box::new(Controller::new()));
        let (outcome, peak, root) = run_one(ctrl, &prefix, opts, Arc::clone(&f));
        stats.schedules += 1;
        stats.max_threads = stats.max_threads.max(peak);
        let decisions = match outcome {
            RunOutcome::Done(d) => {
                let _ = root.join();
                d
            }
            RunOutcome::Deadlock(d, snapshot) => {
                ctrl.abort_all();
                let _ = root.join();
                panic!(
                    "deadlock on schedule {} (decision trace {:?}):\n{snapshot}",
                    stats.schedules,
                    trace(&d)
                );
            }
            RunOutcome::TooLong(d) => {
                ctrl.abort_all();
                let _ = root.join();
                panic!(
                    "schedule {} exceeded {} steps (livelock?); decision trace {:?}",
                    stats.schedules,
                    opts.max_steps,
                    trace(&d)
                );
            }
            RunOutcome::Failed(d, msg) => {
                ctrl.abort_all();
                let _ = root.join();
                panic!(
                    "schedule {} failed: {msg}\n  decision trace {:?}",
                    stats.schedules,
                    trace(&d)
                );
            }
        };
        match next_prefix(&decisions, opts.preemption_bound) {
            Some(p) => prefix = p,
            None => {
                stats.complete = true;
                return stats;
            }
        }
    }
}

fn trace(decisions: &[Decision]) -> Vec<usize> {
    decisions.iter().map(|d| d.chosen).collect()
}
