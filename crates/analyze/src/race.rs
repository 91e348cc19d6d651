//! Shadow-access race detector for the raw-pointer fan-out paths.
//!
//! The pool's dispatch API and `SlicePtr` hand out aliasing write access
//! on the *promise* of disjointness: (plane × orbital-block) kinetic
//! teams, GEMM column panels and per-domain stepping all write through
//! `SlicePtr::subslice_mut` / `get_mut` / `as_mut_slice` / `rows_mut`
//! with a comment asserting their ranges cannot overlap concurrently.
//! This module checks that promise at runtime.
//!
//! Armed via `DCMESH_RACECHECK=1` (or [`force_enable`] in tests); when
//! disarmed every hook is one relaxed atomic load.
//!
//! # Model
//!
//! * Every instrumented write is logged to a per-thread buffer as a
//!   **byte interval** `[lo, hi)` of real addresses, stamped with the
//!   logging thread's current **vector-clock snapshot**. Consecutive
//!   same-clock writes to adjacent ranges coalesce, so a chunked sweep
//!   costs one log entry per chunk, not per element.
//! * Happens-before edges mirror the executor's launch→settle structure:
//!   a dispatch [`fork`]s a packet that every claim-loop participant
//!   [`join`]s; participants fork completion packets the dispatcher joins
//!   before settling. Any other hand-over between threads is the same
//!   pair: the giver [`fork`]s, the taker [`join`]s. Within one thread,
//!   program order orders everything.
//! * At every **settle point** (dispatch return, or an explicit
//!   [`settle`]) the logs are drained and checked: two writes
//!   from different threads that overlap without a happens-before edge
//!   in either direction are a violation. Violations are printed and
//!   panic the settling thread (unless a [`capture`] scope is collecting
//!   them, or the thread is already panicking).
//!
//! # Caveats (read before trusting a clean run)
//!
//! * Only writes through `SlicePtr` accessors are shadowed. A body that
//!   scribbles through its own raw pointers is invisible.
//! * Intervals are raw addresses: memory freed and reallocated between
//!   two compared accesses can alias. Three mitigations: settles drain
//!   and check eagerly; the retained cross-settle window is small
//!   (`RETAIN`); and `SlicePtr::new` [`claim`]s its range — the
//!   `&mut [T]` it takes proves exclusive ownership, so stale shadow
//!   state at a reused address is discarded when a new owner appears.
//!   Run race-checked suites with `--test-threads=1` (as
//!   `scripts/check.sh` does) so unrelated tests cannot interleave
//!   unordered allocations that never pass through `SlicePtr::new`.
//! * Detection is settle-scoped: a pair of writes is only compared when
//!   both have been drained before one of the checks. Launch→settle
//!   discipline in the executor guarantees that for everything it runs.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};

/// Cross-settle retention window (entries), bounding both memory and the
/// address-aliasing exposure described in the module docs.
const RETAIN: usize = 256;

static FORCED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Whether the detector is armed. First call reads `DCMESH_RACECHECK`
/// (any value other than empty/`0` arms it); [`force_enable`] overrides.
#[inline]
pub fn enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("DCMESH_RACECHECK")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    }) || FORCED.load(Ordering::Relaxed)
}

/// Arm the detector for this process regardless of the environment
/// (negative-path tests). There is deliberately no disarm: hooks may
/// already hold state.
pub fn force_enable() {
    FORCED.store(true, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Vector clocks and per-thread state
// ---------------------------------------------------------------------------

type Vc = Vec<u32>;

/// `a_clock` (thread `a_tid`'s component at the time of an access)
/// happened-before an access whose snapshot is `b_snap`?
fn hb(a_tid: usize, a_clock: u32, b_snap: &Vc) -> bool {
    b_snap.get(a_tid).copied().unwrap_or(0) >= a_clock
}

/// A happens-before edge in transit: fork on one thread, join on another.
#[derive(Clone, Debug)]
pub struct Packet(Arc<Vc>);

/// One shadowed write, as a byte interval of real addresses.
#[derive(Clone, Debug)]
struct Access {
    lo: usize,
    hi: usize,
    tid: usize,
    /// The writer's own clock component at access time.
    clock: u32,
    /// Full vector-clock snapshot at access time (shared between
    /// accesses logged between two happens-before events).
    snap: Arc<Vc>,
    label: &'static str,
}

struct ThreadState {
    tid: usize,
    name: String,
    vc: Vc,
    /// Cached snapshot; invalidated by fork/join.
    snap: Option<Arc<Vc>>,
    log: Vec<Access>,
}

impl ThreadState {
    fn snapshot(&mut self) -> Arc<Vc> {
        if let Some(s) = &self.snap {
            return Arc::clone(s);
        }
        let s = Arc::new(self.vc.clone());
        self.snap = Some(Arc::clone(&s));
        s
    }
}

struct Registry {
    threads: Vec<Arc<Mutex<ThreadState>>>,
    retained: Vec<Access>,
    /// When `Some`, violations are collected here instead of panicking.
    capture: Option<Vec<Violation>>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| {
        Mutex::new(Registry {
            threads: Vec::new(),
            retained: Vec::new(),
            capture: None,
        })
    })
}

thread_local! {
    static MY_STATE: std::cell::RefCell<Option<Arc<Mutex<ThreadState>>>> =
        const { std::cell::RefCell::new(None) };
}

fn my_state() -> Arc<Mutex<ThreadState>> {
    MY_STATE.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(s) = slot.as_ref() {
            return Arc::clone(s);
        }
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        let tid = reg.threads.len();
        let name = std::thread::current().name().unwrap_or("?").to_string();
        let mut vc = vec![0u32; tid + 1];
        vc[tid] = 1;
        let state = Arc::new(Mutex::new(ThreadState {
            tid,
            name,
            vc,
            snap: None,
            log: Vec::new(),
        }));
        reg.threads.push(Arc::clone(&state));
        *slot = Some(Arc::clone(&state));
        state
    })
}

fn lock_state(s: &Arc<Mutex<ThreadState>>) -> std::sync::MutexGuard<'_, ThreadState> {
    s.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Public hook API (called by dcmesh-pool)
// ---------------------------------------------------------------------------

/// Advance this thread's clock and emit a packet carrying its history;
/// the matching [`join`] on another thread creates the happens-before
/// edge. Call at launch points (dispatch publish) and at completion
/// points (participant exit).
pub fn fork() -> Packet {
    let state = my_state();
    let mut st = lock_state(&state);
    let tid = st.tid;
    st.vc[tid] += 1;
    st.snap = None;
    Packet(Arc::new(st.vc.clone()))
}

/// Absorb `packet`'s history into this thread's clock: everything that
/// happened before the fork now happens before this thread's subsequent
/// accesses.
pub fn join(packet: &Packet) {
    let state = my_state();
    let mut st = lock_state(&state);
    if st.vc.len() < packet.0.len() {
        st.vc.resize(packet.0.len(), 0);
    }
    for (mine, theirs) in st.vc.iter_mut().zip(packet.0.iter()) {
        *mine = (*mine).max(*theirs);
    }
    st.snap = None;
}

/// Log a write to the byte interval `[lo, hi)` (real addresses). Adjacent
/// same-clock writes coalesce into one entry.
pub fn record_write(lo: usize, hi: usize, label: &'static str) {
    if hi <= lo {
        return; // zero-sized types / empty ranges
    }
    let state = my_state();
    let mut st = lock_state(&state);
    let snap = st.snapshot();
    let tid = st.tid;
    let clock = st.vc[tid];
    if let Some(last) = st.log.last_mut() {
        if last.clock == clock && last.label == label && last.lo <= hi && lo <= last.hi {
            last.lo = last.lo.min(lo);
            last.hi = last.hi.max(hi);
            return;
        }
    }
    st.log.push(Access {
        lo,
        hi,
        tid,
        clock,
        snap,
        label,
    });
}

/// Declare exclusive ownership of the byte interval `[lo, hi)`: all
/// shadow state overlapping it is discarded (partially overlapping
/// entries are trimmed to the part outside the claim).
///
/// Call this only where the type system already proves exclusivity —
/// `SlicePtr::new` does, because it takes `&mut [T]`. A fresh `&mut`
/// borrow means every prior access to those bytes is ordered before
/// every future one by the borrow checker, so stale entries add nothing
/// but address-reuse false positives: a buffer freed by one thread and
/// reallocated at the same address for another (the classic
/// one-test-per-thread harness pattern) would otherwise be compared
/// against the new owner's writes with no happens-before edge.
pub fn claim(lo: usize, hi: usize) {
    if hi <= lo {
        return;
    }
    fn cut(list: &mut Vec<Access>, lo: usize, hi: usize) {
        let mut split: Vec<Access> = Vec::new();
        list.retain_mut(|a| {
            if a.hi <= lo || a.lo >= hi {
                return true;
            }
            match (a.lo < lo, a.hi > hi) {
                (false, false) => false, // fully claimed
                (true, false) => {
                    a.hi = lo;
                    true
                }
                (false, true) => {
                    a.lo = hi;
                    true
                }
                (true, true) => {
                    let mut tail = a.clone();
                    tail.lo = hi;
                    a.hi = lo;
                    split.push(tail);
                    true
                }
            }
        });
        list.extend(split);
    }
    // Same lock order as `settle`: registry, then each thread state.
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    cut(&mut reg.retained, lo, hi);
    for t in &reg.threads {
        cut(&mut lock_state(t).log, lo, hi);
    }
}

/// A write-write overlap with no happens-before edge in either direction.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Settle point that detected the overlap.
    pub settle: &'static str,
    /// Labels of the two conflicting writes.
    pub labels: (&'static str, &'static str),
    /// Thread names of the two writers.
    pub threads: (String, String),
    /// Overlapping byte range (real addresses).
    pub overlap: (usize, usize),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "data race at settle '{}': unordered writes {:#x}..{:#x} \
             ({} on '{}' vs {} on '{}')",
            self.settle,
            self.overlap.0,
            self.overlap.1,
            self.labels.0,
            self.threads.0,
            self.labels.1,
            self.threads.1,
        )
    }
}

/// Drain every thread's log and check all pairs of overlapping writes
/// for a missing happens-before edge. Call after joining the region's
/// completion packets. Panics on violations unless capturing.
pub fn settle(settle_label: &'static str) {
    let mut violations: Vec<Violation> = Vec::new();
    {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        let mut accesses: Vec<Access> = std::mem::take(&mut reg.retained);
        let names: Vec<String> = reg
            .threads
            .iter()
            .map(|t| lock_state(t).name.clone())
            .collect();
        for t in &reg.threads {
            accesses.append(&mut lock_state(t).log);
        }

        // Interval sweep: sort by lo, compare each access against the
        // still-open ones before it.
        let mut order: Vec<usize> = (0..accesses.len()).collect();
        order.sort_by_key(|&i| accesses[i].lo);
        let mut open: Vec<usize> = Vec::new();
        for &i in &order {
            let a = &accesses[i];
            open.retain(|&j| accesses[j].hi > a.lo);
            for &j in &open {
                let b = &accesses[j];
                if a.tid == b.tid {
                    continue; // program order
                }
                if hb(a.tid, a.clock, &b.snap) || hb(b.tid, b.clock, &a.snap) {
                    continue;
                }
                violations.push(Violation {
                    settle: settle_label,
                    labels: (b.label, a.label),
                    threads: (
                        names.get(b.tid).cloned().unwrap_or_default(),
                        names.get(a.tid).cloned().unwrap_or_default(),
                    ),
                    overlap: (a.lo.max(b.lo), a.hi.min(b.hi)),
                });
                if violations.len() >= 32 {
                    break;
                }
            }
            open.push(i);
        }

        // Keep a bounded most-recent window for cross-settle pairs.
        if accesses.len() > RETAIN {
            accesses.drain(..accesses.len() - RETAIN);
        }
        reg.retained = accesses;

        if !violations.is_empty() {
            if let Some(sink) = reg.capture.as_mut() {
                sink.extend(violations);
                return;
            }
        }
    } // release the registry lock before reporting
    if violations.is_empty() {
        return;
    }
    for v in &violations {
        eprintln!("DCMESH_RACECHECK: {v}");
    }
    if !std::thread::panicking() {
        panic!(
            "DCMESH_RACECHECK found {} unordered overlapping write(s); first: {}",
            violations.len(),
            violations[0]
        );
    }
}

/// Run `f` with violations collected instead of panicking; returns
/// `f`'s output and everything detected while it ran. Used by the
/// negative-path tests that seed a deliberate overlap.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<Violation>) {
    {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.capture = Some(Vec::new());
    }
    let out = f();
    let got = {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.capture.take().unwrap_or_default()
    };
    (out, got)
}

/// Discard all logged accesses and the retained window (test isolation).
pub fn reset() {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.retained.clear();
    for t in &reg.threads {
        lock_state(t).log.clear();
    }
}
