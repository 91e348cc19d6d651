//! dcmesh-pool — persistent work-stealing executor for the LFD hot path.
//!
//! The paper's performance story (§III-C, Alg. 5; Table I) rests on cheap,
//! repeated kernel launches over an execution resource that is *already
//! there*: `teams distribute` over a resident GPU, with `nowait` enqueues
//! costing almost nothing. This crate is the host-side analogue. Worker
//! threads are created **once** (see [`global`]) and park on a condvar
//! between calls; each dispatch hands out the index range by atomic
//! chunk-claiming, so a call costs a couple of atomic ops and one condvar
//! broadcast — no per-call heap allocation, no `Vec` of items, and no
//! thread spawn/join.
//!
//! # Sizing
//!
//! Pool size is resolved once, at first use of [`global`], with precedence:
//!
//! 1. [`set_thread_override`] (the `--threads N` bench flag),
//! 2. the `DCMESH_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`.
//!
//! A pool of size `n` runs jobs on `n - 1` parked workers *plus the calling
//! thread*; `n = 1` means every dispatch runs inline with zero
//! synchronization.
//!
//! # Dispatch protocol
//!
//! [`ThreadPool::for_each_index`] and friends publish a single erased job —
//! a raw fat pointer to the caller's closure plus a [`JobCore`] of atomics
//! living on the caller's stack — then participate in the claim loop
//! themselves. Workers `fetch_add` over the index range to claim chunks;
//! trailing chunks are therefore stolen dynamically by whichever thread is
//! free (load balance for irregular bodies). The dispatching thread does
//! not return until every chunk is claimed *and* every registered worker
//! has exited the job, which is what makes the borrowed-closure erasure
//! sound (the same blocking argument as `std::thread::scope`).
//!
//! Panics inside a body are caught on the worker, the first payload is
//! kept, remaining chunks are cancelled, and the payload is re-raised on
//! the caller — matching rayon semantics.
//!
//! A pool call from *inside* a worker (nested dispatch) runs inline and
//! serially on that worker; it cannot deadlock.
//!
//! # Checked concurrency
//!
//! The protocols above are machine-checked rather than argued in comments:
//!
//! * Every mutex, condvar, protocol atomic, and thread in this crate comes
//!   from [`dcmesh_analyze::sync`], so the launch/steal/park and panic
//!   re-raise state machines run under the schedule explorer in
//!   `tests/modelcheck.rs`: every interleaving within a preemption bound,
//!   on the real code. When no explorer is active the wrappers cost one
//!   relaxed atomic load per operation.
//! * Dispatches carry [`dcmesh_analyze::race`] vector-clock edges (launch
//!   fork → participant join; participant completion fork → settle join),
//!   and the [`SlicePtr`] accessors log their byte ranges when
//!   `DCMESH_RACECHECK=1`. At the settle point (dispatch return)
//!   overlapping unordered writes panic the caller.

use std::any::Any;
use std::cell::Cell;
use std::io::Write;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use dcmesh_analyze::race;
use dcmesh_analyze::sync::{spawn_named, AtomicBool, AtomicUsize, Condvar, JoinHandle, Mutex};

pub mod arena;

// ---------------------------------------------------------------------------
// Sizing & the global pool
// ---------------------------------------------------------------------------

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Programmatic pool-size override (the bench binaries' `--threads N` flag).
///
/// Takes precedence over `DCMESH_THREADS`. Only affects [`global`] if called
/// before its first use; the global pool size is fixed once built.
pub fn set_thread_override(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// What a `DCMESH_THREADS` value asks for: `None` is the default (also the
/// empty string, i.e. unset); anything but a positive integer is an error.
fn parse_threads(value: &str) -> Result<Option<usize>, String> {
    match value.trim() {
        "" => Ok(None),
        v => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!(
                "DCMESH_THREADS={value:?}: expected a positive integer, using the default"
            )),
        },
    }
}

/// Resolve the configured pool size: override > `DCMESH_THREADS` >
/// `available_parallelism()`, clamped to at least 1. A `DCMESH_THREADS` that
/// does not parse is reported on stderr once and ignored.
pub fn configured_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    static FROM_ENV: OnceLock<Option<usize>> = OnceLock::new();
    let from_env = FROM_ENV.get_or_init(|| {
        let value = std::env::var("DCMESH_THREADS").unwrap_or_default();
        parse_threads(&value).unwrap_or_else(|msg| {
            // A message, not an unwind: a closed stderr must not panic here.
            let _ = writeln!(std::io::stderr(), "{msg}");
            None
        })
    });
    if let Some(n) = *from_env {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide pool. Built on first use with [`configured_threads`]
/// workers; every subsequent call returns the same pool.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(configured_threads()))
}

// ---------------------------------------------------------------------------
// Raw-pointer plumbing
// ---------------------------------------------------------------------------

/// A `*mut T` + length pair that asserts `Send + Sync`.
///
/// # Safety contract
///
/// The *user* of this type guarantees that concurrent accesses derived from
/// it are disjoint or serialized. Inside this crate it hands pairwise
/// disjoint sub-slices to claim-loop participants; `dcmesh-lfd` uses it to
/// hand each team the rows of a strided sweep. Under `DCMESH_RACECHECK=1`
/// that promise is checked: every accessor logs its byte range to the
/// shadow race detector, and unordered overlaps panic at the next settle
/// point.
pub struct SlicePtr<T> {
    ptr: *mut T,
    len: usize,
}

// Manual impls: the derive would add unwanted `T: Copy`/`T: Clone` bounds.
impl<T> Copy for SlicePtr<T> {}
impl<T> Clone for SlicePtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> std::fmt::Debug for SlicePtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlicePtr")
            .field("ptr", &self.ptr)
            .field("len", &self.len)
            .finish()
    }
}

// SAFETY: SlicePtr is a lifetime-erased `&mut [T]`. Sending it (and the
// `&SlicePtr` copies the dispatch closures capture) across threads is sound
// for `T: Send` because every dereference happens through the unsafe
// accessors below, whose callers promise disjoint-or-serialized access —
// the same contract that makes `&mut [T]: Send` usable from `scope` spawns.
unsafe impl<T: Send> Send for SlicePtr<T> {}
// SAFETY: sharing `&SlicePtr` grants no access by itself (all accessors
// take `self` by copy and are unsafe); see the Send justification above.
unsafe impl<T: Send> Sync for SlicePtr<T> {}

impl<T> SlicePtr<T> {
    /// Capture a mutable slice as a raw parts pair.
    pub fn new(slice: &mut [T]) -> Self {
        if race::enabled() {
            // The `&mut` borrow proves exclusive ownership of the range:
            // discard stale shadow state so a reallocation at the same
            // address is not compared against its previous owner's writes.
            let base = slice.as_mut_ptr() as usize;
            // AUDIT: waiver(race detector is opt-in debug tooling; its panics are the diagnostics)
            race::claim(base, base + std::mem::size_of_val(slice));
        }
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Length of the captured slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the captured slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shadow-log a write to elements `[lo, hi)` when the race detector is
    /// armed. One relaxed load when it is not.
    #[inline]
    fn shadow_write(&self, lo: usize, hi: usize, label: &'static str) {
        if race::enabled() {
            let base = self.ptr as usize;
            let size = std::mem::size_of::<T>();
            race::record_write(base + lo * size, base + hi * size, label);
        }
    }

    /// Reconstitute the mutable slice.
    ///
    /// # Safety
    ///
    /// The original allocation must still be live and no other reference to
    /// any part of it may be active for the returned lifetime.
    // SAFETY: (bounds=reconstitutes exactly the len elements captured from
    // the original borrow, aliasing=caller promises the allocation is live
    // and no other reference overlaps it for the returned lifetime)
    pub unsafe fn as_mut_slice<'a>(self) -> &'a mut [T] {
        self.shadow_write(0, self.len, "sliceptr.as_mut_slice");
        // SAFETY: caller upholds liveness and exclusivity (see above).
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// Reconstitute a mutable reference to element `i` (bounds-checked).
    ///
    /// # Safety
    ///
    /// Same liveness requirement as [`Self::as_mut_slice`], and no other
    /// reference to element `i` may be active for the returned lifetime.
    // SAFETY: (bounds=i < len asserted on entry, aliasing=caller promises
    // element i is otherwise unreferenced while the allocation stays live)
    pub unsafe fn get_mut<'a>(self, i: usize) -> &'a mut T {
        assert!(i < self.len);
        self.shadow_write(i, i + 1, "sliceptr.get_mut");
        // SAFETY: `i < len` was just checked; caller upholds liveness and
        // exclusivity of element `i` (see above).
        unsafe { &mut *self.ptr.add(i) }
    }

    /// Reconstitute a sub-slice `[lo, hi)`.
    ///
    /// # Safety
    ///
    /// Same liveness requirement as [`Self::as_mut_slice`], and accesses to
    /// overlapping ranges must not be concurrent. `lo <= hi <= len` is
    /// checked.
    // SAFETY: (bounds=lo <= hi <= len asserted on entry, aliasing=caller
    // promises concurrent accesses never overlap this range)
    pub unsafe fn subslice_mut<'a>(self, lo: usize, hi: usize) -> &'a mut [T] {
        assert!(lo <= hi && hi <= self.len);
        self.shadow_write(lo, hi, "sliceptr.subslice_mut");
        // SAFETY: bounds were just checked; caller upholds liveness and
        // non-overlap of concurrent ranges (see above).
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }

    /// Base pointer of the captured slice, for an access pattern no
    /// contiguous sub-slice can express: `rows` runs of `row_len` elements
    /// starting at `first` and `stride` apart (one team's rows of a strided
    /// sweep). The rows are bounds-checked and shadow-logged like
    /// [`Self::subslice_mut`] ranges.
    ///
    /// # Safety
    ///
    /// Same liveness requirement as [`Self::as_mut_slice`]; the caller may
    /// dereference the pointer inside the claimed rows only, and accesses
    /// to overlapping rows must not be concurrent.
    // SAFETY: (bounds=the last row's end <= len is asserted on entry,
    // aliasing=caller promises concurrent accesses never overlap its rows)
    pub unsafe fn rows_mut(
        self,
        first: usize,
        row_len: usize,
        stride: usize,
        rows: usize,
    ) -> *mut T {
        assert!(rows == 0 || first + (rows - 1) * stride + row_len <= self.len);
        if race::enabled() {
            for r in 0..rows {
                let lo = first + r * stride;
                self.shadow_write(lo, lo + row_len, "sliceptr.rows_mut");
            }
        }
        self.ptr
    }
}

// ---------------------------------------------------------------------------
// The job protocol
// ---------------------------------------------------------------------------

/// Per-dispatch state, allocated on the dispatching thread's stack.
struct JobCore {
    /// Next unclaimed index; claims are `fetch_add(grain)`.
    next: AtomicUsize,
    n_items: usize,
    /// Indices claimed per atomic op.
    grain: usize,
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Launch-edge packet each participant joins on entry (racecheck only).
    race_launch: Option<race::Packet>,
    /// Completion packets the dispatcher joins before settling.
    race_done: std::sync::Mutex<Vec<race::Packet>>,
}

/// Lifetime-erased pointer to a job: the caller's closure plus its
/// [`JobCore`], both on the caller's stack.
///
/// Soundness: the dispatching thread blocks until the claim range is
/// exhausted and `active == 0` (no worker is still inside [`run_job`]), so
/// neither pointer is dereferenced after `dispatch` returns.
#[derive(Copy, Clone)]
struct JobRef {
    func: *const (dyn Fn(usize) + Sync),
    core: *const JobCore,
}

// SAFETY: the pointees live on the dispatching thread's stack for the whole
// dispatch, the closure is `Sync` (shared calls are fine), and `JobCore` is
// all atomics/locks; the dispatch protocol (dispatcher blocks until every
// participant exits `run_job`) bounds every dereference. See `JobRef` docs.
unsafe impl Send for JobRef {}

thread_local! {
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Set while a non-worker thread is inside `dispatch` (it participates
    /// in the claim loop while holding the dispatch lock).
    static IN_DISPATCH: Cell<bool> = const { Cell::new(false) };
    /// Set while the thread is inside [`run_inline`]: every dispatch from
    /// this thread runs serially on the calling thread instead of waking
    /// the workers. This is the per-job thread-share knob the serve
    /// scheduler uses — an "inline" job occupies exactly its own scheduler
    /// thread and never contends for the shared pool.
    static INLINE_SCOPE: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with every pool dispatch from this thread forced onto the
/// calling thread (the serial fast path), leaving the shared workers free
/// for other threads.
///
/// This is the building block of per-job thread-share policies: a
/// multi-tenant scheduler marks low-priority or many-at-once jobs inline
/// so one tenant cannot monopolize the pool's dispatch lock. Nesting is
/// safe (the scope is re-entrant and restored on unwind), and a nested
/// real dispatch from inside the scope keeps the usual nested-dispatch
/// semantics: it runs inline too.
pub fn run_inline<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            INLINE_SCOPE.set(self.0);
        }
    }
    let _restore = Restore(INLINE_SCOPE.replace(true));
    f()
}

/// Resets `IN_DISPATCH` even if the job body panics out of `dispatch`.
struct DispatchFlagGuard;

impl DispatchFlagGuard {
    fn set() -> Self {
        IN_DISPATCH.set(true);
        DispatchFlagGuard
    }
}

impl Drop for DispatchFlagGuard {
    fn drop(&mut self) {
        IN_DISPATCH.set(false);
    }
}

/// Claim-loop body shared by workers and the dispatching thread.
// AUDIT: no_panic
fn run_job(job: JobRef) {
    // SAFETY: (bounds=the dispatch protocol keeps both pointers live while
    // any participant is inside this fn, aliasing=the closure is Sync and
    // JobCore is all atomics and locks) see `JobRef` docs.
    let (core, func) = unsafe { (&*job.core, &*job.func) };
    if let Some(pkt) = &core.race_launch {
        // Everything the dispatcher did before publishing the job
        // happens-before this participant's writes.
        // AUDIT: waiver(race detector is opt-in debug tooling; its panics are the diagnostics)
        race::join(pkt);
    }
    loop {
        if core.panicked.load(Ordering::Relaxed) {
            // Cancel remaining chunks after a panic.
            core.next.fetch_max(core.n_items, Ordering::AcqRel);
            break;
        }
        let start = core.next.fetch_add(core.grain, Ordering::AcqRel);
        if start >= core.n_items {
            break;
        }
        let end = (start + core.grain).min(core.n_items);
        let result = catch_unwind(AssertUnwindSafe(|| {
            for i in start..end {
                func(i);
            }
        }));
        if let Err(payload) = result {
            core.panicked.store(true, Ordering::SeqCst);
            let mut slot = core.panic.lock();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }
    if core.race_launch.is_some() {
        // This participant's writes happen-before the dispatcher's settle.
        // AUDIT: waiver(race detector is opt-in debug tooling; its panics are the diagnostics)
        let done = race::fork();
        core.race_done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(done);
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

struct State {
    /// Bumped per dispatch so a worker joins each job at most once.
    epoch: u64,
    job: Option<JobRef>,
    /// Workers currently inside `run_job` for the published job.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The dispatching thread parks here until `active == 0`.
    done_cv: Condvar,
}

/// A persistent team of worker threads plus a zero-allocation dispatch API.
///
/// Most code should use the process-wide [`global`] pool; explicit
/// construction exists for tests and tools that need a fixed size.
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// Serializes concurrent dispatches from different threads; the pool
    /// runs one job at a time.
    dispatch_lock: Mutex<()>,
    size: usize,
    workers: Vec<JoinHandle>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}

impl ThreadPool {
    /// Build a pool of `size.max(1)` execution slots: `size - 1` parked
    /// worker threads plus the dispatching thread.
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..size.saturating_sub(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                spawn_named(&format!("dcmesh-pool-{i}"), move || worker_loop(shared))
            })
            .collect();
        Self {
            shared,
            dispatch_lock: Mutex::new(()),
            size,
            workers,
        }
    }

    /// Number of execution slots (workers + caller).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Default claim granularity: ~4 chunks per slot so trailing chunks can
    /// be stolen without paying an atomic op per item.
    fn grain_for(&self, n: usize) -> usize {
        (n / (self.size * 4)).max(1)
    }

    /// Core dispatch: run `func(i)` for every `i in 0..n_items`, claiming
    /// `grain` indices per atomic op. Blocks until all indices ran.
    fn dispatch(&self, n_items: usize, grain: usize, func: &(dyn Fn(usize) + Sync)) {
        if n_items == 0 {
            return;
        }
        let grain = grain.max(1);
        // Serial fast paths: degenerate pool, job no bigger than one chunk,
        // nested dispatch (from a worker, or from a caller thread that is
        // already inside `dispatch` and holds the dispatch lock) — nested
        // calls must run inline rather than wait on the pool — or an
        // explicit `run_inline` thread-share scope.
        if self.size <= 1
            || n_items <= grain
            || IN_POOL_WORKER.get()
            || IN_DISPATCH.get()
            || INLINE_SCOPE.get()
        {
            let result = catch_unwind(AssertUnwindSafe(|| {
                for i in 0..n_items {
                    func(i);
                }
            }));
            if race::enabled() && !IN_POOL_WORKER.get() && !IN_DISPATCH.get() {
                // Single-threaded writes cannot race, but settling here
                // drains the shadow logs so a long serial phase does not
                // accumulate them (and bounds address-reuse exposure).
                race::settle("pool.dispatch.serial");
            }
            if let Err(payload) = result {
                resume_unwind(payload);
            }
            return;
        }

        let _span = dcmesh_obs::span!("pool.dispatch");

        let core = JobCore {
            next: AtomicUsize::new(0),
            n_items,
            grain,
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
            race_launch: race::enabled().then(race::fork),
            race_done: std::sync::Mutex::new(Vec::new()),
        };
        // SAFETY: (bounds=the dispatch protocol joins every participant
        // before returning so the pointee outlives every dereference,
        // aliasing=lifetime erasure only; the fat-pointer layout is
        // unchanged) see `JobRef` docs.
        let func: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(func)
        };
        let job = JobRef {
            func,
            core: &core as *const JobCore,
        };
        {
            let _in_dispatch = DispatchFlagGuard::set();
            let _serialize = self.dispatch_lock.lock();
            {
                let mut st = self.shared.state.lock();
                st.epoch = st.epoch.wrapping_add(1);
                st.job = Some(job);
                self.shared.work_cv.notify_all();
            }
            run_job(job);
            let mut st = self.shared.state.lock();
            while st.active != 0 {
                st = self.shared.done_cv.wait(st);
            }
            // Retire the job before releasing the dispatch lock so late
            // wakers see `None` and park again.
            st.job = None;
        }

        if core.race_launch.is_some() {
            // Join every participant's completion packet, then check the
            // whole region for unordered overlapping writes.
            let done =
                std::mem::take(&mut *core.race_done.lock().unwrap_or_else(|e| e.into_inner()));
            for pkt in &done {
                race::join(pkt);
            }
            race::settle("pool.dispatch");
        }

        if core.panicked.load(Ordering::SeqCst) {
            let payload = core
                .panic
                .lock()
                .take()
                .unwrap_or_else(|| Box::new("pool job panicked"));
            resume_unwind(payload);
        }
    }

    /// Run `f(i)` for every index in `range`, in parallel. Zero-allocation:
    /// the range is never materialized.
    pub fn for_each_index<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let n = range.end.saturating_sub(range.start);
        let start = range.start;
        let grain = self.grain_for(n);
        self.dispatch(n, grain, &|i| f(start + i));
    }

    /// Run `f(i)` for every index, one index per claim — for coarse bodies
    /// (teams) where per-item stealing matters more than claim cost.
    pub fn for_each_index_coarse<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let n = range.end.saturating_sub(range.start);
        let start = range.start;
        self.dispatch(n, 1, &|i| f(start + i));
    }

    /// Split `data` into `n_teams` contiguous chunks of `ceil(len/n_teams)`
    /// elements (OpenMP `teams distribute` boundaries; the last chunk may be
    /// shorter) and run `f(team, chunk)` for each in parallel.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], n_teams: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() || n_teams == 0 {
            return;
        }
        let chunk_len = data.len().div_ceil(n_teams);
        self.for_each_chunks_of_mut(data, chunk_len, f);
    }

    /// Split `data` into contiguous chunks of exactly `chunk_len` elements
    /// (last may be shorter) and run `f(chunk_index, chunk)` for each in
    /// parallel. One chunk per claim.
    pub fn for_each_chunks_of_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        let chunk_len = chunk_len.max(1);
        let len = data.len();
        let n_chunks = len.div_ceil(chunk_len);
        let base = SlicePtr::new(data);
        self.dispatch(n_chunks, 1, &move |t| {
            let lo = t * chunk_len;
            let hi = (lo + chunk_len).min(len);
            // SAFETY: each t in 0..n_chunks is claimed exactly once and the
            // [lo, hi) ranges are pairwise disjoint, so this is the only
            // live reference to that sub-slice; `data` outlives dispatch.
            let chunk = unsafe { base.subslice_mut(lo, hi) };
            f(t, chunk);
        });
    }

    /// Run `f(i, &mut data[i])` for every element in parallel.
    pub fn for_each_mut<T, F>(&self, data: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        if data.is_empty() {
            return;
        }
        let base = SlicePtr::new(data);
        let grain = self.grain_for(base.len());
        self.dispatch(base.len(), grain, &move |i| {
            // SAFETY: each index is claimed exactly once → exclusive access.
            f(i, unsafe { base.get_mut(i) });
        });
    }

    /// Parallel map over `0..n`, collecting results in index order.
    ///
    /// Allocates only the output buffer. If a body panics, already-computed
    /// results are leaked (not dropped) — memory-safe, matching the
    /// cancel-on-panic dispatch semantics.
    pub fn map_index<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
        out.resize_with(n, MaybeUninit::uninit);
        let base = SlicePtr::new(&mut out);
        let grain = self.grain_for(n);
        self.dispatch(n, grain, &move |i| {
            // SAFETY: exclusive slot per claimed index.
            unsafe { base.get_mut(i).write(f(i)) };
        });
        let mut out = ManuallyDrop::new(out);
        // SAFETY: dispatch returned normally, so every slot was written
        // exactly once; Vec<MaybeUninit<R>> and Vec<R> have identical layout.
        unsafe { Vec::from_raw_parts(out.as_mut_ptr() as *mut R, n, out.capacity()) }
    }

    /// Parallel map over mutable elements, collecting `f(i, &mut data[i])`
    /// results in index order.
    pub fn map_mut<T, R, F>(&self, data: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = data.len();
        let base = SlicePtr::new(data);
        self.map_index(n, move |i| {
            // SAFETY: exclusive element per claimed index.
            f(i, unsafe { base.get_mut(i) })
        })
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    IN_POOL_WORKER.set(true);
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.job {
                    if st.epoch != seen_epoch {
                        seen_epoch = st.epoch;
                        st.active += 1;
                        break job;
                    }
                }
                st = shared.work_cv.wait(st);
            }
        };
        run_job(job);
        let mut st = shared.state.lock();
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn thread_count_parses_or_says_why_not() {
        assert_eq!(parse_threads(""), Ok(None));
        assert_eq!(parse_threads("  "), Ok(None));
        assert_eq!(parse_threads("3"), Ok(Some(3)));
        assert_eq!(parse_threads(" 12\n"), Ok(Some(12)));
        for bad in ["0", "-1", "two", "2.0", "1,2"] {
            let msg = parse_threads(bad).expect_err(bad);
            assert!(msg.contains(&format!("{bad:?}")) && msg.contains("positive integer"));
        }
    }

    #[test]
    fn for_each_index_covers_range_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each_index(0..1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn for_each_index_respects_range_start() {
        let pool = ThreadPool::new(3);
        let sum = AtomicU64::new(0);
        pool.for_each_index(10..20, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (10..20).sum::<u64>());
    }

    #[test]
    fn chunk_mut_matches_openmp_boundaries() {
        let pool = ThreadPool::new(4);
        let mut v = vec![0usize; 103];
        // ceil(103/10) = 11-element chunks, last chunk 4 long.
        pool.for_each_chunk_mut(&mut v, 10, |t, chunk| {
            for x in chunk.iter_mut() {
                *x = t + 1;
            }
        });
        for (j, &x) in v.iter().enumerate() {
            assert_eq!(x, j / 11 + 1);
        }
    }

    #[test]
    fn map_index_preserves_order() {
        let pool = ThreadPool::new(4);
        let out = pool.map_index(777, |i| i * 3);
        assert_eq!(out, (0..777).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_mut_returns_in_order_and_mutates() {
        let pool = ThreadPool::new(4);
        let mut v: Vec<u32> = (0..57).collect();
        let out = pool.map_mut(&mut v, |i, x| {
            *x += 1;
            i as u32 + *x
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
        assert_eq!(out, (0..57).map(|i| 2 * i + 1).collect::<Vec<u32>>());
    }

    #[test]
    fn run_inline_keeps_every_index_on_the_calling_thread() {
        let pool = ThreadPool::new(4);
        let caller = std::thread::current().id();
        let foreign = AtomicUsize::new(0);
        run_inline(|| {
            assert!(INLINE_SCOPE.get());
            pool.for_each_index_coarse(0..64, |_| {
                if std::thread::current().id() != caller {
                    foreign.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert!(!INLINE_SCOPE.get(), "scope must end with the closure");
        assert_eq!(
            foreign.load(Ordering::Relaxed),
            0,
            "inline scope must never wake a worker"
        );
    }

    #[test]
    fn run_inline_restores_the_scope_on_panic() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_inline(|| panic!("inline boom"));
        }));
        assert!(err.is_err());
        assert!(
            !INLINE_SCOPE.get(),
            "a panicking inline body must not leak the scope flag"
        );
        // And the shared pool still parallelizes afterwards.
        let pool = ThreadPool::new(4);
        let sum = AtomicU64::new(0);
        pool.for_each_index(0..100, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum::<u64>());
    }

    #[test]
    fn nested_dispatch_panic_reraises_and_pool_survives() {
        // A panic thrown from a *nested* (inline-on-worker) dispatch must
        // cross both dispatch layers and leave the pool usable.
        let pool = ThreadPool::new(4);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_index_coarse(0..8, |i| {
                pool.for_each_index_coarse(100..108, |j| {
                    if i == 3 && j == 104 {
                        panic!("nested boom");
                    }
                });
            });
        }))
        .expect_err("panic must re-raise through both dispatch layers");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "nested boom");
        // Pool still works afterwards.
        let sum = AtomicU64::new(0);
        pool.for_each_index(0..100, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..100).sum::<u64>());
    }
}
