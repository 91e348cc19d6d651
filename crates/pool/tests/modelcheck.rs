//! Bounded exhaustive model checking of the pool's concurrency protocols.
//!
//! These tests run the **real** `ThreadPool` implementation — not a model —
//! under `dcmesh_analyze::sched`: every mutex, condvar,
//! protocol atomic, and thread in `dcmesh-pool` routes through
//! `dcmesh_analyze::sync`, so the explorer enumerates every interleaving
//! reachable within the preemption bound and fails with a decision trace
//! on any schedule that loses a wakeup, double-claims an index, drops a
//! panic payload, or deadlocks.
//!
//! Each scenario asserts `stats.complete` (the bounded space was
//! exhausted, not truncated) and prints and pins `stats.schedules`: the
//! scenario branched (a sequential test here would be vacuous), and a
//! change that shrinks or grows the explored space fails here.
//!
//! Assertion state inside the scenarios uses `std::sync::atomic` /
//! `std::sync::Mutex` directly: test bookkeeping must not add scheduling
//! points of its own.

use dcmesh_analyze::sched::{self, Options};
use dcmesh_pool::ThreadPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn opts() -> Options {
    Options {
        preemption_bound: 2,
        max_schedules: 500_000,
        max_steps: 20_000,
    }
}

/// Protocol 1 — dispatch launch/steal/park. Two sequential dispatches on a
/// 2-slot pool: the epoch guard must hand each job to the worker at most
/// once, the claim loop must cover every index exactly once per dispatch
/// (no lost or doubled chunks, on any interleaving of claims vs. parks),
/// and the done-handshake must not lose the final wakeup.
#[test]
fn dispatch_epoch_protocol_exactly_once() {
    let stats = sched::explore(opts(), || {
        let pool = ThreadPool::new(2);
        for round in 0..2 {
            let hits: Arc<Vec<AtomicUsize>> =
                Arc::new((0..2).map(|_| AtomicUsize::new(0)).collect());
            let h = Arc::clone(&hits);
            pool.for_each_index_coarse(0..2, move |i| {
                h[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, hit) in hits.iter().enumerate() {
                assert_eq!(
                    hit.load(Ordering::Relaxed),
                    1,
                    "round {round}: index {i} not claimed exactly once"
                );
            }
        }
    });
    assert!(stats.complete, "schedule space truncated: {stats:?}");
    println!("schedules {}", stats.schedules);
    assert_eq!(stats.schedules, 251, "explored space moved: {stats:?}");
}

/// Protocol 2 — panic capture and re-raise in dispatch. On every
/// interleaving of the claim loop with the panicking body, the payload
/// must cross from whichever participant hit it to the dispatching
/// thread, remaining chunks must be cancelled (not lost mid-claim), and
/// the pool must stay usable afterwards.
#[test]
fn dispatch_reraises_panic_and_pool_survives() {
    let stats = sched::explore(opts(), || {
        let pool = ThreadPool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_index_coarse(0..2, |i| {
                if i == 1 {
                    panic!("mc-dispatch-boom");
                }
            });
        }))
        .expect_err("panic must re-raise on the dispatcher");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "mc-dispatch-boom", "wrong payload surfaced");
        // The pool must not be poisoned by the panicked job.
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        pool.for_each_index_coarse(0..2, move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    });
    assert!(stats.complete, "schedule space truncated: {stats:?}");
    println!("schedules {}", stats.schedules);
    assert_eq!(stats.schedules, 306, "explored space moved: {stats:?}");
}
