//! Bounded exhaustive model checking of the pool's concurrency protocols.
//!
//! These tests run the **real** `ThreadPool` and `Lane` implementations —
//! not models — under `dcmesh_analyze::sched`: every mutex, condvar,
//! protocol atomic, and thread in `dcmesh-pool` routes through
//! `dcmesh_analyze::sync`, so the explorer enumerates every interleaving
//! reachable within the preemption bound and fails with a decision trace
//! on any schedule that loses a wakeup, double-claims an index, drops a
//! panic payload, or deadlocks.
//!
//! Each scenario asserts `stats.complete` (the bounded space was
//! exhausted, not truncated) and `stats.schedules > 1` (the scenario
//! actually branched — a sequential test here would be vacuous).
//!
//! Assertion state inside the scenarios uses `std::sync::atomic` /
//! `std::sync::Mutex` directly: test bookkeeping must not add scheduling
//! points of its own.

use dcmesh_analyze::sched::{self, Options};
use dcmesh_pool::{Lane, ThreadPool};
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
    assert!(stats.schedules > 1, "scenario never branched: {stats:?}");
}

/// Protocol 2 — lane enqueue/settle with concurrent enqueuers. Two
/// producer threads race their enqueues against the lane thread's
/// pop/run/idle-signal cycle and against the consumer's `wait_idle`;
/// every schedule must run both tasks before `wait_idle` returns (no
/// lost tasks, no premature idle signal).
#[test]
fn lane_concurrent_enqueuers_all_tasks_run_before_idle() {
    let stats = sched::explore(opts(), || {
        let lane = Arc::new(Lane::new("mc-lane"));
        let ran = Arc::new(AtomicUsize::new(0));
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let lane = Arc::clone(&lane);
                let ran = Arc::clone(&ran);
                dcmesh_analyze::sync::spawn_named(&format!("producer-{p}"), move || {
                    lane.enqueue(Box::new(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }));
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        assert!(lane.wait_idle().is_none());
        assert_eq!(
            ran.load(Ordering::Relaxed),
            2,
            "wait_idle returned before every enqueued task ran"
        );
    });
    assert!(stats.complete, "schedule space truncated: {stats:?}");
    assert!(stats.schedules > 1, "scenario never branched: {stats:?}");
}

/// Protocol 2b — FIFO order. A single producer's tasks must run in
/// enqueue order on every schedule of the lane thread's cycle.
#[test]
fn lane_preserves_fifo_order() {
    let stats = sched::explore(opts(), || {
        let lane = Lane::new("mc-fifo");
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        for i in 0..3 {
            let log = Arc::clone(&log);
            lane.enqueue(Box::new(move || {
                log.lock().unwrap().push(i);
            }));
        }
        assert!(lane.wait_idle().is_none());
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2], "FIFO order violated");
    });
    assert!(stats.complete, "schedule space truncated: {stats:?}");
    assert!(stats.schedules > 1, "scenario never branched: {stats:?}");
}

/// Protocol 3 — panic capture and re-raise in dispatch. On every
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
    assert!(stats.schedules > 1, "scenario never branched: {stats:?}");
}

/// Protocol 3b — panic capture in lanes. The first payload must surface
/// at `wait_idle` on every interleaving of the enqueue, the panicking
/// body, and the waiter; the lane thread must survive it.
#[test]
fn lane_panic_surfaces_at_wait_idle_and_lane_survives() {
    let stats = sched::explore(opts(), || {
        let lane = Lane::new("mc-panic");
        lane.enqueue(Box::new(|| panic!("mc-lane-boom")));
        let payload = lane.wait_idle().expect("payload must surface");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "mc-lane-boom");
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        lane.enqueue(Box::new(move || {
            r.fetch_add(1, Ordering::Relaxed);
        }));
        assert!(lane.wait_idle().is_none(), "stale payload leaked");
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    });
    assert!(stats.complete, "schedule space truncated: {stats:?}");
    assert!(stats.schedules > 1, "scenario never branched: {stats:?}");
}

/// Protocol 4 — dispatch x lane x nested dispatch (what `md_step` composes:
/// engines stepped by a pool dispatch, each deferring `nowait` kernels onto
/// a lane, each kernel dispatching its teams on the same pool). The item
/// that launches holds the dispatch (as the dispatcher, under the dispatch
/// lock, or as the worker inside it) while it settles the lane, so on every
/// schedule the lane body must inherit the inline rule and run its own
/// dispatch serially; if it reached for the dispatch lock instead, the
/// explorer would report the deadlock with its decision trace.
#[test]
fn lane_body_launched_inside_a_dispatch_dispatches_inline() {
    let stats = sched::explore(opts(), || {
        let pool = Arc::new(ThreadPool::new(2));
        let lane = Arc::new(Lane::new("mc-nested"));
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let (pool_in, lane, hits) = (Arc::clone(&pool), Arc::clone(&lane), Arc::clone(&hits));
            pool.for_each_index_coarse(0..2, move |i| {
                if i != 0 {
                    return;
                }
                let (pool_in, hits) = (Arc::clone(&pool_in), Arc::clone(&hits));
                lane.enqueue(Box::new(move || {
                    pool_in.for_each_index_coarse(0..2, |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }));
                assert!(lane.wait_idle().is_none());
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 2, "nested dispatch lost work");
    });
    assert!(stats.complete, "schedule space truncated: {stats:?}");
    assert!(stats.schedules > 1, "scenario never branched: {stats:?}");
}
