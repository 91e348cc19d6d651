//! Self-checks for the schedule explorer: seeded concurrency bugs it
//! must find, and correct protocols it must pass exhaustively. If these
//! fail, no result from the pool model-check suites can be trusted.

use dcmesh_analyze::sched::{self, Options};
use dcmesh_analyze::sync::{AtomicUsize, Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn explore_failure(opts: Options, f: impl Fn() + Send + Sync + 'static) -> String {
    let err = catch_unwind(AssertUnwindSafe(|| sched::explore(opts, f)))
        .expect_err("explorer was expected to find a bug in this scenario");
    if let Some(s) = err.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = err.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        String::from("<non-string payload>")
    }
}

#[test]
fn finds_lost_update() {
    // Classic read-modify-write split across a scheduling point: some
    // interleaving loads the same value twice and one increment is lost.
    let msg = explore_failure(Options::default(), || {
        let n = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let n = Arc::clone(&n);
                dcmesh_analyze::sync::spawn_named(&format!("inc{i}"), move || {
                    let v = n.load(Ordering::SeqCst);
                    n.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
    });
    assert!(msg.contains("failed"), "unexpected failure shape: {msg}");
    assert!(msg.contains("lost update"), "wrong assertion hit: {msg}");
}

#[test]
fn passes_atomic_increment() {
    // The correct version of the same protocol must survive every
    // schedule within the bound, and the bound must be reached (the DFS
    // actually branched rather than running one schedule).
    let stats = sched::explore(Options::default(), || {
        let n = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let n = Arc::clone(&n);
                dcmesh_analyze::sync::spawn_named(&format!("inc{i}"), move || {
                    n.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::SeqCst), 2);
    });
    assert!(stats.complete, "exploration did not exhaust the bound");
    assert!(
        stats.schedules > 1,
        "expected multiple interleavings, got {}",
        stats.schedules
    );
    assert!(stats.max_threads >= 3, "root + 2 workers should coexist");
}

#[test]
fn finds_lock_order_deadlock() {
    // AB-BA lock ordering: some schedule has each thread holding one
    // lock and blocking on the other.
    let msg = explore_failure(Options::default(), || {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t1 = dcmesh_analyze::sync::spawn_named("ab", move || {
            let _ga = a.lock();
            let _gb = b.lock();
        });
        let t2 = dcmesh_analyze::sync::spawn_named("ba", move || {
            let _gb = b2.lock();
            let _ga = a2.lock();
        });
        let _ = t1.join();
        let _ = t2.join();
    });
    assert!(msg.contains("deadlock"), "expected deadlock, got: {msg}");
}

#[test]
fn finds_lost_wakeup() {
    // A waiter that parks unconditionally: schedules where the notify
    // lands before the wait lose the wakeup forever.
    let msg = explore_failure(Options::default(), || {
        let m = Arc::new(Mutex::new(()));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = dcmesh_analyze::sync::spawn_named("waiter", move || {
            let g = m.lock();
            let _g = cv.wait(g);
        });
        let notifier = dcmesh_analyze::sync::spawn_named("notifier", move || {
            let _g = m2.lock();
            cv2.notify_one();
        });
        let _ = waiter.join();
        let _ = notifier.join();
    });
    assert!(msg.contains("deadlock"), "expected deadlock, got: {msg}");
}

#[test]
fn passes_guarded_wakeup() {
    // The correct flag-under-mutex + re-check loop protocol: no schedule
    // may deadlock, including notify-before-wait ones.
    let stats = sched::explore(Options::default(), || {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = Arc::clone(&shared);
        let waiter = dcmesh_analyze::sync::spawn_named("waiter", move || {
            let (m, cv) = &*shared;
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
        });
        let notifier = dcmesh_analyze::sync::spawn_named("notifier", move || {
            let (m, cv) = &*s2;
            *m.lock() = true;
            cv.notify_one();
        });
        let _ = waiter.join();
        let _ = notifier.join();
    });
    assert!(stats.complete);
    assert!(stats.schedules > 1);
}

#[test]
fn propagates_child_panic_with_trace() {
    let msg = explore_failure(
        Options {
            preemption_bound: 0,
            ..Options::default()
        },
        || {
            let t = dcmesh_analyze::sync::spawn_named("boom", || {
                panic!("kaboom-7261");
            });
            let _ = t.join();
        },
    );
    assert!(msg.contains("kaboom-7261"), "payload lost: {msg}");
    assert!(msg.contains("decision trace"), "trace missing: {msg}");
}
