//! The `sync` wrappers outside `sched::explore`. This test has a binary
//! to itself: the explorer's active flag is process-wide, and the
//! `sched_selfcheck` tests explore on sibling threads, so only a process
//! in which nothing explores can assert that the flag stays off.

use dcmesh_analyze::sched;
use dcmesh_analyze::sync::{Condvar, Mutex};
use std::sync::Arc;

#[test]
fn primitives_work_uncontrolled() {
    // Outside `explore`, the wrappers must behave exactly like std.
    let shared = Arc::new((Mutex::new(0usize), Condvar::new()));
    let s2 = Arc::clone(&shared);
    let t = dcmesh_analyze::sync::spawn_named("bg", move || {
        let (m, cv) = &*s2;
        *m.lock() = 41;
        cv.notify_all();
    });
    {
        let (m, cv) = &*shared;
        let mut g = m.lock();
        while *g == 0 {
            g = cv.wait(g);
        }
        *g += 1;
        assert_eq!(*g, 42);
    }
    t.join().unwrap();
    assert!(!sched::is_active());
}
