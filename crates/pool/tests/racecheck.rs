//! End-to-end race-detector tests: a seeded overlapping-write pair on two
//! threads nothing orders must be flagged, and the legitimate patterns —
//! the disjoint ranges the real executor hands out, one buffer handed from
//! thread to thread over an explicit edge — must stay clean.
//!
//! Lives in its own test binary: `force_enable` arms the detector for the
//! whole process, and these tests must not leak shadow state into the
//! other pool suites.

use dcmesh_analyze::race;
use dcmesh_pool::{SlicePtr, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Run `body` to completion on a `spawn_named` thread of its own that
/// first joins `after` (its launch edge); returns the completion packet
/// the thread forks when `body` is done.
fn on_thread(
    name: &str,
    after: race::Packet,
    body: impl FnOnce() + Send + 'static,
) -> race::Packet {
    let (tx, rx) = std::sync::mpsc::channel();
    dcmesh_analyze::sync::spawn_named(name, move || {
        race::join(&after);
        body();
        tx.send(race::fork()).unwrap();
    })
    .join()
    .unwrap();
    rx.recv().unwrap()
}

#[test]
fn seeded_overlap_on_two_threads_is_flagged() {
    let _g = serial();
    race::force_enable();
    race::reset();
    let mut buf = vec![0u64; 16];
    let ptr = SlicePtr::new(&mut buf);
    let ((), violations) = race::capture(|| {
        // Both threads are ordered after this launch edge and before the
        // settle, but nothing orders them against each other, and the
        // seeded ranges [0,10) and [5,15) overlap in [5,10). (They run one
        // after the other in real time: the detector reads vector clocks,
        // not timing, so the test itself has no data race.)
        let launch = race::fork();
        let done_a = on_thread("race-thread-a", launch.clone(), move || {
            // SAFETY: the allocation is live and nothing else touches it
            // while this thread runs; only the *clocks* are unordered.
            let s = unsafe { ptr.subslice_mut(0, 10) };
            s.fill(1);
        });
        let done_b = on_thread("race-thread-b", launch, move || {
            // SAFETY: see above — seeded overlap, detector must flag it.
            let s = unsafe { ptr.subslice_mut(5, 15) };
            s.fill(2);
        });
        race::join(&done_a);
        race::join(&done_b);
        race::settle("test.two_threads");
    });
    assert!(
        !violations.is_empty(),
        "the seeded overlapping write pair was not flagged"
    );
    let v = &violations[0];
    assert!(
        v.settle == "test.two_threads",
        "wrong settle point: {}",
        v.settle
    );
    assert_eq!(v.labels.0, "sliceptr.subslice_mut");
    assert_eq!(v.labels.1, "sliceptr.subslice_mut");
    // The reported overlap is the seeded [5,10) element range in bytes.
    let base = buf.as_ptr() as usize;
    assert_eq!(v.overlap, (base + 5 * 8, base + 10 * 8), "{v}");
}

#[test]
fn disjoint_chunk_dispatch_is_clean() {
    let _g = serial();
    race::force_enable();
    race::reset();
    let ((), violations) = race::capture(|| {
        let pool = ThreadPool::new(4);
        let mut buf = vec![0u64; 1024];
        pool.for_each_chunks_of_mut(&mut buf, 64, |t, chunk| {
            for x in chunk.iter_mut() {
                *x = t as u64;
            }
        });
        for (i, &x) in buf.iter().enumerate() {
            assert_eq!(x, (i / 64) as u64);
        }
    });
    assert!(
        violations.is_empty(),
        "false positive on the disjoint chunk dispatch: {violations:?}"
    );
}

#[test]
fn per_element_dispatch_and_map_are_clean() {
    let _g = serial();
    race::force_enable();
    race::reset();
    let ((), violations) = race::capture(|| {
        let pool = ThreadPool::new(4);
        let mut buf = vec![0u32; 500];
        pool.for_each_mut(&mut buf, |i, x| *x = i as u32);
        let out = pool.map_index(500, |i| i * 2);
        assert_eq!(out[499], 998);
    });
    assert!(
        violations.is_empty(),
        "false positive on per-element dispatch: {violations:?}"
    );
}

#[test]
fn handed_over_reuse_of_one_buffer_is_clean() {
    // Successive passes over the same buffer on different threads, each
    // launched from the completion packet of the one before: the explicit
    // fork -> join edge orders them. Must not be flagged.
    let _g = serial();
    race::force_enable();
    race::reset();
    let mut buf = vec![0u64; 32];
    let ptr = SlicePtr::new(&mut buf);
    let ((), violations) = race::capture(|| {
        let mut edge = race::fork();
        for (pass, name) in [(1u64, "race-first"), (2, "race-second")] {
            edge = on_thread(name, edge, move || {
                // SAFETY: one thread at a time, each after the last one
                // finished; no concurrent aliasing.
                let s = unsafe { ptr.as_mut_slice() };
                for x in s.iter_mut() {
                    *x += pass;
                }
            });
        }
        race::join(&edge);
        race::settle("test.handed_over");
    });
    assert_eq!(buf[0], 3, "passes did not all run");
    assert!(
        violations.is_empty(),
        "false positive on handed-over reuse: {violations:?}"
    );
}

#[test]
fn sequential_dispatches_over_same_buffer_are_clean() {
    // Launch→settle edges must order dispatch N's writes before dispatch
    // N+1's, even though different workers touch the same addresses.
    let _g = serial();
    race::force_enable();
    race::reset();
    let hits = AtomicUsize::new(0);
    let ((), violations) = race::capture(|| {
        let pool = ThreadPool::new(3);
        let mut buf = vec![0u64; 256];
        for _round in 0..4 {
            pool.for_each_mut(&mut buf, |_, x| {
                *x += 1;
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert!(buf.iter().all(|&x| x == 4));
    });
    assert_eq!(hits.load(Ordering::Relaxed), 4 * 256);
    assert!(
        violations.is_empty(),
        "false positive across sequential dispatches: {violations:?}"
    );
}
