//! Correctness tests for the persistent executor: panic propagation, nested
//! dispatch, exactly-once chunk claiming under stealing, and global-pool
//! sizing.

use dcmesh_pool::{configured_threads, global, ThreadPool};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

#[test]
fn panic_propagates_to_caller() {
    let pool = ThreadPool::new(4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.for_each_index(0..256, |i| {
            if i == 137 {
                panic!("pool boom {i}");
            }
        });
    }));
    let payload = result.expect_err("panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("pool boom 137"), "payload was {msg:?}");
}

#[test]
fn pool_survives_a_panicked_job() {
    let pool = ThreadPool::new(3);
    for round in 0..4 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_index(0..64, |i| {
                if i == 7 {
                    panic!("round {round}");
                }
            });
        }));
        assert!(result.is_err());
        // The same pool still runs clean jobs to completion afterwards.
        let hits = AtomicUsize::new(0);
        pool.for_each_index(0..100, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }
}

#[test]
fn nested_dispatch_runs_inline_without_deadlock() {
    let pool = ThreadPool::new(4);
    let outer_hits = AtomicUsize::new(0);
    let inner_hits = AtomicUsize::new(0);
    pool.for_each_index(0..16, |_| {
        outer_hits.fetch_add(1, Ordering::Relaxed);
        // A dispatch from inside a worker must not wait on the pool; it
        // runs inline and serially on the current thread.
        global().for_each_index(0..8, |_| {
            inner_hits.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert_eq!(outer_hits.load(Ordering::Relaxed), 16);
    assert_eq!(inner_hits.load(Ordering::Relaxed), 16 * 8);
}

#[test]
fn nested_dispatch_on_same_pool_does_not_deadlock() {
    // Self-nesting: a body dispatching onto the pool that is running it.
    // Caller-participation means the body may run on a non-worker thread
    // (the dispatching thread), which takes the dispatch-lock path — so
    // this also exercises dispatch-lock reentrancy from the claim loop.
    let pool = ThreadPool::new(2);
    let hits = AtomicUsize::new(0);
    pool.for_each_index_coarse(0..4, |_| {
        pool.for_each_index(0..32, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
    });
    assert_eq!(hits.load(Ordering::Relaxed), 4 * 32);
}

#[test]
fn global_pool_size_respects_env_or_parallelism() {
    // The test environment may or may not set DCMESH_THREADS; either way
    // the resolved size must match `configured_threads` and be >= 1.
    assert_eq!(global().size(), configured_threads());
    assert!(global().size() >= 1);
    if let Ok(v) = std::env::var("DCMESH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            assert_eq!(global().size(), n.max(1));
        }
    }
}

#[test]
fn uneven_bodies_still_cover_every_index() {
    // Force stealing: early indices sleep, late indices are instant, so
    // trailing chunks migrate to whichever worker frees up first.
    let pool = ThreadPool::new(4);
    let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
    pool.for_each_index_coarse(0..64, |i| {
        if i < 4 {
            std::thread::sleep(Duration::from_millis(2));
        }
        hits[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Chunk-claiming covers every index exactly once, for arbitrary pool
    // sizes, range lengths, and per-body imbalance (which drives stealing).
    #[test]
    fn chunk_claiming_covers_every_index_exactly_once(
        pool_size in 1usize..6,
        n in 0usize..500,
        slow_every in 1usize..17,
    ) {
        let pool = ThreadPool::new(pool_size);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each_index(0..n, |i| {
            if i % slow_every == 0 {
                std::hint::black_box((0..50).sum::<usize>());
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    // Team-chunk dispatch writes every element exactly once with OpenMP
    // `ceil(len / n_teams)` boundaries.
    #[test]
    fn team_chunks_partition_exactly(
        pool_size in 1usize..6,
        len in 1usize..800,
        n_teams in 1usize..65,
    ) {
        let pool = ThreadPool::new(pool_size);
        let mut data = vec![0u32; len];
        pool.for_each_chunk_mut(&mut data, n_teams, |t, chunk| {
            for x in chunk.iter_mut() {
                *x += 1 + t as u32;
            }
        });
        let chunk_len = len.div_ceil(n_teams);
        for (j, &x) in data.iter().enumerate() {
            prop_assert_eq!(x, 1 + (j / chunk_len) as u32);
        }
    }
}
