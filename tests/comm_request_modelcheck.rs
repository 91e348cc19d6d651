//! Bounded exhaustive model checking of the comm fabric's nonblocking
//! request lifecycle (post -> wait).
//!
//! These scenarios run the **real** `Rank` transport — the mailbox mutex,
//! its condvar, and the pending-claim path — under
//! `dcmesh_analyze::sched`: [`dcmesh_comm::World::endpoints`] hands back
//! connected endpoints without spawning threads, so the test owns thread
//! creation via `dcmesh_analyze::sync::spawn_named` and the explorer
//! enumerates every interleaving of post/push/drain/wait reachable within
//! the preemption bound. Under exploration, condvar timeouts never fire,
//! so any schedule where a posted receive cannot complete is reported as
//! a deadlock with a deterministic decision trace for replay.
//!
//! Each scenario asserts `stats.complete` (the bounded space was
//! exhausted, not truncated) and prints and pins `stats.schedules` (the
//! scenario branched, and its explored space did not move). Assertion state uses `std::sync` primitives so the
//! bookkeeping adds no scheduling points of its own.

use dcmesh_analyze::sched::{self, Options};
use dcmesh_comm::{NetworkModel, World};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn opts() -> Options {
    Options {
        preemption_bound: 2,
        max_schedules: 500_000,
        max_steps: 20_000,
    }
}

/// Lifecycle 1 — the clean symmetric exchange. Both ranks post their
/// sends, post their receives, overlap a compute slice, and wait. On
/// every interleaving of the two mailbox protocols the payloads must
/// cross exactly once and neither wait may hang, whether the message
/// lands before or after the receive is posted.
#[test]
fn isend_irecv_lifecycle_completes_on_every_schedule() {
    let stats = sched::explore(opts(), || {
        let mut endpoints = World::endpoints(2, NetworkModel::ideal());
        let delivered = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = endpoints
            .drain(..)
            .map(|mut rank| {
                let delivered = Arc::clone(&delivered);
                dcmesh_analyze::sync::spawn_named(&format!("rank-{}", rank.id()), move || {
                    let me = rank.id();
                    let peer = 1 - me;
                    let send = rank.isend(peer, 7, &[me as f64]);
                    let recv = rank.irecv(peer, 7);
                    rank.advance(1.0);
                    send.wait();
                    let got = rank.wait(recv);
                    assert_eq!(got, vec![peer as f64], "rank {me} got wrong payload");
                    delivered.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(delivered.load(Ordering::Relaxed), 2, "a wait never settled");
    });
    assert!(stats.complete, "schedule space truncated: {stats:?}");
    println!("schedules {}", stats.schedules);
    assert_eq!(stats.schedules, 79, "explored space moved: {stats:?}");
}

/// Lifecycle 2 — a halo exchange with compute in between. Both ranks
/// `isend` two tagged faces to each other, post both receives, overlap a
/// compute slice and settle with `wait_all`. Rank 0's slice outlasts the
/// modeled transfer (hidden), rank 1's does not (exposed stall): on every
/// interleaving both waits settle, both faces cross intact, and each
/// rank's clock ends at exactly `max(compute, arrival)`.
#[test]
fn modeled_exchange_settles_at_max_of_compute_and_arrival_on_every_schedule() {
    const FACE_WORDS: usize = 1 << 10;
    let stats = sched::explore(opts(), || {
        let mut endpoints = World::endpoints(2, NetworkModel::slingshot11());
        let settled = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = endpoints
            .drain(..)
            .map(|mut rank| {
                let settled = Arc::clone(&settled);
                dcmesh_analyze::sync::spawn_named(&format!("rank-{}", rank.id()), move || {
                    let me = rank.id();
                    let peer = 1 - me;
                    let compute = [1.0, 1e-9][me];
                    let face = |v: f64| vec![v; FACE_WORDS];
                    rank.isend(peer, 1, &face(me as f64)).wait();
                    rank.isend(peer, 2, &face(me as f64 + 0.5)).wait();
                    let lo = rank.irecv(peer, 1);
                    let hi = rank.irecv(peer, 2);
                    rank.advance(compute);
                    let got = rank.wait_all(vec![lo, hi]);
                    let want = [face(peer as f64), face(peer as f64 + 0.5)];
                    assert_eq!(got, want, "rank {me}'s faces");
                    // Both faces left at clock 0, so they arrive together.
                    let arrival = rank.network().p2p_time(FACE_WORDS * 8, peer, me);
                    assert_eq!(rank.time(), compute.max(arrival), "rank {me}'s clock");
                    settled.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(settled.load(Ordering::Relaxed), 2, "a wait never settled");
    });
    assert!(stats.complete, "schedule space truncated: {stats:?}");
    println!("schedules {}", stats.schedules);
    assert_eq!(stats.schedules, 142, "explored space moved: {stats:?}");
}

/// Lifecycle 3 — out-of-order settle. Two tags posted in one order and
/// waited in the other: the pending-claim path must match requests to
/// messages by tag on every schedule, never by arrival position.
#[test]
fn waits_settle_out_of_post_order_on_every_schedule() {
    let stats = sched::explore(opts(), || {
        let mut endpoints = World::endpoints(2, NetworkModel::ideal());
        let receiver = endpoints.pop().expect("rank 1");
        let sender = endpoints.pop().expect("rank 0");
        let producer = dcmesh_analyze::sync::spawn_named("rank-0", move || {
            sender.isend(1, 1, &[1.0]).wait();
            sender.isend(1, 2, &[2.0]).wait();
        });
        let consumer = dcmesh_analyze::sync::spawn_named("rank-1", move || {
            let mut rank = receiver;
            let tag1 = rank.irecv(0, 1);
            let tag2 = rank.irecv(0, 2);
            // Wait in the opposite order from the posts.
            assert_eq!(rank.wait(tag2), vec![2.0]);
            assert_eq!(rank.wait(tag1), vec![1.0]);
        });
        producer.join().unwrap();
        consumer.join().unwrap();
    });
    assert!(stats.complete, "schedule space truncated: {stats:?}");
    println!("schedules {}", stats.schedules);
    assert_eq!(stats.schedules, 72, "explored space moved: {stats:?}");
}
