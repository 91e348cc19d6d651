//! Rank failures in the comm fabric: a rank that dies, or a peer that stays
//! silent, must be *detected* — a named failed rank or a timeout in the
//! `WorldError`, never a hang. A failed receive is a panic on the survivor,
//! so every assertion reads the `(rank, panic message)` pairs `try_run`
//! returns.

use dcmesh_comm::{NetworkModel, World, WorldError};

/// The panic message `err` carries for `rank`.
fn reason(err: &WorldError, rank: usize) -> &str {
    err.failures
        .iter()
        .find(|(r, _)| *r == rank)
        .map(|(_, why)| why.as_str())
        .unwrap_or_else(|| panic!("rank {rank} is not reported: {err}"))
}

/// The original hang: a rank panicking *before* its send left every peer
/// blocked forever in an unbounded `recv`. Now the survivor's receive fails
/// within one poll interval naming the culprit, and the world names both.
#[test]
fn rank_panicking_before_send_is_detected_not_deadlocked() {
    let err = World::try_run(2, NetworkModel::ideal(), |r| {
        if r.id() == 0 {
            panic!("rank 0 dies before sending");
        }
        // Rank 1 waits on a message rank 0 never sends.
        r.recv(0, 7)
    })
    .expect_err("a failed rank must surface as a WorldError");
    assert!(reason(&err, 0).contains("dies before sending"), "{err}");
    let survivor = reason(&err, 1);
    assert!(
        survivor.contains("rank 0 failed") && !survivor.contains("timed out"),
        "the survivor must name the dead rank, not time out: {err}"
    );
}

/// A message the rank *did* send before dying must still deliver: queued
/// data outranks failure flags.
#[test]
fn message_sent_before_death_still_delivers() {
    let err = World::try_run(2, NetworkModel::ideal(), |r| {
        if r.id() == 0 {
            r.isend(1, 3, &[42.0]).wait();
            panic!("rank 0 dies after sending");
        }
        let got = r.recv(0, 3);
        assert_eq!(got, vec![42.0]);
        got[0]
    })
    .expect_err("rank 0 still failed overall");
    assert_eq!(err.failures.len(), 1, "only rank 0 failed: {err}");
    assert!(reason(&err, 0).contains("dies after sending"), "{err}");
}

/// A rank dying *between* a peer's post and its wait: the receive is
/// outstanding when the sender dies, so the failure must surface at the
/// wait, well inside its deadline and naming the dead rank — not as a hang
/// or a bare timeout.
#[test]
fn wait_on_rank_that_died_after_post_names_the_dead_rank() {
    let err = World::try_run(2, NetworkModel::ideal(), |r| {
        if r.id() == 0 {
            r.set_deadline_ms(2_000);
            let req = r.irecv(1, 8);
            r.wait(req);
        } else {
            panic!("rank 1 dies before sending");
        }
    })
    .expect_err("the dead rank must surface as a WorldError");
    assert!(reason(&err, 1).contains("dies before sending"), "{err}");
    let survivor = reason(&err, 0);
    assert!(
        survivor.contains("rank 1 failed") && !survivor.contains("timed out"),
        "the outstanding wait must name rank 1, not time out: {err}"
    );
}

/// Deadlock-freedom at large halo sizes: 8 ranks on a ring exchange
/// ~1 MiB faces with both neighbours for several rounds, posting every
/// receive before waiting on any. Buffered sends plus posted receives
/// must complete on every round — no rendezvous cycle, no timeout.
#[test]
fn posted_receive_ring_exchange_is_deadlock_free_at_large_halos() {
    let p = 8usize;
    let face = 131_072; // 1 MiB of f64 per face
    let out = World::run(p, NetworkModel::slingshot11(), |r| {
        let me = r.id();
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        let payload = vec![me as f64; face];
        let mut checked = 0usize;
        for round in 0..3u64 {
            let tag_fwd = 2 * round;
            let tag_bwd = 2 * round + 1;
            r.isend(next, tag_fwd, &payload).wait();
            r.isend(prev, tag_bwd, &payload).wait();
            let from_prev = r.irecv(prev, tag_fwd);
            let from_next = r.irecv(next, tag_bwd);
            r.advance(1e-3);
            let got_prev = r.wait(from_prev);
            let got_next = r.wait(from_next);
            for (src, got) in [(prev, got_prev), (next, got_next)] {
                assert_eq!(got.len(), face);
                assert!(got.iter().all(|&v| v == src as f64));
                checked += 1;
            }
        }
        checked
    });
    assert!(
        out.iter().all(|&c| c == 6),
        "every face must arrive: {out:?}"
    );
}

/// The deadline itself: a receive on a tag nobody ever sends, from a peer
/// that never fails, must fail as a timeout (bounded), not hang.
#[test]
fn recv_on_silent_peer_times_out() {
    let err = World::try_run(2, NetworkModel::ideal(), |r| {
        if r.id() == 1 {
            r.set_deadline_ms(30);
            r.recv(0, 99);
        }
    })
    .expect_err("the receive must time out");
    assert_eq!(err.failures.len(), 1, "only the receiver failed: {err}");
    assert!(
        reason(&err, 1).contains("receive from rank 0 (tag 99) timed out after 30 ms"),
        "{err}"
    );
}
