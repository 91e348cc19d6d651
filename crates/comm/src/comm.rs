//! Rank-per-thread message passing with simulated clocks.
//!
//! Point-to-point exchange of domain boundaries between ranks. Each rank
//! carries a simulated clock: `advance()` adds local compute time, and
//! every receive adds *modeled* network time from [`NetworkModel`], so a
//! laptop reproduces full-machine timing structure.
//!
//! ## Nonblocking API and overlap accounting
//!
//! The paper's multi-node headroom (§IV) comes from hiding halo exchange
//! behind per-domain compute — the same async `nowait` discipline its
//! Alg. 5 applies on-device. The fabric therefore exposes MPI-style
//! requests: [`Rank::isend`] / [`Rank::irecv`] post an operation and
//! return a typed handle ([`SendRequest`] / [`RecvRequest`]); the payload
//! is claimed at [`Rank::wait`] / [`Rank::wait_all`]. The simulated clock
//! makes the overlap *measurable*: a receive posted at clock `t0` whose
//! message arrives at `t0 + L` and is waited on after `C` seconds of
//! compute costs `max(C, L)`, not `C + L` — the blocking [`Rank::recv`] (post and wait at the same instant)
//! degenerates to the sum. Per-rank [`OverlapStats`] split every modeled
//! transfer into a hidden part (behind compute) and a stall part (exposed
//! at the wait, summed in [`OverlapStats::wait_s`]).
//!
//! ## Transport
//!
//! Each rank owns a mailbox — a queue guarded by the explorer-aware
//! `dcmesh_analyze::sync` mutex/condvar pair. Outside a schedule
//! exploration those delegate to `std` after one relaxed load; under
//! [`dcmesh_analyze::sched::explore`] every mailbox operation becomes a
//! scheduling point, so the *real* request lifecycle (post → wait) is
//! model-checked exhaustively, the way the pool's dispatch protocol is.
//! [`World::endpoints`] hands out the connected [`Rank`] endpoints without
//! spawning threads, so a model check can own thread creation. Receive deadlines are a wall-clock escape hatch and
//! never fire under exploration: a receive that can block forever there
//! surfaces as a detected deadlock, not a timeout.
//!
//! ## Failure handling
//!
//! Production campaigns lose ranks, so the fabric must fail loudly rather
//! than hang. Two mechanisms work together:
//!
//! * Every rank thread runs under `catch_unwind`; a panic marks the rank
//!   failed in the shared world control block, and [`World::try_run`]
//!   reports *which* rank died (with its panic message) instead of
//!   deadlocking the survivors.
//! * Receives are deadline-bounded: a wait polls in short chunks, checking
//!   the failed-rank flags between chunks, and panics with a message that
//!   names the dead peer (`rank R failed`) or the expired deadline (`timed
//!   out`, `DCMESH_COMM_DEADLINE_MS`, default 5000) — a panic that
//!   [`World::try_run`] reports like any other. Messages a rank managed to
//!   send before dying still deliver: queued data outranks failure flags.
//!
//! The mailbox is an in-process, exactly-once FIFO per sender: nothing on
//! it is dropped, delayed or duplicated.

use crate::network::NetworkModel;
use dcmesh_analyze::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A message between ranks: payload of f64 words plus the sender's clock.
#[derive(Debug)]
struct Message {
    from: usize,
    tag: u64,
    payload: Vec<f64>,
    clock: f64,
}

/// Receive poll granularity. The deadline is accumulated from these
/// chunks rather than read off a wall clock (kernel crates are
/// wall-clock-free; see the lint regime).
const POLL_MS: u64 = 1;

/// Default receive deadline when `DCMESH_COMM_DEADLINE_MS` is unset.
const DEFAULT_DEADLINE_MS: u64 = 5000;

/// Why a communication operation failed: the text of the panic that
/// [`World::try_run`] reports for the failing rank.
#[derive(Debug)]
enum CommError {
    /// A peer rank died (panicked) while this rank was communicating.
    RankFailed { rank: usize },
    /// No matching message arrived within the receive deadline.
    Timeout {
        from: usize,
        tag: u64,
        waited_ms: u64,
    },
    /// The channel closed without a recorded rank failure.
    Disconnected,
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::RankFailed { rank } => write!(f, "rank {rank} failed"),
            CommError::Timeout {
                from,
                tag,
                waited_ms,
            } => write!(
                f,
                "receive from rank {from} (tag {tag}) timed out after {waited_ms} ms"
            ),
            CommError::Disconnected => write!(f, "communication channel disconnected"),
        }
    }
}

/// One or more ranks failed during a [`World::try_run`].
#[derive(Clone, Debug)]
pub struct WorldError {
    /// `(rank, panic message)` for every failed rank, ordered by rank id.
    pub failures: Vec<(usize, String)>,
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rank(s) failed:", self.failures.len())?;
        for (rank, reason) in &self.failures {
            write!(f, "\n  rank {rank}: {reason}")?;
        }
        Ok(())
    }
}

impl std::error::Error for WorldError {}

// ---------------------------------------------------------------------------
// Mailbox transport
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MailboxState {
    queue: VecDeque<Message>,
    closed: bool,
}

/// One rank's inbox: a queue on the explorer-aware mutex/condvar pair, so
/// under `sched::explore` every push/drain/wait is a scheduling point and
/// a receive with no matching send is a *detected deadlock*.
#[derive(Debug, Default)]
struct Mailbox {
    state: Mutex<MailboxState>,
    available: Condvar,
}

/// What a bounded wait on a mailbox observed.
enum WaitOutcome {
    /// Messages are queued (or the wait should simply be retried).
    Ready,
    /// The timeout elapsed with the queue still empty.
    TimedOut,
    /// The receiver endpoint was dropped and the queue is empty.
    Closed,
}

impl Mailbox {
    /// Enqueue one message; `Err` if the owning endpoint was dropped.
    fn push(&self, msg: Message) -> Result<(), ()> {
        {
            let mut st = self.state.lock();
            if st.closed {
                return Err(());
            }
            st.queue.push_back(msg);
        }
        self.available.notify_one();
        Ok(())
    }

    /// Mark the owning endpoint gone; pending messages stay poppable.
    fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }

    /// Take everything currently queued (per-sender FIFO order preserved).
    fn drain(&self) -> Vec<Message> {
        let mut st = self.state.lock();
        st.queue.drain(..).collect()
    }

    /// Block until a message is queued, the box closes, or `timeout`
    /// elapses. Spurious wakeups report [`WaitOutcome::Ready`]; callers
    /// loop around a drain anyway. Under schedule exploration the timeout
    /// never fires (see [`dcmesh_analyze::sync::Condvar::wait_timeout`]).
    fn wait_nonempty(&self, timeout: Duration) -> WaitOutcome {
        let st = self.state.lock();
        if !st.queue.is_empty() {
            return WaitOutcome::Ready;
        }
        if st.closed {
            return WaitOutcome::Closed;
        }
        let (st, timed_out) = self.available.wait_timeout(st, timeout);
        if !st.queue.is_empty() {
            WaitOutcome::Ready
        } else if st.closed {
            WaitOutcome::Closed
        } else if timed_out {
            WaitOutcome::TimedOut
        } else {
            WaitOutcome::Ready
        }
    }
}

/// Shared world state: which ranks have failed, and why. Ranks poll the
/// flags between receive chunks, so a dead peer surfaces as a named failure
/// within one poll interval instead of a deadlock.
#[derive(Debug)]
struct WorldCtrl {
    failed: Vec<AtomicBool>,
    reasons: std::sync::Mutex<Vec<Option<String>>>,
}

impl WorldCtrl {
    fn new(nranks: usize) -> Self {
        Self {
            failed: (0..nranks).map(|_| AtomicBool::new(false)).collect(),
            reasons: std::sync::Mutex::new(vec![None; nranks]),
        }
    }

    fn mark_failed(&self, rank: usize, reason: String) {
        {
            let mut reasons = self.reasons.lock().unwrap_or_else(|e| e.into_inner());
            reasons[rank] = Some(reason);
        }
        // Flag set after the reason so a reader that sees the flag finds
        // the message.
        self.failed[rank].store(true, Ordering::Release);
    }

    fn first_failed(&self) -> Option<usize> {
        self.failed.iter().position(|f| f.load(Ordering::Acquire))
    }

    fn failures(&self) -> Vec<(usize, String)> {
        let reasons = self.reasons.lock().unwrap_or_else(|e| e.into_inner());
        reasons
            .iter()
            .enumerate()
            .filter_map(|(rank, r)| r.as_ref().map(|s| (rank, s.clone())))
            .collect()
    }
}

fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// What a `DCMESH_COMM_DEADLINE_MS` value asks for: the empty string (i.e.
/// unset) is the default; anything but a millisecond count of at least one
/// poll interval is an error (a shorter deadline would expire every
/// receive whose message is not already queued).
fn parse_deadline_ms(value: &str) -> Result<u64, String> {
    match value.trim() {
        "" => Ok(DEFAULT_DEADLINE_MS),
        v => v.parse().ok().filter(|&ms| ms >= POLL_MS).ok_or_else(|| {
            format!(
                "DCMESH_COMM_DEADLINE_MS={value:?}: expected a millisecond count \
                 of at least {POLL_MS}, using {DEFAULT_DEADLINE_MS}"
            )
        }),
    }
}

/// The receive deadline of new worlds. A `DCMESH_COMM_DEADLINE_MS` that does
/// not parse is reported on stderr once and ignored.
fn deadline_from_env() -> u64 {
    static FROM_ENV: OnceLock<u64> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        let value = std::env::var("DCMESH_COMM_DEADLINE_MS").unwrap_or_default();
        parse_deadline_ms(&value).unwrap_or_else(|msg| {
            // A message, not an unwind: a closed stderr must not panic here.
            let _ = writeln!(std::io::stderr(), "{msg}");
            DEFAULT_DEADLINE_MS
        })
    })
}

/// The communicator world; spawns one OS thread per rank.
#[derive(Debug)]
pub struct World;

impl World {
    /// Run `f` on `nranks` ranks in parallel and return each rank's result,
    /// ordered by rank id. Panics in any rank propagate.
    ///
    /// ```
    /// use dcmesh_comm::{NetworkModel, World};
    /// let from_prev = World::run(4, NetworkModel::ideal(), |rank| {
    ///     let (me, n) = (rank.id(), rank.size());
    ///     rank.isend((me + 1) % n, 0, &[me as f64]).wait();
    ///     rank.recv((me + n - 1) % n, 0)[0]
    /// });
    /// assert_eq!(from_prev, vec![3.0, 0.0, 1.0, 2.0]); // around the ring
    /// ```
    pub fn run<T, F>(nranks: usize, net: NetworkModel, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Sync,
    {
        Self::try_run(nranks, net, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the `nranks` connected endpoints of a world *without*
    /// spawning threads. Each returned [`Rank`] is `Send` and owns its
    /// transport, so the caller controls thread creation — the hook the
    /// `analyze::sched` model checks use to run the real request
    /// machinery under `dcmesh_analyze::sync::spawn_named`.
    pub fn endpoints(nranks: usize, net: NetworkModel) -> Vec<Rank> {
        assert!(nranks >= 1, "need at least one rank");
        let mailboxes: Vec<Arc<Mailbox>> =
            (0..nranks).map(|_| Arc::new(Mailbox::default())).collect();
        let ctrl = Arc::new(WorldCtrl::new(nranks));
        let deadline_ms = deadline_from_env();
        (0..nranks)
            .map(|id| Rank {
                id,
                size: nranks,
                inbox: Arc::clone(&mailboxes[id]),
                outboxes: mailboxes.clone(),
                pending: Vec::new(),
                clock: 0.0,
                net: net.clone(),
                ctrl: Arc::clone(&ctrl),
                deadline_ms,
                overlap: OverlapStats::default(),
            })
            .collect()
    }

    /// Like [`World::run`], but rank failures are reported instead of
    /// propagated: if any rank panics (a failed receive is a panic too),
    /// the returned [`WorldError`] names every failed rank with its panic
    /// message. A survivor blocked on a dead peer fails its receive within
    /// one poll interval, naming the dead rank, rather than deadlocking.
    pub fn try_run<T, F>(nranks: usize, net: NetworkModel, f: F) -> Result<Vec<T>, WorldError>
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Sync,
    {
        let ranks = Self::endpoints(nranks, net);
        let ctrl = Arc::clone(&ranks[0].ctrl);
        let f_ref = &f;
        let results: Vec<Option<T>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranks
                .into_iter()
                .map(|mut rank| {
                    let ctrl = Arc::clone(&ctrl);
                    scope.spawn(move || {
                        let id = rank.id;
                        match catch_unwind(AssertUnwindSafe(|| f_ref(&mut rank))) {
                            Ok(t) => Some(t),
                            Err(payload) => {
                                // The failure flag is published before
                                // `rank` drops (closing its inbox), so
                                // peers that see the closed box also see
                                // which rank died.
                                ctrl.mark_failed(id, panic_reason(payload.as_ref()));
                                None
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread join"))
                .collect()
        });
        let failures = ctrl.failures();
        if failures.is_empty() {
            Ok(results
                .into_iter()
                .map(|t| t.expect("rank with no failure returns a value"))
                .collect())
        } else {
            Err(WorldError { failures })
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Handle for a posted send. Sends are eagerly buffered (the mailbox is
/// unbounded), so the request is complete the moment it is posted; the
/// handle exists so send/receive code reads symmetrically and so a future
/// rendezvous transport has a place to block.
#[derive(Debug)]
#[must_use = "a send request should be waited on (wait is free for buffered sends)"]
pub struct SendRequest(());

impl SendRequest {
    /// Complete the send. Trivial for the buffered transport.
    pub fn wait(self) {}
}

/// Handle for a posted receive. Created by [`Rank::irecv`]; consumed by
/// [`Rank::wait`] and [`Rank::wait_all`], which perform the modeled-clock
/// settlement. The post captures the rank's clock, so the settlement can
/// split the transfer into hidden and stalled time (see [`OverlapStats`]).
#[derive(Debug)]
#[must_use = "an unwaited receive leaves its message (and modeled time) unclaimed"]
pub struct RecvRequest {
    from: usize,
    tag: u64,
    posted_clock: f64,
}

/// Per-rank accounting of how much modeled communication time was hidden
/// behind compute versus exposed as a stall at a wait point.
///
/// For one receive posted at clock `t_post`, waited on at `t_wait`, with
/// modeled arrival `t_arr` (sender clock + p2p time):
///
/// * `span_s` accumulates `max(0, t_arr - t_post)` — the transfer's
///   in-flight window,
/// * `hidden_s` accumulates `max(0, min(t_wait, t_arr) - t_post)` — the
///   part of that window the rank spent computing,
/// * `wait_s` accumulates `max(0, t_arr - t_wait)` — the exposed stall
///   (what `MPI_Wait` would block for).
///
/// Blocking receives have `t_post == t_wait`, so they hide nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OverlapStats {
    /// Receives settled (blocking and nonblocking).
    pub receives: u64,
    /// Total exposed stall time at wait points, seconds.
    pub wait_s: f64,
    /// Total in-flight transfer window, seconds.
    pub span_s: f64,
    /// Portion of the transfer window hidden behind compute, seconds.
    pub hidden_s: f64,
}

impl OverlapStats {
    /// Fraction of the modeled transfer window hidden behind compute, in
    /// `[0, 1]`; zero when nothing was in flight.
    pub fn overlap_ratio(&self) -> f64 {
        if self.span_s > 0.0 {
            (self.hidden_s / self.span_s).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Settle one receive posted at clock `posted`, waited on at `wait`,
    /// whose message arrives at `arrival`: account it as above and return
    /// the clock the wait leaves at, `max(wait, arrival)`.
    pub fn settle(&mut self, posted: f64, wait: f64, arrival: f64) -> f64 {
        self.receives += 1;
        self.wait_s += (arrival - wait).max(0.0);
        self.span_s += (arrival - posted).max(0.0);
        self.hidden_s += (wait.min(arrival) - posted).max(0.0);
        wait.max(arrival)
    }

    /// Accumulate another rank's stats (for world-level aggregation).
    pub fn merge(&mut self, other: &OverlapStats) {
        self.receives += other.receives;
        self.wait_s += other.wait_s;
        self.span_s += other.span_s;
        self.hidden_s += other.hidden_s;
    }
}

/// One rank's endpoint: identity, point-to-point plumbing and the
/// simulated clock.
pub struct Rank {
    id: usize,
    size: usize,
    /// This rank's own mailbox (closed when the endpoint drops).
    inbox: Arc<Mailbox>,
    /// Every rank's mailbox, indexed by rank id (the send fabric).
    outboxes: Vec<Arc<Mailbox>>,
    pending: Vec<Message>,
    clock: f64,
    net: NetworkModel,
    ctrl: Arc<WorldCtrl>,
    deadline_ms: u64,
    /// Hidden-vs-stalled communication time accounting.
    overlap: OverlapStats,
}

impl std::fmt::Debug for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rank")
            .field("id", &self.id)
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}

impl Drop for Rank {
    fn drop(&mut self) {
        // Closing the inbox turns sends to a gone rank into failures
        // instead of silent buffering; already-queued messages stay
        // deliverable (not that a dropped endpoint will read them).
        self.inbox.close();
    }
}

impl Rank {
    /// This rank's id in `0..size()`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Simulated wall-clock of this rank, seconds.
    pub fn time(&self) -> f64 {
        self.clock
    }

    /// Add local compute time to the simulated clock.
    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "cannot advance clock backwards");
        self.clock += seconds;
    }

    /// Network model in use.
    pub fn network(&self) -> &NetworkModel {
        &self.net
    }

    /// This rank's hidden-vs-stalled communication accounting so far.
    pub fn overlap(&self) -> OverlapStats {
        self.overlap
    }

    /// Override the receive deadline for this rank (tests mostly).
    pub fn set_deadline_ms(&mut self, ms: u64) {
        assert!(ms >= POLL_MS, "deadline below poll granularity");
        self.deadline_ms = ms;
    }

    /// Panic with a structured comm failure; `World` converts the panic
    /// into a [`WorldError`] entry instead of a deadlock.
    fn escalate(&self, e: CommError) -> ! {
        panic!("communication failure on rank {}: {e}", self.id)
    }

    fn channel_error(&self) -> CommError {
        match self.ctrl.first_failed() {
            Some(rank) => CommError::RankFailed { rank },
            None => CommError::Disconnected,
        }
    }

    /// Enqueue `msg` at rank `to`. A closed peer inbox means the peer is
    /// gone: if any rank has *failed*, that is an error the sender must
    /// see; if the peer simply exited cleanly (it already received
    /// everything it wanted), the buffered send completes locally and the
    /// payload is dropped, as a real fabric would once the receiver has
    /// finalized.
    fn push_to(&self, to: usize, msg: Message) -> Result<(), CommError> {
        match self.outboxes[to].push(msg) {
            Ok(()) => Ok(()),
            Err(()) => match self.ctrl.first_failed() {
                Some(rank) => Err(CommError::RankFailed { rank }),
                None => Ok(()),
            },
        }
    }

    /// Post a send of `payload` to rank `to` with `tag` and return its
    /// request handle. Buffered transport: the send is complete at post,
    /// so [`SendRequest::wait`] is free. Panics on a dead peer.
    pub fn isend(&self, to: usize, tag: u64, payload: &[f64]) -> SendRequest {
        let msg = Message {
            from: self.id,
            tag,
            payload: payload.to_vec(),
            clock: self.clock,
        };
        if let Err(e) = self.push_to(to, msg) {
            self.escalate(e);
        }
        SendRequest(())
    }

    /// Blocking selective receive from rank `from` with matching `tag`:
    /// an [`Rank::irecv`] waited on immediately (post clock == wait clock,
    /// so nothing is hidden). Advances the clock to the modeled arrival
    /// time. Panics on peer failure or deadline expiry.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        let req = self.irecv(from, tag);
        self.wait(req)
    }

    /// Post a selective receive and return its request handle. The rank's
    /// current clock is captured as the post time; compute advanced before
    /// the matching [`Rank::wait`] overlaps the modeled transfer.
    pub fn irecv(&mut self, from: usize, tag: u64) -> RecvRequest {
        RecvRequest {
            from,
            tag,
            posted_clock: self.clock,
        }
    }

    /// Complete a posted receive, returning its payload: receive the
    /// matching message, charge the modeled transfer to the clock, and
    /// split it into hidden vs stalled time. A peer that died after the
    /// post, or a deadline that expired, panics (structured) here.
    pub fn wait(&mut self, req: RecvRequest) -> Vec<f64> {
        let msg = match self.recv_raw(req.from, req.tag) {
            Ok(msg) => msg,
            Err(e) => self.escalate(e),
        };
        let arrival = msg.clock + self.net.p2p_time(msg.payload.len() * 8, req.from, self.id);
        self.clock = self.overlap.settle(req.posted_clock, self.clock, arrival);
        msg.payload
    }

    /// Complete a batch of posted receives in order, returning their
    /// payloads. Panics (structured) on the first failure.
    pub fn wait_all(&mut self, reqs: Vec<RecvRequest>) -> Vec<Vec<f64>> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Take the first pending message matching `(from, tag)`, if any.
    fn claim_pending(&mut self, from: usize, tag: u64) -> Option<Message> {
        self.pending
            .iter()
            .position(|m| m.from == from && m.tag == tag)
            .map(|pos| self.pending.remove(pos))
    }

    /// Deadline-bounded selective receive. Polls in `POLL_MS` chunks:
    /// queued messages are drained first (data a rank sent before dying
    /// still delivers), then the failed-rank flags are checked, then one
    /// timed wait on the mailbox. The deadline accumulates from the
    /// timed-out chunks — no wall clock is read — and never fires under
    /// schedule exploration, where a stuck receive must surface as a
    /// detected deadlock instead.
    fn recv_raw(&mut self, from: usize, tag: u64) -> Result<Message, CommError> {
        if let Some(m) = self.claim_pending(from, tag) {
            return Ok(m);
        }
        let mut waited_ms: u64 = 0;
        loop {
            // Drain whatever is already queued before consulting failure
            // flags, so delivered-then-died messages win.
            let mut found = None;
            for m in self.inbox.drain() {
                if found.is_none() && m.from == from && m.tag == tag {
                    found = Some(m);
                } else {
                    self.pending.push(m);
                }
            }
            if let Some(m) = found {
                return Ok(m);
            }
            if let Some(rank) = self.ctrl.first_failed() {
                return Err(CommError::RankFailed { rank });
            }
            match self.inbox.wait_nonempty(Duration::from_millis(POLL_MS)) {
                WaitOutcome::Ready => {}
                WaitOutcome::TimedOut => {
                    waited_ms += POLL_MS;
                    if waited_ms >= self.deadline_ms {
                        return Err(CommError::Timeout {
                            from,
                            tag,
                            waited_ms,
                        });
                    }
                }
                WaitOutcome::Closed => return Err(self.channel_error()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_values_parse_or_say_why_not() {
        assert_eq!(parse_deadline_ms(""), Ok(DEFAULT_DEADLINE_MS));
        assert_eq!(parse_deadline_ms("60000"), Ok(60000));
        assert_eq!(parse_deadline_ms(" 250\n"), Ok(250));
        for bad in ["abc", "-1", "1.5", "0"] {
            let msg = parse_deadline_ms(bad).expect_err(bad);
            assert!(msg.contains(bad) && msg.contains("5000"), "{msg}");
        }
    }

    #[test]
    fn point_to_point_ring() {
        let n = 6;
        let out = World::run(n, NetworkModel::slingshot11(), |r| {
            let next = (r.id() + 1) % n;
            let prev = (r.id() + n - 1) % n;
            r.isend(next, 7, &[r.id() as f64]).wait();
            let got = r.recv(prev, 7);
            got[0] as usize
        });
        for (id, got) in out.iter().enumerate() {
            assert_eq!(*got, (id + n - 1) % n);
        }
    }

    #[test]
    fn tags_demultiplex_out_of_order_sends() {
        let out = World::run(2, NetworkModel::ideal(), |r| {
            if r.id() == 0 {
                // Send tag 2 first, tag 1 second.
                r.isend(1, 2, &[2.0]).wait();
                r.isend(1, 1, &[1.0]).wait();
                vec![]
            } else {
                // Receive tag 1 first: must skip the tag-2 message.
                let a = r.recv(0, 1);
                let b = r.recv(0, 2);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0]);
    }

    #[test]
    fn irecv_wait_delivers_payload() {
        let out = World::run(2, NetworkModel::slingshot11(), |r| {
            if r.id() == 0 {
                r.isend(1, 4, &[2.5, -1.0]).wait();
                Vec::new()
            } else {
                let req = r.irecv(0, 4);
                r.wait(req)
            }
        });
        assert_eq!(out[1], vec![2.5, -1.0]);
    }

    #[test]
    fn posted_receive_overlaps_compute() {
        // Symmetric halo-style exchange: posting the exchange before the
        // 1 s compute slice hides the modeled transfer entirely
        // (max(compute, comm)); the blocking order stamps the send after
        // the slice and pays the sum.
        let face = vec![1.0; 1 << 17]; // 1 MiB
        let step = |overlap: bool| {
            let out = World::run(2, NetworkModel::slingshot11(), |r| {
                let peer = 1 - r.id();
                if overlap {
                    r.isend(peer, 9, &face).wait();
                    let req = r.irecv(peer, 9);
                    r.advance(1.0);
                    r.wait(req);
                } else {
                    r.advance(1.0);
                    r.isend(peer, 9, &face).wait();
                    r.recv(peer, 9);
                }
                (r.time(), r.overlap())
            });
            out[1]
        };
        let (t_overlap, s_overlap) = step(true);
        let (t_blocking, s_blocking) = step(false);
        // 1 MiB on-node at 600 GB/s ~ 2.1 us of modeled transfer.
        assert!((t_overlap - 1.0).abs() < 1e-9, "fully hidden: {t_overlap}");
        assert!(t_blocking > 1.000002, "blocking pays the sum: {t_blocking}");
        assert!(s_overlap.overlap_ratio() > 0.99, "{s_overlap:?}");
        assert_eq!(s_blocking.hidden_s, 0.0, "{s_blocking:?}");
        assert!(s_blocking.wait_s > 2e-6, "{s_blocking:?}");
    }

    #[test]
    fn exposed_stall_when_compute_is_short() {
        let out = World::run(2, NetworkModel::slingshot11(), |r| {
            if r.id() == 0 {
                r.isend(1, 9, &vec![1.0; 1 << 17]).wait(); // 1 MiB
                OverlapStats::default()
            } else {
                let req = r.irecv(0, 9);
                r.advance(1e-8); // far less than the ~2.1 us transfer
                r.wait(req);
                r.overlap()
            }
        });
        let s = out[1];
        assert!(s.wait_s > 2e-6, "stall must be exposed: {s:?}");
        assert!(s.hidden_s > 0.0 && s.hidden_s < s.span_s, "{s:?}");
    }

    #[test]
    fn wait_all_settles_in_order() {
        let n = 4;
        let out = World::run(n, NetworkModel::slingshot11(), |r| {
            let id = r.id();
            for to in 0..n {
                if to != id {
                    r.isend(to, 30 + id as u64, &[id as f64]).wait();
                }
            }
            let reqs: Vec<RecvRequest> = (0..n)
                .filter(|&from| from != id)
                .map(|from| r.irecv(from, 30 + from as u64))
                .collect();
            let got = r.wait_all(reqs);
            got.iter().map(|v| v[0] as usize).collect::<Vec<_>>()
        });
        for (id, got) in out.iter().enumerate() {
            let want: Vec<usize> = (0..n).filter(|&f| f != id).collect();
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn endpoints_work_without_world_threads() {
        let mut ranks = World::endpoints(2, NetworkModel::ideal());
        let r1 = ranks.pop().expect("rank 1");
        let mut r0 = ranks.pop().expect("rank 0");
        let h = dcmesh_analyze::sync::spawn_named("endpoint-sender", move || {
            let r1 = r1;
            r1.isend(0, 5, &[9.0]).wait();
        });
        let req = r0.irecv(1, 5);
        let got = r0.wait(req);
        assert_eq!(got, vec![9.0]);
        h.join().expect("sender thread");
    }
}
