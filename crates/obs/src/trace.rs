//! Event model and the global collector.
//!
//! Every recording thread owns a thread-local buffer (an
//! `Arc<Mutex<Vec<Event>>>` registered once in a global list). Pushing an
//! event locks only the thread's own buffer — uncontended in steady state
//! — so pool workers never serialize on a shared sink. [`drain`] merges
//! all buffers and sorts by `(ts_us, seq)`, giving a globally ordered
//! timeline.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Which timeline an event belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Track {
    /// Host code, stamped by [`crate::clock`]; exported as pid 1.
    Host,
    /// Modeled accelerator activity on one stream; exported as pid 2 with
    /// the stream id as the thread lane.
    Device {
        /// Stream this event executed on.
        stream: u32,
    },
}

/// Shape of an event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span enter (`ph: "B"`).
    Begin,
    /// Span exit (`ph: "E"`).
    End,
    /// A complete slice with a known duration (`ph: "X"`).
    Complete,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

/// One trace event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Phase name, e.g. `"lfd.kinetic"`.
    pub name: Cow<'static, str>,
    /// Timeline this event belongs to.
    pub track: Track,
    /// Host thread ordinal (host track) or stream id (device track).
    pub thread: u32,
    /// Span id (0 = not a span event).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Timestamp, microseconds on the track's clock.
    pub ts_us: f64,
    /// Duration in microseconds ([`EventKind::Complete`] only).
    pub dur_us: f64,
    /// Event shape.
    pub kind: EventKind,
    /// Payload bytes, when the event models data movement (0 = none).
    pub bytes: u64,
    /// Global sequence number: total order among equal timestamps.
    pub seq: u64,
}

impl Event {
    /// A complete slice of `dur_us` starting at `ts_us`.
    pub fn complete(
        name: impl Into<Cow<'static, str>>,
        track: Track,
        ts_us: f64,
        dur_us: f64,
    ) -> Self {
        Self {
            name: name.into(),
            track,
            thread: match track {
                Track::Host => current_thread_ordinal(),
                Track::Device { stream } => stream,
            },
            id: 0,
            parent: 0,
            ts_us,
            dur_us,
            kind: EventKind::Complete,
            bytes: 0,
            seq: 0,
        }
    }

    /// Attach a byte payload (transfers, exchanges).
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Attach span identity.
    pub fn with_ids(mut self, id: u64, parent: u64) -> Self {
        self.id = id;
        self.parent = parent;
        self
    }

    /// Event shape override (Begin/End/Instant).
    pub fn with_kind(mut self, kind: EventKind) -> Self {
        self.kind = kind;
        self
    }
}

type Buffer = Arc<Mutex<Vec<Event>>>;

fn registry() -> &'static Mutex<Vec<Buffer>> {
    static REGISTRY: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: (Buffer, u32) = {
        let buf: Buffer = Arc::new(Mutex::new(Vec::new()));
        registry().lock().unwrap_or_else(|e| e.into_inner()).push(buf.clone());
        let ordinal = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) as u32;
        (buf, ordinal)
    };
}

/// Ordinal of the calling thread (stable per thread, assigned on first
/// recording; used as the chrome-trace `tid` for host events).
pub fn current_thread_ordinal() -> u32 {
    LOCAL.with(|(_, ord)| *ord)
}

/// Record one event into the calling thread's buffer. Callers are
/// expected to check [`crate::enabled`] first; this function records
/// unconditionally.
pub fn record(mut ev: Event) {
    ev.seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|(buf, _)| buf.lock().unwrap_or_else(|e| e.into_inner()).push(ev));
}

/// Merge every thread's buffer into one timeline ordered by
/// `(ts_us, seq)`, leaving the buffers empty.
pub fn drain() -> Vec<Event> {
    let bufs: Vec<Buffer> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut all: Vec<Event> = Vec::new();
    for b in bufs {
        all.append(&mut b.lock().unwrap_or_else(|e| e.into_inner()));
    }
    all.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us).then_with(|| a.seq.cmp(&b.seq)));
    all
}

/// Discard all buffered events.
pub fn clear() {
    let bufs: Vec<Buffer> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    for b in bufs {
        b.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}
