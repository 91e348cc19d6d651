//! Hierarchical span guards.
//!
//! [`SpanGuard::new`] emits a [`EventKind::Begin`] event and pushes its id
//! onto a thread-local stack; dropping the guard pops the stack and emits
//! the matching [`EventKind::End`]. Nesting within one thread is therefore
//! automatic. Across threads (pool workers have empty stacks) pass the
//! parent explicitly: `span!("phase", parent = outer.id())` — the merge in
//! [`crate::trace::drain`] preserves the `id`/`parent` links, so the tree
//! reconstructed by [`crate::report::SpanTree`] is correct regardless of
//! which thread ran which child.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::trace::{self, Event, EventKind, Track};
use crate::{clock, enabled};

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Id of the innermost span open on this thread (0 = none).
pub fn current_span_id() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// RAII guard for one span. Inert (a single relaxed load was paid, nothing
/// else) when the collector is disabled.
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard").finish_non_exhaustive()
    }
}

struct LiveSpan {
    name: Cow<'static, str>,
    id: u64,
}

impl SpanGuard {
    /// Open a span whose parent is the innermost span on this thread.
    pub fn new(name: impl Into<Cow<'static, str>>) -> Self {
        if !enabled() {
            return Self { live: None };
        }
        Self::open(name.into(), current_span_id())
    }

    /// Open a span with an explicit parent id — the cross-thread form for
    /// pool workers, whose local stacks are empty.
    pub fn with_parent(name: impl Into<Cow<'static, str>>, parent: u64) -> Self {
        if !enabled() {
            return Self { live: None };
        }
        Self::open(name.into(), parent)
    }

    fn open(name: Cow<'static, str>, parent: u64) -> Self {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        trace::record(
            Event::complete(name.clone(), Track::Host, clock::now_us(), 0.0)
                .with_kind(EventKind::Begin)
                .with_ids(id, parent),
        );
        Self {
            live: Some(LiveSpan { name, id }),
        }
    }

    /// This span's id (0 when the collector was disabled at creation).
    /// Hand this to children spawned on other threads.
    pub fn id(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            STACK.with(|s| {
                let mut st = s.borrow_mut();
                // Pop our own id; guards drop in LIFO order per thread, so
                // this is the top unless a guard was leaked via mem::forget.
                if let Some(pos) = st.iter().rposition(|&x| x == live.id) {
                    st.remove(pos);
                }
            });
            trace::record(
                Event::complete(live.name, Track::Host, clock::now_us(), 0.0)
                    .with_kind(EventKind::End)
                    .with_ids(live.id, 0),
            );
        }
    }
}

/// Open a [`SpanGuard`]: `span!("lfd.kinetic")`, or with an explicit
/// cross-thread parent: `span!("lfd.kinetic", parent = outer_id)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::new($name)
    };
    ($name:expr, parent = $parent:expr) => {
        $crate::span::SpanGuard::with_parent($name, $parent)
    };
}
