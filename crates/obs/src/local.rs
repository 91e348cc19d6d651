//! Explicitly-owned phase recording for code that must report timings
//! whether or not the global collector is on.
//!
//! `LfdEngine::run_md_step` has always returned `KernelTimings`; with the
//! span layer those numbers become *views over recorded slices* instead
//! of hand-threaded accumulators. A [`StepRecorder`] owns those slices:
//! it records unconditionally (its cost is borne by the caller that wants
//! the numbers), and [`StepRecorder::flush`] forwards the slices to the
//! global collector — only if tracing is enabled — so the same data backs
//! both the legacy return value and the exported trace. Agreement between
//! the two is exact by construction.

use std::borrow::Cow;

use crate::trace::{self, Event, Track};
use crate::{clock, enabled};

/// One recorded phase slice.
#[derive(Clone, Debug)]
pub struct Slice {
    /// Phase name.
    pub name: Cow<'static, str>,
    /// Track the slice belongs to.
    pub track: Track,
    /// Start timestamp (µs, on the track's clock).
    pub start_us: f64,
    /// Duration (µs).
    pub dur_us: f64,
    /// Payload bytes (transfers), 0 otherwise.
    pub bytes: u64,
}

/// An always-on, caller-owned slice buffer.
#[derive(Clone, Debug, Default)]
pub struct StepRecorder {
    slices: Vec<Slice>,
}

impl StepRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder with room for `slices` slices.
    pub fn with_capacity(slices: usize) -> Self {
        Self {
            slices: Vec::with_capacity(slices),
        }
    }

    /// Record a slice with explicit timing (modeled device phases).
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        track: Track,
        start_us: f64,
        dur_us: f64,
    ) {
        self.slices.push(Slice {
            name: name.into(),
            track,
            start_us,
            dur_us,
            bytes: 0,
        });
    }

    /// Record a host slice of `dur_s` seconds ending now.
    pub fn record_host_seconds(&mut self, name: impl Into<Cow<'static, str>>, dur_s: f64) {
        let dur_us = dur_s * 1e6;
        let end = clock::now_us();
        self.record(name, Track::Host, (end - dur_us).max(0.0), dur_us);
    }

    /// Attach bytes to the most recently recorded slice.
    pub fn tag_bytes(&mut self, bytes: u64) {
        if let Some(last) = self.slices.last_mut() {
            last.bytes += bytes;
        }
    }

    /// The recorded slices.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// Total seconds recorded under `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        // `+ 0.0` normalizes the empty sum: f64's Sum identity is -0.0,
        // which would otherwise leak into reports as "-0.0000".
        self.slices
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum::<f64>()
            * 1e-6
            + 0.0
    }

    /// Forward every slice to the global collector as a Complete event —
    /// a no-op when tracing is disabled.
    pub fn flush(&self) {
        if !enabled() {
            return;
        }
        for s in &self.slices {
            trace::record(
                Event::complete(s.name.clone(), s.track, s.start_us, s.dur_us).with_bytes(s.bytes),
            );
        }
    }
}
