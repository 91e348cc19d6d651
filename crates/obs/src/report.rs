//! Aggregation over a drained event timeline: flat per-phase totals (for
//! the `--report` table) and span-tree reconstruction (for tests and
//! hierarchy-aware consumers).

use std::collections::BTreeMap;

use crate::trace::{Event, EventKind, Track};

/// Flat totals for one phase name on one track.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseAgg {
    /// Phase name, e.g. `"lfd.kinetic"`.
    pub name: String,
    /// `"host"` or `"device"`.
    pub track: &'static str,
    /// Completed occurrences (Begin/End pairs plus Complete slices).
    pub count: u64,
    /// Total time in seconds.
    pub total_s: f64,
    /// Total payload bytes attached to the occurrences.
    pub bytes: u64,
}

fn track_label(track: Track) -> &'static str {
    match track {
        Track::Host => "host",
        Track::Device { .. } => "device",
    }
}

/// Aggregate per `(name, track)`: Complete slices contribute their
/// duration directly; Begin/End pairs are matched by span id. Unpaired
/// Begins (spans still open at drain) are ignored. Sorted by track then
/// name.
pub fn aggregate(events: &[Event]) -> Vec<PhaseAgg> {
    let mut begin_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut agg: BTreeMap<(&'static str, String), (u64, f64, u64)> = BTreeMap::new();
    let mut add = |track: &'static str, name: &str, dur_us: f64, bytes: u64| {
        let slot = agg.entry((track, name.to_string())).or_insert((0, 0.0, 0));
        slot.0 += 1;
        slot.1 += dur_us;
        slot.2 += bytes;
    };
    for ev in events {
        match ev.kind {
            EventKind::Complete => add(track_label(ev.track), &ev.name, ev.dur_us, ev.bytes),
            EventKind::Begin => {
                begin_ts.insert(ev.id, ev.ts_us);
            }
            EventKind::End => {
                if let Some(t0) = begin_ts.remove(&ev.id) {
                    add(track_label(ev.track), &ev.name, ev.ts_us - t0, ev.bytes);
                }
            }
            EventKind::Instant => {}
        }
    }
    agg.into_iter()
        .map(|((track, name), (count, dur_us, bytes))| PhaseAgg {
            name,
            track,
            count,
            total_s: dur_us * 1e-6,
            bytes,
        })
        .collect()
}

/// One reconstructed span.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Span id.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Enter timestamp (µs).
    pub start_us: f64,
    /// Duration (µs); 0 if the span never closed.
    pub dur_us: f64,
}

/// The span hierarchy recovered from a merged timeline.
#[derive(Clone, Debug, Default)]
pub struct SpanTree {
    /// All spans, in Begin order.
    pub nodes: Vec<SpanNode>,
}

impl SpanTree {
    /// Rebuild the tree from drained events, linking Begin/End pairs by
    /// span id. Works regardless of which thread recorded which event —
    /// that is the property the cross-thread nesting test pins down.
    pub fn build(events: &[Event]) -> Self {
        let mut nodes: Vec<SpanNode> = Vec::new();
        let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
        for ev in events {
            match ev.kind {
                EventKind::Begin => {
                    by_id.insert(ev.id, nodes.len());
                    nodes.push(SpanNode {
                        name: ev.name.to_string(),
                        id: ev.id,
                        parent: ev.parent,
                        start_us: ev.ts_us,
                        dur_us: 0.0,
                    });
                }
                EventKind::End => {
                    if let Some(&i) = by_id.get(&ev.id) {
                        nodes[i].dur_us = ev.ts_us - nodes[i].start_us;
                    }
                }
                _ => {}
            }
        }
        Self { nodes }
    }

    /// The span with the given id.
    pub fn node(&self, id: u64) -> Option<&SpanNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// All spans with the given name.
    pub fn named(&self, name: &str) -> Vec<&SpanNode> {
        self.nodes.iter().filter(|n| n.name == name).collect()
    }

    /// Ids of the direct children of `id`.
    pub fn children_of(&self, id: u64) -> Vec<u64> {
        self.nodes
            .iter()
            .filter(|n| n.parent == id)
            .map(|n| n.id)
            .collect()
    }
}
