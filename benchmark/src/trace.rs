//! Spans recorded by the benchmark's own code around calls into each
//! crate's public functions.
//!
//! The program under test is not instrumented here (`dcmesh_obs` stays
//! disabled); the harness stands outside it. It therefore cannot open a
//! span *inside* an `md_step`: it times the real operation as a parent
//! span and then replays that operation's phases, one call each, as child
//! spans. A child carries `count`, the number of times the parent performs
//! that call, and a span's self time is its duration minus
//! `duration x count` of each child. Spans stay in memory and are written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Identifier of a recorded span (its index).
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<crate>.<call>`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by all spans of one step or job.
    pub op: usize,
    /// Seconds since the recorder started.
    pub start_s: f64,
    pub end_s: f64,
    /// How many times the parent makes this call (1 for a parent).
    pub count: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the recorder started.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Time `f` as a span and return its result with the span's id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<SpanId>,
        count: f64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start_s = self.now_s();
        let out = f();
        let end_s = self.now_s();
        (out, self.push(name, op, parent, count, start_s, end_s))
    }

    /// Record an interval measured elsewhere (a job's `run_s` comes from
    /// its `JobOutcome`, not from a clock the harness held).
    pub fn push(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<SpanId>,
        count: f64,
        start_s: f64,
        end_s: f64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            op,
            start_s,
            end_s,
            count,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .collect()
    }

    /// Self time of every span, by span id: its duration minus
    /// `duration x count` of each of its children. It goes negative when
    /// the replayed children cost more than the parent did.
    fn own_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_s() * s.count;
            }
        }
        own
    }

    /// Self times grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.own_times()) {
            by_name.entry(s.name).or_default().push(t);
        }
        by_name
    }

    /// `(self time, duration)` of every span called `name` that has
    /// children — the spans whose phases were replayed.
    pub fn parents(&self, name: &str) -> impl Iterator<Item = (f64, f64)> + '_ {
        let mut has_children = vec![false; self.spans.len()];
        for p in self.spans.iter().filter_map(|s| s.parent) {
            has_children[p] = true;
        }
        let name = name.to_string();
        self.spans
            .iter()
            .zip(self.own_times())
            .zip(has_children)
            .filter(move |((s, _), parent)| *parent && s.name == name)
            .map(|((s, own), _)| (own, s.duration_s()))
    }

    /// Write every span to `path` as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.into())),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op", Json::Num(s.op as f64)),
                    ("start_s", Json::Num(s.start_s)),
                    ("end_s", Json::Num(s.end_s)),
                    ("count", Json::Num(s.count)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("workload", Json::Str(workload.into())),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_by_count() {
        let mut rec = Recorder::new();
        let step = rec.push("core.md_step", 0, None, 1.0, 0.0, 10.0);
        let lfd = rec.push("lfd.run_md_step", 0, Some(step), 2.0, 10.0, 14.0);
        rec.push("lfd.kinetic_step", 0, Some(lfd), 3.0, 14.0, 15.0);
        rec.push("qxmd.md_integrate", 0, Some(step), 1.0, 15.0, 16.5);
        let own = rec.self_times();
        // 10 - 2 x 4 - 1.5; 4 - 3 x 1; leaves keep their whole duration.
        assert_eq!(own["core.md_step"], vec![0.5]);
        assert_eq!(own["lfd.run_md_step"], vec![1.0]);
        assert_eq!(own["lfd.kinetic_step"], vec![1.0]);
        assert_eq!(own["qxmd.md_integrate"], vec![1.5]);
        assert_eq!(rec.durations("lfd.run_md_step"), vec![4.0]);
        // A step whose phases were not replayed is not a parent.
        rec.push("core.md_step", 1, None, 1.0, 20.0, 29.0);
        assert_eq!(
            rec.parents("core.md_step").collect::<Vec<_>>(),
            vec![(0.5, 10.0)]
        );
        assert_eq!(rec.parents("qxmd.md_integrate").count(), 0);
    }

    #[test]
    fn timed_spans_nest_and_share_the_operation_id() {
        let mut rec = Recorder::new();
        let ((), parent) = rec.time("core.md_step", 7, None, 1.0, || ());
        let (x, child) = rec.time("lfd.state_aos", 7, Some(parent), 2.0, || 41 + 1);
        assert_eq!(x, 42);
        let spans = rec.spans();
        assert_eq!(spans[child].parent, Some(parent));
        assert_eq!(spans[child].op, spans[parent].op);
        assert!(spans[child].start_s >= spans[parent].end_s);
        assert!(spans.iter().all(|s| s.duration_s() >= 0.0));
    }
}
