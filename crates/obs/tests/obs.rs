//! Integration tests for the observability layer: cross-thread span
//! nesting, the disabled fast path, and Chrome-trace JSON round-tripping.

use std::sync::{Mutex, MutexGuard, OnceLock};

use dcmesh_obs::clock::{self, ClockMode};
use dcmesh_obs::json::Json;
use dcmesh_obs::report::{aggregate, SpanTree};
use dcmesh_obs::{chrome, span, trace, Event, Track};

/// The collector is global state; serialize the tests that touch it.
fn collector_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn fresh_deterministic_collector() {
    dcmesh_obs::reset();
    clock::set_mode(ClockMode::Counter { step_us: 10 });
    dcmesh_obs::enable();
}

#[test]
fn span_nesting_survives_cross_thread_merge() {
    let _guard = collector_lock();
    fresh_deterministic_collector();

    let step = span!("sim.step");
    let step_id = step.id();
    assert_ne!(step_id, 0);
    // Children run on other threads, whose thread-local span stacks are
    // empty — the explicit-parent form carries the hierarchy across.
    std::thread::scope(|s| {
        for i in 0..6usize {
            s.spawn(move || {
                let domain = span!("sim.domain", parent = step_id);
                let inner = span!(format!("sim.domain.kernel{i}"), parent = domain.id());
                drop(inner);
            });
        }
    });
    drop(step);
    dcmesh_obs::disable();

    let tree = SpanTree::build(&trace::drain());
    let root = tree.named("sim.step");
    assert_eq!(root.len(), 1);
    let domains = tree.named("sim.domain");
    assert_eq!(domains.len(), 6);
    // Every domain child attaches to the step, not to whatever happened
    // to run on the same worker thread.
    for d in &domains {
        assert_eq!(d.parent, root[0].id, "domain attached to wrong parent");
    }
    // Each kernel attaches to exactly one domain, and every domain has
    // exactly one kernel child.
    for d in &domains {
        assert_eq!(tree.children_of(d.id).len(), 1);
    }
    // All spans closed: durations are recorded (counter clock advances
    // 10 µs per read, so every span is at least one tick long).
    for n in &tree.nodes {
        assert!(n.dur_us > 0.0, "span {} never closed", n.name);
    }
}

#[test]
fn disabled_collector_emits_nothing() {
    let _guard = collector_lock();
    dcmesh_obs::reset(); // leaves the collector disabled

    {
        let outer = span!("should.not.appear");
        assert_eq!(outer.id(), 0, "disabled spans must not allocate ids");
        let _inner = span!("nor.this", parent = outer.id());
    }

    assert!(
        trace::drain().is_empty(),
        "disabled collector buffered events"
    );
}

#[test]
fn chrome_trace_roundtrips_with_monotonic_timestamps() {
    let _guard = collector_lock();
    fresh_deterministic_collector();

    {
        let _outer = span!("phase.outer");
        let _inner = span!("phase.inner");
    }
    // Device-track slices with modeled timestamps, deliberately recorded
    // out of order: drain() must still produce an ordered timeline.
    trace::record(Event::complete(
        "device.kernel",
        Track::Device { stream: 1 },
        500.0,
        120.0,
    ));
    trace::record(
        Event::complete("device.h2d", Track::Device { stream: 0 }, 10.0, 40.0).with_bytes(1 << 20),
    );
    dcmesh_obs::disable();

    let events = trace::drain();
    let doc = chrome::chrome_trace(&events);
    let text = doc.to_string();
    let parsed = Json::parse(&text).expect("exporter must emit valid JSON");
    assert_eq!(parsed, doc, "serialize/parse must round-trip");

    let items = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
    // Skip the two metadata records, then demand monotonic timestamps.
    let ts: Vec<f64> = items
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
        .map(|e| e.get("ts").and_then(Json::as_num).unwrap())
        .collect();
    assert!(ts.len() >= 6);
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "timestamps out of order: {ts:?}"
    );
    // Both tracks are present, and the byte tag survived.
    let pids: std::collections::BTreeSet<i64> = items
        .iter()
        .map(|e| e.get("pid").and_then(Json::as_num).unwrap() as i64)
        .collect();
    assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    let h2d = items
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("device.h2d"))
        .unwrap();
    let bytes = h2d
        .get("args")
        .and_then(|a| a.get("bytes"))
        .and_then(Json::as_num);
    assert_eq!(bytes, Some((1 << 20) as f64));

    // The aggregate view sees both host spans and device slices.
    let agg = aggregate(&events);
    let names: Vec<&str> = agg.iter().map(|a| a.name.as_str()).collect();
    assert!(names.contains(&"phase.outer"));
    assert!(names.contains(&"phase.inner"));
    assert!(names.contains(&"device.kernel"));
}
