//! Device handle, stream timelines, and launch policies.
//!
//! Models the host/device timing relationship of OpenMP `target` offload:
//! a **synchronous** launch blocks the host until the kernel completes,
//! while a **`nowait`** launch only charges the host the launch overhead and
//! lets kernels on different streams overlap (paper §III-C and the Table I
//! `nowait` ablation, where asynchronous offloading gains ~10%).
//!
//! The real computation inside a launch **usually** executes immediately on
//! the CPU, with the *modeled clock* distinguishing policies. The exception
//! is [`Device::nowait_scope`]: inside a scope, `Async` launches enqueue
//! their body on a persistent per-stream FIFO lane (a `dcmesh_pool::Lane`
//! thread) and return immediately — genuine host/"device" overlap, not just
//! a modeled one. Deferred bodies are settled (run to completion) at
//! [`Device::synchronize`] or at scope exit, whichever comes first, so
//! borrows captured by deferred bodies never outlive their data — the same
//! guarantee `std::thread::scope` gives.

use crate::perf::{HardwareSpec, KernelWork, TransferKind};
use dcmesh_analyze::sync::Mutex;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Identifier of a device stream (CUDA-stream analog).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct StreamId(pub usize);

/// How a kernel launch interacts with the host clock.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LaunchPolicy {
    /// Host blocks until the kernel finishes (no `nowait`).
    Sync,
    /// Host continues after paying launch overhead (`nowait`); work lands on
    /// the stream's timeline and is settled at the next synchronize.
    Async,
}

/// Cumulative statistics of a device's modeled activity.
#[derive(Clone, Debug, Default)]
pub struct DeviceStats {
    /// Kernel launches issued.
    pub kernels_launched: u64,
    /// Total modeled kernel busy time (sum over streams), seconds.
    pub kernel_busy: f64,
    /// Host-to-device transfers issued.
    pub h2d_transfers: u64,
    /// Device-to-host transfers issued.
    pub d2h_transfers: u64,
    /// Bytes moved host->device.
    pub h2d_bytes: u64,
    /// Bytes moved device->host.
    pub d2h_bytes: u64,
    /// Total modeled transfer time, seconds.
    pub transfer_time: f64,
    /// Currently mapped (device-resident) bytes.
    pub resident_bytes: u64,
    /// High-water mark of mapped bytes.
    pub peak_resident_bytes: u64,
    /// enter-data mappings performed.
    pub maps: u64,
    /// exit-data unmappings performed.
    pub unmaps: u64,
}

#[derive(Debug)]
struct DeviceInner {
    host_clock: f64,
    streams: Vec<f64>, // busy-until per stream
    stats: DeviceStats,
}

/// A simulated accelerator with a roofline [`HardwareSpec`], per-stream
/// timelines, and residency accounting. Cheap to clone (shared state).
#[derive(Clone, Debug)]
pub struct Device {
    spec: Arc<HardwareSpec>,
    inner: Arc<Mutex<DeviceInner>>,
    /// Per-stream FIFO executor threads for deferred (`nowait`) bodies,
    /// created lazily on first deferred launch per stream.
    lanes: Arc<Mutex<Vec<Option<dcmesh_pool::Lane>>>>,
}

impl Device {
    /// Create a device with `num_streams` streams.
    pub fn new(spec: HardwareSpec, num_streams: usize) -> Self {
        assert!(num_streams >= 1, "need at least one stream");
        Self {
            spec: Arc::new(spec),
            inner: Arc::new(Mutex::new(DeviceInner {
                host_clock: 0.0,
                streams: vec![0.0; num_streams],
                stats: DeviceStats::default(),
            })),
            lanes: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Default A100-like device with 4 streams.
    pub fn a100() -> Self {
        Self::new(HardwareSpec::a100(), 4)
    }

    /// The hardware description backing this device.
    pub fn spec(&self) -> &HardwareSpec {
        &self.spec
    }

    /// Launch a kernel: executes `body` immediately (real compute), charges
    /// the modeled roofline time to `stream` under the given policy.
    /// Returns the value produced by `body`.
    ///
    /// Timing semantics mirror OpenMP target offload: a **synchronous**
    /// launch blocks the host until the kernel completes *and* pays the
    /// full launch/synchronization overhead each time; an **asynchronous**
    /// (`nowait`) launch only pays a small enqueue cost, so back-to-back
    /// kernels on one stream run with no host-side gaps — exactly the
    /// ~10% gain the paper's Table I `nowait` ablation measures.
    pub fn launch<T>(
        &self,
        stream: StreamId,
        policy: LaunchPolicy,
        work: KernelWork,
        body: impl FnOnce() -> T,
    ) -> T {
        self.launch_named("device.kernel", stream, policy, work, body)
    }

    /// [`Device::launch`] with a phase name for the trace: the modeled
    /// kernel slice lands on the device track under `name`, tagged with
    /// its stream and roofline duration.
    pub fn launch_named<T>(
        &self,
        name: &'static str,
        stream: StreamId,
        policy: LaunchPolicy,
        work: KernelWork,
        body: impl FnOnce() -> T,
    ) -> T {
        let out = body();
        self.charge_kernel(name, stream, policy, work);
        out
    }

    /// Advance the modeled clock for one kernel launch (shared by immediate
    /// and deferred launches — the timeline model is identical; only *when
    /// the body actually runs* differs).
    fn charge_kernel(
        &self,
        name: &'static str,
        stream: StreamId,
        policy: LaunchPolicy,
        work: KernelWork,
    ) {
        let dt = self.spec.kernel_time(&work);
        let start;
        {
            let mut g = self.inner.lock();
            start = g.host_clock.max(g.streams[stream.0]);
            let end = start + dt;
            g.streams[stream.0] = end;
            g.stats.kernels_launched += 1;
            g.stats.kernel_busy += dt;
            match policy {
                LaunchPolicy::Sync => g.host_clock = end + self.spec.launch_overhead,
                LaunchPolicy::Async => g.host_clock += self.spec.launch_overhead * 0.1,
            }
        }
        if dcmesh_obs::enabled() {
            dcmesh_obs::trace::record(dcmesh_obs::Event::complete(
                name,
                dcmesh_obs::Track::Device {
                    stream: stream.0 as u32,
                },
                start * 1e6,
                dt * 1e6,
            ));
            dcmesh_obs::metrics::counter_add("device.kernels_launched", 1);
        }
    }

    /// Enqueue an already-lifetime-erased task on `stream`'s FIFO lane,
    /// creating the lane thread on first use.
    fn enqueue_on_lane(&self, stream: StreamId, task: Box<dyn FnOnce() + Send + 'static>) {
        assert!(
            stream.0 < self.num_streams(),
            "stream {} out of range",
            stream.0
        );
        let mut lanes = self.lanes.lock();
        if lanes.len() <= stream.0 {
            lanes.resize_with(stream.0 + 1, || None);
        }
        let lane = lanes[stream.0]
            .get_or_insert_with(|| dcmesh_pool::Lane::new(&format!("dcmesh-lane-{}", stream.0)));
        lane.enqueue(task);
        if dcmesh_obs::enabled() {
            dcmesh_obs::metrics::counter_add("device.deferred_launches", 1);
        }
    }

    /// Run every enqueued deferred body to completion; returns the first
    /// captured panic payload, if any.
    fn drain_lanes(&self) -> Option<Box<dyn std::any::Any + Send + 'static>> {
        let lanes = self.lanes.lock();
        let mut panic = None;
        for lane in lanes.iter().flatten() {
            if let Some(p) = lane.wait_idle() {
                panic.get_or_insert(p);
            }
        }
        panic
    }

    /// Open a deferred-launch scope: inside `f`, [`NowaitScope::launch_named`]
    /// with [`LaunchPolicy::Async`] enqueues its body on the stream's
    /// persistent lane and returns immediately, so the host thread runs
    /// ahead of the "device" — the real overlap behind the paper's `nowait`
    /// ablation (Table I). All deferred bodies are settled before
    /// `nowait_scope` returns (even on panic), which is what lets them
    /// borrow data owned by the caller, exactly like `std::thread::scope`.
    pub fn nowait_scope<'env, T>(
        &'env self,
        f: impl for<'scope> FnOnce(&'scope NowaitScope<'scope, 'env>) -> T,
    ) -> T {
        let scope = NowaitScope {
            device: self,
            _scope: PhantomData,
            _env: PhantomData,
        };
        let out = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Settle before returning regardless of how `f` exited: deferred
        // bodies may borrow caller data that dies right after this frame.
        let lane_panic = self.drain_lanes();
        match out {
            Err(payload) => resume_unwind(payload),
            Ok(_) if lane_panic.is_some() => resume_unwind(lane_panic.unwrap()),
            Ok(v) => v,
        }
    }

    /// Record a host-to-device transfer of `bytes` over `kind`, on `stream`.
    pub fn transfer_h2d(&self, stream: StreamId, bytes: u64, kind: TransferKind) {
        self.transfer(stream, bytes, kind, true);
    }

    /// Record a device-to-host transfer of `bytes` over `kind`, on `stream`.
    pub fn transfer_d2h(&self, stream: StreamId, bytes: u64, kind: TransferKind) {
        self.transfer(stream, bytes, kind, false);
    }

    fn transfer(&self, stream: StreamId, bytes: u64, kind: TransferKind, h2d: bool) {
        let dt = self.spec.transfer_time(bytes, kind);
        let start;
        {
            let mut g = self.inner.lock();
            start = g.host_clock.max(g.streams[stream.0]);
            let end = start + dt;
            g.streams[stream.0] = end;
            // Transfers from pageable memory block the host; pinned + streams
            // overlap (this is exactly the §III-E optimization).
            match kind {
                TransferKind::Pageable => g.host_clock = end,
                TransferKind::Pinned | TransferKind::NvLink => {}
            }
            g.stats.transfer_time += dt;
            if h2d {
                g.stats.h2d_transfers += 1;
                g.stats.h2d_bytes += bytes;
            } else {
                g.stats.d2h_transfers += 1;
                g.stats.d2h_bytes += bytes;
            }
        }
        if dcmesh_obs::enabled() {
            let name = if h2d { "device.h2d" } else { "device.d2h" };
            dcmesh_obs::trace::record(
                dcmesh_obs::Event::complete(
                    name,
                    dcmesh_obs::Track::Device {
                        stream: stream.0 as u32,
                    },
                    start * 1e6,
                    dt * 1e6,
                )
                .with_bytes(bytes),
            );
            dcmesh_obs::metrics::counter_add(
                if h2d {
                    "device.h2d_bytes"
                } else {
                    "device.d2h_bytes"
                },
                bytes,
            );
        }
    }

    /// Block the host until all streams drain; returns the host clock.
    ///
    /// Also settles any deferred (`nowait`) bodies still queued on the
    /// stream lanes; a panic captured from a deferred body re-raises here.
    pub fn synchronize(&self) -> f64 {
        if let Some(payload) = self.drain_lanes() {
            resume_unwind(payload);
        }
        let max_end = {
            let mut g = self.inner.lock();
            let max_end = g.streams.iter().copied().fold(g.host_clock, f64::max);
            g.host_clock = max_end;
            max_end
        };
        if dcmesh_obs::enabled() {
            dcmesh_obs::trace::record(
                dcmesh_obs::Event::complete(
                    "device.synchronize",
                    dcmesh_obs::Track::Device { stream: 0 },
                    max_end * 1e6,
                    0.0,
                )
                .with_kind(dcmesh_obs::EventKind::Instant),
            );
        }
        max_end
    }

    /// Current modeled host clock (seconds), without synchronizing.
    pub fn host_clock(&self) -> f64 {
        self.inner.lock().host_clock
    }

    /// Snapshot of cumulative statistics.
    pub fn stats(&self) -> DeviceStats {
        self.inner.lock().stats.clone()
    }

    /// Reset the clock and statistics (not the residency bookkeeping).
    pub fn reset_clock(&self) {
        let mut g = self.inner.lock();
        g.host_clock = 0.0;
        for s in g.streams.iter_mut() {
            *s = 0.0;
        }
        let resident = g.stats.resident_bytes;
        let peak = g.stats.peak_resident_bytes;
        let maps = g.stats.maps;
        let unmaps = g.stats.unmaps;
        g.stats = DeviceStats {
            resident_bytes: resident,
            peak_resident_bytes: peak,
            maps,
            unmaps,
            ..DeviceStats::default()
        };
    }

    /// `omp target enter data map(alloc: ...)` — reserve device residency.
    pub fn enter_data(&self, bytes: u64) {
        let mut g = self.inner.lock();
        g.stats.maps += 1;
        g.stats.resident_bytes += bytes;
        g.stats.peak_resident_bytes = g.stats.peak_resident_bytes.max(g.stats.resident_bytes);
    }

    /// `omp target exit data map(delete: ...)` — release device residency.
    pub fn exit_data(&self, bytes: u64) {
        let mut g = self.inner.lock();
        g.stats.unmaps += 1;
        g.stats.resident_bytes = g.stats.resident_bytes.saturating_sub(bytes);
    }

    /// Number of streams.
    pub fn num_streams(&self) -> usize {
        self.inner.lock().streams.len()
    }
}

/// Handle for launching deferred kernels inside [`Device::nowait_scope`].
///
/// The lifetimes mirror `std::thread::Scope`: `'scope` is the scope itself
/// (invariant), `'env` the environment it may borrow from. A deferred body
/// must satisfy `F: 'scope`, and the scope settles every body before
/// returning, so borrowed captures are sound.
pub struct NowaitScope<'scope, 'env: 'scope> {
    device: &'env Device,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl std::fmt::Debug for NowaitScope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NowaitScope").finish_non_exhaustive()
    }
}

impl<'scope, 'env> NowaitScope<'scope, 'env> {
    /// The device this scope defers onto.
    pub fn device(&self) -> &'env Device {
        self.device
    }

    /// Launch a kernel under this scope's deferred-execution rules:
    ///
    /// * [`LaunchPolicy::Sync`] — runs `body` immediately (identical to
    ///   [`Device::launch_named`]).
    /// * [`LaunchPolicy::Async`] — charges the modeled enqueue cost now,
    ///   pushes `body` onto `stream`'s FIFO lane, and returns immediately.
    ///   Bodies on one stream run in launch order; the scope (or
    ///   [`Device::synchronize`]) settles them.
    pub fn launch_named<F>(
        &'scope self,
        name: &'static str,
        stream: StreamId,
        policy: LaunchPolicy,
        work: KernelWork,
        body: F,
    ) where
        F: FnOnce() + Send + 'scope,
    {
        match policy {
            LaunchPolicy::Sync => {
                self.device.launch_named(name, stream, policy, work, body);
            }
            LaunchPolicy::Async => {
                let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(body);
                // SAFETY: (bounds=nowait_scope drains every lane before its
                // frame returns — on success and on panic — so the task
                // cannot outlive 'scope, aliasing=lifetime erasure only; the
                // captured borrows stay live because 'env outlives 'scope)
                // `Device::synchronize` offers an earlier settle point.
                let task: Box<dyn FnOnce() + Send + 'static> = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + 'scope>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(task)
                };
                self.device.charge_kernel(name, stream, policy, work);
                self.device.enqueue_on_lane(stream, task);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::Precision;

    fn work(bytes: u64) -> KernelWork {
        KernelWork::new(bytes, bytes / 8, Precision::Dp)
    }

    #[test]
    fn sync_launch_advances_host_clock() {
        let d = Device::a100();
        let out = d.launch(StreamId(0), LaunchPolicy::Sync, work(1 << 30), || 42);
        assert_eq!(out, 42);
        assert!(d.host_clock() > 0.0);
        assert_eq!(d.host_clock(), d.synchronize());
    }

    #[test]
    fn async_launches_overlap_across_streams() {
        let spec = HardwareSpec::a100();
        let w = work(1 << 30);
        let kt = spec.kernel_time(&w);

        // Synchronous: two kernels serialize.
        let d_sync = Device::new(spec.clone(), 2);
        d_sync.launch(StreamId(0), LaunchPolicy::Sync, w, || ());
        d_sync.launch(StreamId(1), LaunchPolicy::Sync, w, || ());
        let t_sync = d_sync.synchronize();

        // Asynchronous on two streams: they overlap.
        let d_async = Device::new(spec, 2);
        d_async.launch(StreamId(0), LaunchPolicy::Async, w, || ());
        d_async.launch(StreamId(1), LaunchPolicy::Async, w, || ());
        let t_async = d_async.synchronize();

        assert!(t_sync > 1.9 * kt, "sync {t_sync} vs kernel {kt}");
        assert!(t_async < 1.2 * kt, "async {t_async} vs kernel {kt}");
    }

    #[test]
    fn async_on_same_stream_still_serializes() {
        let spec = HardwareSpec::a100();
        let w = work(1 << 30);
        let kt = spec.kernel_time(&w);
        let d = Device::new(spec, 2);
        d.launch(StreamId(0), LaunchPolicy::Async, w, || ());
        d.launch(StreamId(0), LaunchPolicy::Async, w, || ());
        let t = d.synchronize();
        assert!(t > 1.9 * kt);
    }

    #[test]
    fn pageable_transfer_blocks_host_pinned_does_not() {
        let d = Device::a100();
        d.transfer_h2d(StreamId(0), 1 << 30, TransferKind::Pageable);
        let after_pageable = d.host_clock();
        assert!(after_pageable > 0.0);

        let d2 = Device::a100();
        d2.transfer_h2d(StreamId(0), 1 << 30, TransferKind::Pinned);
        assert_eq!(d2.host_clock(), 0.0);
        assert!(d2.synchronize() > 0.0);
        assert!(d2.synchronize() < after_pageable); // pinned is also faster
    }

    #[test]
    fn stats_accumulate() {
        let d = Device::a100();
        d.launch(StreamId(0), LaunchPolicy::Sync, work(1024), || ());
        d.transfer_h2d(StreamId(0), 100, TransferKind::Pinned);
        d.transfer_d2h(StreamId(0), 50, TransferKind::Pinned);
        let s = d.stats();
        assert_eq!(s.kernels_launched, 1);
        assert_eq!(s.h2d_bytes, 100);
        assert_eq!(s.d2h_bytes, 50);
        assert!(s.kernel_busy > 0.0 && s.transfer_time > 0.0);
    }

    #[test]
    fn residency_tracking() {
        let d = Device::a100();
        d.enter_data(1000);
        d.enter_data(500);
        assert_eq!(d.stats().resident_bytes, 1500);
        d.exit_data(1000);
        assert_eq!(d.stats().resident_bytes, 500);
        assert_eq!(d.stats().peak_resident_bytes, 1500);
        assert_eq!(d.stats().maps, 2);
        assert_eq!(d.stats().unmaps, 1);
    }

    #[test]
    fn reset_clock_keeps_residency() {
        let d = Device::a100();
        d.enter_data(1000);
        d.launch(StreamId(0), LaunchPolicy::Sync, work(1 << 20), || ());
        d.reset_clock();
        assert_eq!(d.host_clock(), 0.0);
        assert_eq!(d.stats().kernels_launched, 0);
        assert_eq!(d.stats().resident_bytes, 1000);
    }

    #[test]
    fn clone_shares_state() {
        let d = Device::a100();
        let d2 = d.clone();
        d.enter_data(64);
        assert_eq!(d2.stats().resident_bytes, 64);
    }

    #[test]
    fn nowait_scope_defers_async_bodies_and_settles_on_exit() {
        let d = Device::a100();
        let mut data = vec![0u64; 256];
        d.nowait_scope(|scope| {
            let cells = &mut data;
            scope.launch_named(
                "k1",
                StreamId(0),
                LaunchPolicy::Async,
                work(1024),
                move || {
                    for x in cells.iter_mut() {
                        *x += 1;
                    }
                },
            );
        });
        // Scope exit settled the body; the borrow is usable again.
        assert!(data.iter().all(|&x| x == 1));
        assert_eq!(d.stats().kernels_launched, 1);
    }

    #[test]
    fn nowait_bodies_on_one_stream_run_fifo() {
        let d = Device::a100();
        let log = Arc::new(Mutex::new(Vec::new()));
        d.nowait_scope(|scope| {
            for i in 0..32 {
                let log = Arc::clone(&log);
                scope.launch_named("k", StreamId(1), LaunchPolicy::Async, work(64), move || {
                    log.lock().push(i);
                });
            }
        });
        assert_eq!(*log.lock(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn synchronize_settles_deferred_bodies_mid_scope() {
        let d = Device::a100();
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        d.nowait_scope(|scope| {
            let f = Arc::clone(&flag);
            scope.launch_named("k", StreamId(0), LaunchPolicy::Async, work(64), move || {
                f.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            d.synchronize();
            assert!(flag.load(std::sync::atomic::Ordering::SeqCst));
        });
    }

    #[test]
    fn sync_policy_inside_scope_runs_inline() {
        let d = Device::a100();
        let mut hit = false;
        d.nowait_scope(|scope| {
            scope.launch_named("k", StreamId(0), LaunchPolicy::Sync, work(64), || {
                hit = true;
            });
        });
        assert!(hit);
    }

    #[test]
    fn deferred_body_panic_propagates_at_scope_exit() {
        let d = Device::a100();
        let result = catch_unwind(AssertUnwindSafe(|| {
            d.nowait_scope(|scope| {
                scope.launch_named("k", StreamId(0), LaunchPolicy::Async, work(64), || {
                    panic!("deferred boom");
                });
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "deferred boom");
        // The device remains usable after the panic.
        d.nowait_scope(|scope| {
            scope.launch_named("k", StreamId(0), LaunchPolicy::Async, work(64), || {});
        });
    }

    #[test]
    fn deferred_body_panic_reraises_at_synchronize() {
        // A panic in a deferred body must surface at the *first* settle
        // point — an explicit mid-scope synchronize() — not silently wait
        // for scope exit; and consuming it there must not re-trip the
        // scope-exit drain.
        let d = Device::a100();
        let result = catch_unwind(AssertUnwindSafe(|| {
            d.nowait_scope(|scope| {
                scope.launch_named("k", StreamId(0), LaunchPolicy::Async, work(64), || {
                    panic!("sync boom");
                });
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    scope.device().synchronize();
                }))
                .expect_err("synchronize must re-raise the deferred panic");
                let msg = caught.downcast_ref::<&str>().copied().unwrap_or_default();
                assert_eq!(msg, "sync boom");
            });
        }));
        assert!(
            result.is_ok(),
            "payload already consumed at synchronize(); scope exit must not re-panic"
        );
        // The device (and its lanes) remain usable afterwards.
        let hit = Arc::new(std::sync::atomic::AtomicBool::new(false));
        d.nowait_scope(|scope| {
            let h = Arc::clone(&hit);
            scope.launch_named("k", StreamId(0), LaunchPolicy::Async, work(64), move || {
                h.store(true, std::sync::atomic::Ordering::SeqCst);
            });
        });
        d.synchronize();
        assert!(hit.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn deferred_launches_charge_async_clock_semantics() {
        let spec = HardwareSpec::a100();
        let w = work(1 << 30);
        let kt = spec.kernel_time(&w);
        // Deferred nowait launches on two streams overlap on the modeled
        // timeline exactly like immediate Async launches do.
        let d = Device::new(spec, 2);
        d.nowait_scope(|scope| {
            scope.launch_named("k", StreamId(0), LaunchPolicy::Async, w, || {});
            scope.launch_named("k", StreamId(1), LaunchPolicy::Async, w, || {});
        });
        let t = d.synchronize();
        assert!(t < 1.2 * kt, "deferred async {t} vs kernel {kt}");
    }
}
