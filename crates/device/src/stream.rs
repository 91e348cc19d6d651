//! Device handle, stream timelines, and launch policies.
//!
//! Models the host/device timing relationship of OpenMP `target` offload:
//! a **synchronous** launch blocks the host until the kernel completes,
//! while a **`nowait`** launch only charges the host the launch overhead and
//! lets kernels on different streams overlap (paper §III-C and the Table I
//! `nowait` ablation, where asynchronous offloading gains ~10%).
//!
//! The real computation inside a launch always executes at once, on the
//! calling thread; `nowait` is a policy of the *modeled clock* and nothing
//! else. There is no deferred body, no per-stream thread and no settle
//! point: a launch's borrows end when [`Device::launch_named`] returns, and
//! [`Device::synchronize`] only advances the modeled host clock.

use crate::perf::{HardwareSpec, KernelWork, TransferKind};
use dcmesh_analyze::sync::Mutex;
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

    /// Advance the modeled clock for one kernel launch. Not generic, so
    /// that [`Device::launch_named`] stays small enough to inline into
    /// every kernel's call site.
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
        }
    }

    /// Frozen-benchmark shim, not an API: `benchmark/src/probes.rs` (the
    /// `device.nowait_roundtrip_us` probe) calls `nowait_scope(|scope|
    /// scope.launch_named(..))` and may not be edited. The "scope" is the
    /// device itself, so that call is [`Device::launch_named`]. Nothing in
    /// this workspace may call it; the next `benchmark` issue removes it
    /// with the probe (ROADMAP).
    #[doc(hidden)]
    pub fn nowait_scope<T>(&self, f: impl FnOnce(&Device) -> T) -> T {
        f(self)
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
        }
    }

    /// Block the (modeled) host until all streams drain; returns the host
    /// clock.
    pub fn synchronize(&self) -> f64 {
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
}
