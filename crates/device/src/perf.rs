//! Roofline performance model for the paper's hardware.
//!
//! The reproduction has no physical A100; modeled kernel times come from the
//! classic roofline bound `t = max(bytes / BW, flops / peak) + overhead`,
//! with transfer times from interconnect bandwidths. Constants are taken
//! from the paper's §IV platform description of ALCF Polaris (A100 HBM2,
//! PCIe 64 GB/s, NVLink 600 GB/s, EPYC Milan 7543P) plus public datasheets.
//! Every report produced from this model is labeled "modeled".

/// Floating-point precision of a kernel (Table II compares SP vs DP).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit floats.
    Sp,
    /// 64-bit floats.
    Dp,
}

impl Precision {
    /// The precision of scalar type `R` (`f32` or `f64`).
    pub fn of<R>() -> Self {
        if std::mem::size_of::<R>() == 4 {
            Precision::Sp
        } else {
            Precision::Dp
        }
    }

    /// Bytes per real scalar.
    pub fn bytes(self) -> u64 {
        match self {
            Precision::Sp => 4,
            Precision::Dp => 8,
        }
    }

    /// Table label ("SP"/"DP").
    pub fn label(self) -> &'static str {
        match self {
            Precision::Sp => "SP",
            Precision::Dp => "DP",
        }
    }
}

/// What kind of host-device transfer a copy is.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransferKind {
    /// Pageable host memory over PCIe (the default `omp target` path).
    Pageable,
    /// Pinned (page-locked) host memory over PCIe (§III-E optimization).
    Pinned,
    /// GPU-to-GPU over NVLink (used by the comm layer's on-node exchanges).
    NvLink,
}

/// Work performed by one kernel launch, counted by the *real* computation.
#[derive(Copy, Clone, Debug, Default)]
pub struct KernelWork {
    /// Bytes moved to/from device memory (reads + writes).
    pub bytes: u64,
    /// Real floating-point operations executed.
    pub flops: u64,
    /// Precision the kernel ran in.
    pub precision: Option<Precision>,
}

impl KernelWork {
    /// Convenience constructor.
    pub fn new(bytes: u64, flops: u64, precision: Precision) -> Self {
        Self {
            bytes,
            flops,
            precision: Some(precision),
        }
    }
}

/// Hardware description feeding the roofline model.
#[derive(Clone, Debug)]
pub struct HardwareSpec {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Main (device) memory bandwidth, bytes/second.
    pub mem_bw: f64,
    /// Peak FP32 throughput, flops/second.
    pub peak_sp: f64,
    /// Peak FP64 throughput, flops/second.
    pub peak_dp: f64,
    /// Fixed kernel launch overhead, seconds (zero for a CPU "launch").
    pub launch_overhead: f64,
    /// PCIe bandwidth for pageable transfers, bytes/second.
    pub pcie_pageable_bw: f64,
    /// PCIe bandwidth for pinned transfers, bytes/second.
    pub pcie_pinned_bw: f64,
    /// NVLink bandwidth, bytes/second.
    pub nvlink_bw: f64,
    /// Per-transfer latency, seconds.
    pub transfer_latency: f64,
    /// Fraction of peak a real, well-tuned kernel sustains (occupancy,
    /// instruction mix); applied to both bandwidth and compute roofs.
    pub efficiency: f64,
}

impl HardwareSpec {
    /// Nvidia A100 (40 GB PCIe / HGX, Polaris node): HBM2 1555 GB/s,
    /// 19.5 TF/s FP32, 9.7 TF/s FP64, ~10 us kernel launch.
    pub fn a100() -> Self {
        Self {
            name: "NVIDIA A100",
            mem_bw: 1.555e12,
            peak_sp: 19.5e12,
            peak_dp: 9.7e12,
            launch_overhead: 10e-6,
            pcie_pageable_bw: 22e9, // pageable staging ~1/3 of the 64 GB/s link
            pcie_pinned_bw: 64e9,   // paper: "The GPU's PCIe bandwidth is 64 GB/s"
            nvlink_bw: 600e9,       // paper: "GPU interconnect bandwidth of 600 GB/s"
            transfer_latency: 8e-6,
            efficiency: 0.60,
        }
    }

    /// The whole 32-core EPYC 7543P socket (used by the Fig. 4 throughput
    /// comparison where the CPU baseline runs fully threaded).
    pub fn epyc_7543_socket() -> Self {
        Self {
            name: "AMD EPYC 7543P (32 cores)",
            mem_bw: 204.8e9, // 8 channels DDR4-3200
            peak_sp: 32.0 * 2.8e9 * 16.0,
            peak_dp: 32.0 * 2.8e9 * 8.0,
            launch_overhead: 0.0,
            pcie_pageable_bw: f64::INFINITY,
            pcie_pinned_bw: f64::INFINITY,
            nvlink_bw: f64::INFINITY,
            transfer_latency: 0.0,
            efficiency: 0.45,
        }
    }

    /// Roofline execution time for one kernel (device-side only; host-side
    /// launch/synchronization overhead is charged by the [`crate::Device`]
    /// timeline according to the launch policy).
    pub fn kernel_time(&self, work: &KernelWork) -> f64 {
        let peak = match work.precision.unwrap_or(Precision::Dp) {
            Precision::Sp => self.peak_sp,
            Precision::Dp => self.peak_dp,
        };
        let t_mem = work.bytes as f64 / (self.mem_bw * self.efficiency);
        let t_cmp = work.flops as f64 / (peak * self.efficiency);
        t_mem.max(t_cmp)
    }

    /// Transfer time for `bytes` over the chosen path.
    pub fn transfer_time(&self, bytes: u64, kind: TransferKind) -> f64 {
        let bw = match kind {
            TransferKind::Pageable => self.pcie_pageable_bw,
            TransferKind::Pinned => self.pcie_pinned_bw,
            TransferKind::NvLink => self.nvlink_bw,
        };
        if bw.is_infinite() {
            return 0.0;
        }
        bytes as f64 / bw + self.transfer_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_beats_cpu_socket_on_streaming_kernel() {
        let a100 = HardwareSpec::a100();
        let socket = HardwareSpec::epyc_7543_socket();
        // A big bandwidth-bound kernel: 1 GiB traffic, low intensity.
        let w = KernelWork::new(1 << 30, 1 << 28, Precision::Dp);
        let ta = a100.kernel_time(&w);
        let tc = socket.kernel_time(&w);
        assert!(tc / ta > 5.0, "speedup {}", tc / ta);
    }

    #[test]
    fn tiny_kernels_are_overhead_free_device_side() {
        // Launch overhead is charged by the Device timeline, not the
        // roofline execution time: a tiny kernel executes in well under the
        // host-side launch overhead.
        let a100 = HardwareSpec::a100();
        let w = KernelWork::new(1024, 1024, Precision::Sp);
        let t = a100.kernel_time(&w);
        assert!(t > 0.0);
        assert!(t < a100.launch_overhead / 10.0);
    }

    #[test]
    fn sp_kernels_faster_than_dp_when_compute_bound() {
        let a100 = HardwareSpec::a100();
        // High arithmetic intensity (GEMM-like): compute-bound.
        let wsp = KernelWork::new(1 << 20, 1 << 36, Precision::Sp);
        let wdp = KernelWork::new(1 << 20, 1 << 36, Precision::Dp);
        assert!(a100.kernel_time(&wsp) < a100.kernel_time(&wdp));
    }

    #[test]
    fn pinned_transfers_beat_pageable() {
        let a100 = HardwareSpec::a100();
        let bytes = 256 << 20;
        let tp = a100.transfer_time(bytes, TransferKind::Pageable);
        let tn = a100.transfer_time(bytes, TransferKind::Pinned);
        assert!(tp / tn > 2.0, "ratio {}", tp / tn);
        let tv = a100.transfer_time(bytes, TransferKind::NvLink);
        assert!(tv < tn);
    }

    #[test]
    fn cpu_transfers_are_free() {
        let socket = HardwareSpec::epyc_7543_socket();
        assert_eq!(socket.transfer_time(1 << 30, TransferKind::Pinned), 0.0);
    }

    #[test]
    fn precision_metadata() {
        assert_eq!(Precision::Sp.bytes(), 4);
        assert_eq!(Precision::Dp.bytes(), 8);
        assert_eq!(Precision::Sp.label(), "SP");
    }
}
