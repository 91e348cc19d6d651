//! Shadow dynamics: device-resident wavefunctions, occupation-only handshake.
//!
//! Paper §II: "we adopt a shadow dynamics approach, in which a GPU-resident
//! proxy is solved to effectively describe the action of LFD on QXMD. In
//! this way, LFD-QXMD handshaking is reduced to minimal, i.e., electronic
//! occupation numbers, which are negligible compared to the large memory
//! footprint of many KS wave functions."
//!
//! [`ShadowState`] enforces that contract and is this repository's analog of
//! the paper's `OMPallocator` (Alg. 6): construction is the allocator's
//! `enter data map(alloc)`, `Drop` its `exit data map(delete)`, so the two
//! wavefunction matrices `Psi(t)` and `Psi(0)` are registered
//! device-resident for the state's whole lifetime, and the only
//! host<->device traffic it exposes is the occupation vector.

use dcmesh_device::{Device, StreamId, TransferKind};
use dcmesh_math::Real;

/// Device residency + handshake accounting for one DC domain's LFD state.
#[derive(Debug)]
pub struct ShadowState<R> {
    device: Device,
    /// Bytes of Psi(t) + Psi(0) kept device-resident.
    psi_bytes: u64,
    /// Host-side occupation numbers (the only handshake payload).
    pub occupations: Vec<R>,
    transfer_kind: TransferKind,
    handshakes: u64,
}

impl<R: Real> ShadowState<R> {
    /// Register `Psi(t)` and `Psi(0)` (`ngrid x norb` complex each) as
    /// device-resident and initialize occupations.
    pub fn new(device: &Device, ngrid: usize, norb: usize, occupations: Vec<R>) -> Self {
        assert_eq!(occupations.len(), norb);
        let csize = 2 * std::mem::size_of::<R>() as u64;
        let psi_bytes = 2 * (ngrid * norb) as u64 * csize;
        device.enter_data(psi_bytes);
        Self {
            device: device.clone(),
            psi_bytes,
            occupations,
            transfer_kind: TransferKind::Pageable,
            handshakes: 0,
        }
    }

    /// Use pinned host memory for the handshake transfers.
    pub fn pinned(mut self) -> Self {
        self.transfer_kind = TransferKind::Pinned;
        self
    }

    /// Bytes of one handshake payload (the occupation vector).
    pub fn handshake_bytes(&self) -> u64 {
        (self.occupations.len() * std::mem::size_of::<R>()) as u64
    }

    /// Push occupations host -> device (QXMD -> LFD direction).
    pub fn upload_occupations(&mut self) {
        self.device
            .transfer_h2d(StreamId(0), self.handshake_bytes(), self.transfer_kind);
        self.handshakes += 1;
    }

    /// Pull occupations device -> host (LFD -> QXMD direction), applying
    /// the new values produced by `remap_occ`.
    pub fn download_occupations(&mut self, new_occ: &[R]) {
        assert_eq!(new_occ.len(), self.occupations.len());
        self.device
            .transfer_d2h(StreamId(0), self.handshake_bytes(), self.transfer_kind);
        self.occupations.copy_from_slice(new_occ);
        self.handshakes += 1;
    }

    /// Number of handshakes performed.
    pub fn handshakes(&self) -> u64 {
        self.handshakes
    }

    /// The device this state lives on.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl<R> Drop for ShadowState<R> {
    fn drop(&mut self) {
        self.device.exit_data(self.psi_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_registered_for_lifetime() {
        let dev = Device::a100();
        {
            let s: ShadowState<f64> = ShadowState::new(&dev, 1000, 8, vec![2.0; 8]);
            assert_eq!(dev.stats().resident_bytes, 2 * 1000 * 8 * 16);
            let _ = s;
        }
        assert_eq!(dev.stats().resident_bytes, 0);
    }

    #[test]
    fn handshake_is_tiny_compared_to_wavefunctions() {
        let dev = Device::a100();
        // The paper's production domain: 70x70x72 mesh, 288 orbitals.
        let ngrid = 70 * 70 * 72;
        let s: ShadowState<f64> = ShadowState::new(&dev, ngrid, 288, vec![2.0; 288]);
        // Psi arrays are > 1M times larger than the occupation payload.
        let ratio = dev.stats().resident_bytes / s.handshake_bytes();
        assert!(ratio > 1_000_000, "ratio {ratio}");
    }

    #[test]
    fn handshakes_move_only_occupation_bytes() {
        let dev = Device::a100();
        let mut s: ShadowState<f64> = ShadowState::new(&dev, 10000, 16, vec![2.0; 16]);
        s.upload_occupations();
        s.download_occupations(&[1.5; 16]);
        let stats = dev.stats();
        assert_eq!(stats.h2d_bytes, 16 * 8);
        assert_eq!(stats.d2h_bytes, 16 * 8);
        assert_eq!(s.handshakes(), 2);
        assert!(s.occupations.iter().all(|&f| f == 1.5));
    }

    #[test]
    fn pinned_handshake_does_not_block_host() {
        let dev = Device::a100();
        let mut s: ShadowState<f64> = ShadowState::new(&dev, 10000, 16, vec![2.0; 16]).pinned();
        s.upload_occupations();
        assert_eq!(dev.host_clock(), 0.0);
    }
}
