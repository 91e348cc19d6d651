//! Analytic network model of the Polaris Slingshot-11 dragonfly fabric.
//!
//! Paper §IV: "Polaris uses Slingshot 11 with a node interconnect bandwidth
//! of 200 GB/s" on "high radix 64-port switches arranged in dragonfly
//! topology". Four ranks share a node (one per GPU), so the per-rank share
//! of the injection bandwidth is ~50 GB/s. Collectives are modeled as
//! binomial trees: `ceil(log2 P)` rounds of (latency + bytes/bandwidth) —
//! exactly the `beta * log P` term in the paper's parallel-efficiency
//! analysis (§IV-A).

/// Latency/bandwidth description of the interconnect.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// One-way small-message latency, seconds (off-node / MPI over the
    /// fabric).
    pub latency: f64,
    /// Per-rank injection bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Ranks per node (on-node messages use shared memory, modeled faster).
    pub ranks_per_node: usize,
    /// On-node small-message latency, seconds (shared memory/NVLink — an
    /// on-node hop never pays the fabric's injection latency).
    pub on_node_latency: f64,
    /// On-node bandwidth (NVLink/shared memory), bytes/second.
    pub on_node_bandwidth: f64,
}

impl NetworkModel {
    /// Polaris Slingshot-11: ~2 us MPI latency, 200 GB/s per node shared by
    /// 4 ranks, 600 GB/s NVLink on-node with ~0.4 us shared-memory latency.
    pub fn slingshot11() -> Self {
        Self {
            latency: 2.0e-6,
            bandwidth: 50.0e9,
            ranks_per_node: 4,
            on_node_latency: 4.0e-7,
            on_node_bandwidth: 600.0e9,
        }
    }

    /// An ideal zero-cost network (for efficiency-model ablations).
    pub fn ideal() -> Self {
        Self {
            latency: 0.0,
            bandwidth: f64::INFINITY,
            ranks_per_node: 4,
            on_node_latency: 0.0,
            on_node_bandwidth: f64::INFINITY,
        }
    }

    /// Time for one hop of `bytes` at the given latency/bandwidth pair.
    fn hop_time(latency: f64, bandwidth: f64, bytes: usize) -> f64 {
        if bandwidth.is_infinite() {
            latency
        } else {
            latency + bytes as f64 / bandwidth
        }
    }

    /// Point-to-point time for `bytes` between `src` and `dst` ranks.
    /// Ranks on the same node pay the on-node latency and bandwidth
    /// (shared memory/NVLink), not the fabric's.
    pub fn p2p_time(&self, bytes: usize, src: usize, dst: usize) -> f64 {
        if src == dst {
            return 0.0;
        }
        let same_node = src / self.ranks_per_node == dst / self.ranks_per_node;
        if same_node {
            Self::hop_time(self.on_node_latency, self.on_node_bandwidth, bytes)
        } else {
            Self::hop_time(self.latency, self.bandwidth, bytes)
        }
    }

    /// Binomial-tree collective time over `p` ranks for a payload of
    /// `bytes` (allreduce, broadcast, barrier with bytes = 0).
    ///
    /// Rounds are node-aware: the first `ceil(log2(min(p, ranks_per_node)))`
    /// doubling rounds stay within a node (shared-memory pricing); only the
    /// remaining rounds cross the fabric. A communicator that fits on one
    /// node never pays off-node injection latency at all.
    pub fn tree_collective_time(&self, bytes: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let total_rounds = (p as f64).log2().ceil();
        let on_rounds = (p.min(self.ranks_per_node.max(1)) as f64).log2().ceil();
        let off_rounds = (total_rounds - on_rounds).max(0.0);
        on_rounds * Self::hop_time(self.on_node_latency, self.on_node_bandwidth, bytes)
            + off_rounds * Self::hop_time(self.latency, self.bandwidth, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_messages_are_free() {
        let n = NetworkModel::slingshot11();
        assert_eq!(n.p2p_time(1 << 20, 3, 3), 0.0);
    }

    #[test]
    fn on_node_faster_than_off_node() {
        let n = NetworkModel::slingshot11();
        let on = n.p2p_time(1 << 24, 0, 1); // ranks 0,1 share node 0
        let off = n.p2p_time(1 << 24, 0, 5); // rank 5 is node 1
        assert!(on < off, "on={on} off={off}");
        // Pin the latency term too: a zero-byte on-node hop costs exactly
        // the shared-memory latency, not the 2 us fabric injection.
        assert_eq!(n.p2p_time(0, 0, 1), n.on_node_latency);
        assert_eq!(n.p2p_time(0, 0, 5), n.latency);
        assert!(n.on_node_latency < n.latency);
    }

    #[test]
    fn collective_time_grows_logarithmically() {
        // Uniform fabric (one rank per node) so every round is priced the
        // same and the pure log2 round counts show through exactly.
        let n = NetworkModel {
            latency: 2.0e-6,
            bandwidth: 50.0e9,
            ranks_per_node: 1,
            on_node_latency: 2.0e-6,
            on_node_bandwidth: 50.0e9,
        };
        let t4 = n.tree_collective_time(1024, 4);
        let t16 = n.tree_collective_time(1024, 16);
        let t256 = n.tree_collective_time(1024, 256);
        // log2: 2, 4, 8 rounds.
        assert!((t16 / t4 - 2.0).abs() < 1e-9);
        assert!((t256 / t4 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn single_node_allreduce_beats_two_node() {
        // Same 4-rank communicator: packed on one node (2 shared-memory
        // rounds) vs split across two nodes (1 on-node + 1 fabric round).
        let single = NetworkModel::slingshot11(); // ranks_per_node: 4
        let two_node = NetworkModel {
            ranks_per_node: 2,
            ..NetworkModel::slingshot11()
        };
        for bytes in [0usize, 1024, 1 << 20] {
            let t_single = single.tree_collective_time(bytes, 4);
            let t_two = two_node.tree_collective_time(bytes, 4);
            assert!(
                t_single < t_two,
                "bytes={bytes}: single-node {t_single} vs two-node {t_two}"
            );
        }
    }

    #[test]
    fn single_rank_collectives_free() {
        let n = NetworkModel::slingshot11();
        assert_eq!(n.tree_collective_time(1 << 20, 1), 0.0);
    }

    #[test]
    fn ideal_network_latency_free() {
        let n = NetworkModel::ideal();
        assert_eq!(n.tree_collective_time(1 << 30, 1024), 0.0);
        assert_eq!(n.p2p_time(1 << 30, 0, 999), 0.0);
    }

    #[test]
    fn bandwidth_term_scales_with_bytes() {
        let n = NetworkModel::slingshot11();
        let small = n.tree_collective_time(0, 64);
        let big = n.tree_collective_time(1 << 30, 64);
        assert!(big > small);
        // 2 on-node rounds x 1 GiB / 600 GB/s + 4 fabric rounds x
        // 1 GiB / 50 GB/s ~ 0.089 s dominates latency.
        assert!(big > 0.05 && big < 0.15, "big={big}");
    }
}
