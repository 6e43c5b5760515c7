//! Cache-hierarchy model: capacities, load-to-use latencies, and sustained
//! bandwidths for the Carmel memory system, plus helpers to charge streaming
//! and copy (packing) traffic.

/// A level of the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheLevel {
    /// 64 KiB L1 data cache.
    L1,
    /// 2 MiB L2 cache.
    L2,
    /// 4 MiB shared L3 cache.
    L3,
    /// LPDDR4x main memory.
    Dram,
}

/// Capacities, latencies and bandwidths of the modelled memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheHierarchy {
    /// L1 data-cache capacity in bytes.
    pub l1_bytes: usize,
    /// L2 capacity in bytes.
    pub l2_bytes: usize,
    /// L3 capacity in bytes.
    pub l3_bytes: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Load-to-use latency per level, in cycles.
    pub latency_cycles: [f64; 4],
    /// Sustained bandwidth per level, in bytes per cycle.
    pub bandwidth_bytes_per_cycle: [f64; 4],
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        CacheHierarchy::carmel()
    }
}

impl CacheHierarchy {
    /// The Carmel / Jetson AGX Xavier memory system.
    pub fn carmel() -> Self {
        CacheHierarchy {
            l1_bytes: 64 * 1024,
            l2_bytes: 2 * 1024 * 1024,
            l3_bytes: 4 * 1024 * 1024,
            line_bytes: 64,
            // L1, L2, L3, DRAM.
            latency_cycles: [4.0, 14.0, 38.0, 160.0],
            bandwidth_bytes_per_cycle: [32.0, 24.0, 16.0, 10.0],
        }
    }

    fn index(level: CacheLevel) -> usize {
        match level {
            CacheLevel::L1 => 0,
            CacheLevel::L2 => 1,
            CacheLevel::L3 => 2,
            CacheLevel::Dram => 3,
        }
    }

    /// Capacity of a level in bytes (DRAM is unbounded).
    pub fn capacity(&self, level: CacheLevel) -> usize {
        match level {
            CacheLevel::L1 => self.l1_bytes,
            CacheLevel::L2 => self.l2_bytes,
            CacheLevel::L3 => self.l3_bytes,
            CacheLevel::Dram => usize::MAX,
        }
    }

    /// Load-to-use latency of a level in cycles.
    pub fn latency(&self, level: CacheLevel) -> f64 {
        self.latency_cycles[Self::index(level)]
    }

    /// Sustained bandwidth of a level in bytes per cycle.
    pub fn bandwidth(&self, level: CacheLevel) -> f64 {
        self.bandwidth_bytes_per_cycle[Self::index(level)]
    }

    /// Cycles to stream `bytes` from a level assuming the hardware
    /// prefetchers hide all but the bandwidth cost (sequential access).
    pub fn stream_cycles(&self, bytes: f64, from: CacheLevel) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        bytes / self.bandwidth(from)
    }

    /// Cycles to copy `bytes` from one level to another (a packing routine):
    /// read bandwidth + write bandwidth + a small per-line overhead for the
    /// address arithmetic of the packing loop.
    pub fn copy_cycles(&self, bytes: f64, from: CacheLevel, to: CacheLevel) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        let lines = (bytes / self.line_bytes as f64).ceil();
        self.stream_cycles(bytes, from) + self.stream_cycles(bytes, to) + 0.5 * lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carmel_capacities() {
        let m = CacheHierarchy::carmel();
        assert_eq!(m.capacity(CacheLevel::L1), 64 * 1024);
        assert_eq!(m.capacity(CacheLevel::L2), 2 * 1024 * 1024);
        assert_eq!(m.capacity(CacheLevel::L3), 4 * 1024 * 1024);
        assert_eq!(m.capacity(CacheLevel::Dram), usize::MAX);
    }

    #[test]
    fn latency_and_bandwidth_are_monotone() {
        let m = CacheHierarchy::carmel();
        assert!(m.latency(CacheLevel::L1) < m.latency(CacheLevel::L2));
        assert!(m.latency(CacheLevel::L2) < m.latency(CacheLevel::L3));
        assert!(m.latency(CacheLevel::L3) < m.latency(CacheLevel::Dram));
        assert!(m.bandwidth(CacheLevel::L1) > m.bandwidth(CacheLevel::Dram));
    }

    #[test]
    fn streaming_costs_scale_with_bytes() {
        let m = CacheHierarchy::carmel();
        let one = m.stream_cycles(1024.0, CacheLevel::L2);
        let two = m.stream_cycles(2048.0, CacheLevel::L2);
        assert!((two - 2.0 * one).abs() < 1e-9);
        assert_eq!(m.stream_cycles(0.0, CacheLevel::Dram), 0.0);
    }

    #[test]
    fn copy_includes_both_directions() {
        let m = CacheHierarchy::carmel();
        let c = m.copy_cycles(4096.0, CacheLevel::Dram, CacheLevel::L2);
        assert!(c > m.stream_cycles(4096.0, CacheLevel::Dram));
        assert_eq!(m.copy_cycles(0.0, CacheLevel::Dram, CacheLevel::L2), 0.0);
    }
}
