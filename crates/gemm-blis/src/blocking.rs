//! Cache-blocking parameters for the BLIS algorithm: the `mc`, `kc`, `nc`
//! values that keep the packed `Ac` block in L2, the packed `Bc` block in L3
//! and the micro-panels streaming through L1 (Section II-A of the paper).
//!
//! Two sources are provided: the analytical model of Low et al. ("Analytical
//! modeling is enough for high-performance BLIS", reference \[9\] of the
//! paper), and the fixed values BLIS ships for the Carmel/A57 family, which
//! the paper quotes (`kc = 512`). The choice between them is one of the
//! ablations of [`crate::SimOptions`] (`analytical_blocking`; the
//! `ablations` binary of `exo-bench` prints it).

use carmel_sim::{CacheHierarchy, CacheLevel};

/// Blocking parameters of the five-loop BLIS algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockingParams {
    /// Rows of the packed `Ac` block (L2-resident).
    pub mc: usize,
    /// Depth of the packed blocks (shared by `Ac` and `Bc`).
    pub kc: usize,
    /// Columns of the packed `Bc` block (L3-resident).
    pub nc: usize,
    /// Micro-kernel rows.
    pub mr: usize,
    /// Micro-kernel columns.
    pub nr: usize,
}

impl BlockingParams {
    /// The fixed parameters BLIS uses on this ARM family, quoted by the paper
    /// (`kc = 512`), adjusted to the given register tile.
    pub fn carmel_defaults(mr: usize, nr: usize) -> Self {
        BlockingParams { mc: 120.max(mr), kc: 512, nc: 3072.max(nr), mr, nr }
    }

    /// The analytical model: choose `kc` so that one `mr x kc` A micro-panel
    /// plus one `kc x nr` B micro-panel plus the `C` tile occupy about half
    /// of L1; `mc` so that the `mc x kc` A block occupies about half of L2;
    /// `nc` so that the `kc x nc` B block occupies about half of L3. Each
    /// value is rounded down to a multiple of the register tile.
    pub fn analytical(cache: &CacheHierarchy, mr: usize, nr: usize, elem_bytes: usize) -> Self {
        let l1 = cache.capacity(CacheLevel::L1) as f64;
        let l2 = cache.capacity(CacheLevel::L2) as f64;
        let l3 = cache.capacity(CacheLevel::L3) as f64;
        let s = elem_bytes as f64;

        let kc = ((l1 / 2.0 - (mr * nr) as f64 * s) / (s * (mr + nr) as f64)).max(mr as f64);
        let kc = round_down_multiple(kc as usize, 8).clamp(32, 1024);
        let mc = round_down_multiple((l2 / (2.0 * s * kc as f64)) as usize, mr).max(mr);
        let nc = round_down_multiple((l3 / (2.0 * s * kc as f64)) as usize, nr).max(nr);
        BlockingParams { mc, kc, nc, mr, nr }
    }
}

fn round_down_multiple(value: usize, multiple: usize) -> usize {
    if multiple == 0 {
        return value;
    }
    (value / multiple).max(1) * multiple
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carmel_defaults_quote_the_paper_kc() {
        let b = BlockingParams::carmel_defaults(8, 12);
        assert_eq!(b.kc, 512);
        assert!(b.mc >= 8 && b.nc >= 12);
    }

    #[test]
    fn analytical_blocks_fit_their_cache_levels() {
        let cache = CacheHierarchy::carmel();
        let b = BlockingParams::analytical(&cache, 8, 12, 4);
        // A and B micro-panels plus the C tile fit in L1.
        let l1_use = (b.mr + b.nr) * b.kc * 4 + b.mr * b.nr * 4;
        assert!(l1_use <= cache.capacity(CacheLevel::L1), "L1 use {l1_use}");
        assert!(b.mc * b.kc * 4 <= cache.capacity(CacheLevel::L2), "the Ac block fits L2");
        assert!(b.kc * b.nc * 4 <= cache.capacity(CacheLevel::L3), "the Bc block fits L3");
        // Multiples of the register tile.
        assert_eq!(b.mc % b.mr, 0);
        assert_eq!(b.nc % b.nr, 0);
        // In the same ballpark as the BLIS values for this core.
        assert!(b.kc >= 256 && b.kc <= 1024, "kc = {}", b.kc);
    }

    #[test]
    fn analytical_adapts_to_the_register_tile() {
        let cache = CacheHierarchy::carmel();
        let wide = BlockingParams::analytical(&cache, 8, 12, 4);
        let narrow = BlockingParams::analytical(&cache, 4, 4, 4);
        assert!(narrow.kc >= wide.kc, "smaller tiles allow deeper kc");
    }

    #[test]
    fn rounding_helper() {
        assert_eq!(round_down_multiple(125, 8), 120);
        assert_eq!(round_down_multiple(7, 8), 8);
        assert_eq!(round_down_multiple(5, 0), 5);
    }
}
