//! Cache-blocking parameters for the BLIS algorithm: the `mc`, `kc`, `nc`
//! values that keep the packed `Ac` block in L2, the packed `Bc` block in L3
//! and the micro-panels streaming through L1 (Section II-A of the paper).
//!
//! Three sources are provided. Two block for the *modelled* machine: the
//! analytical model of Low et al. ("Analytical modeling is enough for
//! high-performance BLIS", reference \[9\] of the paper) over a
//! `carmel_sim::CacheHierarchy`, and the fixed values BLIS ships for the
//! Carmel/A57 family, which the paper quotes (`kc = 512`). The choice
//! between them is one of the ablations of [`crate::SimOptions`]
//! (`analytical_blocking`; the `ablations` binary of `exo-bench` prints it).
//! The third, [`BlockingParams::for_host`], blocks for the *executing*
//! machine: the caches [`crate::HostDescription`] probes on this host. It is
//! the one blocking every served GEMM runs with (`exo_tune`'s serving space
//! pairs each tile with it and nothing else).

use carmel_sim::{CacheHierarchy, CacheLevel};

use crate::host::HostDescription;

/// Bytes of one packed element: every served GEMM is `f32`.
const F32_BYTES: usize = std::mem::size_of::<f32>();

/// The `kc` step of [`BlockingParams::for_host`], in elements (the
/// analytical model's rounding too): eight `f32`s, half a 64-byte line of
/// each packed micro-panel row.
const KC_STEP: usize = 8;

/// The `kc` range [`BlockingParams::for_host`] stays in. A very wide tile
/// (the `1 x 96` row) would fill the L1d at `kc = 128`, and below 256 the
/// staging of its `C` tile in and out of the kernel is paid every few
/// hundred FMAs; 1024 is the analytical model's cap too.
const KC_RANGE: std::ops::RangeInclusive<usize> = 256..=1024;

/// The share of the L2 the packed `Ac` block is sized to, as a divisor: a
/// quarter, so the `Bc` micro-panel the `ir` loop streams and the `C` lines
/// it writes back keep the rest.
const AC_L2_DIVISOR: usize = 4;

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

    /// The executing machine's blocking, from `host`'s L1d and L2 (the L3,
    /// shared between cores, is not counted on):
    ///
    /// * `kc` — one `kc x nr` micro-panel of `Bc`, reused by every `A`
    ///   micro-panel of the `ir` loop, fills the L1d: the largest multiple of
    ///   8 with `kc·nr·4 ≤ L1d`, clamped to `256..=1024`;
    /// * `nc` — the `kc x nc` `Bc` block fills the L2: `L2 / (kc·4)`, rounded
    ///   down to a multiple of `nr`;
    /// * `mc` — the `mc x kc` `Ac` block fills a quarter of the L2:
    ///   `L2 / (4·kc·4)`, rounded down to a multiple of `mr`.
    ///
    /// Every block holds whole register tiles. On a 48 KB L1d / 2 MB L2 host
    /// a 16x16 tile gets `(mc, kc, nc) = (160, 768, 672)`; on Carmel's caches
    /// ([`HostDescription::carmel`]) `(128, 1024, 512)`.
    pub fn for_host(host: &HostDescription, mr: usize, nr: usize) -> Self {
        let (l1d, l2) = (host.l1d.bytes, host.l2.bytes);
        let kc =
            round_down_multiple(l1d / (nr * F32_BYTES), KC_STEP).clamp(*KC_RANGE.start(), *KC_RANGE.end());
        let nc = round_down_multiple(l2 / (kc * F32_BYTES), nr);
        let mc = round_down_multiple(l2 / (AC_L2_DIVISOR * kc * F32_BYTES), mr);
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
    fn the_host_blocking_fills_the_host_caches_in_whole_tiles() {
        let geometry = |bytes| crate::host::CacheGeometry { bytes, ways: 16, line: 64 };
        let host =
            HostDescription { l1d: geometry(48 << 10), l2: geometry(2 << 20), l3: geometry(300 << 20) };
        let b = BlockingParams::for_host(&host, 16, 16);
        assert_eq!((b.mc, b.kc, b.nc, b.mr, b.nr), (160, 768, 672, 16, 16));
        assert_eq!(
            BlockingParams::for_host(&host, 8, 12),
            BlockingParams { mc: 128, kc: 1024, nc: 504, mr: 8, nr: 12 }
        );
        let carmel = BlockingParams::for_host(&HostDescription::carmel(), 16, 16);
        assert_eq!((carmel.mc, carmel.kc, carmel.nc), (128, 1024, 512));
        // Whatever the tile, inside the clamp and whole tiles per block;
        // the Bc micro-panel fits the L1d wherever the clamp allows it.
        for mr in [1, 4, 8, 12, 16] {
            for nr in [4, 8, 12, 16, 24, 48, 96] {
                let b = BlockingParams::for_host(&host, mr, nr);
                assert!(KC_RANGE.contains(&b.kc) && b.kc.is_multiple_of(KC_STEP), "{mr}x{nr}: kc {}", b.kc);
                assert_eq!((b.mc % mr, b.nc % nr), (0, 0), "{mr}x{nr}: {b:?}");
                assert!(b.kc == *KC_RANGE.start() || b.kc * nr * F32_BYTES <= host.l1d.bytes, "{mr}x{nr}");
                assert!(b.kc * b.nc * F32_BYTES <= host.l2.bytes || b.nc == nr, "{mr}x{nr}");
            }
        }
    }

    #[test]
    fn rounding_helper() {
        assert_eq!(round_down_multiple(125, 8), 120);
        assert_eq!(round_down_multiple(7, 8), 8);
        assert_eq!(round_down_multiple(5, 0), 5);
    }
}
