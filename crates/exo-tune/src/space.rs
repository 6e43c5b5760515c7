//! Enumeration of the micro-kernel design space.
//!
//! The paper's optimisation process "boils down to evaluating a number of
//! generated micro-kernels"; this module decides *which* kernels are worth
//! generating for a target ISA. A register tile `(MR, NR)` is a candidate
//! when a vectorised scheduling strategy exists for it and its register
//! footprint — the `C` accumulators plus the staged `A`/`B` operand
//! vectors — fits the architectural register file. Each tile is then paired
//! with cache-blocking parameters for the machine the space is about.
//!
//! Two spaces come out of one description. [`DesignSpace::for_isa`] is the
//! *modelled* space: what the described machine (the paper's Carmel, 4
//! lanes, 32 registers, 64 KB / 2 MB / 4 MB caches) could run, each tile
//! crossed with the analytical blocking of Low et al. on Carmel's caches and
//! the fixed values BLIS ships for the Carmel family.
//! [`DesignSpace::for_execution`] is the *serving* space of one executing
//! machine — its vector ISA and its caches ([`HostDescription`]): the
//! subset of the modelled tiles whose vectorised extent also fills whole
//! vectors of that ISA ([`DesignSpace::fills_vectors_of`]) — a 12x8 tile is
//! three Neon vectors tall but one and a half AVX2 vectors, and the half is
//! paid for on every `k` iteration — each paired with the one blocking
//! sized for those caches ([`BlockingParams::for_host`]).
//!
//! Which description a host serves from is [`DesignSpace::serving`]'s
//! choice: an executing ISA the tree has an instruction library for serves
//! from that library — AVX-512 from the paper's own `avx512_f32`, whose
//! 16x16 broadcast-B kernel runs at about twice the rate of the Neon 8x12
//! re-rolled onto AVX2 on the same host — and every other ISA from the ARM
//! Neon f32 description, re-rolled (AVX2) or run as described (NEON, the
//! scalar reference). Its caches are the ones this process probed
//! ([`HostDescription::probed`]).

use carmel_sim::CacheHierarchy;
use exo_isa::VectorIsa;
use gemm_blis::{BlockingParams, HostDescription, IsaKind};
use ukernel_gen::{MicroKernelGenerator, Strategy};

pub use ukernel_gen::TileShape;

/// One point of the search space: a tile shape plus blocking parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The register tile.
    pub tile: TileShape,
    /// Cache-blocking parameters to run the tile with.
    pub blocking: BlockingParams,
}

/// The enumerable design space for one instruction set.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    isa: VectorIsa,
    /// The host ISA the kernels will execute on and the caches they will
    /// run in, when the space is for serving (`None`: the modelled space,
    /// unfiltered and blocked for Carmel).
    executing: Option<(IsaKind, HostDescription)>,
}

impl DesignSpace {
    /// The modelled space of a described ISA: the tiles its generator
    /// admits ([`MicroKernelGenerator::admitted_tiles`]: a 32-entry vector
    /// register file, what ARM Neon and AVX-512 both have, and tiles up to
    /// four vectors tall and six vectors wide — 24 elements on 4-lane Neon,
    /// matching the widest kernels the paper considers). This is the space
    /// the Carmel model is asked about; nothing in it depends on the host.
    pub fn for_isa(isa: VectorIsa) -> Self {
        DesignSpace { isa, executing: None }
    }

    /// The tiles of [`DesignSpace::for_isa`] that also satisfy
    /// [`DesignSpace::fills_vectors_of`] for `executing`, the host ISA their
    /// lowering will run on, each blocked for `host`'s caches. On 4-lane
    /// NEON and on the 1-lane scalar reference the tiles are the whole
    /// modelled Neon space.
    pub fn for_execution(isa: VectorIsa, executing: IsaKind, host: HostDescription) -> Self {
        DesignSpace { executing: Some((executing, host)), ..DesignSpace::for_isa(isa) }
    }

    /// The space every serving constructor searches on a host executing
    /// `executing` (`gemm_blis::active_isa()`): [`Self::for_execution`] on
    /// this process's probed caches, over the `avx512_f32` library on
    /// AVX-512 (the 16x16 broadcast-B tile and the `1 x 16j` rows), over
    /// `neon_f32` on every other ISA.
    pub fn serving(executing: IsaKind) -> Self {
        let library = if executing == IsaKind::Avx512 { exo_isa::avx512_f32() } else { exo_isa::neon_f32() };
        DesignSpace::for_execution(library, executing, *HostDescription::probed())
    }

    /// The instruction set the space targets.
    pub fn isa(&self) -> &VectorIsa {
        &self.isa
    }

    /// The host ISA the space was filtered for, or `None` for the modelled
    /// space.
    pub fn executing(&self) -> Option<IsaKind> {
        self.executing.map(|(isa, _)| isa)
    }

    /// The caches a serving space blocks for, or `None` for the modelled
    /// space.
    pub fn host(&self) -> Option<&HostDescription> {
        self.executing.as_ref().map(|(_, host)| host)
    }

    /// Whether an `mr x nr` tile's vectorised extent fills whole vectors of
    /// `executing` with its accumulators and staged operands inside that
    /// ISA's register file. The executing ISA runs the tile re-rolled into
    /// its own lanes, with the broadcast that needs no lane-indexed FMA:
    ///
    /// * `mr > 1` vectorises the rows (broadcast-B): `mr` fills whole
    ///   vectors, and the broadcast-B register count fits the file;
    /// * `mr == 1` vectorises the columns (broadcast-A): `nr` fills whole
    ///   vectors, and the broadcast-A register count fits the file.
    pub fn fills_vectors_of(executing: IsaKind, mr: usize, nr: usize) -> bool {
        let lanes = executing.lanes();
        let (extent, strategy) = if mr > 1 { (mr, Strategy::BroadcastB) } else { (nr, Strategy::BroadcastA) };
        let registers =
            strategy.registers(lanes, mr, nr).expect("a broadcast strategy keeps a register tile");
        extent % lanes == 0 && executing.vector_registers().is_none_or(|file| registers <= file)
    }

    /// All register tiles valid for the ISA under the register budget — and,
    /// in a serving space, executable in whole vectors of the host ISA —
    /// sorted by descending tile area (the order the sweep reports them in).
    pub fn tile_shapes(&self) -> Vec<TileShape> {
        let mut tiles = MicroKernelGenerator::new(self.isa.clone()).admitted_tiles();
        tiles.retain(|t| {
            self.executing().is_none_or(|executing| Self::fills_vectors_of(executing, t.mr, t.nr))
        });
        tiles.sort_by_key(|t| (std::cmp::Reverse(t.mr * t.nr), t.mr));
        tiles
    }

    /// The full candidate list. In the modelled space every valid tile is
    /// crossed with both Carmel blocking sources (the analytical model on
    /// Carmel's caches, then BLIS's fixed values); in a serving space every
    /// tile gets the one blocking for its host's caches.
    pub fn candidates(&self) -> Vec<Candidate> {
        let elem = self.isa.elem.size_bytes();
        let carmel = CacheHierarchy::carmel();
        let mut out = Vec::new();
        for tile in self.tile_shapes() {
            let (mr, nr) = (tile.mr, tile.nr);
            match &self.executing {
                Some((_, host)) => {
                    out.push(Candidate { tile, blocking: BlockingParams::for_host(host, mr, nr) })
                }
                None => {
                    for blocking in [
                        BlockingParams::analytical(&carmel, mr, nr, elem),
                        BlockingParams::carmel_defaults(mr, nr),
                    ] {
                        out.push(Candidate { tile, blocking });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_isa::{avx512_f32, neon_f32};

    #[test]
    fn neon_space_contains_the_paper_shapes_and_respects_the_budget() {
        let space = DesignSpace::for_isa(neon_f32());
        let tiles = space.tile_shapes();
        for expected in [(8, 12), (8, 8), (8, 4), (4, 12), (4, 8), (4, 4), (1, 12), (1, 8)] {
            assert!(
                tiles.iter().any(|t| (t.mr, t.nr) == expected),
                "paper shape {expected:?} missing from {tiles:?}"
            );
        }
        for tile in &tiles {
            assert!(tile.registers <= 32, "{tile:?} exceeds the register budget");
            assert_ne!(tile.strategy, Strategy::Scalar);
        }
        // Over-budget tiles are excluded: 8x16 needs 2*16 + 2 + 4 = 38 regs.
        assert!(!tiles.iter().any(|t| (t.mr, t.nr) == (8, 16)));
        // The paper's native 8x12 tile is exactly the 29-register kernel.
        let native = tiles.iter().find(|t| (t.mr, t.nr) == (8, 12)).unwrap();
        assert_eq!(native.registers, 29);
        assert_eq!(native.strategy, Strategy::Laneq);
    }

    #[test]
    fn serving_space_keeps_the_tiles_that_fill_the_executing_isas_vectors() {
        let modelled: Vec<(usize, usize)> =
            DesignSpace::for_isa(neon_f32()).tile_shapes().iter().map(|t| (t.mr, t.nr)).collect();
        assert_eq!(modelled.len(), 18);
        // In the modelled space's order (descending area), so ties rank alike.
        let avx512 = vec![(16, 4), (1, 16)];
        let avx2 = vec![(8, 12), (8, 8), (16, 4), (8, 4), (1, 24), (1, 16), (1, 8)];
        for executing in IsaKind::ALL {
            let expected = match executing {
                IsaKind::Avx512 => &avx512,
                IsaKind::Avx2 => &avx2,
                IsaKind::Neon | IsaKind::Scalar => &modelled,
            };
            let space = DesignSpace::for_execution(neon_f32(), executing, HostDescription::carmel());
            assert_eq!(space.isa().name, "neon-f32");
            assert_eq!(space.executing(), Some(executing));
            assert_eq!(space.host(), Some(&HostDescription::carmel()));
            let tiles: Vec<(usize, usize)> = space.tile_shapes().iter().map(|t| (t.mr, t.nr)).collect();
            assert_eq!(&tiles, expected, "{executing}");
        }
        let modelled_space = DesignSpace::for_isa(neon_f32());
        assert_eq!((modelled_space.executing(), modelled_space.host()), (None, None));
        // The rule itself, at its edges on the 8-lane / 16-register file:
        // half-filled vectors, and 8x16's 16 accumulators + 2 operands.
        assert!(!DesignSpace::fills_vectors_of(IsaKind::Avx2, 12, 8));
        assert!(!DesignSpace::fills_vectors_of(IsaKind::Avx2, 4, 24));
        assert!(!DesignSpace::fills_vectors_of(IsaKind::Avx2, 8, 16));
        assert!(!DesignSpace::fills_vectors_of(IsaKind::Avx2, 1, 12));
        assert!(DesignSpace::fills_vectors_of(IsaKind::Scalar, 12, 8));
    }

    #[test]
    fn an_executing_isa_serves_from_its_own_library_where_the_tree_has_one() {
        for executing in IsaKind::ALL {
            let space = DesignSpace::serving(executing);
            assert_eq!(space.executing(), Some(executing));
            assert_eq!(space.host(), Some(HostDescription::probed()));
            let library = if executing == IsaKind::Avx512 { "avx512-f32" } else { "neon-f32" };
            assert_eq!(space.isa().name, library);
            if executing != IsaKind::Avx512 {
                assert_eq!(
                    space.tile_shapes(),
                    DesignSpace::for_execution(neon_f32(), executing, HostDescription::carmel())
                        .tile_shapes()
                );
            }
        }
        // AVX-512's own space is its whole modelled space: the one
        // broadcast-B tile whose 16 accumulators, operand and broadcast fit
        // 32 registers, and the single-row tiles one to six vectors wide.
        let tiles: Vec<(usize, usize, Strategy)> = DesignSpace::serving(IsaKind::Avx512)
            .tile_shapes()
            .iter()
            .map(|t| (t.mr, t.nr, t.strategy))
            .collect();
        let mut expected = vec![(16, 16, Strategy::BroadcastB)];
        expected.extend((1..=6).rev().map(|j| (1, 16 * j, Strategy::BroadcastA)));
        assert_eq!(tiles, expected);
        assert_eq!(
            DesignSpace::for_isa(avx512_f32()).tile_shapes(),
            DesignSpace::serving(IsaKind::Avx512).tile_shapes()
        );
    }

    #[test]
    fn tiles_are_sorted_by_descending_area() {
        let space = DesignSpace::for_isa(neon_f32());
        let tiles = space.tile_shapes();
        for pair in tiles.windows(2) {
            assert!(pair[0].mr * pair[0].nr >= pair[1].mr * pair[1].nr);
        }
    }

    #[test]
    fn avx512_space_uses_the_broadcast_strategy() {
        let space = DesignSpace::for_isa(avx512_f32());
        let tiles = space.tile_shapes();
        assert!(!tiles.is_empty());
        for tile in &tiles {
            assert!(matches!(tile.strategy, Strategy::BroadcastB | Strategy::BroadcastA));
        }
        assert!(tiles.iter().any(|t| (t.mr, t.nr) == (16, 16)));
    }

    #[test]
    fn candidates_cross_tiles_with_both_blocking_sources() {
        let space = DesignSpace::for_isa(neon_f32());
        let mem = CacheHierarchy::carmel();
        let candidates = space.candidates();
        assert_eq!(candidates.len(), 2 * space.tile_shapes().len());
        for pair in candidates.chunks(2) {
            let (mr, nr) = (pair[0].tile.mr, pair[0].tile.nr);
            assert_eq!(pair[0].blocking, BlockingParams::analytical(&mem, mr, nr, 4));
            assert_eq!(pair[1].blocking, BlockingParams::carmel_defaults(mr, nr));
            assert_eq!(pair[1].tile, pair[0].tile);
        }
    }

    #[test]
    fn a_serving_space_blocks_each_tile_once_for_its_host() {
        let geometry = |bytes| gemm_blis::CacheGeometry { bytes, ways: 16, line: 64 };
        let small = HostDescription { l1d: geometry(32 << 10), l2: geometry(1 << 20), l3: geometry(0) };
        for host in [HostDescription::carmel(), small] {
            for executing in IsaKind::ALL {
                let library = if executing == IsaKind::Avx512 { avx512_f32() } else { neon_f32() };
                let space = DesignSpace::for_execution(library, executing, host);
                assert_eq!(space.host(), Some(&host));
                let candidates = space.candidates();
                assert_eq!(candidates.len(), space.tile_shapes().len(), "one blocking per tile");
                for Candidate { tile, blocking } in candidates {
                    assert_eq!(blocking, BlockingParams::for_host(&host, tile.mr, tile.nr));
                }
            }
        }
        // Other caches, other blockings.
        let on = |host| DesignSpace::for_execution(neon_f32(), IsaKind::Avx2, host).candidates();
        assert_ne!(on(HostDescription::carmel()), on(small));
        assert_eq!(DesignSpace::for_isa(neon_f32()).host(), None);
    }
}
