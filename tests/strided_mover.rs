//! Differential test of the strided 2-D mover (`exo_codegen::simd::Mover`):
//! every body the host can run — AVX2 on x86_64 (which AVX-512 runs too),
//! NEON on aarch64 (the QEMU leg of CI), the scalar reference everywhere —
//! resolved once into its handle, must write exactly what the per-element
//! walk `dst[r·drs + c·dcs] = scale · src[r·srs + c·scs]` writes, bit for
//! bit, and nothing else: every extent from empty to past four 8-wide
//! blocks on both axes (so every 8 / 4 / scalar tail, and every last vector
//! that overlaps the one before it), both orientations of the row-copy and
//! transposing walks plus the general one, dense and padded leading
//! dimensions on both sides, and a pure move beside two scales, with guard
//! cells on both sides of the destination left as they were. A second axis
//! is where the destination starts: each of the 16 element offsets from a
//! cache line, under row strides that keep every row at that offset and
//! one that does not — where the AVX2 body peels a strip to keep its
//! stores inside cache lines. The block-at-once pack
//! (`Mover::pack_panels`) is held to the panel-by-panel definition, zero
//! padding included, over the same extents.

use exo_gemm::exo_codegen::simd::Mover;
use exo_gemm::exo_codegen::IsaKind;

/// What the destination holds wherever the move must not write.
const SENTINEL: f32 = -77.25;
/// Sentinel elements kept before and after the destination's reach.
const GUARD: usize = 16;

/// Extents on both axes: past four 8-wide blocks, so every 8 / 4 / scalar
/// tail and every overlapping last vector is reached.
const EXTENT: usize = 33;

/// The movers of every ISA this host runs, each resolved once.
fn movers() -> Vec<Mover> {
    IsaKind::ALL.into_iter().filter(|isa| isa.available()).map(Mover::on).collect()
}

/// `len` distinct source values with both signs, a negative zero and
/// fractions no scale below rounds away.
fn source(len: usize) -> Vec<f32> {
    (0..len).map(|i| if i == 1 { -0.0 } else { (i as f32) * 0.37 - 41.0 }).collect()
}

/// `scale · v` as every body computes it: `v` untouched for a pure move.
fn scaled(v: f32, scale: f32) -> f32 {
    if scale == 1.0 {
        v
    } else {
        scale * v
    }
}

/// Compares `got` with `want` bit for bit, guard cells included.
fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    for (at, (got, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(got.to_bits(), want.to_bits(), "{what}: destination element {at}");
    }
}

/// Largest linear index a `rows x cols` extent reaches under `strides`,
/// plus one.
fn reach((rows, cols): (usize, usize), (rs, cs): (usize, usize)) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        (rows - 1) * rs + (cols - 1) * cs + 1
    }
}

#[test]
fn every_available_isa_moves_exactly_what_the_scalar_walk_moves() {
    let movers = movers();
    assert!(movers.iter().any(|mover| mover.isa() == IsaKind::Scalar));
    let mut moves = 0usize;
    for rows in 0..=EXTENT {
        for cols in 0..=EXTENT {
            let extent = (rows, cols);
            for (dst_pad, src_pad) in [(0usize, 0usize), (3, 5)] {
                let (dst_rm, dst_cm) = ((cols + dst_pad, 1), (1, rows + dst_pad));
                let (src_rm, src_cm) = ((cols + src_pad, 1), (1, rows + src_pad));
                // (destination strides, source strides): row copies in both
                // orientations, both transposes, no unit stride at all.
                let layouts = [
                    (dst_rm, src_rm),
                    (dst_cm, src_cm),
                    (dst_rm, src_cm),
                    (dst_cm, src_rm),
                    ((2 * cols + dst_pad, 2), (3 * cols + src_pad, 3)),
                ];
                for (dst_strides, src_strides) in layouts {
                    let src = source(reach(extent, src_strides) + GUARD);
                    let dst_len = GUARD + reach(extent, dst_strides) + GUARD;
                    for scale in [1.0f32, 0.75, -1.0] {
                        let mut want = vec![SENTINEL; dst_len];
                        for r in 0..rows {
                            for c in 0..cols {
                                want[GUARD + r * dst_strides.0 + c * dst_strides.1] =
                                    scaled(src[r * src_strides.0 + c * src_strides.1], scale);
                            }
                        }
                        for mover in &movers {
                            let mut dst = vec![SENTINEL; dst_len];
                            let before = src.clone();
                            let at = dst.as_mut_ptr().wrapping_add(GUARD);
                            // SAFETY: both buffers cover their side's reach
                            // (plus guards), they are distinct allocations,
                            // and every layout's stride map is injective.
                            unsafe {
                                mover.strided_move(at, dst_strides, src.as_ptr(), src_strides, extent, scale)
                            };
                            moves += 1;
                            let what = format!(
                                "{}: {rows}x{cols}, dst strides {dst_strides:?}, src strides {src_strides:?}, \
                                 scale {scale}",
                                mover.isa()
                            );
                            assert_bits(&dst, &want, &what);
                            assert!(
                                src.iter().zip(&before).all(|(a, b)| a.to_bits() == b.to_bits()),
                                "{what}: the source changed"
                            );
                        }
                    }
                }
            }
        }
    }
    assert_eq!(moves, (EXTENT + 1) * (EXTENT + 1) * 2 * 5 * 3 * movers.len());
}

/// Elements in one 64-byte cache line.
const LINE: usize = 16;

#[test]
fn every_destination_placement_moves_exactly_what_the_scalar_walk_moves() {
    let movers = movers();
    let mut moves = 0usize;
    for offset in 0..LINE {
        for rows in 1..=9usize {
            for cols in 12..=25usize {
                let extent = (rows, cols);
                // Two row strides of whole 8-element vectors, so that every
                // row starts at the first one's offset (offsets 4 and 12 take
                // the peel), and one that is not.
                let wide = cols.next_multiple_of(8);
                for drs in [wide, wide + 8, cols + 3] {
                    // Into row-major rows from a column-major source (the
                    // transposing walk that stages a tile out to `C`) and
                    // from a row-major one (row copies).
                    for src_strides in [(1, rows + 1), (cols + 2, 1)] {
                        let src: Vec<f32> =
                            (0..reach(extent, src_strides)).map(|i| (i as f32) * 0.37 - 41.0).collect();
                        // Room to start `offset` elements past a line wherever
                        // the allocation itself lands.
                        let dst_len = GUARD + LINE + reach(extent, (drs, 1)) + GUARD;
                        for scale in [1.0f32, 0.75, -1.0] {
                            for mover in &movers {
                                let mut dst = vec![SENTINEL; dst_len];
                                let start = GUARD + dst.as_ptr().addr().wrapping_neg() % 64 / 4 + offset;
                                let mut want = dst.clone();
                                for r in 0..rows {
                                    for c in 0..cols {
                                        want[start + r * drs + c] =
                                            scaled(src[r * src_strides.0 + c * src_strides.1], scale);
                                    }
                                }
                                let at = dst.as_mut_ptr().wrapping_add(start);
                                // SAFETY: `dst` covers `start` plus the
                                // destination's reach, `src` its own; they
                                // are distinct allocations, and both stride
                                // maps are injective.
                                unsafe {
                                    mover.strided_move(at, (drs, 1), src.as_ptr(), src_strides, extent, scale)
                                };
                                moves += 1;
                                let what = format!(
                                    "{}: destination {offset} elements past a line, {rows}x{cols}, row stride \
                                     {drs}, src strides {src_strides:?}, scale {scale}",
                                    mover.isa()
                                );
                                assert_bits(&dst, &want, &what);
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(moves, LINE * 9 * 14 * 3 * 2 * 3 * movers.len());
}

#[test]
fn a_whole_block_packs_into_padded_panels_as_panel_by_panel_moves_would() {
    let movers = movers();
    let mut packs = 0usize;
    for rows in 0..=EXTENT {
        for cols in 0..=EXTENT {
            let extent = (rows, cols);
            // Source strides: rows contiguous (a dense `B` block: the row
            // copies), columns contiguous (the transpose of a dense `A`
            // block: the transposing walk), neither.
            let layouts =
                [("rows", (cols + 2, 1)), ("transposed", (1, rows + 3)), ("general", (2 * cols + 1, 2))];
            for (walk, src_strides) in layouts {
                let src = source(reach(extent, src_strides));
                // Panel widths of the kernels' tiles: one element, a
                // narrow one, one vector, more than one.
                for width in [1usize, 3, 8, 16] {
                    let panels = cols.div_ceil(width);
                    for scale in [1.0f32, -0.5] {
                        // Panel `p`'s row `r` holds source columns `p *
                        // width..` of row `r`, then zeros past the last one.
                        let mut want = vec![SENTINEL; GUARD + panels * rows * width + GUARD];
                        for p in 0..panels {
                            for r in 0..rows {
                                for j in 0..width {
                                    let c = p * width + j;
                                    want[GUARD + (p * rows + r) * width + j] = if c < cols {
                                        scaled(src[r * src_strides.0 + c * src_strides.1], scale)
                                    } else {
                                        0.0
                                    };
                                }
                            }
                        }
                        for mover in &movers {
                            let mut dst = vec![SENTINEL; want.len()];
                            let at = dst.as_mut_ptr().wrapping_add(GUARD);
                            // SAFETY: `dst` holds the panels between its
                            // guards, `src` covers the region's reach, they
                            // are distinct allocations, and `width >= 1`.
                            unsafe { mover.pack_panels(at, width, src.as_ptr(), src_strides, extent, scale) };
                            packs += 1;
                            let what = format!(
                                "{}: {walk} walk, {rows}x{cols} in {width}-wide panels, scale {scale}",
                                mover.isa()
                            );
                            assert_bits(&dst, &want, &what);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(packs, (EXTENT + 1) * (EXTENT + 1) * 3 * 4 * 2 * movers.len());
}

#[test]
#[should_panic(expected = "cannot run on this host")]
fn an_isa_the_host_cannot_run_is_refused_before_anything_moves() {
    let missing = IsaKind::ALL.into_iter().find(|isa| !isa.available()).expect("no host runs AVX2 and NEON");
    Mover::on(missing);
}
