//! Differential test of the strided 2-D mover
//! (`exo_codegen::simd::strided_move_on`): every body the host can run —
//! AVX2 on x86_64, NEON on aarch64 (the QEMU leg of CI), the scalar
//! reference everywhere — must write exactly what the per-element walk
//! `dst[r·drs + c·dcs] = scale · src[r·srs + c·scs]` writes, bit for bit,
//! and nothing else: every extent from empty to past three 8-wide blocks
//! (so every 8 / 4 / scalar tail combination on both axes), both
//! orientations of the row-copy and transposing walks plus the general
//! one, dense and padded leading dimensions on both sides, and a pure move
//! beside two scales. A second axis is where the destination starts: each
//! of the 16 element offsets from a cache line, under row strides that keep
//! every row at that offset and one that does not — where the AVX2 body
//! (AVX-512's too) peels a strip to keep its stores inside cache lines.

use exo_gemm::exo_codegen::simd::strided_move_on;
use exo_gemm::exo_codegen::IsaKind;

/// What the destination holds wherever the move must not write.
const SENTINEL: f32 = -77.25;
/// Sentinel elements kept before and after the destination's reach.
const GUARD: usize = 16;

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
    let isas: Vec<IsaKind> = IsaKind::ALL.into_iter().filter(|isa| isa.available()).collect();
    assert!(isas.contains(&IsaKind::Scalar));
    let mut moves = 0usize;
    for rows in 0..=25usize {
        for cols in 0..=25usize {
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
                    // Distinct values with both signs, a negative zero and
                    // fractions no scale below rounds away.
                    let src: Vec<f32> = (0..reach(extent, src_strides) + GUARD)
                        .map(|i| if i == 1 { -0.0 } else { (i as f32) * 0.37 - 41.0 })
                        .collect();
                    let dst_len = GUARD + reach(extent, dst_strides) + GUARD;
                    for scale in [1.0f32, 0.75, -1.0] {
                        let mut want = vec![SENTINEL; dst_len];
                        for r in 0..rows {
                            for c in 0..cols {
                                let v = src[r * src_strides.0 + c * src_strides.1];
                                want[GUARD + r * dst_strides.0 + c * dst_strides.1] =
                                    if scale == 1.0 { v } else { scale * v };
                            }
                        }
                        for &isa in &isas {
                            let mut dst = vec![SENTINEL; dst_len];
                            let before = src.clone();
                            // SAFETY: both buffers cover their side's reach
                            // (plus guards), they are distinct allocations,
                            // and every layout's stride map is injective.
                            unsafe {
                                strided_move_on(
                                    isa,
                                    dst.as_mut_ptr().add(GUARD),
                                    dst_strides,
                                    src.as_ptr(),
                                    src_strides,
                                    extent,
                                    scale,
                                );
                            }
                            moves += 1;
                            let what = format!(
                                "{isa}: {rows}x{cols}, dst strides {dst_strides:?}, src strides \
                                 {src_strides:?}, scale {scale}"
                            );
                            for (at, (got, want)) in dst.iter().zip(&want).enumerate() {
                                assert_eq!(got.to_bits(), want.to_bits(), "{what}: destination element {at}");
                            }
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
    assert_eq!(moves, 26 * 26 * 2 * 5 * 3 * isas.len());
}

/// Elements in one 64-byte cache line.
const LINE: usize = 16;

#[test]
fn every_destination_placement_moves_exactly_what_the_scalar_walk_moves() {
    let isas: Vec<IsaKind> = IsaKind::ALL.into_iter().filter(|isa| isa.available()).collect();
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
                            for &isa in &isas {
                                let mut dst = vec![SENTINEL; dst_len];
                                let start = GUARD + dst.as_ptr().addr().wrapping_neg() % 64 / 4 + offset;
                                let mut want = dst.clone();
                                for r in 0..rows {
                                    for c in 0..cols {
                                        let v = src[r * src_strides.0 + c * src_strides.1];
                                        want[start + r * drs + c] = if scale == 1.0 { v } else { scale * v };
                                    }
                                }
                                // SAFETY: `dst` covers `start` plus the
                                // destination's reach, `src` its own; they
                                // are distinct allocations, and both stride
                                // maps are injective.
                                unsafe {
                                    strided_move_on(
                                        isa,
                                        dst.as_mut_ptr().add(start),
                                        (drs, 1),
                                        src.as_ptr(),
                                        src_strides,
                                        extent,
                                        scale,
                                    );
                                }
                                moves += 1;
                                for (at, (got, want)) in dst.iter().zip(&want).enumerate() {
                                    assert_eq!(
                                        got.to_bits(),
                                        want.to_bits(),
                                        "{isa}: destination {offset} elements past a line, {rows}x{cols}, row \
                                         stride {drs}, src strides {src_strides:?}, scale {scale}: element {at}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(moves, LINE * 9 * 14 * 3 * 2 * 3 * isas.len());
}

#[test]
#[should_panic(expected = "cannot run on this host")]
fn an_isa_the_host_cannot_run_is_refused_before_anything_moves() {
    let missing = IsaKind::ALL.into_iter().find(|isa| !isa.available()).expect("no host runs AVX2 and NEON");
    let (src, mut dst) = ([1.0f32], [0.0f32]);
    // SAFETY: a 1x1 move between two live one-element arrays.
    unsafe { strided_move_on(missing, dst.as_mut_ptr(), (1, 1), src.as_ptr(), (1, 1), (1, 1), 1.0) };
}
