//! The scalar reference implementation of [`VectorIsa`].
//!
//! One lane, one `mul_add` per multiply-add — the fused, single-rounding
//! arithmetic of the tape and the reference interpreter, which every ISA
//! shares, so the chain compiled for [`ScalarIsa`] computes every tier's
//! bits.
//! On x86_64 a CPU with FMA runs each register run under one
//! `#[target_feature(enable = "fma")]` call (a `vfmadd` per lane); one
//! without it computes `mul_add` in software, the same bits slower. On
//! aarch64 FMA is baseline. It is available on every host, which makes it
//! the floor of the runtime ISA selection: `SimdKernel::compile` never
//! fails for a generated kernel, and `EXO_ISA=scalar` pins the simd and
//! native tiers to this implementation — same closure chains, same fusion.
//!
//! The impl also holds the scalar body of the strided mover: the element
//! loops every vector body must reproduce.

use super::mover::{Move2d, Walk};
use super::{IsaKind, VectorIsa};

/// The one-lane reference implementation, available everywhere.
pub(crate) struct ScalarIsa;

impl VectorIsa for ScalarIsa {
    const KIND: IsaKind = IsaKind::Scalar;

    fn available() -> bool {
        true
    }

    unsafe fn fma_run_inorder(regs: *mut f32, dst: usize, a: usize, bval: f32, lanes: usize) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: FMA was just detected; the runs are the caller's.
            return super::x86_64::fma_run_scalar(regs, dst, a, bval, lanes);
        }
        for i in 0..lanes {
            let d = regs.add(dst + i);
            *d = (*regs.add(a + i)).mul_add(bval, *d);
        }
    }

    unsafe fn fma_tile(regs: *mut f32, dst0: usize, a: usize, b: *const f32, lanes: usize, count: usize) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: FMA was just detected; the runs and `b` are the caller's.
            return super::x86_64::fma_tile_scalar(regs, dst0, a, b, lanes, count);
        }
        for g in 0..count {
            Self::fma_run_inorder(regs, dst0 + g * lanes, a, *b.add(g), lanes);
        }
    }

    /// The reference every vector body reproduces bit for bit, and the one
    /// `EXO_ISA=scalar` runs.
    unsafe fn move_2d(walk: Walk, m: &Move2d) {
        match walk {
            Walk::Rows => {
                for r in 0..m.rows {
                    if m.scale == 1.0 {
                        std::ptr::copy_nonoverlapping(m.src.add(r * m.srs), m.dst.add(r * m.drs), m.cols);
                    } else {
                        m.walk(r..r + 1, 0..m.cols);
                    }
                }
            }
            // The source is contiguous *across* destination rows: gather in
            // square tiles so each source run of `XPOSE_TILE` elements is
            // read once, instead of one element per strided pass.
            Walk::Transposed => {
                for c0 in (0..m.cols).step_by(XPOSE_TILE) {
                    let c1 = m.cols.min(c0 + XPOSE_TILE);
                    for r0 in (0..m.rows).step_by(XPOSE_TILE) {
                        let r1 = m.rows.min(r0 + XPOSE_TILE);
                        for c in c0..c1 {
                            for r in r0..r1 {
                                *m.dst.add(r * m.drs + c) = scaled(*m.src.add(c * m.scs + r), m.scale);
                            }
                        }
                    }
                }
            }
            Walk::General => m.walk(0..m.rows, 0..m.cols),
        }
    }
}

/// One moved element: `scale == 1.0` keeps the bits (a `C` tile staged on
/// a later `k`-block, an unscaled pack), anything else is one multiply.
#[inline(always)]
pub(crate) fn scaled(v: f32, scale: f32) -> f32 {
    if scale == 1.0 {
        v
    } else {
        scale * v
    }
}

/// Tile edge of the blocked transposing gather: big enough that a tile
/// spans a cache line of the destination, small enough that `XPOSE_TILE`
/// source columns stay resident while the tile transposes.
const XPOSE_TILE: usize = 8;
