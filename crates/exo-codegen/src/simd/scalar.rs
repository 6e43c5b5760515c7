//! The scalar reference implementation of [`VectorIsa`], available on
//! every host: the floor of the runtime ISA selection. `EXO_ISA=scalar`
//! pins the native tier to the plain-C bodies of its row and the driver to
//! this mover.
//!
//! The impl holds the scalar body of the strided mover: the element loops
//! every vector body must reproduce.

use super::mover::{Move2d, Walk};
use super::{IsaKind, VectorIsa};

/// The one-lane reference implementation, available everywhere.
pub(crate) struct ScalarIsa;

impl VectorIsa for ScalarIsa {
    const KIND: IsaKind = IsaKind::Scalar;

    fn available() -> bool {
        true
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
