//! The strided 2-D mover: `dst[r·drs + c·dcs] = scale · src[r·srs + c·scs]`
//! for every `(r, c)` of a `rows × cols` region, over raw pointers.
//!
//! This is the data-reorganisation half of a BLIS-like GEMM — packing `A`
//! and `B` into micro-panels, staging a `C` tile in and out of the
//! kernel's column-major scratch — lowered to the executing ISA's vector
//! instructions the same way the kernel's arithmetic is. Which strides
//! are 1 picks one of three walks:
//!
//! * **same orientation** (both sides contiguous along one axis) —
//!   whole-vector copies along that axis;
//! * **transposed** (the destination contiguous along one axis, the
//!   source along the other) — in-register transposes: on AVX2 8×8
//!   blocks as pairs of 4×8 halves (`vinsertf128` loads, then `unpack` and
//!   `shuffle`) with 4×4 granules for the tails — and for a leading strip
//!   where the destination rows start 16 bytes past a 32-byte boundary, so
//!   that no 8-wide store splits a cache line — on NEON 4×4 `trn` blocks;
//! * **anything else** — the scalar stride walk.
//!
//! and the ISA picks one body per `VectorIsa` impl, exactly as it does for
//! the simd chain: [`strided_move`] runs [`active_isa`]'s, [`strided_move_on`] an
//! explicit one (how the differential test and the bench compare bodies
//! inside one process). The scalar body is the reference: it is what
//! `EXO_ISA=scalar` runs, and every vector body must reproduce it bit for
//! bit — a move plus at most one multiply per element leaves no room for
//! a rounding difference. `scale == 1.0` is a pure move on every body.

use std::ops::Range;

use super::{active_isa, scalar, IsaKind, VectorIsa};

/// One move, as the per-ISA bodies read it: both sides' base pointers and
/// `(row, column)` strides in elements, the extent, and the scale.
#[derive(Clone, Copy)]
pub(crate) struct Move2d {
    pub(crate) dst: *mut f32,
    pub(crate) drs: usize,
    pub(crate) dcs: usize,
    pub(crate) src: *const f32,
    pub(crate) srs: usize,
    pub(crate) scs: usize,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) scale: f32,
}

/// How a [`Move2d`] is walked, decided by which of its strides are 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Walk {
    /// `dcs == scs == 1`: every row is one contiguous run on both sides.
    Rows,
    /// `dcs == srs == 1`: destination rows are contiguous, and so are
    /// source columns.
    Transposed,
    /// No usable unit stride.
    General,
}

impl Move2d {
    /// The same move with the roles of rows and columns exchanged.
    fn axes_swapped(self) -> Self {
        Move2d {
            drs: self.dcs,
            dcs: self.drs,
            srs: self.scs,
            scs: self.srs,
            rows: self.cols,
            cols: self.rows,
            ..self
        }
    }

    /// The walk this move takes, and the move with its axes named so that
    /// the walk's unit strides are where [`Walk`] says they are.
    fn classified(self) -> (Walk, Self) {
        if self.dcs == 1 && self.scs == 1 {
            (Walk::Rows, self)
        } else if self.drs == 1 && self.srs == 1 {
            (Walk::Rows, self.axes_swapped())
        } else if self.dcs == 1 && self.srs == 1 {
            (Walk::Transposed, self)
        } else if self.drs == 1 && self.scs == 1 {
            (Walk::Transposed, self.axes_swapped())
        } else {
            (Walk::General, self)
        }
    }

    /// The scalar stride walk over the sub-rectangle `rows × cols` of this
    /// move: the [`Walk::General`] body of every ISA, and what the vector
    /// bodies finish their tails with.
    ///
    /// # Safety
    ///
    /// As [`strided_move`], for the elements of the sub-rectangle.
    #[inline]
    pub(crate) unsafe fn walk(&self, rows: Range<usize>, cols: Range<usize>) {
        for r in rows {
            for c in cols.clone() {
                let v = *self.src.add(r * self.srs + c * self.scs);
                *self.dst.add(r * self.drs + c * self.dcs) = scalar::scaled(v, self.scale);
            }
        }
    }
}

/// Moves a `rows × cols` region between two strided layouts on the
/// process's [`active_isa`]: `dst[r·drs + c·dcs] = scale · src[r·srs +
/// c·scs]` for every `r < rows`, `c < cols`, with `(drs, dcs) =
/// dst_strides`, `(srs, scs) = src_strides` in elements and `(rows, cols) =
/// extent`. `scale == 1.0` moves the bits untouched; any other scale is
/// one IEEE multiply per element, so the result does not depend on the ISA.
///
/// # Safety
///
/// * For every `(r, c)` of the extent, `src.add(r·srs + c·scs)` must be
///   valid for a read and `dst.add(r·drs + c·dcs)` for a write, with no
///   other thread accessing the destination elements during the call.
/// * The two element sets must not overlap, and distinct `(r, c)` must
///   address distinct destination elements.
///
/// In return, **no element outside the `rows × cols` extent is read or
/// written**, on either side and on every body: tails are finished with
/// narrower vectors and then scalars, never with a full-width access that
/// hangs over the edge. What lies between the rows of either side —
/// another worker's window of an interleaved `C`, the caller's padding —
/// need not even be mapped.
#[inline]
pub unsafe fn strided_move(
    dst: *mut f32,
    dst_strides: (usize, usize),
    src: *const f32,
    src_strides: (usize, usize),
    extent: (usize, usize),
    scale: f32,
) {
    strided_move_on(active_isa(), dst, dst_strides, src, src_strides, extent, scale)
}

/// [`strided_move`] on an explicit ISA's body: classifies the move and
/// hands it over in one call — on x86_64 one `#[target_feature]` boundary
/// — per region.
///
/// # Safety
///
/// As [`strided_move`].
///
/// # Panics
///
/// Panics when the host cannot run `isa` ([`IsaKind::available`]).
pub unsafe fn strided_move_on(
    isa: IsaKind,
    dst: *mut f32,
    (drs, dcs): (usize, usize),
    src: *const f32,
    (srs, scs): (usize, usize),
    (rows, cols): (usize, usize),
    scale: f32,
) {
    assert!(isa.available(), "the `{isa}` mover cannot run on this host");
    let (walk, m) = Move2d { dst, drs, dcs, src, srs, scs, rows, cols, scale }.classified();
    with_isa_impl!(isa, I => I::move_2d(walk, &m), else unreachable!("`{isa}` passed `available()` with no impl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(dst: (usize, usize), src: (usize, usize)) -> (Walk, (usize, usize)) {
        let m = Move2d {
            dst: std::ptr::null_mut(),
            drs: dst.0,
            dcs: dst.1,
            src: std::ptr::null(),
            srs: src.0,
            scs: src.1,
            rows: 3,
            cols: 5,
            scale: 1.0,
        };
        let (walk, m) = m.classified();
        (walk, (m.rows, m.cols))
    }

    #[test]
    fn unit_strides_pick_the_walk_and_name_the_axes() {
        // Row-major to row-major, and column-major to column-major with
        // the axes exchanged: contiguous runs on both sides.
        assert_eq!(classify((9, 1), (7, 1)), (Walk::Rows, (3, 5)));
        assert_eq!(classify((1, 9), (1, 7)), (Walk::Rows, (5, 3)));
        // Pack-A (row-major panel from column-contiguous source) and the
        // C-tile staging (column-major tile from row-major C).
        assert_eq!(classify((8, 1), (1, 7)), (Walk::Transposed, (3, 5)));
        assert_eq!(classify((1, 8), (7, 1)), (Walk::Transposed, (5, 3)));
        // No unit stride on one side, or none that line up.
        assert_eq!(classify((9, 2), (7, 1)), (Walk::General, (3, 5)));
        assert_eq!(classify((9, 1), (7, 0)), (Walk::General, (3, 5)));
    }
}
