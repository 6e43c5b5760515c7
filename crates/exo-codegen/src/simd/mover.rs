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
//! and the ISA picks one body per `VectorIsa` impl. A [`Mover`] is one ISA's bodies resolved once — a
//! driver keeps one beside its kernel's dispatch handle, so a move costs a
//! call, not a lookup of the ISA, a probe of the host and a jump table.
//! [`Mover::active`] is the process's [`active_isa`]'s, [`Mover::on`] an
//! explicit ISA's (how the differential test and the bench compare bodies
//! inside one process). The scalar body is the reference: it is what
//! `EXO_ISA=scalar` runs, and every vector body must reproduce it bit for
//! bit — a move plus at most one multiply per element leaves no room for
//! a rounding difference. `scale == 1.0` is a pure move on every body.
//!
//! Packing is the mover's other entry, [`Mover::pack_panels`]: a whole
//! block into contiguous panels of a fixed width, zero padding included,
//! in one call — every panel one move of the same walk.
//!
//! Beside the mover sits its prefetch, [`Mover::prefetch`]: one cache hint
//! per line of a strided region, per ISA as well, which a driver issues
//! for the region it will move next while it computes on this one.

use std::ops::Range;
use std::sync::OnceLock;

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
    /// As [`Mover::strided_move`], for the elements of the sub-rectangle.
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

/// One ISA's strided mover with its bodies resolved: the move, the panel
/// pack and the prefetch of [`IsaKind`]'s `VectorIsa` impl, looked up once
/// when the handle is made. Copy it wherever moves are issued — a GEMM
/// runner keeps one for every pack and every `C` tile it stages.
#[derive(Clone, Copy)]
pub struct Mover {
    isa: IsaKind,
    move_2d: unsafe fn(Walk, &Move2d),
    pack: unsafe fn(&Move2d, usize),
    prefetch: PrefetchBody,
}

/// A [`Mover::prefetch`] body: the region's base address, its strides,
/// its extent and the line size.
type PrefetchBody = fn(*const u8, (usize, usize), (usize, usize), usize);

impl std::fmt::Debug for Mover {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mover").field("isa", &self.isa).finish()
    }
}

impl Mover {
    /// The mover of `isa`.
    ///
    /// # Panics
    ///
    /// Panics when the host cannot run `isa` ([`IsaKind::available`]).
    pub fn on(isa: IsaKind) -> Mover {
        assert!(isa.available(), "the `{isa}` mover cannot run on this host");
        with_isa_impl!(
            isa,
            I => Mover { isa: I::KIND, move_2d: I::move_2d, pack: pack_panels::<I>, prefetch: prefetch_region::<I> },
            else unreachable!("`{isa}` passed `available()` with no impl")
        )
    }

    /// The mover of the process's [`active_isa`], resolved once per process.
    pub fn active() -> Mover {
        static ACTIVE: OnceLock<Mover> = OnceLock::new();
        *ACTIVE.get_or_init(|| Mover::on(active_isa()))
    }

    /// The ISA whose bodies this mover runs.
    pub fn isa(self) -> IsaKind {
        self.isa
    }

    /// Moves a `rows × cols` region between two strided layouts:
    /// `dst[r·drs + c·dcs] = scale · src[r·srs + c·scs]` for every `r <
    /// rows`, `c < cols`, with `(drs, dcs) = dst_strides`, `(srs, scs) =
    /// src_strides` in elements and `(rows, cols) = extent`. `scale == 1.0`
    /// moves the bits untouched; any other scale is one IEEE multiply per
    /// element, so the result does not depend on the ISA.
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
    /// vectors that overlap ones already moved, narrower vectors or scalars,
    /// never with a full-width access that hangs over the edge. What lies
    /// between the rows of either side — another worker's window of an
    /// interleaved `C`, the caller's padding — need not even be mapped.
    #[inline]
    pub unsafe fn strided_move(
        self,
        dst: *mut f32,
        (drs, dcs): (usize, usize),
        src: *const f32,
        (srs, scs): (usize, usize),
        (rows, cols): (usize, usize),
        scale: f32,
    ) {
        let (walk, m) = Move2d { dst, drs, dcs, src, srs, scs, rows, cols, scale }.classified();
        (self.move_2d)(walk, &m)
    }

    /// Packs a `rows × cols` region of `src` (strides `(srs, scs)` in
    /// elements) into `cols.div_ceil(width)` panels at `dst`, one after
    /// another: panel `p` is `rows` contiguous rows of `width` elements
    /// holding `scale ·` source columns `p·width..`, and the columns of the
    /// last panel past `cols` are zero. That is the [`Mover::strided_move`]
    /// of each panel, with destination strides `(width, 1)`, plus the
    /// padding — every panel in this one call.
    ///
    /// # Safety
    ///
    /// * `dst` must be valid for writes of `cols.div_ceil(width) · rows ·
    ///   width` elements, none of which another thread accesses during the
    ///   call, and `width` must be at least 1;
    /// * `src` must be valid for a read of every element of the region, and
    ///   the two must not overlap.
    ///
    /// Nothing outside those panels and that region is written or read.
    #[inline]
    pub unsafe fn pack_panels(
        self,
        dst: *mut f32,
        width: usize,
        src: *const f32,
        (srs, scs): (usize, usize),
        (rows, cols): (usize, usize),
        scale: f32,
    ) {
        debug_assert!(width > 0, "a panel is at least one column wide");
        (self.pack)(&Move2d { dst, drs: width, dcs: 1, src, srs, scs, rows, cols, scale }, width)
    }

    /// Hints the cache to fetch every line of a `rows × cols` region of
    /// `f32`s at `base` with `(row, column)` strides in elements — one hint
    /// per distinct `line`-byte line along the region's unit-stride axis:
    /// each row when `col_stride == 1`, else each column when `row_stride ==
    /// 1`, and no hint at all when neither stride is 1 (or `line` is 0). The
    /// driver issues it for the next `C` tile while the micro-kernel runs on
    /// this one, so the tile's stage-in and write-back find their lines in
    /// the L1d.
    ///
    /// A hint reads and writes no element and cannot fault. Every address
    /// it names lies inside one of the region's runs: it is `base` stepped
    /// with `wrapping_add` to the run's first byte or to the first byte of a
    /// later line the run touches, so nothing outside the region is formed,
    /// let alone accessed. The bodies are per ISA: `prefetcht0` on x86_64
    /// (AVX-512 runs the AVX2 one), `prfm pldl1keep` on aarch64, nothing on
    /// the scalar reference.
    #[inline]
    pub fn prefetch(self, base: *const f32, strides: (usize, usize), extent: (usize, usize), line: usize) {
        (self.prefetch)(base.cast(), strides, extent, line)
    }
}

/// `I`'s [`Mover::pack_panels`]: `m` is the whole region with one panel
/// row's destination strides. A fringe panel is zeroed whole, then moved
/// into: one fill instead of one per row.
///
/// # Safety
///
/// As [`Mover::pack_panels`], with `I` available on this host.
unsafe fn pack_panels<I: VectorIsa>(m: &Move2d, width: usize) {
    let panel_len = m.rows * width;
    let (mut dst, mut col) = (m.dst, 0);
    while col < m.cols {
        let cols = width.min(m.cols - col);
        if cols < width {
            std::ptr::write_bytes(dst, 0, panel_len);
        }
        let (walk, panel) = Move2d { dst, src: m.src.wrapping_add(col * m.scs), cols, ..*m }.classified();
        I::move_2d(walk, &panel);
        dst = dst.add(panel_len);
        col += width;
    }
}

/// `I`'s [`Mover::prefetch`] over a region at `base` (a byte address).
fn prefetch_region<I: VectorIsa>(
    base: *const u8,
    strides: (usize, usize),
    extent: (usize, usize),
    line: usize,
) {
    for_each_hint(base.addr(), strides, extent, line, |offset| {
        // SAFETY: a `Mover` of `I` exists only where `I` is available on
        // this host, and a prefetch accesses nothing.
        unsafe { I::prefetch(base.wrapping_add(offset)) }
    })
}

/// Calls `hint` with the byte offset from `start` (an address) of each of
/// [`Mover::prefetch`]'s hints over a `rows × cols` region with `(row,
/// column)` element strides: [`for_each_line`] of every run along the
/// unit-stride axis.
#[inline(always)]
fn for_each_hint(
    start: usize,
    (row_stride, col_stride): (usize, usize),
    (rows, cols): (usize, usize),
    line: usize,
    mut hint: impl FnMut(usize),
) {
    let elem = size_of::<f32>();
    let (runs, run_len, run_stride) = if col_stride == 1 {
        (rows, cols, row_stride)
    } else if row_stride == 1 {
        (cols, rows, col_stride)
    } else {
        (0, 0, 0)
    };
    for r in 0..runs {
        let run = r * run_stride * elem;
        for_each_line(start.wrapping_add(run), run_len * elem, line, |offset| hint(run + offset));
    }
}

/// Calls `hint` with one byte offset from `start` (an address) into each
/// distinct `line`-byte line the `bytes` bytes from `start` touch: `0` for
/// the first line, then the first byte of each later one. Every offset is
/// below `bytes`; no bytes, or a zero-byte line, gives none.
#[inline(always)]
fn for_each_line(start: usize, bytes: usize, line: usize, mut hint: impl FnMut(usize)) {
    if bytes == 0 || line == 0 {
        return;
    }
    // How far `start` lies past the start of its line: a mask for the
    // power-of-two lines every real cache has, no division per run.
    let skew = if line.is_power_of_two() { start & (line - 1) } else { start % line };
    hint(0);
    let mut offset = line - skew;
    while offset < bytes {
        hint(offset);
        offset += line;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(start: usize, bytes: usize, line: usize) -> Vec<usize> {
        let mut offsets = Vec::new();
        for_each_line(start, bytes, line, |offset| offsets.push(offset));
        offsets
    }

    fn hints(strides: (usize, usize), extent: (usize, usize)) -> Vec<usize> {
        let mut offsets = Vec::new();
        for_each_hint(0x1000, strides, extent, 64, |offset| offsets.push(offset));
        offsets
    }

    #[test]
    fn a_run_takes_one_hint_per_line_it_touches() {
        // 16 floats on one line, and the same 16 floats 16 bytes past one.
        assert_eq!(lines(0x1000, 64, 64), [0]);
        assert_eq!(lines(0x1010, 64, 64), [0, 48]);
        // A 24-float row of a 4x24 tile, 48 bytes past a line: three.
        assert_eq!(lines(0x1030, 96, 64), [0, 16, 80]);
        // One float, the last of its line.
        assert_eq!(lines(0x103c, 4, 64), [0]);
        // A line size that is no power of two walks the same way.
        assert_eq!(lines(0x1000 + 40, 96, 48), [0, 40, 88]);
        // Nothing to hint: no bytes, or a zero-byte line.
        assert_eq!(lines(0x1000, 0, 64), [] as [usize; 0]);
        assert_eq!(lines(0x1000, 64, 0), [] as [usize; 0]);
    }

    #[test]
    fn a_region_is_enumerated_along_its_unit_stride() {
        // A row-major 4x24 tile of a `C` whose rows are whole lines apart
        // (`ldc = 112`): two lines per row, each row's first at its start.
        let row_major = hints((112, 1), (4, 24));
        assert_eq!(row_major, [0, 64, 448, 512, 896, 960, 1344, 1408]);
        // With `ldc = 100` the rows start 0, 16, 32 and 48 bytes past a
        // line, and the last one spans three.
        assert_eq!(hints((100, 1), (4, 24)).len(), 2 + 2 + 2 + 3);
        // The same tile of a column-major `C` (`ldc = 100`): one run per
        // column, 16 bytes each, so one hint per column.
        assert_eq!(hints((1, 100), (4, 24)), (0..24).map(|j| j * 400).collect::<Vec<_>>());
        // No unit stride: nothing to walk line by line.
        assert_eq!(hints((200, 2), (4, 24)), [] as [usize; 0]);
        // An empty region.
        assert_eq!(hints((100, 1), (0, 24)), [] as [usize; 0]);
    }

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
