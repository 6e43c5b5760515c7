//! The BLIS packing routines, over strided views.
//!
//! `Ac := op(A)(ic:ic+mc, pc:pc+kc)` is packed into micro-panels of `mr`
//! rows so that the micro-kernel reads it with unit stride as `Ac[k][mr]`
//! (scaled by `alpha` on the way in — folding the BLAS scale into the one
//! pass that already touches every element); `Bc := op(B)(pc:pc+kc,
//! jc:jc+nc)` is packed into micro-panels of `nr` columns read as
//! `Bc[k][nr]`. Fringe panels are zero-padded to the full register tile,
//! which is how the monolithic library kernels handle edge cases.
//!
//! The source is a [`MatRef`] — an arbitrary strided view — so transposes
//! and sub-matrices are *stride walks*, not copies: `op(X) = T` reaches the
//! packers as a view whose strides are swapped. Every pack is the
//! workspace's strided mover ([`exo_codegen::simd::Mover`]): a whole block
//! — every panel and its zero padding — in one [`Mover::pack_panels`]
//! call. The region's strides pick the mover's walk and the executing ISA
//! its body —
//!
//! * unit stride along the packed row → whole-vector row copies (the dense
//!   `B` hot path, and the dense-`A`-transposed path);
//! * unit stride *across* packed rows → in-register transposes, so the
//!   strided gather reads each source cache line once and writes whole
//!   vectors (the dense `A` hot path, and the dense-`B`-transposed path);
//! * anything else → a scalar stride walk.
//!
//! A block of `B` is walked one of two ways ([`source_order`] picks):
//!
//! * **panel order** — panel after panel, each reading a `nr`-wide piece
//!   of each of `kc` source rows a whole row apart;
//! * **source order** — one mover call per source row, which reads the
//!   row's whole panels front to back and scatters them `kc · nr` apart
//!   into the panels. It is taken when the block's rows are contiguous,
//!   a packed panel row is a whole number of cache lines, and the block
//!   outgrows the L1d: then the panel walk's row-apart pieces are what
//!   the hardware prefetcher cannot follow, and the scattered stores each
//!   fill whole lines. The fringe panel is always packed in panel order.
//!
//! [`pack_a_into`]/[`pack_b_into`] run the process's active mover; the
//! driver's runners call the same packers with the mover they resolved
//! when they were built. Both write into caller-owned buffers — in the
//! driver, the [`PackArena`] each engine instance grows once and reuses, or
//! a [`PackedB`]: the whole of `op(B)` packed once, ahead of the five loops,
//! for every GEMM that multiplies by the same matrix.

use std::ops::Range;

use exo_codegen::simd::{AlignedBuf, Mover};

use crate::blocking::BlockingParams;
use crate::host::HostDescription;
use crate::views::MatRef;
use crate::GemmError;

/// Packs `region`, scaled by `scale`, into `out` as panels of `width`
/// contiguous columns ([`Mover::pack_panels`]: one call, padding included).
///
/// # Panics
///
/// Panics if `out` is shorter than the panels.
fn pack_region(mover: Mover, out: &mut [f32], region: MatRef<'_>, width: usize, scale: f32) {
    let (rows, cols) = (region.rows(), region.cols());
    assert!(out.len() >= cols.div_ceil(width) * rows * width, "pack_region: panels too small");
    // SAFETY: a `MatRef` holds every `(r, c)` of its extent inside its
    // backing slice (checked at construction, kept by `t` and
    // `submatrix`); the assert above holds the panels inside `out`, and
    // `width` is at least 1 (`div_ceil` would have panicked on 0); a shared
    // and an exclusive borrow cannot overlap.
    unsafe {
        mover.pack_panels(
            out.as_mut_ptr(),
            width,
            region.data().as_ptr(),
            (region.row_stride(), region.col_stride()),
            (rows, cols),
            scale,
        );
    }
}

/// Moves the `R x C` `region`, scaled by `alpha`, into columns `at..at + C`
/// of the first `R` rows of `tile_w` contiguous elements in `out`, and
/// touches no other element: the strided mover, once.
fn move_region(mover: Mover, out: &mut [f32], region: MatRef<'_>, at: usize, tile_w: usize, alpha: f32) {
    let (rows, cols) = (region.rows(), region.cols());
    assert!(at + cols <= tile_w && out.len() >= rows * tile_w, "pack_region: panel too small");
    let dst = out.as_mut_ptr().wrapping_add(at);
    // SAFETY: as in `pack_region` for the source; the assert above holds
    // `at + r * tile_w + c` inside `out` for every `(r, c)` of the extent,
    // and strides `(tile_w, 1)` are injective there as `at + cols <=
    // tile_w`.
    unsafe {
        mover.strided_move(
            dst,
            (tile_w, 1),
            region.data().as_ptr(),
            (region.row_stride(), region.col_stride()),
            (rows, cols),
            alpha,
        );
    }
}

/// Zero-pads columns `from..tile_w` of the first `rows` rows of `tile_w`
/// elements in `out` (values beyond `rows * tile_w` are the caller's
/// responsibility — the packers never leave them stale).
fn pad_columns(out: &mut [f32], rows: usize, from: usize, tile_w: usize) {
    if from < tile_w {
        for dst in out.chunks_exact_mut(tile_w).take(rows) {
            dst[from..].fill(0.0);
        }
    }
}

/// Packs a block of `op(A)` (selecting rows `ic..ic+mc_eff` and columns
/// `pc..pc+kc_eff` of the *effective*, op-applied view) into `mr`-row
/// micro-panels scaled by `alpha`, zero-padding the last panel.
///
/// `out` must hold at least `ceil(mc_eff / mr) * kc_eff * mr` elements:
/// `ceil(mc_eff / mr)` panels, each laid out as `kc_eff` rows of `mr`
/// contiguous elements. Every element of that prefix is written (values or
/// explicit zero padding), so a reused arena buffer never leaks stale data.
///
/// # Panics
///
/// Panics if `out` is shorter than the packed block or the block exceeds
/// the view.
#[allow(clippy::too_many_arguments)]
pub fn pack_a_into(
    out: &mut [f32],
    a: MatRef<'_>,
    ic: usize,
    pc: usize,
    mc_eff: usize,
    kc_eff: usize,
    mr: usize,
    alpha: f32,
) {
    pack_a_block(Mover::active(), out, a, [ic, pc, mc_eff, kc_eff], mr, alpha);
}

/// [`pack_a_into`] on `mover`, the `[ic, pc, mc_eff, kc_eff]` block: the
/// packed panels are the `kc_eff x mc_eff` *transpose* of the block, so
/// the region is the sub-block transposed — dense row-major `A` lands on
/// the mover's transposing walk, and `op(A) = T` (a stride-swapped view)
/// on its row copies.
pub(crate) fn pack_a_block(
    mover: Mover,
    out: &mut [f32],
    a: MatRef<'_>,
    block: [usize; 4],
    mr: usize,
    alpha: f32,
) {
    let [ic, pc, mc_eff, kc_eff] = block;
    pack_region(mover, out, a.submatrix(ic, pc, mc_eff, kc_eff).t(), mr, alpha);
}

/// [`pack_a_into`] over an `op(A)` whose rows are stacked from several
/// operands: `rows_of(r)` yields, top to bottom, the `kc_eff`-column blocks
/// that hold stacked rows `r` — one per operand a micro-panel straddles.
/// Each panel is filled from every block
/// its rows come from, one mover call per block, and zero-padded past its
/// last row, so a straddling panel holds the bytes that packing each
/// operand's rows on their own would have put in those positions.
///
/// # Panics
///
/// Panics if `out` is shorter than the packed block or a block is wider
/// than the panel.
pub(crate) fn pack_a_rows<'a, I>(
    mover: Mover,
    out: &mut [f32],
    rows_of: impl Fn(Range<usize>) -> I,
    rows: Range<usize>,
    kc_eff: usize,
    mr: usize,
    alpha: f32,
) where
    I: IntoIterator<Item = MatRef<'a>>,
{
    let panels = rows.len().div_ceil(mr);
    let panel_len = kc_eff * mr;
    assert!(out.len() >= panels * panel_len, "pack_a_into: arena too small");
    for p in 0..panels {
        let panel = &mut out[p * panel_len..(p + 1) * panel_len];
        let start = rows.start + p * mr;
        let mut filled = 0;
        for block in rows_of(start..(start + mr).min(rows.end)) {
            // The packed panel is the (kc_eff x rows) *transpose* of the
            // A-block rows, so the region view is the sub-block transposed:
            // dense row-major A lands on the mover's transposing walk, and
            // op(A) = T (stride-swapped view) on its row copies.
            move_region(mover, panel, block.t(), filled, mr, alpha);
            filled += block.rows();
        }
        pad_columns(panel, kc_eff, filled, mr);
    }
}

/// Packs a block of `op(B)` (selecting rows `pc..pc+kc_eff` and columns
/// `jc..jc+nc_eff` of the effective, op-applied view) into `nr`-column
/// micro-panels, zero-padding the last panel.
///
/// `out` must hold at least `ceil(nc_eff / nr) * kc_eff * nr` elements:
/// `ceil(nc_eff / nr)` panels, each laid out as `kc_eff` rows of `nr`
/// contiguous elements. Every element of that prefix is written, so a
/// reused arena buffer never leaks stale data.
///
/// The walk is the one [`source_order`] picks for this host
/// ([`HostDescription::probed`]); both write the same bits.
///
/// # Panics
///
/// Panics if `out` is shorter than the packed block or the block exceeds
/// the view.
pub fn pack_b_into(
    out: &mut [f32],
    b: MatRef<'_>,
    pc: usize,
    jc: usize,
    kc_eff: usize,
    nc_eff: usize,
    nr: usize,
) {
    pack_b_block(Mover::active(), out, b, [pc, jc, kc_eff, nc_eff], nr);
}

/// [`pack_b_into`] on `mover`, the `[pc, jc, kc_eff, nc_eff]` block.
pub(crate) fn pack_b_block(mover: Mover, out: &mut [f32], b: MatRef<'_>, block: [usize; 4], nr: usize) {
    let [_, _, kc_eff, nc_eff] = block;
    let in_source_order = source_order(kc_eff, nc_eff, b.col_stride(), nr, HostDescription::probed());
    pack_b_walk(mover, out, b, block, nr, in_source_order);
}

/// Whether [`pack_b_into`] walks a `kc_eff x nc_eff` block of a `B` whose
/// elements along a row lie `col_stride` apart in source order (one mover
/// call per source row) rather than panel order (one per panel) on `host`:
/// when the block's rows are contiguous, a packed panel row of `nr`
/// elements is a whole number of the L1d's lines, and the block outgrows
/// the L1d. (A zero-byte line divides no panel row, so a host that reads
/// one keeps the panel walk.)
pub fn source_order(
    kc_eff: usize,
    nc_eff: usize,
    col_stride: usize,
    nr: usize,
    host: &HostDescription,
) -> bool {
    let l1d = host.l1d;
    col_stride == 1
        && (nr * size_of::<f32>()).is_multiple_of(l1d.line)
        && kc_eff * nc_eff * size_of::<f32>() > l1d.bytes
}

/// [`pack_b_into`] on the `[pc, jc, kc_eff, nc_eff]` block with the walk
/// named: in source order the whole panels are packed one source row at a
/// time, and the fringe panel, as every panel of the panel walk, one panel
/// at a time.
fn pack_b_walk(
    mover: Mover,
    out: &mut [f32],
    b: MatRef<'_>,
    block: [usize; 4],
    nr: usize,
    in_source_order: bool,
) {
    let [pc, jc, kc_eff, nc_eff] = block;
    let panel_len = kc_eff * nr;
    assert!(out.len() >= nc_eff.div_ceil(nr) * panel_len, "pack_b_into: arena too small");
    let whole = if in_source_order { nc_eff / nr } else { 0 };
    if whole > 0 {
        let cs = b.col_stride();
        for k in 0..kc_eff {
            let row = b.submatrix(pc + k, jc, 1, whole * nr);
            let dst = out.as_mut_ptr().wrapping_add(k * nr);
            // SAFETY: the `whole` pieces of `nr` elements `cs` apart are
            // the `whole * nr` elements of `row`, which its `MatRef` holds
            // inside its slice. Piece `p` lands on row `k` of panel `p`,
            // `p * panel_len + k * nr + 0..nr` of `out` from `dst`, inside
            // the prefix the assert above checked; as `k < kc_eff` no two
            // pieces share an element, and a shared and an exclusive borrow
            // cannot overlap.
            unsafe {
                mover.strided_move(dst, (panel_len, 1), row.data().as_ptr(), (nr * cs, cs), (whole, nr), 1.0);
            }
        }
    }
    // The rest — every panel of the panel walk, the fringe one of the
    // source-order walk — is the `kc_eff x (nc_eff - whole * nr)` block as
    // it is: dense row-major B lands on the mover's row copies, op(B) = T
    // on its transposing walk.
    let region = b.submatrix(pc, jc + whole * nr, kc_eff, nc_eff - whole * nr);
    pack_region(mover, &mut out[whole * panel_len..], region, nr, 1.0);
}

/// Returns the `kc_eff x mr` micro-panel `ir` of a packed `Ac` buffer.
pub fn a_panel(packed: &[f32], ir: usize, kc_eff: usize, mr: usize) -> &[f32] {
    let base = ir * kc_eff * mr;
    &packed[base..base + kc_eff * mr]
}

/// Returns the `kc_eff x nr` micro-panel `jr` of a packed `Bc` buffer.
pub fn b_panel(packed: &[f32], jr: usize, kc_eff: usize, nr: usize) -> &[f32] {
    let base = jr * kc_eff * nr;
    &packed[base..base + kc_eff * nr]
}

/// Reusable packing buffers: one packed `Ac` block and one packed `Bc`
/// block, sized at the blocking-derived maximum block sizes (clamped to the
/// problem) so the `pack_*_into` calls of every `(jc, pc, ic)` iteration
/// write in place and the block loops allocate nothing. Each buffer exists
/// only once its owner has packed that operand: an engine whose `B` always
/// arrives as a [`PackedB`] image keeps `Ac` alone. Both start on a cache
/// line ([`AlignedBuf`]), and so does every panel whose rows are whole
/// lines, so the kernel's panel loads never straddle two.
#[derive(Debug, Clone)]
pub struct PackArena {
    a: AlignedBuf,
    b: AlignedBuf,
}

impl PackArena {
    /// An arena sized for the given blocking, clamped to an `m x n x k`
    /// problem (a small problem never pays for the full `mc x kc` / `kc x
    /// nc` blocks).
    pub fn for_problem(blocking: &BlockingParams, m: usize, n: usize, k: usize) -> Self {
        let mut arena = PackArena::empty();
        arena.ensure_for_problem(blocking, m, n, k);
        arena
    }

    /// The empty arena: no capacity until [`PackArena::ensure_for_problem`]
    /// grows it. Every `GemmRunner` starts here and grows monotonically,
    /// so a stream of small entries never pays for the blocking's
    /// unclamped maxima.
    pub fn empty() -> Self {
        PackArena { a: AlignedBuf::default(), b: AlignedBuf::default() }
    }

    /// Grows the arena (never shrinks) to fit an `m x n x k` problem under
    /// `blocking`, clamped as [`PackArena::for_problem`] describes. A
    /// runner calling this per entry pays an allocation only when an entry
    /// needs more than every entry before it. A buffer that must grow is
    /// replaced, not extended: packing rewrites every element it later
    /// reads, so the old contents are dead, and a fresh zeroed allocation
    /// costs no copy and (for block-sized buffers) no memset.
    pub fn ensure_for_problem(&mut self, blocking: &BlockingParams, m: usize, n: usize, k: usize) {
        self.ensure_a(blocking, m, k);
        let b_len = blocking.nc.min(n.max(1)).div_ceil(blocking.nr) * blocking.nr * blocking.kc.min(k.max(1));
        self.b.grow_to(b_len);
    }

    /// The `Ac` half of [`PackArena::ensure_for_problem`]: all a problem
    /// needs whose `B` arrives as a [`PackedB`] image, so an engine served
    /// from images never holds a `Bc` buffer.
    pub(crate) fn ensure_a(&mut self, blocking: &BlockingParams, m: usize, k: usize) {
        let a_len = blocking.mc.min(m.max(1)).div_ceil(blocking.mr) * blocking.mr * blocking.kc.min(k.max(1));
        self.a.grow_to(a_len);
    }

    /// Both buffers at once (`Ac`, `Bc`), split-borrowed so a packed `Bc`
    /// prefix can stay borrowed while `Ac` blocks are repacked — the form
    /// the five-loop driver needs.
    pub fn buffers(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.a, &mut self.b)
    }

    /// Capacity of the `Bc` buffer in elements.
    pub fn b_capacity(&self) -> usize {
        self.b.len()
    }
}

/// The whole of a `k x n` `op(B)` packed ahead of the five loops: every
/// `(jc, pc)` block exactly as [`pack_b_into`] writes it, concatenated in
/// the order the engine visits them (`jc` outer, `pc` inner), and stamped
/// with the `(k, n, kc, nc, nr)` it was packed for.
///
/// GEMMs that multiply by one `B` under one blocking — a layer's weights
/// against a batch of activations — share an image instead of each packing
/// `B` for itself: [`crate::BlisGemm::run`] slices the image's blocks
/// where it would otherwise pack them, so the bits are those of the
/// per-call run. The engine refuses an image whose stamp does not match
/// the problem and its own blocking; that the image was packed from the
/// problem's `B` is the caller's contract (a stale image computes with the
/// matrix it was packed from). The buffer grows on demand and is never
/// shrunk, so one image repacked batch after batch allocates only when a
/// `B` is larger than every one before it. The default image is of
/// nothing, with an empty buffer until [`crate::BlisGemm::pack_b`] fills
/// it. The image starts on a cache line, as [`PackArena`]'s buffers do.
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    /// The buffer; the image is its first `len` elements.
    data: AlignedBuf,
    len: usize,
    k: usize,
    n: usize,
    kc: usize,
    nc: usize,
    nr: usize,
}

/// `cols` rounded up to whole `nr`-column panels.
fn padded(cols: usize, nr: usize) -> usize {
    cols.div_ceil(nr) * nr
}

impl PackedB {
    /// Packs the whole of `b` — the *effective*, op-applied `k x n` view —
    /// for `blocking`'s `kc`, `nc` and `nr`, replacing what the image held.
    /// Reached through [`crate::BlisGemm::pack_b`], which supplies the
    /// blocking its runners will check the image against.
    pub(crate) fn pack(&mut self, b: MatRef<'_>, blocking: &BlockingParams) {
        let (k, n) = (b.rows(), b.cols());
        let BlockingParams { kc, nc, nr, .. } = *blocking;
        let len = (n / nc * padded(nc, nr) + padded(n % nc, nr)) * k;
        // Replaced, not extended, for the reasons `PackArena` gives.
        self.data.grow_to(len);
        (self.len, self.k, self.n, self.kc, self.nc, self.nr) = (len, k, n, kc, nc, nr);
        let mut rest = &mut self.data[..len];
        for jc in (0..n).step_by(nc) {
            let nc_eff = nc.min(n - jc);
            for pc in (0..k).step_by(kc) {
                let kc_eff = kc.min(k - pc);
                let (block, tail) = rest.split_at_mut(padded(nc_eff, nr) * kc_eff);
                pack_b_into(block, b, pc, jc, kc_eff, nc_eff, nr);
                rest = tail;
            }
        }
    }

    /// The packed elements: the [`pack_b_into`] blocks in `(jc, pc)` order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data[..self.len]
    }

    /// Whether this image is a `k x n` matrix packed for `blocking`.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::ShapeMismatch`] naming both sides when it is not.
    pub(crate) fn check(&self, k: usize, n: usize, blocking: &BlockingParams) -> Result<(), GemmError> {
        let BlockingParams { kc, nc, nr, .. } = *blocking;
        if (self.k, self.n, self.kc, self.nc, self.nr) == (k, n, kc, nc, nr) {
            return Ok(());
        }
        Err(GemmError::ShapeMismatch {
            what: format!(
                "packed B is {}x{} in (kc, nc, nr) = ({}, {}, {}) blocks, the GEMM needs {k}x{n} in ({kc}, {nc}, {nr})",
                self.k, self.n, self.kc, self.nc, self.nr
            ),
        })
    }

    /// The packed block whose top-left corner is `(pc, jc)`, both whole
    /// multiples of the image's `kc` / `nc`.
    pub(crate) fn block(&self, jc: usize, pc: usize) -> &[f32] {
        debug_assert!(jc.is_multiple_of(self.nc) && pc.is_multiple_of(self.kc) && jc < self.n && pc < self.k);
        let width = padded(self.nc.min(self.n - jc), self.nr);
        // Every block before this `jc` is full width; inside it, the `pc`
        // blocks before this one hold `pc` rows of `width`.
        let base = jc / self.nc * padded(self.nc, self.nr) * self.k + width * pc;
        &self.data[base..base + width * self.kc.min(self.k - pc)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An arena roomy enough for every block these tests pack.
    fn roomy_arena(mr: usize, nr: usize) -> PackArena {
        PackArena::for_problem(&BlockingParams { mc: 16, kc: 16, nc: 16, mr, nr }, 16, 16, 16)
    }

    /// Packs the `[ic, pc, mc_eff, kc_eff]` block of `op(A)` into the
    /// arena's `Ac` the way the engine does — [`pack_a_into`] on
    /// [`PackArena::buffers`] — and returns the packed prefix.
    fn pack_a(arena: &mut PackArena, a: MatRef<'_>, block: [usize; 4], mr: usize, alpha: f32) -> Vec<f32> {
        let [ic, pc, mc_eff, kc_eff] = block;
        let (ac, _) = arena.buffers();
        pack_a_into(ac, a, ic, pc, mc_eff, kc_eff, mr, alpha);
        ac[..mc_eff.div_ceil(mr) * kc_eff * mr].to_vec()
    }

    /// The same for the `[pc, jc, kc_eff, nc_eff]` block of `op(B)`:
    /// [`pack_b_into`] on the arena's `Bc`.
    fn pack_b(arena: &mut PackArena, b: MatRef<'_>, block: [usize; 4], nr: usize) -> Vec<f32> {
        let [pc, jc, kc_eff, nc_eff] = block;
        let (_, bc) = arena.buffers();
        pack_b_into(bc, b, pc, jc, kc_eff, nc_eff, nr);
        bc[..nc_eff.div_ceil(nr) * kc_eff * nr].to_vec()
    }

    #[test]
    fn pack_a_is_unit_stride_per_panel() {
        // A is 6 x 4 with A[i][j] = 10 i + j.
        let (m, k) = (6usize, 4usize);
        let a: Vec<f32> = (0..m * k).map(|x| (10 * (x / k) + x % k) as f32).collect();
        let mut arena = roomy_arena(4, 4);
        let packed = &pack_a(&mut arena, MatRef::from_slice(&a, m, k), [0, 0, m, k], 4, 1.0);
        // Two panels of 4 rows (second padded by 2 rows of zeros).
        assert_eq!(packed.len(), 2 * k * 4);
        // Panel 0, k = 1 holds rows 0..4 column 1: 1, 11, 21, 31.
        let p0 = a_panel(packed, 0, k, 4);
        assert_eq!(&p0[4..8], &[1.0, 11.0, 21.0, 31.0]);
        // Panel 1, k = 0 holds rows 4,5 then zero padding.
        let p1 = a_panel(packed, 1, k, 4);
        assert_eq!(&p1[0..4], &[40.0, 50.0, 0.0, 0.0]);
    }

    #[test]
    fn pack_b_is_unit_stride_per_panel() {
        // B is 3 x 7 with B[k][j] = 100 k + j.
        let (k, n) = (3usize, 7usize);
        let b: Vec<f32> = (0..k * n).map(|x| (100 * (x / n) + x % n) as f32).collect();
        let mut arena = roomy_arena(4, 4);
        let packed = &pack_b(&mut arena, MatRef::from_slice(&b, k, n), [0, 0, k, n], 4);
        assert_eq!(packed.len(), 2 * k * 4);
        let p0 = b_panel(packed, 0, k, 4);
        assert_eq!(&p0[0..4], &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(&p0[4..8], &[100.0, 101.0, 102.0, 103.0]);
        // Second panel: columns 4..7 then one zero-padded column.
        let p1 = b_panel(packed, 1, k, 4);
        assert_eq!(&p1[0..4], &[4.0, 5.0, 6.0, 0.0]);
    }

    #[test]
    fn packing_a_sub_block_offsets_correctly() {
        let (m, k) = (8usize, 8usize);
        let a: Vec<f32> = (0..m * k).map(|x| x as f32).collect();
        let mut arena = roomy_arena(4, 4);
        let packed = &pack_a(&mut arena, MatRef::from_slice(&a, m, k), [4, 2, 4, 3], 4, 1.0);
        // Single panel: rows 4..8, columns 2..5.
        let p = a_panel(packed, 0, 3, 4);
        assert_eq!(p[0], a[4 * k + 2]);
        assert_eq!(p[4], a[4 * k + 3]);
        assert_eq!(p[3], a[7 * k + 2]);
    }

    #[test]
    fn transposed_and_strided_sources_pack_identically_to_materialised_ones() {
        // op(A) = T over a row-major k x m buffer must pack exactly what a
        // materialised m x k transpose packs — the stride walk is the
        // transpose.
        let (m, k) = (11usize, 7usize);
        let at: Vec<f32> = (0..k * m).map(|x| (x as f32) * 0.25 - 3.0).collect();
        let a_dense: Vec<f32> = {
            let mut d = vec![0.0f32; m * k];
            for i in 0..m {
                for j in 0..k {
                    d[i * k + j] = at[j * m + i];
                }
            }
            d
        };
        for mr in [4usize, 8] {
            let mut arena = roomy_arena(mr, 4);
            let via_view = pack_a(&mut arena, MatRef::from_slice(&at, k, m).t(), [0, 0, m, k], mr, 1.0);
            let via_dense = pack_a(&mut arena, MatRef::from_slice(&a_dense, m, k), [0, 0, m, k], mr, 1.0);
            assert_eq!(via_view, via_dense, "mr = {mr}");
        }
        // Same for B: a transposed view and a column-major view of the same
        // logical matrix pack identically to the dense row-major layout.
        let (kk, n) = (6usize, 10usize);
        let b_dense: Vec<f32> = (0..kk * n).map(|x| (x as f32) * 0.5 - 7.0).collect();
        let b_cm: Vec<f32> = {
            let mut d = vec![0.0f32; kk * n];
            for i in 0..kk {
                for j in 0..n {
                    d[j * kk + i] = b_dense[i * n + j];
                }
            }
            d
        };
        let mut arena = roomy_arena(4, 4);
        let via_dense = pack_b(&mut arena, MatRef::from_slice(&b_dense, kk, n), [1, 2, 4, 7], 4);
        let via_cm = pack_b(&mut arena, MatRef::col_major(&b_cm, kk, n), [1, 2, 4, 7], 4);
        let via_t = pack_b(&mut arena, MatRef::from_slice(&b_cm, n, kk).t(), [1, 2, 4, 7], 4);
        assert_eq!(via_dense, via_cm);
        assert_eq!(via_dense, via_t);
    }

    #[test]
    fn alpha_scales_packed_a_elements() {
        let a: Vec<f32> = (0..12).map(|x| x as f32).collect();
        let mut arena = roomy_arena(4, 4);
        let plain = pack_a(&mut arena, MatRef::from_slice(&a, 3, 4), [0, 0, 3, 4], 4, 1.0);
        let scaled = pack_a(&mut arena, MatRef::from_slice(&a, 3, 4), [0, 0, 3, 4], 4, -0.5);
        for (p, s) in plain.iter().zip(&scaled) {
            assert_eq!(*s, -0.5 * *p);
        }
    }

    #[test]
    fn arena_packing_leaks_no_stale_values_after_reuse() {
        let blocking = BlockingParams { mc: 8, kc: 6, nc: 12, mr: 4, nr: 4 };
        let (m, n, k) = (7usize, 11usize, 6usize);
        let a: Vec<f32> = (0..m * k).map(|x| (x as f32) * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|x| (x as f32) * 0.25 - 1.0).collect();
        let a_view = MatRef::from_slice(&a, m, k);
        let b_view = MatRef::from_slice(&b, k, n);
        let mut arena = PackArena::for_problem(&blocking, m, n, k);
        // Dirty the arena with a large block first, then pack a smaller
        // fringe block: the reused buffer must not leak stale values, i.e.
        // it must match the same pack into a fresh arena.
        pack_a(&mut arena, a_view, [0, 0, 7, 6], 4, 1.0);
        pack_b(&mut arena, b_view, [0, 0, 6, 11], 4);
        let got_a = pack_a(&mut arena, a_view, [4, 1, 3, 5], 4, 1.0);
        let mut fresh = PackArena::for_problem(&blocking, m, n, k);
        assert_eq!(got_a, pack_a(&mut fresh, a_view, [4, 1, 3, 5], 4, 1.0));
        let got_b = pack_b(&mut arena, b_view, [2, 8, 4, 3], 4);
        assert_eq!(got_b, pack_b(&mut fresh, b_view, [2, 8, 4, 3], 4));
    }

    /// The `[pc, jc, kc_eff, nc_eff]` block of `b` packed by each walk into
    /// a dirtied buffer, as bits: (panel order, source order).
    fn both_walks(b: MatRef<'_>, block: [usize; 4], nr: usize) -> (Vec<u32>, Vec<u32>) {
        let len = block[3].div_ceil(nr) * block[2] * nr;
        let walk = |in_source_order| {
            let mut out = vec![f32::NAN; len];
            pack_b_walk(Mover::active(), &mut out, b, block, nr, in_source_order);
            out.iter().map(|x| x.to_bits()).collect()
        };
        (walk(false), walk(true))
    }

    /// The `[pc, jc, kc_eff, nc_eff]` block of `b` in `nr`-column panels,
    /// element by element, as bits.
    fn packed_by_hand(b: MatRef<'_>, block: [usize; 4], nr: usize) -> Vec<u32> {
        let [pc, jc, kc_eff, nc_eff] = block;
        let mut out = Vec::new();
        for panel in 0..nc_eff.div_ceil(nr) {
            for r in 0..kc_eff {
                for j in panel * nr..(panel + 1) * nr {
                    let x = if j < nc_eff { b.get(pc + r, jc + j) } else { 0.0 };
                    out.push(x.to_bits());
                }
            }
        }
        out
    }

    /// `rows x cols` values in a buffer whose rows are `ld` apart and whose
    /// first element lies `bytes` past a 64-byte boundary, and that
    /// element's index.
    fn placed(rows: usize, cols: usize, ld: usize, bytes: usize) -> (Vec<f32>, usize) {
        let mut buf = vec![-9.0f32; rows * ld + 32];
        let start = buf.as_ptr().addr().wrapping_neg() % 64 / 4 + bytes / 4;
        for r in 0..rows {
            for c in 0..cols {
                buf[start + r * ld + c] = (r * 1000 + c) as f32 + 0.5;
            }
        }
        (buf, start)
    }

    #[test]
    fn both_walks_pack_the_same_bytes() {
        for nr in [4usize, 8, 12, 16] {
            for fringe in [0, 1, nr - 1] {
                for kc_eff in [1usize, 17, 300] {
                    let (pc, jc, nc_eff) = (3, 5, 3 * nr + fringe);
                    let (k, n) = (pc + kc_eff + 2, jc + nc_eff + 1);
                    let block = [pc, jc, kc_eff, nc_eff];
                    let at = format!("nr {nr}, nc_eff {nc_eff}, kc_eff {kc_eff}");
                    let check = |source: &str, b: MatRef<'_>| {
                        let want = packed_by_hand(b, block, nr);
                        assert_eq!(both_walks(b, block, nr), (want.clone(), want), "{source}, {at}");
                    };
                    let (dense, start) = placed(k, n, n, 0);
                    check("dense", MatRef::from_slice(&dense[start..start + k * n], k, n));
                    // A window of a wider matrix, at every 16-byte placement.
                    for bytes in [0, 16, 32, 48] {
                        let (wide, start) = placed(k, n, n + 7, bytes);
                        check(&format!("+{bytes} B"), MatRef::with_strides(&wide[start..], k, n, n + 7, 1));
                    }
                    let (bt, start) = placed(n, k, k, 0);
                    check("op(B) = T", MatRef::from_slice(&bt[start..start + n * k], n, k).t());
                }
            }
        }
    }

    #[test]
    fn a_packed_image_holds_the_blocks_both_walks_pack() {
        let (k, n) = (700, 300);
        let (b, start) = placed(k, n, n, 0);
        let b = MatRef::from_slice(&b[start..start + k * n], k, n);
        let blocking = BlockingParams { mc: 16, kc: 320, nc: 208, mr: 16, nr: 16 };
        let mut image = PackedB::default();
        image.pack(b, &blocking);
        for jc in (0..n).step_by(blocking.nc) {
            for pc in (0..k).step_by(blocking.kc) {
                let block = [pc, jc, blocking.kc.min(k - pc), blocking.nc.min(n - jc)];
                let bits: Vec<u32> = image.block(jc, pc).iter().map(|x| x.to_bits()).collect();
                assert_eq!(both_walks(b, block, blocking.nr), (bits.clone(), bits), "block {block:?}");
            }
        }
    }

    #[test]
    fn the_walk_is_chosen_by_the_block_the_strides_and_the_host() {
        use crate::host::CacheGeometry;
        let level = |bytes| CacheGeometry { bytes, ways: 16, line: 64 };
        let host = HostDescription {
            l1d: CacheGeometry { bytes: 48 << 10, ways: 12, line: 64 },
            l2: level(2 << 20),
            l3: level(0),
        };
        // The largest `serve_small` block (8x40x16) under 16x16: L1-resident.
        assert!(!source_order(16, 40, 1, 16, &host));
        // 8x12's 48-byte panel rows are not whole lines, however large the block.
        assert!(!source_order(768, 512, 1, 12, &host));
        // op(B) = T: the block's rows are not contiguous.
        assert!(!source_order(768, 512, 768, 16, &host));
        // A ResNet-50 block under 16x16, and the same under 8x8 on 32-byte lines.
        assert!(source_order(768, 512, 1, 16, &host));
        let short_lines = HostDescription { l1d: CacheGeometry { line: 32, ..host.l1d }, ..host };
        assert!(source_order(768, 512, 1, 8, &short_lines));
        assert!(!source_order(768, 512, 1, 8, &host));
        // A block of exactly the L1d is not larger than it.
        assert!(!source_order(768, 16, 1, 16, &host));
        assert!(source_order(769, 16, 1, 16, &host));
        // A zero-byte line keeps the panel walk, and does not divide by zero.
        let no_line = HostDescription { l1d: CacheGeometry { line: 0, ..host.l1d }, ..host };
        assert!(!source_order(768, 512, 1, 16, &no_line));
    }

    /// Asserts `buf` starts on a 64-byte boundary.
    fn assert_on_a_line(buf: &[f32], what: &str) {
        assert_eq!(buf.as_ptr().addr() % 64, 0, "{what} does not start on a cache line");
    }

    /// The lengths of `Ac` and `Bc` as the driver borrows them, each checked
    /// to start on a cache line.
    fn buffer_lens(arena: &mut PackArena) -> (usize, usize) {
        let (a, b) = arena.buffers();
        assert_on_a_line(a, "Ac");
        assert_on_a_line(b, "Bc");
        (a.len(), b.len())
    }

    #[test]
    fn arena_capacity_is_clamped_to_the_problem() {
        let blocking = BlockingParams { mc: 120, kc: 512, nc: 3072, mr: 8, nr: 12 };
        let mut small = PackArena::for_problem(&blocking, 10, 10, 10);
        // 10 rows -> 2 panels of 8, depth 10; 10 cols -> 1 panel of 12.
        assert_eq!(buffer_lens(&mut small), (16 * 10, 12 * 10));
        assert_eq!(small.b_capacity(), 12 * 10);
        let mut large = PackArena::for_problem(&blocking, 4000, 4000, 4000);
        assert_eq!(buffer_lens(&mut large), (120 * 512, 3072 * 512));
        assert_eq!(large.b_capacity(), 3072 * 512);
    }

    #[test]
    fn packed_buffers_start_on_a_cache_line_however_they_grew() {
        let blocking = BlockingParams { mc: 120, kc: 256, nc: 3072, mr: 16, nr: 16 };
        // Empty, block-sized (past glibc's `mmap` threshold, where a plain
        // `Vec` starts 16 bytes into a page), then cloned.
        let mut arena = PackArena::empty();
        buffer_lens(&mut arena);
        for (m, n, k) in [(10, 10, 10), (100, 300, 200), (4000, 4000, 4000)] {
            arena.ensure_for_problem(&blocking, m, n, k);
            buffer_lens(&mut arena);
            buffer_lens(&mut arena.clone());
        }
        let mut image = PackedB::default();
        assert_on_a_line(image.as_slice(), "the default image");
        for (k, n) in [(3, 7), (600, 200)] {
            let b: Vec<f32> = (0..k * n).map(|x| x as f32).collect();
            image.pack(MatRef::from_slice(&b, k, n), &blocking);
            assert_on_a_line(image.as_slice(), &format!("a {k}x{n} image"));
            assert_on_a_line(image.clone().as_slice(), &format!("a clone of the {k}x{n} image"));
            assert_eq!(image.clone().as_slice(), image.as_slice());
        }
    }
}
