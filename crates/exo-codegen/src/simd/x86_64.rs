//! The AVX2/FMA implementation of [`VectorIsa`]: the strided mover on
//! 8-lane `__m256` and 4-lane `__m128` vectors, and the `prefetcht0` hint.
//!
//! AVX2 is not a baseline x86_64 feature, so the vector body sits behind a
//! `#[target_feature(enable = "avx2")]` call boundary: [`Avx2`]'s mover is
//! a thin delegation to a `target_feature` free function, one call boundary
//! per moved region, everything under it inlined.

use std::arch::x86_64::{
    __m128, __m256, _mm256_castps128_ps256, _mm256_insertf128_ps, _mm256_loadu_ps, _mm256_mul_ps,
    _mm256_set1_ps, _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps,
    _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_mul_ps, _mm_prefetch, _mm_set1_ps, _mm_storeu_ps,
    _mm_unpackhi_ps, _mm_unpacklo_ps, _MM_HINT_T0,
};

use super::mover::{Move2d, Walk};
use super::{scalar, IsaKind, VectorIsa};

/// The AVX2 + FMA vector implementation.
pub(crate) struct Avx2;

impl VectorIsa for Avx2 {
    const KIND: IsaKind = IsaKind::Avx2;

    fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    unsafe fn move_2d(walk: Walk, m: &Move2d) {
        move_2d(walk, m)
    }

    /// `prefetcht0`: an SSE instruction, baseline on x86_64.
    #[inline(always)]
    unsafe fn prefetch(p: *const u8) {
        _mm_prefetch::<_MM_HINT_T0>(p.cast())
    }
}

/// The AVX2 body of the strided mover ([`super::mover`]): whole `__m256`
/// then `__m128` row copies, 8×8 in-register transposes (as pairs of 4×8
/// halves) with 4×4 granules, and scalars only where a region is narrower
/// than four elements on an axis the vectors need. A tail is finished by a
/// vector that ends at the region's edge and overlaps what is already
/// moved: it writes those elements again with the same bits, and stays
/// inside the extent. One call — one `target_feature` boundary — moves a
/// whole region.
///
/// # Safety
///
/// Requires AVX2; otherwise as [`super::Mover::strided_move`], with `m` named
/// for `walk` (`Move2d::classified`).
#[target_feature(enable = "avx2")]
unsafe fn move_2d(walk: Walk, m: &Move2d) {
    if m.scale == 1.0 {
        move_scaled::<false>(walk, m, _mm256_set1_ps(1.0), _mm_set1_ps(1.0))
    } else {
        move_scaled::<true>(walk, m, _mm256_set1_ps(m.scale), _mm_set1_ps(m.scale))
    }
}

/// [`move_2d`] with the scale settled: `SCALED` multiplies every element
/// by `k8` / `k4` (`scale` broadcast), otherwise elements move untouched.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn move_scaled<const SCALED: bool>(walk: Walk, m: &Move2d, k8: __m256, k4: __m128) {
    match walk {
        Walk::Rows => move_rows::<SCALED>(m, k8, k4),
        Walk::Transposed => move_transposed::<SCALED>(m, k8, k4),
        Walk::General => m.walk(0..m.rows, 0..m.cols),
    }
}

/// `k · v` when `SCALED`, else `v` untouched.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn scaled_256<const SCALED: bool>(v: __m256, k: __m256) -> __m256 {
    if SCALED {
        _mm256_mul_ps(k, v)
    } else {
        v
    }
}

/// The `__m128` form of [`scaled_256`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn scaled_128<const SCALED: bool>(v: __m128, k: __m128) -> __m128 {
    if SCALED {
        _mm_mul_ps(k, v)
    } else {
        v
    }
}

/// [`Walk::Rows`]: each row is `cols` contiguous elements on both sides —
/// 8 at a time with the last 8 ending at the row's end, 4 and 4 likewise
/// for a row of 4 to 7, scalars for a row of fewer than 4.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn move_rows<const SCALED: bool>(m: &Move2d, k8: __m256, k4: __m128) {
    let cols = m.cols;
    for r in 0..m.rows {
        let (d, s) = (m.dst.add(r * m.drs), m.src.add(r * m.srs));
        if cols >= 8 {
            let mut c = 0;
            while c + 8 < cols {
                _mm256_storeu_ps(d.add(c), scaled_256::<SCALED>(_mm256_loadu_ps(s.add(c)), k8));
                c += 8;
            }
            let last = cols - 8;
            _mm256_storeu_ps(d.add(last), scaled_256::<SCALED>(_mm256_loadu_ps(s.add(last)), k8));
        } else if cols >= 4 {
            let last = cols - 4;
            let (head, tail) = (_mm_loadu_ps(s), _mm_loadu_ps(s.add(last)));
            _mm_storeu_ps(d, scaled_128::<SCALED>(head, k4));
            _mm_storeu_ps(d.add(last), scaled_128::<SCALED>(tail, k4));
        } else {
            for c in 0..cols {
                *d.add(c) = scalar::scaled(*s.add(c), m.scale);
            }
        }
    }
}

/// [`Walk::Transposed`]: destination rows and source columns are the
/// contiguous runs. The region is tiled in strips of eight columns walked
/// four rows at a time — 4×8 blocks, two of which, one under the other,
/// are an 8×8 transpose — then in strips of four columns as 4×4 blocks
/// for the last four to seven; a strip's last block, and the last strip,
/// end at the region's edge. A region fewer than four rows or columns
/// wide is the scalar walk.
///
/// When every destination row starts 16 bytes past a 32-byte boundary (the
/// first does and `drs` is a whole number of 8-element vectors) — a caller's
/// `C` the driver stages tiles back into, say — one strip of 4×4 blocks
/// goes first. It puts every 8-wide store that follows on a 32-byte
/// boundary, so none of them splits a cache line.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn move_transposed<const SCALED: bool>(m: &Move2d, k8: __m256, k4: __m128) {
    let cols = m.cols;
    if m.rows < 4 || cols < 4 {
        return m.walk(0..m.rows, 0..cols);
    }
    let mut c = 0;
    if m.dst.addr() % 32 == 16 && m.drs.is_multiple_of(8) {
        transpose_strip::<SCALED, 4>(m, 0, k8, k4);
        c = 4;
    }
    while c + 8 <= cols {
        transpose_strip::<SCALED, 8>(m, c, k8, k4);
        c += 8;
    }
    if c + 4 < cols {
        transpose_strip::<SCALED, 4>(m, c, k8, k4);
    }
    if c < cols {
        transpose_strip::<SCALED, 4>(m, cols - 4, k8, k4);
    }
}

/// The `WIDTH` (8 or 4) columns from `c`, as 4×`WIDTH` blocks down every
/// row, the last block ending on the last row.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose_strip<const SCALED: bool, const WIDTH: usize>(
    m: &Move2d,
    c: usize,
    k8: __m256,
    k4: __m128,
) {
    let mut r = 0;
    while r + 4 <= m.rows {
        transpose_block::<SCALED, WIDTH>(m, r, c, k8, k4);
        r += 4;
    }
    if r < m.rows {
        transpose_block::<SCALED, WIDTH>(m, m.rows - 4, c, k8, k4);
    }
}

/// The 4×`WIDTH` block at row `r`, column `c`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose_block<const SCALED: bool, const WIDTH: usize>(
    m: &Move2d,
    r: usize,
    c: usize,
    k8: __m256,
    k4: __m128,
) {
    let (d, s) = (m.dst.add(r * m.drs + c), m.src.add(c * m.scs + r));
    if WIDTH == 8 {
        transpose_4x8::<SCALED>(d, m.drs, s, m.scs, k8)
    } else {
        transpose_4x4::<SCALED>(d, m.drs, s, m.scs, k4)
    }
}

/// Loads 4 elements from each of eight source columns (`scs` apart),
/// transposes them in registers and stores four 8-element destination rows
/// (`drs` apart) — half of an 8×8 transpose.
///
/// Column `j` is loaded beside column `j + 4`, one per 128-bit lane, so the
/// lane crossing of the 8×8 transpose happens in the load ports
/// (`vinsertf128` from memory) and the shuffle ports only run the two
/// in-lane stages, `unpack` then `shuffle`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose_4x8<const SCALED: bool>(d: *mut f32, drs: usize, s: *const f32, scs: usize, k: __m256) {
    let pair =
        [column_pair(s, scs, 0), column_pair(s, scs, 1), column_pair(s, scs, 2), column_pair(s, scs, 3)];
    // Interleave pairs of columns, then pairs of pairs: each vector is one
    // whole row, columns 0..4 in its low lane and 4..8 in its high lane.
    let (p0, p1) = (_mm256_unpacklo_ps(pair[0], pair[1]), _mm256_unpackhi_ps(pair[0], pair[1]));
    let (p2, p3) = (_mm256_unpacklo_ps(pair[2], pair[3]), _mm256_unpackhi_ps(pair[2], pair[3]));
    _mm256_storeu_ps(d, scaled_256::<SCALED>(_mm256_shuffle_ps::<0x44>(p0, p2), k));
    _mm256_storeu_ps(d.add(drs), scaled_256::<SCALED>(_mm256_shuffle_ps::<0xEE>(p0, p2), k));
    _mm256_storeu_ps(d.add(2 * drs), scaled_256::<SCALED>(_mm256_shuffle_ps::<0x44>(p1, p3), k));
    _mm256_storeu_ps(d.add(3 * drs), scaled_256::<SCALED>(_mm256_shuffle_ps::<0xEE>(p1, p3), k));
}

/// Four elements of source column `j` in the low lane, of column `j + 4` in
/// the high lane.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn column_pair(s: *const f32, scs: usize, j: usize) -> __m256 {
    let low = _mm256_castps128_ps256(_mm_loadu_ps(s.add(j * scs)));
    _mm256_insertf128_ps::<1>(low, _mm_loadu_ps(s.add((j + 4) * scs)))
}

/// The 4×4 granule of [`transpose_4x8`], on `__m128`s.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose_4x4<const SCALED: bool>(d: *mut f32, drs: usize, s: *const f32, scs: usize, k: __m128) {
    let (c0, c1) = (_mm_loadu_ps(s), _mm_loadu_ps(s.add(scs)));
    let (c2, c3) = (_mm_loadu_ps(s.add(2 * scs)), _mm_loadu_ps(s.add(3 * scs)));
    let (p0, p1) = (_mm_unpacklo_ps(c0, c1), _mm_unpackhi_ps(c0, c1));
    let (p2, p3) = (_mm_unpacklo_ps(c2, c3), _mm_unpackhi_ps(c2, c3));
    _mm_storeu_ps(d, scaled_128::<SCALED>(_mm_movelh_ps(p0, p2), k));
    _mm_storeu_ps(d.add(drs), scaled_128::<SCALED>(_mm_movehl_ps(p2, p0), k));
    _mm_storeu_ps(d.add(2 * drs), scaled_128::<SCALED>(_mm_movelh_ps(p1, p3), k));
    _mm_storeu_ps(d.add(3 * drs), scaled_128::<SCALED>(_mm_movehl_ps(p3, p1), k));
}
