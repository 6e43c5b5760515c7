//! The NEON implementation of [`VectorIsa`]: the strided mover on 4-lane
//! `float32x4_t` vectors, and the `prfm` hint.
//!
//! NEON (Advanced SIMD) is a baseline feature of every aarch64 Rust
//! target — `cfg!(target_feature = "neon")` holds without any
//! `-C target-feature` flags — so unlike AVX2 there is no
//! `#[target_feature]` call boundary to honour: the intrinsics inline
//! straight into the trait methods.

use std::arch::aarch64::{
    float32x4_t, vcombine_f32, vdupq_n_f32, vget_high_f32, vget_low_f32, vld1q_f32, vmulq_f32, vst1q_f32,
    vtrn1q_f32, vtrn2q_f32,
};

use super::mover::{Move2d, Walk};
use super::{IsaKind, VectorIsa};

/// The NEON vector implementation.
pub(crate) struct Neon;

impl VectorIsa for Neon {
    const KIND: IsaKind = IsaKind::Neon;

    fn available() -> bool {
        // Baseline on aarch64: the module only compiles there.
        true
    }

    /// `float32x4_t` row copies and 4×4 `trn` transposes, scalars for what
    /// no 4-wide granule covers.
    unsafe fn move_2d(walk: Walk, m: &Move2d) {
        let k = if m.scale == 1.0 { None } else { Some(vdupq_n_f32(m.scale)) };
        match walk {
            Walk::Rows => {
                for r in 0..m.rows {
                    let (d, s) = (m.dst.add(r * m.drs), m.src.add(r * m.srs));
                    let mut c = 0;
                    while c + 4 <= m.cols {
                        vst1q_f32(d.add(c), scaled(vld1q_f32(s.add(c)), k));
                        c += 4;
                    }
                    m.walk(r..r + 1, c..m.cols);
                }
            }
            // Destination rows and source columns are the contiguous runs.
            Walk::Transposed => {
                let (rows4, cols4) = (m.rows & !3, m.cols & !3);
                for r in (0..rows4).step_by(4) {
                    for c in (0..cols4).step_by(4) {
                        transpose_4x4(m.dst.add(r * m.drs + c), m.drs, m.src.add(c * m.scs + r), m.scs, k);
                    }
                }
                m.walk(rows4..m.rows, 0..m.cols);
                m.walk(0..rows4, cols4..m.cols);
            }
            Walk::General => m.walk(0..m.rows, 0..m.cols),
        }
    }

    /// `prfm pldl1keep` through `asm!`: the prefetch intrinsic is not
    /// stable on the crate's minimum Rust.
    #[inline(always)]
    unsafe fn prefetch(p: *const u8) {
        std::arch::asm!("prfm pldl1keep, [{p}]", p = in(reg) p, options(nostack, preserves_flags, readonly));
    }
}

/// `k · v`, or `v` untouched when there is no scale.
#[inline(always)]
unsafe fn scaled(v: float32x4_t, k: Option<float32x4_t>) -> float32x4_t {
    match k {
        Some(k) => vmulq_f32(k, v),
        None => v,
    }
}

/// Loads four 4-element source columns (`scs` apart), transposes them in
/// registers and stores four 4-element destination rows (`drs` apart).
#[inline(always)]
unsafe fn transpose_4x4(d: *mut f32, drs: usize, s: *const f32, scs: usize, k: Option<float32x4_t>) {
    let (c0, c1) = (vld1q_f32(s), vld1q_f32(s.add(scs)));
    let (c2, c3) = (vld1q_f32(s.add(2 * scs)), vld1q_f32(s.add(3 * scs)));
    // `trn1` pairs the even lanes of two columns, `trn2` the odd ones:
    // p0 = [c0[0], c1[0], c0[2], c1[2]], p1 = [c0[1], c1[1], c0[3], c1[3]].
    let (p0, p1) = (vtrn1q_f32(c0, c1), vtrn2q_f32(c0, c1));
    let (p2, p3) = (vtrn1q_f32(c2, c3), vtrn2q_f32(c2, c3));
    vst1q_f32(d, scaled(vcombine_f32(vget_low_f32(p0), vget_low_f32(p2)), k));
    vst1q_f32(d.add(drs), scaled(vcombine_f32(vget_low_f32(p1), vget_low_f32(p3)), k));
    vst1q_f32(d.add(2 * drs), scaled(vcombine_f32(vget_high_f32(p0), vget_high_f32(p2)), k));
    vst1q_f32(d.add(3 * drs), scaled(vcombine_f32(vget_high_f32(p1), vget_high_f32(p3)), k));
}
