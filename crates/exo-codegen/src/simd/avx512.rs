//! The AVX-512 implementation of [`VectorIsa`]: its row's `__m512` shapes
//! are spelled in the emitted C, which is where a 512-bit kernel runs; the
//! mover and the cache hint are the AVX2 bodies.
//!
//! Delegating loses no bits: a move or one multiply per element is exact at
//! any width. It also keeps the crate on its minimum Rust: the AVX-512
//! intrinsics and `#[target_feature(enable = "avx512f")]` are not stable on
//! it.

use super::mover::{Move2d, Walk};
use super::x86_64::Avx2;
use super::{IsaKind, VectorIsa};

/// The AVX-512F (with AVX2 + FMA) implementation.
pub(crate) struct Avx512;

impl VectorIsa for Avx512 {
    const KIND: IsaKind = IsaKind::Avx512;

    fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f") && Avx2::available()
    }

    // Every body below runs only where `available()` held, which implies
    // the AVX2 body's own contract.

    unsafe fn move_2d(walk: Walk, m: &Move2d) {
        Avx2::move_2d(walk, m)
    }

    #[inline(always)]
    unsafe fn prefetch(p: *const u8) {
        Avx2::prefetch(p)
    }
}
