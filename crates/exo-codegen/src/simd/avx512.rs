//! The AVX-512 implementation of [`VectorIsa`]: its row's `__m512` shapes
//! are spelled in the emitted C, which is where a 512-bit kernel runs; the
//! register-run helpers and the mover are the AVX2 bodies.
//!
//! Delegating loses no bits: every lane of a packed FMA is one fused
//! multiply-add, a single rounding at any vector width, and a move or one
//! multiply per element is exact. So the chain compiled for this impl is
//! bit-identical, lane for lane, to the C emitted for its row, which is
//! what native ≡ simd asks. It also keeps the crate on its minimum Rust:
//! the AVX-512 intrinsics and `#[target_feature(enable = "avx512f")]` are
//! not stable on it.

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

    unsafe fn fma_run(regs: *mut f32, dst: usize, a: usize, bval: f32, lanes: usize) {
        Avx2::fma_run(regs, dst, a, bval, lanes)
    }

    unsafe fn fma_run_inorder(regs: *mut f32, dst: usize, a: usize, bval: f32, lanes: usize) {
        Avx2::fma_run_inorder(regs, dst, a, bval, lanes)
    }

    unsafe fn fma_tile(regs: *mut f32, dst0: usize, a: usize, b: *const f32, lanes: usize, count: usize) {
        Avx2::fma_tile(regs, dst0, a, b, lanes, count)
    }

    unsafe fn move_2d(walk: Walk, m: &Move2d) {
        Avx2::move_2d(walk, m)
    }

    #[inline(always)]
    unsafe fn prefetch(p: *const u8) {
        Avx2::prefetch(p)
    }
}
