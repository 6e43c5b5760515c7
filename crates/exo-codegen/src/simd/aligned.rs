//! The one buffer type of the hot path: `f32`s whose first element sits on
//! a 64-byte boundary — one cache line on every host the ISAs here run on.
//!
//! A `Vec<f32>` is only as aligned as `malloc` makes it: 16 bytes at best,
//! and `page + 16` for every allocation glibc `mmap`s (128 KB and up, so
//! every block-sized packing buffer). A packed panel then starts 16 bytes
//! into a line, and every whole-line load of it straddles two. This type
//! takes that out of `malloc`'s hands without `unsafe`: it over-allocates
//! by the 15 elements that reach the next boundary from any `f32` address,
//! and remembers where that boundary is.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// The boundary every buffer starts on, in bytes.
const LINE: usize = 64;
/// Elements allocated past the length: enough to reach the next boundary
/// from any address an `f32` can have.
const SLACK: usize = LINE / size_of::<f32>() - 1;

/// `len` zero-initialised `f32`s starting on a 64-byte boundary; derefs to
/// exactly those `len` elements.
///
/// Growing ([`AlignedBuf::grow_to`]) replaces the buffer instead of
/// extending it, and a clone recomputes where its own boundary lies (the
/// cloned allocation lands elsewhere).
pub struct AlignedBuf {
    data: Vec<f32>,
    /// Elements from the start of `data` to its first 64-byte boundary.
    offset: usize,
    len: usize,
}

impl AlignedBuf {
    /// `len` zeros, the first on a 64-byte boundary.
    pub fn zeroed(len: usize) -> Self {
        let data = vec![0.0; len + SLACK];
        // The allocation is `f32`-aligned, so the distance is whole elements.
        let offset = data.as_ptr().addr().wrapping_neg() % LINE / size_of::<f32>();
        AlignedBuf { data, offset, len }
    }

    /// Makes the buffer at least `len` elements long. A shorter one is
    /// replaced by [`AlignedBuf::zeroed`]`(len)`, its contents dropped:
    /// every user rewrites what it later reads, so a copy would be wasted,
    /// and a fresh zeroed allocation costs none (and, block-sized, no
    /// memset either).
    pub fn grow_to(&mut self, len: usize) {
        if self.len < len {
            *self = AlignedBuf::zeroed(len);
        }
    }
}

impl Deref for AlignedBuf {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.data[self.offset..self.offset + self.len]
    }
}

impl DerefMut for AlignedBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.data[self.offset..self.offset + self.len]
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        let mut copy = AlignedBuf::zeroed(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl Default for AlignedBuf {
    /// The empty buffer (which still starts on a boundary).
    fn default() -> Self {
        AlignedBuf::zeroed(0)
    }
}

impl fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_aligned_zeros(buf: &AlignedBuf, len: usize, what: &str) {
        assert_eq!(buf.len(), len, "{what}");
        assert_eq!(buf.as_ptr().addr() % LINE, 0, "{what}: not on a 64-byte boundary");
        assert!(buf.iter().all(|&x| x.to_bits() == 0), "{what}: not zeroed");
    }

    #[test]
    fn every_length_starts_on_a_line_and_is_zeroed() {
        for len in [0, 1, 15, 16, 4097] {
            let buf = AlignedBuf::zeroed(len);
            assert_aligned_zeros(&buf, len, &format!("zeroed({len})"));
            assert_aligned_zeros(&buf.clone(), len, &format!("zeroed({len}).clone()"));
        }
        assert_aligned_zeros(&AlignedBuf::default(), 0, "default");
    }

    #[test]
    fn a_clone_holds_the_same_elements_on_a_line_of_its_own() {
        let mut buf = AlignedBuf::zeroed(37);
        for (i, x) in buf.iter_mut().enumerate() {
            *x = i as f32 - 0.5;
        }
        let copy = buf.clone();
        assert_eq!(copy.as_ptr().addr() % LINE, 0);
        assert_eq!(*copy, *buf);
    }

    #[test]
    fn growing_replaces_with_zeros_and_a_smaller_request_keeps_the_buffer() {
        let mut buf = AlignedBuf::zeroed(16);
        buf.fill(3.0);
        buf.grow_to(8);
        assert_eq!(*buf, [3.0; 16], "a long enough buffer is kept as it is");
        buf.grow_to(4097);
        assert_aligned_zeros(&buf, 4097, "grown");
    }
}
