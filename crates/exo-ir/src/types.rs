//! Scalar data types and memory spaces.
//!
//! These mirror the two "hardware description" dimensions that the paper's
//! Exo libraries externalise: the element precision (`f32`, `f16`, ...) and
//! the memory placement annotation (`@ DRAM`, `@ Neon`, `@ Neon8f`, ...).

use std::fmt;

/// Element precision of a buffer or register allocation.
///
/// The paper's generator targets `f32` on Neon and demonstrates retargeting to
/// `f16` (Section III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarType {
    /// IEEE 754 binary32.
    F32,
    /// IEEE 754 binary16 (storage precision; arithmetic modelled in f64 and
    /// rounded on store).
    F16,
    /// IEEE 754 binary64.
    F64,
}

impl ScalarType {
    /// Size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            ScalarType::F32 => 4,
            ScalarType::F16 => 2,
            ScalarType::F64 => 8,
        }
    }

    /// Name used when pretty-printing Exo-style source (`f32`, `f16`, ...).
    pub fn exo_name(self) -> &'static str {
        match self {
            ScalarType::F32 => "f32",
            ScalarType::F16 => "f16",
            ScalarType::F64 => "f64",
        }
    }

    /// Name used when emitting C code.
    pub fn c_name(self) -> &'static str {
        match self {
            ScalarType::F32 => "float",
            ScalarType::F16 => "_Float16",
            ScalarType::F64 => "double",
        }
    }

    /// Rounds a value held at model precision (f64) to this storage precision.
    ///
    /// This is what gives the interpreter faithful `f16`/`f32` semantics while
    /// carrying values in `f64`.
    pub fn round(self, v: f64) -> f64 {
        match self {
            ScalarType::F64 => v,
            ScalarType::F32 => v as f32 as f64,
            ScalarType::F16 => f16_round(v),
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.exo_name())
    }
}

/// Rounds an `f64` value through IEEE binary16 and back.
///
/// Implemented by hand (round-to-nearest-even) so the crate has no external
/// dependencies; used to model `f16` storage in the interpreter and in the
/// executable lowering.
pub fn f16_round(v: f64) -> f64 {
    f16_bits_to_f32(f32_to_f16_bits(v as f32)) as f64
}

/// Converts an `f32` to IEEE binary16 bits with round-to-nearest-even.
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN.
        let mant16 = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | mant16;
    }

    // Re-bias exponent from 127 to 15.
    let unbiased = exp - 127;
    let new_exp = unbiased + 15;

    if new_exp >= 0x1f {
        // Overflow to infinity.
        return sign | 0x7c00;
    }

    if new_exp <= 0 {
        // Subnormal or underflow to zero.
        if new_exp < -10 {
            return sign;
        }
        let full_mant = mant | 0x0080_0000;
        let shift = (14 - new_exp) as u32;
        let half_mant = full_mant >> shift;
        let rem = full_mant & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let rounded =
            if rem > halfway || (rem == halfway && (half_mant & 1) == 1) { half_mant + 1 } else { half_mant };
        return sign | rounded as u16;
    }

    // Normal case: keep top 10 mantissa bits, round-to-nearest-even.
    let half_mant = (mant >> 13) as u16;
    let rem = mant & 0x1fff;
    let mut out = sign | ((new_exp as u16) << 10) | half_mant;
    let halfway = 0x1000;
    if rem > halfway || (rem == halfway && (half_mant & 1) == 1) {
        out = out.wrapping_add(1);
    }
    out
}

/// Converts IEEE binary16 bits to an `f32`.
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let mant = (bits & 0x03ff) as u32;

    let out = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalise.
            let mut e = -1i32;
            let mut m = mant;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x03ff;
            let new_exp = (114 + e) as u32;
            sign | (new_exp << 23) | (m << 13)
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

/// Memory placement of a buffer: main memory or one of the modelled register
/// files.
///
/// In Exo, a memory is itself a user library component; here the set is closed
/// but covers every placement used by the paper (plus AVX-512 for the
/// portability experiment in Section III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemSpace {
    /// Main memory (the paper's `@ DRAM`).
    Dram,
    /// ARM Neon 128-bit vector registers holding 4 x f32.
    Neon,
    /// ARM Neon 128-bit vector registers holding 8 x f16 (the paper's `Neon8f`).
    Neon8f,
    /// Intel AVX-512 512-bit vector registers holding 16 x f32.
    Avx512,
    /// Generic/unspecified placement (used by instruction formal parameters
    /// before `set_memory`).
    Generic,
}

impl MemSpace {
    /// Name used when pretty-printing Exo-style source.
    pub fn exo_name(self) -> &'static str {
        match self {
            MemSpace::Dram => "DRAM",
            MemSpace::Neon => "Neon",
            MemSpace::Neon8f => "Neon8f",
            MemSpace::Avx512 => "AVX512",
            MemSpace::Generic => "GENERIC",
        }
    }

    /// Returns the register width in bytes if this is a register file, or
    /// `None` for main memory.
    pub fn vector_bytes(self) -> Option<usize> {
        match self {
            MemSpace::Neon | MemSpace::Neon8f => Some(16),
            MemSpace::Avx512 => Some(64),
            MemSpace::Dram | MemSpace::Generic => None,
        }
    }

    /// Whether allocations in this space live in registers (and therefore
    /// should not be counted as memory traffic by the performance model).
    pub fn is_register(self) -> bool {
        self.vector_bytes().is_some()
    }
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.exo_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_correct() {
        assert_eq!(ScalarType::F32.size_bytes(), 4);
        assert_eq!(ScalarType::F16.size_bytes(), 2);
        assert_eq!(ScalarType::F64.size_bytes(), 8);
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(ScalarType::F32.exo_name(), "f32");
        assert_eq!(ScalarType::F16.c_name(), "_Float16");
        assert_eq!(MemSpace::Neon.exo_name(), "Neon");
        assert_eq!(MemSpace::Dram.to_string(), "DRAM");
    }

    #[test]
    fn vector_bytes() {
        assert_eq!(MemSpace::Neon.vector_bytes(), Some(16));
        assert_eq!(MemSpace::Avx512.vector_bytes(), Some(64));
        assert_eq!(MemSpace::Dram.vector_bytes(), None);
        assert!(MemSpace::Neon.is_register());
        assert!(!MemSpace::Dram.is_register());
    }

    #[test]
    fn f32_rounding_truncates_precision() {
        let v = 0.1f64 + 1e-12;
        let r = ScalarType::F32.round(v);
        assert_eq!(r, 0.1f32 as f64);
    }

    #[test]
    fn f16_round_trip_exact_values() {
        for &v in &[0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25] {
            let bits = f32_to_f16_bits(v);
            let back = f16_bits_to_f32(bits);
            assert_eq!(back, v, "value {v} should be exactly representable");
        }
    }

    #[test]
    fn f16_overflow_saturates_to_infinity() {
        let bits = f32_to_f16_bits(1.0e6);
        assert_eq!(bits & 0x7fff, 0x7c00);
        assert!(f16_bits_to_f32(bits).is_infinite());
    }

    #[test]
    fn f16_subnormals_round_trip() {
        let v = 6.0e-6f32;
        let back = f16_bits_to_f32(f32_to_f16_bits(v));
        assert!((back - v).abs() < 1.0e-6);
    }

    #[test]
    fn f16_rounding_is_nearest() {
        // 1.0 + 2^-11 rounds to 1.0; 1.0 + 2^-10 is exactly representable.
        let lo = f16_round(1.0 + (2f64).powi(-12));
        assert_eq!(lo, 1.0);
        let hi = f16_round(1.0 + (2f64).powi(-10));
        assert!(hi > 1.0);
    }
}
