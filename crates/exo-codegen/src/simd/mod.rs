//! The executing ISAs: the rows the C emitter and the native build read,
//! the strided mover every driver packs with, and the runtime ISA
//! selection both read. The native bodies compiled from those rows run
//! through the tier handle ([`crate::TierDispatch`]), which holds the
//! workspace's one proved-call site.
//!
//! **Multi-ISA.** An executing ISA is said twice and no more: one
//! target-independent *row* ([`IsaKind`]'s table — name, vector shapes
//! widest first, register count, the C compiler's flags and the C spelling
//! of each shape, which the C emitter and the `exo-aot` build read) and one
//! crate-private `VectorIsa` *impl* (the mover body, the cache hint and a
//! runtime `available()` probe), reached through the single
//! `with_isa_impl!` dispatch:
//!
//! * `avx512` — AVX-512F: 16-lane shapes ahead of AVX2's in its row, for
//!   the emitted C, which is where its 512-bit code lives; its mover is the
//!   AVX2 body (a move and at most one multiply per element computes the
//!   same bits at any width), selected when `is_x86_feature_detected!`
//!   confirms AVX-512F, AVX2 and FMA;
//! * `x86_64` — AVX2/FMA, `__m256` then `__m128` shapes, selected when
//!   `is_x86_feature_detected!` confirms both features;
//! * `aarch64` — NEON, `float32x4_t` shapes, always available on aarch64
//!   (NEON is baseline);
//! * `scalar` — the one-lane reference, available everywhere: plain-C
//!   bodies whose lanes are `fmaf` calls, and the element loops every
//!   vector mover reproduces. The floor of a host with no vector ISA (or
//!   of `EXO_ISA=scalar`).
//!
//! [`active_isa`] picks the widest available implementation at process
//! start ([`IsaKind::Avx512`] → [`IsaKind::Avx2`] → [`IsaKind::Neon`] →
//! [`IsaKind::Scalar`]); `EXO_ISA=avx512|avx2|neon|scalar` pins one (a pin
//! the host cannot run panics). The native tier looks a kernel's body up
//! for the active ISA; the differential suites look one up per row.
//!
//! **Data movement.** The same implementations carry the strided 2-D
//! mover ([`Mover`]) that a BLIS-like driver packs its operands and stages
//! its `C` tiles with: one body per impl, resolved once into a handle for
//! the same [`active_isa`], bit-identical to the scalar one by
//! construction (a move and at most one multiply). What the driver moves
//! into, it owns as an [`AlignedBuf`] — packed panels, the staged `C` tile
//! — so every one starts on a cache line wherever `malloc` put it. What it
//! will move next it can announce with [`Mover::prefetch`]: one cache hint
//! per line of a strided region, again one body per impl (none on the
//! scalar reference).
//!
//! **Bit compatibility.** Every lane of every packed FMA is one fused
//! multiply-add, a single rounding at any vector width, and each
//! accumulator sees its multiply-adds in the tape's order. So every body —
//! AVX-512, AVX2, NEON and scalar — computes the bits of the superword
//! interpreter, of the tape and of the reference interpreter
//! (`exo_ir::interp::run_proc`), and the differential suites demand exact
//! equality on every ISA row.

use std::sync::OnceLock;

use crate::env::env_once;

/// The one kind → impl dispatch: evaluates `$body` with `$I` naming the
/// `VectorIsa` impl of `$kind`, or `$none` on a build target that has no
/// impl for it. An executing ISA appears here once and in [`IsaKind`]'s
/// row table once; nothing else matches on the kind.
macro_rules! with_isa_impl {
    ($kind:expr, $I:ident => $body:expr, else $none:expr) => {
        match $kind {
            #[cfg(target_arch = "x86_64")]
            $crate::simd::IsaKind::Avx512 => {
                type $I = $crate::simd::avx512::Avx512;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            $crate::simd::IsaKind::Avx2 => {
                type $I = $crate::simd::x86_64::Avx2;
                $body
            }
            #[cfg(target_arch = "aarch64")]
            $crate::simd::IsaKind::Neon => {
                type $I = $crate::simd::aarch64::Neon;
                $body
            }
            $crate::simd::IsaKind::Scalar => {
                type $I = $crate::simd::scalar::ScalarIsa;
                $body
            }
            _ => $none,
        }
    };
}

#[cfg(target_arch = "aarch64")]
pub(crate) mod aarch64;
mod aligned;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;
mod mover;
pub(crate) mod scalar;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86_64;

pub use aligned::AlignedBuf;
pub use mover::Mover;
use mover::{Move2d, Walk};

/// The run-time half of one executing ISA: what has to be compiled for
/// the target and so cannot be a row of [`IsaKind`]'s table. One
/// implementation per kind.
///
/// Not to be confused with `exo_isa::VectorIsa`, the *codegen-time*
/// description of the paper's target instruction set: this trait is the
/// *run-time* half of the host's.
///
/// # Safety
///
/// The mover and the hint are `unsafe fn`s: callers guarantee the pointers
/// are valid for the accessed elements and, for the native
/// implementations, that [`VectorIsa::available`] returned `true` on this
/// host.
pub(crate) trait VectorIsa {
    /// The row of [`IsaKind`]'s table this implementation executes: its
    /// name, lane width and every other target-independent fact are read
    /// from there, not restated.
    const KIND: IsaKind;

    /// Whether the running host can execute this implementation's ops.
    fn available() -> bool;

    /// This ISA's body of the strided mover ([`Mover::strided_move`]).
    ///
    /// # Safety
    ///
    /// As [`Mover::strided_move`], with `m` named for `walk`
    /// (`Move2d::classified`).
    unsafe fn move_2d(walk: Walk, m: &Move2d);

    /// Hints the cache to fetch the line holding `p` ([`Mover::prefetch`]);
    /// the scalar reference hints nothing.
    ///
    /// # Safety
    ///
    /// Only that the host can run this implementation: a hint accesses no
    /// memory and cannot fault, so `p` need not even be valid.
    #[inline(always)]
    unsafe fn prefetch(_p: *const u8) {}
}

/// One vector shape of an executing ISA, as the C emitter spells it.
pub(crate) struct VectorShape {
    /// `f32` lanes of one register of this shape.
    pub(crate) lanes: u32,
    /// Unaligned load from a `const float*`.
    pub(crate) load: &'static str,
    /// Unaligned store, `(float*, vector)`.
    pub(crate) store: &'static str,
    /// Broadcast of one `float`.
    pub(crate) splat: &'static str,
    /// The fused multiply-add `acc + a·b` with its operands in the
    /// intrinsic's own order, as `{a}` / `{b}` / `{acc}` placeholders.
    pub(crate) fma: &'static str,
}

/// Everything target-independent about one executing ISA, said once: what
/// [`IsaKind`]'s accessors answer from, what the C emitter spells vector
/// ops with, what the ahead-of-time build passes the compiler.
pub(crate) struct IsaRow {
    name: &'static str,
    vector_registers: Option<usize>,
    cc_flags: &'static [&'static str],
    /// The lines the emitted C opens with, just before the kernel: a guard
    /// that refuses a compiler not targeting the ISA, then what defines the
    /// names its vector shapes spell — on x86 the helpers themselves, each
    /// width guarding the compiler builtin it calls; on NEON its intrinsics
    /// header — or, for the scalar floor, its function's attribute. Each
    /// entry is one or more whole lines.
    pub(crate) c_prelude: &'static [&'static str],
    /// Vector shapes, widest first; none on the scalar reference.
    pub(crate) vectors: &'static [VectorShape],
}

/// What every x86 prelude defines its helpers with: the attributes gcc's
/// own intrinsics headers give `_mm*_loadu_ps` and friends, so a helper is
/// inlined exactly where the intrinsic was.
const X86_INLINE: &str =
    "#define EXO_INLINE extern __inline __attribute__((__gnu_inline__, __always_inline__, __artificial__))";

/// The x86 helpers of one vector width: gcc's own header definitions of
/// `_mm512_loadu_ps`, `_mm512_storeu_ps`, `_mm512_set1_ps` and
/// `_mm512_fmadd_ps` (and of their 8- and 4-lane kin below), types and
/// attributes included, under the names the row's [`VectorShape`] spells.
/// Spelled the header's way, a kernel compiles to the very instructions the
/// intrinsics gave it, without parsing the ~46 000 preprocessed lines of
/// `<immintrin.h>` (most of a native build's time).
///
/// Each block first guards the compiler builtin its FMA calls, where the
/// compiler can say (`__has_builtin`, gcc 10 and later): one without it
/// stops on a named `#error` — a failed build, which keeps the kernel on
/// the superword tier. An older compiler skips the check, and a builtin it
/// lacks is then an ordinary compile error: the same decline.
const X86_F32X16: &str = "\
#ifdef __has_builtin
#if !__has_builtin(__builtin_ia32_vfmaddps512_mask)
#error \"this kernel requires __builtin_ia32_vfmaddps512_mask\"
#endif
#endif
typedef float exo_f32x16 __attribute__((__vector_size__(64), __may_alias__));
typedef float exo_f32x16_u __attribute__((__vector_size__(64), __may_alias__, __aligned__(1)));
EXO_INLINE exo_f32x16
exo_load16(float const *p) { return *(exo_f32x16_u *)p; }
EXO_INLINE void
exo_store16(float *p, exo_f32x16 a) { *(exo_f32x16_u *)p = a; }
EXO_INLINE exo_f32x16
exo_splat16(float a) { return (exo_f32x16){ a, a, a, a, a, a, a, a, a, a, a, a, a, a, a, a }; }
EXO_INLINE exo_f32x16
exo_fma16(exo_f32x16 a, exo_f32x16 b, exo_f32x16 c) {
  return __builtin_ia32_vfmaddps512_mask(a, b, c, (unsigned short)-1, 4);
}";
const X86_F32X8: &str = "\
#ifdef __has_builtin
#if !__has_builtin(__builtin_ia32_vfmaddps256)
#error \"this kernel requires __builtin_ia32_vfmaddps256\"
#endif
#endif
typedef float exo_f32x8 __attribute__((__vector_size__(32), __may_alias__));
typedef float exo_f32x8_u __attribute__((__vector_size__(32), __may_alias__, __aligned__(1)));
EXO_INLINE exo_f32x8
exo_load8(float const *p) { return *(exo_f32x8_u *)p; }
EXO_INLINE void
exo_store8(float *p, exo_f32x8 a) { *(exo_f32x8_u *)p = a; }
EXO_INLINE exo_f32x8
exo_splat8(float a) { return (exo_f32x8){ a, a, a, a, a, a, a, a }; }
EXO_INLINE exo_f32x8
exo_fma8(exo_f32x8 a, exo_f32x8 b, exo_f32x8 c) { return __builtin_ia32_vfmaddps256(a, b, c); }";
const X86_F32X4: &str = "\
#ifdef __has_builtin
#if !__has_builtin(__builtin_ia32_vfmaddps)
#error \"this kernel requires __builtin_ia32_vfmaddps\"
#endif
#endif
typedef float exo_f32x4 __attribute__((__vector_size__(16), __may_alias__));
typedef float exo_f32x4_u __attribute__((__vector_size__(16), __may_alias__, __aligned__(1)));
EXO_INLINE exo_f32x4
exo_load4(float const *p) { return *(exo_f32x4_u *)p; }
EXO_INLINE void
exo_store4(float *p, exo_f32x4 a) { *(exo_f32x4_u *)p = a; }
EXO_INLINE exo_f32x4
exo_splat4(float a) { return (exo_f32x4){ a, a, a, a }; }
EXO_INLINE exo_f32x4
exo_fma4(exo_f32x4 a, exo_f32x4 b, exo_f32x4 c) { return __builtin_ia32_vfmaddps(a, b, c); }";

/// The AVX2 vector shapes, which AVX-512's row repeats below its own.
const F32X8: VectorShape = VectorShape {
    lanes: 8,
    load: "exo_load8",
    store: "exo_store8",
    splat: "exo_splat8",
    fma: "exo_fma8({a}, {b}, {acc})",
};
const F32X4: VectorShape = VectorShape {
    lanes: 4,
    load: "exo_load4",
    store: "exo_store4",
    splat: "exo_splat4",
    fma: "exo_fma4({a}, {b}, {acc})",
};

/// The instruction sets a kernel can execute on, widest first. Every variant exists on every build target so `EXO_ISA` values
/// parse everywhere — pinning an ISA the host cannot run is a loud panic,
/// not an "unknown ISA" error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsaKind {
    /// x86_64 AVX-512F (with AVX2 + FMA): 16-lane vectors in the emitted C,
    /// 32 vector registers; the mover runs the AVX2 body.
    Avx512,
    /// x86_64 AVX2 + FMA: 8-lane `__m256` vectors.
    Avx2,
    /// aarch64 NEON: 4-lane `float32x4_t` vectors (8-lane superword runs
    /// re-roll into pairs).
    Neon,
    /// The 1-lane reference implementation, available on every host.
    Scalar,
}

impl IsaKind {
    /// Every ISA, widest first — the runtime selection order.
    pub const ALL: [IsaKind; 4] = [IsaKind::Avx512, IsaKind::Avx2, IsaKind::Neon, IsaKind::Scalar];

    /// The row table: one entry per executing ISA.
    pub(crate) const fn row(self) -> &'static IsaRow {
        match self {
            IsaKind::Avx512 => &IsaRow {
                name: "avx512",
                vector_registers: Some(32),
                cc_flags: &["-mavx512f", "-mavx2", "-mfma"],
                c_prelude: &[
                    "#if !(defined(__AVX512F__) && defined(__AVX2__) && defined(__FMA__))",
                    "#error \"this kernel requires -mavx512f -mavx2 -mfma\"",
                    "#endif",
                    X86_INLINE,
                    X86_F32X16,
                    X86_F32X8,
                    X86_F32X4,
                ],
                vectors: &[
                    VectorShape {
                        lanes: 16,
                        load: "exo_load16",
                        store: "exo_store16",
                        splat: "exo_splat16",
                        fma: "exo_fma16({a}, {b}, {acc})",
                    },
                    F32X8,
                    F32X4,
                ],
            },
            IsaKind::Avx2 => &IsaRow {
                name: "avx2",
                vector_registers: Some(16),
                cc_flags: &["-mavx2", "-mfma"],
                c_prelude: &[
                    "#if !(defined(__AVX2__) && defined(__FMA__))",
                    "#error \"this kernel requires -mavx2 -mfma\"",
                    "#endif",
                    X86_INLINE,
                    X86_F32X8,
                    X86_F32X4,
                ],
                vectors: &[F32X8, F32X4],
            },
            IsaKind::Neon => &IsaRow {
                name: "neon",
                vector_registers: Some(32),
                cc_flags: &[],
                c_prelude: &[
                    "#ifndef __ARM_NEON",
                    "#error \"this kernel requires NEON\"",
                    "#endif",
                    "#include <arm_neon.h>",
                ],
                vectors: &[VectorShape {
                    lanes: 4,
                    load: "vld1q_f32",
                    store: "vst1q_f32",
                    splat: "vdupq_n_f32",
                    fma: "vfmaq_f32({acc}, {a}, {b})",
                }],
            },
            IsaKind::Scalar => &IsaRow {
                name: "scalar",
                vector_registers: None,
                cc_flags: &[],
                // Built without `-mfma`, a lane's `fmaf` is a library call;
                // an x86_64 CPU with FMA gets an inline clone at load time.
                c_prelude: &[
                    "#if defined(__x86_64__) && !defined(__FMA__)",
                    "__attribute__((target_clones(\"fma\", \"default\")))",
                    "#endif",
                ],
                vectors: &[],
            },
        }
    }

    /// The lowercase name, as accepted by `EXO_ISA` and recorded by the
    /// bench harness.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Vector lane width of one register (of the widest shape).
    pub fn lanes(self) -> usize {
        self.row().vectors.first().map_or(1, |v| v.lanes as usize)
    }

    /// Architectural vector registers a kernel can keep live, or `None`
    /// when the ISA has no vector register file to run out of (the scalar
    /// reference keeps its "registers" in memory).
    pub fn vector_registers(self) -> Option<usize> {
        self.row().vector_registers
    }

    /// The C compiler flags that enable this ISA, for whoever builds the
    /// output of [`crate::emit_superword_c`] (none where the ISA is the
    /// compiler's baseline).
    pub fn cc_flags(self) -> &'static [&'static str] {
        self.row().cc_flags
    }

    /// Whether the running host can execute code compiled for this ISA.
    pub fn available(self) -> bool {
        with_isa_impl!(self, I => I::available(), else false)
    }

    /// Parses an `EXO_ISA` value.
    ///
    /// # Errors
    ///
    /// Returns a description naming the accepted ISAs.
    pub fn parse(value: &str) -> std::result::Result<IsaKind, String> {
        let wanted = value.trim().to_ascii_lowercase();
        IsaKind::ALL.into_iter().find(|isa| isa.name() == wanted).ok_or_else(|| {
            let names: Vec<&str> = IsaKind::ALL.iter().map(|isa| isa.name()).collect();
            format!("unknown ISA `{wanted}` (expected one of: {})", names.join(", "))
        })
    }
}

impl std::fmt::Display for IsaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide `EXO_ISA` override, read once (the workspace override
/// contract — see [`crate::env::env_once`]): unset or empty means "no
/// override" (pick the widest available ISA), anything else must parse as
/// an ISA name.
///
/// # Panics
///
/// Panics on an unparseable value, naming the accepted ISAs.
pub fn env_isa_override() -> Option<IsaKind> {
    static OVERRIDE: OnceLock<Option<IsaKind>> = OnceLock::new();
    env_once(&OVERRIDE, "EXO_ISA", IsaKind::parse)
}

/// The ISA this host executes on, decided once per process: the row the
/// native tier looks a kernel's body up for and the mover's. The `EXO_ISA`
/// pin when set, otherwise the widest available implementation (AVX-512 →
/// AVX2 → NEON → scalar, [`IsaKind::ALL`]'s order). Never less than
/// [`IsaKind::Scalar`], which every host runs.
///
/// # Panics
///
/// Panics when `EXO_ISA` pins an ISA this host cannot run — a silent
/// fallback would report numbers for the wrong implementation.
pub fn active_isa() -> IsaKind {
    static ACTIVE: OnceLock<IsaKind> = OnceLock::new();
    *ACTIVE.get_or_init(|| match env_isa_override() {
        Some(pinned) => {
            assert!(
                pinned.available(),
                "EXO_ISA: `{pinned}` is not available on this host (available: {})",
                IsaKind::ALL
                    .iter()
                    .filter(|isa| isa.available())
                    .map(|isa| isa.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            pinned
        }
        None => *IsaKind::ALL.iter().find(|isa| isa.available()).expect("scalar is always available"),
    })
}

/// Whether this process executes on a *native* vector ISA — i.e.
/// [`active_isa`] resolved to something wider than the scalar reference;
/// `EXO_ISA=scalar` therefore reports `false` even on AVX2 hosts.
pub fn simd_available() -> bool {
    active_isa().lanes() > 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_scalar_isa_is_always_available_and_is_the_selection_floor() {
        assert!(IsaKind::Scalar.available());
        let active = active_isa();
        assert!(active.available());
        // `simd_available` now means "a native ISA was selected".
        assert_eq!(simd_available(), active != IsaKind::Scalar);
        // The selection is the widest available ISA (or the env pin).
        if env_isa_override().is_none() {
            let widest = *IsaKind::ALL.iter().find(|isa| isa.available()).unwrap();
            assert_eq!(active, widest);
        }
    }

    #[test]
    fn isa_parse_accepts_names_case_insensitively_and_names_the_choices_on_a_typo() {
        assert_eq!(IsaKind::parse("avx2"), Ok(IsaKind::Avx2));
        assert_eq!(IsaKind::parse("AVX512"), Ok(IsaKind::Avx512));
        assert_eq!(IsaKind::parse(" NEON "), Ok(IsaKind::Neon));
        assert_eq!(IsaKind::parse("Scalar"), Ok(IsaKind::Scalar));
        // The choices a typo is answered with are the table's names.
        let names: Vec<&str> = IsaKind::ALL.iter().map(|isa| isa.name()).collect();
        assert_eq!(
            IsaKind::parse("sse9"),
            Err(format!("unknown ISA `sse9` (expected one of: {})", names.join(", ")))
        );
        assert_eq!(names, ["avx512", "avx2", "neon", "scalar"]);
        for isa in IsaKind::ALL {
            assert_eq!(IsaKind::parse(isa.name()), Ok(isa), "names round-trip");
            assert_eq!(isa.to_string(), isa.name());
        }
    }

    #[test]
    fn isa_lane_widths_and_contraction_contract() {
        // Every vector shape's multiply-add is the fused intrinsic.
        for isa in IsaKind::ALL {
            assert!(isa.row().vectors.iter().all(|v| v.fma.contains("fma")), "{isa}");
        }
        assert_eq!(IsaKind::Avx512.lanes(), 16);
        assert_eq!(IsaKind::Avx2.lanes(), 8);
        assert_eq!(IsaKind::Neon.lanes(), 4);
        assert_eq!(IsaKind::Scalar.lanes(), 1);
        assert_eq!(IsaKind::Avx512.vector_registers(), Some(32));
        assert_eq!(IsaKind::Avx2.vector_registers(), Some(16));
        assert_eq!(IsaKind::Neon.vector_registers(), Some(32));
        assert_eq!(IsaKind::Scalar.vector_registers(), None);
        assert_eq!(IsaKind::Avx512.cc_flags(), ["-mavx512f", "-mavx2", "-mfma"]);
        assert_eq!(IsaKind::Avx2.cc_flags(), ["-mavx2", "-mfma"]);
        assert!(IsaKind::Neon.cc_flags().is_empty() && IsaKind::Scalar.cc_flags().is_empty());
    }

    #[test]
    fn every_row_has_at_most_one_impl_and_the_impl_names_its_row() {
        for kind in IsaKind::ALL {
            // The dispatch reaches an impl of *this* kind, or none on a
            // target that cannot compile one — never a neighbour's.
            let reached = with_isa_impl!(kind, I => Some((I::KIND, I::available())), else None);
            match reached {
                Some((named, available)) => {
                    assert_eq!(named, kind, "the impl behind `{kind}` reads another row");
                    assert_eq!(kind.available(), available);
                }
                None => assert!(!kind.available(), "`{kind}` claims a host it has no impl for"),
            }
            // Shapes are widest first and the row's width is the widest.
            let row = kind.row();
            assert!(row.vectors.windows(2).all(|pair| pair[0].lanes > pair[1].lanes), "{kind}");
            assert_eq!(kind.lanes(), row.vectors.first().map_or(1, |v| v.lanes as usize), "{kind}");
        }
    }

    #[test]
    fn every_name_a_row_spells_is_defined_by_its_prelude() {
        for kind in IsaKind::ALL {
            let row = kind.row();
            if row.vectors.is_empty() {
                continue;
            }
            let named: BTreeSet<&str> = row
                .vectors
                .iter()
                .flat_map(|v| [v.load, v.store, v.splat, v.fma.split('(').next().unwrap()])
                .collect();
            let lines: Vec<&str> = row.c_prelude.iter().flat_map(|entry| entry.lines()).collect();
            let includes: Vec<&str> = lines.iter().copied().filter(|l| l.starts_with("#include")).collect();
            // A definition opens its line with the helper's name.
            let defined: BTreeSet<&str> = lines
                .iter()
                .filter_map(|l| l.split_once('(').map(|(head, _)| head))
                .filter(|head| {
                    !head.is_empty() && head.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                })
                .collect();
            if kind == IsaKind::Neon {
                // NEON's names are its header's intrinsics.
                assert!(defined.is_empty(), "{kind}: {defined:?}");
                assert_eq!(includes, ["#include <arm_neon.h>"], "{kind}");
            } else {
                // Every other row defines exactly the helpers it names and
                // parses no header for them.
                assert_eq!(defined, named, "{kind}: defined against named");
                assert!(includes.is_empty(), "{kind}: {includes:?}");
                // Each width's block guards the compiler builtin its FMA
                // calls, so a compiler without it stops on a named `#error`.
                for entry in row.c_prelude {
                    if let Some((_, rest)) = entry.split_once("return __builtin_") {
                        let guard = format!("__has_builtin(__builtin_{})", &rest[..rest.find('(').unwrap()]);
                        // Asked only where the compiler can answer: gcc before 10 cannot.
                        assert!(
                            entry.starts_with("#ifdef __has_builtin\n") && entry.contains(&guard),
                            "{kind}: {guard}"
                        );
                    }
                }
            }
        }
    }
}
