//! Executing the superword tape: per-architecture vector intrinsics
//! through a pre-compiled chain of monomorphic closures, behind the one
//! proved-call site of the workspace.
//!
//! The superword lowering of [`crate::superword`] describes one whole
//! vector register per op and executes nothing unchecked itself. This
//! module is the "last mile" the Exo paper delegates to a native compiler
//! backend: the validated superword ops (`VLoad` / `VStore` / `VFmaLane` /
//! `VFmaBcast`) are compiled **once per kernel** into a chain of
//! monomorphic closures over native vector intrinsics:
//!
//! * every closure carries its operands pre-resolved (register offsets,
//!   the pre-compiled specialised address shapes of the superword lowering) —
//!   no per-op decode survives to run time;
//! * runs of isomorphic packed FMAs over one staged operand — the
//!   accumulator tile of a laneq kernel (`VFmaLane`, broadcasting a staged
//!   `B` register) or of a broadcast-B kernel (`VFmaBcast`, broadcasting
//!   consecutive `B` elements from memory) — fuse into a single closure
//!   that hoists the operand load across the whole tile;
//! * dynamic loops become native Rust loops over the closure chain — the
//!   tape's `LoopBegin`/`LoopEnd` jump dispatch disappears entirely.
//!
//! **Multi-ISA.** An executing ISA is said twice and no more: one
//! target-independent *row* ([`IsaKind`]'s table — name, vector shapes
//! widest first, register count, the C compiler's flags and the C spelling of each shape, which the C emitter and the
//! `exo-aot` build read) and one crate-private `VectorIsa` *impl* (the
//! register-run helpers the chain calls, the mover body, a runtime
//! `available()` probe), reached through the single `with_isa_impl!`
//! dispatch. The chain compiler (the `compile` submodule) is generic over
//! the impl and monomorphised once per ISA:
//!
//! * `avx512` — AVX-512F: 16-lane shapes ahead of AVX2's in its row, for
//!   the emitted C, which is where its 512-bit code lives; its chain and
//!   mover are the AVX2 bodies (each lane is one FMA, one rounding, at any
//!   width, so they compute the same bits), selected when
//!   `is_x86_feature_detected!` confirms AVX-512F, AVX2 and FMA;
//! * `x86_64` — AVX2/FMA, `__m256` then `__m128` chunks, selected when
//!   `is_x86_feature_detected!` confirms both features;
//! * `aarch64` — NEON, `float32x4_t` chunks, always available on aarch64
//!   (NEON is baseline): an 8-lane superword run re-rolls into a pair of
//!   them;
//! * `scalar` — the one-lane reference, available everywhere: the trait's
//!   provided bodies, each lane one `mul_add` (on x86_64 behind an `fma`
//!   call boundary where the CPU has FMA, in software where it has none).
//!   The chain compiled for it is the *portable* tier (what a `Superword`
//!   pin runs).
//!
//! [`active_isa`] picks the widest available implementation at process
//! start ([`IsaKind::Avx512`] → [`IsaKind::Avx2`] → [`IsaKind::Neon`] →
//! [`IsaKind::Scalar`]); `EXO_ISA=avx512|avx2|neon|scalar` pins one (a pin
//! the host cannot run panics). [`SimdKernel::compile_for`] compiles for an
//! explicit ISA, which is how the differential suites compare
//! implementations inside one process.
//!
//! **Data movement.** The same three implementations carry the strided
//! 2-D mover ([`strided_move`]) that a BLIS-like driver packs its operands
//! and stages its `C` tiles with: one body per impl beside that ISA's
//! arithmetic, picked by the same [`active_isa`], bit-identical to the
//! scalar one by construction (a move and at most one multiply). What the
//! driver moves into, it owns as an [`AlignedBuf`] — packed panels, the
//! staged `C` tile, a chain's register file — so every one starts on a
//! cache line wherever `malloc` put it. What it will move next it can
//! announce with [`strided_prefetch`]: one cache hint per line of a strided
//! region, again one body per impl (none on the scalar reference).
//!
//! **Selection and safety.** A [`SimdKernel`]'s body runs bounds-free —
//! the closure chain, or the ahead-of-time compiled C the `exo-aot` tier
//! hands in through [`SimdKernel::from_compiled`] — and relies on exactly
//! the proofs the superword lowering established: the construction-time
//! register/loop-structure validation and the run-time affine-interval
//! proof over the tensor addresses. `SimdKernel::run_proved` is the **one
//! place** in the workspace that chooses between an unchecked body and
//! the checked reference: proof admits → the body, proof declines →
//! [`SuperwordKernel::run_checked`], the scalar tape the source was packed
//! from. [`SimdDispatch`] owns the proof memo and, for a chain, one
//! register file, so steady-state micro-tile dispatch re-proves and
//! allocates nothing.
//!
//! **Bit compatibility.** Every lane of every packed FMA is one fused
//! multiply-add, a single rounding at any vector width, and each
//! accumulator sees its multiply-adds in the tape's order. So every chain —
//! AVX-512, AVX2, NEON and scalar — computes the bits of the tape and of
//! the reference interpreter (`exo_ir::interp::run_proc`), and the
//! differential suites demand exact equality on every ISA. The same inputs
//! produce the same bits on every run, every thread count and every ISA.

use std::sync::{Arc, OnceLock};

use crate::env::env_once;
use crate::error::Result;
use crate::exec::TensorView;
use crate::superword::{ProofMemo, SuperwordKernel};

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
mod compile;
mod mover;
pub(crate) mod scalar;
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86_64;

pub use aligned::AlignedBuf;
use compile::Node;
pub use mover::{strided_move, strided_move_on, strided_prefetch};
use mover::{Move2d, Walk};

/// The run-time half of one executing ISA: what has to be compiled for
/// the target and so cannot be a row of [`IsaKind`]'s table. One
/// implementation per kind; the chain compiler is monomorphised per
/// implementation, so every closure in a compiled chain calls straight
/// into one ISA's intrinsics with no dispatch in between.
///
/// The provided bodies are the one-lane reference forms, each lane one
/// [`f32::mul_add`]: a vector ISA overrides what its registers speed up —
/// whole vectors widest shape first, the same lanes in the same rounding
/// (on x86_64 behind a `#[target_feature]` call boundary).
///
/// Not to be confused with `exo_isa::VectorIsa`, the *codegen-time*
/// description of the paper's target instruction set: this trait is the
/// *run-time* lowering of validated superword ops onto the host.
///
/// # Safety
///
/// The register-run helpers and the mover are `unsafe fn`s: callers
/// guarantee the pointers are valid for the accessed lanes and, for the
/// native implementations, that [`VectorIsa::available`] returned `true`
/// on this host.
pub(crate) trait VectorIsa {
    /// The row of [`IsaKind`]'s table this implementation executes: its
    /// name, lane width and every other target-independent fact are read
    /// from there, not restated.
    const KIND: IsaKind;

    /// Whether the running host can execute this implementation's ops.
    fn available() -> bool;

    /// `lanes` multiply-adds `reg[dst+i] = reg[a+i]·bval + reg[dst+i]`,
    /// strictly ascending one lane at a time: the form taken when the
    /// operand run partially overlaps the accumulator run and the lane
    /// order is semantic.
    ///
    /// # Safety
    ///
    /// Both register runs in bounds (the superword construction proof).
    unsafe fn fma_run_inorder(regs: *mut f32, dst: usize, a: usize, bval: f32, lanes: usize) {
        for i in 0..lanes {
            let d = regs.add(dst + i);
            *d = (*regs.add(a + i)).mul_add(bval, *d);
        }
    }

    /// [`VectorIsa::fma_run_inorder`] with the lane order left free: whole
    /// vectors where the ISA has them, then what is left.
    ///
    /// # Safety
    ///
    /// Both register runs in bounds and, where they overlap, `dst == a`
    /// (whole-register loads of a *partially* overlapping run would read
    /// stale lanes — the compiler routes those to
    /// [`VectorIsa::fma_run_inorder`]).
    unsafe fn fma_run(regs: *mut f32, dst: usize, a: usize, bval: f32, lanes: usize) {
        Self::fma_run_inorder(regs, dst, a, bval, lanes)
    }

    /// A fused accumulator tile: `count` consecutive packed FMAs over one
    /// operand run, `reg[dst0 + g·lanes + i] += reg[a+i] · b[g]`, where `b`
    /// is the run of broadcast values — staged `B` registers for a laneq
    /// tile (`VFmaLane`), consecutive `B` elements in memory for a
    /// broadcast-B one (`VFmaBcast`). A vector ISA loads each operand
    /// vector once and holds it across the whole tile — the inner-loop body
    /// of a micro-kernel with the operand reload hoisted. Every accumulator
    /// element is touched exactly once (the rows are disjoint), so a
    /// chunk-major walk computes the same bits as this row-major op order.
    ///
    /// # Safety
    ///
    /// All register runs in bounds, `b` valid for `count` reads, the
    /// operand run disjoint from the accumulator span, and `lanes` a whole
    /// number of the ISA's narrowest vector shape (both checked at fuse
    /// time).
    unsafe fn fma_tile(regs: *mut f32, dst0: usize, a: usize, b: *const f32, lanes: usize, count: usize) {
        for g in 0..count {
            Self::fma_run_inorder(regs, dst0 + g * lanes, a, *b.add(g), lanes);
        }
    }

    /// This ISA's body of the strided mover ([`strided_move`]).
    ///
    /// # Safety
    ///
    /// As [`strided_move`], with `m` named for `walk`
    /// (`Move2d::classified`).
    unsafe fn move_2d(walk: Walk, m: &Move2d);

    /// Hints the cache to fetch the line holding `p` ([`strided_prefetch`]);
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

impl IsaRow {
    /// Lanes of the narrowest vector shape (1 without any): the unit a
    /// lane run must be a whole number of for the chain to fuse it.
    pub(crate) fn narrowest_lanes(&self) -> usize {
        self.vectors.last().map_or(1, |v| v.lanes as usize)
    }
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
/// the simd tier. An older compiler skips the check, and a builtin it
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

/// The vector instruction sets the chain compiler can target, widest
/// first. Every variant exists on every build target so `EXO_ISA` values
/// parse everywhere — pinning an ISA the host cannot run is a loud panic,
/// not an "unknown ISA" error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsaKind {
    /// x86_64 AVX-512F (with AVX2 + FMA): 16-lane vectors in the emitted C,
    /// 32 vector registers; the chain runs the AVX2 bodies.
    Avx512,
    /// x86_64 AVX2 + FMA: 8-lane `__m256` chains.
    Avx2,
    /// aarch64 NEON: 4-lane `float32x4_t` chains (8-lane superword runs
    /// re-roll into pairs).
    Neon,
    /// The portable 1-lane reference implementation, available on every
    /// host.
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

    /// Whether the running host can execute chains compiled for this ISA.
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

/// The vector ISA the SIMD tier targets on this host, decided once per
/// process: the `EXO_ISA` pin when set, otherwise the widest available
/// implementation (AVX-512 → AVX2 → NEON → scalar, [`IsaKind::ALL`]'s
/// order). Never less than [`IsaKind::Scalar`], so [`SimdKernel::compile`]
/// succeeds on every host.
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

/// Whether the SIMD tier runs a *native* vector ISA on this host — i.e.
/// [`active_isa`] resolved to something wider than the scalar reference;
/// `EXO_ISA=scalar` therefore reports `false` even on AVX2 hosts.
pub fn simd_available() -> bool {
    active_isa().lanes() > 1
}

/// The packed micro-kernel C ABI `(KC, Ac, Bc, C)` — the signature of the
/// function [`crate::emit_superword_c`] emits, and so of every
/// ahead-of-time compiled body handed to [`SimdKernel::from_compiled`].
pub type PackedKernelFn = unsafe extern "C" fn(i64, *const f32, *const f32, *mut f32);

/// The unchecked body of a [`SimdKernel`].
enum Program {
    /// The in-process closure chain of one vector ISA.
    Chain(Vec<Node>),
    /// Ahead-of-time compiled code lowered from the same source kernel.
    Compiled { entry: PackedKernelFn },
}

/// Reusable execution state of a closure chain: the flat register file and
/// the loop-counter table of its source kernel, allocated once per
/// [`SimdDispatch`]. Empty for compiled code, which keeps both on its own
/// stack. The register file starts on a cache line, so the tape's
/// `LANE_ALIGN`-register locals are whole 32-byte vectors in memory too.
#[derive(Debug, Clone, Default)]
struct ExecScratch {
    regs: AlignedBuf,
    loops: Vec<i64>,
}

/// A validated superword kernel paired with an unchecked body for one
/// vector ISA.
///
/// Obtained from [`SimdKernel::compile`] (a closure chain for the host's
/// [`active_isa`]), [`SimdKernel::compile_for`] (a chain for an explicit
/// ISA — [`IsaKind::Scalar`] is the *portable* tier) or
/// [`SimdKernel::from_compiled`] (ahead-of-time compiled C: the native
/// tier). Every body computes the bits of the tape and of the reference
/// interpreter, on every ISA, run and thread count. Every run goes through
/// the same proved-call site, so which body a kernel carries changes speed,
/// never results, safety or errors.
pub struct SimdKernel {
    source: Arc<SuperwordKernel>,
    isa: IsaKind,
    program: Program,
    n_steps: usize,
    n_fused_tiles: usize,
}

impl std::fmt::Debug for SimdKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimdKernel")
            .field("name", &self.source.name())
            .field("isa", &self.isa.name())
            .field("compiled", &matches!(self.program, Program::Compiled { .. }))
            .field("steps", &self.n_steps)
            .field("fused_tiles", &self.n_fused_tiles)
            .finish_non_exhaustive()
    }
}

impl SimdKernel {
    /// Compiles a superword kernel into the closure chain of the host's
    /// [`active_isa`].
    ///
    /// The scalar implementation is always available, so this succeeds on
    /// every host for every generated kernel; `None` survives only for
    /// the (never observed for generated kernels) case of a tape
    /// construct the chain compiler declines.
    pub fn compile(source: Arc<SuperwordKernel>) -> Option<SimdKernel> {
        Self::compile_for(source, active_isa())
    }

    /// Compiles a superword kernel into the closure chain of an explicit
    /// ISA — how the differential suites compare implementations inside
    /// one process, independent of the `EXO_ISA` pin, and how the portable
    /// tier is built (`IsaKind::Scalar`).
    ///
    /// Returns `None` when the host cannot run `isa`
    /// ([`IsaKind::available`]) or the chain compiler declines the tape.
    pub fn compile_for(source: Arc<SuperwordKernel>, isa: IsaKind) -> Option<SimdKernel> {
        if !isa.available() {
            return None;
        }
        let mut stats = compile::BuildStats::default();
        let nodes = with_isa_impl!(isa, I => compile::build_nodes::<I>(&source.ops, &mut stats), else None)?;
        let program = Program::Chain(nodes);
        Some(SimdKernel { source, isa, program, n_steps: stats.steps, n_fused_tiles: stats.fused_tiles })
    }

    /// Pairs a superword kernel with ahead-of-time compiled code as its
    /// unchecked body — how the `exo-aot` native tier enters the same
    /// proved-call site (and the same checked reference on a declined
    /// proof) as the closure chains.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CodegenError::BadArguments`] if `source` does not
    /// have the packed `(KC, Ac, Bc, C)` signature `entry` is called with.
    ///
    /// # Safety
    ///
    /// `entry` must be the function [`crate::emit_superword_c`] emits for
    /// `source` and `isa`, compiled for this host, and must stay callable
    /// for as long as the kernel lives.
    pub unsafe fn from_compiled(
        source: Arc<SuperwordKernel>,
        isa: IsaKind,
        entry: PackedKernelFn,
    ) -> Result<SimdKernel> {
        source.tape().check_packed_signature()?;
        let program = Program::Compiled { entry };
        Ok(SimdKernel { source, isa, program, n_steps: 0, n_fused_tiles: 0 })
    }

    /// The superword kernel this body was lowered from (the owner of the
    /// proofs and of the checked reference).
    pub fn source(&self) -> &Arc<SuperwordKernel> {
        &self.source
    }

    /// The vector ISA this kernel's body targets — the reported-ISA probe
    /// the cross-target CI asserts against.
    pub fn isa(&self) -> IsaKind {
        self.isa
    }

    /// Name of the source procedure.
    pub fn name(&self) -> &str {
        self.source.name()
    }

    /// Number of pre-compiled closures in the chain (loop nodes count
    /// their bodies, not themselves; zero for compiled code).
    pub fn step_count(&self) -> usize {
        self.n_steps
    }

    /// How many fused accumulator-tile closures the chain compiler formed
    /// (each replaces a whole run of `VFmaLane` ops and hoists the shared
    /// operand load).
    pub fn fused_tile_count(&self) -> usize {
        self.n_fused_tiles
    }

    /// Runs the kernel over borrowed tensor views, proving bounds for this
    /// exact input first (one-shot entry point; the GEMM hot path uses
    /// [`SimdDispatch`] instead, which memoises the proof).
    ///
    /// # Errors
    ///
    /// Exactly [`SuperwordKernel::run_checked`]'s:
    /// [`crate::CodegenError::BadArguments`] on an argument mismatch, and
    /// [`crate::CodegenError::OutOfBounds`] from the checked reference when
    /// the interval proof declines and an access indeed leaves its buffer.
    pub fn run_views(&self, scalars: &[i64], tensors: &mut [TensorView<'_>]) -> Result<()> {
        self.run_proved(scalars, tensors, &mut ProofMemo::default(), &mut self.scratch())
    }

    /// Runs the packed micro-kernel signature `(KC, Ac, Bc, C)`:
    /// `c[nr][mr] += ac[kc][mr] * bc[kc][nr]`.
    ///
    /// # Errors
    ///
    /// As [`Self::run_views`]: a kernel without the packed signature is an
    /// argument mismatch there.
    pub fn run_packed(&self, kc: usize, ac: &[f32], bc: &[f32], c: &mut [f32]) -> Result<()> {
        self.run_views(&[kc as i64], &mut [TensorView::Ro(ac), TensorView::Ro(bc), TensorView::Rw(c)])
    }

    /// What this kernel's body needs between calls: a chain's register
    /// file and loop table, nothing for compiled code.
    fn scratch(&self) -> ExecScratch {
        match self.program {
            Program::Chain(_) => {
                let tape = self.source.tape();
                ExecScratch { regs: AlignedBuf::zeroed(tape.n_regs), loops: vec![0; tape.n_dyn_loops] }
            }
            Program::Compiled { .. } => ExecScratch::default(),
        }
    }

    /// A prove-once dispatch handle over this kernel (see [`SimdDispatch`]).
    pub fn dispatcher(self: &Arc<Self>) -> SimdDispatch {
        SimdDispatch::new(Arc::clone(self))
    }

    /// The one proved-call site: every run of every unchecked body — chain
    /// or compiled, one-shot or through a dispatch handle — chooses here
    /// between that body and the checked reference.
    ///
    /// `#[inline]` from here up to the packed entry points: this is the
    /// per-micro-tile call, and inlining it into the packed callers (other
    /// crates) lets their fixed one-scalar/three-tensor shape fold the
    /// argument checks — about 10 ns per call, measured at small `KC`.
    #[inline]
    fn run_proved(
        &self,
        scalars: &[i64],
        tensors: &mut [TensorView<'_>],
        proofs: &mut ProofMemo,
        scratch: &mut ExecScratch,
    ) -> Result<()> {
        self.source.tape().validate_views(scalars, tensors)?;
        if !proofs.admits(&self.source, scalars, tensors) {
            // Declined (and memoised as declined): the scalar tape runs the
            // call and reports what it finds.
            return self.source.run_checked(scalars, tensors);
        }
        // SAFETY: the source kernel's construction proof covers every
        // register operand and the loop structure; `admits` just certified
        // (or recalled the certification of) every tensor access for these
        // exact scalars and buffer lengths; `validate_views` guaranteed
        // written tensors are `Rw`; `scratch` is `Self::scratch`'s (both
        // callers), so a chain finds its register file and loop table.
        unsafe { self.exec_unchecked(scalars, tensors, scratch) };
        Ok(())
    }

    /// Runs the body with no checks.
    ///
    /// # Safety
    ///
    /// Callers must have established, for the *source* kernel: the
    /// construction-time register/loop proof (always true), the interval
    /// proof for these exact scalars and tensor lengths, and `Rw` views
    /// for every written tensor. `scratch` must come from
    /// [`Self::scratch`] of this kernel.
    #[inline]
    unsafe fn exec_unchecked(
        &self,
        scalars: &[i64],
        tensors: &mut [TensorView<'_>],
        scratch: &mut ExecScratch,
    ) {
        // Raw base pointers; the `*mut` view of a read-only tensor is never
        // written through. The packed micro-kernel signature has three
        // tensors, so the common case stays on the stack instead of
        // allocating per dispatch.
        let mut tens_stack = [std::ptr::null_mut::<f32>(); 4];
        let mut tens_heap: Vec<*mut f32> = Vec::new();
        let raw = |t: &mut TensorView<'_>| match t {
            TensorView::Ro(s) => s.as_ptr().cast_mut(),
            TensorView::Rw(s) => s.as_mut_ptr(),
        };
        let tens: &[*mut f32] = if tensors.len() <= tens_stack.len() {
            for (slot, t) in tens_stack.iter_mut().zip(tensors.iter_mut()) {
                *slot = raw(t);
            }
            &tens_stack[..tensors.len()]
        } else {
            tens_heap.extend(tensors.iter_mut().map(raw));
            &tens_heap
        };
        match &self.program {
            Program::Chain(nodes) => {
                // The register file starts at zero on every run, exactly
                // like the scalar tape's freshly allocated one; loop slots
                // are always written by their loop node before being read.
                scratch.regs.fill(0.0);
                compile::run_nodes(nodes, scratch.regs.as_mut_ptr(), tens, &mut scratch.loops, scalars);
            }
            // `from_compiled` checked the one-scalar/three-tensor packed
            // signature, and `validate_views` these counts against it.
            Program::Compiled { entry } => entry(scalars[0], tens[0], tens[1], tens[2]),
        }
    }
}

/// A prove-once dispatch handle: the per-worker reusable state of a
/// [`SimdKernel`].
///
/// Owns the memoised affine-interval proof — one verdict per distinct
/// `(scalars, buffer lengths)` tuple gates both the unchecked body and,
/// when it declines, the checked reference (identical error semantics) —
/// and, for a chain, one register file with its loop table (compiled code
/// needs neither), so steady-state dispatch allocates nothing and re-proves
/// nothing. Results are bit-for-bit identical to the one-shot entry points.
/// Create one per worker thread (it is `Send`) and reuse it for every
/// micro-tile.
#[derive(Debug, Clone)]
pub struct SimdDispatch {
    kernel: Arc<SimdKernel>,
    scratch: ExecScratch,
    proofs: ProofMemo,
}

impl SimdDispatch {
    /// Creates a dispatch handle, allocating a chain's register file and
    /// loop table up front.
    pub fn new(kernel: Arc<SimdKernel>) -> Self {
        let scratch = kernel.scratch();
        SimdDispatch { kernel, scratch, proofs: ProofMemo::default() }
    }

    /// The kernel this handle dispatches.
    pub fn kernel(&self) -> &SimdKernel {
        &self.kernel
    }

    /// How many distinct `(scalars, buffer lengths)` proof inputs have
    /// been memoised so far. A well-blocked GEMM sees only a handful.
    pub fn memoised_proofs(&self) -> usize {
        self.proofs.len()
    }

    /// Runs the kernel over borrowed tensor views, reusing the memoised
    /// proof and this handle's register file.
    ///
    /// # Errors
    ///
    /// As [`SimdKernel::run_views`].
    #[inline]
    pub fn run_views(&mut self, scalars: &[i64], tensors: &mut [TensorView<'_>]) -> Result<()> {
        self.kernel.run_proved(scalars, tensors, &mut self.proofs, &mut self.scratch)
    }

    /// Runs the packed `(KC, Ac, Bc, C)` micro-kernel signature, reusing
    /// the memoised proof and register file.
    ///
    /// # Errors
    ///
    /// As [`SimdKernel::run_packed`].
    #[inline]
    pub fn run_packed(&mut self, kc: usize, ac: &[f32], bc: &[f32], c: &mut [f32]) -> Result<()> {
        self.run_views(&[kc as i64], &mut [TensorView::Ro(ac), TensorView::Ro(bc), TensorView::Rw(c)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CodegenError;
    use crate::exec::compile as compile_proc;
    use exo_ir::builder::*;
    use exo_ir::{Expr, MemSpace, Proc, ScalarType};
    use std::collections::BTreeSet;

    /// The reference interpreter's run of a packed call on a copy of `c0`:
    /// the bits every chain computes.
    fn reference(p: &Proc, kc: usize, a: &[f32], b: &[f32], c0: &[f32]) -> Vec<f32> {
        let mut c = c0.to_vec();
        exo_ir::interp::run_packed(p, kc, a, b, &mut c).unwrap();
        c
    }

    /// Every ISA the running host can execute — always at least the
    /// scalar reference, plus the native one of the build target.
    fn available_isas() -> Vec<IsaKind> {
        IsaKind::ALL.iter().copied().filter(|isa| isa.available()).collect()
    }

    /// The laneq-shaped staged 8x4 kernel of the superword tests: the tape
    /// scalarises its staged tiles into exactly the lane runs the chain
    /// compiler fuses.
    fn staged_kernels() -> (Proc, Arc<SuperwordKernel>, SimdKernel) {
        let (p, sw) = staged_kernel(false);
        let simd = SimdKernel::compile(Arc::clone(&sw)).expect("the scalar floor always compiles");
        (p, sw, simd)
    }

    /// The staged 8x4 kernel, laneq-shaped (`B` staged in registers, one
    /// `VFmaLane` per column) or broadcast-B-shaped (`B` read from memory,
    /// one `VFmaBcast` per column).
    fn staged_kernel(broadcast_b: bool) -> (Proc, Arc<SuperwordKernel>) {
        let (mr, nr) = (8i64, 4i64);
        let mut body = vec![
            alloc("Ct", ScalarType::F32, vec![int(nr), int(mr)], MemSpace::Neon),
            alloc("Ra", ScalarType::F32, vec![int(mr)], MemSpace::Neon),
        ];
        let (b_stage, b_value) = if broadcast_b {
            (vec![], read("Bc", vec![var("k"), var("j")]))
        } else {
            body.push(alloc("Rb", ScalarType::F32, vec![int(nr)], MemSpace::Neon));
            let load = assign("Rb", vec![var("j")], read("Bc", vec![var("k"), var("j")]));
            (vec![for_("j", 0, nr, vec![load])], read("Rb", vec![var("j")]))
        };
        let mut k_body =
            vec![for_("i", 0, mr, vec![assign("Ra", vec![var("i")], read("Ac", vec![var("k"), var("i")]))])];
        k_body.extend(b_stage);
        k_body.push(for_(
            "j",
            0,
            nr,
            vec![for_(
                "i",
                0,
                mr,
                vec![reduce("Ct", vec![var("j"), var("i")], Expr::mul(read("Ra", vec![var("i")]), b_value))],
            )],
        ));
        let c_at = || Expr::add(Expr::mul(var("j"), int(mr)), var("i"));
        let c_in = assign("Ct", vec![var("j"), var("i")], read("C", vec![c_at()]));
        let c_out = assign("C", vec![c_at()], read("Ct", vec![var("j"), var("i")]));
        body.push(for_("j", 0, nr, vec![for_("i", 0, mr, vec![c_in])]));
        body.push(for_("k", 0, var("KC"), k_body));
        body.push(for_("j", 0, nr, vec![for_("i", 0, mr, vec![c_out])]));
        let p = proc("ukr_8x4_staged")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(mr)], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![var("KC"), int(nr)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(nr * mr)], MemSpace::Dram)
            .body(body)
            .build();
        let sw = Arc::new(compile_proc(&p).unwrap().to_superword().unwrap());
        (p, sw)
    }

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
            assert!(kind.lanes().is_multiple_of(row.narrowest_lanes()), "{kind}");
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

    #[test]
    fn simd_matches_the_reference_bit_for_bit_and_fuses_tiles() {
        let (p, _, simd) = staged_kernels();
        assert_eq!(simd.isa(), active_isa());
        assert!(simd.fused_tile_count() > 0, "the staged kernel's FMA runs must fuse: {simd:?}");
        assert!(simd.step_count() > 0);
        let (mr, nr) = (8usize, 4usize);
        for kc in [0usize, 1, 2, 17, 64] {
            let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + 3) % 13) as f32 * 0.5 - 2.0).collect();
            let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + 1) % 11) as f32 * 0.25 - 1.0).collect();
            let c0: Vec<f32> = (0..nr * mr).map(|i| (i % 5) as f32 * 0.5).collect();
            let mut c_simd = c0.clone();
            simd.run_packed(kc, &a, &b, &mut c_simd).unwrap();
            assert_eq!(c_simd, reference(&p, kc, &a, &b, &c0), "kc={kc}");
            if kc == 0 {
                assert_eq!(c_simd, c0, "kc = 0 stages C through registers and writes it back unchanged");
            }
        }
    }

    #[test]
    fn every_available_isa_compiles_the_staged_kernel_and_the_scalar_chain_is_bit_exact() {
        let (p, sw, _) = staged_kernels();
        let (mr, nr) = (8usize, 4usize);
        for isa in available_isas() {
            let chain = SimdKernel::compile_for(Arc::clone(&sw), isa)
                .unwrap_or_else(|| panic!("{isa} is available but declined the staged kernel"));
            assert_eq!(chain.isa(), isa);
            assert!(chain.fused_tile_count() > 0, "{isa}: the accumulator tiles must fuse");
            for kc in [0usize, 1, 2, 17, 64] {
                let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + 3) % 13) as f32 * 0.5 - 2.0).collect();
                let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + 1) % 11) as f32 * 0.25 - 1.0).collect();
                let c0: Vec<f32> = (0..nr * mr).map(|i| (i % 5) as f32 * 0.5).collect();
                let mut c_chain = c0.clone();
                chain.run_packed(kc, &a, &b, &mut c_chain).unwrap();
                assert_eq!(c_chain, reference(&p, kc, &a, &b, &c0), "{isa} kc={kc}");
            }
        }
    }

    #[test]
    fn broadcast_b_runs_fuse_into_one_tile_on_every_isa_and_the_scalar_chain_is_bit_exact() {
        let (p, sw) = staged_kernel(true);
        let (mr, nr) = (8usize, 4usize);
        for isa in available_isas() {
            let chain = SimdKernel::compile_for(Arc::clone(&sw), isa).unwrap();
            // C in (zeroing, load), the `A` stage's zeroing, the `k` loop as
            // one node — its load and the four broadcast rows — C out.
            assert_eq!((chain.fused_tile_count(), chain.step_count()), (1, 5), "{isa}: {chain:?}");
            for kc in [0usize, 1, 2, 17, 64] {
                let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + 3) % 13) as f32 * 0.37 - 2.0).collect();
                let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + 1) % 11) as f32 * 0.21 - 1.0).collect();
                let c0: Vec<f32> = (0..nr * mr).map(|i| (i % 5) as f32 * 0.5).collect();
                let mut c_chain = c0.clone();
                chain.run_packed(kc, &a, &b, &mut c_chain).unwrap();
                assert_eq!(c_chain, reference(&p, kc, &a, &b, &c0), "{isa} kc={kc}");
            }
        }
    }

    #[test]
    fn compile_for_an_unavailable_isa_returns_none() {
        let (_, sw, _) = staged_kernels();
        for isa in IsaKind::ALL {
            if !isa.available() {
                assert!(SimdKernel::compile_for(Arc::clone(&sw), isa).is_none());
            }
        }
    }

    #[test]
    fn broadcast_and_scalar_passthrough_kernels_lower_and_match() {
        // Unscheduled reference kernel: C stays in memory, nothing packs —
        // the chain degenerates to scalar closures and must still agree.
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let p = exo_sched::partial_eval(&p, &[4, 4]).unwrap();
        let sw = Arc::new(compile_proc(&p).unwrap().to_superword().unwrap());
        let kc = 13usize;
        let a: Vec<f32> = (0..kc * 4).map(|i| (i % 7) as f32 * 0.37 - 0.5).collect();
        let b: Vec<f32> = (0..kc * 4).map(|i| (i % 5) as f32 * 0.21 - 1.0).collect();
        let c0: Vec<f32> = (0..16).map(|i| i as f32 * 0.125).collect();
        let want = reference(&p, kc, &a, &b, &c0);
        for isa in available_isas() {
            let simd = SimdKernel::compile_for(Arc::clone(&sw), isa).unwrap();
            let mut c_simd = c0.clone();
            simd.run_packed(kc, &a, &b, &mut c_simd).unwrap();
            assert_eq!(c_simd, want, "{isa} scalar passthrough");
        }

        // A broadcast-from-memory FMA (VFmaBcast) shape.
        let p = proc("bcast")
            .tensor_arg("x", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("s", ScalarType::F32, vec![int(1)], MemSpace::Dram)
            .tensor_arg("y", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .body(vec![
                alloc("acc", ScalarType::F32, vec![int(4)], MemSpace::Neon),
                alloc("r", ScalarType::F32, vec![int(4)], MemSpace::Neon),
                for_("i", 0, 4, vec![assign("r", vec![var("i")], read("x", vec![var("i")]))]),
                for_(
                    "i",
                    0,
                    4,
                    vec![reduce(
                        "acc",
                        vec![var("i")],
                        Expr::mul(read("r", vec![var("i")]), read("s", vec![int(0)])),
                    )],
                ),
                for_("i", 0, 4, vec![assign("y", vec![var("i")], read("acc", vec![var("i")]))]),
            ])
            .build();
        let sw = Arc::new(compile_proc(&p).unwrap().to_superword().unwrap());
        for isa in available_isas() {
            let simd = SimdKernel::compile_for(Arc::clone(&sw), isa).unwrap();
            let mut x = vec![1.5f32, -2.0, 0.25, 3.0];
            let mut s = vec![0.5f32];
            let mut y = vec![0.0f32; 4];
            simd.run_views(
                &[],
                &mut [TensorView::Rw(&mut x), TensorView::Rw(&mut s), TensorView::Rw(&mut y)],
            )
            .unwrap();
            assert_eq!(y, vec![0.75, -1.0, 0.125, 1.5], "{isa}: one product per lane — exact even under FMA");
        }
    }

    #[test]
    fn nested_dynamic_loops_compile_and_run() {
        // Two nested dynamic loops: the inner LoopBegin's absolute `end`
        // jump target must be rebased when the chain compiler recurses
        // into the outer body, or compilation silently declines.
        let p = proc("nested")
            .size_arg("N")
            .size_arg("M")
            // Constant column extent keeps the addresses affine (the tape
            // rejects `i * M`); both loop bounds stay dynamic.
            .tensor_arg("x", ScalarType::F32, vec![var("N"), int(8)], MemSpace::Dram)
            .body(vec![for_(
                "i",
                0,
                var("N"),
                vec![for_(
                    "j",
                    0,
                    var("M"),
                    vec![assign(
                        "x",
                        vec![var("i"), var("j")],
                        Expr::add(Expr::mul(var("i"), int(10)), var("j")),
                    )],
                )],
            )])
            .build();
        let sw = Arc::new(compile_proc(&p).unwrap().to_superword().unwrap());
        let (n, m) = (3usize, 5usize);
        let mut want = vec![-1.0f32; n * 8];
        sw.tape().run_views(&[n as i64, m as i64], &mut [TensorView::Rw(&mut want)]).unwrap();
        for isa in available_isas() {
            let simd = SimdKernel::compile_for(Arc::clone(&sw), isa)
                .expect("nested dynamic loops must not decline chain compilation");
            let mut x = vec![-1.0f32; n * 8];
            simd.run_views(&[n as i64, m as i64], &mut [TensorView::Rw(&mut x)]).unwrap();
            assert_eq!(x, want, "{isa}: integer-valued writes — exact across tiers");
            assert_eq!(x[8 + 4], 14.0, "x[1][4] = 1*10 + 4");
            assert_eq!(x[8 + 5], -1.0, "columns past M stay untouched");
        }
    }

    #[test]
    fn out_of_bounds_falls_back_to_the_checked_loop_with_identical_errors() {
        let p = proc("oob")
            .size_arg("N")
            .tensor_arg("x", ScalarType::F32, vec![var("N")], MemSpace::Dram)
            .body(vec![for_("i", 0, var("N"), vec![assign("x", vec![var("i")], flt(1.0))])])
            .build();
        let sw = Arc::new(compile_proc(&p).unwrap().to_superword().unwrap());
        // Claim N = 7 over a 2-element buffer: what the scalar tape itself
        // reports, and the partial stores it leaves behind.
        let mut x_tape = vec![0.0f32; 2];
        let want = sw.tape().run_views(&[7], &mut [TensorView::Rw(&mut x_tape)]);
        assert_eq!(want, Err(CodegenError::OutOfBounds { buf: "Arg(0)".into(), index: 2, len: 2 }));
        assert_eq!(x_tape, vec![1.0, 1.0]);
        for isa in available_isas() {
            let simd = Arc::new(SimdKernel::compile_for(Arc::clone(&sw), isa).unwrap());
            // The interval proof declines and the call is the tape's: its
            // error, after its partial stores.
            let mut x = vec![0.0f32; 2];
            assert_eq!(simd.run_views(&[7], &mut [TensorView::Rw(&mut x)]), want, "{isa}");
            assert_eq!(x, x_tape, "{isa}: partial stores precede the error");
            // Same through the dispatch handle, which memoises the declined
            // verdict too.
            let mut dispatch = simd.dispatcher();
            let mut x = vec![0.0f32; 2];
            assert_eq!(dispatch.run_views(&[7], &mut [TensorView::Rw(&mut x)]), want, "{isa}");
            assert_eq!(x, x_tape);
            assert_eq!(dispatch.memoised_proofs(), 1);
            let mut y = vec![0.0f32; 8];
            dispatch.run_views(&[7], &mut [TensorView::Rw(&mut y)]).unwrap();
            assert_eq!(&y[..7], &[1.0; 7]);
            assert_eq!(dispatch.memoised_proofs(), 2);
        }
    }

    /// A stand-in for ahead-of-time compiled code: a declined proof must
    /// never reach it.
    unsafe extern "C" fn never_called(_kc: i64, _ac: *const f32, _bc: *const f32, _c: *mut f32) {
        panic!("an unchecked body ran on a call its proof declined");
    }

    /// ... and an admitted call must: this one leaves its mark in `C[0]`.
    unsafe extern "C" fn marks_c0(kc: i64, _ac: *const f32, _bc: *const f32, c: *mut f32) {
        *c = 42.0 + kc as f32;
    }

    #[test]
    fn a_declined_proof_takes_one_route_to_the_checked_reference_whatever_the_body() {
        // A packed-signature kernel that stores into C *inside* the KC loop
        // (c[k] = ac[k] + bc[0]), so a claimed KC past the buffers leaves
        // partial stores behind before the faulting access.
        let p = proc("partial")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC")], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![int(1)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![var("KC")], MemSpace::Dram)
            .body(vec![for_(
                "k",
                0,
                var("KC"),
                vec![assign(
                    "C",
                    vec![var("k")],
                    Expr::add(read("Ac", vec![var("k")]), read("Bc", vec![int(0)])),
                )],
            )])
            .build();
        let sw = Arc::new(compile_proc(&p).unwrap().to_superword().unwrap());
        let (ac, bc, c0) = (vec![1.0f32, 2.0, 3.0, 4.0, 5.0], vec![0.5f32], vec![-1.0f32; 8]);
        // KC = 9 over a 5-element Ac: the load of Ac[5] faults after five
        // stores landed.
        let kc = 9usize;
        let mut c_ref = c0.clone();
        let want = sw
            .tape()
            .run_views(
                &[kc as i64],
                &mut [TensorView::Ro(&ac), TensorView::Ro(&bc), TensorView::Rw(&mut c_ref)],
            )
            .unwrap_err();
        assert_eq!(want, CodegenError::OutOfBounds { buf: "Arg(0)".into(), index: 5, len: 5 });
        assert_eq!(&c_ref[..6], &[1.5, 2.5, 3.5, 4.5, 5.5, -1.0]);

        let mut bodies: Vec<(String, Arc<SimdKernel>)> = available_isas()
            .into_iter()
            .map(|isa| (isa.to_string(), Arc::new(SimdKernel::compile_for(Arc::clone(&sw), isa).unwrap())))
            .collect();
        // SAFETY: `never_called` has the packed ABI and is a plain function
        // (callable for good); a declined proof never calls it, which is
        // the point of the test.
        let compiled = unsafe { SimdKernel::from_compiled(Arc::clone(&sw), active_isa(), never_called) };
        bodies.push(("compiled".into(), Arc::new(compiled.unwrap())));
        for (label, kernel) in bodies {
            let mut c_one_shot = c0.clone();
            assert_eq!(kernel.run_packed(kc, &ac, &bc, &mut c_one_shot), Err(want.clone()), "{label}");
            assert_eq!(c_one_shot, c_ref, "{label}: partial stores of the one-shot run");
            let mut dispatch = kernel.dispatcher();
            for attempt in 0..2 {
                let mut c = c0.clone();
                assert_eq!(dispatch.run_packed(kc, &ac, &bc, &mut c), Err(want.clone()), "{label}");
                assert_eq!(c, c_ref, "{label}: partial stores through the handle, attempt {attempt}");
            }
            assert_eq!(dispatch.memoised_proofs(), 1, "{label}: the declined verdict is memoised");
        }

        // The same site hands an *admitted* call to the compiled body.
        // SAFETY: `marks_c0` has the packed ABI and writes only `C[0]`,
        // which every admitted call (KC >= 1) owns.
        let marked = unsafe { SimdKernel::from_compiled(Arc::clone(&sw), active_isa(), marks_c0) };
        let mut c = c0.clone();
        marked.unwrap().run_packed(5, &ac, &bc, &mut c[..5]).unwrap();
        assert_eq!(c[0], 47.0);
    }

    #[test]
    fn dispatch_handle_matches_one_shot_runs_and_memoises_proofs() {
        let (_, _, simd) = staged_kernels();
        let simd = Arc::new(simd);
        let mut dispatch = simd.dispatcher();
        let (mr, nr) = (8usize, 4usize);
        for rep in 0..6 {
            for &kc in &[17usize, 5] {
                let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + rep) % 13) as f32 * 0.5 - 2.0).collect();
                let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + rep) % 11) as f32 * 0.25 - 1.0).collect();
                let c0: Vec<f32> = (0..nr * mr).map(|i| ((i + rep) % 5) as f32 * 0.5).collect();
                let mut c_dispatch = c0.clone();
                dispatch.run_packed(kc, &a, &b, &mut c_dispatch).unwrap();
                let mut c_one_shot = c0.clone();
                simd.run_packed(kc, &a, &b, &mut c_one_shot).unwrap();
                assert_eq!(c_dispatch, c_one_shot, "kc={kc} rep={rep}: the chain is deterministic");
            }
        }
        assert_eq!(dispatch.memoised_proofs(), 2, "one proof per distinct (KC, lens) input");
    }
}
