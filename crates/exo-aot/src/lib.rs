//! # exo-aot
//!
//! The native tier: the paper's pipeline lowered all the way to compiled
//! code, compiled once when the workspace builds and linked into the
//! binary, as the paper links Exo's C into BLIS.
//!
//! 1. **Emission** — [`exo_codegen::emit_superword_c`] lowers the
//!    validated superword tape to a self-contained C translation unit with
//!    the packed `(KC, Ac, Bc, C)` kernel ABI: on AVX-512 and AVX2 through
//!    vector helpers the unit defines itself over gcc's FMA builtins, on
//!    NEON through `<arm_neon.h>`'s intrinsics, plain C for the portable
//!    floor.
//! 2. **Build** — the `exo-kernels` crate's build script emits the C of
//!    every tile the generator admits for every ISA row its target can
//!    run, compiles each with the host C compiler (`EXO_CC`, else `cc`,
//!    `gcc` or `clang`) into one static archive, and generates a table from
//!    each C text's [`content_hash`] to its function. Linking `exo-kernels`
//!    [`install`]s the table before `main` runs.
//! 3. **Resolution** — [`AotEngine::compile`] hashes a kernel's emitted C
//!    and looks the hash up. On a hit it runs the body on a deterministic
//!    probe at `kc ∈ {0, 1, 17}` against the checked tape, bit for bit,
//!    and promotes it; a mismatch pins the key to simd. On a miss the
//!    kernel serves on the simd chain, and the miss is counted. Both
//!    verdicts are settled synchronously, once per key per process.
//! 4. **Dispatch** — the body is the unchecked body of an
//!    [`exo_codegen::SimdKernel`], so every call is guarded by the same
//!    proved-call site — the same memoised affine-interval bounds proof,
//!    the same checked reference on a decline — as the simd chain.
//!
//! The compiled code is bit-identical to the simd closure chain, the tape
//! and the reference interpreter: every FMA lane is one fused multiply-add
//! (a vector FMA instruction's, or `fmaf` on the scalar floor), and
//! `-ffp-contract=off` keeps the compiler from fusing anything else. So the
//! probe compares bits, and which tier serves is invisible except for
//! speed.

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod toolchain;

pub use engine::{arm_wrong_result, content_hash, engine, AotEngine, AotStats};
pub use error::{AotError, Result};
pub use toolchain::{
    compiler_diagnostics, install, native_available, parse_exo_cc, toolchain, NativeBody, NativeTable,
    Toolchain, KERNEL_SYMBOL, MAX_DIAGNOSTICS,
};
