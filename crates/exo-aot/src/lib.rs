//! # exo-aot
//!
//! Ahead-of-time native kernel compilation: the endgame of the paper's
//! pipeline, where the validated schedule is lowered all the way to real
//! compiled code instead of an interpreted or closure-chained stand-in.
//!
//! The pipeline has three stages, each of which can *decline* (never
//! fail loudly) so the stack above silently stays on the simd tier:
//!
//! 1. **Emission** — [`exo_codegen::emit_superword_c`] lowers the
//!    validated superword tape to a self-contained C translation unit with
//!    the packed `(KC, Ac, Bc, C)` kernel ABI: on AVX-512 and AVX2 through
//!    vector helpers the unit defines itself over gcc's FMA builtins (no
//!    `<immintrin.h>` to parse, so `cc` spends its time on the kernel), on
//!    NEON through `<arm_neon.h>`'s intrinsics, plain C for the portable
//!    floor.
//! 2. **Build** — [`AotEngine`] detects a host C compiler
//!    ([`toolchain()`], overridable with `EXO_CC`) and compiles the source
//!    to a shared object in a fresh private directory (mode 0700, its
//!    name never reused in the process) under `EXO_AOT_DIR`, else the
//!    system temp directory; it `dlopen`s the object and removes the directory on
//!    every outcome. Artifacts live for the process: each process builds
//!    its kernels once, in the background, and loads only what its own
//!    compiler invocation just wrote.
//! 3. **Dispatch** — the loaded function is the unchecked body of an
//!    [`exo_codegen::SimdKernel`], the type [`AotEngine::poll`] and
//!    [`AotEngine::wait`] hand out, so every call is guarded by the same
//!    proved-call site — the same memoised affine-interval bounds proof,
//!    the same checked reference on a decline — as the simd chain.
//!
//! The engine is *asynchronous by default* — trust-but-verify. A
//! kernel's first [`AotEngine::poll`] kicks a bounded background build
//! and returns `None` (the caller serves on the simd tier); the key
//! promotes atomically once the build lands **and** the loaded code
//! reproduces the checked tape bit for bit on a deterministic probe run (a
//! mismatch pins the key to simd). Compiler invocations run under a
//! kill-on-deadline wrapper (20 s), and failed keys retry with exponential
//! backoff at most [`engine::MAX_BUILD_ATTEMPTS`] times per process.
//!
//! The compiled code is bit-identical to the simd closure chain, the tape
//! and the reference interpreter: every FMA lane is one fused multiply-add
//! (a vector FMA instruction's, or `fmaf` on the scalar floor), and `-ffp-contract=off`
//! keeps the compiler from fusing anything else. So the probe compares
//! bits, and a mid-run promotion is invisible except for speed.

#![warn(missing_docs)]

pub mod dylib;
pub mod engine;
pub mod error;
pub mod kernel;
pub mod toolchain;

pub use engine::{
    arm_bad_artifact, arm_compile_fail, arm_hang, arm_wrong_result, content_hash, engine, AotEngine,
    AotRequest, AotStats, MAX_BUILD_ATTEMPTS,
};
pub use error::{AotError, Result};
pub use kernel::KERNEL_SYMBOL;
pub use toolchain::{native_available, toolchain, Toolchain};
