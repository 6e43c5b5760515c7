//! # exo-codegen
//!
//! Backends over scheduled procedures, mirroring what the paper's toolchain
//! obtains from Exo plus what this reproduction needs in place of a native
//! ARM toolchain:
//!
//! * [`c::emit_c`] — C-with-intrinsics source, the artifact's visible output
//!   (Section III, step g),
//! * [`asm::emit_asm`] — a pseudo-assembly rendering of the `k`-loop, the
//!   analogue of the paper's Fig. 12,
//! * [`trace::extract_trace`] — the machine-operation trace consumed by the
//!   `carmel-sim` performance model,
//! * [`tape::compile`] — the one lowering of a scheduled procedure: calls
//!   inlined, accesses linearised into affine addresses, into a flat,
//!   register-allocated tape, every access checked: no tier, but the
//!   reference the promotion probe and the tests compare every tier
//!   against. Every tier computes the bits of the reference interpreter,
//!   `exo_ir::interp::run_proc`,
//! * [`superword`] — the superword lowering of the tape: the SLP pass that
//!   re-rolls lane runs into whole-vector ops (`VLoad`, `VStore`,
//!   `VFmaLane`, `VFmaBcast`), the construction-time and affine-interval
//!   proofs a compiled body of those ops runs under, and the safe
//!   superword interpreter — the floor of the two-rung tier ladder, which
//!   runs them one at a time with every access checked, the same on every
//!   host,
//! * [`simd`] — the executing ISAs (AVX-512 and AVX2/FMA on x86_64, NEON on
//!   aarch64, the scalar reference everywhere; pin one with `EXO_ISA`) and
//!   the strided mover the drivers pack with,
//! * [`dispatch`] — the tier handle ([`TierDispatch`]) a GEMM engine calls
//!   once per register tile, which owns its tier's state and holds the one
//!   proved-call site the ahead-of-time compiled body of the `exo-aot` tier
//!   ([`c::emit_superword_c`]) runs behind.

#![warn(missing_docs)]

pub mod asm;
pub mod c;
pub mod dispatch;
pub mod env;
pub mod error;
pub mod simd;
pub mod superword;
pub mod tape;
pub mod trace;

pub use asm::{count_mnemonics, emit_asm};
pub use c::{emit_c, emit_superword_c};
pub use dispatch::{ExecBackend, PackedKernelFn, SimdKernel, TierDispatch};
pub use env::{env_once, Countdown};
pub use error::{CodegenError, Result};
pub use simd::{active_isa, env_isa_override, simd_available, IsaKind};
pub use superword::SuperwordKernel;
pub use tape::{compile, TapeKernel, TensorView};
pub use trace::{extract_trace, summarise, KernelTrace, MachineOp};
