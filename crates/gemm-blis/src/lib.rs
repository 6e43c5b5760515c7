//! # gemm-blis
//!
//! The BLIS-like GEMM substrate of the paper's evaluation: the five-loop
//! GotoBLAS/BLIS algorithm (Fig. 1) with its packing routines and cache
//! blocking model, the baseline micro-kernels (`NEON` hand-written
//! intrinsics, `BLIS` assembly with prefetch) as modelled traces — this
//! repository runs neither — and the glue that plugs in the generated Exo
//! micro-kernels, the only ones that execute.
//!
//! The public GEMM front door is the BLAS-grade triple of
//!
//! * [`MatRef`]/[`MatMut`] — borrowed strided views over caller-owned
//!   memory (row-major, column-major, transposed, sub-matrix — all stride
//!   choices, all zero-copy),
//! * [`GemmProblem`] — the problem descriptor
//!   `C = alpha * op(A) * op(B) + beta * C`,
//! * [`GemmExecutor`] — the trait every driver implements
//!   ([`NaiveGemm`], [`BlisGemm`], and `exo_tune::TunedGemm`).
//!
//! A GEMM can be *run* or *modelled*:
//!
//! * [`algorithm::BlisGemm`] — functional: solves [`GemmProblem`]s on real
//!   `f32` data through one five-loop engine ([`GemmRunner`]: packing +
//!   micro-kernel calls over a window of `C`), used by the correctness
//!   tests, the examples, and the serving layer;
//! * [`model::GemmSimulator`] — performance: predicts GFLOPS on the modelled
//!   Carmel core for the paper's four implementations (`ALG+NEON`,
//!   `ALG+BLIS`, `BLIS`, `ALG+EXO`), used by the figure-reproduction
//!   harnesses.

#![warn(missing_docs)]

pub mod algorithm;
pub mod baselines;
pub mod blocking;
pub mod host;
pub mod model;
pub mod packing;
pub mod pool;
pub mod problem;
pub mod views;

pub use algorithm::{naive_gemm, BlisGemm, GemmRunner, Matrix};
pub use baselines::{
    blis_assembly_kernel, exo_kernel, exo_kernel_simd, exo_kernel_superword, exo_kernel_tape,
    neon_intrinsics_kernel, ExecBackend, KernelImpl, ModelledKernel,
};
pub use blocking::BlockingParams;
pub use exo_aot::{native_available, toolchain, Toolchain};
pub use exo_codegen::{active_isa, env_isa_override, env_once, simd_available, Countdown, IsaKind};
pub use host::{CacheGeometry, HostDescription};
pub use model::{modelled_gemm_cycles, GemmSimulator, Implementation, SimOptions, SimResult};
pub use packing::{pack_a_into, pack_b_into, PackArena, PackedB};
pub use pool::{env_threads_override, PoolJob, ThreadPool};
pub use problem::{GemmExecutor, GemmProblem, GemmStats, NaiveGemm, Op};
pub use views::{MatMut, MatRef};

// Linking the table of native bodies compiled at build time installs it,
// before `main`, in the engine every kernel resolves its native tier with.
use exo_kernels as _;

use std::fmt;

/// Errors produced by the GEMM driver and simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum GemmError {
    /// Matrix or panel dimensions are inconsistent.
    ShapeMismatch {
        /// Description of the mismatch.
        what: String,
    },
    /// A micro-kernel failed.
    Kernel {
        /// Kernel name.
        kernel: String,
        /// Failure description.
        message: String,
    },
    /// A GEMM backend (autotuner, kernel generator, ...) failed before
    /// dispatch.
    Backend {
        /// Backend name.
        backend: String,
        /// Failure description.
        message: String,
    },
    /// The job's execution panicked and the panic was contained to this
    /// job (per-entry isolation in the batch/service path). The job's `C`
    /// operand may be partially written.
    JobPanicked {
        /// The panic payload's message, when it carried one.
        message: String,
    },
    /// The job's deadline expired while it was still queued; it was never
    /// executed and its `C` operand is untouched.
    DeadlineExceeded {
        /// How long the job sat in the queue before expiring, in
        /// milliseconds.
        waited_ms: u64,
    },
    /// The service's bounded submission queue was full and the submission
    /// mode did not allow blocking (`try_submit`, or `submit_timeout`
    /// running out of time).
    QueueFull,
}

impl fmt::Display for GemmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GemmError::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
            GemmError::Kernel { kernel, message } => write!(f, "micro-kernel `{kernel}` failed: {message}"),
            GemmError::Backend { backend, message } => {
                write!(f, "gemm backend `{backend}` failed: {message}")
            }
            GemmError::JobPanicked { message } => {
                write!(f, "gemm job panicked (isolated to this job): {message}")
            }
            GemmError::DeadlineExceeded { waited_ms } => {
                write!(f, "gemm job deadline exceeded after {waited_ms}ms in queue; not executed")
            }
            GemmError::QueueFull => {
                write!(f, "gemm service queue is full (backpressure); job not accepted")
            }
        }
    }
}

impl std::error::Error for GemmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linking_gemm_blis_installs_the_build_time_table() {
        // Nothing here installs it by hand: linking this crate must have.
        let table = &exo_kernels::TABLE;
        assert_eq!(toolchain().map(|tc| tc.cc.as_str()), table.compiler.map(|(cc, _)| cc));
        assert_eq!(native_available(), table.bodies.iter().any(|body| body.isa == active_isa()));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = GemmError::ShapeMismatch { what: "A is 3x4, B is 5x6".into() };
        assert!(e.to_string().contains("3x4"));
        let e = GemmError::Kernel { kernel: "EXO 8x8".into(), message: "boom".into() };
        assert!(e.to_string().contains("EXO 8x8"));
        let e = GemmError::JobPanicked { message: "index out of bounds".into() };
        assert!(e.to_string().contains("isolated"));
        let e = GemmError::DeadlineExceeded { waited_ms: 12 };
        assert!(e.to_string().contains("12ms"));
        assert!(GemmError::QueueFull.to_string().contains("full"));
    }
}
