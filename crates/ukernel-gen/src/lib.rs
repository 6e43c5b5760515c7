//! # ukernel-gen
//!
//! The paper's primary contribution, reproduced as a Rust library: a
//! generator of size-specialised GEMM micro-kernels driven by scheduling
//! rewrites over an Exo-style IR.
//!
//! Given a target instruction set (from [`exo_isa`]) and a register-tile
//! shape `(MR, NR)`, [`MicroKernelGenerator`] applies the step-by-step recipe
//! of the paper's Section III — `partial_eval`, `divide_loop`, `stage_mem`,
//! `expand_dim`, `lift_alloc`, `autofission`, `replace`, `set_memory`,
//! `unroll_loop` (all but Fig. 10's `reorder_loops`, see
//! [`recipes::laneq_recipe`]) — and returns a [`GeneratedKernel`]
//! containing the scheduled IR, the C-with-intrinsics source, a pseudo
//! assembly listing, a machine-operation trace for the performance model,
//! and an executable lowering.
//!
//! ```
//! use exo_isa::neon_f32;
//! use ukernel_gen::MicroKernelGenerator;
//!
//! let generator = MicroKernelGenerator::new(neon_f32());
//! let kernel = generator.generate(8, 12)?;
//! assert!(kernel.c_code.contains("vfmaq_laneq_f32"));
//!
//! // Run it: C[12][8] += Ac[KC][8] * Bc[KC][12].
//! let kc = 16;
//! let a = vec![1.0f32; kc * 8];
//! let b = vec![2.0f32; kc * 12];
//! let mut c = vec![0.0f32; 8 * 12];
//! kernel.run_packed(kc, &a, &b, &mut c)?;
//! assert!((c[0] - 32.0).abs() < 1e-5);
//! # Ok::<(), ukernel_gen::GenError>(())
//! ```

#![warn(missing_docs)]

mod dispatch;
mod error;
mod generator;
pub mod recipes;
pub mod registry;

pub use dispatch::{ExecBackend, TierDispatch};
pub use error::{GenError, Result};
pub use generator::{GeneratedKernel, KernelOptions, KernelSet, MicroKernelGenerator, Strategy, TileShape};
pub use recipes::RecipeStep;
pub use registry::{KernelCache, KernelKey};
