//! # exo-gemm
//!
//! A Rust reproduction of *"Tackling the Matrix Multiplication Micro-Kernel
//! Generation with Exo"* (CGO 2024), grown into a small system: a
//! micro-kernel generator driven by scheduling rewrites, a BLIS-like GEMM
//! substrate, a performance model of the paper's Carmel testbed, and an
//! autotuner that searches the kernel design space per problem shape.
//!
//! The pipeline, crate by crate (each is re-exported here):
//!
//! | stage | crate | what it does |
//! |---|---|---|
//! | IR | [`exo_ir`] | Exo-style loop-nest IR: procedures, interpreter, parser, printer |
//! | sched | [`exo_sched`] | the rewrites of the paper's Section III: `divide_loop`, `stage_mem`, `replace`, `unroll_loop`, ... |
//! | isa | [`exo_isa`] | hardware instruction libraries (Neon f32/f16, AVX-512) as semantic procedures |
//! | codegen | [`exo_codegen`] | C-with-intrinsics, pseudo-assembly, machine traces, executable lowering |
//! | generator | [`ukernel_gen`] | size-specialised kernel generation + the shared [`ukernel_gen::KernelCache`] |
//! | sim | [`carmel_sim`] | cycle model of one NVIDIA Carmel core and its cache hierarchy |
//! | GEMM | [`gemm_blis`] | five-loop BLIS algorithm, packing, blocking, baselines, the figure simulator |
//! | workloads | [`dnn_models`] | ResNet50 v1.5 / VGG16 convolutions lowered to GEMM (Tables I/II) |
//! | tune | [`exo_tune`] | design-space search, per-process verdict memo, [`exo_tune::TunedGemm`] dispatch |
//! | serve | [`exo_serve`] | persistent service layer: shared worker pool, batched execution, queued front door |
//!
//! The public GEMM entry point is the BLAS-grade front door re-exported at
//! the crate root: borrowed strided views ([`MatRef`]/[`MatMut`]), the
//! problem descriptor [`GemmProblem`]
//! (`C = alpha * op(A) * op(B) + beta * C`), and the [`GemmExecutor`] trait
//! implemented by every driver ([`NaiveGemm`], [`gemm_blis::BlisGemm`],
//! [`exo_tune::TunedGemm`]).
//!
//! A short tour (the long versions are `examples/quickstart.rs` and
//! `examples/blas_api.rs`):
//!
//! ```
//! use exo_gemm::ukernel_gen::MicroKernelGenerator;
//! use exo_gemm::exo_isa::neon_f32;
//! use exo_gemm::{GemmExecutor, GemmProblem, MatMut, MatRef, NaiveGemm};
//!
//! // Generate the paper's 8x12 Neon kernel with the Section III recipe...
//! let kernel = MicroKernelGenerator::new(neon_f32()).generate(8, 12)?;
//! assert!(kernel.c_code.contains("vfmaq_laneq_f32"));
//!
//! // ...let the autotuner pick kernel + blocking for a problem shape...
//! let tuned = exo_gemm::exo_tune::Tuner::new();
//! let verdict = tuned.tune(196, 256, 2304)?;
//! assert!(verdict.predicted_gflops > 0.0);
//!
//! // ...and solve a strided, transposed problem through the front door:
//! // C = 2 * A^T * B + C over caller-owned memory, zero copies.
//! let (m, n, k) = (4usize, 3, 5);
//! let a_t: Vec<f32> = (0..k * m).map(|i| i as f32).collect(); // stored k x m
//! let b: Vec<f32> = (0..k * n).map(|i| (i % 3) as f32).collect();
//! let mut c = vec![0.0f32; m * n];
//! NaiveGemm.gemm(
//!     GemmProblem::new(
//!         MatRef::from_slice(&a_t, k, m),
//!         MatRef::from_slice(&b, k, n),
//!         MatMut::from_slice(&mut c, m, n),
//!     )
//!     .transpose_a()
//!     .alpha(2.0),
//! )?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use carmel_sim;
pub use dnn_models;
pub use exo_aot;
pub use exo_codegen;
pub use exo_ir;
pub use exo_isa;
pub use exo_sched;
pub use exo_serve;
pub use exo_tune;
pub use gemm_blis;
pub use ukernel_gen;

pub use gemm_blis::{GemmError, GemmExecutor, GemmProblem, GemmStats, MatMut, MatRef, Matrix, NaiveGemm, Op};

/// The README's code blocks, compiled and run as doctests so they track the
/// API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
