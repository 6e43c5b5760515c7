//! # exo-tune
//!
//! The autotuning subsystem: searches the micro-kernel design space and
//! dispatches the best kernel per GEMM problem.
//!
//! The paper's headline result comes from generating *many*
//! size-specialised micro-kernels and picking the best register tile and
//! blocking configuration per problem shape. This crate turns that
//! methodology into a reusable subsystem with three pieces:
//!
//! * [`DesignSpace`] — enumerates every `(MR, NR)` register tile valid for
//!   a [`exo_isa::VectorIsa`] under a register budget, paired with
//!   [`gemm_blis::BlockingParams`]. The *modelled* space
//!   ([`DesignSpace::for_isa`]) is everything the described machine could
//!   run, each tile crossed with two blockings for Carmel's caches; the
//!   *serving* space ([`DesignSpace::for_execution`]) keeps the tiles that
//!   also fill whole vectors of the host ISA that executes them, inside its
//!   register file, each with the one blocking for the host's probed caches
//!   ([`gemm_blis::HostDescription`]);
//! * [`KernelRegistry`] — caches kernel schedules, and the kernels lowered
//!   from the few that are served, keyed by `(isa, mr, nr)` (via
//!   [`ukernel_gen::KernelCache`]) and memoises
//!   tuning verdicts keyed by problem shape, for the life of the
//!   [`Tuner`] that owns it: a verdict is deterministic per
//!   `(m, n, k, executing ISA, caches)`, so each process re-derives it
//!   once and no verdict crosses design spaces;
//! * [`TunedGemm`] — the serving front-end: a [`gemm_blis::GemmExecutor`]
//!   that transparently searches (once) the verdict for each problem
//!   shape in the serving space of this host and dispatches the winning
//!   kernel through the functional BLIS-like driver.
//!
//! Candidates of both spaces are ranked by one cost, the analytical
//! `carmel-sim` model run through the five-loop structure
//! ([`gemm_blis::modelled_gemm_cycles`]) over each tile's schedule:
//! deterministic, and ranking a candidate neither lowers, runs nor
//! compiles it. [`Tuner::new`] stays the
//! paper's question — what the modelled Carmel picks from the whole Neon
//! space — and is what the figure binaries and [`tune_workload`] use. A
//! verdict's `predicted_*` fields are that model's numbers in either
//! space: they rank, they do not predict the host.
//!
//! ```
//! use exo_tune::TunedGemm;
//! use gemm_blis::{GemmExecutor, GemmProblem, Matrix};
//!
//! let tuned = TunedGemm::new();
//! let a = Matrix::from_fn(50, 30, |i, j| (i + j) as f32 * 0.25);
//! let b = Matrix::from_fn(30, 40, |i, j| (i as f32 - j as f32) * 0.5);
//! let mut c = Matrix::zeros(50, 40);
//! let stats = tuned.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()))?;
//! assert!(stats.kernel.starts_with("EXO"));
//! // The verdict is memoised: the same shape never searches again.
//! assert_eq!(tuned.registry().len(), 1);
//! # Ok::<(), gemm_blis::GemmError>(())
//! ```

#![warn(missing_docs)]

mod error;
pub mod gemm;
pub mod json;
pub mod registry;
pub mod space;
pub mod tuner;
pub mod workload;

pub use error::TuneError;
pub use gemm::{TunedGemm, TunedRun};
pub use registry::{KernelRegistry, TuneVerdict};
pub use space::{Candidate, DesignSpace, TileShape};
pub use tuner::Tuner;
pub use workload::{tune_workload, workload_seconds, LayerPlan};
