//! `exo-serve`: a persistent GEMM service layer over the `gemm-blis`
//! drivers and the `exo-tune` autotuner.
//!
//! Three layers, each usable on its own:
//!
//! - **Shared thread pool** ([`ThreadPool`], re-exported from
//!   `gemm_blis::pool`): one process-wide pool sized to the machine (or
//!   `EXO_THREADS`), created once and borrowed by every GEMM call instead
//!   of spawning OS threads per call.
//! - **Batched execution** ([`GemmBatch`] / [`GemmBatchExecutor`]): group
//!   problems by the driver of their kernel shape, shard a group's entries
//!   across the pool with one of the driver's warm runners per shard, and
//!   pack a `B` that several entries share once. Results are bit-identical
//!   to a sequential per-entry loop.
//! - **Queued front door** ([`GemmService`]): a bounded submission queue
//!   fed from any number of caller threads and drained into adaptive
//!   batches by whichever caller finds it idle — the service owns no
//!   thread, and a lone job runs through the executor's one-entry door
//!   ([`GemmBatchExecutor::gemm_one`]) — with aggregate counters
//!   ([`ServiceStats`]).
//!
//! ```
//! use exo_serve::{GemmJob, GemmService, OwnedMat};
//! use gemm_blis::{BlisGemm, BlockingParams};
//!
//! let service = GemmService::new(BlisGemm::new(BlockingParams::carmel_defaults(8, 12)));
//! let job = GemmJob::new(
//!     OwnedMat::from_fn(4, 3, |i, j| (i + j) as f32),
//!     OwnedMat::from_fn(3, 5, |i, j| (i * 5 + j) as f32 * 0.5),
//!     OwnedMat::zeros(4, 5),
//! )
//! .beta(0.0);
//! let done = service.submit(job).expect("service accepting").wait().unwrap();
//! assert_eq!(done.stats.flop_count, 2 * 4 * 5 * 3);
//! assert!(done.stats.batched);
//! ```
//!
//! # Fault tolerance
//!
//! The service is built to keep serving through partial failure:
//!
//! - A panic inside one batch entry (kernel bug, injected fault) fails
//!   **only that job** with [`gemm_blis::GemmError::JobPanicked`]; the rest
//!   of the batch completes normally and the pool respawns dead workers.
//! - Executional failures on `beta == 0` jobs are retried once on the next
//!   backend tier down (`native → superword`); successes are stamped
//!   `degraded` in their [`gemm_blis::GemmStats`]. A job that failed on the
//!   superword interpreter, the floor, is not retried.
//! - Jobs carry optional queue deadlines ([`GemmJob::deadline`]); expired
//!   jobs resolve with `DeadlineExceeded` instead of executing stale work.
//! - If a pass unwinds on the thread draining the queue, exactly that
//!   pass's jobs resolve with `JobPanicked`, the thread goes on draining
//!   and the service reports [`ServiceHealth::Degraded`] — no caller ever
//!   hangs and a live service never refuses work.
//! - The [`fault`] module provides a deterministic, seeded fault-injection
//!   harness (inert unless armed; see `EXO_FAULT`) used by the stress suite.

#![warn(missing_docs)]

pub mod batch;
pub mod fault;
pub mod job;
pub mod service;

pub use batch::{BatchReport, CachedTunedGemm, EntryReport, GemmBatch, GemmBatchExecutor};
pub use fault::FaultPlan;
pub use gemm_blis::pool::{env_threads_override, PoolJob, ThreadPool};
pub use job::{CompletedJob, GemmJob, OwnedMat};
pub use service::{
    GemmService, JobHandle, ServiceConfig, ServiceHealth, ServiceStats, SubmitError, SubmitErrorReason,
};
