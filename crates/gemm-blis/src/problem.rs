//! The BLAS-grade GEMM front door: one problem descriptor, one executor
//! trait, one strided reference implementation.
//!
//! A [`GemmProblem`] describes the full BLAS contract
//!
//! ```text
//! C = alpha * op(A) * op(B) + beta * C
//! ```
//!
//! over borrowed strided views ([`MatRef`]/[`MatMut`]) of caller-owned
//! memory, where `op(X)` is identity or transpose ([`Op`]). Every driver in
//! the workspace implements [`GemmExecutor`] over it:
//!
//! * [`NaiveGemm`] (here) — the strided reference triple loop, the ground
//!   truth of the differential suites;
//! * [`crate::BlisGemm`] — the five-loop blocked algorithm with packing,
//!   arenas, threads, and generated micro-kernels;
//! * `exo_tune::TunedGemm` — autotuned kernel + blocking per problem shape.
//!
//! The semantics corner cases follow BLAS: `beta == 0` means the initial
//! contents of `C` are **never read** (so `C` may hold uninitialised-looking
//! values such as NaN), and `alpha == 0` skips the product entirely (neither
//! `A` nor `B` is read).

use std::sync::Arc;

use crate::baselines::ExecBackend;
use crate::views::{MatMut, MatRef};
use crate::GemmError;

/// The `op(X)` applied to a GEMM operand before the product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Op {
    /// Use the operand as given.
    #[default]
    None,
    /// Use the operand's transpose. Zero-cost: strides swap, no data moves.
    Transpose,
}

impl Op {
    /// Applies the op to a view (a stride swap for [`Op::Transpose`]).
    #[inline]
    pub fn apply(self, m: MatRef<'_>) -> MatRef<'_> {
        match self {
            Op::None => m,
            Op::Transpose => m.t(),
        }
    }
}

/// One GEMM problem: `C = alpha * op(A) * op(B) + beta * C` over borrowed
/// strided views.
///
/// Built with [`GemmProblem::new`] plus the builder methods; the defaults
/// (`alpha = 1`, `beta = 1`, no transposes) make it the accumulating
/// `C += A * B` of the paper. Consumed by [`GemmExecutor::gemm`].
#[derive(Debug)]
pub struct GemmProblem<'a> {
    /// The `A` operand (before `op_a`).
    pub a: MatRef<'a>,
    /// The `B` operand (before `op_b`).
    pub b: MatRef<'a>,
    /// The `C` operand, updated in place.
    pub c: MatMut<'a>,
    /// Scale on the `op(A) * op(B)` product. `0` skips the product (and
    /// never reads `A`/`B`).
    pub alpha: f32,
    /// Scale on the initial `C`. `0` means `C` is never read, only written.
    pub beta: f32,
    /// Op applied to `A`.
    pub op_a: Op,
    /// Op applied to `B`.
    pub op_b: Op,
}

impl<'a> GemmProblem<'a> {
    /// The accumulating problem `C += A * B` (`alpha = 1`, `beta = 1`, no
    /// transposes).
    pub fn new(a: MatRef<'a>, b: MatRef<'a>, c: MatMut<'a>) -> Self {
        GemmProblem { a, b, c, alpha: 1.0, beta: 1.0, op_a: Op::None, op_b: Op::None }
    }

    /// Sets the scale on the product.
    #[must_use]
    pub fn alpha(mut self, alpha: f32) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the scale on the initial `C` (`0` = overwrite without reading).
    #[must_use]
    pub fn beta(mut self, beta: f32) -> Self {
        self.beta = beta;
        self
    }

    /// Uses `A` transposed.
    #[must_use]
    pub fn transpose_a(mut self) -> Self {
        self.op_a = Op::Transpose;
        self
    }

    /// Uses `B` transposed.
    #[must_use]
    pub fn transpose_b(mut self) -> Self {
        self.op_b = Op::Transpose;
        self
    }

    /// Sets the op applied to `A`.
    #[must_use]
    pub fn op_a(mut self, op: Op) -> Self {
        self.op_a = op;
        self
    }

    /// Sets the op applied to `B`.
    #[must_use]
    pub fn op_b(mut self, op: Op) -> Self {
        self.op_b = op;
        self
    }

    /// Validates the shapes and returns the problem dimensions `(m, n, k)`
    /// where `op(A)` is `m x k`, `op(B)` is `k x n` and `C` is `m x n`.
    /// (`C` can never alias `A`/`B`: [`MatMut`] borrows its storage
    /// exclusively.)
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::ShapeMismatch`] when the dimensions are
    /// inconsistent.
    pub fn dims(&self) -> Result<(usize, usize, usize), GemmError> {
        let a = self.op_a.apply(self.a);
        let b = self.op_b.apply(self.b);
        if a.cols() != b.rows() || a.rows() != self.c.rows() || b.cols() != self.c.cols() {
            return Err(GemmError::ShapeMismatch {
                what: format!(
                    "op(A) is {}x{}, op(B) is {}x{}, C is {}x{}",
                    a.rows(),
                    a.cols(),
                    b.rows(),
                    b.cols(),
                    self.c.rows(),
                    self.c.cols()
                ),
            });
        }
        Ok((a.rows(), b.cols(), a.cols()))
    }

    /// A mutable reborrow of this problem: the same descriptor over views
    /// borrowed from `self`, so an executor can consume the reborrow while
    /// the caller keeps the original — what the batch path's degradation
    /// retry needs to attempt the same problem twice.
    pub fn reborrow(&mut self) -> GemmProblem<'_> {
        GemmProblem {
            a: self.a,
            b: self.b,
            c: self.c.rb_mut(),
            alpha: self.alpha,
            beta: self.beta,
            op_a: self.op_a,
            op_b: self.op_b,
        }
    }
}

/// What a [`GemmExecutor`] reports about one completed GEMM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmStats {
    /// Rows of `C`.
    pub m: usize,
    /// Columns of `C`.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Useful floating-point operations actually performed (`2 m n k`, but
    /// `0` when the problem's `alpha == 0` short-circuited the product) —
    /// recorded by the executor so throughput derived from stats stays
    /// honest.
    pub flop_count: u64,
    /// Display name of the micro-kernel (or backend) that ran the problem,
    /// shared with its [`crate::KernelImpl::name`].
    pub kernel: Arc<str>,
    /// The execution tier the micro-kernel's dispatch handle had resolved
    /// when it ran the problem — the tier that actually answered on
    /// [`crate::ExecBackend`]'s ladder (a degraded retry reports the tier
    /// it landed on), `None` for the reference executors
    /// ([`crate::NaiveGemm`]), which have no tiers.
    pub tier: Option<ExecBackend>,
    /// Worker threads the driver used (`1` for sequential executors).
    pub threads: usize,
    /// Width of the shared worker pool the driver drew from, or `0` when
    /// the run stayed entirely on the calling thread.
    pub pool_workers: usize,
    /// Whether the problem ran through a batch executor (`exo-serve`'s
    /// `GemmBatchExecutor`: a batch, or its one-entry door that a lone
    /// service job takes) rather than a standalone call.
    pub batched: bool,
    /// Whether the result came from a degradation retry: the first attempt
    /// failed (error or contained panic) and the problem was re-run once on
    /// the next execution tier down (native → superword).
    pub degraded: bool,
}

impl GemmStats {
    /// Useful floating-point operations of an `m x n x k` problem:
    /// `2 m n k`, explicitly zero both for `alpha == 0` (the product is
    /// skipped, `A`/`B` never read) and for degenerate shapes (any
    /// dimension zero) — degenerate calls are *counted* as zero-flop work,
    /// never silently skipped, so service-level aggregation stays honest.
    pub fn flops_for(m: usize, n: usize, k: usize, alpha: f32) -> u64 {
        if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
            0
        } else {
            2 * m as u64 * n as u64 * k as u64
        }
    }
}

/// The single GEMM entry point every driver implements: solve one
/// [`GemmProblem`], updating `C` in place.
///
/// Implementations must honor the full contract — strides, transposes,
/// `alpha`/`beta` (including the never-read-`C` `beta == 0` and the
/// never-read-`A`/`B` `alpha == 0` cases) — and agree with [`NaiveGemm`] to
/// floating-point accumulation tolerance on every valid problem.
pub trait GemmExecutor {
    /// Executes the problem.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::ShapeMismatch`] for inconsistent dimensions and
    /// implementation-specific errors otherwise.
    fn gemm(&self, problem: GemmProblem<'_>) -> Result<GemmStats, GemmError>;
}

/// The strided reference executor: a straight `(i, j, k)` triple loop over
/// the views, one `f32` accumulator per output element, `k` ascending, in
/// the engine's arithmetic — the accumulator starts at `beta·c` (at zero
/// when `beta == 0`) and takes `(alpha·a[i,p]).mul_add(b[p,j], acc)` per
/// `p`.
///
/// Slow and obviously correct — the ground truth the differential suites
/// compare every other [`GemmExecutor`] against, and bit for bit what the
/// five-loop driver computes with any kernel, tile, blocking and ISA.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveGemm;

impl GemmExecutor for NaiveGemm {
    fn gemm(&self, problem: GemmProblem<'_>) -> Result<GemmStats, GemmError> {
        let (m, n, k) = problem.dims()?;
        let a = problem.op_a.apply(problem.a);
        let b = problem.op_b.apply(problem.b);
        let (alpha, beta) = (problem.alpha, problem.beta);
        let mut c = problem.c;
        for i in 0..m {
            for j in 0..n {
                // beta == 0 must not read C (it may hold NaN), and
                // alpha == 0 must not read A or B.
                let mut acc = if beta == 0.0 { 0.0 } else { beta * c.get(i, j) };
                if alpha != 0.0 {
                    for p in 0..k {
                        acc = (alpha * a.get(i, p)).mul_add(b.get(p, j), acc);
                    }
                }
                c.set(i, j, acc);
            }
        }
        let flop_count = GemmStats::flops_for(m, n, k, alpha);
        Ok(GemmStats {
            m,
            n,
            k,
            flop_count,
            kernel: "naive strided reference".into(),
            tier: None,
            threads: 1,
            pool_workers: 0,
            batched: false,
            degraded: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
        (0..rows * cols).map(|x| f(x / cols, x % cols)).collect()
    }

    #[test]
    fn naive_executor_honors_the_full_contract() {
        // C = alpha * A^T * B + beta * C on small hand-checkable data.
        let at = dense(3, 2, |i, j| (i * 2 + j) as f32); // A^T stored as 3x2; op(A) = T makes A 2x3.
        let b = dense(3, 2, |i, j| (i + j) as f32 * 0.5);
        let mut c = vec![1.0f32; 4];
        let p = GemmProblem::new(
            MatRef::from_slice(&at, 3, 2),
            MatRef::from_slice(&b, 3, 2),
            MatMut::from_slice(&mut c, 2, 2),
        )
        .transpose_a()
        .alpha(2.0)
        .beta(-1.0);
        let stats = NaiveGemm.gemm(p).unwrap();
        assert_eq!((stats.m, stats.n, stats.k), (2, 2, 3));
        // op(A) = [[0, 2, 4], [1, 3, 5]]; B = [[0, .5], [.5, 1], [1, 1.5]].
        // op(A)*B = [[5, 8], [6.5, 11]]; alpha*.. - C = [[9, 15], [12, 21]].
        assert_eq!(c, vec![9.0, 15.0, 12.0, 21.0]);
    }

    #[test]
    fn beta_zero_never_reads_c() {
        let a = dense(2, 2, |i, j| (i + j) as f32);
        let b = dense(2, 2, |i, j| (i * 2 + j) as f32);
        let mut c = vec![f32::NAN; 4];
        let p = GemmProblem::new(
            MatRef::from_slice(&a, 2, 2),
            MatRef::from_slice(&b, 2, 2),
            MatMut::from_slice(&mut c, 2, 2),
        )
        .beta(0.0);
        NaiveGemm.gemm(p).unwrap();
        assert!(c.iter().all(|v| v.is_finite()), "beta = 0 must overwrite NaN garbage: {c:?}");
    }

    #[test]
    fn alpha_zero_only_scales_c() {
        let a = dense(2, 3, |_, _| f32::NAN);
        let b = dense(3, 2, |_, _| f32::NAN);
        let mut c = vec![2.0f32; 4];
        let p = GemmProblem::new(
            MatRef::from_slice(&a, 2, 3),
            MatRef::from_slice(&b, 3, 2),
            MatMut::from_slice(&mut c, 2, 2),
        )
        .alpha(0.0)
        .beta(0.5);
        NaiveGemm.gemm(p).unwrap();
        assert_eq!(c, vec![1.0; 4], "alpha = 0 must not read A/B");
    }

    #[test]
    fn mismatched_shapes_are_rejected() {
        let a = dense(2, 3, |_, _| 0.0);
        let b = dense(2, 2, |_, _| 0.0);
        let mut c = vec![0.0f32; 4];
        let p = GemmProblem::new(
            MatRef::from_slice(&a, 2, 3),
            MatRef::from_slice(&b, 2, 2),
            MatMut::from_slice(&mut c, 2, 2),
        );
        assert!(matches!(NaiveGemm.gemm(p), Err(GemmError::ShapeMismatch { .. })));
    }

    #[test]
    fn flops_account_for_alpha_zero() {
        let a = dense(4, 8, |_, _| 0.0);
        let b = dense(8, 2, |_, _| 0.0);
        let mut c = vec![0.0f32; 8];
        let mut run = |alpha| {
            let p = GemmProblem::new(
                MatRef::from_slice(&a, 4, 8),
                MatRef::from_slice(&b, 8, 2),
                MatMut::from_slice(&mut c, 4, 2),
            );
            NaiveGemm.gemm(p.alpha(alpha)).unwrap().flop_count
        };
        assert_eq!(run(1.0), 2 * 4 * 2 * 8);
        assert_eq!(run(0.0), 0);
    }

    #[test]
    fn degenerate_shapes_report_zero_flops_not_garbage() {
        assert_eq!(GemmStats::flops_for(4, 3, 5, 1.0), 120);
        assert_eq!(GemmStats::flops_for(0, 3, 5, 1.0), 0);
        assert_eq!(GemmStats::flops_for(4, 0, 5, 1.0), 0);
        assert_eq!(GemmStats::flops_for(4, 3, 0, 1.0), 0);
        assert_eq!(GemmStats::flops_for(4, 3, 5, 0.0), 0);
        // And the executors *count* the degenerate call rather than
        // skipping it: stats come back with the shape and zero flops.
        let a: Vec<f32> = Vec::new();
        let b = vec![0.0f32; 0];
        let mut c = vec![7.0f32; 6];
        let p = GemmProblem::new(
            MatRef::from_slice(&a, 2, 0),
            MatRef::from_slice(&b, 0, 3),
            MatMut::from_slice(&mut c, 2, 3),
        );
        let stats = NaiveGemm.gemm(p).unwrap();
        assert_eq!((stats.m, stats.n, stats.k), (2, 3, 0));
        assert_eq!(stats.flop_count, 0);
        assert!(!stats.batched);
        assert_eq!(stats.pool_workers, 0);
    }
}
