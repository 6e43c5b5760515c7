//! The `TunedGemm` front-end: a [`GemmExecutor`] whose micro-kernel and
//! blocking are chosen by the autotuner.
//!
//! This is the subsystem's serving path. Each distinct problem shape is
//! tuned once (or loaded from a persisted registry) and dispatched through
//! the functional five-loop driver with the winning kernel; repeat shapes
//! skip straight to dispatch. The full BLAS contract of
//! [`gemm_blis::GemmProblem`] — strided views, `op(A)`/`op(B)`,
//! `alpha`/`beta` — is honored by the underlying driver.

use gemm_blis::{BlisGemm, GemmExecutor, GemmProblem, GemmStats};

use crate::error::TuneError;
use crate::registry::{KernelRegistry, TuneVerdict};
use crate::space::DesignSpace;
use crate::tuner::Tuner;

/// The space every serving constructor searches: the tiles generatable
/// from the ARM Neon f32 description that the vector ISA executing on this
/// host (`gemm_blis::active_isa()`) runs in whole vectors.
fn serving_space() -> DesignSpace {
    DesignSpace::for_execution(exo_isa::neon_f32(), gemm_blis::active_isa())
}

/// Metadata of one dispatched GEMM.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedRun {
    /// The verdict that chose the kernel (memoised or freshly searched).
    pub verdict: TuneVerdict,
    /// Driver statistics of the dispatched problem.
    pub stats: GemmStats,
}

/// Autotuned GEMM: searches-or-loads per problem shape, then dispatches.
///
/// Dispatch goes through the fastest execution backend the host supports:
/// generated kernels carry their tape, their superword lowering, and its
/// SIMD closure chain (AVX2/FMA, NEON, or the scalar reference) plus, once
/// the background build promotes it, the ahead-of-time compiled native
/// artifact, and the one ladder in `ukernel_gen` resolves native → simd →
/// superword (the portable scalar chain) → tape → interp. The five-loop engine runs on one thread unless
/// [`TunedGemm::with_threads`] raises the knob, in which case it runs once
/// per window of a partitioned `C`. The `EXO_BACKEND` environment override
/// (`native|simd|superword|tape|interp`) is honored, so any tier is
/// forceable for debugging. Use it through [`GemmExecutor::gemm`] like
/// every other driver, or through [`TunedGemm::execute`] to also receive
/// the tuning verdict.
#[derive(Debug)]
pub struct TunedGemm {
    tuner: Tuner,
    threads: usize,
}

impl Default for TunedGemm {
    fn default() -> Self {
        TunedGemm::new()
    }
}

impl TunedGemm {
    /// A tuned GEMM for this host: kernels generated from the ARM Neon f32
    /// description, the search confined to the tiles the executing vector
    /// ISA (`gemm_blis::active_isa()`: AVX2, NEON, or the scalar
    /// reference) runs in whole vectors inside its register file
    /// ([`DesignSpace::fills_vectors_of`]), ranked inside that space by the
    /// analytical Carmel model; in-memory registry, one thread.
    pub fn new() -> Self {
        let space = serving_space();
        let registry = KernelRegistry::new(space.identity());
        TunedGemm::over(space, registry).expect("a registry named after the space is always consistent")
    }

    /// A tuned GEMM over an explicit tuner (any space, any evaluator).
    pub fn with_tuner(tuner: Tuner) -> Self {
        TunedGemm { tuner, threads: 1 }
    }

    fn over(space: DesignSpace, registry: KernelRegistry) -> Result<Self, TuneError> {
        Ok(TunedGemm::with_tuner(Tuner::over(space, registry)?))
    }

    /// Sets the worker-thread count the dispatch driver partitions `C`
    /// over (`0` = all cores, `1` = sequential). Thread count never
    /// changes results: every `C` element is computed by exactly one
    /// worker in the sequential op order.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// [`TunedGemm::new`] with a registry that persists at `path`: the
    /// first process pays for the search, every later one on the same
    /// executing ISA starts warm.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError`] if an existing file cannot be loaded —
    /// [`TuneError::Corrupt`] when it was recorded for another executing
    /// ISA (the file's `isa` is the space's [`DesignSpace::identity`],
    /// e.g. `neon-f32@avx2`; files older than that naming say `neon-f32`
    /// and are refused too).
    pub fn with_persistence(path: impl AsRef<std::path::Path>) -> Result<Self, TuneError> {
        let space = serving_space();
        let registry = KernelRegistry::with_persistence(space.identity(), path)?;
        TunedGemm::over(space, registry)
    }

    /// Like [`TunedGemm::with_persistence`], but a damaged registry file —
    /// or one recorded for another executing ISA — degrades to a cold start
    /// instead of an error: the file is quarantined as `<path>.corrupt` and
    /// tuning restarts fresh, still persisting at `path`. Returns the
    /// executor along with the tolerated load error, if any, so the caller
    /// can log the degradation.
    pub fn with_persistence_or_fresh(path: impl AsRef<std::path::Path>) -> (Self, Option<TuneError>) {
        let space = serving_space();
        let (registry, tolerated) = KernelRegistry::with_persistence_or_fresh(space.identity(), path);
        let tuned = TunedGemm::over(space, registry)
            .expect("a fresh or freshly-validated registry of the same identity is always consistent");
        (tuned, tolerated)
    }

    /// The underlying tuner.
    pub fn tuner(&self) -> &Tuner {
        &self.tuner
    }

    /// The worker-thread knob set with [`TunedGemm::with_threads`] (the
    /// batch executor in `exo-serve` reads it to build matching drivers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The registry memoising verdicts for this front-end.
    pub fn registry(&self) -> &KernelRegistry {
        self.tuner.registry()
    }

    /// Tunes (or loads the verdict for) a problem shape without running it.
    ///
    /// # Errors
    ///
    /// Propagates search failures.
    pub fn plan(&self, m: usize, n: usize, k: usize) -> Result<TuneVerdict, TuneError> {
        self.tuner.tune(m, n, k)
    }

    /// Solves the problem with the autotuned kernel and blocking for its
    /// shape, returning both the verdict and the driver statistics.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::Gemm`] for inconsistent view shapes and
    /// propagates search or generation failures.
    pub fn execute(&self, problem: GemmProblem<'_>) -> Result<TunedRun, TuneError> {
        let (m, n, k) = problem.dims().map_err(|e| TuneError::Gemm(e.to_string()))?;
        if m == 0 || n == 0 || k == 0 {
            // Nothing to tune: the driver handles the degenerate contract
            // (beta scaling, nothing else) with any kernel, and the
            // registry stays untouched.
            let blocking = gemm_blis::BlockingParams::carmel_defaults(8, 12);
            let driver = BlisGemm::new(blocking).with_threads(self.threads);
            let stats = driver.gemm(problem)?;
            let verdict = TuneVerdict {
                m,
                n,
                k,
                mr: blocking.mr,
                nr: blocking.nr,
                mc: blocking.mc,
                kc: blocking.kc,
                nc: blocking.nc,
                predicted_cycles: 0.0,
                predicted_gflops: 0.0,
                candidates_evaluated: 0,
                evaluator: "degenerate".into(),
            };
            return Ok(TunedRun { verdict, stats });
        }
        let verdict = self.tuner.tune(m, n, k)?;
        let kernel = self.tuner.kernel_impl_for(&verdict)?;
        let driver = BlisGemm::new(verdict.blocking()).with_threads(self.threads).with_kernel(kernel);
        let stats = driver.gemm(problem)?;
        Ok(TunedRun { verdict, stats })
    }
}

impl GemmExecutor for TunedGemm {
    fn gemm(&self, problem: GemmProblem<'_>) -> Result<GemmStats, gemm_blis::GemmError> {
        match self.execute(problem) {
            Ok(run) => Ok(run.stats),
            Err(TuneError::Gemm(what)) => Err(gemm_blis::GemmError::ShapeMismatch { what }),
            Err(e) => {
                Err(gemm_blis::GemmError::Backend { backend: "exo-tune".into(), message: e.to_string() })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_blis::{naive_gemm, Matrix, NaiveGemm};

    fn matrices(m: usize, n: usize, k: usize) -> (Matrix, Matrix, Matrix, Matrix) {
        let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3 + 1) % 13) as f32 * 0.25 - 1.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 11 + 2) % 17) as f32 * 0.125 - 1.0);
        let c = Matrix::from_fn(m, n, |i, j| ((i + j) % 3) as f32);
        let c_ref = c.clone();
        (a, b, c, c_ref)
    }

    #[test]
    fn tuned_gemm_matches_naive_and_memoises() {
        let tuned = TunedGemm::new();
        let (a, b, mut c, mut c_ref) = matrices(45, 37, 29);
        let run = tuned.execute(GemmProblem::new(a.view(), b.view(), c.view_mut())).unwrap();
        naive_gemm(&a, &b, &mut c_ref);
        for (idx, (x, y)) in c.data.iter().zip(&c_ref.data).enumerate() {
            assert!((x - y).abs() < 1e-3, "mismatch at {idx}: {x} vs {y}");
        }
        assert!(run.stats.kernel.starts_with("EXO"));
        assert_eq!(run.verdict.m, 45);
        assert_eq!((run.stats.m, run.stats.n, run.stats.k), (45, 37, 29));

        // A repeat shape dispatches without re-searching.
        let invocations = tuned.registry().generator_invocations();
        let (a2, b2, mut c2, mut c2_ref) = matrices(45, 37, 29);
        tuned.gemm(GemmProblem::new(a2.view(), b2.view(), c2.view_mut())).unwrap();
        naive_gemm(&a2, &b2, &mut c2_ref);
        assert_eq!(tuned.registry().generator_invocations(), invocations);
        assert_eq!(tuned.registry().len(), 1);
    }

    #[test]
    fn tuned_gemm_honors_the_full_blas_contract() {
        // C = alpha * A^T * B + beta * C through the autotuned executor vs
        // the naive strided reference.
        let (m, n, k) = (31usize, 20usize, 17usize);
        let at = Matrix::from_fn(k, m, |i, j| ((i * 3 + j * 5 + 2) % 11) as f32 * 0.25 - 1.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j + 1) % 9) as f32 * 0.5 - 2.0);
        let c0 = Matrix::from_fn(m, n, |i, j| ((i + 2 * j) % 5) as f32 * 0.25);
        let tuned = TunedGemm::new();
        let mut c_tuned = c0.clone();
        tuned
            .gemm(
                GemmProblem::new(at.view(), b.view(), c_tuned.view_mut())
                    .transpose_a()
                    .alpha(1.5)
                    .beta(-0.25),
            )
            .unwrap();
        let mut c_ref = c0.clone();
        NaiveGemm
            .gemm(
                GemmProblem::new(at.view(), b.view(), c_ref.view_mut()).transpose_a().alpha(1.5).beta(-0.25),
            )
            .unwrap();
        for (idx, (x, y)) in c_tuned.data.iter().zip(&c_ref.data).enumerate() {
            assert!((x - y).abs() < 1e-3, "mismatch at {idx}: {x} vs {y}");
        }
    }

    #[test]
    fn threaded_dispatch_is_deterministic() {
        let (a, b, mut c1, _) = matrices(52, 33, 21);
        let mut c4 = c1.clone();
        TunedGemm::new().execute(GemmProblem::new(a.view(), b.view(), c1.view_mut())).unwrap();
        TunedGemm::new()
            .with_threads(4)
            .execute(GemmProblem::new(a.view(), b.view(), c4.view_mut()))
            .unwrap();
        assert_eq!(c1.data, c4.data, "thread count must not change the result");
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let tuned = TunedGemm::new();
        let a = Matrix::zeros(4, 5);
        let b = Matrix::zeros(6, 4);
        let mut c = Matrix::zeros(4, 4);
        assert!(matches!(
            tuned.execute(GemmProblem::new(a.view(), b.view(), c.view_mut())),
            Err(TuneError::Gemm(_))
        ));
    }

    #[test]
    fn degenerate_shapes_apply_beta_without_tuning() {
        let tuned = TunedGemm::new();
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let mut c = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32);
        let run = tuned.execute(GemmProblem::new(a.view(), b.view(), c.view_mut()).beta(2.0)).unwrap();
        assert_eq!(c.get(1, 1), 10.0, "k = 0 still applies beta");
        assert_eq!(run.verdict.k, 0);
        assert_eq!(tuned.registry().len(), 0, "degenerate shapes are not tuned");
    }

    #[test]
    fn plan_without_dispatch_records_a_verdict() {
        let tuned = TunedGemm::new();
        let verdict = tuned.plan(196, 256, 2304).unwrap();
        assert_eq!((verdict.m, verdict.n, verdict.k), (196, 256, 2304));
        assert_eq!(tuned.registry().len(), 1);
    }
}
