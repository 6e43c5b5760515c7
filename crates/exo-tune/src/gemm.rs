//! The `TunedGemm` front-end: a [`GemmExecutor`] whose micro-kernel and
//! blocking are chosen by the autotuner.
//!
//! This is the subsystem's serving path. Each distinct problem shape is
//! tuned once per executor, each distinct verdict group — register tile
//! plus blocking — gets one functional five-loop driver built around the
//! winning kernel, and every problem is that driver's `gemm`: repeat
//! shapes skip straight to a warm engine. The blocking is not searched:
//! every tile runs with the one `mc` / `kc` / `nc` sized for this host's
//! probed caches
//! ([`gemm_blis::BlockingParams::for_host`]), so a verdict group is a tile,
//! and a workload the tuner serves one tile has one driver. The full
//! BLAS contract of [`gemm_blis::GemmProblem`] — strided views,
//! `op(A)`/`op(B)`, `alpha`/`beta` — is honored by the underlying driver.

use std::sync::{Arc, Mutex, PoisonError};

use gemm_blis::{BlisGemm, BlockingParams, GemmError, GemmExecutor, GemmProblem, GemmStats};

use crate::error::TuneError;
use crate::registry::{KernelRegistry, TuneVerdict};
use crate::space::DesignSpace;
use crate::tuner::Tuner;

/// Metadata of one dispatched GEMM.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedRun {
    /// The verdict that chose the kernel (memoised or freshly searched).
    pub verdict: TuneVerdict,
    /// Driver statistics of the dispatched problem.
    pub stats: GemmStats,
}

/// A verdict group — the complete dispatch identity: the register tile
/// (the kernel cache's key) plus the cache blocking (the driver's). `None`
/// is the group of the shapes there is nothing to tune for.
type GroupKey = Option<BlockingParams>;

/// Autotuned GEMM: searches each problem shape once, then dispatches
/// through the one driver of the verdict's group.
///
/// A driver is built the first time a verdict of its group is dispatched —
/// registry lookup, `KernelImpl`, `BlisGemm` — and kept for as long as the
/// executor lives, together with the warm runners it owns
/// ([`gemm_blis::BlisGemm`]): the second problem of a group pays for a
/// verdict lookup and a GEMM, whichever of [`TunedGemm::execute`],
/// [`GemmExecutor::gemm`] or an `exo-serve` batch it comes through.
///
/// Dispatch goes through the fastest execution backend the host supports:
/// generated kernels carry their tape, their superword lowering, and its
/// SIMD closure chain (AVX-512, AVX2/FMA, NEON, or the scalar reference)
/// plus, when the build-time table holds one, the ahead-of-time compiled
/// native body; the one ladder in `ukernel_gen` serves a native request on
/// the simd chain when it does not. The five-loop engine runs on one
/// thread unless [`TunedGemm::with_threads`] raises the knob, in which case
/// it runs once per window of a partitioned `C`. Use it through
/// [`GemmExecutor::gemm`] like every other driver, or through
/// [`TunedGemm::execute`] to also receive the tuning verdict.
#[derive(Debug)]
pub struct TunedGemm {
    tuner: Tuner,
    threads: usize,
    /// One built driver per verdict group, in first-dispatch order. A
    /// serving mix has a handful of groups, so lookup is a scan.
    drivers: Mutex<Vec<(GroupKey, Arc<BlisGemm>)>>,
}

impl Default for TunedGemm {
    fn default() -> Self {
        TunedGemm::new()
    }
}

impl TunedGemm {
    /// A tuned GEMM for this host: kernels generated from the instruction
    /// library of the executing vector ISA (`gemm_blis::active_isa()`) —
    /// `avx512_f32` on AVX-512, the ARM Neon f32 description on AVX2, NEON
    /// and the scalar reference ([`DesignSpace::serving`]) — the search
    /// confined to the tiles that ISA runs in whole vectors inside its
    /// register file ([`DesignSpace::fills_vectors_of`]), each tile blocked
    /// for this host's probed caches
    /// ([`gemm_blis::BlockingParams::for_host`]) and the tiles ranked by the
    /// analytical Carmel model; in-memory registry, one thread.
    pub fn new() -> Self {
        TunedGemm::with_tuner(Tuner::over(DesignSpace::serving(gemm_blis::active_isa())))
    }

    /// A tuned GEMM over an explicit tuner (any space).
    pub fn with_tuner(tuner: Tuner) -> Self {
        TunedGemm { tuner, threads: 1, drivers: Mutex::default() }
    }

    /// Sets the worker-thread count the dispatch drivers partition `C`
    /// over (`0` = all cores, `1` = sequential). Thread count never
    /// changes results: every `C` element is computed by exactly one
    /// worker in the sequential op order. Drivers already built for
    /// another count are dropped.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.drivers = Mutex::default();
        self
    }

    /// The underlying tuner.
    pub fn tuner(&self) -> &Tuner {
        &self.tuner
    }

    /// The worker-thread knob set with [`TunedGemm::with_threads`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The registry memoising verdicts for this front-end.
    pub fn registry(&self) -> &KernelRegistry {
        self.tuner.registry()
    }

    /// Tunes (or recalls the verdict for) a problem shape without running
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates search failures.
    pub fn plan(&self, m: usize, n: usize, k: usize) -> Result<TuneVerdict, TuneError> {
        self.tuner.tune(m, n, k)
    }

    /// The verdict for an `m x n x k` problem and the driver that runs it:
    /// the one driver of the verdict's group, built on the group's first
    /// dispatch and shared — with the warm runners it owns — by everything
    /// this executor dispatches afterwards (the `exo-serve` batch executor
    /// groups a batch's entries by it). A shape with a zero dimension has
    /// nothing to tune: it gets a degenerate verdict (no candidates
    /// evaluated) on the default blocking and a driver of its own — any
    /// kernel honours the contract that is left (`beta` scaling, nothing
    /// else) — and the registry stays untouched.
    ///
    /// # Errors
    ///
    /// Propagates search or generation failures.
    pub fn driver_for(
        &self,
        m: usize,
        n: usize,
        k: usize,
    ) -> Result<(TuneVerdict, Arc<BlisGemm>), TuneError> {
        let degenerate = m == 0 || n == 0 || k == 0;
        let verdict = if degenerate {
            let BlockingParams { mc, kc, nc, mr, nr } = BlockingParams::carmel_defaults(8, 12);
            TuneVerdict {
                m,
                n,
                k,
                mr,
                nr,
                mc,
                kc,
                nc,
                predicted_cycles: 0.0,
                predicted_gflops: 0.0,
                candidates_evaluated: 0,
            }
        } else {
            self.tuner.tune(m, n, k)?
        };
        let key: GroupKey = (!degenerate).then(|| verdict.blocking());
        // Held across a build, so a group is built exactly once; the
        // critical section only reads or appends, so a poisoned lock's
        // state is consistent.
        let mut drivers = self.drivers.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, driver)) = drivers.iter().find(|(group, _)| *group == key) {
            return Ok((verdict, Arc::clone(driver)));
        }
        let mut driver = BlisGemm::new(verdict.blocking()).with_threads(self.threads);
        if !degenerate {
            driver = driver.with_kernel(self.tuner.kernel_impl_for(&verdict)?);
        }
        let driver = Arc::new(driver);
        drivers.push((key, Arc::clone(&driver)));
        Ok((verdict, driver))
    }

    /// The drivers built so far, one per verdict group dispatched, in
    /// first-dispatch order — read-only access to what this executor keeps
    /// warm ([`BlisGemm::idle_runners`], [`BlisGemm::runners_built`]).
    pub fn drivers(&self) -> Vec<Arc<BlisGemm>> {
        let drivers = self.drivers.lock().unwrap_or_else(PoisonError::into_inner);
        drivers.iter().map(|(_, driver)| Arc::clone(driver)).collect()
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
        let (verdict, driver) = self.driver_for(m, n, k)?;
        let stats = driver.gemm(problem)?;
        Ok(TunedRun { verdict, stats })
    }
}

/// How a tuning failure reads to a caller of the GEMM contract: the
/// driver's own rejections are shape mismatches, everything else is the
/// `exo-tune` backend failing.
impl From<TuneError> for GemmError {
    fn from(e: TuneError) -> Self {
        match e {
            TuneError::Gemm(what) => GemmError::ShapeMismatch { what },
            e => GemmError::Backend { backend: "exo-tune".into(), message: e.to_string() },
        }
    }
}

impl GemmExecutor for TunedGemm {
    fn gemm(&self, problem: GemmProblem<'_>) -> Result<GemmStats, GemmError> {
        Ok(self.execute(problem)?.stats)
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
    fn a_verdict_group_has_one_driver_and_warm_calls_build_no_runner() {
        let tuned = TunedGemm::new();
        let built = || tuned.drivers().iter().map(|d| d.runners_built()).sum::<u64>();
        let (a, b, mut c, mut c_again) = matrices(45, 37, 29);
        let first = tuned.execute(GemmProblem::new(a.view(), b.view(), c.view_mut())).unwrap();
        assert_eq!((tuned.drivers().len(), built()), (1, 1));
        // The same shape through the other door: the group's driver and
        // its warm runner, nothing built, not a bit changed.
        let stats = tuned.gemm(GemmProblem::new(a.view(), b.view(), c_again.view_mut())).unwrap();
        assert_eq!((tuned.drivers().len(), built()), (1, 1));
        assert_eq!(c.data, c_again.data);
        assert_eq!(stats.kernel, first.stats.kernel);
        let (verdict, driver) = tuned.driver_for(45, 37, 29).unwrap();
        assert_eq!(verdict, first.verdict);
        assert!(Arc::ptr_eq(&driver, &tuned.drivers()[0]));
        assert_eq!(driver.blocking, verdict.blocking());
        assert_eq!(driver.idle_runners(), 1);
        // Nothing to tune: a group of its own, whatever its blocking says.
        let (degenerate, fallback) = tuned.driver_for(0, 5, 5).unwrap();
        assert_eq!(degenerate.candidates_evaluated, 0);
        assert!(!Arc::ptr_eq(&fallback, &driver));
        assert!(Arc::ptr_eq(&fallback, &tuned.driver_for(3, 4, 0).unwrap().1));
        assert_eq!((tuned.drivers().len(), tuned.registry().len()), (2, 1));
        // Another thread count is another set of drivers.
        let wide = tuned.with_threads(2);
        assert!(wide.drivers().is_empty());
        assert_eq!(wide.driver_for(45, 37, 29).unwrap().1.threads, 2);
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
