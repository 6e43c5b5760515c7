//! Promotion reaches state that outlives it. The native tier's first poll
//! of a kernel only enqueues its build, so an executor's first GEMM runs on
//! the simd chain; what it built then — the driver, its warm runner, the
//! runner's tier handle — is what every later GEMM on that executor runs
//! on. The handle must therefore follow the artifact when it lands, for
//! every door a problem can come through: `BlisGemm::gemm`,
//! `TunedGemm::execute`, `CachedTunedGemm::gemm_batch` and
//! `GemmService::submit`. `GemmStats::tier` says which tier ran, so this is
//! asserted, not timed.
//!
//! This file is one test in a process of its own: the AOT engine is
//! process-wide, and a kernel's first poll is only the first if no other
//! test has dispatched that tile. Each leg takes a shape whose verdict
//! tile no earlier leg has touched.

use std::sync::Arc;

use exo_gemm::exo_serve::{CachedTunedGemm, GemmBatch, GemmBatchExecutor, GemmJob, GemmService, OwnedMat};
use exo_gemm::exo_tune::TunedGemm;
use exo_gemm::gemm_blis::{exo_kernel, native_available, BlisGemm, ExecBackend};
use exo_gemm::ukernel_gen::GeneratedKernel;
use exo_gemm::{GemmExecutor, GemmProblem, GemmStats};

/// `A`, `B` and the initial `C` of an `m x n x k` problem, off the dyadic
/// grid so every rounding shows in the bits the tiers must agree on.
fn operands(m: usize, n: usize, k: usize) -> (OwnedMat, OwnedMat, OwnedMat) {
    (
        OwnedMat::from_fn(m, k, |i, j| ((i * 7 + j * 3 + 1) % 13) as f32 * 0.37 - 1.1),
        OwnedMat::from_fn(k, n, |i, j| ((i * 5 + j * 11 + 2) % 17) as f32 * 0.21 - 0.9),
        OwnedMat::from_fn(m, n, |i, j| ((i + 2 * j) % 7) as f32 * 0.3 - 1.0),
    )
}

fn bits(c: OwnedMat) -> Vec<u32> {
    c.into_data().into_iter().map(f32::to_bits).collect()
}

/// The drivers' books of an executor built on a `TunedGemm`.
fn runners_built(tuned: &TunedGemm) -> u64 {
    tuned.drivers().iter().map(|d| d.runners_built()).sum()
}

/// One leg: `run` the shape straight after construction, settle `kernel`'s
/// artifact, `run` it again on the same executor.
fn promotion_reaches(
    door: &str,
    kernel: &GeneratedKernel,
    mut run: impl FnMut() -> (Vec<u32>, GemmStats),
    built: impl Fn() -> u64,
) {
    let (cold_bits, cold) = run();
    let built_cold = built();
    assert!(built_cold > 0, "{door}: the first run must have built its runner");
    let settled = kernel.native_wait();
    let (warm_bits, warm) = run();
    assert_eq!(built(), built_cold, "{door}: the second run built a runner");
    assert_eq!(warm_bits, cold_bits, "{door}: native and simd are bit-identical");
    if !native_available() {
        println!("{door}: no C toolchain answered the probe, so nothing can promote: both runs stay on simd");
        assert_eq!((cold.tier, warm.tier), (Some(ExecBackend::Simd), Some(ExecBackend::Simd)), "{door}");
    } else {
        assert!(
            settled.is_some(),
            "{door}: a toolchain answered but the {} artifact did not build",
            cold.kernel
        );
        // The first run built its handle on the simd chain — a kernel's
        // first poll only enqueues its build — unless that background
        // build landed before the run's own re-resolve. Either way the
        // second run finds the artifact.
        println!("{door}: first run on {:?}, second on {:?}", cold.tier, warm.tier);
        assert_eq!(warm.tier, Some(ExecBackend::Native), "{door}: promotion must reach the warm runner");
    }
}

/// `GemmService` owns its executor; this hands it one the test can still
/// read the books of.
struct Shared(Arc<CachedTunedGemm>);

impl GemmBatchExecutor for Shared {
    fn gemm_batch(&self, batch: GemmBatch<'_>) -> exo_gemm::exo_serve::BatchReport {
        self.0.gemm_batch(batch)
    }
}

#[test]
fn promotion_reaches_every_executor_that_outlives_it() {
    // Planning never touches the AOT engine (`tests/tuning_side_effects.rs`),
    // and verdicts are deterministic per shape, so a scratch executor can
    // pick each leg a shape whose tile is still unpolled.
    let probe = TunedGemm::new();
    let mut polled: Vec<(usize, usize)> = Vec::new();
    let mut fresh_shape = || {
        // Four legs need four tiles; AVX-512's space has one tile more than
        // one vector tall, so its single-row tiles supply the rest.
        let candidates = [
            (45, 37, 29),
            (48, 48, 32),
            (30, 17, 23),
            (1, 64, 64),
            (3, 3, 3),
            (64, 1, 64),
            (96, 60, 33),
            (1, 48, 16),
        ];
        let (shape, tile) = candidates
            .into_iter()
            .map(|(m, n, k)| ((m, n, k), probe.plan(m, n, k).expect("candidate shape tunes")))
            .map(|(shape, verdict)| (shape, (verdict.mr, verdict.nr)))
            .find(|(_, tile)| !polled.contains(tile))
            .expect("a candidate shape whose tile no earlier leg has dispatched");
        polled.push(tile);
        shape
    };

    let (m, n, k) = fresh_shape();
    let (a, b, c0) = operands(m, n, k);
    let verdict = probe.plan(m, n, k).unwrap();
    let kernel = probe.tuner().kernel_for(&verdict).unwrap();
    let driver = BlisGemm::new(verdict.blocking()).with_kernel(exo_kernel(Arc::clone(&kernel)));
    let run = || {
        let mut c = c0.clone();
        let stats = driver.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut())).unwrap();
        (bits(c), stats)
    };
    promotion_reaches("BlisGemm::gemm", &kernel, run, || driver.runners_built());

    let (m, n, k) = fresh_shape();
    let (a, b, c0) = operands(m, n, k);
    let tuned = TunedGemm::new();
    let kernel = tuned.tuner().kernel_for(&tuned.plan(m, n, k).unwrap()).unwrap();
    let run = || {
        let mut c = c0.clone();
        let run = tuned.execute(GemmProblem::new(a.view(), b.view(), c.view_mut())).unwrap();
        (bits(c), run.stats)
    };
    promotion_reaches("TunedGemm::execute", &kernel, run, || runners_built(&tuned));

    let (m, n, k) = fresh_shape();
    let (a, b, c0) = operands(m, n, k);
    let executor = CachedTunedGemm::new(TunedGemm::new());
    let kernel = executor.tuned().tuner().kernel_for(&executor.tuned().plan(m, n, k).unwrap()).unwrap();
    let run = || {
        let mut c = c0.clone();
        let batch = vec![GemmProblem::new(a.view(), b.view(), c.view_mut())];
        let stats = executor.gemm_batch(batch).into_stats().unwrap().remove(0);
        (bits(c), stats)
    };
    promotion_reaches("CachedTunedGemm::gemm_batch", &kernel, run, || runners_built(executor.tuned()));

    let (m, n, k) = fresh_shape();
    let (a, b, c0) = operands(m, n, k);
    let executor = Arc::new(CachedTunedGemm::new(TunedGemm::new()));
    let kernel = executor.tuned().tuner().kernel_for(&executor.tuned().plan(m, n, k).unwrap()).unwrap();
    let service = GemmService::new(Shared(Arc::clone(&executor)));
    let run = || {
        let job = GemmJob::new(a.clone(), b.clone(), c0.clone());
        let done = service.submit(job).expect("accepting").wait().expect("service job");
        (bits(done.c), done.stats)
    };
    promotion_reaches("GemmService::submit", &kernel, run, || runners_built(executor.tuned()));
}
