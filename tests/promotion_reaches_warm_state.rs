//! Promotion reaches every executor, from its first GEMM on. A kernel's body is
//! compiled when the workspace builds, so resolving it is a table lookup
//! and a probe, settled when the first GEMM builds its runner: that GEMM
//! already runs native, through every door a problem can come through —
//! `BlisGemm::gemm`, `TunedGemm::execute`, `CachedTunedGemm::gemm_batch`
//! and `GemmService::submit` — and the warm runner it leaves behind keeps
//! running there. `GemmStats::tier` says which tier ran, so this is
//! asserted, not timed.
//!
//! This file is one test in a process of its own, so no other test has
//! resolved a tile before its first GEMM does.

use std::sync::Arc;

use exo_gemm::exo_serve::{CachedTunedGemm, GemmBatch, GemmBatchExecutor, GemmJob, GemmService, OwnedMat};
use exo_gemm::exo_tune::TunedGemm;
use exo_gemm::gemm_blis::{exo_kernel, native_available, BlisGemm, ExecBackend, NaiveGemm};
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

/// One door: `run` the shape straight after construction, then again on
/// the same executor. Both runs are on the native tier when the build
/// compiled bodies for the active ISA (on the simd chain when it did not),
/// the second builds no runner, and both give the `reference` bits.
fn first_gemm_runs_native(
    door: &str,
    kernel: &GeneratedKernel,
    mut run: impl FnMut() -> (Vec<u32>, GemmStats),
    built: impl Fn() -> u64,
    reference: Vec<u32>,
) {
    let (first_bits, first) = run();
    let built_first = built();
    assert!(built_first > 0, "{door}: the first run must have built its runner");
    let (warm_bits, warm) = run();
    assert_eq!(built(), built_first, "{door}: the second run built a runner");
    assert_eq!(first_bits, reference, "{door}: native and simd are bit-identical");
    assert_eq!(warm_bits, reference, "{door}: the warm runner too");
    let tier = if native_available() { ExecBackend::Native } else { ExecBackend::Simd };
    assert_eq!((first.tier, warm.tier), (Some(tier), Some(tier)), "{door}: {}", first.kernel);
    assert_eq!(kernel.native().is_some(), native_available(), "{door}: {}", first.kernel);
}

/// `GemmService` owns its executor; this hands it one the test can still
/// read the books of.
struct Shared(Arc<CachedTunedGemm>);

impl GemmBatchExecutor for Shared {
    fn gemm_batch(&self, batch: GemmBatch<'_>) -> exo_gemm::exo_serve::BatchReport {
        self.0.gemm_batch(batch)
    }
}

/// `C` of `(a, b, c0)` by `NaiveGemm`, which computes the engine's
/// arithmetic: every tier's bits.
fn reference_bits((a, b, c0): &(OwnedMat, OwnedMat, OwnedMat)) -> Vec<u32> {
    let mut c = c0.clone();
    NaiveGemm.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut())).unwrap();
    bits(c)
}

#[test]
fn promotion_reaches_every_executor_that_outlives_it() {
    let probe = TunedGemm::new();
    let kernel_for =
        |tuned: &TunedGemm, (m, n, k)| tuned.tuner().kernel_for(&tuned.plan(m, n, k).unwrap()).unwrap();

    let shape = (45, 37, 29);
    let ops = operands(shape.0, shape.1, shape.2);
    let kernel = kernel_for(&probe, shape);
    let reference = reference_bits(&ops);
    let driver = BlisGemm::new(probe.plan(shape.0, shape.1, shape.2).unwrap().blocking())
        .with_kernel(exo_kernel(Arc::clone(&kernel)));
    let run = || {
        let mut c = ops.2.clone();
        let stats = driver.gemm(GemmProblem::new(ops.0.view(), ops.1.view(), c.view_mut())).unwrap();
        (bits(c), stats)
    };
    first_gemm_runs_native("BlisGemm::gemm", &kernel, run, || driver.runners_built(), reference);

    let shape = (30, 17, 23);
    let ops = operands(shape.0, shape.1, shape.2);
    let tuned = TunedGemm::new();
    let kernel = kernel_for(&tuned, shape);
    let reference = reference_bits(&ops);
    let run = || {
        let mut c = ops.2.clone();
        let run = tuned.execute(GemmProblem::new(ops.0.view(), ops.1.view(), c.view_mut())).unwrap();
        (bits(c), run.stats)
    };
    first_gemm_runs_native("TunedGemm::execute", &kernel, run, || runners_built(&tuned), reference);

    let shape = (1, 64, 64);
    let ops = operands(shape.0, shape.1, shape.2);
    let executor = CachedTunedGemm::new(TunedGemm::new());
    let kernel = kernel_for(executor.tuned(), shape);
    let reference = reference_bits(&ops);
    let run = || {
        let mut c = ops.2.clone();
        let batch = vec![GemmProblem::new(ops.0.view(), ops.1.view(), c.view_mut())];
        let stats = executor.gemm_batch(batch).into_stats().unwrap().remove(0);
        (bits(c), stats)
    };
    first_gemm_runs_native(
        "CachedTunedGemm::gemm_batch",
        &kernel,
        run,
        || runners_built(executor.tuned()),
        reference,
    );

    let shape = (96, 60, 33);
    let ops = operands(shape.0, shape.1, shape.2);
    let executor = Arc::new(CachedTunedGemm::new(TunedGemm::new()));
    let kernel = kernel_for(executor.tuned(), shape);
    let reference = reference_bits(&ops);
    let service = GemmService::new(Shared(Arc::clone(&executor)));
    let run = || {
        let job = GemmJob::new(ops.0.clone(), ops.1.clone(), ops.2.clone());
        let done = service.submit(job).expect("accepting").wait().expect("service job");
        (bits(done.c), done.stats)
    };
    first_gemm_runs_native(
        "GemmService::submit",
        &kernel,
        run,
        || runners_built(executor.tuned()),
        reference,
    );
}
