//! Fault-injection stress suite for the `exo-serve` serving stack.
//!
//! Every test arms a deterministic [`FaultPlan`] (the same harness CI
//! drives through `EXO_FAULT`), hammers the service or the batch executor,
//! and asserts the fault-tolerance contract:
//!
//! * the service stays live — every handle resolves, nothing hangs;
//! * a fault is isolated to the job it hit — survivors are bit-identical
//!   to a sequential per-call run of the same executor, and degraded
//!   completions too: every tier a retry can land on computes
//!   `NaiveGemm`'s bits;
//! * the books balance: `jobs_submitted == jobs_completed + jobs_failed`.
//!
//! The shared driver runs on the native tier where the build compiled a
//! body, so a failed `beta = 0` entry retries once on the superword
//! interpreter; where it did not (a build with no C compiler), the jobs run
//! on the interpreter, the floor, and the same failure is final. Every
//! test derives the retries it expects from the tier that ran.
//!
//! Fault countdowns are process-global, so the tests serialise on one
//! mutex and disarm on entry and exit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use exo_gemm::exo_serve::fault::{self, FaultPlan};
use exo_gemm::exo_serve::{
    BatchReport, CompletedJob, EntryReport, GemmBatch, GemmBatchExecutor, GemmJob, GemmService, JobHandle,
    OwnedMat, ServiceConfig, ServiceHealth, ServiceStats, SubmitErrorReason,
};
use exo_gemm::gemm_blis::{
    exo_kernel, exo_kernel_superword, BlisGemm, BlockingParams, ExecBackend, NaiveGemm,
};
use exo_gemm::ukernel_gen::GeneratedKernel;
use exo_gemm::{GemmError, GemmExecutor, GemmProblem};

/// Fault countdowns are process-global: one experiment at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The generated Neon 8x12, generated once per test binary, with its
/// native tier settled as it is generated: the probe of its body runs
/// before any test can arm an `aot-wrong-result` countdown, so it never
/// spends one.
fn kernel_8x12() -> Arc<GeneratedKernel> {
    static KERNEL: OnceLock<Arc<GeneratedKernel>> = OnceLock::new();
    Arc::clone(KERNEL.get_or_init(|| {
        let kernel = exo_gemm::ukernel_gen::MicroKernelGenerator::new(exo_gemm::exo_isa::neon_f32())
            .generate(8, 12)
            .expect("8x12 generates");
        kernel.native();
        Arc::new(kernel)
    }))
}

/// The shared driver: the generated 8x12 on the default native pin.
fn driver() -> BlisGemm {
    BlisGemm::new(BlockingParams::carmel_defaults(8, 12)).with_kernel(exo_kernel(kernel_8x12()))
}

/// Whether a failed `beta = 0` entry of [`driver`] is retried: only when
/// its jobs run on the native tier, the one rung with a rung below it.
fn retried() -> bool {
    driver().kernel().dispatcher().tier().degraded().is_some()
}

fn make_job(m: usize, n: usize, k: usize, seed: usize, beta: f32) -> GemmJob {
    let a = OwnedMat::from_fn(m, k, move |i, j| ((i * 7 + j * 3 + seed) % 13) as f32 * 0.25 - 1.0);
    let b = OwnedMat::from_fn(k, n, move |i, j| ((i * 5 + j * 11 + seed) % 17) as f32 * 0.125 - 1.0);
    let c = OwnedMat::from_fn(m, n, move |i, j| ((i + 2 * j + seed) % 7) as f32 * 0.5 - 1.0);
    GemmJob::new(a, b, c).beta(beta)
}

/// The bit-identity baseline: the same job through `NaiveGemm`, whose bits
/// every tier and driver computes — a clean completion's and a degraded
/// one's alike.
fn reference_c(m: usize, n: usize, k: usize, seed: usize, beta: f32) -> OwnedMat {
    let mut job = make_job(m, n, k, seed, beta);
    NaiveGemm.gemm(job.problem()).expect("reference gemm");
    job.into_c()
}

fn assert_bits(got: &OwnedMat, want: &OwnedMat, who: &str) {
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            assert_eq!(
                got.get(i, j).to_bits(),
                want.get(i, j).to_bits(),
                "{who}: ({i},{j}) diverged from the sequential per-call run"
            );
        }
    }
}

fn wait_or_hang(handle: &JobHandle) -> Result<CompletedJob, GemmError> {
    handle
        .wait_timeout(Duration::from_secs(120))
        .expect("a job handle hung: the service must always resolve handles")
}

/// The headline chaos run: every executable fault class armed at once,
/// four concurrent submitters, and the full contract checked afterwards.
/// `beta = 0` everywhere, so executional failures are eligible for the
/// tier-down retry; jobs killed at shard level may still fail — but only
/// with `JobPanicked`/`Kernel`, and only they.
#[test]
fn armed_chaos_run_stays_live_and_survivors_stay_bit_identical() {
    let _guard = serial();
    fault::disarm();
    const CALLERS: usize = 4;
    const JOBS: usize = 12;
    // Three recurring shapes so batch groups grow past one entry and the
    // pool-level fault classes see sharded work.
    let shape = |j: usize| [(24, 20, 16), (16, 16, 16), (33, 9, 21)][j % 3];
    let refs: Vec<Vec<OwnedMat>> = (0..CALLERS)
        .map(|caller| {
            (0..JOBS)
                .map(|j| {
                    let (m, n, k) = shape(j);
                    reference_c(m, n, k, caller * JOBS + j, 0.0)
                })
                .collect()
        })
        .collect();

    let service = GemmService::with_config(driver(), ServiceConfig { queue_capacity: 16, max_batch: 8 });
    FaultPlan::new().pool_panic(7).worker_death(3).entry_panic(5).slow(9, 5).decline(13).arm();

    let outcomes: Vec<Vec<Result<CompletedJob, GemmError>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|caller| {
                let service = &service;
                scope.spawn(move || {
                    let submitted: Vec<JobHandle> = (0..JOBS)
                        .map(|j| {
                            let (m, n, k) = shape(j);
                            service
                                .submit(make_job(m, n, k, caller * JOBS + j, 0.0))
                                .expect("a live service accepts submissions")
                        })
                        .collect();
                    submitted.iter().map(wait_or_hang).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submitter thread")).collect()
    });
    fault::disarm();

    for (caller, (results, wants)) in outcomes.iter().zip(&refs).enumerate() {
        for (j, (outcome, want)) in results.iter().zip(wants).enumerate() {
            let who = format!("caller {caller} job {j}");
            match outcome {
                Ok(done) if done.stats.degraded => assert_bits(&done.c, want, &who),
                Ok(done) => assert_bits(&done.c, want, &who),
                Err(GemmError::JobPanicked { .. }) | Err(GemmError::Kernel { .. }) => {}
                Err(other) => panic!("{who}: unexpected failure class {other:?}"),
            }
        }
    }

    let stats = service.stats();
    let total = (CALLERS * JOBS) as u64;
    assert_eq!(stats.jobs_submitted, total);
    assert_eq!(
        stats.jobs_completed + stats.jobs_failed,
        total,
        "every submitted job must be accounted for: {stats}"
    );
    assert!(stats.panics_caught >= 1, "the armed entry-panic must have been caught: {stats}");
    if retried() {
        assert!(stats.retries >= 1, "beta = 0 failures must have been retried: {stats}");
        assert!(stats.degraded_completions >= 1, "the declined entry must complete degraded: {stats}");
    } else {
        // On the superword interpreter, the floor, a failure is final.
        assert_eq!((stats.retries, stats.degraded_completions), (0, 0), "{stats}");
        assert!(stats.jobs_failed >= 1, "the declined entry must fail: {stats}");
    }
    assert_eq!(stats.deadline_expired, 0);

    // Disarmed, the service keeps serving cleanly.
    let epilogue =
        service.submit(make_job(16, 16, 16, 999, 0.0)).expect("service accepts after the chaos run");
    let done = wait_or_hang(&epilogue).expect("clean job after disarm");
    assert_eq!(done.stats.flop_count, 2 * 16 * 16 * 16);
}

/// The acceptance criterion for isolation: a panic inside one batch entry
/// fails only that job. `beta != 0` disables the tier-down retry (C may
/// already be partially written), so the fault surfaces as `JobPanicked`.
#[test]
fn an_entry_panic_fails_only_its_own_job() {
    let _guard = serial();
    fault::disarm();
    let driver = driver();
    const N: usize = 6;
    let refs: Vec<OwnedMat> = (0..N).map(|s| reference_c(24, 20, 16, s, 1.0)).collect();
    let mut jobs: Vec<GemmJob> = (0..N).map(|s| make_job(24, 20, 16, s, 1.0)).collect();

    FaultPlan::new().entry_panic(3).arm();
    let mut batch = GemmBatch::new();
    for job in &mut jobs {
        batch.push(job.problem());
    }
    let report = driver.gemm_batch(batch);
    fault::disarm();

    assert_eq!(report.panics_caught, 1);
    assert_eq!(report.retries, 0, "beta != 0 must never retry: C was partially written");
    let mut panicked = 0;
    for (idx, (job, outcome)) in jobs.into_iter().zip(&report.outcomes).enumerate() {
        match outcome {
            Ok(stats) => {
                assert!(stats.batched);
                assert_bits(&job.into_c(), &refs[idx], &format!("entry {idx}"));
            }
            Err(GemmError::JobPanicked { message }) => {
                assert!(message.contains("injected fault"), "unexpected payload: {message}");
                panicked += 1;
            }
            Err(other) => panic!("entry {idx}: unexpected error {other:?}"),
        }
    }
    assert_eq!(panicked, 1, "exactly the faulted entry fails; its neighbours complete");
    // The runner whose pass unwound is not back with the driver: its shard
    // went on with another one, so one more was built than is held.
    assert_eq!(report.runners_built, driver.runners_built());
    assert_eq!(driver.runners_built(), driver.idle_runners() as u64 + 1);
}

/// Polls until the service has started its first pass (a pass is counted
/// when it is taken off the queue, before it runs).
fn await_first_pass(service: &GemmService) {
    let by = Instant::now() + Duration::from_secs(5);
    while service.stats().batches == 0 {
        assert!(Instant::now() < by, "nobody took the first job");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A slow pass holds the queue; jobs whose deadline expires while they
/// wait behind it resolve with `DeadlineExceeded` instead of executing
/// stale work, while the slow job itself still completes bit-identically
/// (the fault only sleeps). The slow job is submitted from a helper thread:
/// the submitter that finds the queue idle runs the pass, so it is that
/// thread which stalls, inside `submit`.
#[test]
fn slow_batches_expire_queued_deadlines() {
    let _guard = serial();
    fault::disarm();
    let want = reference_c(16, 16, 16, 1, 0.0);
    let service = GemmService::with_config(driver(), ServiceConfig { queue_capacity: 8, max_batch: 4 });
    FaultPlan::new().slow(1, 120).arm();
    let (slow, expired): (JobHandle, Vec<JobHandle>) = std::thread::scope(|scope| {
        let slow = scope.spawn(|| service.submit(make_job(16, 16, 16, 1, 0.0)).expect("accepting"));
        await_first_pass(&service);
        // Queued behind the running pass with a budget well inside the stall.
        let expired = (2..4)
            .map(|s| {
                let job = make_job(16, 16, 16, s, 0.0).with_deadline(Duration::from_millis(20));
                service.submit(job).expect("accepting")
            })
            .collect();
        (slow.join().expect("the stalled submitter"), expired)
    });

    let done = wait_or_hang(&slow).expect("the slow job still completes");
    assert_bits(&done.c, &want, "slow job");
    for handle in &expired {
        match wait_or_hang(handle) {
            Err(GemmError::DeadlineExceeded { waited_ms }) => {
                assert!(waited_ms >= 20, "waited {waited_ms} ms")
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    fault::disarm();
    let stats = service.stats();
    assert_eq!(stats.deadline_expired, 2);
    assert_eq!(stats.jobs_failed, 2);
    assert_eq!(stats.jobs_completed, 1);
}

/// Every bit a job carries: its three operands as stored, then the scales.
fn job_bits(job: &mut GemmJob) -> Vec<u32> {
    let problem = job.problem();
    let mut bits = Vec::new();
    for mat in [problem.a, problem.b, problem.c.rb()] {
        for i in 0..mat.rows() {
            bits.extend((0..mat.cols()).map(|j| mat.get(i, j).to_bits()));
        }
    }
    bits.extend([problem.alpha.to_bits(), problem.beta.to_bits()]);
    bits
}

/// Backpressure answers on time. One caller is stalled inside a pass (it
/// found the queue idle, so it runs the batch, inside `submit`), the queue
/// is full and two more callers are parked waiting for room — one in
/// `submit`, one in `submit_timeout` with a timeout too large to be a point
/// in time, which must park like `submit`, not panic: `try_submit` must
/// still refuse at once and hand the job back untouched, `submit_timeout`
/// must give up at its bound, and when the stall ends everything that was
/// accepted — the parked jobs included — completes bit-identically, with
/// the books balanced and the recorded queue depth within the queue's
/// bound.
#[test]
fn a_full_queue_rejects_on_time_while_a_blocking_submit_is_parked() {
    let _guard = serial();
    fault::disarm();
    let job = |seed: usize| make_job(16, 16, 16, seed, 0.5);
    let wants: Vec<OwnedMat> = (0..5).map(|seed| reference_c(16, 16, 16, seed, 0.5)).collect();
    let service = GemmService::with_config(driver(), ServiceConfig { queue_capacity: 2, max_batch: 2 });
    FaultPlan::new().slow(1, 600).arm();

    let accepted: Vec<JobHandle> = std::thread::scope(|scope| {
        let service = &service;
        // Job 0 stalls its submitter inside the first pass. Once that pass
        // is taken the queue is empty again, and jobs 1 and 2 fill it.
        let stalled = scope.spawn(move || service.submit(job(0)).expect("accepting"));
        await_first_pass(service);
        let queued: Vec<JobHandle> =
            (1..3).map(|seed| service.try_submit(job(seed)).expect("room for two")).collect();

        let (entering, entered) = mpsc::channel();
        let parked: Vec<_> = [None, Some(Duration::MAX)]
            .into_iter()
            .zip(3..)
            .map(|(timeout, seed)| {
                let entering = entering.clone();
                scope.spawn(move || {
                    entering.send(()).expect("the test thread is listening");
                    match timeout {
                        None => service.submit(job(seed)),
                        Some(timeout) => service.submit_timeout(job(seed), timeout),
                    }
                    .expect("accepted once the queue drains")
                })
            })
            .collect();
        // Every assertion below holds wherever the parked callers are; the
        // pause only lets them reach their wait, so that a `submit` that
        // waits with the queue's lock held is caught.
        for _ in &parked {
            entered.recv().expect("a parked caller started");
        }
        std::thread::sleep(Duration::from_millis(20));

        let asked = Instant::now();
        let refused = service.try_submit(job(5)).expect_err("the queue is full");
        let took = asked.elapsed();
        assert_eq!(refused.reason(), SubmitErrorReason::QueueFull);
        assert!(took < Duration::from_millis(50), "try_submit waited {took:?} behind a parked submit");
        assert_eq!(
            job_bits(&mut refused.into_job()),
            job_bits(&mut job(5)),
            "the job comes back as submitted"
        );

        let asked = Instant::now();
        let refused = service.submit_timeout(job(6), Duration::from_millis(5)).expect_err("still full");
        let took = asked.elapsed();
        assert_eq!(refused.reason(), SubmitErrorReason::Timeout);
        assert!(took < Duration::from_millis(100), "submit_timeout(5 ms) took {took:?}");

        // The stall ends, the queue drains, and the parked callers get in.
        let stalled = stalled.join().expect("the stalled submitter");
        let parked = parked.into_iter().map(|caller| caller.join().expect("parked caller"));
        [stalled].into_iter().chain(queued).chain(parked).collect()
    });
    for (seed, (handle, want)) in accepted.iter().zip(&wants).enumerate() {
        let done = wait_or_hang(handle).expect("every accepted job completes");
        assert_bits(&done.c, want, &format!("job {seed}"));
    }
    fault::disarm();

    let stats = service.stats();
    assert_eq!((stats.jobs_submitted, stats.jobs_completed, stats.jobs_failed), (5, 5, 0), "{stats}");
    assert!(stats.queue_highwater <= stats.queue_capacity, "{stats}");
}

/// A simulated backend decline on a `beta = 0` job retries once on the
/// next tier down and completes, stamped `degraded`, with the service
/// health raised to `Degraded` (but still serving). On the superword
/// interpreter, the floor, there is no tier down: the job fails with the
/// kernel error, unretried.
#[test]
fn a_declined_entry_retries_one_tier_down_and_completes() {
    let _guard = serial();
    fault::disarm();
    let want = reference_c(24, 24, 24, 9, 0.0);
    let service = GemmService::new(driver());
    FaultPlan::new().decline(1).arm();
    let handle = service.submit(make_job(24, 24, 24, 9, 0.0)).expect("accepting");
    let outcome = wait_or_hang(&handle);
    fault::disarm();

    let stats = service.stats();
    if retried() {
        let done = outcome.expect("declined job must complete via the fallback tier");
        assert!(done.stats.degraded, "the completion must be stamped as degraded");
        assert_bits(&done.c, &want, "degraded completion");
        assert_eq!((stats.retries, stats.degraded_completions, stats.jobs_completed), (1, 1, 1), "{stats}");
        assert_eq!(service.health(), ServiceHealth::Degraded);
    } else {
        assert!(
            matches!(outcome, Err(GemmError::Kernel { .. })),
            "a decline on the floor is final: {outcome:?}"
        );
        assert_eq!((stats.retries, stats.degraded_completions, stats.jobs_failed), (0, 0, 1), "{stats}");
    }

    // Degraded is not dead: the next clean job serves normally.
    let clean = service.submit(make_job(16, 16, 16, 10, 0.0)).expect("degraded still accepts");
    assert!(wait_or_hang(&clean).is_ok());
}

/// The retry degrades from the tier that *ran*, not the tier that was asked
/// for. A `neon_f16` 8x8 tile can never promote on any host — its rounding
/// steps are outside what `emit_superword_c` lowers — so under the default
/// `Native` pin it serves on the superword interpreter for good: the clean
/// entry says `Superword`, and the declined one is on the floor — not
/// re-run on the interpreter and stamped degraded, but failed with the
/// kernel error, its `C` as it was. (Every operand is a small dyadic, so
/// the f16 sums are exact on every tier.)
#[test]
fn a_retry_degrades_from_the_tier_that_ran() {
    let _guard = serial();
    fault::disarm();
    let kernel = Arc::new(
        exo_gemm::ukernel_gen::MicroKernelGenerator::new(exo_gemm::exo_isa::neon_f16())
            .generate(8, 8)
            .expect("the f16 8x8 tile generates"),
    );
    assert!(kernel.native().is_none(), "an f16 tile has no C lowering, so no body");
    let want = reference_c(24, 24, 24, 9, 0.0);
    let untouched = make_job(24, 24, 24, 9, 0.0).into_c();
    let imp = exo_kernel(kernel);
    let who = imp.name.clone();
    let driver = BlisGemm::new(BlockingParams::carmel_defaults(8, 8)).with_kernel(imp);
    let mut jobs = [make_job(24, 24, 24, 9, 0.0), make_job(24, 24, 24, 9, 0.0)];
    FaultPlan::new().decline(1).arm();
    let report = driver.gemm_batch(jobs.iter_mut().map(GemmJob::problem).collect());
    fault::disarm();

    assert_eq!((report.retries, report.degraded_completions), (0, 0), "{who}");
    let (mut tiers, mut declined) = (Vec::new(), 0);
    for (job, outcome) in jobs.into_iter().zip(&report.outcomes) {
        let c = job.into_c();
        match outcome {
            Ok(stats) => {
                assert_bits(&c, &want, &who);
                tiers.push((stats.degraded, stats.tier));
            }
            Err(GemmError::Kernel { .. }) => {
                declined += 1;
                assert_bits(&c, &untouched, &format!("{who}: the declined entry's C"))
            }
            Err(other) => panic!("{who}: unexpected failure {other:?}"),
        }
    }
    assert_eq!(tiers, [(false, Some(ExecBackend::Superword))], "{who}: (degraded, tier) of the clean entry");
    assert_eq!(declined, 1, "{who}: the declined entry fails on the floor");
}

/// A default driver — the generated 8x12 on the native pin — is an entry
/// like any other: a declined `beta = 0` entry on a native body retries
/// once, on the superword interpreter, and completes stamped `degraded`,
/// with the bits of its clean neighbour (both tiers compute the same bits),
/// under the name of the tier it ran on. Without a body the entries run on
/// the interpreter, the floor: the declined one fails with the kernel
/// error, unretried, its `C` as it was.
#[test]
fn a_default_drivers_declined_entry_retries_only_from_the_native_tier() {
    let _guard = serial();
    fault::disarm();
    let driver = BlisGemm::new(BlockingParams::carmel_defaults(8, 12));
    let native = driver.kernel().generated.native().is_some();
    let ran = if native { ExecBackend::Native } else { ExecBackend::Superword };
    let mut want = make_job(24, 20, 16, 3, 0.0);
    driver.gemm(want.problem()).expect("clean default run");
    let want = want.into_c();
    let untouched = make_job(24, 20, 16, 3, 0.0).into_c();
    let mut jobs = [make_job(24, 20, 16, 3, 0.0), make_job(24, 20, 16, 3, 0.0)];
    FaultPlan::new().decline(1).arm();
    let report = driver.gemm_batch(jobs.iter_mut().map(GemmJob::problem).collect());
    fault::disarm();

    let retries = u64::from(native);
    assert_eq!((report.retries, report.degraded_completions), (retries, retries));
    let mut tiers = Vec::new();
    for (job, outcome) in jobs.into_iter().zip(&report.outcomes) {
        let c = job.into_c();
        match outcome {
            Ok(stats) => {
                tiers.push((stats.degraded, stats.tier, stats.kernel.to_string()));
                assert_bits(&c, &want, &format!("degraded {}", stats.degraded));
            }
            Err(GemmError::Kernel { .. }) if !native => assert_bits(&c, &untouched, "the declined entry's C"),
            Err(other) => panic!("unexpected failure {other:?}"),
        }
    }
    tiers.sort_by_key(|&(degraded, ..)| degraded);
    let clean = (false, Some(ran), "EXO 8x12".to_string());
    let retry = (true, Some(ExecBackend::Superword), "EXO 8x12 (superword)".to_string());
    let expected: Vec<_> = [clean].into_iter().chain(native.then_some(retry)).collect();
    assert_eq!(tiers, expected);
}

/// Activations for `entries` GEMMs against one borrowed `k x n` weight
/// matrix: `(A_e, C_e)` pairs, the `C`s poisoned when `beta == 0` must never
/// read them.
fn shared_weight_operands(
    entries: usize,
    (m, n, k): (usize, usize, usize),
    beta: f32,
) -> (OwnedMat, Vec<(OwnedMat, OwnedMat)>) {
    let weights = OwnedMat::from_fn(k, n, |i, j| ((i * 5 + j * 11 + 4) % 17) as f32 * 0.125 - 1.0);
    let pairs = (0..entries)
        .map(|e| {
            let a = OwnedMat::from_fn(m, k, move |i, j| ((i * 7 + j * 3 + e) % 13) as f32 * 0.25 - 1.0);
            let c = OwnedMat::from_fn(m, n, move |i, j| {
                if beta == 0.0 {
                    f32::NAN
                } else {
                    ((i + 2 * j + e) % 7) as f32 * 0.5 - 1.0
                }
            });
            (a, c)
        })
        .collect();
    (weights, pairs)
}

/// One batch of every `(A_e, C_e)` against the borrowed `weights`.
fn shared_weight_batch<'a>(
    weights: &'a OwnedMat,
    pairs: &'a mut [(OwnedMat, OwnedMat)],
    beta: f32,
) -> GemmBatch<'a> {
    pairs
        .iter_mut()
        .map(|(a, c)| exo_gemm::GemmProblem::new(a.view(), weights.view(), c.view_mut()).beta(beta))
        .collect()
}

/// Entry-level faults on entries riding a shared `B` image resolve exactly
/// as they do on entries that pack for themselves: with `beta == 0` on the
/// native tier the panicked and the declined entry each retry once, one
/// tier down (the retry packs its own `B`), and complete degraded; with
/// `beta != 0`, or on the superword interpreter, the floor, neither
/// retries and each fails alone. Their neighbours — on the same
/// image — complete bit-identical to the clean per-call run either way.
#[test]
fn entry_faults_on_a_shared_b_image_stay_with_their_entry() {
    let _guard = serial();
    fault::disarm();
    let driver = driver();
    const N: usize = 6;
    let shape = (24, 40, 48);
    for beta in [0.0f32, 1.0] {
        let (weights, mut pairs) = shared_weight_operands(N, shape, beta);
        let refs: Vec<OwnedMat> = pairs
            .iter()
            .map(|(a, c)| {
                let mut c = c.clone();
                driver
                    .gemm(exo_gemm::GemmProblem::new(a.view(), weights.view(), c.view_mut()).beta(beta))
                    .expect("reference gemm");
                c
            })
            .collect();

        FaultPlan::new().entry_panic(3).decline(4).arm();
        let report = driver.gemm_batch(shared_weight_batch(&weights, &mut pairs, beta));
        fault::disarm();

        assert_eq!((report.b_images_packed, report.entries_on_shared_b), (1, N as u64), "beta {beta}");
        assert_eq!(report.panics_caught, 1, "beta {beta}");
        let retried = if beta == 0.0 && retried() { 2 } else { 0 };
        assert_eq!((report.retries, report.degraded_completions), (retried, retried), "beta {beta}");
        let (mut degraded, mut panicked, mut declined) = (0, 0, 0);
        for (idx, ((_, c), outcome)) in pairs.iter().zip(&report.outcomes).enumerate() {
            let who = format!("beta {beta}, entry {idx}");
            match outcome {
                Ok(stats) if stats.degraded => {
                    degraded += 1;
                    assert_bits(c, &refs[idx], &who);
                }
                Ok(_) => assert_bits(c, &refs[idx], &who),
                Err(GemmError::JobPanicked { .. }) => panicked += 1,
                Err(GemmError::Kernel { .. }) => declined += 1,
                Err(other) => panic!("{who}: unexpected error {other:?}"),
            }
        }
        let want = if retried > 0 { (2, 0, 0) } else { (0, 1, 1) };
        assert_eq!((degraded, panicked, declined), want, "beta {beta}: (degraded, panicked, declined)");
    }
}

/// One batch of every `(A_e, C_e)` of `pristine` against `weights` on
/// `driver`, from a fresh copy, and what it gave back.
fn stacked_batch(
    driver: &BlisGemm,
    weights: &OwnedMat,
    pristine: &[(OwnedMat, OwnedMat)],
    beta: f32,
) -> (BatchReport, Vec<OwnedMat>) {
    let mut pairs = pristine.to_vec();
    let report = driver.gemm_batch(shared_weight_batch(weights, &mut pairs, beta));
    (report, pairs.into_iter().map(|(_, c)| c).collect())
}

/// Every entry fault class fires once per *entry* of a stacked pass: armed
/// for the batch's `N`th entry it fires in that batch, on exactly one
/// entry, which leaves the stack and resolves alone (`beta == 0`: one retry
/// one tier down, completed degraded — or, on the superword interpreter,
/// the floor, a failure) while the rest run stacked and
/// bit-identical to the clean run; armed for the `N + 1`th, it spares this
/// batch and fires on the first entry of the next. The slow class only
/// delays its batch.
#[test]
fn entry_faults_fire_once_per_entry_of_a_stacked_pass() {
    let _guard = serial();
    fault::disarm();
    let driver = driver();
    const N: usize = 8;
    let (weights, pristine) = shared_weight_operands(N, (24, 40, 48), 0.0);
    let (clean, refs) = stacked_batch(&driver, &weights, &pristine, 0.0);
    assert!(clean.outcomes.iter().all(Result::is_ok) && clean.stacked_passes >= 1, "a clean stacked batch");
    let retry = u64::from(retried());
    let check = |(report, cs): &(BatchReport, Vec<OwnedMat>), faulted: u64, who: &str| {
        assert_eq!(report.len(), N, "{who}: one outcome per entry");
        let retries = faulted * retry;
        assert_eq!((report.retries, report.degraded_completions), (retries, retries), "{who}");
        assert!(report.stacked_passes >= 1, "{who}: the clean entries still stack");
        let mut failed = 0;
        for (e, (outcome, c)) in report.outcomes.iter().zip(cs).enumerate() {
            match outcome {
                Ok(_) => assert_bits(c, &refs[e], &format!("{who}, entry {e}")),
                Err(GemmError::Kernel { .. } | GemmError::JobPanicked { .. }) if retry == 0 => failed += 1,
                Err(other) => panic!("{who}, entry {e}: {other:?}"),
            }
        }
        assert_eq!(failed, faulted - retries, "{who}: a faulted entry on the floor fails alone");
    };
    /// A class, its plan armed for the `nth` entry, and the panics it costs.
    type Class = (&'static str, fn(u64) -> FaultPlan, u64);
    let classes: [Class; 2] = [
        ("decline", |nth| FaultPlan::new().decline(nth), 0),
        ("entry-panic", |nth| FaultPlan::new().entry_panic(nth), 1),
    ];
    for (class, plan, panics) in classes {
        plan(N as u64).arm();
        let hit = stacked_batch(&driver, &weights, &pristine, 0.0);
        fault::disarm();
        check(&hit, 1, &format!("{class}@{N}"));
        assert_eq!(hit.0.panics_caught, panics, "{class}@{N}");

        plan(N as u64 + 1).arm();
        let spared = stacked_batch(&driver, &weights, &pristine, 0.0);
        let next = stacked_batch(&driver, &weights, &pristine, 0.0);
        fault::disarm();
        check(&spared, 0, &format!("{class}@{}, its first batch", N + 1));
        check(&next, 1, &format!("{class}@{}, its second batch", N + 1));
        assert_eq!((spared.0.panics_caught, next.0.panics_caught), (0, panics), "{class}@{}", N + 1);
    }
    FaultPlan::new().slow(N as u64, 60).arm();
    let started = Instant::now();
    let slowed = stacked_batch(&driver, &weights, &pristine, 0.0);
    let took = started.elapsed();
    fault::disarm();
    check(&slowed, 0, "slow");
    assert!(took >= Duration::from_millis(60), "slow@{N} fired in its batch: {took:?}");
}

/// A stacked pass that fails fails every entry in it, and each resolves
/// exactly once, one by one: with `beta == 0` on the native tier each is
/// retried one tier down on its own, otherwise each gets the pass's typed
/// error. The kernel here claims four rows for the generated 8x12, so
/// every call of it — the stacked pass's and each retry's — fails the tier
/// handle's length check: a kernel error on the first tile, before
/// anything is written back.
#[test]
fn a_failed_stacked_pass_resolves_each_entry_once() {
    let _guard = serial();
    fault::disarm();
    let mut short_rows = exo_kernel(kernel_8x12());
    short_rows.mr = 4;
    let driver = BlisGemm::new(BlockingParams::carmel_defaults(4, 12)).with_kernel(short_rows);
    const N: usize = 6;
    for beta in [0.0f32, 1.0] {
        let (weights, pristine) = shared_weight_operands(N, (24, 40, 48), beta);
        let (report, cs) = stacked_batch(&driver, &weights, &pristine, beta);
        let retried = if beta == 0.0 && retried() { N as u64 } else { 0 };
        assert_eq!(report.len(), N, "beta {beta}: one outcome per entry");
        assert!(report.stacked_passes >= 1, "beta {beta}: the entries ran stacked");
        assert_eq!((report.retries, report.degraded_completions), (retried, 0), "beta {beta}");
        for (e, (outcome, c)) in report.outcomes.iter().zip(&cs).enumerate() {
            assert!(matches!(outcome, Err(GemmError::Kernel { .. })), "beta {beta}, entry {e}: {outcome:?}");
            if beta != 0.0 {
                assert_bits(c, &pristine[e].1, &format!("beta {beta}, entry {e}: C as it was"));
            }
        }
    }
}

/// A stacked pass that unwinds: a group of two entries is shorter than a
/// pool of three or more workers, so it runs as one stacked pass under
/// the driver's threaded partition of `C`, and a panicking pool job takes
/// the pass down with it. The panic is contained, costs the runner, and
/// with `beta == 0` on the native tier each entry is retried one tier down
/// on its own and completes; otherwise each fails `JobPanicked`. (On fewer
/// workers the pair is two shards of one, no pass is stacked, and this
/// asserts only that the batch is whole.)
#[test]
fn an_unwound_stacked_pass_retries_its_entries_one_by_one() {
    let _guard = serial();
    fault::disarm();
    let workers = exo_gemm::exo_serve::ThreadPool::global().workers();
    let driver = BlisGemm::new(BlockingParams { mc: 32, kc: 32, nc: 48, mr: 8, nr: 12 })
        .with_kernel(exo_kernel(kernel_8x12()))
        .with_threads(0);
    for beta in [0.0f32, 1.0] {
        let (weights, pristine) = shared_weight_operands(2, (96, 40, 48), beta);
        let (clean, refs) = stacked_batch(&driver, &weights, &pristine, beta);
        assert!(clean.outcomes.iter().all(Result::is_ok), "beta {beta}: the clean pair");
        if workers < 3 {
            assert_eq!(clean.stacked_passes, u64::from(workers == 1), "beta {beta} on {workers} workers");
            continue;
        }
        assert_eq!(clean.stacked_passes, 1, "beta {beta}: the pair is one stacked pass");
        let built = driver.runners_built();
        FaultPlan::new().pool_panic(1).arm();
        let (hit, cs) = stacked_batch(&driver, &weights, &pristine, beta);
        fault::disarm();
        assert_eq!((hit.stacked_passes, hit.panics_caught), (1, 1), "beta {beta}");
        assert_eq!(driver.runners_built() - built, 1, "beta {beta}: the unwound pass cost its runner");
        let retried = if beta == 0.0 && retried() { 2 } else { 0 };
        assert_eq!((hit.retries, hit.degraded_completions), (retried, retried), "beta {beta}");
        for (e, (outcome, c)) in hit.outcomes.iter().zip(&cs).enumerate() {
            let who = format!("beta {beta}, entry {e}");
            match outcome {
                Ok(stats) if retried > 0 && stats.degraded => assert_bits(c, &refs[e], &who),
                Err(GemmError::JobPanicked { message }) if retried == 0 => {
                    assert!(message.contains("injected fault"), "{who}: {message}")
                }
                other => panic!("{who}: {other:?}"),
            }
        }
    }
}

/// A service that holds a layer's weights: every job it runs is multiplied
/// by the resident `weights` (its own `B` only states the shape), so the
/// jobs of a pass share one `B`, and a pass of several runs stacked. Its
/// first pass waits at a gate until the test has queued the rest behind
/// it.
struct Resident {
    inner: BlisGemm,
    weights: OwnedMat,
    hold: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    stacked_passes: Arc<AtomicU64>,
}

impl Resident {
    fn pass_the_gate(&self) {
        if let Some((inside, release)) = self.hold.lock().unwrap().take() {
            inside.send(()).expect("the test is listening");
            release.recv().expect("the test opens the gate");
        }
    }

    fn on_weights<'x>(&'x self, problem: GemmProblem<'x>) -> GemmProblem<'x> {
        GemmProblem { b: self.weights.view(), ..problem }
    }
}

impl GemmBatchExecutor for Resident {
    fn gemm_batch(&self, batch: GemmBatch<'_>) -> BatchReport {
        self.pass_the_gate();
        let report = self.inner.gemm_batch(batch.into_iter().map(|p| self.on_weights(p)).collect());
        self.stacked_passes.fetch_add(report.stacked_passes, Ordering::Relaxed);
        report
    }

    fn gemm_one(&self, problem: GemmProblem<'_>) -> EntryReport {
        self.pass_the_gate();
        self.inner.gemm_one(self.on_weights(problem))
    }
}

/// Under every executable fault class at once, a service whose passes run
/// stacked resolves each job exactly once and balances its books: a gate
/// job holds the first pass while eight jobs queue behind it, so they run
/// as one pass of eight on one resident `B`.
#[test]
fn a_service_running_stacked_passes_balances_its_books_under_every_fault() {
    let _guard = serial();
    fault::disarm();
    const JOBS: usize = 8;
    let (m, n, k) = (24, 40, 48);
    let (weights, pairs) = shared_weight_operands(JOBS + 1, (m, n, k), 0.0);
    let job =
        |(a, c): &(OwnedMat, OwnedMat)| GemmJob::new(a.clone(), OwnedMat::zeros(k, n), c.clone()).beta(0.0);
    let refs: Vec<OwnedMat> = pairs
        .iter()
        .map(|(a, c)| {
            let mut c = c.clone();
            driver().gemm(GemmProblem::new(a.view(), weights.view(), c.view_mut()).beta(0.0)).unwrap();
            c
        })
        .collect();
    let ((inside, is_inside), (release, released)) = (mpsc::channel(), mpsc::channel());
    let stacked_passes = Arc::new(AtomicU64::new(0));
    let resident = Resident {
        inner: driver(),
        weights,
        hold: Mutex::new(Some((inside, released))),
        stacked_passes: stacked_passes.clone(),
    };
    let service = GemmService::with_config(resident, ServiceConfig { queue_capacity: 16, max_batch: JOBS });
    FaultPlan::new().pool_panic(1).entry_panic(3).slow(4, 5).decline(5).arm();
    let handles: Vec<JobHandle> = std::thread::scope(|scope| {
        let gate = scope.spawn(|| service.submit(job(&pairs[0])).expect("accepting"));
        is_inside.recv().expect("the gate's pass is held");
        let queued: Vec<JobHandle> =
            pairs[1..].iter().map(|pair| service.submit(job(pair)).expect("accepting")).collect();
        release.send(()).expect("the gate's pass is waiting");
        [gate.join().expect("the gate's submitter")].into_iter().chain(queued).collect()
    });
    let outcomes: Vec<_> = handles.iter().map(wait_or_hang).collect();
    fault::disarm();

    let mut failed = 0;
    for (j, (outcome, want)) in outcomes.iter().zip(&refs).enumerate() {
        let who = format!("job {j}");
        match outcome {
            Ok(done) if done.stats.degraded => assert_bits(&done.c, want, &who),
            Ok(done) => assert_bits(&done.c, want, &who),
            Err(GemmError::JobPanicked { .. }) | Err(GemmError::Kernel { .. }) => failed += 1,
            Err(other) => panic!("{who}: unexpected failure class {other:?}"),
        }
    }
    let stats = service.stats();
    assert_eq!(stats.jobs_submitted, (JOBS + 1) as u64, "{stats}");
    assert_eq!(
        (stats.jobs_completed, stats.jobs_failed),
        ((JOBS + 1 - failed) as u64, failed as u64),
        "{stats}"
    );
    assert_eq!((stats.batches, stats.largest_batch), (2, JOBS), "{stats}");
    assert!(stats.panics_caught >= 1, "the armed faults fired: {stats}");
    assert_eq!(stats.retries >= 1, retried(), "only a native tier retries: {stats}");
    assert!(stacked_passes.load(Ordering::Relaxed) >= 1, "the pass of eight ran stacked");
}

/// A pool-level panic kills one shard of a batch whose entries all ride one
/// shared `B` image: exactly the entries dealt to that shard fail (it never
/// reached them), every other entry completes bit-identical to the clean
/// run, the dead shard's runner is gone with it, and the next batch on the
/// same executor — the surviving runners plus one built to replace the lost
/// one, the same image buffer — is whole and bit-identical again. (On a
/// one-worker pool the single shard runs on the calling thread, no pool job
/// exists, and nothing fails.)
#[test]
fn a_dead_shard_fails_only_its_entries_and_the_shared_image_serves_the_next_batch() {
    use exo_gemm::exo_serve::{CachedTunedGemm, ThreadPool};
    let _guard = serial();
    fault::disarm();
    let executor = CachedTunedGemm::new(exo_gemm::exo_tune::TunedGemm::new());
    const N: usize = 7;
    let (weights, mut pairs) = shared_weight_operands(N, (24, 40, 48), 0.0);
    let pristine = pairs.clone();
    let run = |pairs: &mut Vec<(OwnedMat, OwnedMat)>| {
        *pairs = pristine.clone();
        executor.gemm_batch(shared_weight_batch(&weights, pairs, 0.0))
    };

    let clean = run(&mut pairs);
    assert!(clean.outcomes.iter().all(Result::is_ok), "clean batch");
    assert_eq!((clean.b_images_packed, clean.entries_on_shared_b), (1, N as u64));
    let refs: Vec<OwnedMat> = pairs.iter().map(|(_, c)| c.clone()).collect();

    FaultPlan::new().pool_panic(1).arm();
    let hit = run(&mut pairs);
    fault::disarm();
    let workers = ThreadPool::global().workers();
    let failed: Vec<usize> = (0..N).filter(|&e| hit.outcomes[e].is_err()).collect();
    if workers == 1 || workers > N {
        assert!(failed.is_empty(), "no shard is a pool job at {workers} workers: {failed:?}");
    } else {
        // Entries are dealt round-robin, so a shard is a residue class.
        let shard = failed.first().expect("the armed pool job was a shard") % workers;
        assert_eq!(failed, (shard..N).step_by(workers).collect::<Vec<_>>(), "exactly one shard's entries");
        assert_eq!(hit.panics_caught, 1);
    }
    for (e, ((_, c), outcome)) in pairs.iter().zip(&hit.outcomes).enumerate() {
        match outcome {
            Ok(_) => assert_bits(c, &refs[e], &format!("survivor {e}")),
            Err(GemmError::JobPanicked { .. }) => {}
            Err(other) => panic!("entry {e}: unexpected error {other:?}"),
        }
    }

    // The dead shard's runner died with it — it was checked out, so it is
    // never back with its driver — and every other shard returned its own.
    let drivers = executor.tuned().drivers();
    let (built, idle) = (drivers[0].runners_built(), drivers[0].idle_runners() as u64);
    assert_eq!(drivers.len(), 1, "one shape, one verdict group");
    assert_eq!(built - idle, failed.len().min(1) as u64, "{built} built, {idle} idle, failed {failed:?}");

    let after = run(&mut pairs);
    assert!(after.outcomes.iter().all(Result::is_ok), "the batch after the fault is whole");
    assert_eq!((after.b_images_packed, after.entries_on_shared_b), (1, N as u64));
    assert_eq!(after.runners_built, built - idle, "the next batch builds exactly the runner that was lost");
    for (e, (_, c)) in pairs.iter().enumerate() {
        assert_bits(c, &refs[e], &format!("after the fault, entry {e}"));
    }
}

/// The thread draining the queue unwinds outside any batch entry
/// (`collector-panic@2`: before its second pass). Exactly the jobs of that
/// pass resolve `JobPanicked`; the same thread goes on draining, so every
/// other job — before it, behind it — completes bit-identically, the books
/// balance, health is `Degraded`, and the service keeps accepting work.
/// Two submitters: a helper that stalls inside pass 1 (and so is the one
/// that drains), and this thread, which queues jobs 1..=3 behind it; with
/// `max_batch` 2 the unwound pass is jobs 1 and 2.
#[test]
fn a_combiner_that_unwinds_fails_its_pass_and_the_service_keeps_serving() {
    let _guard = serial();
    fault::disarm();
    let wants: Vec<OwnedMat> = (0..5).map(|seed| reference_c(16, 16, 16, seed, 0.0)).collect();
    let service = GemmService::with_config(driver(), ServiceConfig { queue_capacity: 8, max_batch: 2 });
    FaultPlan::new().slow(1, 100).collector_panic(2).arm();

    let handles: Vec<JobHandle> = std::thread::scope(|scope| {
        let first = scope.spawn(|| service.submit(make_job(16, 16, 16, 0, 0.0)).expect("accepting"));
        await_first_pass(&service);
        let queued: Vec<JobHandle> =
            (1..4).map(|seed| service.submit(make_job(16, 16, 16, seed, 0.0)).expect("accepting")).collect();
        [first.join().expect("the draining submitter returns, it does not unwind")]
            .into_iter()
            .chain(queued)
            .collect()
    });
    for (seed, handle) in handles.iter().enumerate() {
        match (seed, wait_or_hang(handle)) {
            (1 | 2, Err(GemmError::JobPanicked { message })) => {
                assert!(message.contains("injected fault"), "unexpected payload: {message}");
            }
            (0 | 3, Ok(done)) => assert_bits(&done.c, &wants[seed], &format!("job {seed}")),
            (_, other) => panic!("job {seed}: {other:?}"),
        }
    }
    fault::disarm();

    let stats = service.stats();
    assert_eq!((stats.jobs_submitted, stats.jobs_completed, stats.jobs_failed), (4, 2, 2), "{stats}");
    assert_eq!((stats.batches, stats.panics_caught), (3, 1), "{stats}");
    assert_eq!(service.health(), ServiceHealth::Degraded);
    let after = service.submit(make_job(16, 16, 16, 4, 0.0)).expect("a live service accepts");
    assert_bits(&wait_or_hang(&after).expect("clean job after the unwind").c, &wants[4], "job 4");
}

/// The `A` and `B` shapes, `(rows, cols)`, of one entry an executor received.
type Operands = ((usize, usize), (usize, usize));

/// Calls an executor took at the one-entry door, and the entries of each
/// call at the batch door.
#[derive(Default)]
struct Doors {
    one: AtomicU64,
    batches: Mutex<Vec<Vec<Operands>>>,
}

/// The shared driver behind a gate: its first call, at either door, waits
/// until the test lets it go (when a hold is set), so that jobs submitted
/// meanwhile queue up behind it and run as one pass. Both doors delegate to
/// the driver's own, so a lone job takes the driver's one-entry door.
struct Gated {
    inner: BlisGemm,
    hold: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    doors: Arc<Doors>,
}

impl Gated {
    fn pass_the_gate(&self) {
        if let Some((inside, release)) = self.hold.lock().unwrap().take() {
            inside.send(()).expect("the test is listening");
            release.recv().expect("the test opens the gate");
        }
    }
}

impl GemmBatchExecutor for Gated {
    fn gemm_batch(&self, batch: GemmBatch<'_>) -> BatchReport {
        let entries = batch.iter().map(|p| ((p.a.rows(), p.a.cols()), (p.b.rows(), p.b.cols()))).collect();
        self.doors.batches.lock().unwrap().push(entries);
        self.pass_the_gate();
        self.inner.gemm_batch(batch)
    }

    fn gemm_one(&self, problem: GemmProblem<'_>) -> EntryReport {
        self.doors.one.fetch_add(1, Ordering::Relaxed);
        self.pass_the_gate();
        self.inner.gemm_one(problem)
    }
}

/// What one run of [`behind_a_gate`] gave back.
struct GateRun {
    /// The gate job's outcome, then the jobs' in submission order.
    outcomes: Vec<Result<CompletedJob, GemmError>>,
    stats: ServiceStats,
    /// `(one-entry door, batch door)` calls.
    doors: (u64, u64),
    /// The entries of each call at the batch door, in call order.
    batches: Vec<Vec<Operands>>,
}

/// Under `plan`, a clean gate job (the service's first pass, and its first
/// batch entry), then `jobs`: each in a pass of its own (`paired ==
/// false`), or all queued behind the held gate and run as one pass.
fn behind_a_gate(plan: FaultPlan, jobs: impl IntoIterator<Item = GemmJob>, paired: bool) -> GateRun {
    let doors = Arc::new(Doors::default());
    let ((inside, is_inside), (release, released)) = (mpsc::channel(), mpsc::channel());
    let gated = Gated {
        inner: driver(),
        hold: Mutex::new(paired.then_some((inside, released))),
        doors: doors.clone(),
    };
    let service = GemmService::new(gated);
    plan.arm();
    let handles: Vec<JobHandle> = std::thread::scope(|scope| {
        let gate = scope.spawn(|| service.submit(make_job(16, 16, 16, 100, 0.0)).expect("accepting"));
        let gate = if paired {
            is_inside.recv().expect("the gate's pass is held");
            Err(gate)
        } else {
            // The gate's pass is over, so each job finds the queue idle.
            Ok(gate.join().expect("the gate's submitter"))
        };
        let queued: Vec<JobHandle> =
            jobs.into_iter().map(|job| service.submit(job).expect("accepting")).collect();
        let gate = gate.unwrap_or_else(|held| {
            release.send(()).expect("the gate's pass is waiting");
            held.join().expect("the gate's submitter")
        });
        [gate].into_iter().chain(queued).collect()
    });
    let outcomes = handles.iter().map(wait_or_hang).collect();
    fault::disarm();
    let stats = service.stats();
    let batches = std::mem::take(&mut *doors.batches.lock().unwrap());
    GateRun { outcomes, stats, doors: (doors.one.load(Ordering::Relaxed), batches.len() as u64), batches }
}

/// An outcome's class, checked against `want` (`NaiveGemm`'s `C`) on the
/// way: bit for bit for a clean completion and for a degraded one, which
/// ran another tier.
fn class_of(outcome: &Result<CompletedJob, GemmError>, want: &OwnedMat, who: &str) -> &'static str {
    match outcome {
        Ok(done) if done.stats.degraded => {
            assert_bits(&done.c, want, who);
            "degraded"
        }
        Ok(done) => {
            assert_bits(&done.c, want, who);
            "ok"
        }
        Err(GemmError::JobPanicked { message }) => {
            assert!(message.contains("injected fault"), "{who}: unexpected payload: {message}");
            "panicked"
        }
        Err(GemmError::Kernel { .. }) => "declined",
        Err(GemmError::DeadlineExceeded { .. }) => "expired",
        Err(GemmError::ShapeMismatch { .. }) => "shape",
        Err(other) => panic!("{who}: unexpected failure {other:?}"),
    }
}

/// The books a pass of one and a pass of two must agree on: all of them
/// but the pass counts, the queue depth and the process-wide pool's.
fn books(stats: &ServiceStats) -> ServiceStats {
    ServiceStats { batches: 0, largest_batch: 0, queue_highwater: 0, pool_tasks_executed: 0, ..stats.clone() }
}

/// A lone job — a pass of one, through the executor's one-entry door —
/// under each per-entry fault class resolves exactly as it does in a pass
/// of two: the same typed outcome, the same books, balanced. The two jobs
/// behind the gate are twins (same operands, `C` and `beta`) where the
/// fault fires inside the executor, because a pass of two may deal them
/// to two pool shards and either can be the armed entry. An expired job
/// never reaches the executor, and a misshapen one reaches it and is
/// refused there, before any entry fault counts it; so each has a clean
/// neighbour. A collector panic is the one class whose blast radius is
/// the pass: alone, it fails its one job; paired, both.
#[test]
fn a_lone_job_resolves_every_entry_fault_as_a_pass_of_two_does() {
    let _guard = serial();
    fault::disarm();
    fn twin(beta: f32) -> [GemmJob; 2] {
        [make_job(24, 20, 16, 7, beta), make_job(24, 20, 16, 7, beta)]
    }
    /// A class, its plan, the two jobs behind the gate, and what passes of
    /// one resolve them to.
    type Case = (&'static str, FaultPlan, fn() -> [GemmJob; 2], [&'static str; 2]);
    // A `beta = 0` failure retries onto the interpreter only from a
    // native body; on the interpreter, the floor, it stays a failure.
    let (panicked, declined) = if retried() { ("degraded", "degraded") } else { ("panicked", "declined") };
    let cases: [Case; 7] = [
        ("entry-panic, beta 1", FaultPlan::new().entry_panic(2), || twin(1.0), ["panicked", "ok"]),
        ("entry-panic, beta 0", FaultPlan::new().entry_panic(2), || twin(0.0), [panicked, "ok"]),
        ("decline", FaultPlan::new().decline(2), || twin(0.0), [declined, "ok"]),
        ("slow", FaultPlan::new().slow(2, 20), || twin(0.0), ["ok", "ok"]),
        (
            "expired deadline",
            FaultPlan::new(),
            || [make_job(24, 20, 16, 7, 0.0).with_deadline(Duration::ZERO), make_job(24, 20, 16, 8, 0.0)],
            ["expired", "ok"],
        ),
        (
            "shape mismatch",
            FaultPlan::new(),
            || {
                let misshapen =
                    GemmJob::new(OwnedMat::zeros(24, 16), OwnedMat::zeros(15, 20), OwnedMat::zeros(24, 20));
                [misshapen, make_job(24, 20, 16, 8, 0.0)]
            },
            ["shape", "ok"],
        ),
        ("collector-panic", FaultPlan::new().collector_panic(2), || twin(0.0), ["panicked", "ok"]),
    ];
    let gate_want = reference_c(16, 16, 16, 100, 0.0);
    for (class, plan, jobs, lone_classes) in cases {
        let wants: Vec<OwnedMat> = jobs()
            .into_iter()
            .map(|mut job| {
                // The shape-mismatch job has no reference; its outcome is never
                // compared with one.
                let _ = driver().gemm(job.problem());
                job.into_c()
            })
            .collect();
        let mut seen = Vec::new();
        for paired in [false, true] {
            let who = format!("{class}, {}", if paired { "a pass of two" } else { "passes of one" });
            let run = behind_a_gate(plan, jobs(), paired);
            assert_eq!(class_of(&run.outcomes[0], &gate_want, &who), "ok", "{who}: the gate job");
            let mut classes: Vec<&str> = run.outcomes[1..]
                .iter()
                .zip(&wants)
                .map(|(outcome, want)| class_of(outcome, want, &who))
                .collect();
            classes.sort_unstable();
            let stats = &run.stats;
            assert_eq!(stats.jobs_submitted, 3, "{who}: {stats}");
            assert_eq!(stats.jobs_submitted, stats.jobs_completed + stats.jobs_failed, "{who}: {stats}");
            let (one, batch) = run.doors;
            if paired {
                assert_eq!((stats.batches, stats.largest_batch), (2, 2), "{who}: {stats}");
                assert_eq!(one, 1, "{who}: only the gate ran alone");
                assert!(batch <= 1, "{who}: the pair ran as one batch, if at all");
            } else {
                assert_eq!((stats.batches, stats.largest_batch), (3, 1), "{who}: {stats}");
                assert_eq!(batch, 0, "{who}: a pass of one never builds a batch");
                assert!(one >= 2, "{who}: the gate and the jobs the service admitted ran alone");
            }
            seen.push((classes, books(stats)));
        }
        let (lone, pair) = (&seen[0], &seen[1]);
        let mut want_lone = lone_classes.to_vec();
        want_lone.sort_unstable();
        assert_eq!(lone.0, want_lone, "{class}: passes of one");
        if class == "collector-panic" {
            assert_eq!(pair.0, ["panicked", "panicked"], "{class}: a pass of two fails both its jobs");
            let (l, p) = (&lone.1, &pair.1);
            assert_eq!((l.jobs_failed, p.jobs_failed), (1, 2), "{class}: {l} / {p}");
            assert_eq!((l.panics_caught, p.panics_caught), (1, 1), "{class}: {l} / {p}");
            assert_eq!((l.health, p.health), (ServiceHealth::Degraded, ServiceHealth::Degraded));
        } else {
            assert_eq!(pair.0, lone.0, "{class}: a pass of two resolves the jobs as passes of one do");
            assert_eq!(pair.1, lone.1, "{class}: the same books");
        }
    }
}

/// A pass longer than two whose refusals interleave with live jobs: behind
/// the held gate, `[live, expired, misshapen, live]` queue up and run as one
/// pass of four. Every job gets its own answer, in submission order; the
/// expired job never reaches the executor, so the one batch holds the
/// other three, and the executor refuses the misshapen one in it.
#[test]
fn a_pass_of_four_answers_interleaved_refusals_in_order() {
    let _guard = serial();
    fault::disarm();
    let wants = [reference_c(24, 20, 16, 7, 0.0), reference_c(8, 12, 20, 9, 1.0)];
    let jobs = vec![
        make_job(24, 20, 16, 7, 0.0),
        make_job(16, 16, 8, 8, 0.0).with_deadline(Duration::ZERO),
        GemmJob::new(OwnedMat::zeros(24, 16), OwnedMat::zeros(15, 20), OwnedMat::zeros(24, 20)),
        make_job(8, 12, 20, 9, 1.0),
    ];
    let run = behind_a_gate(FaultPlan::new(), jobs, true);
    let gate_want = reference_c(16, 16, 16, 100, 0.0);
    let classes: Vec<&str> = run
        .outcomes
        .iter()
        .zip([&gate_want, &wants[0], &wants[0], &wants[0], &wants[1]])
        .enumerate()
        .map(|(idx, (outcome, want))| class_of(outcome, want, &format!("job {idx}")))
        .collect();
    assert_eq!(classes, ["ok", "ok", "expired", "shape", "ok"], "outcomes in submission order");

    let stats = &run.stats;
    assert_eq!((stats.jobs_submitted, stats.jobs_completed, stats.jobs_failed), (5, 3, 2), "{stats}");
    assert_eq!(stats.deadline_expired, 1, "{stats}");
    assert_eq!((stats.batches, stats.largest_batch), (2, 4), "{stats}");
    assert_eq!(run.doors, (1, 1), "the gate alone at the one-entry door, the pass of four as one batch");
    assert_eq!(
        run.batches,
        [vec![((24, 16), (16, 20)), ((24, 16), (15, 20)), ((8, 20), (20, 12))]],
        "the batch holds the three jobs that did not expire, in order"
    );
}

/// Handles outlive the service: every accepted job has completed by the
/// time the service can be dropped, and its handle still redeems.
#[test]
fn shutdown_with_outstanding_handles_resolves_them_all() {
    let _guard = serial();
    fault::disarm();
    let service = GemmService::with_config(driver(), ServiceConfig { queue_capacity: 8, max_batch: 2 });
    let handles: Vec<JobHandle> =
        (0..6).map(|s| service.submit(make_job(16, 16, 16, s, 0.0)).expect("accepting")).collect();
    drop(service);
    for (idx, handle) in handles.iter().enumerate() {
        match wait_or_hang(handle) {
            Ok(done) => assert_eq!(done.stats.flop_count, 2 * 16 * 16 * 16),
            Err(other) => panic!("job {idx} was accepted, it must complete: {other:?}"),
        }
    }
}

/// Generates, for an AOT fault experiment, an admitted Neon tile that no
/// other test in this binary resolves on the active ISA: the engine's
/// verdicts are process-global and settled once per key, so an armed
/// countdown fires only on a key nobody has resolved yet. The candidates
/// are never served on AVX-512 or AVX2; on the scalar floor and NEON, where
/// every Neon tile is served, the one tile the `TunedGemm` test of this
/// binary plans (its 24x40x48 batch) is skipped. Each experiment takes
/// its own `nth` candidate.
fn untouched_kernel(nth: usize) -> Arc<GeneratedKernel> {
    let verdict = exo_gemm::exo_tune::TunedGemm::new().plan(24, 40, 48).expect("the shape tunes");
    let (mr, nr) = [(12, 8), (4, 24), (12, 4), (4, 20)]
        .into_iter()
        .filter(|tile| *tile != (verdict.mr, verdict.nr))
        .nth(nth)
        .expect("a candidate tile");
    Arc::new(
        exo_gemm::ukernel_gen::MicroKernelGenerator::new(exo_gemm::exo_isa::neon_f32())
            .generate(mr, nr)
            .unwrap_or_else(|e| panic!("{mr}x{nr} generates: {e}")),
    )
}

/// Runs `jobs` shapes through a fresh service over `driver`, requiring
/// every job to complete ununusually — not failed, not degraded — and
/// bit-identical to `refs`. Returns the service for stats assertions.
fn run_clean_batch(
    driver: BlisGemm,
    shapes: &[(usize, usize, usize)],
    refs: &[OwnedMat],
    who: &str,
) -> GemmService {
    let service = GemmService::new(driver);
    let handles: Vec<JobHandle> = shapes
        .iter()
        .enumerate()
        .map(|(s, &(m, n, k))| service.submit(make_job(m, n, k, s, 0.0)).expect("accepting"))
        .collect();
    for (idx, handle) in handles.iter().enumerate() {
        let done = wait_or_hang(handle)
            .unwrap_or_else(|e| panic!("{who} job {idx}: an AOT fault must never fail a job, got {e:?}"));
        assert!(!done.stats.degraded, "{who} job {idx}: pre-dispatch fallback is not a degraded completion");
        assert_bits(&done.c, &refs[idx], &format!("{who} job {idx} (superword fallback)"));
    }
    service
}

/// The superword-pinned reference results for `shapes` through `kernel` —
/// computed while faults are disarmed. This is the tier every AOT
/// failure must silently land on, bit for bit.
fn superword_refs(
    kernel: &Arc<GeneratedKernel>,
    blocking: BlockingParams,
    shapes: &[(usize, usize, usize)],
) -> Vec<OwnedMat> {
    let pinned = BlisGemm::new(blocking).with_kernel(exo_kernel_superword(Arc::clone(kernel)));
    shapes
        .iter()
        .enumerate()
        .map(|(s, &(m, n, k))| {
            let mut job = make_job(m, n, k, s, 0.0);
            pinned.gemm(job.problem()).expect("reference gemm");
            job.into_c()
        })
        .collect()
}

/// A compile that fails when the workspace builds leaves its unit out of
/// the table (the build warns with the compiler's diagnostics), so at run
/// time the kernel is a table miss — the same miss as every tile no
/// admitted space holds, such as this scalar-strategy 3x5, which no build
/// compiles. Met mid-serve, through a driver asked for the native tier, the
/// miss must degrade *silently*, one tier down and pre-dispatch: every job
/// completes, none is stamped `degraded`, the results are bit-identical to
/// a run pinned to the superword interpreter, and the miss is counted. It is not a lost promotion —
/// there was no body to lose — so health stays `Healthy`.
#[test]
fn a_mid_serve_compile_failure_degrades_to_superword_without_failing_jobs() {
    let _guard = serial();
    fault::disarm();
    let options = exo_gemm::ukernel_gen::KernelOptions {
        strategy: Some(exo_gemm::ukernel_gen::Strategy::Scalar),
        ..exo_gemm::ukernel_gen::KernelOptions::new(3, 5)
    };
    let kernel = Arc::new(
        exo_gemm::ukernel_gen::MicroKernelGenerator::new(exo_gemm::exo_isa::neon_f32())
            .generate_with(&options)
            .expect("the scalar-strategy 3x5 generates"),
    );
    let blocking = BlockingParams::carmel_defaults(3, 5);
    let shapes = [(24usize, 20usize, 16usize), (16, 16, 16), (33, 9, 21)];
    let refs = superword_refs(&kernel, blocking, &shapes);

    let misses = exo_gemm::exo_aot::engine().stats().misses;
    let native_driver = BlisGemm::new(blocking).with_kernel(exo_kernel(Arc::clone(&kernel)));
    let service = run_clean_batch(native_driver, &shapes, &refs, "table miss");
    assert!(kernel.native().is_none(), "the table holds no body for the 3x5");
    assert!(exo_gemm::exo_aot::engine().stats().misses > misses, "the miss is counted");
    let stats = service.stats();
    assert_eq!(stats.jobs_completed, shapes.len() as u64);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.retries, 0, "the fallback happens before dispatch, not via the retry path");
    assert_eq!(stats.aot_builds_failed, 0, "{stats}");
    assert_eq!(service.health(), ServiceHealth::Healthy, "a miss is no lost promotion");
}

/// Health is decided in one place: a promotion that fails after the
/// service's last pass (here, before its first) reads `Degraded` from
/// `health()` asked first, with no `stats()` call to fold the failure in
/// beforehand.
#[test]
fn a_build_failure_between_passes_reads_degraded_from_health_alone() {
    let _guard = serial();
    fault::disarm();
    if !exo_gemm::gemm_blis::native_available() {
        return; // no table: no body to probe, so no fault can fire
    }
    let kernel = untouched_kernel(0);
    let service = GemmService::new(driver());
    FaultPlan::new().aot_wrong_result(1).arm();
    let promoted = kernel.native();
    fault::disarm();
    assert!(promoted.is_none(), "the armed probe rejects the body");
    assert_eq!(service.health(), ServiceHealth::Degraded, "health() folds the lost promotion in itself");
    assert_eq!(service.stats().health, ServiceHealth::Degraded);
}

/// The wrong-result fault class (`aot-wrong-result@1`): a body that loads
/// and *runs* — but computes garbage. The verification probe must catch it
/// before dispatch ever sees it: every job is bit-identical to the
/// superword-pinned run, the failure is booked, and the key is pinned to
/// the superword tier terminally.
#[test]
fn a_wrong_result_kernel_is_rejected_before_dispatch_ever_sees_it() {
    let _guard = serial();
    fault::disarm();
    if !exo_gemm::gemm_blis::native_available() {
        return;
    }
    let kernel = untouched_kernel(1);
    let blocking = BlockingParams::carmel_defaults(kernel.mr, kernel.nr);
    let shapes = [(24usize, 20usize, 16usize), (16, 16, 16), (33, 9, 21)];
    let refs = superword_refs(&kernel, blocking, &shapes);

    FaultPlan::new().aot_wrong_result(1).arm();
    let native_driver = BlisGemm::new(blocking).with_kernel(exo_kernel(Arc::clone(&kernel)));
    let service = run_clean_batch(native_driver, &shapes, &refs, "wrong-result");
    fault::disarm();
    let stats = service.stats();
    assert_eq!((stats.aot_wrong_results, stats.aot_builds_failed), (1, 1), "{stats}");
    assert_eq!(stats.jobs_completed, shapes.len() as u64);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(service.health(), ServiceHealth::Degraded, "a rejected kernel is a visible degradation");
    // The pin is terminal: resolving the key again stays on superword, with
    // no second probe of the same wrong answer.
    assert!(kernel.native().is_none(), "a wrong-result key must stay off the native tier");
    assert_eq!(service.stats().aot_wrong_results, 1);
}

/// CI's entry point: when `EXO_FAULT` is set, the first service
/// construction arms it and this generic liveness run must survive
/// whatever the spec throws. The jobs run the shared driver, the generated
/// 8x12 on the native tier, so a retry steps down the real ladder. Meant to
/// run filtered to this test, as CI does, so that its service is the first
/// in the process. Without `EXO_FAULT` the test is a no-op.
#[test]
fn env_spec_drives_a_full_fault_run() {
    let spec = match std::env::var("EXO_FAULT") {
        Ok(spec) if !spec.is_empty() => spec,
        _ => return,
    };
    let _guard = serial();
    // Constructing the service arms the env plan (first construction in
    // this process wins the OnceLock).
    let service = GemmService::with_config(driver(), ServiceConfig { queue_capacity: 16, max_batch: 8 });
    const CALLERS: usize = 4;
    const JOBS: usize = 8;
    let outcomes: Vec<Result<CompletedJob, GemmError>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..CALLERS)
            .map(|caller| {
                let service = &service;
                scope.spawn(move || {
                    (0..JOBS)
                        .map(|j| {
                            let job = make_job(24, 20, 16, caller * JOBS + j, 0.0);
                            wait_or_hang(&service.submit(job).expect("a live service accepts submissions"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        spawned.into_iter().flat_map(|h| h.join().expect("submitter thread")).collect()
    });
    fault::disarm();

    assert_eq!(outcomes.len(), CALLERS * JOBS, "every job resolved, spec `{spec}`");
    let stats = service.stats();
    assert_eq!(
        stats.jobs_completed + stats.jobs_failed,
        stats.jobs_submitted,
        "books must balance under EXO_FAULT={spec}: {stats}"
    );
    let clean = service.submit(make_job(16, 16, 16, 777, 0.0)).expect("live service accepts");
    assert!(wait_or_hang(&clean).is_ok());
}
