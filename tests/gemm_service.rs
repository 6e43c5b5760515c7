//! Stress and edge-case suite for the `exo-serve` service layer:
//!
//! * N caller threads submit random-layout problems (the same generators
//!   as `tests/gemm_api.rs`) to one shared [`GemmService`]; every result
//!   must be bit-identical to a sequential per-call run of the same
//!   executor, and must match the single-threaded `NaiveGemm` reference to
//!   accumulation tolerance.
//! * Batch edge cases through the [`GemmBatchExecutor`] trait: empty
//!   batch, single-entry batch, mixed-shape batch with degenerate entries.
//! * Pool-reuse: after warm-up, the hot path never spawns another OS
//!   thread — the shared pool is borrowed, not recreated.
//! * Runner-reuse: a [`CachedTunedGemm`]'s drivers build runners
//!   (dispatch, arena, accumulator tile) once — warm batches of the same
//!   shapes report `runners_built == 0`, and warm per-call `gemm`s on the
//!   wrapped `TunedGemm` draw the same runners.
//! * Shared weights: entries of a batch that borrow one `B` pack it once
//!   (`b_images_packed` / `entries_on_shared_b`), bit-identical to
//!   per-call `TunedGemm::execute`; a shard's entries on one image under
//!   one `alpha` and `beta` run as one stacked pass (`stacked_passes`),
//!   bit-identical to the per-entry loop and to `NaiveGemm`, whatever each
//!   entry's height, `op(A)` and layout.
//! * Who runs what: the service owns no thread, so an idle service runs a
//!   job on the submitting thread and a busy one on the thread already
//!   draining; and all three submission doors under a queue of two.
//! * Four doors, one result: the same jobs through `TunedGemm::gemm`,
//!   `gemm_batch`, a lone `submit` (a pass of one, through the executor's
//!   one-entry door) and a contended pass give bit-identical `C`s, and a
//!   warm lone `submit` builds no runner.

mod common;

use std::sync::{mpsc, Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use common::{poison_filler, reference, Cases, Stored};
use exo_gemm::exo_isa::neon_f32;
use exo_gemm::exo_serve::{
    BatchReport, CachedTunedGemm, EntryReport, GemmBatch, GemmBatchExecutor, GemmJob, GemmService, JobHandle,
    OwnedMat, ServiceConfig, SubmitErrorReason, ThreadPool,
};
use exo_gemm::exo_tune::TunedGemm;
use exo_gemm::gemm_blis::{exo_kernel, BlisGemm, BlockingParams, NaiveGemm};
use exo_gemm::ukernel_gen::MicroKernelGenerator;
use exo_gemm::{GemmExecutor, GemmProblem, Op};

/// Re-homes a randomly laid-out operand into an owned job operand with the
/// exact same stride map (padding garbage included).
fn owned(s: &Stored) -> OwnedMat {
    OwnedMat::with_layout(s.data.clone(), s.rows, s.cols, s.row_stride, s.col_stride, s.offset)
}

/// One pre-generated random problem: operands in random layouts, the
/// strided-reference expectation, and the result of a sequential per-call
/// run of the shared executor (the bit-identity baseline).
struct Case {
    a: Stored,
    b: Stored,
    c0: Stored,
    op_a: Op,
    op_b: Op,
    alpha: f32,
    beta: f32,
    m: usize,
    n: usize,
    k: usize,
    want: Vec<f32>,
    sequential: Vec<f32>,
}

impl Case {
    fn random(cases: &mut Cases, executor: &impl GemmExecutor) -> Case {
        let (m, n, k) = (cases.usize_in(1, 40), cases.usize_in(1, 40), cases.usize_in(1, 32));
        let op_a = if cases.usize_in(0, 2) == 1 { Op::Transpose } else { Op::None };
        let op_b = if cases.usize_in(0, 2) == 1 { Op::Transpose } else { Op::None };
        let alpha = *cases.pick(&[1.0f32, 1.0, -0.5, 2.0, 0.0]);
        let beta = *cases.pick(&[1.0f32, 1.0, 0.0, 0.5, -1.0]);
        let (a_rows, a_cols) = if op_a == Op::Transpose { (k, m) } else { (m, k) };
        let (b_rows, b_cols) = if op_b == Op::Transpose { (n, k) } else { (k, n) };
        let (seed_a, seed_b, seed_c) = (cases.next_u64() | 1, cases.next_u64() | 1, cases.next_u64() | 1);
        let a = Stored::random(a_rows, a_cols, cases, poison_filler(seed_a, alpha == 0.0));
        let b = Stored::random(b_rows, b_cols, cases, poison_filler(seed_b, alpha == 0.0));
        let c0 = Stored::random(m, n, cases, poison_filler(seed_c, beta == 0.0));
        let want = reference(&a, &b, &c0, op_a, op_b, alpha, beta, m, n, k);

        // The bit-identity baseline: the same executor, one plain per-call
        // `gemm` on a clone of the operands.
        let mut c_seq = Stored { data: c0.data.clone(), ..c0 };
        executor
            .gemm(
                GemmProblem::new(a.view(), b.view(), c_seq.view_mut())
                    .op_a(op_a)
                    .op_b(op_b)
                    .alpha(alpha)
                    .beta(beta),
            )
            .unwrap();
        let sequential =
            (0..m).flat_map(|i| (0..n).map(move |j| (i, j))).map(|(i, j)| c_seq.get(i, j)).collect();
        Case { a, b, c0, op_a, op_b, alpha, beta, m, n, k, want, sequential }
    }

    fn job(&self) -> GemmJob {
        let mut job =
            GemmJob::new(owned(&self.a), owned(&self.b), owned(&self.c0)).alpha(self.alpha).beta(self.beta);
        if self.op_a == Op::Transpose {
            job = job.transpose_a();
        }
        if self.op_b == Op::Transpose {
            job = job.transpose_b();
        }
        job
    }

    fn check(&self, c: &OwnedMat, who: &str) {
        for i in 0..self.m {
            for j in 0..self.n {
                let got = c.get(i, j);
                assert_eq!(
                    got,
                    self.sequential[i * self.n + j],
                    "{who}: {}x{}x{} at ({i},{j}) diverged from the sequential per-call run",
                    self.m,
                    self.n,
                    self.k
                );
                let want = self.want[i * self.n + j];
                assert!(
                    (got - want).abs() <= 2e-3 * want.abs().max(1.0),
                    "{who}: {}x{}x{} at ({i},{j}): {got} vs naive reference {want}",
                    self.m,
                    self.n,
                    self.k
                );
            }
        }
    }
}

/// The headline stress: 4 caller threads share one service over the
/// autotuned executor, each submitting a stream of random-layout problems.
/// Every job's `C` comes back bit-identical to the sequential per-call run
/// and within tolerance of the strided `NaiveGemm`-style reference.
#[test]
fn concurrent_callers_match_the_sequential_reference_bitwise() {
    const CALLERS: usize = 4;
    const JOBS_PER_CALLER: usize = 8;
    let executor = CachedTunedGemm::new(TunedGemm::new());
    let mut cases = Cases::new(0x5E27_0001);
    let per_caller: Vec<Vec<Case>> = (0..CALLERS)
        .map(|_| (0..JOBS_PER_CALLER).map(|_| Case::random(&mut cases, executor.tuned())).collect())
        .collect();

    // A small queue forces the backpressure path under 4 concurrent
    // callers; max_batch below the job count forces multiple batches.
    let service = GemmService::with_config(executor, ServiceConfig { queue_capacity: 8, max_batch: 16 });
    std::thread::scope(|scope| {
        for caller in &per_caller {
            scope.spawn(|| {
                // Keep a couple of jobs in flight per caller so batches form.
                let handles: Vec<_> = caller
                    .iter()
                    .map(|case| service.submit(case.job()).expect("healthy service accepts"))
                    .collect();
                for (case, handle) in caller.iter().zip(handles) {
                    let done = handle.wait().unwrap();
                    assert!(done.stats.batched, "service runs must go through the batch path");
                    case.check(&done.c, "service");
                }
            });
        }
    });

    let stats = service.stats();
    let total = (CALLERS * JOBS_PER_CALLER) as u64;
    assert_eq!(stats.jobs_submitted, total);
    assert_eq!(stats.jobs_completed, total);
    assert_eq!(stats.jobs_failed, 0);
    assert!(stats.batches >= 1 && stats.batches <= total);
    assert!(stats.queue_highwater >= 1);
    let want_flops: u64 = per_caller
        .iter()
        .flatten()
        .map(|c| if c.alpha == 0.0 { 0 } else { 2 * (c.m * c.n * c.k) as u64 })
        .sum();
    assert_eq!(stats.total_flops, want_flops);
}

/// Batch edge cases through the trait: empty, single entry, and a
/// mixed-shape batch with degenerate (zero-dimension) entries — which must
/// complete with zero flops, not be skipped.
#[test]
fn batch_edge_cases_empty_single_mixed_degenerate() {
    let executor = CachedTunedGemm::new(TunedGemm::new());

    // Empty batch: no work, no stats, no error.
    assert!(executor.gemm_batch(GemmBatch::new()).into_stats().unwrap().is_empty());

    // Single entry behaves exactly like a per-call run.
    let mut cases = Cases::new(0x5E27_0002);
    let single = Case::random(&mut cases, executor.tuned());
    let mut job = single.job();
    let stats = executor.gemm_batch(vec![job.problem()]).into_stats().unwrap();
    assert_eq!(stats.len(), 1);
    assert!(stats[0].batched);

    // Mixed shapes + a degenerate k = 0 entry: all run, order preserved,
    // the degenerate one reports zero flops and still applies beta.
    let shapes = [(17, 13, 9), (1, 40, 3), (8, 8, 0), (23, 5, 31)];
    let mut jobs: Vec<GemmJob> = shapes
        .iter()
        .enumerate()
        .map(|(s, &(m, n, k))| {
            GemmJob::new(
                OwnedMat::from_fn(m, k, move |i, j| ((i * 7 + j * 3 + s) % 13) as f32 * 0.25 - 1.0),
                OwnedMat::from_fn(k, n, move |i, j| ((i * 5 + j * 11 + s) % 17) as f32 * 0.125 - 1.0),
                OwnedMat::from_fn(m, n, |i, j| (i + j) as f32 * 0.5),
            )
            .beta(2.0)
        })
        .collect();
    let mut batch = GemmBatch::new();
    for job in &mut jobs {
        batch.push(job.problem());
    }
    let stats = executor.gemm_batch(batch).into_stats().unwrap();
    assert_eq!(stats.len(), shapes.len());
    for (st, &(m, n, k)) in stats.iter().zip(&shapes) {
        assert_eq!((st.m, st.n, st.k), (m, n, k));
        assert_eq!(st.flop_count, 2 * (m * n * k) as u64);
        assert!(st.batched);
    }
    // The degenerate entry applied beta = 2 to its C.
    let c_degenerate = jobs.remove(2).into_c();
    assert_eq!(c_degenerate.get(3, 4), (3 + 4) as f32 * 0.5 * 2.0);
}

/// After warm-up, no execute path spawns OS threads: the global pool is
/// created once and borrowed by per-call, batched, and service execution
/// alike.
#[test]
fn hot_paths_reuse_the_pool_without_spawning_threads() {
    let pool = ThreadPool::global();
    let executor = BlisGemm::new(BlockingParams::carmel_defaults(8, 12)).with_threads(4);

    // Warm-up: one per-call run and one batch touch every lazy path.
    let mut cases = Cases::new(0x5E27_0003);
    let warm = Case::random(&mut cases, &executor);
    let mut job = warm.job();
    executor.gemm(job.problem()).unwrap();
    executor.gemm_batch(vec![job.problem()]).into_stats().unwrap();

    let spawned_after_warmup = pool.threads_spawned();

    // Hammer all three entry points; the pool must not grow.
    let service = GemmService::new(BlisGemm::new(BlockingParams::carmel_defaults(8, 12)).with_threads(4));
    let hot: Vec<Case> = (0..12).map(|_| Case::random(&mut cases, &executor)).collect();
    for case in &hot {
        let mut job = case.job();
        executor.gemm(job.problem()).unwrap();
    }
    let mut jobs: Vec<GemmJob> = hot.iter().map(|c| c.job()).collect();
    let mut batch = GemmBatch::new();
    for job in &mut jobs {
        batch.push(job.problem());
    }
    executor.gemm_batch(batch).into_stats().unwrap();
    for result in service.execute_all(hot.iter().map(|c| c.job()).collect()) {
        result.unwrap();
    }

    assert_eq!(
        pool.threads_spawned(),
        spawned_after_warmup,
        "hot-path execution must borrow the shared pool, not spawn threads"
    );
    assert_eq!(service.stats().pool_workers, pool.workers());
}

/// Runners (dispatch handle, packing arena, accumulator tile) belong to
/// the verdict group's driver inside the wrapped `TunedGemm`, so the batch
/// path and the per-call path warm each other: per-call dispatch leaves
/// one runner per group, the cold batch builds only what its extra shards
/// need, warm batches and warm per-call `gemm`s build **zero**, and none
/// of it ever changes a bit of the results.
#[test]
fn warm_batches_through_the_cached_executor_build_zero_runners() {
    let executor = CachedTunedGemm::new(TunedGemm::new());
    let idle = || executor.tuned().drivers().iter().map(|d| d.idle_runners()).sum::<usize>();
    let built = || executor.tuned().drivers().iter().map(|d| d.runners_built()).sum::<u64>();
    let mut cases = Cases::new(0xCA5E_D001);
    // `Case::random` runs each case once through a per-call `gemm` on the
    // wrapped executor: every group's first call built its runner, every
    // later one drew it.
    let pool: Vec<Case> = (0..12).map(|_| Case::random(&mut cases, executor.tuned())).collect();
    let groups = executor.tuned().drivers().len();
    assert!(groups > 0, "verdict groups must have drivers");
    assert_eq!((built(), idle()), (groups as u64, groups), "per-call dispatch keeps one runner a group");
    let run = || {
        let mut jobs: Vec<GemmJob> = pool.iter().map(Case::job).collect();
        let mut batch = GemmBatch::new();
        for job in &mut jobs {
            batch.push(job.problem());
        }
        let report = executor.gemm_batch(batch);
        for outcome in &report.outcomes {
            outcome.as_ref().expect("batch entry");
        }
        for (case, job) in pool.iter().zip(jobs) {
            case.check(&job.into_c(), "cached batch");
        }
        report.runners_built
    };
    // The cold batch's first shard of each group draws the per-call
    // runner; only the other shards can have had to build one.
    let cold = run();
    assert_eq!(cold, built() - groups as u64, "the report counts what the drivers built");
    assert!(
        cold <= (groups * (ThreadPool::global().workers() - 1)) as u64,
        "{cold} built for {groups} groups"
    );
    let steady = idle();
    assert_eq!(steady as u64, built(), "every runner built is back with its driver");
    for rerun in 0..3 {
        assert_eq!(run(), 0, "warm batch {rerun} must reuse the drivers' runners, not build anew");
        assert_eq!(idle(), steady, "warm batch {rerun} must not grow the drivers' sets");
    }
    // And back through the per-call door: still nothing built, still the
    // bits of the batch (both are checked against the same baseline).
    for case in &pool {
        let mut job = case.job();
        executor.tuned().gemm(job.problem()).unwrap();
        case.check(&job.into_c(), "warm per-call");
    }
    assert_eq!((built(), idle()), (steady as u64, steady));
}

/// The DNN pattern: activations against a layer's weights. Entries that
/// borrow one `B` — any layout, either `op_b` — pack it once per batch,
/// the counters say so, warm batches build nothing, and every `C` is
/// bit-identical to a per-call `TunedGemm::execute` of the same entry.
#[test]
fn entries_borrowing_one_weight_matrix_pack_it_once_per_batch() {
    let executor = CachedTunedGemm::new(TunedGemm::new());
    let mut cases = Cases::new(0x5AA2_ED0B);
    for round in 0..6 {
        let (m, n, k) = (cases.usize_in(1, 50), cases.usize_in(1, 70), cases.usize_in(1, 60));
        let op_b = if round % 2 == 1 { Op::Transpose } else { Op::None };
        let beta = if round % 3 == 0 { 0.75 } else { 0.0 };
        let (b_rows, b_cols) = if op_b == Op::Transpose { (n, k) } else { (k, n) };
        let mut stored = |rows, cols, poison| {
            let seed = cases.next_u64() | 1;
            Stored::random(rows, cols, &mut cases, poison_filler(seed, poison))
        };
        // Two layers' weights and a loner's own: entries 0..4 borrow the
        // first, 4..7 the second, entry 7 the third.
        let weights =
            [stored(b_rows, b_cols, false), stored(b_rows, b_cols, false), stored(b_rows, b_cols, false)];
        let owner = |e: usize| [0, 0, 0, 0, 1, 1, 1, 2][e];
        let acts: Vec<Stored> = (0..8).map(|_| stored(m, k, false)).collect();
        // beta == 0 must never read C: poison it.
        let c0: Vec<Stored> = (0..8).map(|_| stored(m, n, beta == 0.0)).collect();
        let clone = |s: &Stored| Stored { data: s.data.clone(), ..*s };
        fn build<'a>(
            a: &'a Stored,
            b: &'a Stored,
            c: &'a mut Stored,
            op_b: Op,
            beta: f32,
        ) -> GemmProblem<'a> {
            GemmProblem::new(a.view(), b.view(), c.view_mut()).op_b(op_b).beta(beta)
        }

        let want: Vec<Stored> = (0..8)
            .map(|e| {
                let mut c = clone(&c0[e]);
                executor.tuned().execute(build(&acts[e], &weights[owner(e)], &mut c, op_b, beta)).unwrap();
                c
            })
            .collect();
        for pass in ["cold", "warm"] {
            let mut cs: Vec<Stored> = c0.iter().map(clone).collect();
            let mut batch = GemmBatch::new();
            for (e, c) in cs.iter_mut().enumerate() {
                batch.push(build(&acts[e], &weights[owner(e)], c, op_b, beta));
            }
            let report = executor.gemm_batch(batch);
            let who = format!("round {round} ({m}x{n}x{k}, {op_b:?}, beta {beta}), {pass}");
            assert_eq!((report.b_images_packed, report.entries_on_shared_b), (2, 7), "{who}");
            if pass == "warm" {
                assert_eq!(report.runners_built, 0, "{who}");
            }
            for (e, (got, want)) in cs.iter().zip(&want).enumerate() {
                report.outcomes[e].as_ref().expect("healthy entry");
                // Whole buffers: the padding must be untouched too.
                let bits = |s: &Stored| s.data.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(got), bits(want), "{who}: entry {e}");
            }
        }
    }
}

/// How many stacked passes a batch of `entries` that all share one image,
/// `alpha` and `beta` makes on a pool of `workers`: one per shard dealt
/// two or more entries, or one for a group too short to shard.
fn stacks_for(entries: usize, workers: usize) -> u64 {
    let stacks = if workers == 1 || entries < workers {
        usize::from(entries > 1)
    } else {
        entries.saturating_sub(workers).min(workers)
    };
    stacks as u64
}

/// `C = alpha * op(A) * B + beta * C` over stored operands.
fn problem<'x>(
    a: &'x Stored,
    op_a: Op,
    b: &'x Stored,
    c: &'x mut Stored,
    scales: (f32, f32),
) -> GemmProblem<'x> {
    GemmProblem::new(a.view(), b.view(), c.view_mut()).op_a(op_a).alpha(scales.0).beta(scales.1)
}

/// A stack is one pass over its entries' rows, and every entry keeps its
/// own bits: entries of different heights in one stack (3, 17, 49, 1 and 8
/// rows), each `op(A)` and layout, `alpha` in {1, 0.75, -1.5}, both `beta`
/// regimes, a run of three-row entries whose micro-panels each hold rows
/// of three entries or more, and a pair — a group shorter than a pool of
/// three or more workers, which stacks under the driver's partition of
/// `C` — on the generated 8x12 and 16x16 with blockings small enough that
/// `k` crosses `kc` and rows cross `mc`. Each `C` — its whole buffer,
/// padding included — must equal the per-entry loop and `NaiveGemm` bit for
/// bit.
#[test]
fn a_stack_of_entries_of_any_height_keeps_each_entrys_bits() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let workers = ThreadPool::global().workers();
    let mut cases = Cases::new(0x57AC_4ED5);
    let heights: [(&str, Vec<usize>); 3] = [
        ("mixed heights", vec![3, 17, 49, 1, 8, 3, 17, 49, 1, 8]),
        ("three-row entries", vec![3; 12]),
        ("a pair", vec![17, 3]),
    ];
    for (mr, nr) in [(8usize, 12usize), (16, 16)] {
        let kernel = exo_kernel(Arc::new(generator.generate(mr, nr).unwrap()));
        let driver = BlisGemm::new(BlockingParams { mc: 2 * mr + 8, kc: 24, nc: 3 * nr, mr, nr })
            .with_kernel(kernel)
            .with_threads(0);
        for (alpha, beta) in [(1.0f32, 0.0f32), (0.75, 0.0), (-1.5, 0.75)] {
            for (what, rows) in &heights {
                let (n, k) = (cases.usize_in(3 * nr + 1, 4 * nr), cases.usize_in(25, 60));
                let mut stored = |rows, cols, poison| {
                    let seed = cases.next_u64() | 1;
                    Stored::random(rows, cols, &mut cases, poison_filler(seed, poison))
                };
                let b = stored(k, n, false);
                let ops: Vec<Op> = (0..rows.len())
                    .map(|e| if (e + rows.len()) % 2 == 0 { Op::Transpose } else { Op::None })
                    .collect();
                let acts: Vec<Stored> = rows
                    .iter()
                    .zip(&ops)
                    .map(|(&m, &op)| {
                        let (r, c) = if op == Op::Transpose { (k, m) } else { (m, k) };
                        stored(r, c, false)
                    })
                    .collect();
                // beta == 0 must never read C: poison it.
                let c0: Vec<Stored> = rows.iter().map(|&m| stored(m, n, beta == 0.0)).collect();
                let clone = |s: &Stored| Stored { data: s.data.clone(), ..*s };
                let mut cs: Vec<Stored> = c0.iter().map(clone).collect();
                let batch: GemmBatch<'_> = cs
                    .iter_mut()
                    .enumerate()
                    .map(|(e, c)| problem(&acts[e], ops[e], &b, c, (alpha, beta)))
                    .collect();
                let report = driver.gemm_batch(batch);
                let who = format!("{mr}x{nr}, alpha {alpha}, beta {beta}, {what} ({n}x{k})");
                assert_eq!(
                    report.stacked_passes,
                    stacks_for(rows.len(), workers),
                    "{who} on {workers} workers"
                );
                let bits = |s: &Stored| s.data.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
                for (e, got) in cs.iter().enumerate() {
                    let stats = report.outcomes[e].as_ref().expect("healthy entry");
                    assert_eq!((stats.m, stats.n, stats.k), (rows[e], n, k), "{who}: entry {e}");
                    for (reference, executor) in
                        [("the per-entry loop", &driver as &dyn GemmExecutor), ("NaiveGemm", &NaiveGemm)]
                    {
                        let mut want = clone(&c0[e]);
                        executor.gemm(problem(&acts[e], ops[e], &b, &mut want, (alpha, beta))).unwrap();
                        assert_eq!(bits(got), bits(&want), "{who}: entry {e} against {reference}");
                    }
                }
            }
        }
    }
}

/// An executor that notes which thread ran each batch, and holds its first
/// batch until the test lets it go.
struct Observed<E> {
    inner: E,
    ran_on: mpsc::Sender<ThreadId>,
    /// Taken by the first batch: it announces itself on the sender, then
    /// waits on the receiver.
    first: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl<E: GemmBatchExecutor> GemmBatchExecutor for Observed<E> {
    fn gemm_batch(&self, batch: GemmBatch<'_>) -> BatchReport {
        self.ran_on.send(std::thread::current().id()).expect("the test outlives the service");
        if let Some((inside, release)) = self.first.lock().unwrap().take() {
            inside.send(()).expect("the test is listening");
            release.recv().expect("the test releases the first batch");
        }
        self.inner.gemm_batch(batch)
    }
}

/// The service owns no thread. A job submitted while another caller is
/// inside a pass returns unresolved at once and is run by *that* caller's
/// thread; a job submitted to an idle service runs on the submitting
/// thread, inside `submit`, and its handle comes back resolved.
#[test]
fn the_submitter_that_finds_the_queue_idle_runs_the_batch() {
    let executor = BlisGemm::new(BlockingParams::carmel_defaults(8, 12));
    let mut cases = Cases::new(0x5E27_0004);
    let cases: Vec<Case> = (0..3).map(|_| Case::random(&mut cases, &executor)).collect();
    let (ran_on, ran_on_rx) = mpsc::channel();
    let ((inside, is_inside), (release, released)) = (mpsc::channel(), mpsc::channel());
    let service =
        GemmService::new(Observed { inner: executor, ran_on, first: Mutex::new(Some((inside, released))) });

    let (helper, first, second) = std::thread::scope(|scope| {
        let helper = scope.spawn(|| {
            (std::thread::current().id(), service.submit(cases[0].job()).expect("accepting").wait())
        });
        is_inside.recv().expect("the helper's pass started");
        let second = service.submit(cases[1].job()).expect("accepting");
        assert!(
            second.wait_timeout(Duration::ZERO).is_none(),
            "queued behind the helper's pass, not run here"
        );
        release.send(()).expect("the pass is waiting");
        let (helper, first) = helper.join().expect("helper");
        (helper, first, second)
    });
    cases[0].check(&first.unwrap().c, "the helper's own job");
    // The helper left `submit` only after finding the queue empty.
    let second = second.wait_timeout(Duration::ZERO).expect("resolved before the helper returned");
    cases[1].check(&second.unwrap().c, "the job queued behind it");
    assert_eq!(ran_on_rx.try_iter().collect::<Vec<_>>(), [helper, helper], "both passes ran on the helper");

    let third = service.submit(cases[2].job()).expect("accepting");
    let third = third.wait_timeout(Duration::ZERO).expect("an idle service returns a resolved handle");
    cases[2].check(&third.unwrap().c, "the idle service's job");
    assert_eq!(ran_on_rx.try_iter().collect::<Vec<_>>(), [std::thread::current().id()]);
    let stats = service.stats();
    assert_eq!((stats.jobs_submitted, stats.jobs_completed, stats.batches), (3, 3, 3), "{stats}");
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

/// Four callers, 64 jobs each, taking turns at the three doors, against a
/// queue of two — with passes of one job and of up to eight. Whatever the
/// interleaving: a refused job comes back bit-equal, every accepted one
/// resolves (once: `wait` consumes the handle) bit-identical to the
/// per-call run, the queue never held more than its bound, no pass
/// exceeded `max_batch`, and the books balance.
#[test]
fn three_doors_and_a_queue_of_two_lose_and_duplicate_nothing() {
    const CALLERS: usize = 4;
    const JOBS: usize = 64;
    let reference = CachedTunedGemm::new(TunedGemm::new());
    let mut cases = Cases::new(0x5E27_0005);
    let per_caller: Vec<Vec<Case>> = (0..CALLERS)
        .map(|_| (0..JOBS).map(|_| Case::random(&mut cases, reference.tuned())).collect())
        .collect();
    for max_batch in [1, 8] {
        let service = GemmService::with_config(
            CachedTunedGemm::new(TunedGemm::new()),
            ServiceConfig { queue_capacity: 2, max_batch },
        );
        let accepted: usize = std::thread::scope(|scope| {
            let callers: Vec<_> = per_caller
                .iter()
                .map(|caller| {
                    let service = &service;
                    scope.spawn(move || {
                        let mut handles: Vec<(&Case, JobHandle)> = Vec::new();
                        for (j, case) in caller.iter().enumerate() {
                            let (offered, reason) = match j % 3 {
                                0 => (service.submit(case.job()), None),
                                1 => (service.try_submit(case.job()), Some(SubmitErrorReason::QueueFull)),
                                _ => (
                                    service.submit_timeout(case.job(), Duration::from_micros(20)),
                                    Some(SubmitErrorReason::Timeout),
                                ),
                            };
                            match offered {
                                Ok(handle) => handles.push((case, handle)),
                                Err(refused) => {
                                    assert_eq!(Some(refused.reason()), reason, "job {j}");
                                    assert_eq!(
                                        job_bits(&mut refused.into_job()),
                                        job_bits(&mut case.job()),
                                        "refused job {j} comes back as submitted"
                                    );
                                }
                            }
                        }
                        let accepted = handles.len();
                        for (case, handle) in handles {
                            case.check(&handle.wait().expect("an accepted job completes").c, "mixed doors");
                        }
                        accepted
                    })
                })
                .collect();
            callers.into_iter().map(|caller| caller.join().expect("caller")).sum()
        });
        let stats = service.stats();
        assert!(accepted >= CALLERS * JOBS.div_ceil(3), "blocking submits are always accepted: {accepted}");
        assert_eq!(
            (stats.jobs_submitted, stats.jobs_completed, stats.jobs_failed),
            (accepted as u64, accepted as u64, 0),
            "max_batch {max_batch}: {stats}"
        );
        assert!(
            stats.queue_highwater <= 2 && stats.largest_batch <= max_batch,
            "max_batch {max_batch}: {stats}"
        );
    }
}

/// One executor behind any number of services, both doors delegating to
/// it; when a hold is set, its first call waits for the test (as
/// [`Observed`]'s does), so that jobs submitted meanwhile queue up into one
/// contended pass.
struct Shared {
    inner: Arc<CachedTunedGemm>,
    hold: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl Shared {
    fn pass_the_hold(&self) {
        if let Some((inside, release)) = self.hold.lock().unwrap().take() {
            inside.send(()).expect("the test is listening");
            release.recv().expect("the test releases the first pass");
        }
    }
}

impl GemmBatchExecutor for Shared {
    fn gemm_batch(&self, batch: GemmBatch<'_>) -> BatchReport {
        self.pass_the_hold();
        self.inner.gemm_batch(batch)
    }

    fn gemm_one(&self, problem: GemmProblem<'_>) -> EntryReport {
        self.pass_the_hold();
        self.inner.gemm_one(problem)
    }
}

/// The same jobs through the four ways onto one executor: a per-call
/// `TunedGemm::gemm` each (`Case::random`'s baseline), one `gemm_batch` of
/// all of them, a lone `submit` each — a pass of one, through the
/// executor's one-entry door — and all of them queued behind a held pass
/// into one contended pass. Every `C` is bit-identical to the per-call one,
/// and the warm lone path builds no runner.
#[test]
fn four_doors_onto_one_executor_give_the_same_bits() {
    const JOBS: usize = 12;
    let executor = Arc::new(CachedTunedGemm::new(TunedGemm::new()));
    let built = || executor.tuned().drivers().iter().map(|d| d.runners_built()).sum::<u64>();
    let mut cases = Cases::new(0x5E27_0006);
    let cases: Vec<Case> = (0..JOBS).map(|_| Case::random(&mut cases, executor.tuned())).collect();

    let mut jobs: Vec<GemmJob> = cases.iter().map(Case::job).collect();
    let report = executor.gemm_batch(jobs.iter_mut().map(GemmJob::problem).collect());
    for ((case, job), outcome) in cases.iter().zip(jobs).zip(&report.outcomes) {
        outcome.as_ref().expect("batch entry");
        case.check(&job.into_c(), "gemm_batch");
    }

    let lone = GemmService::new(Shared { inner: Arc::clone(&executor), hold: Mutex::new(None) });
    let warm = built();
    for case in &cases {
        let handle = lone.submit(case.job()).expect("accepting");
        let done = handle.wait_timeout(Duration::ZERO).expect("an idle service returns a resolved handle");
        let done = done.expect("a lone job completes");
        assert!(done.stats.batched, "the one-entry door is a door of the batch executor");
        case.check(&done.c, "lone submit");
    }
    assert_eq!(built(), warm, "a warm lone submit builds no runner");
    let stats = lone.stats();
    assert_eq!((stats.jobs_completed, stats.batches, stats.largest_batch), (JOBS as u64, JOBS as u64, 1));

    let ((inside, is_inside), (release, released)) = (mpsc::channel(), mpsc::channel());
    let contended =
        GemmService::new(Shared { inner: Arc::clone(&executor), hold: Mutex::new(Some((inside, released))) });
    let handles: Vec<JobHandle> = std::thread::scope(|scope| {
        let first = scope.spawn(|| contended.submit(cases[0].job()).expect("accepting"));
        is_inside.recv().expect("the first pass is held");
        let queued: Vec<JobHandle> =
            cases[1..].iter().map(|case| contended.submit(case.job()).expect("accepting")).collect();
        release.send(()).expect("the first pass is waiting");
        [first.join().expect("the draining submitter")].into_iter().chain(queued).collect()
    });
    for (case, handle) in cases.iter().zip(handles) {
        case.check(&handle.wait().expect("a contended job completes").c, "contended pass");
    }
    let stats = contended.stats();
    assert_eq!(
        (stats.jobs_completed, stats.batches, stats.largest_batch),
        (JOBS as u64, 2, JOBS - 1),
        "{stats}"
    );
}
