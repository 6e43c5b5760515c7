//! The per-layer ledger of a traced run: every layer measured **from
//! outside**, by timing calls into its public functions. Nothing here is
//! an end-to-end number; each metric names (in the README) the end-to-end
//! metric it should move and on which workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use exo_serve::{CachedTunedGemm, GemmBatch, GemmBatchExecutor};
use exo_tune::TunedGemm;
use gemm_blis::{
    exo_kernel, exo_kernel_simd, exo_kernel_superword, exo_kernel_tape, pack_a_into, pack_b_into, BlisGemm,
    BlockingParams, GemmExecutor, KernelImpl, MatRef, ThreadPool,
};
use ukernel_gen::{GeneratedKernel, MicroKernelGenerator};

use crate::batch::BatchSharedB;
use crate::inputs::{fill, stream};
use crate::replay::{replay, Dispatch, PhaseTimes};
use crate::serve::{ServeResult, ServeSmall};
use crate::stats::{geomean, median};
use crate::sweep::fixed_8x12;
use crate::trace::{durations_us, Tracer};
use crate::workload::{problem, Shape, Workload, BATCH_ENTRIES};

/// Metric name to value; the caller prints them in `PER_LAYER` order.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Median seconds of `f` over `reps` calls.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median seconds per call of `f`, timed in chunks of `chunk` calls for
/// about `budget_s` (at least 5 chunks): for calls too short to time singly.
fn chunked_secs(chunk: usize, budget_s: f64, mut f: impl FnMut()) -> f64 {
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let mut samples = Vec::new();
    while samples.len() < 5 || Instant::now() < deadline {
        let started = Instant::now();
        for _ in 0..chunk {
            f();
        }
        samples.push(started.elapsed().as_secs_f64() / chunk as f64);
    }
    median(&samples)
}

/// A generated kernel whose native build has settled.
fn settled_kernel(mr: usize, nr: usize) -> Arc<GeneratedKernel> {
    let generator = MicroKernelGenerator::new(exo_isa::neon_f32());
    let kernel = Arc::new(generator.generate(mr, nr).expect("a design-space tile generates"));
    let _ = kernel.native_wait();
    kernel
}

fn analytical(mr: usize, nr: usize) -> BlockingParams {
    BlockingParams::analytical(&carmel_sim::CacheHierarchy::carmel(), mr, nr, 4)
}

/// GFLOPS of `KernelDispatch::run` on packed panels that stay in L1,
/// measured for about `budget_s`.
fn ukernel_gflops(imp: &KernelImpl, kc: usize, budget_s: f64) -> f64 {
    let (a, b) = (fill(1, 0, kc * imp.mr), fill(1, 1, kc * imp.nr));
    let mut c = vec![0.0f32; imp.mr * imp.nr];
    let mut dispatch = imp.dispatcher();
    let secs = chunked_secs(32, budget_s, || {
        dispatch.run(kc, black_box(&a), black_box(&b), &mut c).expect("isolated micro-kernel call");
    });
    black_box(&c);
    2.0 * (imp.mr * imp.nr * kc) as f64 / secs / 1e9
}

/// Repetitions of a `flops`-sized call that fit about `budget_s` at 20
/// GFLOPS, between 3 and 200.
fn reps_for(flops: f64, budget_s: f64) -> usize {
    ((budget_s / (flops / 20e9)) as usize).clamp(3, 200)
}

/// One of the eight small shapes with operands of its own.
struct SmallGemm {
    shape: Shape,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

pub struct Ledger<'a> {
    pub workload: Workload,
    pub seed: u64,
    /// The traced quarter-run of `serve_small`, when that is the workload.
    pub serve: Option<(&'a ServeSmall, ServeResult)>,
    /// The workload's own batch executor, when it is `batch_shared_b`.
    pub batch: Option<&'a mut BatchSharedB>,
}

impl Ledger<'_> {
    /// Measures every per-layer metric except the set-up and overhead ones
    /// the caller already holds and, unless the workload is `serve_small`,
    /// the service's; replay spans are appended to `tr`.
    pub fn run(self, tr: &mut Tracer) -> Metrics {
        let mut m = Metrics::new();
        let shapes = self.workload.shapes();
        let (k8x12, fixed) = fixed_8x12();
        let _ = k8x12.native_wait();

        // ukernel-gen (and through it exo-ir, exo-sched, exo-isa).
        let gen = MicroKernelGenerator::new(exo_isa::neon_f32());
        m.insert("ukernel-gen.generate_ms", median_secs(3, || drop(black_box(gen.generate(8, 12)))) * 1e3);

        // exo-tune, cold: a fresh tuner over the workload's shapes.
        let tuned = TunedGemm::new();
        let started = Instant::now();
        let verdicts: Vec<_> =
            shapes.iter().map(|s| tuned.plan(s.m, s.n, s.k).expect("the workload's shapes tune")).collect();
        m.insert("exo-tune.plan_cold_ms", started.elapsed().as_secs_f64() * 1e3);
        let mut tiles: Vec<(usize, usize)> = verdicts.iter().map(|v| (v.mr, v.nr)).collect();
        tiles.sort_unstable();
        tiles.dedup();
        m.insert("exo-tune.distinct_tiles", tiles.len() as f64);
        m.insert("ukernel-gen.generator_invocations", tuned.registry().generator_invocations() as f64);
        for verdict in &verdicts {
            let _ = tuned.tuner().kernel_for(verdict).expect("verdict kernel").native_wait();
        }

        // exo-tune, warm.
        let (s0, v0) = (shapes[0], &verdicts[0]);
        m.insert(
            "exo-tune.plan_warm_ns",
            chunked_secs(64, 0.05, || drop(black_box(tuned.plan(s0.m, s0.n, s0.k)))) * 1e9,
        );
        m.insert(
            "exo-tune.kernel_impl_ns",
            chunked_secs(64, 0.05, || drop(black_box(tuned.tuner().kernel_impl_for(v0)))) * 1e9,
        );

        // exo-aot / exo-codegen: the isolated micro-kernel, per tile and tier.
        for (name, (mr, nr)) in [
            ("exo-aot.ukernel_gflops.8x12", (8, 12)),
            ("exo-aot.ukernel_gflops.12x8", (12, 8)),
            ("exo-aot.ukernel_gflops.4x24", (4, 24)),
        ] {
            m.insert(name, ukernel_gflops(&exo_kernel(settled_kernel(mr, nr)), analytical(mr, nr).kc, 0.15));
        }
        let kc = analytical(8, 12).kc;
        m.insert(
            "exo-codegen.simd_ukernel_gflops",
            ukernel_gflops(&exo_kernel_simd(Arc::clone(&k8x12)), kc, 0.15),
        );
        m.insert(
            "exo-codegen.superword_ukernel_gflops",
            ukernel_gflops(&exo_kernel_superword(Arc::clone(&k8x12)), kc, 0.15),
        );
        m.insert(
            "exo-codegen.tape_ukernel_gflops",
            ukernel_gflops(&exo_kernel_tape(Arc::clone(&k8x12)), kc, 0.15),
        );

        self.packing(&mut m);
        self.dispatch_overheads(&fixed, &mut m);
        self.threads(&fixed, &mut m);
        let whole_vs_ukernel = self.phase_shares(&tuned, &fixed, tr, &mut m);
        m.insert("gemm-blis.driver_efficiency", whole_vs_ukernel);
        self.tuner_regret(&tuned, &fixed, &shapes, &mut m);

        let seed = self.seed;
        match self.batch {
            Some(batch) => shared_b_vs_solo(batch, &mut m),
            None => shared_b_vs_solo(&mut BatchSharedB::setup(seed).0, &mut m),
        }
        // Unless the workload is `serve_small`, the caller asks a
        // `serve_small` child process for the service's numbers.
        if let Some((ctx, result)) = self.serve {
            serve_layer(ctx, &result, &mut m);
            tr.absorb(result.tracer);
        }
        m
    }

    /// gemm-blis packing: one `mc x kc` block of `A`, one `kc x nc` block of
    /// `B`, bytes computed from the block sizes (read once, written once).
    fn packing(&self, m: &mut Metrics) {
        let BlockingParams { mc, kc, nc, mr, nr } = analytical(8, 12);
        let (a, b) = (fill(1, 2, mc * kc), fill(1, 3, kc * nc));
        let mut out = vec![0.0f32; mc.div_ceil(mr) * mr * kc];
        let a_view = MatRef::from_slice(&a, mc, kc);
        let secs = median_secs(60, || pack_a_into(&mut out, black_box(a_view), 0, 0, mc, kc, mr, 1.0));
        m.insert("gemm-blis.pack_a_gbps", 2.0 * (mc * kc * 4) as f64 / secs / 1e9);
        let mut out = vec![0.0f32; nc.div_ceil(nr) * nr * kc];
        let b_view = MatRef::from_slice(&b, kc, nc);
        let secs = median_secs(60, || pack_b_into(&mut out, black_box(b_view), 0, 0, kc, nc, nr));
        m.insert("gemm-blis.pack_b_gbps", 2.0 * (kc * nc * 4) as f64 / secs / 1e9);
    }

    /// gemm-blis per-call fixed costs: building a dispatch handle, proving a
    /// new `kc`, and what a reused `GemmRunner` saves on the small shapes.
    fn dispatch_overheads(&self, fixed: &BlisGemm, m: &mut Metrics) {
        let imp = fixed.kernel();
        m.insert(
            "gemm-blis.dispatcher_build_ns",
            chunked_secs(16, 0.05, || drop(black_box(imp.dispatcher()))) * 1e9,
        );

        let kc = 37;
        let (a, b) = (fill(1, 4, kc * imp.mr), fill(1, 5, kc * imp.nr));
        let mut c = vec![0.0f32; imp.mr * imp.nr];
        let (mut first, mut steady) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            let mut dispatch = imp.dispatcher();
            for samples in [&mut first, &mut steady] {
                let started = Instant::now();
                dispatch.run(kc, &a, &b, &mut c).expect("micro-kernel call");
                samples.push(started.elapsed().as_secs_f64());
            }
        }
        m.insert("gemm-blis.first_run_proof_ns", (median(&first) - median(&steady)) * 1e9);

        let mut small: Vec<SmallGemm> = Workload::ServeSmall
            .shapes()
            .into_iter()
            .enumerate()
            .map(|(i, shape)| SmallGemm {
                shape,
                a: fill(1, 10 + i as u64, shape.m * shape.k),
                b: fill(1, 20 + i as u64, shape.k * shape.n),
                c: vec![0.0; shape.m * shape.n],
            })
            .collect();
        let per_call = chunked_secs(4, 0.1, || {
            for g in small.iter_mut() {
                fixed.gemm(problem(&g.a, &g.b, &mut g.c, g.shape.dims())).expect("small GEMM");
            }
        });
        let mut runner = fixed.runner();
        let reused = chunked_secs(4, 0.1, || {
            for g in small.iter_mut() {
                runner.gemm(problem(&g.a, &g.b, &mut g.c, g.shape.dims())).expect("small GEMM");
            }
        });
        m.insert("gemm-blis.runner_reuse_ratio", per_call / reused);

        let pool = ThreadPool::global();
        let secs = chunked_secs(16, 0.1, || {
            pool.scope_run((0..pool.workers()).map(|_| Box::new(|| {}) as gemm_blis::PoolJob<'_>).collect());
        });
        m.insert("gemm-blis.pool_handoff_us", secs * 1e6);
    }

    /// gemm-blis threading: the pool's full width against one thread at 1024.
    fn threads(&self, fixed: &BlisGemm, m: &mut Metrics) {
        let n = 1024;
        let (a, b) = (
            fill(self.seed, stream::operand(900, 0), n * n),
            fill(self.seed, stream::operand(900, 1), n * n),
        );
        let mut c = vec![0.0f32; n * n];
        let wide = fixed.clone().with_threads(0);
        let one = median_secs(5, || drop(fixed.gemm(problem(&a, &b, &mut c, (n, n, n)))));
        let all = median_secs(5, || drop(wide.gemm(problem(&a, &b, &mut c, (n, n, n)))));
        m.insert("gemm-blis.mt_speedup", one / all);
    }

    /// gemm-blis phase shares by replay of the workload's traced shapes,
    /// time-weighted over them. Returns whole-call GFLOPS over the isolated
    /// micro-kernel's, same tile and `kc` (geomean over the shapes).
    fn phase_shares(&self, tuned: &TunedGemm, fixed: &BlisGemm, tr: &mut Tracer, m: &mut Metrics) -> f64 {
        let mut sum = PhaseTimes::default();
        let mut efficiency = Vec::new();
        for (i, dims) in self.workload.replay_dims().into_iter().enumerate() {
            let (rows, cols, depth) = dims;
            let dispatch = if self.workload == Workload::Square {
                Dispatch { blocking: fixed.blocking, kernel: fixed.kernel().clone() }
            } else {
                let verdict = tuned.plan(rows, cols, depth).expect("replayed shape tunes");
                Dispatch {
                    blocking: verdict.blocking(),
                    kernel: tuned.tuner().kernel_impl_for(&verdict).expect("verdict kernel"),
                }
            };
            let a = fill(self.seed, stream::operand(1000 + i, 0), rows * depth);
            let b = fill(self.seed, stream::operand(1000 + i, 1), depth * cols);
            let flops = 2.0 * (rows * cols * depth) as f64;
            let t = replay(&dispatch, dims, &a, &b, reps_for(2.0 * flops, 0.3), tr, i as u32);
            println!(
                "  replay {rows}x{cols}x{depth} on {}: whole {:.3} ms = pack_a {:.1}% + pack_b {:.1}% + ukernel {:.1}% + other {:.1}%",
                dispatch.kernel.name,
                t.whole_s * 1e3,
                100.0 * t.pack_a_s / t.whole_s,
                100.0 * t.pack_b_s / t.whole_s,
                100.0 * t.ukernel_s / t.whole_s,
                100.0 * (t.whole_s - t.pack_a_s - t.pack_b_s - t.ukernel_s) / t.whole_s,
            );
            let alone = ukernel_gflops(&dispatch.kernel, dispatch.blocking.kc.min(depth), 0.1);
            efficiency.push(flops / t.whole_s / 1e9 / alone);
            sum.whole_s += t.whole_s;
            sum.pack_a_s += t.pack_a_s;
            sum.pack_b_s += t.pack_b_s;
            sum.ukernel_s += t.ukernel_s;
        }
        m.insert("gemm-blis.pack_a_share", sum.pack_a_s / sum.whole_s);
        m.insert("gemm-blis.pack_b_share", sum.pack_b_s / sum.whole_s);
        m.insert("gemm-blis.ukernel_share", sum.ukernel_s / sum.whole_s);
        m.insert(
            "gemm-blis.other_share",
            (sum.whole_s - sum.pack_a_s - sum.pack_b_s - sum.ukernel_s) / sum.whole_s,
        );
        geomean(&efficiency)
    }

    /// exo-tune regret against one fixed tile: per shape, the time through
    /// `BlisGemm` with the 8x12 kernel over the time through `TunedGemm`
    /// (above 1: the verdict beats the fixed tile).
    fn tuner_regret(&self, tuned: &TunedGemm, fixed: &BlisGemm, shapes: &[Shape], m: &mut Metrics) {
        let ratios: Vec<f64> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let a = fill(self.seed, stream::operand(2000 + i, 0), s.m * s.k);
                let b = fill(self.seed, stream::operand(2000 + i, 1), s.k * s.n);
                let mut c = vec![0.0f32; s.m * s.n];
                let reps = reps_for(s.flops(), 0.05);
                let t_tuned = median_secs(reps, || drop(tuned.gemm(problem(&a, &b, &mut c, s.dims()))));
                let t_fixed = median_secs(reps, || drop(fixed.gemm(problem(&a, &b, &mut c, s.dims()))));
                t_fixed / t_tuned
            })
            .collect();
        m.insert("exo-tune.tuned_vs_8x12", geomean(&ratios));
        m.insert("exo-tune.min_tuned_vs_8x12", ratios.iter().cloned().fold(f64::INFINITY, f64::min));
    }
}

/// exo-serve batch path: one 16-entry batch sharing `B` against 16
/// single-entry batches of the same shape (above 1: batching pays).
fn shared_b_vs_solo(batch: &mut BatchSharedB, m: &mut Metrics) {
    let together = batch.time_batches(0, BATCH_ENTRIES, 5);
    let solo = batch.time_batches(0, 1, 5 * BATCH_ENTRIES);
    m.insert("exo-serve.shared_b_vs_solo", solo * BATCH_ENTRIES as f64 / together);
}

/// exo-serve: the service's spans and counters, and the same jobs run
/// directly (no queue) one call at a time and in batches of 32.
pub fn serve_layer(ctx: &ServeSmall, result: &ServeResult, m: &mut Metrics) {
    // The rtt phase's spans come first in the merged trace.
    let rtt_spans = &result.tracer.spans()[..result.rtt_spans];
    m.insert("exo-serve.job_build_us", median(&durations_us(rtt_spans, "exo-serve.job_build")));
    m.insert("exo-serve.submit_us", median(&durations_us(rtt_spans, "exo-serve.submit")));
    m.insert("exo-serve.wait_us", median(&durations_us(rtt_spans, "exo-serve.wait")));
    m.insert("exo-serve.rtt_p99_us", result.rtt_p99_us);
    m.insert("exo-serve.window_latency_p50_us", result.window_latency_p50_us);
    m.insert("exo-serve.mean_batch", result.mean_batch);
    m.insert("exo-serve.largest_batch", result.stats.largest_batch as f64);
    m.insert("exo-serve.queue_highwater", result.stats.queue_highwater as f64);
    m.insert("exo-serve.retries", result.stats.retries as f64);
    m.insert("exo-serve.degraded_completions", result.stats.degraded_completions as f64);
    m.insert("exo-serve.jobs_failed", result.stats.jobs_failed as f64);

    // The same jobs, directly.
    const JOBS: usize = 32;
    let tuned = TunedGemm::new();
    let cached = CachedTunedGemm::new(TunedGemm::new());
    let mut outputs: Vec<Vec<f32>> = (0..JOBS).map(|_| vec![0.0f32; 48 * 40]).collect();
    let per_call = chunked_secs(1, 0.15, || {
        for (i, c) in outputs.iter_mut().enumerate() {
            let (dims, a, b) = ctx.job_inputs(i);
            tuned.gemm(problem(a, b, &mut c[..dims.0 * dims.1], dims)).expect("direct GEMM");
        }
    }) / JOBS as f64;
    let mut runners_built = 0;
    let mut batches = 0u64;
    let batched = chunked_secs(1, 0.15, || {
        let mut batch = GemmBatch::new();
        for (i, c) in outputs.iter_mut().enumerate() {
            let (dims, a, b) = ctx.job_inputs(i);
            batch.push(problem(a, b, &mut c[..dims.0 * dims.1], dims));
        }
        let report = cached.gemm_batch(batch);
        // Only the first batch may build runners; count the warm ones.
        if batches > 0 {
            runners_built += report.runners_built;
        }
        batches += 1;
    }) / JOBS as f64;
    m.insert("exo-serve.direct_per_call_us", per_call * 1e6);
    m.insert("exo-serve.direct_batched_us", batched * 1e6);
    m.insert("exo-serve.runners_built", runners_built as f64);
    m.insert("exo-serve.batched_vs_per_call", per_call / batched);
    m.insert("exo-serve.service_vs_batched", result.jobs_per_s_raw * batched);

    // The micro-kernel alone on the same 32 jobs: one call per tile at
    // kc = k, on the verdict's kernel.
    let mut kernel_secs = 0.0;
    for i in 0..JOBS {
        let ((rows, cols, depth), _, _) = ctx.job_inputs(i);
        let verdict = tuned.plan(rows, cols, depth).expect("small shape tunes");
        let imp = tuned.tuner().kernel_impl_for(&verdict).expect("verdict kernel");
        let tile_flops = 2.0 * (imp.mr * imp.nr * depth) as f64;
        let calls = (rows.div_ceil(imp.mr) * cols.div_ceil(imp.nr)) as f64;
        kernel_secs += calls * tile_flops / (ukernel_gflops(&imp, depth, 0.002) * 1e9);
    }
    // Equal flops on both sides, so the rate ratio is the time ratio.
    m.insert("exo-serve.small_vs_kernel_rate", kernel_secs / (batched * JOBS as f64));
}
