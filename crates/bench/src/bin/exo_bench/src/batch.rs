//! `batch_shared_b`: batched conv inference. Each batch is 16 entries that
//! borrow the same weight matrix `B` with their own activations `A`,
//! through `CachedTunedGemm::gemm_batch` with the pool at its full width.
//! One caller, one batch outstanding (a closed loop of 1).

use std::time::{Duration, Instant};

use exo_serve::{BatchReport, CachedTunedGemm, GemmBatch, GemmBatchExecutor};
use exo_tune::TunedGemm;

use crate::calib::{normalised, Calibrator};
use crate::inputs::{fill, stream, Rng};
use crate::stats::median;
use crate::sweep::tune_and_settle;
use crate::trace::Tracer;
use crate::verify::{sampled_ok, Tally};
use crate::workload::{fold, problem, Measured, SetupInfo, Shape, Workload, BATCH_ENTRIES};

/// Entries checked per batch entry after the clock stops (256 per shape).
const VERIFY_SAMPLES_PER_ENTRY: usize = 256 / BATCH_ENTRIES;
const MIN_ROUNDS: usize = 3;

struct SharedB {
    shape: Shape,
    b: Vec<f32>,
    a: Vec<Vec<f32>>,
    c: Vec<Vec<f32>>,
}

pub struct BatchSharedB {
    exec: CachedTunedGemm,
    groups: Vec<SharedB>,
    next_op: u32,
}

impl BatchSharedB {
    pub fn setup(seed: u64) -> (BatchSharedB, SetupInfo) {
        let shapes = Workload::BatchSharedB.shapes();
        let mut info = SetupInfo::default();
        // 0 threads = the pool's full width for the entries' block loops.
        let tuned = TunedGemm::new().with_threads(0);
        tune_and_settle(&tuned, &shapes, &mut info);
        let groups = shapes
            .iter()
            .enumerate()
            .map(|(g, &shape)| {
                let set = g * (BATCH_ENTRIES + 1);
                SharedB {
                    shape,
                    b: fill(seed, stream::operand(set, 1), shape.k * shape.n),
                    a: (0..BATCH_ENTRIES)
                        .map(|e| fill(seed, stream::operand(set + 1 + e, 0), shape.m * shape.k))
                        .collect(),
                    c: vec![vec![0.0; shape.m * shape.n]; BATCH_ENTRIES],
                }
            })
            .collect();
        let mut this = BatchSharedB { exec: CachedTunedGemm::new(tuned), groups, next_op: 0 };
        let mut off = Tracer::off();
        for g in 0..this.groups.len() {
            let report = this.run_batch(g, BATCH_ENTRIES, &mut off);
            assert!(report.outcomes.iter().all(|o| o.is_ok()), "warm-up batch");
        }
        (this, info)
    }

    /// One batch of the first `entries` entries of group `g`.
    pub fn run_batch(&mut self, g: usize, entries: usize, tr: &mut Tracer) -> BatchReport {
        let op = self.next_op;
        self.next_op = self.next_op.wrapping_add(1);
        let group = &mut self.groups[g];
        let (m, n, k) = group.shape.dims();
        let mut batch = GemmBatch::new();
        for (a, c) in group.a.iter().zip(group.c.iter_mut()).take(entries) {
            batch.push(problem(a, &group.b, c, (m, n, k)));
        }
        let span = tr.begin("exo-serve.gemm_batch", op);
        let report = self.exec.gemm_batch(batch);
        tr.end(span);
        report
    }

    /// Median time of `reps` batches of the first `entries` entries of
    /// group `g` (the ledger's shared-vs-solo comparison).
    pub fn time_batches(&mut self, g: usize, entries: usize, reps: usize) -> f64 {
        let mut off = Tracer::off();
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let started = Instant::now();
                let _ = self.run_batch(g, entries, &mut off);
                started.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    }

    pub fn measure(&mut self, seed: u64, seconds: f64, tr: &mut Tracer) -> Measured {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let cal = Calibrator::new();
        // Per shape: the normalised and the raw time of every batch.
        let mut samples: Vec<(Vec<f64>, Vec<f64>)> = self.groups.iter().map(|_| Default::default()).collect();
        let mut rates = vec![cal.rate()];
        let mut tally = Tally::default();
        let (mut rounds, mut runners_built) = (0, 0);
        while rounds < MIN_ROUNDS || Instant::now() < deadline {
            for (g, (normal, raw)) in samples.iter_mut().enumerate() {
                let before = rates[rates.len() - 1];
                let started = Instant::now();
                let report = self.run_batch(g, BATCH_ENTRIES, tr);
                let took = started.elapsed().as_secs_f64();
                rates.push(cal.rate());
                let failed = report.outcomes.iter().filter(|o| o.is_err()).count() as u64;
                tally.attempted += report.outcomes.len() as u64;
                tally.failed += failed;
                runners_built += report.runners_built;
                if failed == 0 {
                    normal.push(normalised(took, before, rates[rates.len() - 1]));
                    raw.push(took);
                }
            }
            rounds += 1;
        }

        let mut rng = Rng::new(seed, stream::VERIFY);
        for group in &self.groups {
            for (a, c) in group.a.iter().zip(&group.c) {
                if !sampled_ok(a, &group.b, c, group.shape.dims(), &mut rng, VERIFY_SAMPLES_PER_ENTRY) {
                    println!("  WRONG OUTPUT: {}x{}x{}", group.shape.m, group.shape.n, group.shape.k);
                    tally.failed += 1;
                }
            }
        }

        // A batch does 16 entries' worth of flops in one timed call.
        let shapes: Vec<Shape> = self
            .groups
            .iter()
            .map(|g| Shape::new(g.shape.m * BATCH_ENTRIES, g.shape.n, g.shape.k, 1))
            .collect();
        let times: Vec<f64> = samples.iter().map(|(normal, _)| median(normal)).collect();
        println!(
            "  {rounds} rounds of {} batches x {BATCH_ENTRIES} entries, {runners_built} runners built; calibration median {:.1} GFLOPS",
            shapes.len(),
            median(&rates)
        );
        for ((group, (_, raw)), (t, s)) in self.groups.iter().zip(&samples).zip(times.iter().zip(&shapes)) {
            println!(
                "  16 x {:>4}x{:<4}x{:<4}: {:>8.3} ms normalised ({:>8.3} raw), {:>6.2} GFLOPS",
                group.shape.m,
                group.shape.n,
                group.shape.k,
                t * 1e3,
                median(raw) * 1e3,
                s.flops() / t / 1e9
            );
        }
        let (gflops, latency_ms) = fold(&shapes, &times);
        let round_flops: f64 = shapes.iter().map(|s| s.flops()).sum();
        println!("  round flops / round time: {:.3} GFLOPS", round_flops / (latency_ms * 1e-3) / 1e9);
        Measured { gflops, latency_ms, calibration_gflops: median(&rates), tally }
    }
}
