//! The three single-GEMM workloads: `square` through a fixed-kernel
//! `BlisGemm`, `resnet50_layers` and `vgg16_layers` through `TunedGemm`.
//! One caller, one thread, one call outstanding (a closed loop of 1).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use exo_tune::TunedGemm;
use gemm_blis::{exo_kernel, BlisGemm, BlockingParams, GemmError, GemmExecutor};
use ukernel_gen::{GeneratedKernel, MicroKernelGenerator};

use crate::calib::{normalised, Calibrator};
use crate::inputs::{fill, stream, Rng};
use crate::stats::median;
use crate::trace::Tracer;
use crate::verify::{sampled_ok, Tally};
use crate::workload::{fold, problem, Measured, SetupInfo, Shape, Workload, SQUARE_REPS_PER_PASS};

/// Entries checked per shape after the clock stops.
const VERIFY_SAMPLES: usize = 256;
/// A run is whole passes; at least this many, however short `--seconds`.
const MIN_PASSES: usize = 3;

// One value per process: the size difference between variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Exec {
    /// `square`: analytical blocking, the generated 8x12 kernel.
    Fixed(BlisGemm),
    /// The DNN tables: kernel and blocking per shape from the tuner.
    Tuned(TunedGemm),
}

struct Operands {
    shape: Shape,
    reps_per_pass: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

pub struct Sweep {
    exec: Exec,
    operands: Vec<Operands>,
    next_op: u32,
}

/// The generated 8x12 kernel and the `BlisGemm` that `square` runs it
/// through: analytical blocking, one thread.
pub fn fixed_8x12() -> (Arc<GeneratedKernel>, BlisGemm) {
    let kernel =
        Arc::new(MicroKernelGenerator::new(exo_isa::neon_f32()).generate(8, 12).expect("8x12 generates"));
    let blocking = BlockingParams::analytical(&carmel_sim::CacheHierarchy::carmel(), 8, 12, 4);
    let driver = BlisGemm::new(blocking).with_kernel(exo_kernel(Arc::clone(&kernel)));
    (kernel, driver)
}

/// Waits for the native build of every distinct kernel and records how
/// long that took and whether each is ready.
pub fn settle_native(kernels: &[Arc<GeneratedKernel>], info: &mut SetupInfo) {
    for kernel in kernels {
        let started = Instant::now();
        let _ = kernel.native_wait();
        info.cold_build_ms += started.elapsed().as_secs_f64() * 1e3;
        info.native_total += 1;
        info.native_ready += usize::from(kernel.native().is_some());
    }
}

/// Tunes every shape and settles the native build of every verdict's
/// kernel: the set-up the tuned executors share.
pub fn tune_and_settle(tuned: &TunedGemm, shapes: &[Shape], info: &mut SetupInfo) {
    let mut tiles = BTreeSet::new();
    let mut kernels = Vec::new();
    for shape in shapes {
        let verdict = tuned.plan(shape.m, shape.n, shape.k).expect("the workload's shapes tune");
        if tiles.insert((verdict.mr, verdict.nr)) {
            kernels.push(tuned.tuner().kernel_for(&verdict).expect("a verdict's kernel generates"));
        }
    }
    settle_native(&kernels, info);
}

impl Sweep {
    /// Generates kernels, tunes, waits for native code, makes the seeded
    /// operands and runs one untimed pass.
    pub fn setup(workload: Workload, seed: u64) -> (Sweep, SetupInfo) {
        let shapes = workload.shapes();
        let mut info = SetupInfo::default();
        let exec = if workload == Workload::Square {
            let (kernel, driver) = fixed_8x12();
            settle_native(std::slice::from_ref(&kernel), &mut info);
            Exec::Fixed(driver)
        } else {
            let tuned = TunedGemm::new();
            tune_and_settle(&tuned, &shapes, &mut info);
            Exec::Tuned(tuned)
        };
        let operands = shapes
            .iter()
            .enumerate()
            .map(|(idx, &shape)| Operands {
                shape,
                reps_per_pass: if workload == Workload::Square { SQUARE_REPS_PER_PASS[idx] } else { 1 },
                a: fill(seed, stream::operand(idx, 0), shape.m * shape.k),
                b: fill(seed, stream::operand(idx, 1), shape.k * shape.n),
                c: vec![0.0; shape.m * shape.n],
            })
            .collect();
        let mut sweep = Sweep { exec, operands, next_op: 0 };
        let mut off = Tracer::off();
        for idx in 0..sweep.operands.len() {
            sweep.run_one(idx, &mut off).expect("warm-up GEMM");
        }
        (sweep, info)
    }

    /// One GEMM of shape `idx`, `beta = 0`. With tracing on, the tuned path
    /// is issued as the four calls `TunedGemm::execute` makes, a span each.
    fn run_one(&mut self, idx: usize, tr: &mut Tracer) -> Result<(), GemmError> {
        let op = self.next_op;
        self.next_op = self.next_op.wrapping_add(1);
        let o = &mut self.operands[idx];
        let (m, n, k) = o.shape.dims();
        let problem = problem(&o.a, &o.b, &mut o.c, (m, n, k));
        let backend = |e: exo_tune::TuneError| GemmError::Backend {
            backend: "exo-tune".into(),
            message: e.to_string(),
        };
        match &self.exec {
            Exec::Tuned(tuned) if tr.enabled() => {
                let span = tr.begin("exo-tune.plan", op);
                let verdict = tuned.plan(m, n, k);
                tr.end(span);
                let verdict = verdict.map_err(backend)?;
                let span = tr.begin("exo-tune.kernel_impl_for", op);
                let kernel = tuned.tuner().kernel_impl_for(&verdict);
                tr.end(span);
                let kernel = kernel.map_err(backend)?;
                let span = tr.begin("gemm-blis.driver_build", op);
                let driver =
                    BlisGemm::new(verdict.blocking()).with_threads(tuned.threads()).with_kernel(kernel);
                tr.end(span);
                let span = tr.begin("gemm-blis.gemm", op);
                let done = driver.gemm(problem);
                tr.end(span);
                done.map(|_| ())
            }
            Exec::Tuned(tuned) => tuned.gemm(problem).map(|_| ()),
            Exec::Fixed(driver) => {
                let span = tr.begin("gemm-blis.gemm", op);
                let done = driver.gemm(problem);
                tr.end(span);
                done.map(|_| ())
            }
        }
    }

    /// Runs whole passes for `seconds`, a calibration burst between every two
    /// GEMMs, then verifies the outputs.
    pub fn measure(&mut self, seed: u64, seconds: f64, tr: &mut Tracer) -> Measured {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let cal = Calibrator::new();
        // Per shape: the normalised and the raw time of every call.
        let mut samples: Vec<(Vec<f64>, Vec<f64>)> =
            self.operands.iter().map(|_| Default::default()).collect();
        let mut rates = vec![cal.rate()];
        let mut tally = Tally::default();
        let mut passes = 0;
        while passes < MIN_PASSES || Instant::now() < deadline {
            for (idx, (normal, raw)) in samples.iter_mut().enumerate() {
                for _ in 0..self.operands[idx].reps_per_pass {
                    let before = rates[rates.len() - 1];
                    let started = Instant::now();
                    let done = self.run_one(idx, tr);
                    let took = started.elapsed().as_secs_f64();
                    rates.push(cal.rate());
                    tally.attempted += 1;
                    match done {
                        Ok(()) => {
                            normal.push(normalised(took, before, rates[rates.len() - 1]));
                            raw.push(took);
                        }
                        Err(_) => tally.failed += 1,
                    }
                }
            }
            passes += 1;
        }

        // The clock has stopped: check the last output of every shape.
        let mut rng = Rng::new(seed, stream::VERIFY);
        for o in &self.operands {
            if !sampled_ok(&o.a, &o.b, &o.c, o.shape.dims(), &mut rng, VERIFY_SAMPLES) {
                println!("  WRONG OUTPUT: {}x{}x{}", o.shape.m, o.shape.n, o.shape.k);
                tally.failed += 1;
            }
        }

        let shapes: Vec<Shape> = self.operands.iter().map(|o| o.shape).collect();
        let times: Vec<f64> = samples.iter().map(|(normal, _)| median(normal)).collect();
        println!("  {passes} passes; calibration median {:.1} GFLOPS", median(&rates));
        for (shape, (t, (_, raw))) in shapes.iter().zip(times.iter().zip(&samples)) {
            println!(
                "  {:>5}x{:<4}x{:<4} x{}: {:>9.3} ms normalised ({:>9.3} raw), median of {:>5} calls, {:>6.2} GFLOPS",
                shape.m,
                shape.n,
                shape.k,
                shape.occurrences,
                t * 1e3,
                median(raw) * 1e3,
                raw.len(),
                shape.flops() / t / 1e9
            );
        }
        let (gflops, latency_ms) = fold(&shapes, &times);
        Measured { gflops, latency_ms, calibration_gflops: median(&rates), tally }
    }
}
