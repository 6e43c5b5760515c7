//! The five workloads, by name, and what they share: shapes, the `beta = 0`
//! problem over dense operands, and the result of a timed run.

use gemm_blis::{GemmProblem, MatMut, MatRef};

use crate::verify::Tally;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Square,
    Resnet50Layers,
    Vgg16Layers,
    ServeSmall,
    BatchSharedB,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Square,
        Workload::Resnet50Layers,
        Workload::Vgg16Layers,
        Workload::ServeSmall,
        Workload::BatchSharedB,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Square => "square",
            Workload::Resnet50Layers => "resnet50_layers",
            Workload::Vgg16Layers => "vgg16_layers",
            Workload::ServeSmall => "serve_small",
            Workload::BatchSharedB => "batch_shared_b",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The GEMM shapes the workload issues, with their occurrences in one
    /// pass over its operation list.
    pub fn shapes(self) -> Vec<Shape> {
        let table = |model: dnn_models::ModelWorkload| -> Vec<Shape> {
            model.unique_layers.iter().map(|l| Shape::new(l.m, l.n, l.k, l.occurrences())).collect()
        };
        match self {
            Workload::Square => SQUARE_SIZES.iter().map(|&s| Shape::new(s, s, s, 1)).collect(),
            Workload::Resnet50Layers => table(dnn_models::resnet50_table()),
            Workload::Vgg16Layers => table(dnn_models::vgg16_table()),
            Workload::ServeSmall => SERVE_SHAPES.iter().map(|&(m, n, k)| Shape::new(m, n, k, 1)).collect(),
            Workload::BatchSharedB => BATCH_SHAPES.iter().map(|&(m, n, k)| Shape::new(m, n, k, 1)).collect(),
        }
    }

    /// The shapes whose whole `gemm` call the traced run decomposes by
    /// phase replay.
    pub fn replay_dims(self) -> Vec<(usize, usize, usize)> {
        match self {
            Workload::Square => vec![(1024, 1024, 1024)],
            Workload::Resnet50Layers => vec![(196, 256, 2304), (3136, 64, 576)],
            Workload::Vgg16Layers => vec![(12544, 128, 1152)],
            Workload::ServeSmall => SERVE_SHAPES.to_vec(),
            Workload::BatchSharedB => vec![(49, 512, 2048)],
        }
    }
}

/// The paper's Fig. 14 sweep, at the sizes a 10 s run can repeat.
pub const SQUARE_SIZES: [usize; 4] = [256, 512, 768, 1024];
/// Repetitions of each square size in one pass, so that every size gets
/// about the same share of the run.
pub const SQUARE_REPS_PER_PASS: [usize; 4] = [36, 6, 2, 1];

/// The eight tiny mixed shapes of the repo's existing serve series.
pub const SERVE_SHAPES: [(usize, usize, usize); 8] = [
    (24, 16, 12),
    (17, 13, 9),
    (32, 24, 8),
    (8, 40, 16),
    (48, 8, 24),
    (16, 16, 16),
    (28, 20, 6),
    (12, 36, 10),
];

/// The late-stage ResNet-50 shapes of the shared-weight batches.
pub const BATCH_SHAPES: [(usize, usize, usize); 4] =
    [(49, 512, 2048), (49, 2048, 512), (196, 256, 1024), (196, 1024, 256)];
/// Entries per batch; every entry borrows the same `B`.
pub const BATCH_ENTRIES: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub occurrences: usize,
}

impl Shape {
    pub fn new(m: usize, n: usize, k: usize, occurrences: usize) -> Self {
        Shape { m, n, k, occurrences }
    }

    pub fn dims(&self) -> (usize, usize, usize) {
        (self.m, self.n, self.k)
    }

    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }
}

/// `C = A * B` over dense row-major operands (`beta = 0`: `C` is never read).
pub fn problem<'a>(
    a: &'a [f32],
    b: &'a [f32],
    c: &'a mut [f32],
    (m, n, k): (usize, usize, usize),
) -> GemmProblem<'a> {
    GemmProblem::new(MatRef::from_slice(a, m, k), MatRef::from_slice(b, k, n), MatMut::from_slice(c, m, n))
        .beta(0.0)
}

/// What setting up told us about the ahead-of-time tier.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupInfo {
    /// Sum of the `native_wait()` times of the workload's kernels, ms.
    pub cold_build_ms: f64,
    /// Kernels whose `native()` is ready after the wait.
    pub native_ready: usize,
    /// Kernels waited for.
    pub native_total: usize,
}

/// The end-to-end result of one timed run of a workload. Times are
/// normalised to the nominal core speed (see `calib.rs`).
#[derive(Clone, Copy)]
pub struct Measured {
    /// Useful GFLOPS: geomean over the distinct shapes of `2mnk / median
    /// time` (`serve_small`: useful flops per second of the throughput
    /// phase, median over its segments).
    pub gflops: f64,
    /// Time of one pass over the operation list, sum of `occurrences *
    /// median time` (`serve_small`: submit-to-reply round trip, median over
    /// the windows of the rtt phase), ms.
    pub latency_ms: f64,
    /// Median rate of the run's calibration bursts, GFLOPS: multiply a time
    /// by `NOMINAL_GFLOPS /` this to get back roughly what the clock read.
    pub calibration_gflops: f64,
    pub tally: Tally,
}

/// Folds the time of every shape (seconds) into the two end-to-end numbers.
pub fn fold(shapes: &[Shape], time_s: &[f64]) -> (f64, f64) {
    let rates: Vec<f64> = shapes.iter().zip(time_s).map(|(s, t)| s.flops() / t / 1e9).collect();
    let pass_s: f64 = shapes.iter().zip(time_s).map(|(s, t)| s.occurrences as f64 * t).sum();
    (crate::stats::geomean(&rates), pass_s * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_tables_have_the_papers_row_counts() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::Resnet50Layers.shapes().len(), 20);
        assert_eq!(Workload::Resnet50Layers.shapes().iter().map(|s| s.occurrences).sum::<usize>(), 53);
        assert_eq!(Workload::Vgg16Layers.shapes().len(), 9);
        for w in Workload::ALL {
            let shapes = w.shapes();
            assert!(w.replay_dims().iter().all(|d| shapes.iter().any(|s| s.dims() == *d)), "{}", w.name());
        }
    }

    #[test]
    fn fold_weights_the_rate_by_shape_and_the_time_by_occurrence() {
        let shapes = [Shape::new(10, 10, 10, 3), Shape::new(20, 10, 10, 1)];
        let (gflops, latency_ms) = fold(&shapes, &[1e-6, 4e-6]);
        assert!((latency_ms - 7e-3).abs() < 1e-12);
        // 2000 flops / 1 us = 2 GFLOPS; 4000 / 4 us = 1 GFLOPS; geomean sqrt(2).
        assert!((gflops - 2f64.sqrt()).abs() < 1e-12);
    }
}
