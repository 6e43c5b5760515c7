//! The benchmark's own yardstick for how fast the core is **right now**.
//!
//! On a shared host the speed of a core drifts with what the neighbours do:
//! here the same 1024^3 GEMM reads anything from 27 to 49 GFLOPS over a few
//! minutes with nothing else running in the guest, in stretches of seconds
//! to minutes, so two runs of the same code differ by up to 40 % and the
//! quartiles of ten runs by up to 37 % of their median. A fixed piece of
//! work with the same appetite (two L1-resident packed panels streamed
//! through 12 vector accumulators, as the 8x12 micro-kernel does) drifts
//! with it: timed right before and after an operation it tells how fast the
//! core was during the operation, and dividing by it leaves 5-8 %.
//!
//! The yardstick is this file's code, not the program's: a change to the
//! generated kernels cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// The calibration rate that times and rates are normalised to, GFLOPS. A
/// unit convention, not a measurement (an uncontended core here does ~95):
/// a normalised number is what the run would read on a core that does the
/// calibration work at exactly this rate.
pub const NOMINAL_GFLOPS: f64 = 100.0;

/// Depth of the packed panels: `KC x 8` and `KC x 12` floats, 20 KB in all.
const KC: usize = 256;
/// Passes over the panels per burst: ~10 MFLOP, ~0.1 ms.
const REPS: usize = 200;

pub struct Calibrator {
    a: Vec<f32>,
    b: Vec<f32>,
    vectorised: bool,
}

/// `reps` passes of the 8x12 rank-1 updates over the panels, 12 AVX2
/// accumulators.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn passes_avx2(a: &[f32], b: &[f32], reps: usize) -> f32 {
    use std::arch::x86_64::*;
    assert!(a.len() >= KC * 8 && b.len() >= KC * 12);
    let mut total = _mm256_setzero_ps();
    for _ in 0..reps {
        let mut acc = [_mm256_setzero_ps(); 12];
        for k in 0..KC {
            // SAFETY: `k < KC` and the assert above keep both reads in bounds.
            let av = unsafe { _mm256_loadu_ps(a.as_ptr().add(k * 8)) };
            for (j, acc) in acc.iter_mut().enumerate() {
                let bv = _mm256_set1_ps(b[k * 12 + j]);
                *acc = _mm256_fmadd_ps(av, bv, *acc);
            }
        }
        for acc in acc {
            total = _mm256_add_ps(total, acc);
        }
    }
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` holds the 8 floats the store writes.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), total) };
    lanes.iter().sum()
}

/// The same work in plain Rust, for hosts without AVX2/FMA.
fn passes_portable(a: &[f32], b: &[f32], reps: usize) -> f32 {
    let mut total = 0.0f32;
    for _ in 0..reps {
        let mut acc = [[0.0f32; 8]; 12];
        for k in 0..KC {
            let av = &a[k * 8..k * 8 + 8];
            for (j, acc) in acc.iter_mut().enumerate() {
                let bv = b[k * 12 + j];
                for (lane, x) in acc.iter_mut().zip(av) {
                    *lane += x * bv;
                }
            }
        }
        total += acc.iter().flatten().sum::<f32>();
    }
    total
}

impl Calibrator {
    pub fn new() -> Self {
        #[cfg(target_arch = "x86_64")]
        let vectorised = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
        #[cfg(not(target_arch = "x86_64"))]
        let vectorised = false;
        Calibrator { a: vec![0.5; KC * 8], b: vec![0.25; KC * 12], vectorised }
    }

    /// Runs one burst and returns its rate in GFLOPS.
    pub fn rate(&self) -> f64 {
        // The portable loop is ~15x slower; fewer passes keep the burst short.
        let reps = if self.vectorised { REPS } else { REPS / 16 };
        let started = Instant::now();
        let sum = if self.vectorised {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `vectorised` is only true when the CPU reports AVX2 and FMA.
            unsafe {
                passes_avx2(black_box(&self.a), black_box(&self.b), reps)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("`vectorised` is false off x86_64")
        } else {
            passes_portable(black_box(&self.a), black_box(&self.b), reps)
        };
        black_box(sum);
        (reps * KC * 8 * 12 * 2) as f64 / started.elapsed().as_secs_f64() / 1e9
    }
}

/// A measured time brought to the nominal core speed: `seconds` on a core
/// that did the calibration work at `before` GFLOPS when the operation
/// started and `after` when it ended.
pub fn normalised(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * (before + after) / 2.0 / NOMINAL_GFLOPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_kernels_do_the_same_work() {
        let cal = Calibrator::new();
        // 0.5 * 0.25 summed over KC steps, 96 accumulator lanes, 3 passes.
        let expected = 0.125 * (KC * 96 * 3) as f32;
        assert_eq!(passes_portable(&cal.a, &cal.b, 3), expected);
        if cal.vectorised {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `vectorised` means the CPU reports AVX2 and FMA.
            assert_eq!(unsafe { passes_avx2(&cal.a, &cal.b, 3) }, expected);
        }
        assert!(cal.rate() > 0.0);
    }

    #[test]
    fn a_slow_core_shortens_and_a_fast_core_lengthens_the_time() {
        assert_eq!(normalised(2.0, 100.0, 100.0), 2.0);
        assert_eq!(normalised(2.0, 40.0, 60.0), 1.0);
        assert_eq!(normalised(1.0, 150.0, 150.0), 1.5);
    }
}
