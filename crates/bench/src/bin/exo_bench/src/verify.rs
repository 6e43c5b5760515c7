//! Output verification against an `f64`-accumulated reference, run after
//! the clock stops. The tolerance is linear in `k`: `4 * eps * k * max|a| *
//! max|b|` over the row of `A` and column of `B` that make the entry.

use crate::inputs::Rng;

/// Operations attempted and failed in one phase. A failed operation is an
/// `Err`, a refused submit, or an output outside the tolerance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn print(&self, phase: &str) {
        println!(
            "  {phase}: {} attempted, {} succeeded, {} failed",
            self.attempted,
            self.attempted - self.failed,
            self.failed
        );
    }
}

/// Whether entry `(i, j)` of dense row-major `c = a * b` is within the
/// tolerance of the `f64` reference.
fn entry_ok(a: &[f32], b: &[f32], c: &[f32], n: usize, k: usize, i: usize, j: usize) -> bool {
    let (mut sum, mut max_a, mut max_b) = (0.0f64, 0.0f32, 0.0f32);
    for p in 0..k {
        let (x, y) = (a[i * k + p], b[p * n + j]);
        sum += x as f64 * y as f64;
        max_a = max_a.max(x.abs());
        max_b = max_b.max(y.abs());
    }
    let bound = 4.0 * f32::EPSILON as f64 * k as f64 * max_a as f64 * max_b as f64;
    // A NaN output compares false and so fails.
    (c[i * n + j] as f64 - sum).abs() <= bound
}

/// Checks `samples` seeded entries of `c = a * b` (`beta = 0`); true when
/// all are within tolerance.
pub fn sampled_ok(
    a: &[f32],
    b: &[f32],
    c: &[f32],
    dims: (usize, usize, usize),
    rng: &mut Rng,
    samples: usize,
) -> bool {
    let (m, n, k) = dims;
    (0..samples).all(|_| {
        let (i, j) = (rng.below(m), rng.below(n));
        entry_ok(a, b, c, n, k, i, j)
    })
}

/// Checks every entry of `c = a * b`.
pub fn all_ok(a: &[f32], b: &[f32], c: &[f32], dims: (usize, usize, usize)) -> bool {
    let (m, n, k) = dims;
    (0..m).all(|i| (0..n).all(|j| entry_ok(a, b, c, n, k, i, j)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::fill;

    fn reference(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] = (0..k).map(|p| a[i * k + p] * b[p * n + j]).sum();
            }
        }
        c
    }

    #[test]
    fn an_f32_product_passes_and_a_perturbed_one_fails() {
        let (m, n, k) = (9, 7, 300);
        let (a, b) = (fill(1, 0, m * k), fill(1, 1, k * n));
        let mut c = reference(&a, &b, m, n, k);
        assert!(all_ok(&a, &b, &c, (m, n, k)));
        assert!(sampled_ok(&a, &b, &c, (m, n, k), &mut Rng::new(1, 2), 64));
        c[3 * n + 2] += 1e-2;
        assert!(!all_ok(&a, &b, &c, (m, n, k)));
        c[3 * n + 2] = f32::NAN;
        assert!(!all_ok(&a, &b, &c, (m, n, k)));
    }
}
