//! Shared test-support code for the integration suites.

use exo_gemm::{MatMut, MatRef, Op};

/// Deterministic pseudo-random source (xorshift64*), the workspace's
/// stand-in for a property-testing framework's case generator.
pub struct Cases {
    state: u64,
}

// Each integration test binary compiles its own copy of this module and
// uses a different subset of the helpers.
#[allow(dead_code)]
impl Cases {
    pub fn new(seed: u64) -> Self {
        Cases { state: seed | 1 }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Roughly uniform float in `[-1, 1)`: 24 high bits scaled by 2^24.
    pub fn f32_unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }

    pub fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[(self.next_u64() % options.len() as u64) as usize]
    }
}

/// One operand held in a randomly chosen strided layout. The view covers a
/// `rows x cols` logical matrix; the backing buffer may be larger (padding,
/// enclosing matrix), and the padding holds garbage on purpose.
#[allow(dead_code)]
pub struct Stored {
    pub data: Vec<f32>,
    pub offset: usize,
    pub rows: usize,
    pub cols: usize,
    pub row_stride: usize,
    pub col_stride: usize,
}

#[allow(dead_code)]
impl Stored {
    /// Generates a layout: 0 = dense row-major, 1 = padded row-major,
    /// 2 = column-major, 3 = padded column-major, 4 = window of a larger
    /// dense matrix.
    pub fn random(rows: usize, cols: usize, cases: &mut Cases, mut fill: impl FnMut() -> f32) -> Stored {
        let layout = cases.usize_in(0, 5);
        let pad = cases.usize_in(1, 9);
        let (len, offset, row_stride, col_stride) = match layout {
            0 => (rows * cols, 0, cols, 1),
            1 => (rows * (cols + pad), 0, cols + pad, 1),
            2 => (rows * cols, 0, 1, rows),
            3 => (cols * (rows + pad), 0, 1, rows + pad),
            _ => {
                // A window at (r0, c0) of a (rows + dr) x (cols + dc) matrix.
                let (dr, dc) = (cases.usize_in(1, 6), cases.usize_in(1, 6));
                let (r0, c0) = (cases.usize_in(0, dr), cases.usize_in(0, dc));
                let big_cols = cols + dc;
                ((rows + dr) * big_cols, r0 * big_cols + c0, big_cols, 1)
            }
        };
        let data: Vec<f32> = (0..len).map(|_| fill()).collect();
        Stored { data, offset, rows, cols, row_stride, col_stride }
    }

    pub fn view(&self) -> MatRef<'_> {
        MatRef::with_strides(
            &self.data[self.offset..],
            self.rows,
            self.cols,
            self.row_stride,
            self.col_stride,
        )
    }

    pub fn view_mut(&mut self) -> MatMut<'_> {
        MatMut::with_strides(
            &mut self.data[self.offset..],
            self.rows,
            self.cols,
            self.row_stride,
            self.col_stride,
        )
    }

    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[self.offset + i * self.row_stride + j * self.col_stride]
    }
}

/// The inline strided reference: the BLAS contract, spelled out directly
/// over the stored layouts (no view machinery), one accumulator per output
/// element, `k` ascending, in `NaiveGemm`'s arithmetic — from `beta·c`, one
/// fused multiply-add of `alpha·a` per `k`.
#[allow(dead_code)]
#[allow(clippy::too_many_arguments)]
pub fn reference(
    a: &Stored,
    b: &Stored,
    c0: &Stored,
    op_a: Op,
    op_b: Op,
    alpha: f32,
    beta: f32,
    m: usize,
    n: usize,
    k: usize,
) -> Vec<f32> {
    let a_at = |i: usize, p: usize| if op_a == Op::Transpose { a.get(p, i) } else { a.get(i, p) };
    let b_at = |p: usize, j: usize| if op_b == Op::Transpose { b.get(j, p) } else { b.get(p, j) };
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = if beta == 0.0 { 0.0 } else { beta * c0.get(i, j) };
            if alpha != 0.0 {
                for p in 0..k {
                    acc = (alpha * a_at(i, p)).mul_add(b_at(p, j), acc);
                }
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// A deterministic element source that yields NaN when the operand must
/// never be read (the executors have to prove it by not tripping on it).
#[allow(dead_code)]
pub fn poison_filler(seed: u64, poison: bool) -> impl FnMut() -> f32 {
    let mut cases = Cases::new(seed);
    move || {
        if poison {
            f32::NAN
        } else {
            cases.f32_unit()
        }
    }
}

#[test]
fn f32_unit_stays_in_the_unit_interval() {
    let mut cases = Cases::new(0xC0FFEE);
    for _ in 0..10_000 {
        let v = cases.f32_unit();
        assert!((-1.0..1.0).contains(&v), "{v} outside [-1, 1)");
    }
}
