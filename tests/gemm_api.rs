//! Differential suite for the BLAS-grade GEMM front door: every
//! [`GemmExecutor`] implementation (`NaiveGemm`, `BlisGemm`, `TunedGemm`)
//! must solve `C = alpha * op(A) * op(B) + beta * C` identically to an
//! inline strided reference, across:
//!
//! * random operand layouts — dense, padded leading dimensions, column
//!   major, and sub-matrix windows of larger buffers,
//! * random transposes (`op(A)`, `op(B)`),
//! * random `alpha`/`beta`, including `beta = 0` over NaN-poisoned
//!   (uninitialised-looking) `C` and `alpha = 0` over NaN-poisoned `A`/`B`,
//! * 1–7 worker threads (which must be bit-identical to sequential runs).

mod common;

use std::sync::Arc;

use common::{poison_filler, reference, Cases, Stored};
use exo_gemm::exo_isa::neon_f32;
use exo_gemm::exo_tune::TunedGemm;
use exo_gemm::gemm_blis::{
    exo_kernel, exo_kernel_superword, BlisGemm, BlockingParams, GemmExecutor, GemmProblem, KernelImpl,
    MatMut, MatRef, NaiveGemm, Op,
};
use exo_gemm::ukernel_gen::{KernelOptions, MicroKernelGenerator, Strategy};

fn kernels() -> Vec<KernelImpl> {
    let generator = MicroKernelGenerator::new(neon_f32());
    let scalar_3x5 = KernelOptions { strategy: Some(Strategy::Scalar), ..KernelOptions::new(3, 5) };
    vec![
        exo_kernel(Arc::new(generator.generate(8, 12).unwrap())),
        exo_kernel(Arc::new(generator.generate(4, 4).unwrap())),
        exo_kernel(Arc::new(generator.generate(1, 8).unwrap())),
        exo_kernel(Arc::new(generator.generate_with(&scalar_3x5).unwrap())),
    ]
}

#[allow(clippy::too_many_arguments)]
fn build_problem<'a>(
    a: &'a Stored,
    b: &'a Stored,
    c: &'a mut Stored,
    op_a: Op,
    op_b: Op,
    alpha: f32,
    beta: f32,
) -> GemmProblem<'a> {
    GemmProblem::new(a.view(), b.view(), c.view_mut()).op_a(op_a).op_b(op_b).alpha(alpha).beta(beta)
}

/// The main property: across random layouts, transposes, scalars, and
/// thread counts, all three executors compute the inline strided
/// reference's bits, whatever kernel or tile the blocked drivers run.
#[test]
fn executors_match_the_strided_reference_across_random_problems() {
    let mut cases = Cases::new(0xB1A5_0001);
    let kernels = kernels();
    let tuned = TunedGemm::new();
    let alphas = [1.0f32, 1.0, -0.5, 2.0, 0.0];
    let betas = [1.0f32, 1.0, 0.0, 0.5, -1.0];
    for case in 0..40 {
        // Mostly small sizes; occasionally wide-and-short so the jc-split
        // path runs too.
        let (m, n, k) = if case % 8 == 7 {
            (cases.usize_in(1, 8), cases.usize_in(60, 140), cases.usize_in(1, 24))
        } else {
            (cases.usize_in(1, 40), cases.usize_in(1, 40), cases.usize_in(1, 32))
        };
        let op_a = if cases.usize_in(0, 2) == 1 { Op::Transpose } else { Op::None };
        let op_b = if cases.usize_in(0, 2) == 1 { Op::Transpose } else { Op::None };
        let alpha = *cases.pick(&alphas);
        let beta = *cases.pick(&betas);
        let (a_rows, a_cols) = if op_a == Op::Transpose { (k, m) } else { (m, k) };
        let (b_rows, b_cols) = if op_b == Op::Transpose { (n, k) } else { (k, n) };
        // alpha = 0 must never read A/B, beta = 0 must never read C:
        // poison the never-read operand with NaN and let the executors
        // prove it.
        let (seed_a, seed_b, seed_c) = (cases.next_u64() | 1, cases.next_u64() | 1, cases.next_u64() | 1);
        let a = Stored::random(a_rows, a_cols, &mut cases, poison_filler(seed_a, alpha == 0.0));
        let b = Stored::random(b_rows, b_cols, &mut cases, poison_filler(seed_b, alpha == 0.0));
        let c0 = Stored::random(m, n, &mut cases, poison_filler(seed_c, beta == 0.0));
        let want = reference(&a, &b, &c0, op_a, op_b, alpha, beta, m, n, k);
        let label = format!(
            "case {case}: {m}x{n}x{k} op_a={op_a:?} op_b={op_b:?} alpha={alpha} beta={beta} \
             a=({},{}) b=({},{}) c=({},{})",
            a.row_stride, a.col_stride, b.row_stride, b.col_stride, c0.row_stride, c0.col_stride
        );

        // NaiveGemm: same op order as the reference — exact equality.
        let mut c_naive = Stored { data: c0.data.clone(), ..c0 };
        NaiveGemm.gemm(build_problem(&a, &b, &mut c_naive, op_a, op_b, alpha, beta)).unwrap();
        for i in 0..m {
            for j in 0..n {
                assert_eq!(c_naive.get(i, j), want[i * n + j], "{label} (naive at {i},{j})");
            }
        }

        // BlisGemm with a random kernel and random thread count.
        let kernel = cases.pick(&kernels).clone();
        let blocking = BlockingParams { mc: 16, kc: 8, nc: 24, mr: kernel.mr, nr: kernel.nr };
        let driver = BlisGemm::new(blocking).with_kernel(kernel);
        let mut c_blis = Stored { data: c0.data.clone(), ..c0 };
        driver.gemm(build_problem(&a, &b, &mut c_blis, op_a, op_b, alpha, beta)).unwrap();
        for i in 0..m {
            for j in 0..n {
                let (x, y) = (c_blis.get(i, j), want[i * n + j]);
                assert_eq!(x.to_bits(), y.to_bits(), "{label} (blis at {i},{j}): {x} vs {y}");
            }
        }
        // Threaded runs are bit-identical to the sequential blocked run.
        for threads in [2usize, 7] {
            let mut c_par = Stored { data: c0.data.clone(), ..c0 };
            driver
                .clone()
                .with_threads(threads)
                .gemm(build_problem(&a, &b, &mut c_par, op_a, op_b, alpha, beta))
                .unwrap();
            for i in 0..m {
                for j in 0..n {
                    // NaN never survives (beta = 0 overwrites; otherwise the
                    // inputs were finite), so bit equality via f32 compare
                    // is sound here.
                    assert_eq!(c_par.get(i, j), c_blis.get(i, j), "{label} ({threads} threads at {i},{j})");
                }
            }
        }

        // TunedGemm on a subset (each new shape pays one analytical search).
        if case % 4 == 0 {
            let mut c_tuned = Stored { data: c0.data.clone(), ..c0 };
            tuned.gemm(build_problem(&a, &b, &mut c_tuned, op_a, op_b, alpha, beta)).unwrap();
            for i in 0..m {
                for j in 0..n {
                    let (x, y) = (c_tuned.get(i, j), want[i * n + j]);
                    assert_eq!(x.to_bits(), y.to_bits(), "{label} (tuned at {i},{j}): {x} vs {y}");
                }
            }
        }
    }
}

/// Backend differential through the BLAS front door: across random strided
/// layouts, transposes, and `alpha`/`beta`, the native default and the
/// superword pin solve the problem bit-identically, and each tier is
/// bit-identical to itself across 1–7 worker threads.
#[test]
fn backend_tiers_agree_across_layouts_scalars_and_threads() {
    let mut cases = Cases::new(0xB1A5_0003);
    let generator = MicroKernelGenerator::new(neon_f32());
    let kernel = Arc::new(generator.generate(8, 12).unwrap());
    let alphas = [1.0f32, -0.5, 2.0];
    let betas = [1.0f32, 0.0, 0.5];
    for case in 0..10 {
        let (m, n, k) = (cases.usize_in(1, 40), cases.usize_in(1, 40), cases.usize_in(1, 32));
        let op_a = if cases.usize_in(0, 2) == 1 { Op::Transpose } else { Op::None };
        let op_b = if cases.usize_in(0, 2) == 1 { Op::Transpose } else { Op::None };
        let alpha = *cases.pick(&alphas);
        let beta = *cases.pick(&betas);
        let (a_rows, a_cols) = if op_a == Op::Transpose { (k, m) } else { (m, k) };
        let (b_rows, b_cols) = if op_b == Op::Transpose { (n, k) } else { (k, n) };
        let (seed_a, seed_b, seed_c) = (cases.next_u64() | 1, cases.next_u64() | 1, cases.next_u64() | 1);
        let a = Stored::random(a_rows, a_cols, &mut cases, poison_filler(seed_a, false));
        let b = Stored::random(b_rows, b_cols, &mut cases, poison_filler(seed_b, false));
        let c0 = Stored::random(m, n, &mut cases, poison_filler(seed_c, beta == 0.0));
        let blocking = BlockingParams { mc: 16, kc: 8, nc: 24, mr: 8, nr: 12 };
        let label = format!("case {case}: {m}x{n}x{k} op_a={op_a:?} op_b={op_b:?} alpha={alpha} beta={beta}");

        let solve = |kimpl: KernelImpl, threads: usize| {
            let mut c = Stored { data: c0.data.clone(), ..c0 };
            BlisGemm::new(blocking)
                .with_kernel(kimpl)
                .with_threads(threads)
                .gemm(build_problem(&a, &b, &mut c, op_a, op_b, alpha, beta))
                .unwrap();
            // Only the logical view is defined output — the padding of the
            // stored layout keeps its (possibly NaN) garbage.
            let mut out = Vec::with_capacity(m * n);
            for i in 0..m {
                for j in 0..n {
                    out.push(c.get(i, j));
                }
            }
            out
        };
        let c_native = solve(exo_kernel(Arc::clone(&kernel)), 1);
        let c_superword = solve(exo_kernel_superword(Arc::clone(&kernel)), 1);
        assert_eq!(c_native, c_superword, "{label}: native vs superword");
        for threads in [2usize, 7] {
            assert_eq!(
                c_native,
                solve(exo_kernel(Arc::clone(&kernel)), threads),
                "{label}: native with {threads} threads"
            );
            assert_eq!(
                c_superword,
                solve(exo_kernel_superword(Arc::clone(&kernel)), threads),
                "{label}: superword with {threads} threads"
            );
        }
    }
}

/// Sub-matrix windows compose with transposes: running GEMM on windows of
/// larger matrices equals running it on materialised copies of the windows.
#[test]
fn submatrix_views_compose_with_transposes() {
    let mut cases = Cases::new(0xB1A5_0002);
    let big_a: Vec<f32> = (0..30 * 20).map(|_| cases.f32_unit()).collect();
    let big_b: Vec<f32> = (0..25 * 18).map(|_| cases.f32_unit()).collect();
    let (m, n, k) = (9usize, 11usize, 7usize);
    // A window is taken transposed (k x m at offset (3, 4) of big_a).
    let a_win = MatRef::from_slice(&big_a, 30, 20).submatrix(3, 4, k, m).t();
    let b_win = MatRef::from_slice(&big_b, 25, 18).submatrix(2, 5, k, n);
    // Materialise both windows densely.
    let a_dense = materialise(a_win);
    let b_dense = materialise(b_win);
    let mut c_view = vec![0.25f32; m * n];
    let mut c_dense = c_view.clone();
    let kernel = kernels().remove(0);
    let blocking = BlockingParams { mc: 8, kc: 4, nc: 12, mr: kernel.mr, nr: kernel.nr };
    let driver = BlisGemm::new(blocking).with_kernel(kernel);
    driver
        .gemm(GemmProblem::new(a_win, b_win, MatMut::from_slice(&mut c_view, m, n)).alpha(1.5).beta(0.5))
        .unwrap();
    driver
        .gemm(
            GemmProblem::new(
                MatRef::from_slice(&a_dense, m, k),
                MatRef::from_slice(&b_dense, k, n),
                MatMut::from_slice(&mut c_dense, m, n),
            )
            .alpha(1.5)
            .beta(0.5),
        )
        .unwrap();
    assert_eq!(c_view, c_dense, "window views must equal materialised copies bit-for-bit");
}

/// Densely materialises any view (row-major).
fn materialise(v: MatRef<'_>) -> Vec<f32> {
    let mut out = Vec::with_capacity(v.rows() * v.cols());
    for i in 0..v.rows() {
        for j in 0..v.cols() {
            out.push(v.get(i, j));
        }
    }
    out
}
