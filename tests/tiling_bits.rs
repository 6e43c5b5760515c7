//! Every tiling computes the same bits. The five-loop driver folds `alpha`
//! into the packed `A` panel (one multiply), applies `beta` as a `C` tile is
//! staged in on the first `k`-block and moves it untouched after, and every
//! micro-kernel accumulates an element of `C` as one `k`-ordered chain of
//! fused multiply-adds, one lane at a time, on every ISA. So a GEMM's
//! result depends neither on the register tile, nor on the library or
//! strategy that scheduled it, nor on the `kc` that cut its chain into
//! blocks: `TunedGemm`, whatever tile and blocking it picks for a shape,
//! equals `BlisGemm` with the fixed Neon 8x12 on the analytical blocking
//! — and `NaiveGemm`'s plain loops — **bit for bit**, on every ISA
//! (`EXO_ISA=scalar` included), whichever of the native body and the
//! simd chain runs a call. Nor does it depend on where the caller's
//! operands start relative to a cache line, nor on whether a GEMM ran alone
//! or stacked with the other entries of a batch that share its `B`.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use common::Cases;
use exo_gemm::carmel_sim::CacheHierarchy;
use exo_gemm::dnn_models::{resnet50_table, vgg16_table};
use exo_gemm::exo_isa::neon_f32;
use exo_gemm::exo_serve::{CachedTunedGemm, GemmBatchExecutor, ThreadPool};
use exo_gemm::exo_tune::TunedGemm;
use exo_gemm::gemm_blis::{
    exo_kernel, BlisGemm, BlockingParams, GemmExecutor, GemmProblem, MatMut, MatRef, Matrix, NaiveGemm,
};
use exo_gemm::ukernel_gen::MicroKernelGenerator;

/// The eight shapes of the benchmark's `serve_small` workload.
const SERVE_SMALL: [(usize, usize, usize); 8] = [
    (24, 16, 12),
    (17, 13, 9),
    (32, 24, 8),
    (8, 40, 16),
    (48, 8, 24),
    (16, 16, 16),
    (28, 20, 6),
    (12, 36, 10),
];

/// Rows of a layer's GEMM run here. A layer's verdict — tile, `kc`, `mc`,
/// `nc` — is tuned for its full shape and its driver runs the first rows
/// of it: `n` and `k`, which set the tile's column fringe and the `kc`
/// blocks of every chain, are the layer's own, and the rows beyond these
/// would only repeat the row blocks.
const MAX_ROWS: usize = 128;

#[test]
fn every_tiling_computes_the_same_bits() {
    let threads = 2;
    let tuned = TunedGemm::new().with_threads(threads);
    let kernel_8x12 = Arc::new(MicroKernelGenerator::new(neon_f32()).generate(8, 12).unwrap());
    let reference = BlisGemm::new(BlockingParams::analytical(&CacheHierarchy::carmel(), 8, 12, 4))
        .with_kernel(exo_kernel(kernel_8x12))
        .with_threads(threads);
    let mut shapes = resnet50_table().gemm_shapes();
    shapes.extend(vgg16_table().gemm_shapes());
    shapes.extend(SERVE_SMALL);
    let mut cases = Cases::new(0x7111_6b17);
    let mut tilings = BTreeSet::new();
    for (alpha, beta) in [(1.0f32, 0.0f32), (1.5, -0.25)] {
        for &(m, n, k) in &shapes {
            let (verdict, driver) = tuned.driver_for(m, n, k).unwrap();
            tilings.insert((verdict.mr, verdict.nr, verdict.kc));
            let rows = m.min(MAX_ROWS);
            let a = Matrix::from_fn(rows, k, |_, _| cases.f32_unit());
            let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
            let c0 = Matrix::from_fn(rows, n, |_, _| cases.f32_unit());
            let run = |gemm: &dyn GemmExecutor| {
                let mut c = c0.clone();
                gemm.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()).alpha(alpha).beta(beta))
                    .unwrap();
                c.data
            };
            let label = format!(
                "{m}x{n}x{k} ({rows} rows), alpha {alpha}, beta {beta}: {}x{} kc {} against 8x12",
                verdict.mr, verdict.nr, verdict.kc
            );
            let (got, want) = (run(&*driver), run(&reference));
            assert!(got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()), "{label}");
        }
    }
    assert!(
        tilings.iter().any(|&(mr, nr, _)| (mr, nr) != (8, 12)),
        "the tuner served no tile but the reference's: {tilings:?}"
    );
}

/// `NaiveGemm` is the one bit-exact reference for the driver: its plain
/// loops run the engine's arithmetic — the accumulator starts at `beta·c`
/// and takes one fused multiply-add of `alpha·a` per `k` — so a served
/// GEMM equals it bit for bit on every ISA, on the `serve_small` shapes and
/// on a layer whose `k` the verdict's `kc` cuts into blocks (its first 13
/// rows: a row fringe of every tile, at a tenth of the layer's time).
#[test]
fn naive_gemm_is_the_bits_of_every_tiling() {
    let tuned = TunedGemm::new().with_threads(2);
    let mut shapes: Vec<_> = SERVE_SMALL.iter().map(|&(m, n, k)| (m, n, k, m)).collect();
    shapes.push((49, 512, 4608, 13));
    let mut cases = Cases::new(0x4a17_e0e5);
    let mut crossed_kc = false;
    for (alpha, beta) in [(1.0f32, 0.0f32), (1.5, -0.25)] {
        for &(m, n, k, rows) in &shapes {
            let (verdict, driver) = tuned.driver_for(m, n, k).unwrap();
            crossed_kc |= k > verdict.kc;
            let a = Matrix::from_fn(rows, k, |_, _| cases.f32_unit());
            let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
            let c0 = Matrix::from_fn(rows, n, |_, _| cases.f32_unit());
            let run = |gemm: &dyn GemmExecutor| {
                let mut c = c0.clone();
                gemm.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()).alpha(alpha).beta(beta))
                    .unwrap();
                c.data
            };
            let (got, want) = (run(&*driver), run(&NaiveGemm));
            let label = format!(
                "{m}x{n}x{k}, alpha {alpha}, beta {beta}: {}x{} kc {}",
                verdict.mr, verdict.nr, verdict.kc
            );
            assert!(got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()), "{label}");
        }
    }
    assert!(crossed_kc, "no shape's k crossed its verdict's kc");
}

/// `data` copied into a fresh buffer so that it starts `bytes` past a
/// 64-byte boundary; returns the buffer and where the copy starts in it.
fn placed(data: &[f32], bytes: usize) -> (Vec<f32>, usize) {
    let mut buf = vec![0.0f32; data.len() + 32];
    let start = buf.as_ptr().addr().wrapping_neg() % 64 / 4 + bytes / 4;
    buf[start..start + data.len()].copy_from_slice(data);
    (buf, start)
}

#[test]
fn operand_placement_computes_the_same_bits() {
    // One shape through its serving verdict: on an AVX-512 host the 16x16,
    // with a fringe on both axes.
    let (m, n, k) = (70usize, 200usize, 300usize);
    let (_, driver) = TunedGemm::new().driver_for(m, n, k).unwrap();
    let mut cases = Cases::new(0x0ff5_e7ed);
    let a: Vec<f32> = (0..m * k).map(|_| cases.f32_unit()).collect();
    let b: Vec<f32> = (0..k * n).map(|_| cases.f32_unit()).collect();
    let c0: Vec<f32> = (0..m * n).map(|_| cases.f32_unit()).collect();
    let mut first: Option<Vec<f32>> = None;
    for a_at in [0, 16, 32, 48] {
        for b_at in [0, 16, 32, 48] {
            for c_at in [0, 16, 32, 48] {
                let ((a_buf, a0), (b_buf, b0), (mut c_buf, c0_at)) =
                    (placed(&a, a_at), placed(&b, b_at), placed(&c0, c_at));
                let problem = GemmProblem::new(
                    MatRef::from_slice(&a_buf[a0..a0 + m * k], m, k),
                    MatRef::from_slice(&b_buf[b0..b0 + k * n], k, n),
                    MatMut::from_slice(&mut c_buf[c0_at..c0_at + m * n], m, n),
                )
                .alpha(1.5)
                .beta(-0.25);
                driver.gemm(problem).unwrap();
                let c = c_buf[c0_at..c0_at + m * n].to_vec();
                match &first {
                    None => first = Some(c),
                    Some(want) => assert_eq!(&c, want, "A, B, C at {a_at}, {b_at}, {c_at} bytes past a line"),
                }
            }
        }
    }
}

/// The four shapes of the benchmark's `batch_shared_b` workload, and its
/// entries per batch.
const BATCH_SHARED_B: [(usize, usize, usize); 4] =
    [(49, 512, 2048), (49, 2048, 512), (196, 256, 1024), (196, 1024, 256)];
const BATCH_ENTRIES: usize = 16;

/// The benchmark's batches, as it runs them: 16 entries against one `B`
/// through `CachedTunedGemm` with the pool at its full width, so each
/// shard's entries are one stacked pass whose micro-panels straddle
/// entries (49 and 196 rows are no whole number of any serving tile's
/// rows). Every entry must equal its own `TunedGemm::execute` bit for bit,
/// and `NaiveGemm` on its first and last rows — the rows a straddling
/// panel shares with the entries beside it.
#[test]
fn a_stacked_batch_has_the_bits_of_its_entries_on_the_batch_shared_b_shapes() {
    let executor = CachedTunedGemm::new(TunedGemm::new().with_threads(0));
    let workers = ThreadPool::global().workers();
    let mut cases = Cases::new(0x57ac_ced0);
    for (m, n, k) in BATCH_SHARED_B {
        let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
        let acts: Vec<Matrix> =
            (0..BATCH_ENTRIES).map(|_| Matrix::from_fn(m, k, |_, _| cases.f32_unit())).collect();
        // `beta == 0` never reads `C`, so it starts as NaN.
        let mut cs: Vec<Matrix> =
            (0..BATCH_ENTRIES).map(|_| Matrix::from_fn(m, n, |_, _| f32::NAN)).collect();
        let batch = acts.iter().zip(cs.iter_mut());
        let report = executor.gemm_batch(
            batch.map(|(a, c)| GemmProblem::new(a.view(), b.view(), c.view_mut()).beta(0.0)).collect(),
        );
        assert!(report.stacked_passes >= 1, "{m}x{n}x{k}: no stacked pass on {workers} workers");
        let verdict = executor.tuned().driver_for(m, n, k).unwrap().0;
        let label = format!("{m}x{n}x{k} under {}x{} kc {}", verdict.mr, verdict.nr, verdict.kc);
        for (e, (a, got)) in acts.iter().zip(&cs).enumerate() {
            report.outcomes[e].as_ref().expect("healthy entry");
            let mut alone = Matrix::from_fn(m, n, |_, _| f32::NAN);
            executor
                .tuned()
                .execute(GemmProblem::new(a.view(), b.view(), alone.view_mut()).beta(0.0))
                .unwrap();
            assert!(
                got.data.iter().zip(&alone.data).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{label}, entry {e}"
            );
            for row in [0, m - 1] {
                let mut want = Matrix::zeros(1, n);
                let naive =
                    GemmProblem::new(a.view().submatrix(row, 0, 1, k), b.view(), want.view_mut()).beta(0.0);
                NaiveGemm.gemm(naive).unwrap();
                let got = &got.data[row * n..(row + 1) * n];
                assert!(
                    got.iter().zip(&want.data).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{label}, entry {e}, row {row}: against NaiveGemm"
                );
            }
        }
    }
}
