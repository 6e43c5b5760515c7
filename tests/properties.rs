//! Property-based tests over the core invariants of the workspace:
//!
//! * generated micro-kernels agree with the naive reference for random data
//!   and random depths,
//! * the BLIS-like driver agrees with the naive reference for random problem
//!   sizes,
//! * scheduling operators preserve interpreter semantics, and every tier
//!   computes the interpreter's bits,
//! * packing round-trips, and the f16 model round-trips exactly
//!   representable values.
//!
//! The workspace carries no external dependencies, so instead of `proptest`
//! the harness draws its cases from a seeded xorshift generator: each
//! property runs over a fixed number of pseudo-random cases, fully
//! deterministic across runs.

mod common;

use std::sync::Arc;

use common::Cases;

use exo_codegen::{CodegenError, TensorView};
use exo_ir::interp::{run_packed, run_proc, ArgValue, TensorData};
use exo_ir::{ScalarType, Sym};
use exo_isa::{neon_f32, ukernel_ref_simple};
use gemm_blis::{exo_kernel, BlisGemm, BlockingParams, GemmExecutor, GemmProblem, MatRef, Matrix, NaiveGemm};
use ukernel_gen::MicroKernelGenerator;

const TILE_SHAPES: [(usize, usize); 9] =
    [(8, 12), (8, 8), (8, 4), (4, 12), (4, 8), (4, 4), (1, 12), (1, 8), (3, 5)];

/// Every generated kernel computes exactly what the naive reference
/// computes, for any tile shape, depth, and data.
#[test]
fn generated_kernels_match_reference() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let mut cases = Cases::new(0xA5A5_0001);
    for _ in 0..12 {
        let &(mr, nr) = cases.pick(&TILE_SHAPES);
        let kc = cases.usize_in(1, 48);
        let kernel = generator.generate(mr, nr).unwrap();
        let a: Vec<f32> = (0..kc * mr).map(|_| cases.f32_unit()).collect();
        let b: Vec<f32> = (0..kc * nr).map(|_| cases.f32_unit()).collect();
        let mut c: Vec<f32> = (0..mr * nr).map(|_| cases.f32_unit()).collect();
        let mut c_ref = c.clone();
        kernel.run_packed(kc, &a, &b, &mut c).unwrap();
        for k in 0..kc {
            for j in 0..nr {
                for i in 0..mr {
                    c_ref[j * mr + i] = a[k * mr + i].mul_add(b[k * nr + j], c_ref[j * mr + i]);
                }
            }
        }
        for (x, y) in c.iter().zip(&c_ref) {
            assert_eq!(x.to_bits(), y.to_bits(), "{mr}x{nr} kc={kc}: {x} vs {y}");
        }
    }
}

/// The five-loop BLIS-like driver agrees with the naive reference for
/// arbitrary (fringe-heavy) problem sizes.
#[test]
fn blis_driver_matches_naive() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let kernel = exo_kernel(Arc::new(generator.generate(8, 8).unwrap()));
    let mut cases = Cases::new(0xA5A5_0002);
    for _ in 0..12 {
        let m = cases.usize_in(1, 40);
        let n = cases.usize_in(1, 40);
        let k = cases.usize_in(1, 32);
        let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit());
        let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
        let mut c = Matrix::zeros(m, n);
        let mut c_ref = Matrix::zeros(m, n);
        let blocking = BlockingParams { mc: 16, kc: 12, nc: 24, mr: 8, nr: 8 };
        BlisGemm::new(blocking)
            .with_kernel(kernel.clone())
            .gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()))
            .unwrap();
        NaiveGemm.gemm(GemmProblem::new(a.view(), b.view(), c_ref.view_mut())).unwrap();
        for (x, y) in c.data.iter().zip(&c_ref.data) {
            assert_eq!(x.to_bits(), y.to_bits(), "{m}x{n}x{k}: {x} vs {y}");
        }
    }
}

/// `divide_loop` preserves the interpreter semantics of the reference
/// kernel for arbitrary divisible sizes.
#[test]
fn divide_loop_preserves_semantics() {
    let mut cases = Cases::new(0xA5A5_0003);
    for _ in 0..10 {
        let factor = *cases.pick(&[1usize, 2, 4, 8]);
        let multiple = cases.usize_in(1, 4);
        let kc = cases.usize_in(1, 12);
        let mr = factor * multiple;
        let nr = 4usize;
        let base = ukernel_ref_simple(ScalarType::F32);
        let p = exo_sched::partial_eval(&base, &[mr as i64, nr as i64]).unwrap();
        let q = exo_sched::divide_loop(&p, "i", factor as i64, "it", "itt", true).unwrap();

        let a = TensorData::from_fn(ScalarType::F32, vec![kc, mr], |i| (i % 9) as f64 * 0.5 - 2.0);
        let b = TensorData::from_fn(ScalarType::F32, vec![kc, nr], |i| (i % 7) as f64 * 0.25);
        let c = TensorData::zeros(ScalarType::F32, vec![nr, mr]);
        let mut args_p = vec![
            ArgValue::Size(kc as i64),
            ArgValue::Tensor(a.clone()),
            ArgValue::Tensor(b.clone()),
            ArgValue::Tensor(c.clone()),
        ];
        let mut args_q = args_p.clone();
        run_proc(&p, &mut args_p).unwrap();
        run_proc(&q, &mut args_q).unwrap();
        assert_eq!(args_p[3].as_tensor().unwrap(), args_q[3].as_tensor().unwrap());
    }
}

/// Packing then reading panels reproduces the original matrix elements
/// (and zero-pads the fringe).
#[test]
fn packing_round_trips() {
    let mut cases = Cases::new(0xA5A5_0004);
    for _ in 0..12 {
        let m = cases.usize_in(1, 20);
        let k = cases.usize_in(1, 20);
        let mr = *cases.pick(&[4usize, 8]);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32).collect();
        let panels = m.div_ceil(mr);
        let mut packed = vec![f32::NAN; panels * k * mr];
        gemm_blis::pack_a_into(&mut packed, MatRef::from_slice(&a, m, k), 0, 0, m, k, mr, 1.0);
        for p in 0..panels {
            for kk in 0..k {
                for i in 0..mr {
                    let got = packed[p * k * mr + kk * mr + i];
                    let row = p * mr + i;
                    let expected = if row < m { a[row * k + kk] } else { 0.0 };
                    assert_eq!(got, expected);
                }
            }
        }
    }
}

/// The f16 storage model is idempotent: rounding twice equals rounding
/// once, and exactly representable values survive unchanged.
#[test]
fn f16_rounding_is_idempotent() {
    let mut cases = Cases::new(0xA5A5_0005);
    for _ in 0..100 {
        let v = cases.f32_unit() as f64 * 60000.0;
        let once = exo_ir::types::f16_round(v);
        let twice = exo_ir::types::f16_round(once);
        assert_eq!(once, twice, "v = {v}");
    }
}

/// The reference interpreter and every tier lowered from it agree on the
/// reference kernel for random sizes and off-grid values: the checked tape
/// and the superword interpreter take the same `run_views` call and return
/// the interpreter's bits.
#[test]
fn interpreter_and_compiled_execution_agree() {
    let mut cases = Cases::new(0xA5A5_0006);
    for _ in 0..10 {
        let mr = cases.usize_in(1, 6);
        let nr = cases.usize_in(1, 6);
        let kc = cases.usize_in(1, 10);
        let base = ukernel_ref_simple(ScalarType::F32);
        let p =
            exo_sched::partial_eval_named(&base, &[(Sym::new("MR"), mr as i64), (Sym::new("NR"), nr as i64)])
                .unwrap();
        let a: Vec<f32> = (0..kc * mr).map(|_| cases.f32_unit()).collect();
        let b: Vec<f32> = (0..kc * nr).map(|_| cases.f32_unit()).collect();
        let c0: Vec<f32> = (0..nr * mr).map(|_| cases.f32_unit()).collect();
        let mut c_interp = c0.clone();
        run_packed(&p, kc, &a, &b, &mut c_interp).unwrap();

        let tape = Arc::new(exo_codegen::compile(&p).unwrap());
        let superword = tape.to_superword().unwrap();
        type Run<'k> = &'k dyn Fn(&[i64], &mut [TensorView<'_>]) -> Result<(), CodegenError>;
        let tiers: [(&str, Run<'_>); 2] =
            [("tape", &|s, t| tape.run_views(s, t)), ("superword", &|s, t| superword.run_views(s, t))];
        for (tier, run) in tiers {
            let mut c = c0.clone();
            run(&[kc as i64], &mut [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Rw(&mut c)])
                .unwrap_or_else(|e| panic!("{tier} {mr}x{nr} kc={kc}: {e}"));
            assert_eq!(c, c_interp, "{mr}x{nr} kc={kc}: {tier} vs the interpreter");
        }
    }
}
