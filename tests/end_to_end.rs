//! Cross-crate integration tests: instruction libraries -> scheduling ->
//! generated kernels -> BLIS-like GEMM driver -> numerical agreement with a
//! naive reference.

use std::sync::Arc;

use exo_isa::{avx512_f32, neon_f16, neon_f32};
use gemm_blis::{exo_kernel, BlisGemm, BlockingParams, GemmExecutor, GemmProblem, Matrix, NaiveGemm};
use ukernel_gen::{KernelSet, MicroKernelGenerator, Strategy};

fn check_full_gemm(kernel: &gemm_blis::KernelImpl, m: usize, n: usize, k: usize) {
    let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3 + 1) % 13) as f32 * 0.25 - 1.5);
    let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 11 + 2) % 17) as f32 * 0.125 - 1.0);
    let mut c = Matrix::from_fn(m, n, |i, j| ((i + j) % 3) as f32);
    let mut c_ref = c.clone();

    let blocking = BlockingParams { mc: 32, kc: 24, nc: 48, mr: kernel.mr, nr: kernel.nr };
    BlisGemm::new(blocking)
        .with_kernel(kernel.clone())
        .gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()))
        .expect("gemm runs");
    NaiveGemm.gemm(GemmProblem::new(a.view(), b.view(), c_ref.view_mut())).unwrap();
    for (idx, (x, y)) in c.data.iter().zip(&c_ref.data).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{} mismatch at {idx}: {x} vs {y} for {m}x{n}x{k}", kernel.name);
    }
}

#[test]
fn generated_kernels_run_inside_the_blis_algorithm() {
    let generator = MicroKernelGenerator::new(neon_f32());
    for (mr, nr) in [(8, 12), (8, 8), (4, 4), (1, 12)] {
        let kernel = exo_kernel(Arc::new(generator.generate(mr, nr).unwrap()));
        check_full_gemm(&kernel, 40, 36, 29);
        // Fringe-heavy problem.
        check_full_gemm(&kernel, 37, 41, 23);
    }
}

#[test]
fn baseline_kernels_and_generated_kernels_agree_on_dnn_shapes() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let exo = exo_kernel(Arc::new(generator.generate(8, 8).unwrap()));
    // The baselines' 8x12 tile, generated and on the default native pin.
    let baseline = exo_kernel(Arc::new(generator.generate(8, 12).unwrap()));
    // A miniature version of the ResNet50 layer 12 shape (196 x 256 x 2304,
    // scaled down to keep the test fast).
    for kernel in [&exo, &baseline] {
        check_full_gemm(kernel, 49, 64, 72);
    }
}

#[test]
fn all_paper_tile_shapes_generate_for_all_isas_where_applicable() {
    let neon = MicroKernelGenerator::new(neon_f32());
    let set = KernelSet::generate(&neon, &KernelSet::paper_shapes()).unwrap();
    assert_eq!(set.kernels().len(), 8);
    for kernel in set.kernels() {
        assert!(kernel.c_code.contains("void uk_"));
        assert!(!kernel.asm.is_empty());
        assert!(kernel.proc.validate().is_ok());
    }

    // The f16 target covers the multiple-of-8 shapes.
    let f16 = MicroKernelGenerator::new(neon_f16());
    let k = f16.generate(8, 8).unwrap();
    assert_eq!(k.strategy, Strategy::Laneq);
    assert!(k.c_code.contains("vfmaq_laneq_f16"));

    // The AVX-512 target has no lane-indexed FMA and falls back to the
    // broadcast recipe.
    let avx = MicroKernelGenerator::new(avx512_f32());
    let k = avx.generate(16, 12).unwrap();
    assert_eq!(k.strategy, Strategy::BroadcastB);
    assert!(k.c_code.contains("_mm512_fmadd_ps"));
}

#[test]
fn f16_kernel_matches_a_half_precision_reference() {
    let generator = MicroKernelGenerator::new(neon_f16());
    let kernel = generator.generate(8, 8).unwrap();
    let kc = 24usize;
    // Values chosen to stay exactly representable in f16 throughout.
    let a: Vec<f32> = (0..kc * 8).map(|i| ((i % 4) as f32) * 0.25).collect();
    let b: Vec<f32> = (0..kc * 8).map(|i| ((i % 3) as f32) * 0.5).collect();
    let mut c = vec![0.0f32; 64];
    kernel.run_packed(kc, &a, &b, &mut c).unwrap();
    let mut c_ref = vec![0.0f32; 64];
    for k in 0..kc {
        for j in 0..8 {
            for i in 0..8 {
                c_ref[j * 8 + i] += a[k * 8 + i] * b[k * 8 + j];
            }
        }
    }
    // Every product and partial sum is exact in f16, so the order of the
    // additions does not matter: the bits are the reference's.
    assert_eq!(c, c_ref);
}

#[test]
fn generated_code_listings_match_paper_structure() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let kernel = generator.generate(8, 12).unwrap();
    // v1..v6 snapshots (Figs. 6-11).
    assert_eq!(kernel.steps.len(), 6);
    // The register tiles of Fig. 8/9.
    let final_text = exo_ir::printer::proc_to_string(&kernel.proc);
    assert!(final_text.contains("C_reg: f32[12, 2, 4] @ Neon"));
    assert!(final_text.contains("A_reg: f32[2, 4] @ Neon"));
    assert!(final_text.contains("B_reg: f32[3, 4] @ Neon"));
    // The Fig. 12 instruction mix: 2 ldp + 1 ldr + 24 fmla per iteration.
    let counts = exo_codegen::count_mnemonics(&kernel.asm);
    assert_eq!(counts.get("fmla"), Some(&24));
    assert_eq!(counts.get("ldp").copied().unwrap_or(0) * 2 + counts.get("ldr").copied().unwrap_or(0), 5);
}
