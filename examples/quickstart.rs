//! Quickstart: generate the paper's 8x12 ARM Neon micro-kernel step by step,
//! inspect the artefacts, and run it.
//!
//! Run with: `cargo run --example quickstart`

use exo_ir::printer::proc_to_string;
use exo_isa::neon_f32;
use ukernel_gen::MicroKernelGenerator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a hardware target: the instruction library fully describes it.
    let isa = neon_f32();
    println!("target ISA: {} ({} lanes of {})\n", isa.name, isa.lanes, isa.elem);

    // 2. Generate the 8x12 kernel with the Section III recipe.
    let generator = MicroKernelGenerator::new(isa);
    let kernel = generator.generate(8, 12)?;

    println!("scheduling steps applied ({} snapshots):", kernel.steps.len());
    for step in &kernel.steps {
        println!("  - {}", step.label);
    }

    // 3. The final scheduled procedure, in Exo-style syntax.
    println!("\nfinal scheduled kernel:\n{}", proc_to_string(&kernel.proc));

    // 4. The generated C-with-intrinsics code and the k-loop assembly.
    println!("generated C code (excerpt):");
    for line in kernel.c_code.lines().take(12) {
        println!("  {line}");
    }
    println!("  ...\n");
    println!("k-loop pseudo-assembly (excerpt):");
    for line in kernel.asm.lines().take(10) {
        println!("  {line}");
    }
    println!("  ...\n");

    // 5. Run it: C[12][8] += Ac[KC][8] * Bc[KC][12], and check against a
    //    naive triple loop.
    let kc = 64usize;
    let a: Vec<f32> = (0..kc * 8).map(|i| (i % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..kc * 12).map(|i| (i % 5) as f32 * 0.5 - 1.0).collect();
    let mut c = vec![0.0f32; 8 * 12];
    kernel.run_packed(kc, &a, &b, &mut c)?;

    let mut c_ref = vec![0.0f32; 8 * 12];
    for k in 0..kc {
        for j in 0..12 {
            for i in 0..8 {
                c_ref[j * 8 + i] += a[k * 8 + i] * b[k * 12 + j];
            }
        }
    }
    let max_err = c.iter().zip(&c_ref).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max);
    println!("ran the generated kernel with KC = {kc}: max |error| vs naive GEMM = {max_err:e}");
    assert!(max_err < 1e-4);

    // 6. Per-iteration instruction mix — the numbers behind the paper's
    //    Fig. 12 and the performance model.
    println!(
        "instruction mix per k iteration: {} vector loads, {} vector FMAs",
        kernel.trace.per_k_count(exo_ir::InstrClass::VecLoad),
        kernel.trace.per_k_count(exo_ir::InstrClass::VecFma)
    );

    // 7. The production entry point: drop the kernel into the five-loop
    //    BLIS-like driver and solve a full problem through the
    //    MatRef/GemmProblem/GemmExecutor front door (see
    //    `examples/blas_api.rs` for the strided/transposed/alpha-beta
    //    tour).
    use gemm_blis::{exo_kernel, BlisGemm, BlockingParams, GemmExecutor, GemmProblem, Matrix};
    let kernel = exo_kernel(std::sync::Arc::new(kernel));
    let blocking = BlockingParams::analytical(&carmel_sim::CacheHierarchy::carmel(), kernel.mr, kernel.nr, 4);
    let driver = BlisGemm::new(blocking).with_kernel(kernel);
    let (m, n, k) = (100usize, 90usize, 70usize);
    let a = Matrix::from_fn(m, k, |i, j| ((i + 2 * j) % 7) as f32 * 0.25 - 0.5);
    let b = Matrix::from_fn(k, n, |i, j| ((3 * i + j) % 5) as f32 * 0.5 - 1.0);
    let mut c_full = Matrix::zeros(m, n);
    let stats = driver.gemm(GemmProblem::new(a.view(), b.view(), c_full.view_mut()))?;
    println!(
        "five-loop driver solved {}x{}x{} with `{}` ({} useful flops)",
        stats.m, stats.n, stats.k, stats.kernel, stats.flop_count
    );
    Ok(())
}
