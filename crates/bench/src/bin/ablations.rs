//! Ablation studies for the design choices `gemm_blis::SimOptions` and
//! `ukernel_gen::KernelOptions` expose: specialisation vs. monolithic EXO
//! kernel, prefetch, analytical vs. fixed blocking, unrolling, and ISA vector
//! length.

use carmel_sim::CarmelCore;
use exo_isa::{avx512_f32, neon_f32};
use gemm_blis::{GemmSimulator, Implementation, SimOptions};
use ukernel_gen::{KernelOptions, MicroKernelGenerator};

fn main() {
    let core = CarmelCore::carmel();

    println!("== Ablation 1: size-specialised vs monolithic EXO kernels ==");
    let specialised = GemmSimulator::with_options(core.clone(), SimOptions::default()).unwrap();
    let monolithic = GemmSimulator::with_options(
        core.clone(),
        SimOptions { monolithic_exo: true, ..SimOptions::default() },
    )
    .unwrap();
    for (m, n, k) in [(49, 512, 4608), (196, 256, 2304), (2000, 2000, 2000)] {
        let s = specialised.simulate(Implementation::AlgExo, m, n, k).gflops;
        let mo = monolithic.simulate(Implementation::AlgExo, m, n, k).gflops;
        println!("  {m}x{n}x{k}: specialised {s:.2} GFLOPS vs monolithic {mo:.2} GFLOPS");
    }

    println!("\n== Ablation 2: software prefetch of the C tile ==");
    for (m, n, k) in [(1000, 1000, 1000), (3000, 3000, 3000)] {
        let with = specialised.simulate(Implementation::BlisLib, m, n, k).gflops;
        let without = specialised.simulate(Implementation::AlgBlis, m, n, k).gflops;
        println!("  {m}^3-ish: prefetch {with:.2} GFLOPS vs no prefetch {without:.2} GFLOPS");
    }

    println!("\n== Ablation 3: analytical vs fixed cache blocking ==");
    let fixed = GemmSimulator::with_options(
        core.clone(),
        SimOptions { analytical_blocking: false, ..SimOptions::default() },
    )
    .unwrap();
    for (m, n, k) in [(2000, 2000, 2000), (784, 512, 4608)] {
        let a = specialised.simulate(Implementation::AlgExo, m, n, k).gflops;
        let f = fixed.simulate(Implementation::AlgExo, m, n, k).gflops;
        println!("  {m}x{n}x{k}: analytical {a:.2} GFLOPS vs BLIS defaults {f:.2} GFLOPS");
    }

    println!("\n== Ablation 4: unrolling of the operand loads (Section III step f) ==");
    let generator = MicroKernelGenerator::new(neon_f32());
    let unrolled = generator.generate(8, 12).unwrap();
    let rolled =
        generator.generate_with(&KernelOptions { unroll: false, ..KernelOptions::new(8, 12) }).unwrap();
    let solo = |k: &ukernel_gen::GeneratedKernel| core.solo_gflops(&k.trace, 512, 2.0 * 8.0 * 12.0 * 512.0);
    println!(
        "  8x12 unrolled: {:.2} GFLOPS, rolled: {:.2} GFLOPS (trace-identical, structure differs)",
        solo(&unrolled),
        solo(&rolled)
    );

    println!("\n== Ablation 5: ISA retarget (Neon 4-lane vs AVX-512 16-lane) ==");
    let avx = MicroKernelGenerator::new(avx512_f32());
    let neon_k = generator.generate(8, 12).unwrap();
    let avx_k = avx.generate(16, 12).unwrap();
    println!(
        "  neon 8x12 uses {} lanes/vector and emits `vfmaq_laneq_f32`; avx512 16x12 uses {} lanes and emits `_mm512_fmadd_ps`",
        neon_k.lanes, avx_k.lanes
    );
    assert!(avx_k.c_code.contains("_mm512_fmadd_ps"));
}
