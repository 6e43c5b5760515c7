//! Wall-clock Criterion benchmark of the full BLIS-like GEMM driver with the
//! different micro-kernel families (functional counterpart of Figs. 14/15).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exo_isa::neon_f32;
use gemm_blis::{
    exo_kernel, naive_gemm, neon_intrinsics_kernel, BlisGemm, GemmExecutor, GemmProblem, Matrix,
};
use std::hint::black_box;
use std::sync::Arc;
use ukernel_gen::MicroKernelGenerator;

fn bench_gemm(c: &mut Criterion) {
    let (m, n, k) = (96usize, 96usize, 96usize);
    let a = Matrix::from_fn(m, k, |i, j| ((i + 2 * j) % 7) as f32 * 0.25);
    let b = Matrix::from_fn(k, n, |i, j| ((3 * i + j) % 5) as f32 * 0.5);

    let generator = MicroKernelGenerator::new(neon_f32());
    let exo = exo_kernel(Arc::new(generator.generate(8, 8).unwrap()));
    let neon = neon_intrinsics_kernel();

    let mut group = c.benchmark_group("gemm_96x96x96");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function(BenchmarkId::new("naive", "triple_loop"), |bench| {
        bench.iter(|| {
            let mut c_out = Matrix::zeros(m, n);
            naive_gemm(black_box(&a), black_box(&b), &mut c_out);
            black_box(c_out);
        });
    });
    for (label, kernel) in [("alg_exo_8x8", &exo), ("alg_neon_8x12", &neon)] {
        let driver = BlisGemm::for_kernel(kernel, &carmel_sim::CacheHierarchy::carmel());
        group.bench_function(BenchmarkId::new("blis_like", label), |bench| {
            bench.iter(|| {
                let mut c_out = Matrix::zeros(m, n);
                let problem =
                    GemmProblem::new(black_box(&a).view(), black_box(&b).view(), c_out.view_mut());
                driver.gemm(problem).unwrap();
                black_box(c_out);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
