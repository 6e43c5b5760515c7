//! Serving scenario: a persistent [`exo_serve::GemmService`] fed a
//! ResNet-50 layer mix from four concurrent caller threads.
//!
//! Each caller owns a slice of the network's unique GEMM-lowered
//! convolution shapes (miniaturised so the example stays quick), builds
//! owned jobs, and submits them through the shared bounded queue. The
//! service owns no thread: whichever caller finds the queue idle drains
//! whatever queued up into batches on its own thread, the shared worker
//! pool executes them, and every caller gets its `C` operands back through
//! job handles. Aggregate service counters are printed at the end.
//!
//! Run with: `cargo run --release --example gemm_service`

use dnn_models::resnet50_table;
use exo_serve::{CachedTunedGemm, GemmJob, GemmService, OwnedMat, ServiceConfig};
use exo_tune::TunedGemm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The unique ResNet-50 v1.5 GEMM shapes, miniaturised: the m dimension
    // (spatial positions x batch) and k (receptive field) are capped so the
    // whole mix serves in well under a second, while the shape *diversity*
    // — what the service's batching has to cope with — is preserved.
    let workload = resnet50_table();
    let shapes: Vec<(usize, usize, usize)> =
        workload.unique_layers.iter().map(|p| (p.m.min(128), p.n.min(256), p.k.min(768))).collect();
    println!(
        "serving a miniaturised {} mix: {} unique layer shapes, 4 caller threads",
        workload.name,
        shapes.len()
    );

    let service = GemmService::with_config(
        CachedTunedGemm::new(TunedGemm::new()),
        ServiceConfig { queue_capacity: 16, max_batch: 8 },
    );

    // Four callers, each owning an interleaved slice of the layer mix.
    std::thread::scope(|scope| {
        for caller in 0..4 {
            let shapes = &shapes;
            let service = &service;
            scope.spawn(move || {
                let handles: Vec<_> = shapes
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| idx % 4 == caller)
                    .map(|(idx, &(m, n, k))| {
                        let a =
                            OwnedMat::from_fn(m, k, move |i, j| ((i * 3 + j + idx) % 11) as f32 * 0.1 - 0.5);
                        let b = OwnedMat::from_fn(k, n, move |i, j| ((i + 5 * j + idx) % 13) as f32 * 0.05);
                        let job = GemmJob::new(a, b, OwnedMat::zeros(m, n)).beta(0.0);
                        (m, n, k, service.submit(job).expect("service accepting"))
                    })
                    .collect();
                let mut flops = 0u64;
                for (m, n, k, handle) in handles {
                    let done = handle.wait().expect("job failed");
                    assert_eq!(done.stats.flop_count, 2 * (m * n * k) as u64);
                    assert!(done.stats.batched);
                    flops += done.stats.flop_count;
                }
                println!("  caller {caller}: all layers served ({:.3} GFLOP)", flops as f64 / 1e9);
            });
        }
    });

    let stats = service.stats();
    println!("\naggregate service stats:\n  {stats}");
    assert_eq!(stats.jobs_completed, shapes.len() as u64);
    assert_eq!(stats.jobs_failed, 0);
    Ok(())
}
