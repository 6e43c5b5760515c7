//! Reproduces Fig. 15: GFLOPS per unique ResNet50 v1.5 layer (Table I) for
//! the four implementations.

use dnn_models::resnet50_table;
use exo_bench::{format_header, format_row, gflops_for_all};
use gemm_blis::{GemmSimulator, Implementation};

fn main() {
    let sim = GemmSimulator::new().expect("simulator builds");
    let workload = resnet50_table();
    println!("Fig. 15 — ResNet50 v1.5 per-layer performance (GFLOPS)");
    println!("{}", format_header("layer (m,n,k)"));
    let mut best_counts = [0usize; 4];
    for (idx, p) in workload.unique_layers.iter().enumerate() {
        let values = gflops_for_all(&sim, p.m, p.n, p.k);
        let best =
            values.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).map(|(i, _)| i).unwrap();
        best_counts[best] += 1;
        println!("{}", format_row(&format!("{} ({},{},{})", idx + 1, p.m, p.n, p.k), &values));
    }
    println!("\nbest-implementation count per layer:");
    for (imp, count) in Implementation::all().iter().zip(best_counts) {
        println!("  {:<10} {}", imp.label(), count);
    }
    let exo_kernels: std::collections::BTreeSet<std::sync::Arc<str>> = workload
        .unique_layers
        .iter()
        .map(|p| sim.select_kernel(Implementation::AlgExo, p.m, p.n, p.k).name)
        .collect();
    println!("ALG+EXO kernels used: {}", exo_kernels.into_iter().collect::<Vec<_>>().join(", "));
}
