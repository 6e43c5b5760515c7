//! # exo-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation (Section IV). Each figure has a dedicated binary printing the
//! same series the paper plots — modelled Carmel numbers, identical on every
//! host; the table below is the experiment index and
//! `tests/paper_results.rs` pins the paper-vs-modelled comparisons. Measured
//! numbers come from two other places (README, "Execution backends"): the
//! `gemm_throughput` binary's same-run gates, and the `exo_bench` package
//! under `src/bin/exo_bench` for everything absolute.
//!
//! | target | artefact |
//! |---|---|
//! | `codegen_steps` | Figs. 4–12 (step-by-step generation + assembly) |
//! | `fig13_solo` | Fig. 13 (solo-mode micro-kernels) |
//! | `fig14_square` | Fig. 14 (square GEMM) |
//! | `fig15_resnet_layers` | Fig. 15 (ResNet50 per-layer GFLOPS) |
//! | `fig16_resnet_time` | Fig. 16 (ResNet50 aggregated time) |
//! | `fig17_vgg_layers` | Fig. 17 (VGG16 per-layer GFLOPS) |
//! | `fig18_vgg_time` | Fig. 18 (VGG16 aggregated time) |
//! | `tables_dnn` | Tables I and II (IM2ROW GEMM dimensions) |
//! | `ablations` | design-choice ablations ([`gemm_blis::SimOptions`], `ukernel_gen::KernelOptions`, ISA vector length) |
//! | `autotune` | the `exo-tune` sweep: explored design space + per-shape winners |

#![warn(missing_docs)]

use gemm_blis::{GemmSimulator, Implementation};

/// Formats one row of a figure table: a label followed by one value per
/// implementation.
pub fn format_row(label: &str, values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:>10.2}")).collect();
    format!("{label:<22}{}", cells.join(" "))
}

/// Formats the header row for the standard four implementations.
pub fn format_header(first_column: &str) -> String {
    let labels: Vec<String> = Implementation::all().iter().map(|i| format!("{:>10}", i.label())).collect();
    format!("{first_column:<22}{}", labels.join(" "))
}

/// Runs all four implementations on one problem and returns the GFLOPS in
/// the order of [`Implementation::all`].
pub fn gflops_for_all(sim: &GemmSimulator, m: usize, n: usize, k: usize) -> Vec<f64> {
    Implementation::all().iter().map(|&imp| sim.simulate(imp, m, n, k).gflops).collect()
}

/// Runs all four implementations on one problem and returns the seconds in
/// the order of [`Implementation::all`].
pub fn seconds_for_all(sim: &GemmSimulator, m: usize, n: usize, k: usize) -> Vec<f64> {
    Implementation::all().iter().map(|&imp| sim.simulate(imp, m, n, k).seconds).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_is_stable() {
        let row = format_row("8x12", &[31.25, 30.5, 29.0, 32.0]);
        assert!(row.starts_with("8x12"));
        assert_eq!(row.matches('.').count(), 4);
        let header = format_header("dims");
        assert!(header.contains("ALG+EXO"));
        assert!(header.contains("BLIS"));
    }

    #[test]
    fn per_implementation_helpers_return_four_values() {
        let sim = GemmSimulator::new().unwrap();
        let g = gflops_for_all(&sim, 96, 96, 96);
        assert_eq!(g.len(), 4);
        let s = seconds_for_all(&sim, 96, 96, 96);
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|&x| x > 0.0));
    }
}
