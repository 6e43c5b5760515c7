//! The `exo-tune` sweep: prints the explored micro-kernel design space and
//! the per-shape winners for the paper's square problems (Fig. 14) and the
//! ResNet50 / VGG16 layer tables (Tables I/II) — the repo's analogue of the
//! paper's micro-kernel sweep.
//!
//! Run with: `cargo run --release -p exo-bench --bin autotune`
//!
//! It takes no arguments, and refuses any: verdicts are re-derived in every
//! run, so there is nothing to point it at.
//!
//! Two questions are answered side by side. The *modelled* columns are what
//! the Carmel model picks from the whole ARM Neon space (`Tuner::new()`,
//! the paper's question; the same numbers on every host). The *serving*
//! columns are what `TunedGemm::new()` dispatches on this host: the same
//! ranking over the executing vector ISA's own library where the tree has
//! one (`avx512_f32` on AVX-512) and the Neon one elsewhere, confined to
//! the tiles that ISA runs in whole vectors inside its register file, each
//! tile blocked for the caches probed on this host (printed first, with the
//! `(mc, kc, nc)` every serving tile gets). After them it plans every layer
//! of both tables on the fresh serving tuner and prints that cold plan's
//! wall time with the kernel cache's schedule and lowering counts: ranking
//! schedules each serving tile once and lowers none. The time is printed,
//! not checked.

use std::time::Instant;

use dnn_models::{resnet50_table, vgg16_table};
use exo_tune::{tune_workload, workload_seconds, TunedGemm, Tuner};
use gemm_blis::{active_isa, Implementation, SimOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().len() > 1 {
        eprintln!("usage: autotune (no arguments; verdicts are re-derived in every run)");
        std::process::exit(2);
    }
    let tuner = Tuner::new();

    let executing = active_isa();
    let serving = TunedGemm::new();
    let library = &serving.tuner().isa().name;
    let serving_space = serving.tuner().space();
    let host = serving_space.host().expect("a serving space has a host");
    let served: Vec<(usize, usize)> = serving_space.tile_shapes().iter().map(|t| (t.mr, t.nr)).collect();
    println!("host caches (serving blocking is sized for these): {host}");
    println!("== design space ({}) ==", tuner.isa().name);
    println!("{:>7} {:>14} {:>10} {:>10}", "tile", "strategy", "registers", "serving");
    for tile in tuner.space().tile_shapes() {
        let is_served = *library == tuner.isa().name && served.contains(&(tile.mr, tile.nr));
        println!(
            "{:>7} {:>14} {:>10} {:>10}",
            format!("{}x{}", tile.mr, tile.nr),
            tile.strategy.to_string(),
            tile.registers,
            if is_served { "yes" } else { "-" }
        );
    }
    let candidates = tuner.space().candidates().len();
    println!(
        "{} tiles x 2 Carmel blocking sources = {candidates} modelled candidates per problem",
        tuner.space().tile_shapes().len()
    );
    println!(
        "serving on {executing} ({} lanes, {} vector registers): {} of {library}'s tiles fill whole vectors, \
         each with one host blocking (mc,kc,nc):",
        executing.lanes(),
        executing.vector_registers().map_or("unbounded".to_string(), |r| r.to_string()),
        served.len(),
    );
    let blocked: Vec<String> = serving_space
        .candidates()
        .iter()
        .map(|c| {
            format!("{}x{} ({},{},{})", c.tile.mr, c.tile.nr, c.blocking.mc, c.blocking.kc, c.blocking.nc)
        })
        .collect();
    println!("  {}", blocked.join(", "));

    // The cold serving plan: the fresh serving tuner ranks every layer of
    // both tables on schedules alone.
    let layers: Vec<(usize, usize, usize)> =
        [resnet50_table(), vgg16_table()].iter().flat_map(|w| w.gemm_shapes()).collect();
    let started = Instant::now();
    for &(m, n, k) in &layers {
        serving.plan(m, n, k)?;
    }
    let cold_ms = started.elapsed().as_secs_f64() * 1e3;
    let cache = serving.registry().kernel_cache();
    println!(
        "cold serving plan: {} layers in {cold_ms:.2} ms; kernel cache: {} schedules, {} lowerings\n",
        layers.len(),
        cache.generator_invocations(),
        cache.lowerings()
    );

    // The fixed-kernel baseline the tuned path must beat: ALG+EXO pinned to
    // the monolithic 8x12 tile. Building it schedules the design-space tiles
    // once; snapshot the count so the summary reports only tuning-driven
    // scheduling (zero: the candidate tiles are problem-independent).
    let monolithic = tuner.simulator(SimOptions { monolithic_exo: true, ..SimOptions::default() })?;
    let baseline_invocations = tuner.registry().generator_invocations();

    println!("== square problems (Fig. 14 shapes) ==");
    println!(
        "{:>10} {:>7} {:>18} {:>14} {:>14}",
        "m=n=k", "winner", "blocking (mc,kc,nc)", "tuned GF", "8x12 GF"
    );
    for size in [1000usize, 2000, 3000, 4000, 5000] {
        let verdict = tuner.tune(size, size, size)?;
        let fixed = monolithic.simulate(Implementation::AlgExo, size, size, size).gflops;
        println!(
            "{:>10} {:>7} {:>18} {:>14.2} {:>14.2}",
            size,
            format!("{}x{}", verdict.mr, verdict.nr),
            format!("({},{},{})", verdict.mc, verdict.kc, verdict.nc),
            verdict.predicted_gflops,
            fixed
        );
    }

    for workload in [resnet50_table(), vgg16_table()] {
        println!("\n== {} per-layer winners ==", workload.name);
        println!(
            "{:>22} {:>7} {:>10} {:>14} {:>24}",
            "layer (m,n,k)",
            "winner",
            "kc",
            "tuned GF",
            format!("serving@{executing} (mc,kc,nc)")
        );
        let plans = tune_workload(&tuner, &workload)?;
        for plan in &plans {
            let p = &plan.problem;
            let served = serving.plan(p.m, p.n, p.k)?;
            println!(
                "{:>22} {:>7} {:>10} {:>14.2} {:>24}",
                format!("({},{},{})", p.m, p.n, p.k),
                format!("{}x{}", plan.verdict.mr, plan.verdict.nr),
                plan.verdict.kc,
                plan.verdict.predicted_gflops,
                format!("{}x{} ({},{},{})", served.mr, served.nr, served.mc, served.kc, served.nc)
            );
        }
        println!(
            "modelled tuned inference time: {:.2} ms",
            workload_seconds(&plans, tuner.core().freq_ghz) * 1e3
        );
    }

    println!(
        "\ntuned {} shapes; kernel cache holds {} tiles, {} scheduled during tuning, {} lowered",
        tuner.registry().len(),
        tuner.registry().kernel_cache().len(),
        tuner.registry().generator_invocations() - baseline_invocations,
        tuner.registry().kernel_cache().lowerings(),
    );
    Ok(())
}
