//! The `exo-tune` sweep: prints the explored micro-kernel design space and
//! the per-shape winners for the paper's square problems (Fig. 14) and the
//! ResNet50 / VGG16 layer tables (Tables I/II) — the repo's analogue of the
//! paper's micro-kernel sweep.
//!
//! Run with: `cargo run --release --bin autotune [registry.json]`
//!
//! With a path argument the verdicts are persisted there; a second run then
//! loads every verdict from the file without invoking the generator.
//!
//! Two questions are answered side by side. The *modelled* columns are what
//! the Carmel model picks from the whole ARM Neon space (`Tuner::new()`,
//! the paper's question; the same numbers on every host). The *serving*
//! columns are what `TunedGemm::new()` dispatches on this host: the same
//! ranking over the executing vector ISA's own library where the tree has
//! one (`avx512_f32` on AVX-512) and the Neon one elsewhere, confined to
//! the tiles that ISA runs in whole vectors inside its register file, each
//! tile blocked for the caches probed on this host (printed first, with the
//! `(mc, kc, nc)` every serving tile gets).

use dnn_models::{resnet50_table, vgg16_table};
use exo_tune::{tune_workload, workload_seconds, KernelRegistry, TunedGemm, Tuner};
use gemm_blis::{active_isa, Implementation, SimOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tuner = match std::env::args().nth(1) {
        Some(path) => {
            println!("registry: {path}");
            Tuner::with_registry(KernelRegistry::with_persistence("neon-f32", path)?)?
        }
        None => Tuner::new(),
    };
    let warm_verdicts = tuner.registry().len();

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
    println!("  {}\n", blocked.join(", "));

    // The fixed-kernel baseline the tuned path must beat: ALG+EXO pinned to
    // the monolithic 8x12 tile. Building it generates the design-space tiles
    // once; snapshot the count so the summary reports only tuning-driven
    // generation (zero on a warm registry).
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
        "\ntuned {} shapes ({} loaded warm); kernel cache holds {} kernels, {} generated during tuning",
        tuner.registry().len(),
        warm_verdicts,
        tuner.registry().kernel_cache().len(),
        tuner.registry().generator_invocations() - baseline_invocations,
    );
    Ok(())
}
