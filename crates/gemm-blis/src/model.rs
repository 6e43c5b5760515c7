//! The simulated-performance path: combines the BLIS loop structure, the
//! packing costs, and the `carmel-sim` core model to predict GFLOPS for the
//! four implementations the paper compares — `ALG+NEON`, `ALG+BLIS`, `BLIS`
//! (the library, with prefetching micro-kernel), and `ALG+EXO` (the BLIS-like
//! algorithm with generated, size-specialised micro-kernels).

use std::sync::Arc;

use carmel_sim::{gflops, CacheHierarchy, CacheLevel, CarmelCore, Residency};
use ukernel_gen::{KernelCache, KernelSet, MicroKernelGenerator};

use crate::baselines::{blis_assembly_kernel, neon_intrinsics_kernel, ModelledKernel};
use crate::blocking::BlockingParams;
use crate::GemmError;

/// The GEMM implementations of the paper's evaluation (Figs. 14–18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Implementation {
    /// BLIS-like algorithm + hand-written Neon-intrinsics micro-kernel.
    AlgNeon,
    /// BLIS-like algorithm + the BLIS assembly micro-kernel (no prefetch
    /// outside the library).
    AlgBlis,
    /// The BLIS library itself: same kernel, software prefetch of `C` inside
    /// the micro-kernel.
    BlisLib,
    /// BLIS-like algorithm + generated Exo micro-kernels, selected per
    /// problem.
    AlgExo,
}

impl Implementation {
    /// All four implementations in the order the paper plots them.
    pub fn all() -> [Implementation; 4] {
        [Implementation::AlgNeon, Implementation::AlgBlis, Implementation::BlisLib, Implementation::AlgExo]
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Implementation::AlgNeon => "ALG+NEON",
            Implementation::AlgBlis => "ALG+BLIS",
            Implementation::BlisLib => "BLIS",
            Implementation::AlgExo => "ALG+EXO",
        }
    }
}

/// Result of simulating one GEMM problem with one implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Implementation simulated.
    pub implementation: Implementation,
    /// Problem dimensions.
    pub m: usize,
    /// Problem dimensions.
    pub n: usize,
    /// Problem dimensions.
    pub k: usize,
    /// Micro-kernel shape that was used.
    pub kernel: String,
    /// Total modelled cycles.
    pub cycles: f64,
    /// Wall-clock seconds at the modelled frequency.
    pub seconds: f64,
    /// Achieved GFLOPS (`2 m n k` useful flops over the modelled time).
    pub gflops: f64,
}

/// Simulator options: the ablations the `ablations` binary of `exo-bench`
/// sweeps.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Use the analytical blocking model instead of the fixed Carmel values.
    pub analytical_blocking: bool,
    /// Force `ALG+EXO` to use only the 8x12 kernel (specialisation ablation).
    pub monolithic_exo: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { analytical_blocking: true, monolithic_exo: false }
    }
}

/// Predicts GEMM performance on the modelled Carmel core.
///
/// The `ALG+EXO` candidate kernels come from a shared
/// [`KernelCache`] instead of a hard-coded shape list: the simulator asks
/// the cache for the schedule of each shape it was configured with, so
/// several simulators (or a simulator plus the `exo-tune` autotuner) built
/// over the same cache schedule every shape at most once, and lower none.
#[derive(Debug, Clone)]
pub struct GemmSimulator {
    core: CarmelCore,
    exo_kernels: Vec<ModelledKernel>,
    options: SimOptions,
}

impl GemmSimulator {
    /// Builds a simulator with the default core, the paper's set of generated
    /// kernel shapes, and default options.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::Kernel`] if kernel scheduling fails.
    pub fn new() -> Result<Self, GemmError> {
        Self::with_options(CarmelCore::carmel(), SimOptions::default())
    }

    /// Builds a simulator with an explicit core model and options, a private
    /// kernel cache, and the paper's shape set.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::Kernel`] if kernel scheduling fails.
    pub fn with_options(core: CarmelCore, options: SimOptions) -> Result<Self, GemmError> {
        Self::with_kernel_cache(core, options, Arc::new(KernelCache::new()), &KernelSet::paper_shapes())
    }

    /// Builds a simulator whose `ALG+EXO` kernels are modelled from the
    /// schedules `cache` holds for the given tile `shapes` — the
    /// registry-driven path used by `exo-tune`. No kernel is lowered.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::Kernel`] if any shape cannot be scheduled.
    pub fn with_kernel_cache(
        core: CarmelCore,
        options: SimOptions,
        cache: Arc<KernelCache>,
        shapes: &[(usize, usize)],
    ) -> Result<Self, GemmError> {
        let generator = MicroKernelGenerator::new(exo_isa::neon_f32());
        let mut exo_kernels = Vec::with_capacity(shapes.len());
        for &(mr, nr) in shapes {
            let schedule = cache.get_or_schedule(&generator, mr, nr).map_err(|e| GemmError::Kernel {
                kernel: format!("EXO {mr}x{nr}"),
                message: e.to_string(),
            })?;
            exo_kernels.push(ModelledKernel::generated(&schedule));
        }
        if exo_kernels.is_empty() {
            return Err(GemmError::Kernel {
                kernel: "EXO".into(),
                message: "the simulator needs at least one generated kernel shape".into(),
            });
        }
        Ok(GemmSimulator { core, exo_kernels, options })
    }

    /// The core model in use.
    pub fn core(&self) -> &CarmelCore {
        &self.core
    }

    /// The generated kernels available to `ALG+EXO`.
    pub fn exo_kernels(&self) -> &[ModelledKernel] {
        &self.exo_kernels
    }

    /// Simulates one GEMM problem with one implementation.
    pub fn simulate(&self, implementation: Implementation, m: usize, n: usize, k: usize) -> SimResult {
        let kernel = self.select_kernel(implementation, m, n, k);
        let cycles = self.modelled_cycles(&kernel, m, n, k);
        let seconds = carmel_sim::cycles_to_seconds(cycles, self.core.freq_ghz);
        let useful_flops = 2.0 * m as f64 * n as f64 * k as f64;
        SimResult {
            implementation,
            m,
            n,
            k,
            kernel: kernel.name.to_string(),
            cycles,
            seconds,
            gflops: gflops(useful_flops, cycles, self.core.freq_ghz),
        }
    }

    /// Simulates the paper's solo-mode experiment (Fig. 13): the micro-kernel
    /// alone, operands L1-resident, `KC = 512`, crediting only the useful
    /// `mr x nr` flops of the probed tile shape.
    pub fn simulate_solo(
        &self,
        implementation: Implementation,
        mr: usize,
        nr: usize,
        kc: usize,
    ) -> SimResult {
        let kernel = match implementation {
            Implementation::AlgExo => self
                .exo_kernels
                .iter()
                .find(|k| k.mr == mr && k.nr == nr)
                .cloned()
                .unwrap_or_else(|| self.exo_kernels[0].clone()),
            Implementation::AlgNeon => neon_intrinsics_kernel(),
            Implementation::AlgBlis => blis_assembly_kernel(false),
            Implementation::BlisLib => blis_assembly_kernel(true),
        };
        let useful_flops = 2.0 * mr as f64 * nr as f64 * kc as f64;
        let perf = self.core.kernel_cycles(
            &kernel.trace,
            kc,
            Residency::solo(),
            kernel.prefetch_c,
            kernel.per_k_overhead,
        );
        SimResult {
            implementation,
            m: mr,
            n: nr,
            k: kc,
            kernel: kernel.name.to_string(),
            cycles: perf.total_cycles,
            seconds: carmel_sim::cycles_to_seconds(perf.total_cycles, self.core.freq_ghz),
            gflops: gflops(useful_flops, perf.total_cycles, self.core.freq_ghz),
        }
    }

    /// Chooses the micro-kernel an implementation uses for a problem. For
    /// `ALG+EXO` every generated kernel is evaluated with the performance
    /// model and the best one wins — the paper's "the optimization process
    /// boils down to evaluating a number of generated micro-kernels".
    pub fn select_kernel(
        &self,
        implementation: Implementation,
        m: usize,
        n: usize,
        k: usize,
    ) -> ModelledKernel {
        match implementation {
            Implementation::AlgNeon => neon_intrinsics_kernel(),
            Implementation::AlgBlis => blis_assembly_kernel(false),
            Implementation::BlisLib => blis_assembly_kernel(true),
            Implementation::AlgExo => {
                if self.options.monolithic_exo {
                    if let Some(kernel) = self.exo_kernels.iter().find(|kk| kk.mr == 8 && kk.nr == 12) {
                        return kernel.clone();
                    }
                }
                self.exo_kernels
                    .iter()
                    .min_by(|a, b| {
                        let ca = self.modelled_cycles(a, m, n, k);
                        let cb = self.modelled_cycles(b, m, n, k);
                        ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .cloned()
                    .expect("the kernel set is never empty")
            }
        }
    }

    fn blocking_for(&self, kernel: &ModelledKernel) -> BlockingParams {
        if self.options.analytical_blocking {
            BlockingParams::analytical(&self.core.mem, kernel.mr, kernel.nr, 4)
        } else {
            BlockingParams::carmel_defaults(kernel.mr, kernel.nr)
        }
    }

    /// Models the total cycles of one GEMM with the BLIS loop structure,
    /// using this simulator's blocking policy for the kernel.
    pub fn modelled_cycles(&self, kernel: &ModelledKernel, m: usize, n: usize, k: usize) -> f64 {
        modelled_gemm_cycles(&self.core, kernel, &self.blocking_for(kernel), m, n, k)
    }
}

/// Models the total cycles of one `m x n x k` GEMM run through the five-loop
/// BLIS structure with the given micro-kernel and blocking parameters: the
/// packing traffic of the `Ac`/`Bc` blocks plus every micro-kernel
/// invocation (fringe tiles run the full register tile on zero-padded
/// panels).
///
/// This is the cost model shared by [`GemmSimulator`] and the `exo-tune`
/// autotuner, exposed as a free function so callers can evaluate arbitrary
/// `(kernel, blocking)` candidates — not just the simulator's own policy.
pub fn modelled_gemm_cycles(
    core: &CarmelCore,
    kernel: &ModelledKernel,
    blocking: &BlockingParams,
    m: usize,
    n: usize,
    k: usize,
) -> f64 {
    if m == 0 || n == 0 || k == 0 {
        return 0.0;
    }
    let mem: &CacheHierarchy = &core.mem;
    let elem = 4.0f64;

    // Residency of the C tile: small outputs stay in cache.
    let c_bytes = (m * n) as f64 * elem;
    let c_level = if c_bytes <= mem.capacity(CacheLevel::L2) as f64 / 2.0 {
        CacheLevel::L2
    } else if c_bytes <= mem.capacity(CacheLevel::L3) as f64 / 2.0 {
        CacheLevel::L3
    } else {
        CacheLevel::Dram
    };
    let residency = Residency { a: CacheLevel::L2, b: CacheLevel::L1, c: c_level };

    let mut total = 0.0f64;
    let mut jc = 0usize;
    while jc < n {
        let nc_eff = blocking.nc.min(n - jc);
        let mut pc = 0usize;
        while pc < k {
            let kc_eff = blocking.kc.min(k - pc);
            // Pack Bc (kc x nc) from DRAM into the L3-resident buffer.
            total += mem.copy_cycles(kc_eff as f64 * nc_eff as f64 * elem, CacheLevel::Dram, CacheLevel::L3);
            let mut ic = 0usize;
            while ic < m {
                let mc_eff = blocking.mc.min(m - ic);
                // Pack Ac (mc x kc) from DRAM into the L2-resident buffer.
                total +=
                    mem.copy_cycles(mc_eff as f64 * kc_eff as f64 * elem, CacheLevel::Dram, CacheLevel::L2);
                // Micro-kernel invocations (fringe tiles run the full
                // register tile on zero-padded panels).
                let tiles = (nc_eff.div_ceil(kernel.nr) * mc_eff.div_ceil(kernel.mr)) as f64;
                let perf = core.kernel_cycles(
                    &kernel.trace,
                    kc_eff,
                    residency,
                    kernel.prefetch_c,
                    kernel.per_k_overhead,
                );
                total += tiles * perf.total_cycles;
                ic += mc_eff;
            }
            pc += kc_eff;
        }
        jc += nc_eff;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simulator() -> GemmSimulator {
        GemmSimulator::new().unwrap()
    }

    #[test]
    fn solo_mode_reproduces_fig13_shape() {
        let sim = simulator();
        // At the native 8x12 shape all three kernels are close, EXO >= BLIS >= NEON.
        let exo = sim.simulate_solo(Implementation::AlgExo, 8, 12, 512).gflops;
        let blis = sim.simulate_solo(Implementation::BlisLib, 8, 12, 512).gflops;
        let neon = sim.simulate_solo(Implementation::AlgNeon, 8, 12, 512).gflops;
        assert!(exo >= blis && blis >= neon, "exo {exo}, blis {blis}, neon {neon}");
        assert!(neon > 0.75 * exo, "all three are close at 8x12");
        assert!(exo > 28.0 && exo < 36.8);

        // On edge cases the specialised kernels win big.
        for &(mr, nr) in &[(4usize, 4usize), (4, 8), (4, 12), (8, 4), (8, 8)] {
            let exo = sim.simulate_solo(Implementation::AlgExo, mr, nr, 512).gflops;
            let blis = sim.simulate_solo(Implementation::BlisLib, mr, nr, 512).gflops;
            let neon = sim.simulate_solo(Implementation::AlgNeon, mr, nr, 512).gflops;
            assert!(exo > blis && exo > neon, "{mr}x{nr}: exo {exo} blis {blis} neon {neon}");
        }
    }

    #[test]
    fn square_gemm_reproduces_fig14_ordering() {
        let sim = simulator();
        let n = 1000;
        let blis = sim.simulate(Implementation::BlisLib, n, n, n).gflops;
        let alg_blis = sim.simulate(Implementation::AlgBlis, n, n, n).gflops;
        let alg_neon = sim.simulate(Implementation::AlgNeon, n, n, n).gflops;
        let alg_exo = sim.simulate(Implementation::AlgExo, n, n, n).gflops;
        // Paper Fig. 14: BLIS best (prefetch), ALG+EXO above the other ALG+
        // variants, ALG+NEON last.
        assert!(blis > alg_exo, "blis {blis} vs alg+exo {alg_exo}");
        assert!(alg_exo > alg_blis, "alg+exo {alg_exo} vs alg+blis {alg_blis}");
        assert!(alg_blis > alg_neon, "alg+blis {alg_blis} vs alg+neon {alg_neon}");
        // All in a plausible band below peak.
        for g in [blis, alg_blis, alg_neon, alg_exo] {
            assert!(g > 15.0 && g < sim.core().peak_gflops(), "gflops {g}");
        }
    }

    #[test]
    fn exo_kernel_selection_matches_the_papers_choices() {
        let sim = simulator();
        // The paper reports using 8x4 / 8x8 kernels for the square problems.
        let k1000 = sim.select_kernel(Implementation::AlgExo, 1000, 1000, 1000);
        assert!(k1000.name.contains("8x8") || k1000.name.contains("8x4"), "{}", k1000.name);
        // Monolithic implementations always use 8x12.
        let kb = sim.select_kernel(Implementation::BlisLib, 1000, 1000, 1000);
        assert_eq!((kb.mr, kb.nr), (8, 12));
    }

    #[test]
    fn rectangular_dnn_layers_favour_specialised_kernels() {
        let sim = simulator();
        // ResNet50 layer 17 (49 x 512 x 4608): ALG+EXO must beat the
        // non-prefetching monolithic variants.
        let exo = sim.simulate(Implementation::AlgExo, 49, 512, 4608).gflops;
        let alg_blis = sim.simulate(Implementation::AlgBlis, 49, 512, 4608).gflops;
        let alg_neon = sim.simulate(Implementation::AlgNeon, 49, 512, 4608).gflops;
        assert!(exo > alg_blis && exo > alg_neon, "exo {exo}, alg+blis {alg_blis}, alg+neon {alg_neon}");
    }

    #[test]
    fn monolithic_exo_ablation_hurts_edge_cases() {
        let core = CarmelCore::carmel();
        let specialised = GemmSimulator::with_options(core.clone(), SimOptions::default()).unwrap();
        let monolithic =
            GemmSimulator::with_options(core, SimOptions { monolithic_exo: true, ..SimOptions::default() })
                .unwrap();
        let g_spec = specialised.simulate(Implementation::AlgExo, 49, 512, 4608).gflops;
        let g_mono = monolithic.simulate(Implementation::AlgExo, 49, 512, 4608).gflops;
        assert!(g_spec >= g_mono, "specialised {g_spec} vs monolithic {g_mono}");
    }

    #[test]
    fn simulation_results_carry_problem_metadata() {
        let sim = simulator();
        let r = sim.simulate(Implementation::AlgExo, 196, 256, 1024);
        assert_eq!((r.m, r.n, r.k), (196, 256, 1024));
        assert!(r.seconds > 0.0);
        assert!(r.cycles > 0.0);
        assert!(!r.kernel.is_empty());
        assert_eq!(Implementation::AlgExo.label(), "ALG+EXO");
        assert_eq!(Implementation::all().len(), 4);
    }

    #[test]
    fn zero_sized_problems_cost_nothing() {
        let sim = simulator();
        let r = sim.simulate(Implementation::BlisLib, 0, 10, 10);
        assert_eq!(r.cycles, 0.0);
        assert_eq!(r.gflops, 0.0);
    }
}
