//! The search driver: enumerate candidates, evaluate them, memoise the
//! winner.

use std::sync::Arc;

use carmel_sim::{gflops, CarmelCore};
use exo_isa::VectorIsa;
use gemm_blis::{exo_kernel, modelled_gemm_cycles, GemmSimulator, KernelImpl, ModelledKernel, SimOptions};
use ukernel_gen::{GeneratedKernel, MicroKernelGenerator};

use crate::error::TuneError;
use crate::registry::{KernelRegistry, TuneVerdict};
use crate::space::DesignSpace;

/// Searches the design space for one GEMM problem at a time, memoising
/// verdicts in a [`KernelRegistry`].
pub struct Tuner {
    space: DesignSpace,
    generator: MicroKernelGenerator,
    registry: KernelRegistry,
    core: CarmelCore,
}

impl std::fmt::Debug for Tuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tuner")
            .field("isa", &self.space.isa().name)
            .field("verdicts", &self.registry.len())
            .finish()
    }
}

impl Default for Tuner {
    fn default() -> Self {
        Tuner::new()
    }
}

impl Tuner {
    /// The Carmel-modelling tuner: the whole ARM Neon f32 space
    /// ([`DesignSpace::for_isa`]), the Carmel core model, and a fresh
    /// in-memory registry. It answers "what would the modelled machine
    /// pick" — the question behind the paper's figures — on every host
    /// alike. To *run* the verdicts use [`crate::TunedGemm`], whose tuner
    /// searches the tiles the host's vector ISA executes in whole vectors.
    pub fn new() -> Self {
        Tuner::over(DesignSpace::for_isa(exo_isa::neon_f32()))
    }

    /// The Carmel core model over `space` — the modelled space of another
    /// instruction library, or a serving space — memoising in a registry of
    /// its own, so its verdicts are never served for another space.
    pub fn over(space: DesignSpace) -> Self {
        let generator = MicroKernelGenerator::new(space.isa().clone());
        Tuner { space, generator, registry: KernelRegistry::new(), core: CarmelCore::carmel() }
    }

    /// The design space being searched.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The registry memoising this tuner's verdicts.
    pub fn registry(&self) -> &KernelRegistry {
        &self.registry
    }

    /// The core model used for cycle-to-time conversions.
    pub fn core(&self) -> &CarmelCore {
        &self.core
    }

    /// The instruction set being tuned for.
    pub fn isa(&self) -> &VectorIsa {
        self.space.isa()
    }

    /// Tunes one problem shape: returns the memoised verdict when the
    /// registry already knows the shape (without touching the generator),
    /// otherwise searches the full candidate space, records the winner, and
    /// returns it.
    ///
    /// Candidates — each tile with both Carmel blockings in the modelled
    /// space, with its host's one blocking in a serving space
    /// ([`DesignSpace::candidates`]) — are ranked by [`modelled_gemm_cycles`]
    /// on the tuner's core model (lower is better): the `carmel-sim` core
    /// model run through the five-loop BLIS structure. Deterministic and
    /// host-independent; no candidate is executed, timed or compiled to be
    /// ranked.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError`] if the problem is degenerate or a candidate
    /// cannot be generated.
    pub fn tune(&self, m: usize, n: usize, k: usize) -> Result<TuneVerdict, TuneError> {
        if m == 0 || n == 0 || k == 0 {
            return Err(TuneError::Gemm(format!("cannot tune the empty problem {m}x{n}x{k}")));
        }
        if let Some(verdict) = self.registry.verdict(m, n, k) {
            return Ok(verdict);
        }
        let candidates = self.space.candidates();
        if candidates.is_empty() {
            return Err(TuneError::EmptySpace);
        }
        let cache = self.registry.kernel_cache();
        let mut best: Option<(f64, TuneVerdict)> = None;
        let evaluated = candidates.len();
        for candidate in candidates {
            let (mr, nr) = (candidate.tile.mr, candidate.tile.nr);
            let kernel = cache
                .get_or_generate(&self.generator, mr, nr)
                .map_err(|e| TuneError::Generation { mr, nr, message: e.to_string() })?;
            let kernel = ModelledKernel::generated(&kernel);
            let cost = modelled_gemm_cycles(&self.core, &kernel, &candidate.blocking, m, n, k);
            let better = match &best {
                Some((best_cost, _)) => cost < *best_cost,
                None => true,
            };
            if better {
                let useful_flops = 2.0 * m as f64 * n as f64 * k as f64;
                best = Some((
                    cost,
                    TuneVerdict {
                        m,
                        n,
                        k,
                        mr,
                        nr,
                        mc: candidate.blocking.mc,
                        kc: candidate.blocking.kc,
                        nc: candidate.blocking.nc,
                        predicted_cycles: cost,
                        predicted_gflops: gflops(useful_flops, cost, self.core.freq_ghz),
                        candidates_evaluated: evaluated,
                    },
                ));
            }
        }
        let (_, verdict) = best.expect("non-empty candidate list always yields a winner");
        self.registry.record(verdict.clone());
        Ok(verdict)
    }

    /// Tunes a batch of problem shapes in order.
    ///
    /// # Errors
    ///
    /// Returns the first tuning failure.
    pub fn tune_all(&self, shapes: &[(usize, usize, usize)]) -> Result<Vec<TuneVerdict>, TuneError> {
        shapes.iter().map(|&(m, n, k)| self.tune(m, n, k)).collect()
    }

    /// The generated kernel a verdict dispatches to (served by the
    /// registry's cache).
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::Generation`] if the kernel cannot be produced.
    pub fn kernel_for(&self, verdict: &TuneVerdict) -> Result<Arc<GeneratedKernel>, TuneError> {
        self.registry
            .kernel_cache()
            .get_or_generate(&self.generator, verdict.mr, verdict.nr)
            .map_err(|e| TuneError::Generation { mr: verdict.mr, nr: verdict.nr, message: e.to_string() })
    }

    /// The verdict's kernel wrapped as a [`KernelImpl`], ready for the
    /// functional [`gemm_blis::BlisGemm`] driver.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::Generation`] if the kernel cannot be produced.
    pub fn kernel_impl_for(&self, verdict: &TuneVerdict) -> Result<KernelImpl, TuneError> {
        Ok(exo_kernel(self.kernel_for(verdict)?))
    }

    /// A [`GemmSimulator`] whose `ALG+EXO` kernels are served by this
    /// tuner's registry over the design-space tile shapes — the
    /// registry-driven replacement for the simulator's hard-coded shape
    /// list.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::Generation`] if a tile cannot be generated.
    pub fn simulator(&self, options: SimOptions) -> Result<GemmSimulator, TuneError> {
        let shapes: Vec<(usize, usize)> = self.space.tile_shapes().iter().map(|t| (t.mr, t.nr)).collect();
        GemmSimulator::with_kernel_cache(self.core.clone(), options, self.registry.kernel_cache(), &shapes)
            .map_err(|e| TuneError::Gemm(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_finds_a_winner_and_memoises_it() {
        let tuner = Tuner::new();
        let verdict = tuner.tune(1000, 1000, 1000).unwrap();
        assert!(verdict.mr > 0 && verdict.nr > 0);
        assert!(verdict.predicted_gflops > 0.0);
        assert!(verdict.candidates_evaluated > 0);
        let invocations_after_search = tuner.registry().generator_invocations();
        assert!(invocations_after_search > 0);

        // Second request: answered from the registry, no new generation.
        let again = tuner.tune(1000, 1000, 1000).unwrap();
        assert_eq!(again, verdict);
        assert_eq!(tuner.registry().generator_invocations(), invocations_after_search);
    }

    #[test]
    fn tuned_blocking_matches_a_known_source() {
        let tuner = Tuner::new();
        let verdict = tuner.tune(512, 512, 512).unwrap();
        let blocking = verdict.blocking();
        assert_eq!(blocking.mr, verdict.mr);
        assert!(blocking.mc >= blocking.mr && blocking.nc >= blocking.nr && blocking.kc > 0);
    }

    #[test]
    fn degenerate_problems_are_rejected() {
        let tuner = Tuner::new();
        assert!(matches!(tuner.tune(0, 8, 8), Err(TuneError::Gemm(_))));
    }

    #[test]
    fn simulator_is_served_by_the_registry_cache() {
        let tuner = Tuner::new();
        let sim = tuner.simulator(SimOptions::default()).unwrap();
        let tiles = tuner.space().tile_shapes().len();
        assert_eq!(sim.exo_kernels().len(), tiles);
        let generated = tuner.registry().generator_invocations();
        assert_eq!(generated, tiles as u64);
        // Tuning afterwards reuses every kernel the simulator generated.
        tuner.tune(256, 256, 256).unwrap();
        assert_eq!(tuner.registry().generator_invocations(), generated);
    }
}
