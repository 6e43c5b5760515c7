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
        let space = DesignSpace::for_isa(exo_isa::neon_f32());
        let registry = KernelRegistry::new(space.identity());
        Tuner::over(space, registry).expect("default tuner is always consistent")
    }

    /// The Carmel-modelling tuner of [`Tuner::new`] over an existing
    /// registry (for example one opened with
    /// [`KernelRegistry::with_persistence`]).
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::Corrupt`] if the registry is not named
    /// `neon-f32`, the modelled space's [`DesignSpace::identity`].
    pub fn with_registry(registry: KernelRegistry) -> Result<Self, TuneError> {
        Tuner::over(DesignSpace::for_isa(exo_isa::neon_f32()), registry)
    }

    /// The Carmel core model over `space` — the modelled space of another
    /// instruction library, or a serving space — memoising in `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::Corrupt`] if `registry` is not named after
    /// `space`'s [`DesignSpace::identity`] — another described ISA, or the
    /// same one searched for another executing ISA.
    pub fn over(space: DesignSpace, registry: KernelRegistry) -> Result<Self, TuneError> {
        if registry.isa_name() != space.identity() {
            return Err(TuneError::Corrupt(format!(
                "registry targets `{}` but the design space targets `{}`",
                registry.isa_name(),
                space.identity()
            )));
        }
        let generator = MicroKernelGenerator::new(space.isa().clone());
        Ok(Tuner { space, generator, registry, core: CarmelCore::carmel() })
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
    /// ranked. It is the only ranker a registry file of the current format
    /// holds verdicts of, so a memoised verdict is served as it is.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError`] if the problem is degenerate, a candidate
    /// cannot be generated, or the verdict cannot be persisted.
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
        self.registry.record(verdict.clone())?;
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
    use gemm_blis::{HostDescription, IsaKind};

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
    fn registry_files_of_an_older_format_are_refused_and_quarantined() {
        // A version-1 file, as a tree that still tagged every verdict with
        // the ranker that produced it wrote it.
        let seeded = Tuner::new();
        seeded.tune(24, 24, 24).unwrap();
        let text = seeded.registry().to_text();
        assert!(text.contains("\"version\":2"), "{text}");
        let old = text
            .replace("\"version\":2", "\"version\":1")
            .replace("\"candidates_evaluated\"", "\"evaluator\":\"functional\",\"candidates_evaluated\"");
        let path = std::env::temp_dir().join(format!("exo-tune-tuner-v1-{}.json", std::process::id()));
        let quarantine = path.with_extension("json.corrupt");
        let _ = std::fs::remove_file(&quarantine);
        std::fs::write(&path, &old).unwrap();

        // The strict constructor refuses the whole file and leaves it be.
        let refused = KernelRegistry::with_persistence("neon-f32", &path);
        assert!(matches!(refused, Err(TuneError::Corrupt(_))), "{refused:?}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), old);

        // The tolerant one sets it aside and starts cold: the shape is
        // searched again, not served from the old file.
        let (fresh, tolerated) = KernelRegistry::with_persistence_or_fresh("neon-f32", &path);
        assert!(matches!(tolerated, Some(TuneError::Corrupt(_))), "{tolerated:?}");
        assert_eq!(std::fs::read_to_string(&quarantine).unwrap(), old);
        let tuner = Tuner::with_registry(fresh).unwrap();
        tuner.tune(24, 24, 24).unwrap();
        assert!(tuner.registry().generator_invocations() > 0, "an old verdict was served without a search");
        // What it persists is the current format, and opens warm.
        assert_eq!(KernelRegistry::with_persistence("neon-f32", &path).unwrap().len(), 1);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);
    }

    #[test]
    fn mismatched_registry_is_rejected() {
        let registry = KernelRegistry::new("avx512-f32");
        assert!(matches!(Tuner::with_registry(registry), Err(TuneError::Corrupt(_))));
        // The executing ISA and its caches are part of the identity: a
        // modelled-space registry cannot back a serving space, nor one host
        // ISA another's, nor one host's caches another's.
        let carmel = HostDescription::carmel();
        let serving = |executing| DesignSpace::for_execution(exo_isa::neon_f32(), executing, carmel);
        let on_carmel = |name: &str| format!("{name}:{}", carmel.signature());
        for (name, executing, accepted) in [
            ("neon-f32".to_string(), IsaKind::Avx2, false),
            ("neon-f32@avx2".to_string(), IsaKind::Avx2, false),
            (on_carmel("neon-f32@neon"), IsaKind::Avx2, false),
            (on_carmel("neon-f32@avx2"), IsaKind::Avx2, true),
            (on_carmel("neon-f32@avx2"), IsaKind::Scalar, false),
        ] {
            let tuner = Tuner::over(serving(executing), KernelRegistry::new(name.clone()));
            assert_eq!(tuner.is_ok(), accepted, "`{name}` under {executing}");
            assert!(accepted || matches!(tuner, Err(TuneError::Corrupt(_))));
        }
        assert!(Tuner::with_registry(KernelRegistry::new(on_carmel("neon-f32@avx2"))).is_err());
        // An AVX-512 host serves another library: what an AVX2 run of the
        // same machine recorded is refused.
        let avx512 =
            |name: &str| Tuner::over(DesignSpace::serving(IsaKind::Avx512), KernelRegistry::new(name));
        let here = |name: &str| format!("{name}:{}", HostDescription::probed().signature());
        assert!(matches!(avx512(&here("neon-f32@avx2")), Err(TuneError::Corrupt(_))));
        assert!(matches!(avx512(&here("neon-f32@avx512")), Err(TuneError::Corrupt(_))));
        assert!(matches!(avx512("avx512-f32@avx512"), Err(TuneError::Corrupt(_))));
        assert!(avx512(&here("avx512-f32@avx512")).is_ok());
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
