//! Pluggable candidate evaluation.
//!
//! The tuner ranks candidates by a cost in **modelled cycles** (lower is
//! better). Two evaluators are provided:
//!
//! * [`AnalyticalCost`] — the default: the `carmel-sim` core model run
//!   through the five-loop BLIS structure
//!   ([`gemm_blis::modelled_gemm_cycles`]). Deterministic and fast, this is
//!   what the figure-reproduction harnesses use.
//! * [`FunctionalCost`] — executes the candidate micro-kernel functionally
//!   and extrapolates the measured wall-clock to the full problem.
//!   Host-dependent; used to validate that a modelled ranking is not an
//!   artefact of the model. Candidates time through the same prove-once
//!   [`gemm_blis::KernelDispatch`] the production driver uses, pinned to
//!   the SIMD chain of the active vector ISA (`exo_codegen::simd`): the
//!   tier a fresh kernel serves on until its native artifact promotes, and
//!   the only fast one that costing a candidate does not have to *build* —
//!   resolving the native tier would enqueue a `cc` job for every loser.
//!   The chain and the compiled artifact rank tiles differently (fused
//!   closures against straight-line code), so this is a validation tool,
//!   not a predictor of served speed. An `EXO_BACKEND` override still wins
//!   over the pin, as everywhere.
//!
//! Costs are comparable only *within* one evaluator.

use std::time::Instant;

use carmel_sim::CarmelCore;
use gemm_blis::{modelled_gemm_cycles, BlockingParams, ExecBackend, KernelImpl};

use crate::error::TuneError;

/// Evaluates one `(kernel, blocking)` candidate on one GEMM problem.
pub trait CostEvaluator {
    /// Short evaluator name, recorded in tuning verdicts.
    fn name(&self) -> &str;

    /// Cost of running the `m x n x k` problem with this candidate, in
    /// modelled cycles (lower is better).
    ///
    /// # Errors
    ///
    /// Returns [`TuneError`] if the candidate cannot be evaluated.
    fn cost(
        &self,
        kernel: &KernelImpl,
        blocking: &BlockingParams,
        m: usize,
        n: usize,
        k: usize,
    ) -> Result<f64, TuneError>;
}

/// The analytical model: `carmel-sim` cycles through the BLIS loop nest.
#[derive(Debug, Clone)]
pub struct AnalyticalCost {
    core: CarmelCore,
}

impl AnalyticalCost {
    /// Creates the evaluator for a core model.
    pub fn new(core: CarmelCore) -> Self {
        AnalyticalCost { core }
    }

    /// The core model used for evaluation.
    pub fn core(&self) -> &CarmelCore {
        &self.core
    }
}

impl Default for AnalyticalCost {
    fn default() -> Self {
        AnalyticalCost::new(CarmelCore::carmel())
    }
}

impl CostEvaluator for AnalyticalCost {
    fn name(&self) -> &str {
        "analytical"
    }

    fn cost(
        &self,
        kernel: &KernelImpl,
        blocking: &BlockingParams,
        m: usize,
        n: usize,
        k: usize,
    ) -> Result<f64, TuneError> {
        Ok(modelled_gemm_cycles(&self.core, kernel, blocking, m, n, k))
    }
}

/// Functional execution: run the kernel's executable lowering on one packed
/// register tile and extrapolate to the tile count of the full problem.
#[derive(Debug, Clone)]
pub struct FunctionalCost {
    /// Clock frequency used to express measured seconds as cycles.
    pub freq_ghz: f64,
    /// How many timed repetitions to average over.
    pub repetitions: usize,
}

impl Default for FunctionalCost {
    fn default() -> Self {
        FunctionalCost { freq_ghz: CarmelCore::carmel().freq_ghz, repetitions: 3 }
    }
}

impl CostEvaluator for FunctionalCost {
    fn name(&self) -> &str {
        "functional"
    }

    fn cost(
        &self,
        kernel: &KernelImpl,
        blocking: &BlockingParams,
        m: usize,
        n: usize,
        k: usize,
    ) -> Result<f64, TuneError> {
        if m == 0 || n == 0 || k == 0 {
            return Ok(0.0);
        }
        let (mr, nr) = (kernel.mr, kernel.nr);
        let kc = blocking.kc.min(k).max(1);
        let a = vec![1.0f32; kc * mr];
        let b = vec![0.5f32; kc * nr];
        let mut c = vec![0.0f32; mr * nr];
        // Time through the prove-once dispatch handle the five-loop driver
        // runs kernels with (the warm-up run also pays the proof and
        // surfaces shape errors before timing), on the simd pin: the
        // default `Native` backend would kick a background compile of
        // every candidate merely costed.
        let mut dispatch = kernel.clone().with_backend(ExecBackend::Simd).dispatcher();
        dispatch.run(kc, &a, &b, &mut c)?;
        let reps = self.repetitions.max(1);
        let start = Instant::now();
        for _ in 0..reps {
            dispatch.run(kc, &a, &b, &mut c)?;
        }
        let per_tile = start.elapsed().as_secs_f64() / reps as f64;
        // Tiles the five-loop algorithm would invoke for the full problem.
        let tiles = m.div_ceil(mr) as f64 * n.div_ceil(nr) as f64 * k.div_ceil(kc) as f64;
        let seconds = per_tile * tiles;
        Ok(seconds * self.freq_ghz * 1.0e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_blis::reference_kernel;

    #[test]
    fn analytical_cost_matches_the_shared_model() {
        let evaluator = AnalyticalCost::default();
        let kernel = reference_kernel(8, 8);
        let blocking = BlockingParams::carmel_defaults(8, 8);
        let cost = evaluator.cost(&kernel, &blocking, 128, 128, 128).unwrap();
        let direct = modelled_gemm_cycles(evaluator.core(), &kernel, &blocking, 128, 128, 128);
        assert_eq!(cost, direct);
        assert!(cost > 0.0);
        assert_eq!(evaluator.name(), "analytical");
    }

    #[test]
    fn analytical_cost_scales_with_problem_size() {
        let evaluator = AnalyticalCost::default();
        let kernel = reference_kernel(8, 8);
        let blocking = BlockingParams::carmel_defaults(8, 8);
        let small = evaluator.cost(&kernel, &blocking, 64, 64, 64).unwrap();
        let large = evaluator.cost(&kernel, &blocking, 256, 256, 256).unwrap();
        assert!(large > small);
    }

    #[test]
    fn functional_cost_measures_something_positive() {
        let evaluator = FunctionalCost { repetitions: 2, ..FunctionalCost::default() };
        let kernel = reference_kernel(4, 4);
        let blocking = BlockingParams::carmel_defaults(4, 4);
        let cost = evaluator.cost(&kernel, &blocking, 32, 32, 32).unwrap();
        assert!(cost.is_finite() && cost > 0.0);
        assert_eq!(evaluator.cost(&kernel, &blocking, 0, 32, 32).unwrap(), 0.0);
        assert_eq!(evaluator.name(), "functional");
    }
}
