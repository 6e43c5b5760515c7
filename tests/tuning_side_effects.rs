//! Ranking candidates must not build them. The native tier's non-blocking
//! poll enqueues a background `cc` job for the kernel it is asked about, so
//! a ranker that resolves the default backend compiles every loser of every
//! search. This file is one test in a process of its own: the AOT engine
//! and its counters are process-wide, and any other test that dispatches a
//! GEMM legitimately moves them.

use dnn_models::resnet50_table;
use exo_tune::{FunctionalCost, KernelRegistry, TunedGemm, Tuner};
use gemm_blis::{env_backend_override, ExecBackend};

#[test]
fn ranking_never_touches_the_aot_engine() {
    if env_backend_override() == Some(ExecBackend::Native) {
        // The override beats every programmatic pin by contract, so a
        // functional cost under it does resolve the native tier.
        return;
    }
    let before = exo_aot::engine().stats();

    // The serving path: planning all of ResNet-50 generates each tile of
    // the executing space exactly once and builds none of them.
    let serving = TunedGemm::new();
    for (m, n, k) in resnet50_table().gemm_shapes() {
        serving.plan(m, n, k).unwrap();
    }
    let tiles = serving.tuner().space().tile_shapes().len() as u64;
    assert_eq!(serving.registry().generator_invocations(), tiles);

    // The validation evaluator: a timed search over the whole modelled
    // space runs every candidate on the simd chain.
    let modelled = Tuner::new();
    let functional = Tuner::custom(
        modelled.space().clone(),
        Box::new(FunctionalCost { repetitions: 1, ..FunctionalCost::default() }),
        modelled.core().clone(),
        KernelRegistry::new(modelled.space().identity()),
    )
    .unwrap();
    let verdict = functional.tune(49, 512, 512).unwrap();
    assert_eq!(verdict.candidates_evaluated, 2 * modelled.space().tile_shapes().len());

    assert_eq!(exo_aot::engine().stats(), before, "costing a candidate enqueued or ran an AOT build");
}
