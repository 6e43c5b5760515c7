//! Ranking candidates must not resolve them. Resolving the native tier
//! emits and hashes a kernel's C and probes its body, so a ranker that
//! resolved the default backend would pay that for every loser of every
//! search. This file is one test in a process of its own: the AOT
//! engine and its counters are process-wide, and any other test that
//! dispatches a GEMM legitimately moves them.

use dnn_models::resnet50_table;
use exo_tune::TunedGemm;

#[test]
fn ranking_never_touches_the_aot_engine() {
    let before = exo_aot::engine().stats();

    // The serving path: planning all of ResNet-50 generates each tile of
    // the executing space exactly once and resolves none of them.
    let serving = TunedGemm::new();
    for (m, n, k) in resnet50_table().gemm_shapes() {
        serving.plan(m, n, k).unwrap();
    }
    let tiles = serving.tuner().space().tile_shapes().len() as u64;
    assert_eq!(serving.registry().generator_invocations(), tiles);

    assert_eq!(exo_aot::engine().stats(), before, "costing a candidate resolved its native tier");
}
