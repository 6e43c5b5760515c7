//! Ranking candidates must neither lower them nor resolve them. A cold
//! plan reads each serving tile's schedule — the recipe's trace — and
//! nothing else: the C text, tape and superword lowering are built for
//! the one tile a driver serves, when it asks for its kernel. Resolving the
//! native tier emits and hashes a kernel's C and probes its body, so a
//! ranker that resolved the default backend would pay that for every loser
//! of every search. This file is one test in a process of its own: the AOT
//! engine and its counters are process-wide, and any other test that
//! dispatches a GEMM legitimately moves them.

use dnn_models::resnet50_table;
use exo_tune::TunedGemm;

#[test]
fn ranking_never_touches_the_aot_engine() {
    let before = exo_aot::engine().stats();

    // The serving path: planning all of ResNet-50 schedules each tile of
    // the executing space exactly once, lowers none of them and resolves
    // none of them.
    let serving = TunedGemm::new();
    let verdicts: Vec<_> =
        resnet50_table().gemm_shapes().into_iter().map(|(m, n, k)| serving.plan(m, n, k).unwrap()).collect();
    let tiles = serving.tuner().space().tile_shapes().len() as u64;
    let cache = serving.registry().kernel_cache();
    assert_eq!(serving.registry().generator_invocations(), tiles);
    assert_eq!(cache.lowerings(), 0, "a cold plan lowered a candidate");
    assert_eq!(exo_aot::engine().stats(), before, "costing a candidate resolved its native tier");

    // The first kernel a driver asks for lowers exactly its own tile, from
    // the schedule the ranking made.
    serving.tuner().kernel_for(&verdicts[0]).unwrap();
    assert_eq!((serving.registry().generator_invocations(), cache.lowerings()), (tiles, 1));
}
