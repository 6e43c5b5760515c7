//! Integration tests of the `exo-tune` subsystem against the acceptance
//! criteria of its introduction:
//!
//! * every kernel the design-space enumerator proposes computes
//!   `C += A * B` exactly like `gemm_blis::naive_gemm`,
//! * a warm registry performs zero generator invocations,
//! * the tuned `ALG+EXO` path is at least as fast (modelled) as the fixed
//!   8x12 default on the Fig. 14 square sweep,
//! * every ResNet50 GEMM shape gets a per-layer kernel,
//! * every verdict the serving front-end returns is a tile the executing
//!   vector ISA runs in whole vectors, blocked for this host's caches in
//!   whole tiles, and a verdict searched for other caches stays with the
//!   tuner that searched it.

mod common;

use common::Cases;
use dnn_models::{resnet50_table, vgg16_table};
use exo_tune::{DesignSpace, TuneVerdict, TunedGemm, Tuner};
use gemm_blis::{
    active_isa, naive_gemm, BlockingParams, CacheGeometry, GemmExecutor, GemmProblem, HostDescription,
    Implementation, IsaKind, Matrix, SimOptions,
};
use ukernel_gen::MicroKernelGenerator;

/// Property: every tile the enumerator proposes generates a kernel that
/// agrees with the naive reference on random data (via `run_packed`).
#[test]
fn every_enumerated_kernel_matches_naive_gemm() {
    let tuner = Tuner::new();
    let generator = MicroKernelGenerator::new(tuner.isa().clone());
    let mut cases = Cases::new(0xE1_0001);
    let tiles = tuner.space().tile_shapes();
    assert!(!tiles.is_empty());
    for tile in tiles {
        let (mr, nr) = (tile.mr, tile.nr);
        let kernel = generator.generate(mr, nr).unwrap();
        for &kc in &[1usize, 7, 24] {
            let a: Vec<f32> = (0..kc * mr).map(|_| cases.f32_unit()).collect();
            let b: Vec<f32> = (0..kc * nr).map(|_| cases.f32_unit()).collect();
            let mut c: Vec<f32> = (0..mr * nr).map(|_| cases.f32_unit()).collect();
            let mut c_ref = c.clone();
            kernel.run_packed(kc, &a, &b, &mut c).unwrap();
            for k in 0..kc {
                for j in 0..nr {
                    for i in 0..mr {
                        c_ref[j * mr + i] += a[k * mr + i] * b[k * nr + j];
                    }
                }
            }
            for (idx, (x, y)) in c.iter().zip(&c_ref).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-3 * y.abs().max(1.0),
                    "{mr}x{nr} (kc={kc}) mismatch at {idx}: {x} vs {y}"
                );
            }
        }
    }
}

/// A warm registry answers repeat shapes with zero generator invocations.
#[test]
fn warm_registry_skips_the_generator() {
    let tuner = Tuner::new();
    tuner.tune(300, 200, 100).unwrap();
    let after_search = tuner.registry().generator_invocations();
    assert!(after_search > 0, "the cold search must generate candidates");

    // Same shape again: memoised verdict, no generator activity.
    tuner.tune(300, 200, 100).unwrap();
    assert_eq!(tuner.registry().generator_invocations(), after_search);

    // A different shape reuses the cached kernels: still no new generation
    // (the candidate tile set is problem-independent).
    tuner.tune(128, 128, 128).unwrap();
    assert_eq!(tuner.registry().generator_invocations(), after_search);
}

/// Acceptance: on the Fig. 14 square sweep the tuned kernels are modelled
/// at least as fast as the fixed 8x12 default.
#[test]
fn tuned_kernels_meet_or_beat_the_fixed_8x12_default_on_fig14_squares() {
    let tuner = Tuner::new();
    let monolithic = tuner.simulator(SimOptions { monolithic_exo: true, ..SimOptions::default() }).unwrap();
    for size in [1000usize, 2000, 3000, 4000, 5000] {
        let tuned = tuner.tune(size, size, size).unwrap();
        let fixed = monolithic.simulate(Implementation::AlgExo, size, size, size).gflops;
        assert!(
            tuned.predicted_gflops >= fixed - 1e-9,
            "size {size}: tuned {} GFLOPS < fixed 8x12 {fixed} GFLOPS",
            tuned.predicted_gflops
        );
    }
}

/// Acceptance: every ResNet50 GEMM shape gets a per-layer kernel, and the
/// winning tiles are specialised (not one global shape). VGG16 rides along.
#[test]
fn resnet50_layers_each_get_a_tuned_kernel() {
    let tuner = Tuner::new();
    for workload in [resnet50_table(), vgg16_table()] {
        let plans = exo_tune::tune_workload(&tuner, &workload).unwrap();
        assert_eq!(plans.len(), workload.unique_layers.len());
        for plan in &plans {
            assert!(plan.verdict.mr > 0 && plan.verdict.nr > 0);
            assert!(plan.verdict.predicted_gflops > 0.0);
            // The chosen tile must actually exist in the design space.
            assert!(tuner
                .space()
                .tile_shapes()
                .iter()
                .any(|t| (t.mr, t.nr) == (plan.verdict.mr, plan.verdict.nr)));
        }
    }
    // Per-layer specialisation: ResNet50's shapes do not all pick one tile,
    // neither in the model nor in what is actually dispatched on this host.
    let distinct_tiles = |plan: &dyn Fn(usize, usize, usize) -> TuneVerdict| {
        let tiles = resnet50_table().gemm_shapes().into_iter().map(|(m, n, k)| plan(m, n, k));
        tiles.map(|v| (v.mr, v.nr)).collect::<std::collections::BTreeSet<_>>()
    };
    let resnet_tiles = distinct_tiles(&|m, n, k| tuner.tune(m, n, k).unwrap());
    assert!(resnet_tiles.len() > 1, "expected specialised per-layer tiles, got {resnet_tiles:?}");
    let serving = TunedGemm::new();
    let served_tiles = distinct_tiles(&|m, n, k| serving.plan(m, n, k).unwrap());
    // Every layer has more than one row, so the served tiles specialise
    // where the serving space has several tiles taller than one row.
    // AVX-512's has one, 16x16 (the rest are single rows), and it serves
    // every layer.
    let tall: std::collections::BTreeSet<(usize, usize)> =
        serving.tuner().space().tile_shapes().iter().filter(|t| t.mr > 1).map(|t| (t.mr, t.nr)).collect();
    if tall.len() > 1 {
        assert!(served_tiles.len() > 1, "expected specialised served tiles, got {served_tiles:?}");
    } else {
        assert_eq!(served_tiles, tall, "the one tall tile serves every layer");
    }
}

/// The eight shapes of the benchmark's `serve_small` workload.
const SERVE_SHAPES: [(usize, usize, usize); 8] = [
    (24, 16, 12),
    (17, 13, 9),
    (32, 24, 8),
    (8, 40, 16),
    (48, 8, 24),
    (16, 16, 16),
    (28, 20, 6),
    (12, 36, 10),
];

/// The four shapes of the benchmark's `batch_shared_b` workload.
const BATCH_SHAPES: [(usize, usize, usize); 4] =
    [(49, 512, 2048), (49, 2048, 512), (196, 256, 1024), (196, 1024, 256)];

/// Every verdict served on this host is a tile its executing vector ISA
/// runs in whole vectors inside its register file — whichever ISA that is
/// (AVX-512 on its own library, AVX2, NEON under QEMU, or the
/// `EXO_ISA=scalar` pin) — chosen among one candidate per tile. Where the
/// rule removes nothing from the serving library's modelled space
/// (AVX-512's own, 4-lane NEON, 1-lane scalar), serving and modelling
/// search the same tiles.
#[test]
fn served_verdicts_fill_the_executing_isas_vectors() {
    let executing = active_isa();
    let serving = TunedGemm::new();
    let threaded = TunedGemm::new().with_threads(4);
    let space = serving.tuner().space();
    assert_eq!(space.executing(), Some(executing));
    assert_eq!(space.isa().name, DesignSpace::serving(executing).isa().name);
    assert_eq!(space.host(), Some(HostDescription::probed()));
    let modelled = DesignSpace::for_isa(space.isa().clone());
    let admitted: Vec<(usize, usize)> = space.tile_shapes().iter().map(|t| (t.mr, t.nr)).collect();
    let unfiltered = admitted.len() == modelled.tile_shapes().len();
    assert_eq!(unfiltered, executing != IsaKind::Avx2, "{executing} admits {admitted:?}");

    let mut shapes = resnet50_table().gemm_shapes();
    shapes.extend(vgg16_table().gemm_shapes());
    shapes.extend(SERVE_SHAPES);
    for (m, n, k) in shapes {
        let verdict = serving.plan(m, n, k).unwrap();
        let tile = (verdict.mr, verdict.nr);
        assert!(DesignSpace::fills_vectors_of(executing, tile.0, tile.1), "{m}x{n}x{k} -> {tile:?}");
        assert_eq!(verdict.candidates_evaluated, admitted.len(), "one blocking per tile");
        // Deterministic: a second front-end, at another thread count,
        // reaches the same verdict.
        assert_eq!(threaded.plan(m, n, k).unwrap(), verdict);
    }
}

/// Every verdict the serving tuner hands out — the ResNet-50 and VGG-16
/// layers and the benchmark's `serve_small` and `batch_shared_b` shapes —
/// blocks in whole tiles (`mc % mr == 0`, `nc % nr == 0`) with the one
/// blocking sized for this host's caches, so no `ic` or `jc` block ends in
/// a part-empty tile. A table the tuner serves one tile has one driver.
#[test]
fn served_verdicts_block_in_whole_tiles_for_this_hosts_caches() {
    let serving = TunedGemm::new();
    let host = HostDescription::probed();
    assert_eq!(serving.tuner().space().host(), Some(host));
    let mut shapes = resnet50_table().gemm_shapes();
    shapes.extend(vgg16_table().gemm_shapes());
    shapes.extend(SERVE_SHAPES);
    shapes.extend(BATCH_SHAPES);
    let mut tiles = std::collections::BTreeSet::new();
    for (m, n, k) in shapes {
        let (verdict, driver) = serving.driver_for(m, n, k).unwrap();
        let (mr, nr) = (verdict.mr, verdict.nr);
        assert_eq!((verdict.mc % mr, verdict.nc % nr), (0, 0), "{m}x{n}x{k} -> {:?}", verdict.blocking());
        assert_eq!(verdict.blocking(), BlockingParams::for_host(host, mr, nr), "{m}x{n}x{k}");
        assert_eq!(driver.blocking, verdict.blocking());
        tiles.insert((mr, nr));
    }
    // Blocking is a function of the tile, so verdict groups are tiles.
    assert_eq!(serving.drivers().len(), tiles.len(), "{tiles:?}");
}

/// A verdict stays with the tuner that searched it: two tuners over the
/// same library and executing ISA but different caches, in one process,
/// each block the same shape for their own caches, and tuning on one
/// leaves the other's registry untouched.
#[test]
fn verdicts_follow_the_space_they_were_searched_in() {
    let geometry = |bytes| CacheGeometry { bytes, ways: 8, line: 64 };
    let small = HostDescription { l1d: geometry(32 << 10), l2: geometry(1 << 20), l3: geometry(0) };
    let carmel = HostDescription::carmel();
    let tuner_on = |host| Tuner::over(DesignSpace::for_execution(exo_isa::neon_f32(), IsaKind::Avx2, host));
    let (on_carmel, on_small) = (tuner_on(carmel), tuner_on(small));
    let blocked_for = |host, v: &TuneVerdict| BlockingParams::for_host(host, v.mr, v.nr);
    let (m, n, k) = (196, 256, 2304);

    let carmel_verdict = on_carmel.tune(m, n, k).unwrap();
    assert_eq!(carmel_verdict.blocking(), blocked_for(&carmel, &carmel_verdict));
    assert_eq!(on_small.registry().len(), 0, "a verdict for Carmel's caches reached the small host's tuner");

    let small_verdict = on_small.tune(m, n, k).unwrap();
    assert_eq!(small_verdict.blocking(), blocked_for(&small, &small_verdict));
    assert_ne!(small_verdict.blocking(), carmel_verdict.blocking());
    assert_eq!((on_carmel.registry().len(), on_small.registry().len()), (1, 1));
    assert_eq!(on_carmel.tune(m, n, k).unwrap(), carmel_verdict);
}

/// The `TunedGemm` front-end computes the right answer on fringe-heavy
/// problems while memoising per-shape verdicts.
#[test]
fn tuned_gemm_front_end_is_correct_and_memoises() {
    let tuned = TunedGemm::new();
    let mut cases = Cases::new(0xE1_0002);
    for &(m, n, k) in &[(33usize, 47usize, 21usize), (64, 64, 64), (13, 100, 9)] {
        let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit());
        let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
        let mut c = Matrix::zeros(m, n);
        let mut c_ref = Matrix::zeros(m, n);
        let stats = tuned.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut())).unwrap();
        naive_gemm(&a, &b, &mut c_ref);
        for (idx, (x, y)) in c.data.iter().zip(&c_ref.data).enumerate() {
            assert!(
                (x - y).abs() <= 2e-3 * y.abs().max(1.0),
                "{m}x{n}x{k} ({}) mismatch at {idx}: {x} vs {y}",
                stats.kernel
            );
        }
    }
    assert_eq!(tuned.registry().len(), 3);

    // Repeat dispatch of a known shape: no additional searching.
    let invocations = tuned.registry().generator_invocations();
    let a = Matrix::zeros(64, 64);
    let b = Matrix::zeros(64, 64);
    let mut c = Matrix::zeros(64, 64);
    tuned.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut())).unwrap();
    assert_eq!(tuned.registry().generator_invocations(), invocations);
    assert_eq!(tuned.registry().len(), 3);
}

/// The registry-backed simulator keeps the qualitative Fig. 14 ordering
/// while serving its kernels from the shared cache.
#[test]
fn registry_backed_simulator_preserves_fig14_ordering() {
    let tuner = Tuner::new();
    let sim = tuner.simulator(SimOptions::default()).unwrap();
    let n = 1000;
    let blis = sim.simulate(Implementation::BlisLib, n, n, n).gflops;
    let alg_exo = sim.simulate(Implementation::AlgExo, n, n, n).gflops;
    let alg_blis = sim.simulate(Implementation::AlgBlis, n, n, n).gflops;
    let alg_neon = sim.simulate(Implementation::AlgNeon, n, n, n).gflops;
    assert!(blis > alg_exo, "blis {blis} vs alg+exo {alg_exo}");
    assert!(alg_exo > alg_blis, "alg+exo {alg_exo} vs alg+blis {alg_blis}");
    assert!(alg_blis > alg_neon, "alg+blis {alg_blis} vs alg+neon {alg_neon}");
    // The widened design space can only help ALG+EXO relative to the
    // paper's eight shapes.
    let paper_sim = gemm_blis::GemmSimulator::new().unwrap();
    let paper_exo = paper_sim.simulate(Implementation::AlgExo, n, n, n).gflops;
    assert!(alg_exo >= paper_exo - 1e-9, "registry space {alg_exo} vs paper set {paper_exo}");
}
