//! End-to-end tests of the ahead-of-time pipeline: emit → compile →
//! load → run, the artifact cache's warm-start and quarantine behaviour,
//! and the decline paths.
//!
//! Everything that needs a real C compiler branches on
//! [`exo_aot::native_available`]: on a toolchain-less host (or under the
//! `EXO_CC`-poisoned CI leg) those tests assert the decline instead.

use std::sync::{Arc, Mutex, MutexGuard};

use exo_aot::{AotEngine, AotError};
use exo_codegen::{active_isa, IsaKind, SimdKernel, SuperwordKernel, TensorView};
use exo_ir::builder::*;
use exo_ir::{Expr, MemSpace, ScalarType};

/// The fault countdowns are process-global and the builder thread is
/// shared: every test that compiles (or arms a fault) holds this lock so
/// an armed countdown can only fire in the test that armed it.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The staged laneq-shaped micro-kernel every scheduled kernel lowers to
/// (the same staging as the exo-codegen superword tests): `C` tile and
/// operand stages in registers, packed FMA runs in the `KC` loop.
fn staged_superword(mr: i64, nr: i64) -> Arc<SuperwordKernel> {
    let p = proc("ukr_staged")
        .size_arg("KC")
        .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(mr)], MemSpace::Dram)
        .tensor_arg("Bc", ScalarType::F32, vec![var("KC"), int(nr)], MemSpace::Dram)
        .tensor_arg("C", ScalarType::F32, vec![int(nr * mr)], MemSpace::Dram)
        .body(vec![
            alloc("Ct", ScalarType::F32, vec![int(nr), int(mr)], MemSpace::Neon),
            alloc("Ra", ScalarType::F32, vec![int(mr)], MemSpace::Neon),
            alloc("Rb", ScalarType::F32, vec![int(nr)], MemSpace::Neon),
            for_(
                "j",
                0,
                nr,
                vec![for_(
                    "i",
                    0,
                    mr,
                    vec![assign(
                        "Ct",
                        vec![var("j"), var("i")],
                        read("C", vec![Expr::add(Expr::mul(var("j"), int(mr)), var("i"))]),
                    )],
                )],
            ),
            for_(
                "k",
                0,
                var("KC"),
                vec![
                    for_(
                        "i",
                        0,
                        mr,
                        vec![assign("Ra", vec![var("i")], read("Ac", vec![var("k"), var("i")]))],
                    ),
                    for_(
                        "j",
                        0,
                        nr,
                        vec![assign("Rb", vec![var("j")], read("Bc", vec![var("k"), var("j")]))],
                    ),
                    for_(
                        "j",
                        0,
                        nr,
                        vec![for_(
                            "i",
                            0,
                            mr,
                            vec![reduce(
                                "Ct",
                                vec![var("j"), var("i")],
                                Expr::mul(read("Ra", vec![var("i")]), read("Rb", vec![var("j")])),
                            )],
                        )],
                    ),
                ],
            ),
            for_(
                "j",
                0,
                nr,
                vec![for_(
                    "i",
                    0,
                    mr,
                    vec![assign(
                        "C",
                        vec![Expr::add(Expr::mul(var("j"), int(mr)), var("i"))],
                        read("Ct", vec![var("j"), var("i")]),
                    )],
                )],
            ),
        ])
        .build();
    Arc::new(exo_codegen::compile(&p).unwrap().to_superword().unwrap())
}

fn packed_inputs(mr: usize, nr: usize, kc: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + 3) % 13) as f32 * 0.5 - 2.0).collect();
    let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + 1) % 11) as f32 * 0.25 - 1.0).collect();
    let c0: Vec<f32> = (0..nr * mr).map(|i| (i % 5) as f32 * 0.5).collect();
    (a, b, c0)
}

fn scratch_engine(tag: &str) -> (AotEngine, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("exo-aot-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (AotEngine::with_dir(dir.clone()), dir)
}

#[test]
fn native_agrees_with_the_simd_chain_on_the_matching_isa() {
    let _serial = serial();
    let (engine, dir) = scratch_engine("agree");
    let sw = staged_superword(8, 4);
    let isa = active_isa();
    match engine.compile(&sw, isa) {
        Ok(native) => {
            let simd = SimdKernel::compile_for(Arc::clone(&sw), isa).expect("the active ISA compiles");
            for &kc in &[0usize, 1, 2, 17, 64] {
                let (a, b, c0) = packed_inputs(8, 4, kc);
                let mut c_native = c0.clone();
                native.run_packed(kc, &a, &b, &mut c_native).unwrap();
                let mut c_simd = c0.clone();
                simd.run_packed(kc, &a, &b, &mut c_simd).unwrap();
                // Both tiers fuse every FMA lane individually: bit
                // equality, not a bound.
                assert_eq!(c_native, c_simd, "native vs simd bits at kc={kc} on {}", isa.name());
            }
        }
        Err(e) => {
            assert!(!exo_aot::native_available(), "compile failed with a toolchain present: {e}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn the_dispatch_handle_memoises_proofs_and_falls_back_when_unproven() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    let (engine, dir) = scratch_engine("dispatch");
    let sw = staged_superword(8, 4);
    let native = engine.compile(&sw, active_isa()).unwrap();
    let chain = SimdKernel::compile(Arc::clone(&sw)).expect("the active ISA compiles");
    let mut dispatch = native.dispatcher();
    let kc = 17usize;
    let (a, b, c0) = packed_inputs(8, 4, kc);
    let mut c_hot = c0.clone();
    dispatch.run_packed(kc, &a, &b, &mut c_hot).unwrap();
    let mut c_ref = c0.clone();
    chain.run_packed(kc, &a, &b, &mut c_ref).unwrap();
    // Native and the simd chain fuse identically: bit equality through
    // the dispatch handle too.
    assert_eq!(c_hot, c_ref);

    assert_eq!(dispatch.memoised_proofs(), 1);
    dispatch.run_packed(kc, &a, &b, &mut c_hot).unwrap();
    assert_eq!(dispatch.memoised_proofs(), 1, "the second call recalls the first one's proof");

    // Claim kc = 1000 over short operands: the proof declines, the call
    // routes to the checked reference, and the error is the tape's — by
    // the same route through the handle, the one-shot native entry point
    // and the simd chain.
    let err = dispatch.run_packed(1000, &a, &b, &mut c_hot);
    assert!(err.is_err(), "an unprovable call must take the checked path and report");
    assert_eq!(err, native.run_packed(1000, &a, &b, &mut c_hot.clone()));
    assert_eq!(err, chain.run_packed(1000, &a, &b, &mut c_hot.clone()));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn warm_start_skips_the_compiler_entirely() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    let (cold, dir) = scratch_engine("warm");
    let sw = staged_superword(8, 4);
    cold.compile(&sw, active_isa()).unwrap();
    assert_eq!(cold.stats().compiler_invocations, 1);
    assert_eq!(cold.stats().disk_hits, 0);
    // Same engine, same kernel: served from the in-process memo.
    cold.compile(&sw, active_isa()).unwrap();
    assert_eq!(cold.stats().compiler_invocations, 1);

    // A fresh engine over the same directory models a second process: the
    // artifact is on disk, so zero compiler invocations.
    let warm = AotEngine::with_dir(dir.clone());
    let k = warm.compile(&sw, active_isa()).unwrap();
    assert_eq!(warm.stats().compiler_invocations, 0, "the warm start must not invoke the compiler");
    assert_eq!(warm.stats().disk_hits, 1);
    let (a, b, mut c) = packed_inputs(8, 4, 5);
    k.run_packed(5, &a, &b, &mut c).unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupt_artifacts_are_quarantined_and_rebuilt() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    let (cold, dir) = scratch_engine("corrupt");
    let sw = staged_superword(8, 4);
    let c_source = exo_codegen::emit_superword_c(&sw, active_isa(), exo_aot::KERNEL_SYMBOL).unwrap();
    let key = exo_aot::artifact_key(&c_source, &exo_aot::toolchain().unwrap().version);
    let artifact = cold.store().artifact_path(key);

    // Plant garbage where the artifact belongs.
    cold.store().write_atomic(&artifact, b"not an object file").unwrap();
    let k = cold.compile(&sw, active_isa()).unwrap();
    assert_eq!(cold.stats().compiler_invocations, 1, "the corrupt entry must be rebuilt");
    assert_eq!(cold.stats().disk_hits, 0);
    let mut quarantined = artifact.as_os_str().to_owned();
    quarantined.push(".corrupt");
    assert!(
        std::path::Path::new(&quarantined).is_file(),
        "the unloadable entry is kept as evidence at <path>.corrupt"
    );
    let (a, b, mut c) = packed_inputs(8, 4, 5);
    k.run_packed(5, &a, &b, &mut c).unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn the_emitted_source_is_kept_next_to_the_artifact() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    let (engine, dir) = scratch_engine("source");
    let sw = staged_superword(4, 4);
    let req = engine.prepare(&sw, active_isa()).unwrap();
    engine.wait(&req).unwrap();
    let src = engine.store().source_path(req.key());
    assert_eq!(std::fs::read_to_string(&src).unwrap(), req.c_source());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_missing_toolchain_is_a_typed_decline() {
    let _serial = serial();
    // This cannot force the process-wide probe (env reads are cached),
    // but the engine's contract is observable either way: with no
    // toolchain every compile reports `ToolchainMissing`; with one, the
    // scalar lowering still compiles and runs.
    let (engine, dir) = scratch_engine("decline");
    let sw = staged_superword(4, 4);
    match engine.compile(&sw, IsaKind::Scalar) {
        Ok(k) => {
            assert!(exo_aot::native_available());
            let (a, b, c0) = packed_inputs(4, 4, 13);
            let mut c_native = c0.clone();
            k.run_packed(13, &a, &b, &mut c_native).unwrap();
            let mut c_sw = c0.clone();
            sw.run_checked(&[13], &mut [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Rw(&mut c_sw)])
                .unwrap();
            // The scalar floor's `fmaf` lanes are the tape's fused ones.
            assert_eq!(c_native, c_sw, "the scalar lowering must match the checked reference bitwise");
        }
        Err(e) => {
            assert!(!exo_aot::native_available());
            assert_eq!(e, AotError::ToolchainMissing);
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn the_fault_hook_fails_compiles_without_touching_the_cache() {
    let _serial = serial();
    if !exo_aot::native_available() {
        // The hook fails a *build attempt*, and a request only becomes one
        // after the toolchain probe keyed it: with no compiler answering,
        // `prepare` says `ToolchainMissing` and there is no attempt to fail.
        eprintln!("skipped: no host C toolchain, so no build attempt for the fault hook to fail");
        return;
    }
    let (engine, dir) = scratch_engine("fault");
    let sw = staged_superword(4, 4);
    exo_aot::arm_compile_fail(1);
    let err = engine.compile(&sw, active_isa()).expect_err("the armed hook must fire");
    assert_eq!(err, AotError::FaultInjected);
    assert_eq!(engine.stats().compiler_invocations, 0, "the hook fires before the toolchain");
    exo_aot::arm_compile_fail(0);
    // Disarmed, the same engine compiles normally.
    engine.compile(&sw, active_isa()).unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn emission_declines_surface_as_unsupported() {
    let _serial = serial();
    let (engine, dir) = scratch_engine("unsup");
    let p = proc("notpacked")
        .size_arg("N")
        .tensor_arg("x", ScalarType::F32, vec![var("N")], MemSpace::Dram)
        .body(vec![for_("i", 0, var("N"), vec![assign("x", vec![var("i")], flt(1.0))])])
        .build();
    let sw = Arc::new(exo_codegen::compile(&p).unwrap().to_superword().unwrap());
    let err = engine.compile(&sw, active_isa()).expect_err("a non-packed kernel must decline");
    assert!(matches!(err, AotError::Unsupported { .. }));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn probe_lens_derive_the_exact_packed_extents() {
    // The staged mr=8, nr=4 kernel at KC = 17 touches exactly
    // Ac[0..17*8], Bc[0..17*4], C[0..4*8].
    let sw = staged_superword(8, 4);
    assert_eq!(sw.packed_probe_lens(17), Some((136, 68, 32)));
    // The derived shape is provable, so the verifier's call runs the
    // loaded code rather than the checked reference.
    assert!(sw.packed_bounds_provable(17, 136, 68, 32));
    // The degenerate probes: kc = 0 touches only C, kc = 1 one row of each
    // panel — both provable at exactly their derived extents.
    assert_eq!(sw.packed_probe_lens(0), Some((0, 0, 32)));
    assert_eq!(sw.packed_probe_lens(1), Some((8, 4, 32)));
    assert!(sw.packed_bounds_provable(0, 0, 0, 32) && sw.packed_bounds_provable(1, 8, 4, 32));

    // A kernel without the packed signature has no probe shape.
    let p = proc("notpacked")
        .size_arg("N")
        .tensor_arg("x", ScalarType::F32, vec![var("N")], MemSpace::Dram)
        .body(vec![for_("i", 0, var("N"), vec![assign("x", vec![var("i")], flt(1.0))])])
        .build();
    let other = Arc::new(exo_codegen::compile(&p).unwrap().to_superword().unwrap());
    assert_eq!(other.packed_probe_lens(17), None);
}

#[test]
fn a_first_poll_kicks_a_background_build_that_promotes() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    let (engine, dir) = scratch_engine("async");
    let sw = staged_superword(8, 4);
    let req = engine.prepare(&sw, active_isa()).unwrap();
    // The first poll answers immediately (None while the background
    // builder works, or Some if it already won the race); later polls
    // observe the promotion without ever blocking.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let native = loop {
        if let Some(native) = engine.poll(&req) {
            break native;
        }
        assert!(std::time::Instant::now() < deadline, "the background build never promoted");
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let stats = engine.stats();
    assert_eq!(stats.build_attempts, 1, "one background attempt serves every poll");
    assert_eq!(stats.builds_ok, 1);
    assert_eq!(stats.verified_promotions, 1, "promotion only happens through the probe");
    assert_eq!(stats.builds_failed, 0);
    // The promoted kernel is the cached one, and it runs.
    let again = engine.poll(&req).expect("a promoted key stays promoted");
    assert!(Arc::ptr_eq(&native, &again));
    let (a, b, mut c) = packed_inputs(8, 4, 5);
    native.run_packed(5, &a, &b, &mut c).unwrap();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_planted_wrong_result_artifact_is_rejected_quarantined_and_pinned() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    // Garbage at every KC; a kernel that is right everywhere except the
    // empty and the single-iteration KC loop, which a probe at one
    // mid-sized KC alone would promote; and the right loop unfused — a
    // multiply and an add, two roundings where every tier rounds once.
    let garbage = "(void)kc; (void)ac; (void)bc; c[0] += 1234.5f;";
    let unfused = "for (long long k = 0; k < kc; k++) for (int j = 0; j < 4; j++)\n\
         for (int i = 0; i < 8; i++) c[j * 8 + i] += ac[k * 8 + i] * bc[k * 4 + j];";
    let wrong_at_tiny_kc = format!("{unfused}\nif (kc < 2) c[0] += 1234.5f;");
    for (tag, evil_body) in
        [("planted", garbage), ("planted-tiny-kc", &wrong_at_tiny_kc), ("planted-unfused", unfused)]
    {
        planted_artifact_is_rejected(tag, evil_body);
    }
}

fn planted_artifact_is_rejected(tag: &str, evil_body: &str) {
    let (engine, dir) = scratch_engine(tag);
    let sw = staged_superword(8, 4);
    let req = engine.prepare(&sw, active_isa()).unwrap();
    let tc = exo_aot::toolchain().unwrap();

    // Plant a loadable dylib at the correct cache key that exports the
    // kernel symbol but computes garbage, and forge a bit-perfect
    // manifest for it — the strongest corruption the integrity layer
    // cannot catch. Only the verification probe stands between this
    // artifact and dispatch.
    engine.store().ensure_dir().unwrap();
    let evil_src = dir.join("evil.c");
    std::fs::write(
        &evil_src,
        format!(
            "void exo_aot_kernel(long long kc, const float *ac, const float *bc, float *c) {{\n{evil_body}\n}}\n"
        ),
    )
    .unwrap();
    let artifact = engine.store().artifact_path(req.key());
    let status = std::process::Command::new(&tc.cc)
        .args(["-O2", "-shared", "-fPIC", "-ffp-contract=off"])
        .arg(&evil_src)
        .arg("-o")
        .arg(&artifact)
        .status()
        .unwrap();
    assert!(status.success(), "the planted dylib must compile");
    let bytes = std::fs::read(&artifact).unwrap();
    let forged = exo_aot::Manifest::for_bytes(&bytes, &tc.version, active_isa(), req.key());
    exo_aot::manifest::write(engine.store(), req.key(), &forged).unwrap();

    // The disk load succeeds, the probe catches the wrong arithmetic,
    // the evidence moves to `<path>.wrong-result`, and the key is
    // terminally pinned to simd — all without a compiler invocation.
    let err = engine.wait(&req).expect_err("a wrong-result kernel must never promote");
    assert!(matches!(err, AotError::WrongResult { .. }), "got {err}");
    let mut quarantined = artifact.as_os_str().to_owned();
    quarantined.push(".wrong-result");
    assert!(std::path::Path::new(&quarantined).is_file(), "the wrong-result artifact is kept as evidence");
    assert!(!artifact.is_file(), "the artifact must not stay servable");
    let stats = engine.stats();
    assert_eq!(stats.compiler_invocations, 0, "the planted artifact is a disk hit, not a build");
    assert_eq!(stats.disk_hits, 1);
    assert_eq!(stats.wrong_results, 1);
    assert_eq!(stats.quarantines, 1);
    assert_eq!(stats.verified_promotions, 0);

    // The pin is terminal: no rebuild, no retry, the same decline.
    let err = engine.wait(&req).expect_err("the pin must hold");
    assert!(matches!(err, AotError::WrongResult { .. }));
    assert!(engine.poll(&req).is_none(), "the serving path must never see this key");
    assert_eq!(engine.stats().build_attempts, 1, "a wrong result must not trigger retries");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_persistently_failing_key_stops_at_the_attempt_cap() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    // Occupy the store directory's path with a regular file: every build
    // attempt fails on `create_dir_all` with a real `Io` error — even
    // running as root, which defeats permission-based write denial.
    let dir = std::env::temp_dir().join(format!("exo-aot-test-negcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&dir);
    std::fs::write(&dir, b"a file where the cache directory should be").unwrap();
    let engine = AotEngine::with_dir(dir.clone());
    let sw = staged_superword(8, 4);
    for _ in 0..(exo_aot::MAX_BUILD_ATTEMPTS + 2) {
        let err = engine.compile(&sw, active_isa()).expect_err("no attempt can succeed");
        assert!(matches!(err, AotError::Io { .. }), "got {err}");
    }
    let stats = engine.stats();
    assert_eq!(
        stats.build_attempts,
        u64::from(exo_aot::MAX_BUILD_ATTEMPTS),
        "a persistently failing key must stop burning attempts at the cap"
    );
    assert_eq!(stats.builds_failed, u64::from(exo_aot::MAX_BUILD_ATTEMPTS));
    assert_eq!(stats.compiler_invocations, 0, "the failure precedes the compiler");
    let _ = std::fs::remove_file(&dir);
}

#[test]
fn a_hung_compiler_is_killed_on_deadline_and_the_key_recovers() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    let (engine, dir) = scratch_engine("hang");
    let sw = staged_superword(8, 4);
    exo_aot::arm_hang(1);
    let err = engine.compile(&sw, active_isa()).expect_err("the hung compiler must be killed");
    assert!(matches!(err, AotError::CompileTimeout { .. }), "got {err}");
    assert_eq!(engine.stats().compile_timeouts, 1);
    // The timeout is retryable: the next blocking compile (the hook is
    // spent) builds normally.
    let native = engine.compile(&sw, active_isa()).unwrap();
    let (a, b, mut c) = packed_inputs(8, 4, 5);
    native.run_packed(5, &a, &b, &mut c).unwrap();
    assert_eq!(engine.stats().compile_timeouts, 1);
    assert_eq!(engine.stats().builds_ok, 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_sealed_but_unloadable_artifact_is_quarantined_and_rebuilt() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    let (engine, dir) = scratch_engine("sealed-bad");
    let sw = staged_superword(8, 4);
    // The fault corrupts the object *before* hashing, so the manifest
    // seals the garbage: integrity passes and only `dlopen` objects.
    exo_aot::arm_bad_artifact(1);
    let err = engine.compile(&sw, active_isa()).expect_err("garbage must not load");
    assert!(!matches!(err, AotError::WrongResult { .. }), "an unloadable artifact is retryable");
    let stats = engine.stats();
    assert_eq!(stats.quarantines, 1);
    assert_eq!(stats.builds_failed, 1);
    // Retryable: the second attempt rebuilds cleanly over the vacated key.
    let native = engine.compile(&sw, active_isa()).unwrap();
    let (a, b, mut c) = packed_inputs(8, 4, 5);
    native.run_packed(5, &a, &b, &mut c).unwrap();
    assert_eq!(engine.stats().compiler_invocations, 2);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_tampered_artifact_is_caught_by_the_manifest_before_dlopen() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    let (cold, dir) = scratch_engine("tamper");
    let sw = staged_superword(8, 4);
    let req = cold.prepare(&sw, active_isa()).unwrap();
    let native = cold.wait(&req).unwrap();
    let artifact = cold.store().artifact_path(req.key());

    // Append a byte: the dylib very likely still loads, but the manifest
    // (length, then hash) no longer matches. Tamper via write-then-rename
    // — scribbling on the artifact in place would corrupt the mapping
    // `native` still holds.
    let mut bytes = std::fs::read(&artifact).unwrap();
    bytes.push(0u8);
    let tampered = dir.join("tampered.tmp");
    std::fs::write(&tampered, &bytes).unwrap();
    std::fs::rename(&tampered, &artifact).unwrap();
    drop(native);

    let warm = AotEngine::with_dir(dir.clone());
    warm.compile(&sw, active_isa()).unwrap();
    assert_eq!(warm.stats().disk_hits, 0, "a tampered artifact must never count as a disk hit");
    assert_eq!(warm.stats().compiler_invocations, 1, "it is quarantined and rebuilt");
    assert_eq!(warm.stats().quarantines, 1);
    let mut quarantined = artifact.as_os_str().to_owned();
    quarantined.push(".corrupt");
    assert!(std::path::Path::new(&quarantined).is_file(), "the evidence is kept");
    let _ = std::fs::remove_dir_all(dir);
}
