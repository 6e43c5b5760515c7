//! End-to-end tests of the ahead-of-time pipeline: emit → compile →
//! load → run, the private build directory every attempt leaves empty,
//! the verification probe against a miscompiling compiler, and the
//! decline paths.
//!
//! Everything that needs a real C compiler branches on
//! [`exo_aot::native_available`]: on a toolchain-less host (or under the
//! `EXO_CC`-poisoned CI leg) those tests assert the decline instead.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use exo_aot::{AotEngine, AotError, Toolchain};
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

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exo-aot-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An engine with the host toolchain (if any) building under a fresh
/// scratch directory.
fn scratch_engine(tag: &str) -> (AotEngine, PathBuf) {
    let dir = scratch_dir(tag);
    (AotEngine::with_dir(dir.clone(), exo_aot::toolchain().cloned()), dir)
}

/// A "compiler" that runs `script` (POSIX `sh`, the engine's compiler
/// arguments in `"$@"`), written to its own scratch directory, which the
/// caller removes.
fn wrapper_toolchain(tag: &str, script: &str) -> (Toolchain, PathBuf) {
    use std::os::unix::fs::PermissionsExt;
    let dir = scratch_dir(&format!("{tag}-cc"));
    std::fs::create_dir_all(&dir).unwrap();
    let cc = dir.join("cc");
    std::fs::write(&cc, format!("#!/bin/sh\n{script}\n")).unwrap();
    std::fs::set_permissions(&cc, std::fs::Permissions::from_mode(0o755)).unwrap();
    (Toolchain { cc: cc.display().to_string(), version: format!("{tag} wrapper") }, dir)
}

/// A miscompiling compiler: the host compiler, with the engine's flags,
/// building `evil_body` as the kernel in place of whatever source it is
/// handed.
fn evil_toolchain(tag: &str, evil_body: &str) -> (Toolchain, PathBuf) {
    let host_cc = &exo_aot::toolchain().expect("the evil compiler wraps the host one").cc;
    let (evil, dir) = wrapper_toolchain(
        tag,
        &format!(
            "for arg; do shift; case $arg in *.c) set -- \"$@\" \"$(dirname \"$0\")/evil.c\";; \
             *) set -- \"$@\" \"$arg\";; esac; done\nexec '{host_cc}' \"$@\""
        ),
    );
    std::fs::write(
        dir.join("evil.c"),
        format!(
            "void exo_aot_kernel(long long kc, const float *ac, const float *bc, float *c) {{\n{evil_body}\n}}\n"
        ),
    )
    .unwrap();
    (evil, dir)
}

/// Garbage at every `KC`.
const GARBAGE: &str = "(void)kc; (void)ac; (void)bc; c[0] += 1234.5f;";

/// The right loop, unfused: a multiply and an add, two roundings where
/// every tier rounds once.
const UNFUSED: &str = "for (long long k = 0; k < kc; k++) for (int j = 0; j < 4; j++)\n\
     for (int i = 0; i < 8; i++) c[j * 8 + i] += ac[k * 8 + i] * bc[k * 4 + j];";

/// The number of entries left in `dir`.
fn entries(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, Iterator::count)
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
fn a_missing_toolchain_is_a_typed_decline() {
    let _serial = serial();
    let sw = staged_superword(4, 4);
    // An engine without a toolchain declines every request, and no
    // attempt starts.
    let dir = scratch_dir("bare");
    let bare = AotEngine::with_dir(dir.clone(), None);
    assert_eq!(bare.prepare(&sw, IsaKind::Scalar).err(), Some(AotError::ToolchainMissing));
    assert_eq!(bare.compile(&sw, IsaKind::Scalar).err(), Some(AotError::ToolchainMissing));
    assert_eq!(bare.stats().build_attempts, 0);
    assert!(!dir.exists(), "a declined request touches no disk");
    // With the host's: no toolchain declines the same way; with one, the
    // scalar lowering compiles and runs.
    let (engine, dir) = scratch_engine("decline");
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
    assert!(!dir.exists(), "the hook fires before any build directory exists");
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
fn the_key_is_the_content_hash_of_the_emitted_source() {
    // FNV-1a 64 closed by one 0xff step: the figure and emitted-C golden
    // hashes are recorded under exactly this definition.
    assert_eq!(exo_aot::content_hash(b""), 0xaf64_724c_8602_eb6e);
    assert_eq!(exo_aot::content_hash(b"int x;"), 0xcebb_a3a7_4bd7_eae8);
    // No compiler runs to prepare a request, and none is part of its key.
    let sw = staged_superword(8, 4);
    let key = |cc: &str| {
        let toolchain = Toolchain { cc: cc.into(), version: format!("{cc} 1.0") };
        AotEngine::with_dir(scratch_dir("key"), Some(toolchain)).prepare(&sw, IsaKind::Scalar).unwrap().key()
    };
    let c_source = exo_codegen::emit_superword_c(&sw, IsaKind::Scalar, exo_aot::KERNEL_SYMBOL).unwrap();
    assert_eq!(key("gcc"), exo_aot::content_hash(c_source.as_bytes()));
    assert_eq!(key("clang"), key("gcc"));
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
fn a_miscompiling_compiler_never_promotes() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    // A compiler that ignores the kernel's source and builds, with the
    // engine's own flags, a loadable object that exports the kernel
    // symbol: garbage at every KC; right everywhere except the empty and
    // the single-iteration KC loop, which a probe at one mid-sized KC
    // alone would promote; the right loop unfused. Only the verification
    // probe stands between each and dispatch.
    let wrong_at_tiny_kc = format!("{UNFUSED}\nif (kc < 2) c[0] += 1234.5f;");
    for (tag, evil_body) in [("garbage", GARBAGE), ("tiny-kc", &wrong_at_tiny_kc), ("unfused", UNFUSED)] {
        let (evil, wrapper_dir) = evil_toolchain(tag, evil_body);
        let dir = scratch_dir(tag);
        let engine = AotEngine::with_dir(dir.clone(), Some(evil));
        let req = engine.prepare(&staged_superword(8, 4), active_isa()).unwrap();
        let err = engine.wait(&req).expect_err("a wrong-result kernel must never promote");
        assert_eq!(err, AotError::WrongResult, "{tag}");
        let stats = engine.stats();
        assert_eq!(stats.build_attempts, 1, "{tag}");
        assert_eq!(stats.compiler_invocations, 1, "{tag}");
        assert_eq!(stats.wrong_results, 1, "{tag}");
        assert_eq!(stats.verified_promotions, 0, "{tag}");

        // The pin is terminal: no rebuild, no retry, the same decline.
        assert_eq!(engine.wait(&req).err(), Some(AotError::WrongResult), "{tag}: the pin must hold");
        assert!(engine.poll(&req).is_none(), "{tag}: the serving path must never see this key");
        let stats = engine.stats();
        assert_eq!(
            (stats.build_attempts, stats.compiler_invocations),
            (1, 1),
            "{tag}: a wrong result never retries"
        );
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(wrapper_dir);
    }
}

#[test]
fn every_build_outcome_leaves_the_build_directory_empty() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    let root = scratch_dir("empty");
    let host = || AotEngine::with_dir(root.clone(), exo_aot::toolchain().cloned());
    let sw = staged_superword(8, 4);
    let isa = active_isa();

    // A promotion: the loaded kernel outlives its file.
    let native = host().compile(&sw, isa).expect("the host compiler builds the kernel");
    assert_eq!(entries(&root), 0, "a promotion left its build directory");
    let (a, b, c0) = packed_inputs(8, 4, 17);
    let (mut c_native, mut c_simd) = (c0.clone(), c0);
    native.run_packed(17, &a, &b, &mut c_native).unwrap();
    SimdKernel::compile_for(Arc::clone(&sw), isa).unwrap().run_packed(17, &a, &b, &mut c_simd).unwrap();
    assert_eq!(c_native, c_simd);

    // `CompileFailed`, from a compiler that lists the directory it was
    // told to write into and fails: a fresh one under the root, 0700.
    let (lister, wrapper_dir) = wrapper_toolchain(
        "lister",
        "for arg; do [ \"$prev\" = -o ] && out=$arg; prev=$arg; done\nls -ld \"$(dirname \"$out\")\" >&2\nexit 1",
    );
    match AotEngine::with_dir(root.clone(), Some(lister)).compile(&sw, isa) {
        Err(AotError::CompileFailed { stderr, .. }) => {
            assert!(stderr.starts_with("drwx------"), "the build directory is private to its user: {stderr}");
            assert!(
                stderr.contains(&*root.to_string_lossy()),
                "the build directory is under the root: {stderr}"
            );
        }
        other => panic!("a failing compiler must be CompileFailed, got {:?}", other.err()),
    }
    assert_eq!(entries(&root), 0, "a failed compile left its build directory");
    let _ = std::fs::remove_dir_all(wrapper_dir);

    // The `aot-hang` timeout.
    exo_aot::arm_hang(1);
    let err = host().compile(&sw, isa).expect_err("the hung compiler is killed");
    assert!(matches!(err, AotError::CompileTimeout { .. }), "got {err}");
    assert_eq!(entries(&root), 0, "a killed compile left its build directory");

    // `aot-bad-artifact`: `LoadFailed`, then rebuilt.
    let engine = host();
    exo_aot::arm_bad_artifact(1);
    let err = engine.compile(&sw, isa).expect_err("garbage must not load");
    assert!(matches!(err, AotError::LoadFailed { .. }), "got {err}");
    assert_eq!(entries(&root), 0, "an unloadable artifact left its build directory");
    engine.compile(&sw, isa).expect("the retry rebuilds");
    assert_eq!(entries(&root), 0, "the rebuild left its build directory");

    // `aot-wrong-result`.
    exo_aot::arm_wrong_result(1);
    let err = host().compile(&sw, isa).expect_err("the forced mismatch rejects");
    assert_eq!(err, AotError::WrongResult);
    assert_eq!(entries(&root), 0, "a rejected kernel left its build directory");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_failing_compilers_long_stderr_is_cut_on_a_char_boundary() {
    let _serial = serial();
    // One ASCII byte, then 1000 three-byte `‘`: byte 2000 falls inside a
    // character.
    let (chatty, dir) = wrapper_toolchain(
        "chatty",
        "printf x >&2\ni=0\nwhile [ $i -lt 1000 ]; do printf '\\342\\200\\230' >&2; i=$((i+1)); done\nexit 1",
    );
    match AotEngine::with_dir(dir.join("root"), Some(chatty)).compile(&staged_superword(8, 4), active_isa()) {
        Err(AotError::CompileFailed { stderr, .. }) => {
            assert_eq!(stderr.len(), 1999, "cut to the last whole character before byte 2000");
            assert!(stderr.starts_with('x') && stderr[1..].chars().all(|c| c == '\u{2018}'), "{stderr}");
        }
        other => panic!("a failing compiler must be CompileFailed, got {:?}", other.err()),
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Names the directory holding the slow compiler of
/// [`exit_mid_build_child_process`]; unset, that test is a no-op.
const EXIT_CHILD_DIR: &str = "EXO_AOT_EXIT_CHILD_DIR";

#[test]
fn a_process_that_exits_mid_build_leaves_no_build_directory() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    // A compiler that is still running when its process exits.
    let (_, dir) = wrapper_toolchain("exit", "sleep 1\nexit 1");
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["exit_mid_build_child_process", "--exact", "--test-threads=1"])
        .env(EXIT_CHILD_DIR, &dir)
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "the child process failed: {status}");
    assert_eq!(entries(&dir.join("root")), 0, "the exiting process left its build directory");
    let _ = std::fs::remove_dir_all(dir);
}

/// Run in a process of its own by
/// [`a_process_that_exits_mid_build_leaves_no_build_directory`]: kicks a
/// background build with that test's slow compiler and returns once the
/// build directory exists, so the process exits mid-build.
#[test]
fn exit_mid_build_child_process() {
    let Some(dir) = std::env::var_os(EXIT_CHILD_DIR).map(PathBuf::from) else {
        return;
    };
    let slow = Toolchain { cc: dir.join("cc").display().to_string(), version: "slow".into() };
    let root = dir.join("root");
    let engine = AotEngine::with_dir(root.clone(), Some(slow));
    let req = engine.prepare(&staged_superword(8, 4), active_isa()).unwrap();
    assert!(engine.poll(&req).is_none(), "a first poll only enqueues the build");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while entries(&root) == 0 {
        assert!(std::time::Instant::now() < deadline, "the build directory never appeared");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn a_second_engine_never_gets_the_first_ones_loaded_object_back() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    // Both engines build under one root in one process. Engine A's
    // promoted kernel stays alive, so its object stays loaded; engine B
    // builds the same key with a miscompiling compiler. Had B's object
    // reused a name A loaded, the loader would hand back A's object, B's
    // probe would pass, and B would promote.
    let root = scratch_dir("reuse");
    let sw = staged_superword(8, 4);
    let isa = active_isa();
    let a = AotEngine::with_dir(root.clone(), exo_aot::toolchain().cloned());
    let req_a = a.prepare(&sw, isa).unwrap();
    let native_a = a.wait(&req_a).expect("the host compiler builds the kernel");
    let (evil, wrapper_dir) = evil_toolchain("reuse", GARBAGE);
    let b = AotEngine::with_dir(root.clone(), Some(evil));
    let req_b = b.prepare(&sw, isa).unwrap();
    assert_eq!(req_a.key(), req_b.key(), "one source, one key");
    assert_eq!(b.wait(&req_b).err(), Some(AotError::WrongResult), "B must load what its own compiler wrote");

    // A's kernel is untouched.
    let (ac, bc, c0) = packed_inputs(8, 4, 17);
    let (mut c_native, mut c_simd) = (c0.clone(), c0);
    native_a.run_packed(17, &ac, &bc, &mut c_native).unwrap();
    SimdKernel::compile_for(Arc::clone(&sw), isa).unwrap().run_packed(17, &ac, &bc, &mut c_simd).unwrap();
    assert_eq!(c_native, c_simd);
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(wrapper_dir);
}

#[test]
fn a_persistently_failing_key_stops_at_the_attempt_cap() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    // Occupy the build root's path with a regular file: every build
    // attempt fails on `create_dir_all` with a real `Io` error — even
    // running as root, which defeats permission-based write denial.
    let dir = std::env::temp_dir().join(format!("exo-aot-test-negcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&dir);
    std::fs::write(&dir, b"a file where the build root should be").unwrap();
    let engine = AotEngine::with_dir(dir.clone(), exo_aot::toolchain().cloned());
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
fn a_sealed_but_unloadable_artifact_is_declined_and_rebuilt() {
    let _serial = serial();
    if !exo_aot::native_available() {
        return;
    }
    let (engine, dir) = scratch_engine("sealed-bad");
    let sw = staged_superword(8, 4);
    // The fault overwrites the object after the compiler exits cleanly,
    // so only `dlopen` objects.
    exo_aot::arm_bad_artifact(1);
    let err = engine.compile(&sw, active_isa()).expect_err("garbage must not load");
    assert!(
        matches!(err, AotError::LoadFailed { .. }),
        "an unloadable artifact is a retryable decline: {err}"
    );
    assert_eq!(engine.stats().builds_failed, 1);
    // Retryable: the second attempt rebuilds cleanly.
    let native = engine.compile(&sw, active_isa()).unwrap();
    let (a, b, mut c) = packed_inputs(8, 4, 5);
    native.run_packed(5, &a, &b, &mut c).unwrap();
    assert_eq!(engine.stats().compiler_invocations, 2);
    let _ = std::fs::remove_dir_all(dir);
}
