//! End-to-end tests of the native tier's engine: a kernel's emitted C
//! resolves to a body of the table compiled at build time (this binary
//! links `exo-kernels`, as every GEMM stack does) or to a counted miss; and
//! the verification probe stands between every body and dispatch, whatever
//! the body computes. Bodies of the tests' own — right ones and wrong ones,
//! `extern "C"` functions below — reach the promotion path through
//! [`AotEngine::with_bodies`], so none of this needs a C compiler.
//!
//! Everything that needs the build-time table branches on
//! [`exo_aot::native_available`]: on a build that found no C compiler (the
//! poisoned CI leg) the table is empty and those tests assert the miss.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use exo_aot::{AotEngine, AotError, NativeBody};
use exo_codegen::{active_isa, IsaKind, PackedKernelFn, SimdKernel, SuperwordKernel, TensorView};
use exo_ir::builder::*;
use exo_ir::{Expr, MemSpace, ScalarType};
// Linked for its table of native bodies, installed before `main`.
use exo_kernels as _;

/// The `aot-wrong-result` countdown is process-global: every test that
/// probes a body (or arms the fault) holds this lock, so an armed countdown
/// can only fire in the test that armed it.
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

/// The generated Neon 8x12: a tile the table holds a body for on every ISA
/// row the build compiled.
fn generated_8x12() -> Arc<SuperwordKernel> {
    let kernel = ukernel_gen::MicroKernelGenerator::new(exo_isa::neon_f32()).generate(8, 12).unwrap();
    Arc::clone(&kernel.superword)
}

/// The key of `sw`'s emitted C on `isa`: its content hash.
fn key_of(sw: &SuperwordKernel, isa: IsaKind) -> u64 {
    exo_aot::content_hash(exo_codegen::emit_superword_c(sw, isa, exo_aot::KERNEL_SYMBOL).unwrap().as_bytes())
}

/// An engine whose table holds one body, `body`, under the key of `sw`'s
/// C on `isa`.
fn engine_with(sw: &Arc<SuperwordKernel>, isa: IsaKind, body: PackedKernelFn) -> AotEngine {
    AotEngine::with_bodies(vec![NativeBody { key: key_of(sw, isa), isa, body }])
}

/// The staged 8x4 kernel's update, `C[j][i] += Ac[k][i] * Bc[k][j]` over
/// `k`, with `fma` as its multiply-add.
///
/// # Safety
///
/// `ac` and `bc` hold `kc * 8` and `kc * 4` floats, and `c` 32.
unsafe fn staged_8x4(kc: i64, ac: *const f32, bc: *const f32, c: *mut f32, fma: fn(f32, f32, f32) -> f32) {
    for k in 0..kc as usize {
        for j in 0..4 {
            for i in 0..8 {
                // SAFETY: in bounds by the function's contract.
                unsafe { *c.add(j * 8 + i) = fma(*ac.add(k * 8 + i), *bc.add(k * 4 + j), *c.add(j * 8 + i)) };
            }
        }
    }
}

/// The right body: every multiply-add one fused rounding, as every tier.
unsafe extern "C" fn fused(kc: i64, ac: *const f32, bc: *const f32, c: *mut f32) {
    // SAFETY: the proved-call site passes operands of the probe's extents.
    unsafe { staged_8x4(kc, ac, bc, c, f32::mul_add) }
}

/// Calls of each wrong body, to show none runs after its probe.
static WRONG_CALLS: [AtomicUsize; 3] = [AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0)];

/// Garbage at every `KC`.
unsafe extern "C" fn garbage(_kc: i64, _ac: *const f32, _bc: *const f32, c: *mut f32) {
    WRONG_CALLS[0].fetch_add(1, Ordering::SeqCst);
    // SAFETY: `C` holds the 32-float tile.
    unsafe { *c += 1234.5 };
}

/// Right everywhere except the empty and the single-iteration `KC` loop,
/// which a probe at one mid-sized `KC` alone would promote.
unsafe extern "C" fn wrong_at_tiny_kc(kc: i64, ac: *const f32, bc: *const f32, c: *mut f32) {
    WRONG_CALLS[1].fetch_add(1, Ordering::SeqCst);
    // SAFETY: as for `fused`.
    unsafe {
        staged_8x4(kc, ac, bc, c, f32::mul_add);
        if kc < 2 {
            *c += 1234.5;
        }
    }
}

/// The right loop, unfused: a multiply and an add, two roundings where
/// every tier rounds once.
unsafe extern "C" fn unfused(kc: i64, ac: *const f32, bc: *const f32, c: *mut f32) {
    WRONG_CALLS[2].fetch_add(1, Ordering::SeqCst);
    // SAFETY: as for `fused`.
    unsafe { staged_8x4(kc, ac, bc, c, |a, b, acc| a * b + acc) }
}

/// Fails the test if it is ever called.
unsafe extern "C" fn never_called(_: i64, _: *const f32, _: *const f32, _: *mut f32) {
    panic!("a body for an ISA the host cannot run was called");
}

#[test]
fn native_agrees_with_the_simd_chain_on_the_matching_isa() {
    let _serial = serial();
    let sw = generated_8x12();
    let isa = active_isa();
    match exo_aot::engine().compile(&sw, isa) {
        Ok(native) => {
            assert_eq!(native.isa(), isa);
            let simd = SimdKernel::compile_for(Arc::clone(&sw), isa).expect("the active ISA compiles");
            for &kc in &[0usize, 1, 2, 17, 64] {
                let (a, b, c0) = packed_inputs(8, 12, kc);
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
            assert!(!exo_aot::native_available(), "the table has {isa} bodies but not the 8x12's: {e}");
            assert_eq!(e, AotError::NotInTable);
        }
    }
}

#[test]
fn the_dispatch_handle_memoises_proofs_and_falls_back_when_unproven() {
    let _serial = serial();
    let sw = staged_superword(8, 4);
    let native = engine_with(&sw, active_isa(), fused).compile(&sw, active_isa()).unwrap();
    let chain = SimdKernel::compile(Arc::clone(&sw)).expect("the active ISA compiles");
    let mut dispatch = native.dispatcher();
    let kc = 17usize;
    let (a, b, c0) = packed_inputs(8, 4, kc);
    let mut c_hot = c0.clone();
    dispatch.run_packed(kc, &a, &b, &mut c_hot).unwrap();
    let mut c_ref = c0.clone();
    chain.run_packed(kc, &a, &b, &mut c_ref).unwrap();
    // The body and the simd chain fuse identically: bit equality through
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
}

#[test]
fn a_right_body_promotes_once_and_every_later_resolve_shares_it() {
    let _serial = serial();
    let sw = staged_superword(8, 4);
    let engine = engine_with(&sw, active_isa(), fused);
    let native = engine.compile(&sw, active_isa()).expect("the right body promotes on the first call");
    let stats = engine.stats();
    assert_eq!((stats.verified_promotions, stats.builds_failed, stats.misses), (1, 0, 0));
    let again = engine.compile(&sw, active_isa()).expect("a promoted key stays promoted");
    assert!(Arc::ptr_eq(&native, &again), "one probe, one kernel");
    assert_eq!(engine.stats(), stats, "a later call probes nothing");
    let (a, b, c0) = packed_inputs(8, 4, 5);
    let (mut c_native, mut c_sw) = (c0.clone(), c0);
    native.run_packed(5, &a, &b, &mut c_native).unwrap();
    sw.run_checked(&[5], &mut [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Rw(&mut c_sw)]).unwrap();
    assert_eq!(c_native, c_sw);
}

#[test]
fn a_miscompiling_compiler_never_promotes() {
    let _serial = serial();
    // What a miscompiling compiler would have linked in, under the right
    // key: garbage at every KC; right everywhere except the empty and the
    // single-iteration KC loop, which a probe at one mid-sized KC alone
    // would promote; the right loop unfused. Each body loads and runs; only
    // the verification probe stands between it and dispatch.
    let wrong: [(&str, PackedKernelFn); 3] =
        [("garbage", garbage), ("tiny-kc", wrong_at_tiny_kc), ("unfused", unfused)];
    let sw = staged_superword(8, 4);
    for (calls, (tag, body)) in WRONG_CALLS.iter().zip(wrong) {
        let before = calls.load(Ordering::SeqCst);
        let engine = engine_with(&sw, active_isa(), body);
        assert_eq!(engine.compile(&sw, active_isa()).err(), Some(AotError::WrongResult), "{tag}");
        let stats = engine.stats();
        assert_eq!((stats.wrong_results, stats.builds_failed), (1, 1), "{tag}");
        assert_eq!(stats.verified_promotions, 0, "{tag}");
        let probed = calls.load(Ordering::SeqCst);
        assert_eq!(probed - before, 3, "{tag}: the probe runs the body once per probe KC");

        // The pin is terminal: no second probe, the same decline, and the
        // body is never called again.
        assert_eq!(engine.compile(&sw, active_isa()).err(), Some(AotError::WrongResult), "{tag}: the pin");
        assert_eq!(engine.stats(), stats, "{tag}: a wrong result is never probed again");
        assert_eq!(calls.load(Ordering::SeqCst), probed, "{tag}: the rejected body ran after its probe");
    }
}

#[test]
fn a_key_outside_the_table_is_a_counted_miss() {
    let _serial = serial();
    // The hand-staged kernel's C is no admitted tile's: the installed table
    // has no body for it, and neither has an empty one.
    let sw = staged_superword(8, 4);
    for engine in [AotEngine::with_bodies(Vec::new()), AotEngine::with_bodies(Vec::new())] {
        assert_eq!(engine.compile(&sw, IsaKind::Scalar).err(), Some(AotError::NotInTable));
        assert_eq!(engine.compile(&sw, IsaKind::Scalar).err(), Some(AotError::NotInTable));
        let stats = engine.stats();
        assert_eq!(
            (stats.misses, stats.builds_failed, stats.verified_promotions),
            (1, 0, 0),
            "one miss a key"
        );
    }
    let misses = exo_aot::engine().stats().misses;
    assert_eq!(exo_aot::engine().compile(&sw, active_isa()).err(), Some(AotError::NotInTable));
    assert_eq!(exo_aot::engine().stats().misses, misses + 1, "the installed table misses it too");
}

#[test]
fn a_missing_toolchain_is_a_typed_decline() {
    let _serial = serial();
    // A build that finds no C compiler leaves an empty table: every request
    // declines with a typed error, on every ISA the host runs, and no body
    // is probed.
    let sw = staged_superword(4, 4);
    let bare = AotEngine::with_bodies(Vec::new());
    let isas: Vec<IsaKind> = IsaKind::ALL.into_iter().filter(|isa| isa.available()).collect();
    for &isa in &isas {
        assert_eq!(bare.compile(&sw, isa).err(), Some(AotError::NotInTable), "{isa}");
    }
    let stats = bare.stats();
    assert_eq!(stats.misses, isas.len() as u64, "one miss a key");
    assert_eq!((stats.builds_failed, stats.verified_promotions), (0, 0));
    // The installed table: with no bodies for this ISA, the table's 8x12
    // declines the same way; with them, it promotes and matches the checked
    // reference bitwise.
    let sw = generated_8x12();
    assert!(exo_aot::toolchain().is_some() || !exo_aot::native_available(), "bodies without a compiler");
    match exo_aot::engine().compile(&sw, active_isa()) {
        Ok(k) => {
            assert!(exo_aot::native_available());
            let (a, b, c0) = packed_inputs(8, 12, 13);
            let (mut c_native, mut c_sw) = (c0.clone(), c0);
            k.run_packed(13, &a, &b, &mut c_native).unwrap();
            sw.run_checked(&[13], &mut [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Rw(&mut c_sw)])
                .unwrap();
            assert_eq!(c_native, c_sw, "the table's body must match the checked reference bitwise");
        }
        Err(e) => {
            assert!(!exo_aot::native_available());
            assert_eq!(e, AotError::NotInTable);
        }
    }
}

#[test]
fn a_second_engine_never_gets_the_first_ones_loaded_object_back() {
    let _serial = serial();
    // Engine A promotes its right body and keeps the kernel; engine B holds
    // a wrong body under the same key. Verdicts belong to their engine: had
    // B shared A's, it would hand back A's kernel without probing its own
    // body, and promote.
    let sw = staged_superword(8, 4);
    let isa = active_isa();
    let a = engine_with(&sw, isa, fused);
    let native_a = a.compile(&sw, isa).expect("A's right body promotes");
    let b = engine_with(&sw, isa, unfused);
    assert_eq!(b.compile(&sw, isa).err(), Some(AotError::WrongResult), "B must probe its own body");
    assert_eq!(b.stats().verified_promotions, 0);

    // A's kernel is untouched, and A still answers with it.
    assert!(Arc::ptr_eq(&native_a, &a.compile(&sw, isa).unwrap()));
    let (ac, bc, c0) = packed_inputs(8, 4, 17);
    let (mut c_native, mut c_simd) = (c0.clone(), c0);
    native_a.run_packed(17, &ac, &bc, &mut c_native).unwrap();
    SimdKernel::compile_for(Arc::clone(&sw), isa).unwrap().run_packed(17, &ac, &bc, &mut c_simd).unwrap();
    assert_eq!(c_native, c_simd);
}

#[test]
fn a_persistently_failing_key_stops_at_the_attempt_cap() {
    let _serial = serial();
    // Nothing a verdict rests on changes while the process runs, so the cap
    // is one attempt: whatever made a key fail — a miss, a wrong body, the
    // probe fault — asking again returns that verdict and counts nothing.
    let sw = staged_superword(8, 4);
    let isa = active_isa();
    let failing = [
        ("miss", AotEngine::with_bodies(Vec::new()), 0),
        ("wrong body", engine_with(&sw, isa, unfused), 0),
        ("probe fault", engine_with(&sw, isa, fused), 1),
    ];
    for (tag, engine, arm) in failing {
        exo_aot::arm_wrong_result(arm);
        let first = engine.compile(&sw, isa).err();
        exo_aot::arm_wrong_result(0);
        let first = first.unwrap_or_else(|| panic!("{tag}: the first attempt must fail"));
        let stats = engine.stats();
        assert_eq!(stats.misses + stats.builds_failed, 1, "{tag}: one attempt");
        for _ in 0..5 {
            assert_eq!(engine.compile(&sw, isa).err(), Some(first.clone()), "{tag}");
        }
        assert_eq!(engine.stats(), stats, "{tag}: a failed key must not be attempted again");
    }
}

#[test]
fn a_failing_compilers_long_stderr_is_cut_on_a_char_boundary() {
    // The build script reports a failing compile's stderr as a warning, cut
    // to `MAX_DIAGNOSTICS` bytes. One ASCII byte, then 1000 three-byte `‘`:
    // byte 2000 falls inside a character.
    let mut stderr = b"x".to_vec();
    for _ in 0..1000 {
        stderr.extend_from_slice("\u{2018}".as_bytes());
    }
    let cut = exo_aot::compiler_diagnostics(&stderr);
    assert_eq!(exo_aot::MAX_DIAGNOSTICS, 2000);
    assert_eq!(cut.len(), 1999, "cut to the last whole character before byte 2000");
    assert!(cut.starts_with('x') && cut[1..].chars().all(|c| c == '\u{2018}'), "{cut}");
    // Short diagnostics pass whole, less the trailing newline; bytes that
    // are not UTF-8 do not panic.
    assert_eq!(exo_aot::compiler_diagnostics(b"k.c:1: error: boom\n"), "k.c:1: error: boom");
    assert_eq!(exo_aot::compiler_diagnostics(b"\xff\xfe"), "\u{fffd}\u{fffd}");
}

#[test]
fn the_wrong_result_fault_rejects_a_right_body() {
    let _serial = serial();
    let sw = staged_superword(8, 4);
    let engine = engine_with(&sw, active_isa(), fused);
    exo_aot::arm_wrong_result(1);
    let err = engine.compile(&sw, active_isa()).err();
    exo_aot::arm_wrong_result(0);
    assert_eq!(err, Some(AotError::WrongResult));
    assert_eq!(engine.stats().wrong_results, 1);
}

#[test]
fn a_body_for_an_isa_the_host_cannot_run_is_never_called() {
    let _serial = serial();
    let Some(foreign) = IsaKind::ALL.into_iter().find(|isa| !isa.available()) else {
        return; // this host runs every row
    };
    let sw = staged_superword(8, 4);
    let engine = engine_with(&sw, foreign, never_called);
    let err = engine.compile(&sw, foreign).expect_err("the host cannot run the body");
    assert!(matches!(err, AotError::Unsupported { .. }), "got {err}");
    assert_eq!(engine.stats(), exo_aot::AotStats::default(), "neither a miss nor a probe");
}

#[test]
fn emission_declines_surface_as_unsupported() {
    let p = proc("notpacked")
        .size_arg("N")
        .tensor_arg("x", ScalarType::F32, vec![var("N")], MemSpace::Dram)
        .body(vec![for_("i", 0, var("N"), vec![assign("x", vec![var("i")], flt(1.0))])])
        .build();
    let sw = Arc::new(exo_codegen::compile(&p).unwrap().to_superword().unwrap());
    let err = AotEngine::with_bodies(Vec::new())
        .compile(&sw, active_isa())
        .expect_err("a non-packed kernel must decline");
    assert!(matches!(err, AotError::Unsupported { .. }));
}

#[test]
fn the_key_is_the_content_hash_of_the_emitted_source() {
    let _serial = serial();
    // FNV-1a 64 closed by one 0xff step: the figure and emitted-C golden
    // hashes are recorded under exactly this definition.
    assert_eq!(exo_aot::content_hash(b""), 0xaf64_724c_8602_eb6e);
    assert_eq!(exo_aot::content_hash(b"int x;"), 0xcebb_a3a7_4bd7_eae8);
    // A body under that key of the staged kernel's C is the one found.
    let sw = staged_superword(8, 4);
    let body = |key| NativeBody { key, isa: active_isa(), body: fused };
    let near_miss = AotEngine::with_bodies(vec![body(key_of(&sw, active_isa()) ^ 1)]);
    assert_eq!(near_miss.compile(&sw, active_isa()).err(), Some(AotError::NotInTable));
    let hit = AotEngine::with_bodies(vec![body(key_of(&sw, active_isa()))]);
    assert!(hit.compile(&sw, active_isa()).is_ok());
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
