//! Differential suite for the execution engines: the four tiers with an
//! **ISA axis**, against the reference semantics. The ahead-of-time
//! compiled native tier (the superword lowering's emitted C, compiled when
//! the workspace builds and linked in), the in-process SIMD chain (compiled per vector ISA — AVX-512,
//! AVX2/FMA, NEON, or the scalar reference), the portable tier (the
//! scalar-ISA chain — what the `superword` pin runs), the scalar tape, the
//! reference interpreter (`exo_ir::interp::run_proc` — no tier, called
//! directly on the packed operands a tier ran), and the naive reference
//! must agree. Every tier performs the interpreter's operations in its
//! order, each multiply-add one fused rounding, so all of them agree **bit
//! for bit**, on every ISA — native vs. simd vs. portable vs. tape vs.
//! interpreter, 1 vs. N threads, row-block vs. column-block partition.
//! `EXO_ISA=scalar` (the CI forced-scalar leg) and `EXO_ISA=avx2` pin the
//! simd and native tiers process-wide; the assertions do not change.
//! `EXO_CC=/nonexistent/cc` at build time (the CI poisoned-toolchain leg)
//! leaves the table of native bodies empty; every test here must still
//! pass, with the native legs collapsing onto the simd chain.
//!
//! Every tier is reached the same way — `GeneratedKernel::dispatcher`
//! resolving an `ExecBackend` pin on the one ladder — whether the test
//! asks the kernel directly, pins a `KernelImpl`, or runs the driver.

mod common;

use std::sync::Arc;

use common::Cases;
use exo_gemm::exo_codegen::{emit_superword_c, SimdKernel};
use exo_gemm::exo_ir::interp::run_packed;
use exo_gemm::exo_ir::Proc;
use exo_gemm::exo_isa::{avx512_f32, neon_f32};
use exo_gemm::exo_tune::DesignSpace;
use exo_gemm::gemm_blis::{
    active_isa, exo_kernel, exo_kernel_simd, exo_kernel_superword, exo_kernel_tape, naive_gemm,
    native_available, toolchain, BlisGemm, BlockingParams, ExecBackend, GemmExecutor, GemmProblem, IsaKind,
    Matrix,
};
use exo_gemm::ukernel_gen::{KernelCache, KernelSet, MicroKernelGenerator, Strategy};

/// The reference semantics of a packed call: the interpreter of the
/// scheduled procedure, run on a copy of `c0`.
fn interpret(p: &Proc, kc: usize, a: &[f32], b: &[f32], c0: &[f32]) -> Vec<f32> {
    let mut c = c0.to_vec();
    run_packed(p, kc, a, b, &mut c).unwrap();
    c
}

fn packed_operands(mr: usize, nr: usize, kc: usize, cases: &mut Cases) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..kc * mr).map(|_| cases.f32_unit()).collect();
    let b: Vec<f32> = (0..kc * nr).map(|_| cases.f32_unit()).collect();
    let c: Vec<f32> = (0..mr * nr).map(|_| cases.f32_unit()).collect();
    (a, b, c)
}

/// Five-way differential on every registry tile shape, and on every tile
/// of the AVX-512 serving space (the `avx512_f32` library's broadcast
/// kernels), across several KC values including `k = 0` and `k = 1`:
/// native ≡ simd ≡ portable ≡ tape ≡ interpreter bit for bit — the native
/// tier with a body because the emitted C performs the same per-lane
/// fused ops (16-lane ones on an AVX-512 host), without one because the
/// fallback *is* the chain.
#[test]
fn native_simd_superword_tape_and_interpreter_agree_across_registry_shapes() {
    let avx512_tiles: Vec<(usize, usize)> =
        DesignSpace::serving(IsaKind::Avx512).tile_shapes().iter().map(|t| (t.mr, t.nr)).collect();
    for (library, shapes) in [(neon_f32(), KernelSet::paper_shapes()), (avx512_f32(), avx512_tiles)] {
        five_way_differential(&MicroKernelGenerator::new(library), &shapes);
    }
}

fn five_way_differential(generator: &MicroKernelGenerator, shapes: &[(usize, usize)]) {
    let cache = KernelCache::new();
    let mut cases = Cases::new(0x7a9e);
    for &(mr, nr) in shapes {
        let kernel = cache.get_or_generate(generator, mr, nr).unwrap();
        let sw = &kernel.superword;
        assert!(sw.vector_op_count() > 0, "{mr}x{nr} must pack whole-vector ops");
        assert_eq!(kernel.simd.isa(), active_isa(), "{mr}x{nr}: chain targets the active ISA");
        // Every tile here is admitted, so it has a body wherever the build
        // compiled bodies for the active ISA; the native leg below runs it.
        match kernel.native() {
            Some(native) => {
                assert_eq!(native.isa(), active_isa(), "{mr}x{nr}: the body targets the active ISA")
            }
            None => assert!(!native_available(), "{mr}x{nr}: the table has bodies, but not this one"),
        }
        for kc in [0usize, 1, 2, 17, 64] {
            let (a, b, c0) = packed_operands(mr, nr, kc, &mut cases);
            let run_on = |backend| {
                let mut c = c0.clone();
                kernel.dispatcher(backend).run(kc, &a, &b, &mut c).unwrap();
                c
            };
            let mut c_simd = c0.clone();
            kernel.run_packed(kc, &a, &b, &mut c_simd).unwrap();
            assert_eq!(c_simd, run_on(ExecBackend::Simd), "{mr}x{nr} kc={kc}: run_packed is the simd tier");
            let c_sw = run_on(ExecBackend::Superword);
            let c_tape = run_on(ExecBackend::Tape);
            let c_interp = interpret(&kernel.proc, kc, &a, &b, &c0);
            let c_native = run_on(ExecBackend::Native);
            assert_eq!(c_native, c_simd, "{mr}x{nr} kc={kc}: native must be bit-faithful to simd");
            assert_eq!(c_simd, c_sw, "{mr}x{nr} kc={kc}: simd vs portable chain");
            assert_eq!(c_sw, c_tape, "{mr}x{nr} kc={kc}: portable chain vs tape");
            assert_eq!(c_tape, c_interp, "{mr}x{nr} kc={kc}: tape vs interpreter");
        }
    }
    // The cache compiled each tape, superword, and simd lowering exactly
    // once, alongside its kernel.
    assert_eq!(cache.generator_invocations(), shapes.len() as u64);
}

/// All four tiers agree with `naive_gemm` (to accumulation tolerance) on
/// fringe-heavy problems through the full five-loop driver, and with each
/// other bit for bit.
#[test]
fn native_and_simd_drivers_match_naive_on_fringe_heavy_problems() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let mut cases = Cases::new(0x51ab);
    // (mr, nr) x (m, n, k) including m < mr, n < nr, and k = 1.
    let shapes = [(8usize, 12usize), (4, 4), (1, 8)];
    let problems = [(3usize, 5usize, 1usize), (5, 40, 9), (13, 7, 23), (50, 45, 16), (8, 12, 1)];
    for &(mr, nr) in &shapes {
        let kernel = Arc::new(generator.generate(mr, nr).unwrap());
        for &(m, n, k) in &problems {
            let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit());
            let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
            let c0 = Matrix::from_fn(m, n, |_, _| cases.f32_unit());
            let blocking = BlockingParams { mc: 16, kc: 8, nc: 24, mr, nr };
            let run = |kimpl| {
                let mut c = c0.clone();
                BlisGemm::new(blocking)
                    .with_kernel(kimpl)
                    .gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()))
                    .unwrap();
                c
            };

            let c_native = run(exo_kernel(Arc::clone(&kernel)));
            let c_simd = run(exo_kernel_simd(Arc::clone(&kernel)));
            let c_sw = run(exo_kernel_superword(Arc::clone(&kernel)));
            let c_tape = run(exo_kernel_tape(Arc::clone(&kernel)));
            assert_eq!(
                c_native.data, c_simd.data,
                "{mr}x{nr} on {m}x{n}x{k}: native (default) vs pinned-simd driver"
            );
            assert_eq!(c_sw.data, c_tape.data, "{mr}x{nr} on {m}x{n}x{k}: superword vs tape driver");
            assert_eq!(
                run(exo_kernel(Arc::clone(&kernel)).with_backend(ExecBackend::Superword)).data,
                c_sw.data,
                "{mr}x{nr} on {m}x{n}x{k}: the programmatic pin is the dedicated pin through the driver"
            );
            assert_eq!(c_simd.data, c_sw.data, "{mr}x{nr} on {m}x{n}x{k}: simd vs superword driver");

            let mut c_ref = c0.clone();
            naive_gemm(&a, &b, &mut c_ref);
            for idx in 0..c_simd.data.len() {
                assert!(
                    (c_simd.data[idx] - c_ref.data[idx]).abs() < 1e-3,
                    "{mr}x{nr} on {m}x{n}x{k} mismatch at {idx}: {} vs {}",
                    c_simd.data[idx],
                    c_ref.data[idx]
                );
            }
        }
    }
}

/// A tier pin is never a second code path beside the ladder: on every
/// registry shape, every one of the four `ExecBackend` pins — set
/// programmatically with `with_backend` or by the dedicated `exo_kernel_*`
/// constructor — run one-shot through `KernelImpl::run` and through a
/// reusable `dispatcher()` handle lands on the tier the one resolution
/// function names, and the tiers hold their contract: native ≡ simd ≡
/// portable ≡ tape ≡ interp bit for bit (native without a body *is*
/// simd).
#[test]
fn every_backend_pin_runs_the_one_ladder_one_shot_and_through_the_handle() {
    use ExecBackend::*;
    let generator = MicroKernelGenerator::new(neon_f32());
    let mut cases = Cases::new(0xfa11);
    for (mr, nr) in KernelSet::paper_shapes() {
        let kernel = Arc::new(generator.generate(mr, nr).unwrap());
        let has_native = kernel.native().is_some();
        for kc in [0usize, 1, 23] {
            let (a, b, c0) = packed_operands(mr, nr, kc, &mut cases);
            let results: Vec<Vec<f32>> = [
                (Native, exo_kernel(Arc::clone(&kernel))),
                (Simd, exo_kernel_simd(Arc::clone(&kernel))),
                (Superword, exo_kernel_superword(Arc::clone(&kernel))),
                (Tape, exo_kernel_tape(Arc::clone(&kernel))),
            ]
            .into_iter()
            .map(|(pin, dedicated)| {
                let label = format!("{mr}x{nr} kc={kc} pin={pin:?}");
                assert_eq!(dedicated.backend, pin, "{label}");
                // A pin resolves to itself — except native without a body.
                let resolved = match pin {
                    Native if !has_native => Simd,
                    tier => tier,
                };
                assert_eq!(kernel.dispatcher(pin).tier(), resolved, "{label}");
                let pinned = exo_kernel(Arc::clone(&kernel)).with_backend(pin);
                let mut c = c0.clone();
                pinned.run(kc, &a, &b, &mut c).unwrap();
                for (entry, imp) in [("with_backend", &pinned), ("dedicated", &dedicated)] {
                    let mut c_one_shot = c0.clone();
                    imp.run(kc, &a, &b, &mut c_one_shot).unwrap();
                    assert_eq!(c_one_shot, c, "{label}: {entry} one-shot");
                    let mut handle = imp.dispatcher();
                    for reuse in 0..2 {
                        let mut c_handle = c0.clone();
                        handle.run(kc, &a, &b, &mut c_handle).unwrap();
                        assert_eq!(c_handle, c, "{label}: {entry} handle, use {reuse}");
                    }
                }
                c
            })
            .collect();
            let [c_native, c_simd, c_sw, c_tape] = &results[..] else { unreachable!() };
            assert_eq!(c_sw, c_tape, "{mr}x{nr} kc={kc}: portable vs tape");
            assert_eq!(
                c_tape,
                &interpret(&kernel.proc, kc, &a, &b, &c0),
                "{mr}x{nr} kc={kc}: tape vs interp"
            );
            assert_eq!(c_native, c_simd, "{mr}x{nr} kc={kc}: native vs simd");
            assert_eq!(c_simd, c_sw, "{mr}x{nr} kc={kc}: simd vs portable");
        }
    }
}

/// `threads = 1` and `threads = N` produce identical `C` on the default
/// tier: the workers' windows hold disjoint row blocks, each computed in
/// the same order.
#[test]
fn thread_count_never_changes_the_result() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let kernel = Arc::new(generator.generate(8, 12).unwrap());
    let mut cases = Cases::new(0xbeef);
    // Small mc so even modest m yields many ic blocks to spread over workers.
    let blocking = BlockingParams { mc: 8, kc: 16, nc: 36, mr: 8, nr: 12 };
    for &(m, n, k) in &[(96usize, 60usize, 33usize), (70, 25, 9)] {
        let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit());
        let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
        let c0 = Matrix::from_fn(m, n, |_, _| cases.f32_unit());
        let mut c1 = c0.clone();
        BlisGemm::new(blocking)
            .with_kernel(exo_kernel(Arc::clone(&kernel)))
            .gemm(GemmProblem::new(a.view(), b.view(), c1.view_mut()))
            .unwrap();
        for threads in [2usize, 4, 7] {
            let mut cn = c0.clone();
            BlisGemm::new(blocking)
                .with_kernel(exo_kernel(Arc::clone(&kernel)))
                .with_threads(threads)
                .gemm(GemmProblem::new(a.view(), b.view(), cn.view_mut()))
                .unwrap();
            assert_eq!(c1.data, cn.data, "{m}x{n}x{k} with {threads} threads");
        }
    }
}

/// Wide-and-short problems are partitioned by `nc` column blocks instead
/// of `mc` row blocks; across fringe-heavy shapes, every backend tier, and 1–7
/// threads the split must stay bit-identical to that tier's sequential
/// run and match the naive reference.
#[test]
fn jc_split_is_bit_identical_across_backends_and_thread_counts() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let kernel = Arc::new(generator.generate(8, 12).unwrap());
    let mut cases = Cases::new(0x1c0f);
    // Single ic block (m <= mc) with many nc-wide jc blocks, including a
    // fringe column block and a fringe row range.
    let blocking = BlockingParams { mc: 32, kc: 16, nc: 24, mr: 8, nr: 12 };
    for &(m, n, k) in &[(8usize, 200usize, 33usize), (13, 100, 9), (5, 49, 17)] {
        let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit());
        let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
        let c0 = Matrix::from_fn(m, n, |_, _| cases.f32_unit());
        for (label, kimpl) in [
            ("simd", exo_kernel(Arc::clone(&kernel))),
            ("superword", exo_kernel_superword(Arc::clone(&kernel))),
            ("tape", exo_kernel_tape(Arc::clone(&kernel))),
        ] {
            let mut c_seq = c0.clone();
            let driver = BlisGemm::new(blocking).with_kernel(kimpl);
            driver.gemm(GemmProblem::new(a.view(), b.view(), c_seq.view_mut())).unwrap();
            for threads in [2usize, 4, 7] {
                let mut c_par = c0.clone();
                driver
                    .clone()
                    .with_threads(threads)
                    .gemm(GemmProblem::new(a.view(), b.view(), c_par.view_mut()))
                    .unwrap();
                assert_eq!(
                    c_seq.data, c_par.data,
                    "{m}x{n}x{k} jc split, {threads} threads, {label} backend"
                );
            }
            let mut c_ref = c0.clone();
            naive_gemm(&a, &b, &mut c_ref);
            for idx in 0..c_seq.data.len() {
                assert!((c_seq.data[idx] - c_ref.data[idx]).abs() < 1e-3, "{m}x{n}x{k} at {idx} ({label})");
            }
        }
    }
}

/// The ISA axis of the differential suite: for every registry shape and
/// every vector ISA the host can run, the chain compiled *for that ISA*
/// (via `SimdKernel::compile_for`, independent of the `EXO_ISA` pin) must
/// compute the reference interpreter's bits.
#[test]
fn every_available_isa_matches_superword_across_registry_shapes() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let mut cases = Cases::new(0x15a5);
    let isas: Vec<IsaKind> = IsaKind::ALL.iter().copied().filter(|isa| isa.available()).collect();
    assert!(isas.contains(&IsaKind::Scalar), "the scalar reference is available on every host");
    for (mr, nr) in KernelSet::paper_shapes() {
        let kernel = generator.generate(mr, nr).unwrap();
        let sw = &kernel.superword;
        for &isa in &isas {
            let chain = SimdKernel::compile_for(Arc::clone(sw), isa)
                .unwrap_or_else(|| panic!("{mr}x{nr}: {isa} is available but declined the chain"));
            assert_eq!(chain.isa(), isa);
            for kc in [0usize, 1, 2, 17, 64] {
                let (a, b, c0) = packed_operands(mr, nr, kc, &mut cases);
                let mut c_chain = c0.clone();
                chain.run_packed(kc, &a, &b, &mut c_chain).unwrap();
                let want = interpret(&kernel.proc, kc, &a, &b, &c0);
                assert_eq!(c_chain, want, "{mr}x{nr} kc={kc}: {isa} vs the interpreter");
            }
        }
    }
}

/// Every tile a serving space admits keeps its register tile in whole
/// vectors of the ISA that space executes on: each accumulator is loaded,
/// accumulated and stored at one width and one offset, which is what lets
/// `cc -O3` promote the emitted `reg[]` array to machine registers (a
/// half-width or straddling prologue load spills the accumulators every
/// `k` iteration). The lowering is host-independent, so every ISA's
/// serving space — AVX-512's from its own library — is checked on every
/// host.
#[test]
fn admitted_tiles_keep_every_accumulator_in_whole_vectors_of_the_executing_isa() {
    for isa in IsaKind::ALL {
        let space = DesignSpace::serving(isa);
        let generator = MicroKernelGenerator::new(space.isa().clone());
        let tiles = space.tile_shapes();
        assert!(!tiles.is_empty(), "{isa}: the serving space admits tiles");
        // The `C`-tile moves of the ISA's widest shape and of the narrower
        // ones, as the emitted C spells them: the tile moves in the widest
        // (which keeps the spellings below live) and never in a narrower one.
        let (widest, narrower): (&[&str], &[&str]) = match isa {
            IsaKind::Avx512 => (
                &["exo_load16(&C[", "exo_store16(&C["],
                &["exo_load8(&C[", "exo_store8(&C[", "exo_load4(&C[", "exo_store4(&C["],
            ),
            IsaKind::Avx2 => (&["exo_load8(&C[", "exo_store8(&C["], &["exo_load4(&C[", "exo_store4(&C["]),
            IsaKind::Neon | IsaKind::Scalar => (&[], &[]),
        };
        for tile in tiles {
            let kernel = generator.generate(tile.mr, tile.nr).unwrap();
            assert_eq!(
                kernel.superword.split_accumulator_groups(isa.lanes()),
                0,
                "{}x{} on {isa}: accumulator groups touched partially, at another width, or across a boundary",
                tile.mr,
                tile.nr
            );
            // The same property in the text `cc` sees.
            let c = emit_superword_c(&kernel.superword, isa, "k").unwrap();
            for op in widest {
                assert!(c.contains(op), "{}x{} on {isa}: no {op}:\n{c}", tile.mr, tile.nr);
            }
            for op in narrower {
                assert!(
                    !c.contains(op),
                    "{}x{} on {isa}: a narrower move of the C tile, {op}:\n{c}",
                    tile.mr,
                    tile.nr
                );
            }
        }
    }
}

/// Every serving tile taller than one row — lane-indexed (the Neon
/// library's laneq tiles) or broadcast-B (AVX-512's 16x16) — runs its `k`
/// loop as one fused closure on the chain: operand stage loads and the
/// whole accumulator tile behind a single indirect call per iteration,
/// whatever the tile's height is in vectors of the executing ISA. This is
/// the tier a build without a C compiler serves on. The chain compiler is host-independent up to the impl it is
/// monomorphised for, so every ISA this host can run compiles its own
/// serving tiles and AVX-512's.
#[test]
fn every_lane_indexed_serving_tile_fuses_its_k_loop_on_the_chain() {
    for isa in IsaKind::ALL.into_iter().filter(|isa| isa.available()) {
        let mut spaces = vec![DesignSpace::serving(isa)];
        if isa != IsaKind::Avx512 {
            spaces.push(DesignSpace::serving(IsaKind::Avx512));
        }
        for space in spaces {
            let generator = MicroKernelGenerator::new(space.isa().clone());
            for tile in space.tile_shapes() {
                if tile.mr == 1 {
                    continue; // row kernels broadcast `A` once per `k`: one op, nothing to fuse
                }
                let label = format!("{} {}x{} on {isa}", space.isa().name, tile.mr, tile.nr);
                let kernel = generator.generate(tile.mr, tile.nr).unwrap();
                let chain = SimdKernel::compile_for(Arc::clone(&kernel.superword), isa).unwrap();
                assert!(chain.fused_tile_count() >= 1, "{label}: no fused accumulator tile: {chain:?}");
                // C in (zeroing, load), one zeroing per staged operand (`A`
                // and `B` for laneq, `A` for broadcast-B), the `k` loop's
                // single node, C out: nothing left unfused inside the loop.
                let staged = if tile.strategy == Strategy::Laneq { 2 } else { 1 };
                assert_eq!(chain.step_count(), 4 + staged, "{label}: {chain:?}");
            }
        }
    }
}

/// The emitted C of every tile the NEON-described space admits (18) plus
/// one unvectorised scalar-strategy tile, whose scalar leftovers carry
/// constant and general addresses, on every ISA: one content hash per ISA,
/// keyed by its name, over the concatenated emissions. The native tier
/// compiles this text, so a moved constant moves the machine code; and the
/// NEON spelling cannot be compiled on an x86 host, so its bytes are the
/// offline proof it did not move.
///
/// The `avx2` hash was re-recorded when register-file copies stopped
/// covering part of an accumulator group. That moved the tiles whose
/// accumulators are narrower than 8 lanes or not a whole number of them —
/// 4x24, 4x20, 4x16, 4x12, 4x8, 4x4, 12x8 and 12x4 — none of which the
/// AVX2 serving space admits (those are held per tile below).
///
/// All four were re-recorded when every tier took one fused semantics:
/// the scalar floor's lanes became `fmaf` calls (in a function with an
/// FMA clone for x86_64), and the scalar-strategy 3x5 tile, the one kernel
/// here that reduces into memory, prints that reduce as a fused
/// multiply-add on every ISA. No vector ISA's tile of the space moved.
#[test]
fn the_emitted_c_of_every_isa_is_byte_stable() {
    use exo_gemm::exo_aot::content_hash;
    use exo_gemm::ukernel_gen::KernelOptions;
    let golden: [(&str, u64); 4] = [
        ("avx512", 0x8afc_eb93_91a1_4862),
        ("avx2", 0x5a97_4bef_fdbd_4604),
        ("neon", 0x84c8_ee55_54c4_fba1),
        ("scalar", 0x04e1_c97c_0ba7_296e),
    ];
    assert_eq!(golden.map(|(name, _)| name), IsaKind::ALL.map(IsaKind::name), "one hash per ISA");
    let generator = MicroKernelGenerator::new(neon_f32());
    let mut kernels: Vec<_> = DesignSpace::for_isa(neon_f32())
        .tile_shapes()
        .into_iter()
        .map(|tile| generator.generate(tile.mr, tile.nr).unwrap())
        .collect();
    let scalar = KernelOptions { strategy: Some(Strategy::Scalar), ..KernelOptions::new(3, 5) };
    kernels.push(generator.generate_with(&scalar).unwrap());
    assert_eq!(kernels.len(), 19);
    for (name, want) in golden {
        let isa = IsaKind::parse(name).unwrap();
        let emitted: Vec<String> =
            kernels.iter().map(|k| emit_superword_c(&k.superword, isa, "exo_aot_kernel").unwrap()).collect();
        let got = content_hash(emitted.concat().as_bytes());
        if got != want {
            for (k, c) in kernels.iter().zip(&emitted) {
                eprintln!("{}x{} {} on {isa}: {:#018x}", k.mr, k.nr, k.strategy, content_hash(c.as_bytes()));
            }
            panic!("the emitted C on {isa} moved: {got:#018x}, recorded {want:#018x}");
        }
    }
}

/// The AVX2 serving space, tile by tile: each tile emits the very C whose
/// hash is recorded below (recorded when the x86 helpers replaced
/// `<immintrin.h>`); and on AVX-512 a tile whose
/// accumulators are 8 lanes wide emits the same function body — its 8-lane
/// accumulators are never moved as halves of a 16-lane vector — while a
/// wider accumulator is held in 16-lane vectors.
#[test]
fn every_avx2_serving_tile_emits_the_c_it_did_and_the_same_body_on_avx512() {
    use exo_gemm::exo_aot::content_hash;
    let recorded: [((usize, usize), u64); 7] = [
        ((8, 12), 0x7e44_1a49_079f_c62e),
        ((8, 8), 0x943f_8ad1_8cd8_5d41),
        ((16, 4), 0x76f8_2803_cfab_b68d),
        ((8, 4), 0x6f26_31c6_63d6_4e28),
        ((1, 24), 0xe92d_0e55_3ac8_ed1e),
        ((1, 16), 0x05fb_e7d1_4d40_5b6a),
        ((1, 8), 0x6387_1782_0ee3_bcb2),
    ];
    let tiles: Vec<(usize, usize)> =
        DesignSpace::serving(IsaKind::Avx2).tile_shapes().iter().map(|t| (t.mr, t.nr)).collect();
    assert_eq!(tiles, recorded.map(|(tile, _)| tile));
    let body = |c: &str| c[c.find("\nvoid ").expect("one kernel function")..].to_string();
    let generator = MicroKernelGenerator::new(neon_f32());
    for ((mr, nr), want) in recorded {
        let sw = generator.generate(mr, nr).unwrap().superword;
        let avx2 = emit_superword_c(&sw, IsaKind::Avx2, "exo_aot_kernel").unwrap();
        assert_eq!(content_hash(avx2.as_bytes()), want, "{mr}x{nr} on avx2 moved:\n{avx2}");
        let avx512 = emit_superword_c(&sw, IsaKind::Avx512, "exo_aot_kernel").unwrap();
        // A laneq tile accumulates `mr`-lane columns, a single-row tile
        // its whole `nr`-lane row.
        let accumulator = if mr == 1 { nr } else { mr };
        if accumulator <= 8 {
            assert_eq!(body(&avx512), body(&avx2), "{mr}x{nr}: the avx512 body");
        } else {
            assert!(
                avx512.contains("exo_fma16(exo_load16(&reg["),
                "{mr}x{nr}: {accumulator}-lane accumulators:\n{avx512}"
            );
        }
    }
}

/// The build compiled a body for every tile this process can serve, and
/// resolving one is a lookup and a probe, not a build. Under the default
/// ISA, `EXO_ISA=avx2` and `EXO_ISA=scalar` (CI runs all three), every
/// tile of the active ISA's serving space and Neon's 8x12, 12x8 and 4x24
/// have their native kernel on the first `native()` call, built for the
/// active ISA. A tile outside the admitted spaces — the scalar-strategy
/// 3x5 — misses: `native()` answers `None`, the engine counts the miss, and
/// its driver, asked for the native tier, runs the simd chain's bits. On a
/// build that found no C compiler every tile misses the same way.
#[test]
fn every_serving_tile_resolves_native_on_the_first_call_and_an_odd_tile_misses() {
    use exo_gemm::exo_aot::engine;
    use exo_gemm::ukernel_gen::KernelOptions;
    let isa = active_isa();
    let space = DesignSpace::serving(isa);
    let serving = MicroKernelGenerator::new(space.isa().clone());
    let neon = MicroKernelGenerator::new(neon_f32());
    let mut kernels: Vec<_> =
        space.tile_shapes().iter().map(|t| serving.generate(t.mr, t.nr).unwrap()).collect();
    kernels.extend([(8, 12), (12, 8), (4, 24)].map(|(mr, nr)| neon.generate(mr, nr).unwrap()));
    for kernel in &kernels {
        let label = format!("{} {}x{} on {isa}", kernel.isa_name, kernel.mr, kernel.nr);
        match kernel.native() {
            Some(native) => assert_eq!(native.isa(), isa, "{label}"),
            None => assert!(!native_available(), "{label}: the table has {isa} bodies, but not this one"),
        }
    }

    let odd =
        neon.generate_with(&KernelOptions { strategy: Some(Strategy::Scalar), ..KernelOptions::new(3, 5) });
    let odd = Arc::new(odd.unwrap());
    let misses = engine().stats().misses;
    assert!(odd.native().is_none(), "no admitted space holds the 3x5, so the table has no body for it");
    assert!(engine().stats().misses > misses, "the miss is counted");
    let mut cases = Cases::new(0x3c5);
    let (m, n, k) = (7, 11, 13);
    let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit());
    let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
    let c0 = Matrix::from_fn(m, n, |_, _| cases.f32_unit());
    let blocking = BlockingParams { mc: 6, kc: 8, nc: 10, mr: 3, nr: 5 };
    let run = |kimpl| {
        let mut c = c0.clone();
        let stats = BlisGemm::new(blocking)
            .with_kernel(kimpl)
            .gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()))
            .unwrap();
        (c.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), stats.tier)
    };
    let (native_bits, tier) = run(exo_kernel(Arc::clone(&odd)));
    assert_eq!(tier, Some(ExecBackend::Simd), "a miss serves on the simd chain");
    assert_eq!(native_bits, run(exo_kernel_simd(Arc::clone(&odd))).0, "with the simd chain's bits");
}

/// A canary for the helpers the x86 preludes define in place of
/// `<immintrin.h>`: the emitted C of every serving tile of both x86 rows
/// (which includes `square`'s Neon 8x12), under both x86 rows, compiles on
/// the C compiler the build used with `-Wall -Wextra -Werror` and the
/// row's flags. It compiles only, so an AVX2-only host checks the AVX-512
/// row too; when that compiler does not answer here (a build without one,
/// a run without it on `PATH`), or off x86_64, it skips and says why.
#[test]
fn every_x86_serving_tile_emits_c_that_compiles_without_a_warning() {
    let answers =
        |cc: &str| std::process::Command::new(cc).arg("--version").output().is_ok_and(|o| o.status.success());
    let Some(tc) = toolchain().filter(|tc| cfg!(target_arch = "x86_64") && answers(&tc.cc)) else {
        eprintln!("skipped: no x86_64 C compiler answers here, so no emitted C can be compiled");
        return;
    };
    let x86 = [IsaKind::Avx512, IsaKind::Avx2];
    let mut kernels = Vec::new();
    for space in x86.map(DesignSpace::serving) {
        let generator = MicroKernelGenerator::new(space.isa().clone());
        for tile in space.tile_shapes() {
            let label = format!("{} {}x{}", space.isa().name, tile.mr, tile.nr);
            kernels.push((label, generator.generate(tile.mr, tile.nr).unwrap().superword));
        }
    }
    assert!(kernels.iter().any(|(label, _)| label == "neon-f32 8x12"), "square's kernel is a serving tile");
    let dir = std::env::temp_dir().join(format!("exo-emitted-c-warnings-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut failures = Vec::new();
    for (label, sw) in &kernels {
        for isa in x86 {
            let src = dir.join("kernel.c");
            std::fs::write(&src, emit_superword_c(sw, isa, "exo_aot_kernel").unwrap()).unwrap();
            let out = std::process::Command::new(&tc.cc)
                .args(["-O3", "-fPIC", "-ffp-contract=off", "-Wall", "-Wextra", "-Werror", "-c"])
                .args(isa.cc_flags())
                .arg(&src)
                .arg("-o")
                .arg(dir.join("kernel.o"))
                .output()
                .unwrap();
            if !out.status.success() {
                failures.push(format!("{label} on {isa}:\n{}", String::from_utf8_lossy(&out.stderr)));
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// No GEMM in this tree reaches the checked reference: the exact-shape call
/// `TierDispatch::run` admits (`Ac[kc*mr]`, `Bc[kc*nr]`, `C[mr*nr]`)
/// passes the interval proof for every tile of the whole space at every
/// `kc`, empty and single-iteration loops included — so what a declined
/// proof costs (the tape allocates its register file per run) is paid by
/// misuse only. And the reference is the very tape the kernel carries.
#[test]
fn every_exact_shape_call_is_provable_so_no_gemm_reaches_the_checked_tape() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let tiles = DesignSpace::for_isa(neon_f32()).tile_shapes();
    assert_eq!(tiles.len(), 18);
    for tile in tiles {
        let (mr, nr) = (tile.mr, tile.nr);
        let kernel = generator.generate(mr, nr).unwrap();
        assert!(Arc::ptr_eq(&kernel.tape, kernel.superword.tape()), "{mr}x{nr}: one tape, not a copy");
        for kc in [0usize, 1, 17, 256, 512] {
            assert!(
                kernel.superword.packed_bounds_provable(kc, kc * mr, kc * nr, mr * nr),
                "{mr}x{nr} kc={kc}: the exact-shape call must be provable"
            );
        }
    }
}

/// The fringe axis: a staged kernel whose lane runs (6 and 3) are *not*
/// multiples of any native vector width, so no chain may fuse them into a
/// tile and each finishes its runs below its widest shape (one whole
/// `float32x4_t` / `__m128` plus two fused scalar lanes per 6-lane run).
/// Every available ISA must still compute the interpreter's bits.
#[test]
fn fringe_lane_runs_finish_in_narrower_shapes_and_scalar_lanes_on_every_isa() {
    use exo_gemm::exo_ir::builder::*;
    use exo_gemm::exo_ir::{Expr, MemSpace, ScalarType};

    let (mr, nr) = (6i64, 3i64);
    let p = proc("ukr_6x3_staged")
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
    let sw = Arc::new(exo_gemm::exo_codegen::compile(&p).unwrap().to_superword().unwrap());
    assert!(sw.vector_op_count() > 0, "the 6-lane staged tiles must pack whole-vector ops");
    let (mr, nr) = (mr as usize, nr as usize);
    let mut cases = Cases::new(0xf41e);
    for isa in IsaKind::ALL.iter().copied().filter(|isa| isa.available()) {
        let chain = SimdKernel::compile_for(Arc::clone(&sw), isa)
            .unwrap_or_else(|| panic!("{isa} declined the fringe kernel"));
        for kc in [0usize, 1, 2, 17, 64] {
            let (a, b, c0) = packed_operands(mr, nr, kc, &mut cases);
            let mut c_chain = c0.clone();
            chain.run_packed(kc, &a, &b, &mut c_chain).unwrap();
            let want = interpret(&p, kc, &a, &b, &c0);
            assert_eq!(c_chain, want, "fringe {mr}x{nr} kc={kc}: {isa} vs the interpreter");
        }
    }
}

/// The reported-ISA probe the cross-target CI matrix asserts against: the
/// runtime selection must actually pick the widest ISA the host can run
/// (NEON under the aarch64/QEMU job, AVX-512 or AVX2 on the x86 runners)
/// unless `EXO_ISA` pins one — and a pinned run must report exactly the
/// pin.
/// `simd_available()` means "a native ISA was selected", so the
/// forced-scalar leg reports `false` even on AVX2 hosts.
#[test]
fn the_active_isa_is_the_native_one_unless_pinned() {
    let active = active_isa();
    assert!(active.available());
    assert_eq!(exo_gemm::gemm_blis::simd_available(), active != IsaKind::Scalar);
    match exo_gemm::gemm_blis::env_isa_override() {
        Some(pinned) => assert_eq!(active, pinned, "EXO_ISA pin must win the selection"),
        None => {
            #[cfg(target_arch = "aarch64")]
            assert_eq!(active, IsaKind::Neon, "NEON is baseline on aarch64 and must be selected");
            let widest = IsaKind::ALL.into_iter().find(|isa| isa.available()).unwrap();
            assert_eq!(active, widest, "an unpinned run selects the widest ISA the host can run");
        }
    }
    // The generator's chains report the same selection.
    let kernel = MicroKernelGenerator::new(neon_f32()).generate(4, 4).unwrap();
    assert_eq!(kernel.simd.isa(), active);
}

/// The native-tier probe the CI toolchain legs assert against. With a C
/// compiler at build time (the ordinary runners — whether or not one is on
/// `PATH` when the tests run), the registry kernel must have a body that
/// resolves, loads and targets the active ISA — the tier being "available
/// but silently declined" would hide a real regression. With none
/// (`EXO_CC=/nonexistent/cc` for the build on the poisoned leg, or a
/// genuinely bare build host), the tier must vanish without a single error
/// surfacing: `native_available()` is false, no body exists, and the
/// Native entry points still answer — running the simd chain, bit for bit.
#[test]
fn the_native_tier_follows_the_toolchain_probe_and_never_errors() {
    assert_eq!(ExecBackend::default(), ExecBackend::Native, "Native is the top of the default ladder");
    assert_eq!(ExecBackend::Native.degraded(), Some(ExecBackend::Simd), "and degrades onto simd");
    let kernel = Arc::new(MicroKernelGenerator::new(neon_f32()).generate(8, 12).unwrap());
    match toolchain() {
        Some(tc) => {
            assert!(native_available());
            assert!(!tc.cc.is_empty() && !tc.version.is_empty(), "the probe records cc and version");
            let native = kernel.native().unwrap_or_else(|| {
                panic!("the build compiled with `{}` but holds no body for the 8x12 kernel", tc.cc)
            });
            assert_eq!(native.isa(), active_isa(), "the body targets the active ISA");
        }
        None => {
            assert!(!native_available());
            assert!(kernel.native().is_none(), "no compiler at build time, no body — and no error either");
        }
    }
    // Both probe branches continue here: the packed entry point and the
    // full driver under an explicit `Native` pin answer identically to
    // the simd chain, so a build without a compiler is invisible except in
    // speed.
    let mut cases = Cases::new(0xaa07);
    for kc in [0usize, 1, 7, 33] {
        let (a, b, c0) = packed_operands(8, 12, kc, &mut cases);
        let mut c_native = c0.clone();
        kernel.dispatcher(ExecBackend::Native).run(kc, &a, &b, &mut c_native).unwrap();
        let mut c_simd = c0.clone();
        kernel.simd.run_packed(kc, &a, &b, &mut c_simd).unwrap();
        assert_eq!(c_native, c_simd, "kc={kc}: native entry point vs simd chain");
    }
    let blocking = BlockingParams { mc: 16, kc: 8, nc: 24, mr: 8, nr: 12 };
    for &(m, n, k) in &[(37usize, 29usize, 23usize), (8, 60, 9)] {
        let a = Matrix::from_fn(m, k, |_, _| cases.f32_unit());
        let b = Matrix::from_fn(k, n, |_, _| cases.f32_unit());
        let c0 = Matrix::from_fn(m, n, |_, _| cases.f32_unit());
        let mut c_native = c0.clone();
        BlisGemm::new(blocking)
            .with_kernel(exo_kernel(Arc::clone(&kernel)).with_backend(ExecBackend::Native))
            .gemm(GemmProblem::new(a.view(), b.view(), c_native.view_mut()))
            .unwrap();
        let mut c_simd = c0.clone();
        BlisGemm::new(blocking)
            .with_kernel(exo_kernel_simd(Arc::clone(&kernel)))
            .gemm(GemmProblem::new(a.view(), b.view(), c_simd.view_mut()))
            .unwrap();
        assert_eq!(c_native.data, c_simd.data, "{m}x{n}x{k}: Native pin vs simd pin through the driver");
    }
}
