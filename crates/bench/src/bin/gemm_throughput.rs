//! The perf gates measured outside `exo_bench`: ten comparisons of two
//! things timed in one run. Nothing here is compared with a recorded
//! number and nothing is written — every absolute figure (GFLOPS, latency,
//! per-layer shares, normalised to a calibration burst and run
//! parent-against-change) is `exo_bench`'s, declared in `BENCHMARK.json`.
//! Every GEMM series runs through the one five-loop driver on one thread,
//! the generated 8x12 kernel's in gates 1 to 5, the serving verdict's from
//! gate 6 on.
//!
//! 1. **Tier ordering**, at `m = n = k` of 128 and 256: `superword <
//!    native` must hold strictly at both sizes — the native tier measuring
//!    slower than its own fallback means the fast path regressed below the
//!    slow one. `superword` is the safe interpreter of the superword
//!    lowering (the same on every ISA, and the floor of the ladder),
//!    `native` the body compiled for the active ISA when the workspace was
//!    built. The gate compares a series with itself on some builds and is
//!    skipped there: when the build compiled no bodies for the active ISA
//!    (`!native_available()`: the native series *is* the interpreter).
//! 2. **`solo`** — the paper's Fig. 13 on the host: the 8x12 promoted for
//!    AVX2, called through its proved dispatch handle, against the same
//!    update written by hand with AVX2/FMA intrinsics, both on L1-resident
//!    packed panels of the analytical blocking's `kc`. The generated kernel
//!    must reach [`SOLO_FLOOR`] of the hand-written one. Skipped on a host
//!    without AVX2 or a build without a C compiler.
//! 3. **`solo512`** — the paper's Section III-C on the host: the 16x16
//!    broadcast-B kernel generated from the `avx512_f32` library and
//!    promoted for AVX-512, against the Neon 8x12 promoted for AVX2 (the
//!    kernel an AVX-512 host would serve without its own library), both at
//!    [`SOLO512_KC`]. The AVX-512 kernel's rate must reach
//!    [`SOLO512_FLOOR`] of the 8x12's. Skipped on a host without AVX-512
//!    or a build without a C compiler.
//! 4. **`movers`** — the strided mover, resolved once per side
//!    (`exo_codegen::simd::Mover`), packing the analytical `mc x kc` block
//!    of `A` into `mr`-row panels in one call, and staging an `mr x nr`
//!    tile of a row-major `C` into the kernel's column-major scratch and
//!    back, each on the AVX2 body (which AVX-512 runs too) against the
//!    scalar body. Both must reach [`MOVERS_FLOOR`]; skipped on a host
//!    without AVX2.
//! 5. **Parity** of the operand layouts the packers absorb: `native` over
//!    strided views (padded leading dimensions on `A`, `B` and `C`) and
//!    with `op(B) = T` (`B` stored `n x k`), each against `native` over
//!    dense operands. Both must reach [`PARITY_FLOOR`] of the dense rate.
//! 6. **`placement`** — where the caller's operands start must not matter:
//!    the serving verdict's driver (`TunedGemm`'s, the 16x16 on an AVX-512
//!    host) on a dense [`PLACEMENT_SIZE`]-cubed GEMM with `A`, `B` and `C`
//!    each 16 bytes past a 64-byte boundary, against the same GEMM with all
//!    three on one. The driver's own buffers are aligned and the mover keeps
//!    its stores into `C` inside cache lines, so only the caller's layout
//!    is left to differ. Must reach [`PLACEMENT_FLOOR`]; skipped on a host
//!    without AVX2.
//! 7. **`host_blocking`** — the serving blocking is sized for the caches of
//!    the machine that runs it: the serving verdict's driver
//!    (`BlockingParams::for_host` on this host's probed caches) against the
//!    same kernel on `BlockingParams::analytical` of Carmel's caches, on
//!    each of [`HOST_BLOCKING_SHAPES`], one GEMM a burst. Each must reach
//!    [`HOST_BLOCKING_FLOOR`]; skipped on a host without AVX2, where the
//!    floor has never been measured.
//! 8. **`pack_b_in_situ`** — packing `B` inside the call must not cost an
//!    `m = 49` layer half its time: the serving verdict's driver on
//!    [`PACK_B_IN_SITU_SHAPE`] packing `B` block by block, against the same
//!    driver reading an image of `B` packed once ahead, one GEMM a burst.
//!    Must reach [`PACK_B_IN_SITU_FLOOR`]; skipped when the verdict's `B`
//!    blocks keep the panel walk (`gemm_blis::packing::source_order`: panel
//!    rows that are not whole cache lines, as on AVX2, NEON and scalar
//!    tiles), where the floor has never been measured.
//! 9. **`serve_pass`** — what the queued front door adds to a small GEMM on
//!    an idle service: a lone `GemmService::submit` + `wait` of each of
//!    `exo_bench`'s eight `serve_small` shapes ([`SERVE_SHAPES`]), against
//!    the serving verdict's `TunedGemm::gemm` of the same operands. Must
//!    reach [`SERVE_PASS_FLOOR`]; never skipped.
//! 10. **`small_gemm`** — what a small GEMM pays around its micro-kernel:
//!     the serving verdict's warm `TunedGemm::gemm` of each
//!     [`SERVE_SHAPES`] shape against the kernel calls alone it makes, on
//!     panels packed once ahead. Must reach [`SMALL_GEMM_FLOOR`]; never
//!     skipped.
//!
//! Gates 2 to 10 run their two sides in alternating short bursts and judge
//! the median of the per-pair ratios ([`alternate`]), so drift of a shared
//! host cancels instead of landing on one side. The exit status is 1 if
//! any gate fails; a skipped gate prints its reason.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use exo_codegen::simd::Mover;
use exo_codegen::SimdKernel;
use exo_serve::{CachedTunedGemm, CompletedJob, GemmJob, GemmService, OwnedMat};
use exo_tune::TunedGemm;
use gemm_blis::{
    active_isa, exo_kernel, exo_kernel_superword, native_available, pack_a_into, pack_b_into, toolchain,
    BlisGemm, BlockingParams, GemmExecutor, GemmProblem, HostDescription, IsaKind, KernelImpl, MatMut,
    MatRef, PackedB,
};
use ukernel_gen::{GeneratedKernel, MicroKernelGenerator, TierDispatch};

/// Problem sizes of the ordering gate: large enough that both tiers run
/// their steady-state loop, small enough for the interpreter.
const SIZES: [usize; 2] = [128, 256];

/// Lowest `solo` ratio (generated over hand-written 8x12 rate) accepted. A
/// kernel that spills its accumulators every `k` iteration reads ~0.7 here
/// and one that keeps them in registers ~1.0.
const SOLO_FLOOR: f64 = 0.85;
/// Kernel calls per `solo` burst (~0.1 ms at `kc` = 400).
const SOLO_BURST: usize = 128;
/// Alternating burst pairs per `solo` measurement.
const SOLO_PAIRS: usize = 200;

/// Lowest `solo512` ratio (the AVX-512 16x16's rate over the AVX2 8x12's)
/// accepted: the margin by which the 512-bit kernel must win for an
/// AVX-512 host to be served from its own library (~2.0 measured).
const SOLO512_FLOOR: f64 = 1.3;
/// `kc` of both `solo512` kernels: a 16x16 panel pair stays L1-resident.
const SOLO512_KC: usize = 256;

/// Lowest `movers` ratio (active ISA's mover over the scalar one) accepted
/// on AVX2, for packing `A` and for the `C`-tile round trip alike (~2.3 and
/// ~3.5 measured).
const MOVERS_FLOOR: f64 = 1.5;
/// Alternating burst pairs per `movers` measurement.
const MOVERS_PAIRS: usize = 60;
/// Rows and leading dimension of the row-major `C` the `movers` block
/// stages tiles of: L2-resident, and rows that do not alias in L1.
const MOVERS_C: (usize, usize) = (64, 960);

/// Lowest parity ratio (strided or `op(B) = T` rate over the dense rate)
/// accepted; 0.89–1.07 measured over 256–1024.
const PARITY_FLOOR: f64 = 0.75;
/// Problem size of the parity gate.
const PARITY_SIZE: usize = 256;
/// Alternating GEMM pairs per parity measurement.
const PARITY_PAIRS: usize = 30;

/// Lowest `placement` ratio (the rate with every operand 16 bytes past a
/// cache line over the rate with every one on a line) accepted: 0.96–0.98
/// measured, the rest being `C` lines that neighbouring tiles share.
const PLACEMENT_FLOOR: f64 = 0.95;
/// Problem size of the placement gate.
const PLACEMENT_SIZE: usize = 512;
/// Alternating GEMM pairs per placement measurement.
const PLACEMENT_PAIRS: usize = 40;

/// Lowest `host_blocking` ratio (the verdict's driver on the host blocking
/// over the same kernel on Carmel's analytical blocking) accepted.
const HOST_BLOCKING_FLOOR: f64 = 0.95;
/// The `host_blocking` shapes: two VGG-16 layers (ResNet-50's 3x3 stages
/// share their `n` and `k`), tall and square-ish.
const HOST_BLOCKING_SHAPES: [(usize, usize, usize); 2] = [(3136, 256, 1152), (784, 512, 2304)];
/// Alternating GEMM pairs per `host_blocking` shape.
const HOST_BLOCKING_PAIRS: usize = 15;

/// Lowest `pack_b_in_situ` ratio (the rate packing `B` in the call over
/// the rate reading a prepacked image) accepted: ~0.5 with the panel walk,
/// ~0.74 in source order.
const PACK_B_IN_SITU_FLOOR: f64 = 0.6;
/// The `pack_b_in_situ` shape: ResNet-50's `m = 49` layer with the largest
/// `B`.
const PACK_B_IN_SITU_SHAPE: (usize, usize, usize) = (49, 512, 4608);
/// Alternating GEMM pairs of the `pack_b_in_situ` gate.
const PACK_B_IN_SITU_PAIRS: usize = 30;

/// Lowest `serve_pass` ratio (a lone `submit` + `wait`'s rate over the
/// per-call `TunedGemm::gemm`'s on the same jobs) accepted: 0.73-0.82
/// measured over 12 runs on a 2-vCPU AVX-512 Xeon since a lone job's answer
/// rides back in its handle, 0.68-0.73 when it took a completion slot and a
/// pass vector, and 0.54-0.56 when it ran through a `gemm_batch` of one.
const SERVE_PASS_FLOOR: f64 = 0.62;
/// The eight tiny mixed shapes of `exo_bench`'s `serve_small` workload.
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
/// Jobs of each shape in one `serve_pass` burst (~0.1-0.2 ms a burst).
const SERVE_PASS_ROUNDS: usize = 16;
/// Alternating burst pairs of the `serve_pass` gate.
const SERVE_PASS_PAIRS: usize = 200;

/// Lowest `small_gemm` ratio (the kernel calls alone over a warm
/// `TunedGemm::gemm` of the same shapes: the share of a small GEMM's time
/// its micro-kernel takes) accepted: 0.225-0.289 over 12 runs on a 2-vCPU
/// AVX-512 Xeon and 0.197 once while it ran at about half speed, against
/// 0.147-0.187 before the resolved mover, the one-lookup route and the
/// boxed runner; its A/A spread (both sides `TunedGemm::gemm`) is
/// 0.999-1.004.
const SMALL_GEMM_FLOOR: f64 = 0.18;
/// GEMMs of each shape in one `small_gemm` burst.
const SMALL_GEMM_ROUNDS: usize = 16;
/// Alternating burst pairs of the `small_gemm` gate.
const SMALL_GEMM_PAIRS: usize = 200;

/// How a measurement lays out and views its operands.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Dense row-major `A`, `B`, `C`.
    Dense,
    /// Dense buffers with a padded leading dimension on every operand: the
    /// views are strided sub-matrices of wider allocations.
    Strided,
    /// `B` stored `n x k` and passed through `op(B) = T`.
    TransposedB,
}

/// Extra columns a [`Mode::Strided`] allocation carries beyond the viewed
/// extent (a deliberately cache-unfriendly leading dimension).
const STRIDE_PAD: usize = 16;

/// Owned operand storage for one measurement, laid out per [`Mode`].
struct Operands {
    mode: Mode,
    size: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Operands {
    fn new(mode: Mode, size: usize) -> Self {
        let (m, n, k) = (size, size, size);
        let av = |i: usize, j: usize| ((i * 7 + j * 3 + 1) % 13) as f32 * 0.25 - 1.0;
        let bv = |i: usize, j: usize| ((i * 5 + j * 11 + 2) % 17) as f32 * 0.125 - 1.0;
        let fill = |rows: usize, cols: usize, ld: usize, f: &dyn Fn(usize, usize) -> f32| -> Vec<f32> {
            let mut v = vec![0.0f32; rows * ld];
            for i in 0..rows {
                for j in 0..cols {
                    v[i * ld + j] = f(i, j);
                }
            }
            v
        };
        let (a, b, c) = match mode {
            Mode::Dense => (fill(m, k, k, &av), fill(k, n, n, &bv), vec![0.0f32; m * n]),
            Mode::Strided => (
                fill(m, k, k + STRIDE_PAD, &av),
                fill(k, n, n + STRIDE_PAD, &bv),
                vec![0.0f32; m * (n + STRIDE_PAD)],
            ),
            // B^T stored n x k: element (j, i) of the buffer is B[i][j].
            Mode::TransposedB => (fill(m, k, k, &av), fill(n, k, k, &|j, i| bv(i, j)), vec![0.0f32; m * n]),
        };
        Operands { mode, size, a, b, c }
    }

    fn problem(&mut self) -> GemmProblem<'_> {
        let (m, n, k) = (self.size, self.size, self.size);
        match self.mode {
            Mode::Dense => GemmProblem::new(
                MatRef::from_slice(&self.a, m, k),
                MatRef::from_slice(&self.b, k, n),
                MatMut::from_slice(&mut self.c, m, n),
            ),
            Mode::Strided => GemmProblem::new(
                MatRef::with_strides(&self.a, m, k, k + STRIDE_PAD, 1),
                MatRef::with_strides(&self.b, k, n, n + STRIDE_PAD, 1),
                MatMut::with_strides(&mut self.c, m, n, n + STRIDE_PAD, 1),
            ),
            Mode::TransposedB => GemmProblem::new(
                MatRef::from_slice(&self.a, m, k),
                MatRef::from_slice(&self.b, n, k),
                MatMut::from_slice(&mut self.c, m, n),
            )
            .transpose_b(),
        }
    }
}

/// GFLOPS of a `size`-cubed GEMM over `secs` seconds.
fn gemm_gflops(size: usize, secs: f64) -> f64 {
    2.0 * (size as f64).powi(3) / secs / 1.0e9
}

/// Measures one tier at one size over dense operands, returning measured
/// GFLOPS (`2 m n k` useful flops per wall-clock second, best of `reps`
/// runs).
fn measure(driver: &BlisGemm, size: usize, reps: usize) -> f64 {
    let mut operands = Operands::new(Mode::Dense, size);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        operands.c.fill(0.0);
        let start = Instant::now();
        driver.gemm(operands.problem()).expect("gemm run");
        best = best.min(start.elapsed().as_secs_f64());
    }
    gemm_gflops(size, best)
}

/// The Fig. 13 reference: the 8x12 update written by hand with AVX2/FMA
/// intrinsics over the packed panels the generated kernel reads — load
/// `C`, `kc` rank-1 updates with each `B` element broadcast from the panel,
/// store `C`.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn hand_8x12_avx2(kc: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    use std::arch::x86_64::*;
    assert!(a.len() >= kc * 8 && b.len() >= kc * 12 && c.len() >= 96);
    let mut acc = [_mm256_setzero_ps(); 12];
    for (j, acc) in acc.iter_mut().enumerate() {
        let column = c[j * 8..].as_ptr();
        // SAFETY: `j < 12` and `c` holds at least 96 floats, so the 8 from
        // `column` are `c`'s.
        *acc = unsafe { _mm256_loadu_ps(column) };
    }
    for (a_col, b_row) in a.chunks_exact(8).zip(b.chunks_exact(12)).take(kc) {
        // SAFETY: `a_col` is a chunk of exactly 8 floats.
        let av = unsafe { _mm256_loadu_ps(a_col.as_ptr()) };
        for (acc, &bv) in acc.iter_mut().zip(b_row) {
            *acc = _mm256_fmadd_ps(av, _mm256_set1_ps(bv), *acc);
        }
    }
    for (j, acc) in acc.iter().enumerate() {
        let column = c[j * 8..].as_mut_ptr();
        // SAFETY: as for the loads above.
        unsafe { _mm256_storeu_ps(column, *acc) };
    }
}

/// Off x86_64 no CPU meets the contract above: `solo` declines on the
/// active ISA before it could reach this.
#[cfg(not(target_arch = "x86_64"))]
unsafe fn hand_8x12_avx2(_kc: usize, _a: &[f32], _b: &[f32], _c: &mut [f32]) {
    unreachable!("AVX2 is never the active ISA off x86_64")
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The two sides of an [`alternate`] measurement.
#[derive(Clone, Copy)]
enum Side {
    /// What the gate judges.
    Subject,
    /// What it is judged against.
    Reference,
}

/// What [`alternate`] measured.
struct Paired {
    /// Median seconds of one burst of the subject.
    subject_secs: f64,
    /// Median seconds of one burst of the reference.
    reference_secs: f64,
    /// Median over the pairs of `reference / subject` burst time: the
    /// subject's rate as a multiple of the reference's.
    ratio: f64,
}

/// Times `burst` on both sides, `pairs` pairs with the order swapped every
/// pair, after one warming burst each.
fn alternate(pairs: usize, mut burst: impl FnMut(Side)) -> Paired {
    alternate_prepared(pairs, |_| (), |side, ()| burst(side))
}

/// [`alternate`] over bursts that consume an input and leave an output:
/// `prepare` makes each burst's input before its clock starts, and the
/// output is dropped after the clock stops.
fn alternate_prepared<T, U>(
    pairs: usize,
    mut prepare: impl FnMut(Side) -> T,
    mut burst: impl FnMut(Side, T) -> U,
) -> Paired {
    let mut time = |side: Side| {
        let input = prepare(side);
        let start = Instant::now();
        let output = burst(side, input);
        let secs = start.elapsed().as_secs_f64();
        drop(output);
        secs
    };
    time(Side::Subject);
    time(Side::Reference);
    let (mut subject, mut reference, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let (s, r) = if pair % 2 == 0 {
            let s = time(Side::Subject);
            (s, time(Side::Reference))
        } else {
            let r = time(Side::Reference);
            (time(Side::Subject), r)
        };
        subject.push(s);
        reference.push(r);
        ratios.push(r / s);
    }
    Paired { subject_secs: median(subject), reference_secs: median(reference), ratio: median(ratios) }
}

/// A promoted native body and the register tile it updates.
struct Promoted {
    native: Arc<SimdKernel>,
    mr: usize,
    nr: usize,
}

/// `kernel`'s body for `isa` from the build-time table, promoted (verified
/// by the process-wide engine) whichever ISA this process selected, or why
/// it cannot be.
fn promoted(kernel: &GeneratedKernel, isa: IsaKind) -> Result<Promoted, String> {
    let (mr, nr) = (kernel.mr, kernel.nr);
    if !isa.available() {
        return Err(format!("this host cannot run `{isa}`"));
    }
    let native = exo_aot::engine()
        .compile(&kernel.superword, isa)
        .map_err(|e| format!("no promoted `{isa}` body of the {mr}x{nr} kernel: {e}"))?;
    Ok(Promoted { native, mr, nr })
}

/// Seeded packed operands of an `mr x nr` tile `kc` deep, and a zero `C`.
fn packed(mr: usize, nr: usize, kc: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let a = (0..kc * mr).map(|i| ((i * 7 + 1) % 13) as f32 * 0.25 - 1.0).collect();
    let b = (0..kc * nr).map(|i| ((i * 5 + 2) % 17) as f32 * 0.125 - 1.0).collect();
    (a, b, vec![0.0f32; mr * nr])
}

/// Measures the `solo` block — the generated 8x12 promoted for AVX2
/// (subject) against the hand-written one, [`SOLO_BURST`] back-to-back
/// `kc`-deep updates a burst.
fn solo(native: &Arc<SimdKernel>, kc: usize) -> Paired {
    let mut dispatch = TierDispatch::native(Arc::clone(native), 8, 12).expect("the 8x12's packed signature");
    let (a, b, mut c_exo) = packed(8, 12, kc);
    let mut c_hand = c_exo.clone();
    // The warming burst also pays the proof memo.
    let paired = alternate(SOLO_PAIRS, |side| {
        for _ in 0..SOLO_BURST {
            match side {
                Side::Subject => dispatch
                    .run(kc, black_box(&a), black_box(&b), &mut c_exo)
                    .expect("solo micro-kernel call"),
                // SAFETY: an AVX2 body was promoted only where
                // `IsaKind::Avx2.available()`: the CPU reports AVX2 and FMA.
                Side::Reference => unsafe { hand_8x12_avx2(kc, black_box(&a), black_box(&b), &mut c_hand) },
            }
        }
    });
    // Each lane is the same chain of fused multiply-adds in the same order
    // on both sides, burst for burst.
    assert_eq!(c_exo, c_hand, "the hand-written 8x12 and the generated one compute the same update");
    paired
}

/// Measures the `solo512` block — the AVX-512 16x16 (subject) against the
/// AVX2 8x12, [`SOLO_BURST`] back-to-back [`SOLO512_KC`]-deep updates a
/// burst each. Returns the pair and the ratio of their rates (the bursts
/// differ in flops by the tiles' areas).
fn solo512(subject: &Promoted, reference: &Promoted) -> (Paired, f64) {
    let setup = |p: &Promoted| {
        let dispatch = TierDispatch::native(Arc::clone(&p.native), p.mr, p.nr).expect("a packed signature");
        (dispatch, packed(p.mr, p.nr, SOLO512_KC))
    };
    let (mut sub, (sub_a, sub_b, mut sub_c)) = setup(subject);
    let (mut re, (re_a, re_b, mut re_c)) = setup(reference);
    let paired = alternate(SOLO_PAIRS, |side| {
        let (dispatch, a, b, c) = match side {
            Side::Subject => (&mut sub, &sub_a, &sub_b, &mut sub_c),
            Side::Reference => (&mut re, &re_a, &re_b, &mut re_c),
        };
        for _ in 0..SOLO_BURST {
            dispatch.run(SOLO512_KC, black_box(a), black_box(b), c).expect("solo512 micro-kernel call");
        }
    });
    let rate_ratio = paired.ratio * (subject.mr * subject.nr) as f64 / (reference.mr * reference.nr) as f64;
    (paired, rate_ratio)
}

/// One `movers` measurement: the AVX2 mover (subject) against the scalar
/// one.
struct Movers {
    /// Packing the `mc x kc` block of `A`, one burst per block.
    pack_a: Paired,
    /// Every full tile of the [`MOVERS_C`] matrix staged into the kernel's
    /// scratch and back out, one burst per sweep.
    c_tiles: Paired,
}

/// Measures the `movers` block for `blocking`'s `mc x kc` block and
/// `mr x nr` tile. That the bodies move the same bits is the differential
/// test's business (`tests/strided_mover.rs`), not checked again here.
fn movers(blocking: &BlockingParams) -> Movers {
    let BlockingParams { mc, kc, mr, nr, .. } = *blocking;
    // Each side's mover is resolved once, as a runner resolves its own.
    let (avx2, scalar) = (Mover::on(IsaKind::Avx2), Mover::on(IsaKind::Scalar));
    let mover_of = |side| match side {
        Side::Subject => avx2,
        Side::Reference => scalar,
    };
    let panels = mc / mr;
    let a: Vec<f32> = (0..mc * kc).map(|i| ((i * 7 + 1) % 13) as f32 * 0.25 - 1.0).collect();
    let mut packed = vec![0.0f32; mc * kc];
    // `pack_a_into`'s one call over a dense row-major block: the `kc x mc`
    // transpose of the block, in `mr`-wide panels.
    let pack_a = alternate(MOVERS_PAIRS, |side| {
        // SAFETY: the `panels` panels of `kc * mr` elements are `packed`,
        // and the `kc x (panels * mr)` region with strides `(1, kc)` is the
        // transpose of the `mc x kc` block `a`; `mr >= 1`.
        unsafe {
            mover_of(side).pack_panels(
                packed.as_mut_ptr(),
                mr,
                black_box(a.as_ptr()),
                (1, kc),
                (kc, panels * mr),
                1.0,
            )
        };
    });

    let (rows, ldc) = MOVERS_C;
    let mut c = vec![1.0f32; rows * ldc];
    let mut tile = vec![0.0f32; mr * nr];
    // The driver's staging of every full tile of `C`, in its `jr`-outer
    // order: into `c_tile[j * mr + i]` scaled as a first k-block would,
    // and back out untouched.
    let c_tiles = alternate(MOVERS_PAIRS, |side| {
        let mover = mover_of(side);
        for jr in 0..ldc / nr {
            for ir in 0..rows / mr {
                let corner = c.as_mut_ptr().wrapping_add(ir * mr * ldc + jr * nr);
                // SAFETY: the tile at `(ir * mr, jr * nr)`, `corner` on, lies
                // inside the `rows x ldc` matrix `c`; `tile` holds `mr * nr`
                // elements.
                unsafe { mover.strided_move(tile.as_mut_ptr(), (1, mr), corner, (ldc, 1), (mr, nr), -1.0) };
                black_box(&mut tile);
                // SAFETY: as above, the other way.
                unsafe { mover.strided_move(corner, (ldc, 1), tile.as_ptr(), (1, mr), (mr, nr), 1.0) };
            }
        }
    });
    Movers { pack_a, c_tiles }
}

/// The parity gate for one operand layout: `native` over `mode`'s views
/// (subject) against `native` over dense operands, one
/// [`PARITY_SIZE`]-cubed GEMM a burst.
fn parity(native: &BlisGemm, mode: Mode) -> Paired {
    let mut subject = Operands::new(mode, PARITY_SIZE);
    let mut reference = Operands::new(Mode::Dense, PARITY_SIZE);
    alternate(PARITY_PAIRS, |side| {
        let operands = match side {
            Side::Subject => &mut subject,
            Side::Reference => &mut reference,
        };
        native.gemm(operands.problem()).expect("gemm run");
    })
}

/// `len` elements `f(0..len)` in a buffer where they start `bytes` past a
/// 64-byte boundary, and the index they start at.
fn placed(len: usize, bytes: usize, f: impl Fn(usize) -> f32) -> (Vec<f32>, usize) {
    let mut buf = vec![0.0f32; len + 32];
    let start = buf.as_ptr().addr().wrapping_neg() % 64 / 4 + bytes / 4;
    for (i, x) in buf[start..start + len].iter_mut().enumerate() {
        *x = f(i);
    }
    (buf, start)
}

/// The placement gate: `driver` with `A`, `B` and `C` 16 bytes past a
/// cache line (subject) against the same with all three on one, one
/// [`PLACEMENT_SIZE`]-cubed GEMM a burst.
fn placement(driver: &BlisGemm) -> Paired {
    let (n, len) = (PLACEMENT_SIZE, PLACEMENT_SIZE * PLACEMENT_SIZE);
    let operands = |bytes: usize| {
        [
            placed(len, bytes, |i| ((i * 7 + 1) % 13) as f32 * 0.25 - 1.0),
            placed(len, bytes, |i| ((i * 5 + 2) % 17) as f32 * 0.125 - 1.0),
            placed(len, bytes, |_| 0.0),
        ]
    };
    let (mut off_line, mut on_line) = (operands(16), operands(0));
    alternate(PLACEMENT_PAIRS, |side| {
        let [(a, a0), (b, b0), (c, c0)] = match side {
            Side::Subject => &mut off_line,
            Side::Reference => &mut on_line,
        };
        let problem = GemmProblem::new(
            MatRef::from_slice(&a[*a0..*a0 + len], n, n),
            MatRef::from_slice(&b[*b0..*b0 + len], n, n),
            MatMut::from_slice(&mut c[*c0..*c0 + len], n, n),
        );
        driver.gemm(problem).expect("gemm run");
    })
}

/// The `host_blocking` gate on one `m x n x k` shape: `subject` against
/// `reference`, one GEMM a burst, over one set of line-aligned operands.
fn host_blocking(subject: &BlisGemm, reference: &BlisGemm, (m, n, k): (usize, usize, usize)) -> Paired {
    let (a, a0) = placed(m * k, 0, |i| ((i * 7 + 1) % 13) as f32 * 0.25 - 1.0);
    let (b, b0) = placed(k * n, 0, |i| ((i * 5 + 2) % 17) as f32 * 0.125 - 1.0);
    let (mut c, c0) = placed(m * n, 0, |_| 0.0);
    alternate(HOST_BLOCKING_PAIRS, |side| {
        let driver = match side {
            Side::Subject => subject,
            Side::Reference => reference,
        };
        let problem = GemmProblem::new(
            MatRef::from_slice(&a[a0..a0 + m * k], m, k),
            MatRef::from_slice(&b[b0..b0 + k * n], k, n),
            MatMut::from_slice(&mut c[c0..c0 + m * n], m, n),
        );
        driver.gemm(problem).expect("gemm run");
    })
}

/// The `pack_b_in_situ` gate: `driver` packing `B` inside the call
/// (subject) against the same driver reading an image of `B` packed once,
/// one [`PACK_B_IN_SITU_SHAPE`] GEMM on one thread a burst, over one set of
/// line-aligned operands.
fn pack_b_in_situ(driver: &BlisGemm) -> Paired {
    let (m, n, k) = PACK_B_IN_SITU_SHAPE;
    let (a, a0) = placed(m * k, 0, |i| ((i * 7 + 1) % 13) as f32 * 0.25 - 1.0);
    let (b, b0) = placed(k * n, 0, |i| ((i * 5 + 2) % 17) as f32 * 0.125 - 1.0);
    let (mut c, c0) = placed(m * n, 0, |_| 0.0);
    let (a, b) = (MatRef::from_slice(&a[a0..a0 + m * k], m, k), MatRef::from_slice(&b[b0..b0 + k * n], k, n));
    let mut image = PackedB::default();
    driver.pack_b(b, &mut image);
    let mut runner = driver.runner();
    let paired = alternate(PACK_B_IN_SITU_PAIRS, |side| {
        let problem = GemmProblem::new(a, b, MatMut::from_slice(&mut c[c0..c0 + m * n], m, n));
        let packed_b = match side {
            Side::Subject => None,
            Side::Reference => Some(&image),
        };
        driver.run(&mut runner, &mut [problem], packed_b, 1).expect("gemm run");
    });
    driver.put_back(runner);
    paired
}

/// The operands of one [`SERVE_SHAPES`] job.
struct ServeOperands {
    dims: (usize, usize, usize),
    a: Vec<f32>,
    b: Vec<f32>,
}

impl ServeOperands {
    fn new((m, n, k): (usize, usize, usize)) -> Self {
        let a = (0..m * k).map(|i| ((i * 7 + 1) % 13) as f32 * 0.25 - 1.0).collect();
        let b = (0..k * n).map(|i| ((i * 5 + 2) % 17) as f32 * 0.125 - 1.0).collect();
        ServeOperands { dims: (m, n, k), a, b }
    }

    /// An owned job over copies of the operands, as `serve_small` builds.
    fn job(&self) -> GemmJob {
        let (m, n, k) = self.dims;
        let (a, b) = (
            OwnedMat::with_layout(self.a.clone(), m, k, k, 1, 0),
            OwnedMat::with_layout(self.b.clone(), k, n, n, 1, 0),
        );
        GemmJob::new(a, b, OwnedMat::zeros(m, n)).beta(0.0)
    }

    /// The same product over the operands in place, into `c`.
    fn problem<'a>(&'a self, c: &'a mut [f32]) -> GemmProblem<'a> {
        let (m, n, k) = self.dims;
        GemmProblem::new(
            MatRef::from_slice(&self.a, m, k),
            MatRef::from_slice(&self.b, k, n),
            MatMut::from_slice(c, m, n),
        )
        .beta(0.0)
    }
}

/// The `serve_pass` gate: a lone `submit` + `wait` of every
/// [`SERVE_SHAPES`] job on an idle service (subject) against the serving
/// verdict's `TunedGemm::gemm` of the same operands (reference), every shape
/// [`SERVE_PASS_ROUNDS`] times a burst, `beta = 0` as in `serve_small`. The
/// subject's owned jobs are built before its clock starts and its results
/// dropped after it stops. Each side has its own `TunedGemm` — the service
/// owns its executor — over the same verdicts; both return the same bits,
/// which is checked before timing.
fn serve_pass() -> Paired {
    let operands: Vec<ServeOperands> = SERVE_SHAPES.into_iter().map(ServeOperands::new).collect();
    let reference = TunedGemm::new();
    let executor = CachedTunedGemm::new(TunedGemm::new());
    let service = GemmService::new(executor);
    let lone = |job: GemmJob| -> CompletedJob {
        service.submit(job).expect("an idle service accepts").wait().expect("a lone job completes")
    };
    let mut c: Vec<Vec<f32>> = SERVE_SHAPES.iter().map(|&(m, n, _)| vec![0.0f32; m * n]).collect();
    let per_call = |c: &mut [Vec<f32>]| {
        for (operands, c) in operands.iter().zip(c) {
            reference.gemm(operands.problem(c)).expect("gemm run");
        }
    };
    per_call(&mut c);
    for (operands, want) in operands.iter().zip(&c) {
        let got = lone(operands.job()).c.into_data();
        assert_eq!(&got, want, "a lone submit and TunedGemm::gemm compute the same bits");
    }
    alternate_prepared(
        SERVE_PASS_PAIRS,
        |side| match side {
            Side::Subject => {
                (0..SERVE_PASS_ROUNDS).flat_map(|_| operands.iter().map(ServeOperands::job)).collect()
            }
            Side::Reference => Vec::new(),
        },
        |side, jobs: Vec<GemmJob>| match side {
            Side::Subject => jobs.into_iter().map(lone).collect::<Vec<CompletedJob>>(),
            Side::Reference => {
                for _ in 0..SERVE_PASS_ROUNDS {
                    per_call(&mut c);
                }
                Vec::new()
            }
        },
    )
}

/// The kernel calls of one [`SERVE_SHAPES`] GEMM: the serving verdict's
/// dispatch handle, the shape's `A` and `B` packed once into its panels,
/// and a scratch tile the calls accumulate into.
struct KernelCalls {
    dispatch: TierDispatch,
    k: usize,
    /// Register tile.
    tile: (usize, usize),
    /// Row and column panels: the shape's register tiles.
    panels: (usize, usize),
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl KernelCalls {
    fn new(operands: &ServeOperands, driver: &BlisGemm) -> Self {
        let (m, n, k) = operands.dims;
        let kernel = driver.kernel();
        let (mr, nr) = (kernel.mr, kernel.nr);
        let panels = (m.div_ceil(mr), n.div_ceil(nr));
        let (mut a, mut b) = (vec![0.0f32; panels.0 * mr * k], vec![0.0f32; panels.1 * nr * k]);
        pack_a_into(&mut a, MatRef::from_slice(&operands.a, m, k), 0, 0, m, k, mr, 1.0);
        pack_b_into(&mut b, MatRef::from_slice(&operands.b, k, n), 0, 0, k, n, nr);
        KernelCalls { dispatch: kernel.dispatcher(), k, tile: (mr, nr), panels, a, b, c: vec![0.0; mr * nr] }
    }

    /// One call per register tile, in the driver's `jr`-outer order.
    fn run(&mut self) {
        let (k, (mr, nr)) = (self.k, self.tile);
        for jr in 0..self.panels.1 {
            for ir in 0..self.panels.0 {
                let (a, b) = (&self.a[ir * k * mr..][..k * mr], &self.b[jr * k * nr..][..k * nr]);
                self.dispatch.run(k, black_box(a), black_box(b), &mut self.c).expect("a small kernel call");
            }
        }
    }
}

/// The `small_gemm` gate: the serving verdict's warm `TunedGemm::gemm` of
/// every [`SERVE_SHAPES`] job (subject) against the kernel calls alone that
/// GEMM makes — the verdict's micro-kernel through its dispatch handle,
/// once per register tile, on panels packed once ahead (reference) — every
/// shape [`SMALL_GEMM_ROUNDS`] times a burst, `beta = 0` as in
/// `serve_small`. Every shape fits one block of the verdict's blocking, so
/// these are exactly the calls the GEMM makes, and the ratio is the share
/// of its time they take; the rest is the packing, the `C` staging and the
/// lookups around them.
fn small_gemm() -> Paired {
    let operands: Vec<ServeOperands> = SERVE_SHAPES.into_iter().map(ServeOperands::new).collect();
    let tuned = TunedGemm::new();
    let mut calls: Vec<KernelCalls> = operands
        .iter()
        .map(|ops| {
            let (m, n, k) = ops.dims;
            let (_, driver) = tuned.driver_for(m, n, k).expect("the serving space tunes");
            KernelCalls::new(ops, &driver)
        })
        .collect();
    let mut c: Vec<Vec<f32>> = SERVE_SHAPES.iter().map(|&(m, n, _)| vec![0.0f32; m * n]).collect();
    alternate(SMALL_GEMM_PAIRS, |side| {
        for _ in 0..SMALL_GEMM_ROUNDS {
            match side {
                Side::Subject => {
                    for (operands, c) in operands.iter().zip(&mut c) {
                        tuned.gemm(operands.problem(c)).expect("gemm run");
                    }
                }
                Side::Reference => calls.iter_mut().for_each(KernelCalls::run),
            }
        }
    })
}

/// Prints one ratio gate's verdict line and returns whether it passed.
fn verdict(gate: &str, ratio: f64, floor: f64) -> bool {
    let ok = ratio >= floor;
    println!("  {gate:<22} ratio {ratio:>6.3} (floor {floor:.2}) {}", if ok { "ok" } else { "FAIL" });
    ok
}

fn main() {
    let generator = MicroKernelGenerator::new(exo_isa::neon_f32());
    let kernel = Arc::new(generator.generate(8, 12).expect("8x12 kernel generates"));
    let blocking = BlockingParams::analytical(&carmel_sim::CacheHierarchy::carmel(), 8, 12, 4);
    let driver = |kernel: KernelImpl| BlisGemm::new(blocking).with_kernel(kernel);
    // Slowest first: each tier must beat the one before it.
    let tiers = [
        ("superword", driver(exo_kernel_superword(Arc::clone(&kernel)))),
        ("native", driver(exo_kernel(Arc::clone(&kernel)))),
    ];
    // Why a tier's leg over the one before it compares a series with
    // itself on this build, where it does.
    let same_series = |tier: &str| match tier {
        "native" if !native_available() => Some("no native bodies: native ran the superword interpreter"),
        _ => None,
    };

    println!(
        "gemm_throughput — measured GFLOPS, EXO 8x12 kernel, one thread (isa: {}, cc: {})",
        active_isa(),
        toolchain().map_or("none", |tc| &tc.version)
    );
    print!("{:<8}", "m=n=k");
    for (name, _) in &tiers {
        print!("{name:>12}");
    }
    println!();
    let gflops: Vec<Vec<f64>> = SIZES
        .iter()
        .map(|&size| {
            print!("{size:<8}");
            let row: Vec<f64> = tiers
                .iter()
                .map(|(_, driver)| {
                    // Best of 2, so that one disturbed run does not decide a
                    // leg.
                    let g = measure(driver, size, 2);
                    print!("{g:>12.3}");
                    g
                })
                .collect();
            println!();
            row
        })
        .collect();

    let mut failed = false;
    println!("\ngates:");
    for (&size, row) in SIZES.iter().zip(&gflops) {
        for (i, (name, _)) in tiers.iter().enumerate().skip(1) {
            let gate = format!("ordering at {size}: {name} over {}", tiers[i - 1].0);
            let ratio = row[i] / row[i - 1];
            match same_series(name) {
                Some(why) => println!("  {gate:<40} {ratio:>8.2}x skipped — {why}"),
                None => {
                    println!("  {gate:<40} {ratio:>8.2}x {}", if ratio >= 1.0 { "ok" } else { "FAIL" });
                    failed |= ratio < 1.0;
                }
            }
        }
    }

    let (_, native) = &tiers[tiers.len() - 1];
    // The kernel-level gates compile for an explicit ISA, so that each
    // measures the same code whichever ISA this process selected.
    let kernel_8x12_avx2 = promoted(&kernel, IsaKind::Avx2);
    match &kernel_8x12_avx2 {
        Ok(reference) => {
            let s = solo(&reference.native, blocking.kc);
            let rate = |secs: f64| (SOLO_BURST * 2 * 96 * blocking.kc) as f64 / secs / 1.0e9;
            println!(
                "  solo 8x12 (kc {}): generated {:.1} GFLOPS, hand-written {:.1} GFLOPS",
                blocking.kc,
                rate(s.subject_secs),
                rate(s.reference_secs)
            );
            failed |= !verdict("solo", s.ratio, SOLO_FLOOR);
        }
        Err(why) => println!("  solo                   skipped — {why}"),
    }

    let avx512_16x16 =
        MicroKernelGenerator::new(exo_isa::avx512_f32()).generate(16, 16).expect("16x16 generates");
    match (&promoted(&avx512_16x16, IsaKind::Avx512), &kernel_8x12_avx2) {
        (Ok(subject), Ok(reference)) => {
            let (s, ratio) = solo512(subject, reference);
            let rate =
                |p: &Promoted, secs: f64| (SOLO_BURST * 2 * p.mr * p.nr * SOLO512_KC) as f64 / secs / 1.0e9;
            println!(
                "  solo512 (kc {SOLO512_KC}): avx512 16x16 {:.1} GFLOPS, avx2 8x12 {:.1} GFLOPS",
                rate(subject, s.subject_secs),
                rate(reference, s.reference_secs)
            );
            failed |= !verdict("solo512", ratio, SOLO512_FLOOR);
        }
        (Err(why), _) | (_, Err(why)) => println!("  solo512                skipped — {why}"),
    }

    if !IsaKind::Avx2.available() {
        println!("  movers                 skipped — the floor is AVX2's and this host has no AVX2");
    } else {
        let m = movers(&blocking);
        let (rows, ldc) = MOVERS_C;
        println!(
            "  movers ({}): pack A {}x{} {:.1} GB/s, C tile {}x{} in+out {:.1} ns",
            IsaKind::Avx2,
            blocking.mc,
            blocking.kc,
            2.0 * (blocking.mc / blocking.mr * blocking.mr * blocking.kc * 4) as f64
                / m.pack_a.subject_secs
                / 1.0e9,
            blocking.mr,
            blocking.nr,
            m.c_tiles.subject_secs / ((rows / blocking.mr) * (ldc / blocking.nr)) as f64 * 1.0e9
        );
        failed |= !verdict("movers pack A", m.pack_a.ratio, MOVERS_FLOOR);
        failed |= !verdict("movers C tile", m.c_tiles.ratio, MOVERS_FLOOR);
    }

    for (gate, mode) in [("parity strided", Mode::Strided), ("parity op(B) = T", Mode::TransposedB)] {
        let p = parity(native, mode);
        println!(
            "  {gate} at {PARITY_SIZE}: {:.1} GFLOPS, dense {:.1} GFLOPS",
            gemm_gflops(PARITY_SIZE, p.subject_secs),
            gemm_gflops(PARITY_SIZE, p.reference_secs)
        );
        failed |= !verdict(gate, p.ratio, PARITY_FLOOR);
    }

    if !IsaKind::Avx2.available() {
        println!(
            "  placement              skipped — the write-back it judges is AVX2's and this host has no AVX2"
        );
    } else {
        let size = PLACEMENT_SIZE;
        let (tuned, driver) = TunedGemm::new().driver_for(size, size, size).expect("the serving space tunes");
        let p = placement(&driver);
        println!(
            "  placement at {size} ({}x{} verdict): off a line {:.1} GFLOPS, on a line {:.1} GFLOPS",
            tuned.mr,
            tuned.nr,
            gemm_gflops(size, p.subject_secs),
            gemm_gflops(size, p.reference_secs)
        );
        failed |= !verdict("placement", p.ratio, PLACEMENT_FLOOR);
    }

    if !IsaKind::Avx2.available() {
        println!(
            "  host_blocking          skipped — the floor is measured on AVX2 hosts and this one has no AVX2"
        );
    } else {
        let tuned = TunedGemm::new();
        println!("  host caches: {}", HostDescription::probed());
        for (m, n, k) in HOST_BLOCKING_SHAPES {
            let (plan, driver) = tuned.driver_for(m, n, k).expect("the serving space tunes");
            let carmel =
                BlockingParams::analytical(&carmel_sim::CacheHierarchy::carmel(), plan.mr, plan.nr, 4);
            let reference = BlisGemm::new(carmel).with_kernel(driver.kernel().clone());
            let p = host_blocking(&driver, &reference, (m, n, k));
            let blocks = |b: &BlockingParams| format!("({},{},{})", b.mc, b.kc, b.nc);
            let rate = |secs: f64| 2.0 * (m * n * k) as f64 / secs / 1.0e9;
            println!(
                "  host_blocking {m}x{n}x{k} ({}x{}): host {} {:.1} GFLOPS, Carmel {} {:.1} GFLOPS",
                plan.mr,
                plan.nr,
                blocks(&driver.blocking),
                rate(p.subject_secs),
                blocks(&carmel),
                rate(p.reference_secs)
            );
            failed |= !verdict(&format!("host_blocking {m}x{n}x{k}"), p.ratio, HOST_BLOCKING_FLOOR);
        }
    }

    let (m, n, k) = PACK_B_IN_SITU_SHAPE;
    let (plan, driver) = TunedGemm::new().driver_for(m, n, k).expect("the serving space tunes");
    let (BlockingParams { kc, nc, .. }, nr) = (driver.blocking, plan.nr);
    let host = HostDescription::probed();
    if !gemm_blis::packing::source_order(kc.min(k), nc.min(n), 1, nr, host) {
        println!(
            "  pack_b_in_situ         skipped — the {}x{nr} verdict's {}-byte panel rows are not whole {}-byte lines, so its B blocks keep the panel walk",
            plan.mr,
            nr * 4,
            host.l1d.line
        );
    } else {
        let p = pack_b_in_situ(&driver);
        let rate = |secs: f64| 2.0 * (m * n * k) as f64 / secs / 1.0e9;
        println!(
            "  pack_b_in_situ {m}x{n}x{k} ({}x{nr}): packing B {:.1} GFLOPS, prepacked image {:.1} GFLOPS",
            plan.mr,
            rate(p.subject_secs),
            rate(p.reference_secs)
        );
        failed |= !verdict("pack_b_in_situ", p.ratio, PACK_B_IN_SITU_FLOOR);
    }

    let p = serve_pass();
    let jobs = (SERVE_PASS_ROUNDS * SERVE_SHAPES.len()) as f64;
    println!(
        "  serve_pass ({} serve_small shapes): lone submit + wait {:.2} us a job, TunedGemm::gemm {:.2} us",
        SERVE_SHAPES.len(),
        p.subject_secs / jobs * 1.0e6,
        p.reference_secs / jobs * 1.0e6
    );
    failed |= !verdict("serve_pass", p.ratio, SERVE_PASS_FLOOR);

    let p = small_gemm();
    let gemms = (SMALL_GEMM_ROUNDS * SERVE_SHAPES.len()) as f64;
    println!(
        "  small_gemm ({} serve_small shapes): TunedGemm::gemm {:.0} ns, its kernel calls alone {:.0} ns a GEMM",
        SERVE_SHAPES.len(),
        p.subject_secs / gemms * 1.0e9,
        p.reference_secs / gemms * 1.0e9
    );
    failed |= !verdict("small_gemm", p.ratio, SMALL_GEMM_FLOOR);

    if failed {
        eprintln!("FAIL: a gate above did not hold");
        std::process::exit(1);
    }
}
