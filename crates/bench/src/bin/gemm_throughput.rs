//! Wall-clock GFLOPS of the functional GEMM spine, one row per square
//! problem size, one column per series. Every series runs the generated
//! 8x12 kernel through the one five-loop driver; each differs from a
//! neighbour in exactly one layer, which is what it isolates:
//!
//! * `interp`         — tree-walking interpreter kernel, one thread.
//!   isolates: the reference semantics' cost, the floor every tier is
//!   measured from.
//! * `tape`           — scalar tape kernel. isolates: compiling the IR
//!   walk away (tape / interp).
//! * `superword`      — the portable tier: the superword lowering
//!   executed by the scalar-ISA closure chain. isolates: the SLP pass,
//!   closure fusion and prove-once dispatch (superword / tape).
//! * `simd`           — the same chain compiled for the active vector ISA
//!   (AVX2/FMA, NEON, or the scalar reference). isolates: real vector
//!   instructions (simd / superword).
//! * `native`         — the ahead-of-time compiled `.so` tier (C emitted
//!   from the superword tape, built by the host toolchain, dlopen'd): the
//!   default production path. isolates: the host compiler's codegen over
//!   the same ops (native / simd). On hosts without a C compiler this
//!   silently measures the simd chain instead (`"native_available"` in the
//!   JSON says which).
//! * `native+threads` — `native` with `C` partitioned over all cores.
//!   isolates: the threaded partition (÷ `native`).
//! * `native+strided` — `native` over *strided* operand views (padded
//!   leading dimensions on `A`, `B`, and `C`). isolates: the packers'
//!   strided gather and the strided `C` write-back (÷ `native`).
//! * `native+transB`  — `native` with `op(B) = T` (`B` stored `n x k`,
//!   transposed through the view). isolates: the packers'
//!   blocked-transpose walk (÷ `native`).
//!
//! Unlike the figure harnesses (which report *modelled* Carmel GFLOPS),
//! these are real measured numbers on the host — the perf trajectory data
//! the ROADMAP asks for. Results are written to `BENCH_gemm.json`.
//!
//! After the sweep, a `solo` block measures the paper's Fig. 13 on the
//! host: the promoted native 8x12 kernel, called through
//! `KernelDispatch::run`, against the same update written by hand with
//! AVX2/FMA intrinsics, both on L1-resident packed panels of the analytical
//! blocking's `kc`. The two run in alternating short bursts and the figure
//! reported is the median of the per-pair rate ratios, so drift of a shared
//! host cancels instead of landing on one side. Off AVX2, or without a
//! promoted artifact, the block is skipped with a printed reason.
//!
//! A `movers` block does the same for the data movement around the kernel:
//! the strided mover (`exo_codegen::simd::strided_move_on`) packing the
//! analytical `mc x kc` block of `A` into `mr`-row panels, and staging an
//! `mr x nr` tile of a row-major `C` into the kernel's column-major scratch
//! and back, each on the active ISA's body against the scalar body —
//! alternating bursts again, median of the per-pair ratios.
//!
//! Usage: `gemm_throughput [--quick] [--out PATH] [--check BASELINE]`
//!
//! Exit status encodes the CI perf gates:
//!
//! * the backend ordering must hold at every size — `native >= simd >=
//!   superword >= tape >= interp` (a faster tier measuring slower than its
//!   fallback means the fast path regressed below the slow one). Two legs
//!   compare a series with itself on some hosts and are skipped there by
//!   construction: `simd >= superword` when the active ISA is the scalar
//!   reference (`!simd_available()`: both series run the one scalar
//!   chain), and `native >= simd` when no C toolchain answered the probe
//!   (`!native_available()`: the native series *is* the simd chain);
//! * with `--check BASELINE`, each backend's geomean GFLOPS over the sizes
//!   shared with the committed baseline must not drop more than 25% below
//!   the baseline's geomean over those same sizes. The JSON records which
//!   ISA produced the numbers (`"isa"`); a baseline recorded on a
//!   different ISA is not comparable, so the geomean floors are skipped
//!   with a visible note instead of failing spuriously;
//! * with `--check`, the `solo` ratio must reach [`SOLO_FLOOR`] — the
//!   generated kernel within 15 % of the hand-written one. It compares two
//!   kernels of this run with each other, so it needs no baseline, no ISA
//!   match and no tolerance for a slow host;
//! * with `--check` on AVX2, both `movers` ratios must reach
//!   [`MOVERS_FLOOR`] — packing and `C` staging at least 1.5x the scalar
//!   loops they replaced (~3x measured). Self-relative like `solo`; on
//!   another ISA it is skipped with a printed reason.
//!
//! The serving layer (per-call against batched against the queued service
//! on small mixed shapes) is measured by `exo_bench`'s `serve_small`
//! workload, normalised and confined to one CPU — not here.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use exo_codegen::simd::strided_move_on;
use gemm_blis::{
    active_isa, exo_kernel, exo_kernel_interp, exo_kernel_simd, exo_kernel_superword, exo_kernel_tape,
    native_available, simd_available, toolchain, BlisGemm, BlockingParams, ExecBackend, GemmExecutor,
    GemmProblem, IsaKind, KernelImpl, MatMut, MatRef,
};
use ukernel_gen::MicroKernelGenerator;

/// Problem sizes of the full sweep (the Fig. 14 square series, scaled to
/// what a functional backend can sweep in minutes rather than hours).
const FULL_SIZES: [usize; 5] = [256, 384, 512, 768, 1024];
/// Problem sizes of the `--quick` CI smoke run. 256 overlaps the full sweep
/// so a `--quick --check` run still has a common size with a committed full
/// baseline.
const QUICK_SIZES: [usize; 2] = [128, 256];

/// Geomean drop tolerated by `--check` before the gate fails.
const CHECK_TOLERANCE: f64 = 0.25;

/// Lowest `solo` ratio (generated over hand-written 8x12 rate) `--check`
/// accepts. A kernel that spills its accumulators every `k` iteration reads
/// ~0.7 here and one that keeps them in registers ~1.0.
const SOLO_FLOOR: f64 = 0.85;
/// Kernel calls per `solo` burst (~0.1 ms at `kc` = 400).
const SOLO_BURST: usize = 128;
/// Alternating burst pairs per `solo` measurement.
const SOLO_PAIRS: usize = 200;

/// Lowest `movers` ratio (active ISA's mover over the scalar one) `--check`
/// accepts on AVX2, for packing `A` and for the `C`-tile round trip alike.
const MOVERS_FLOOR: f64 = 1.5;
/// Alternating burst pairs per `movers` measurement.
const MOVERS_PAIRS: usize = 60;
/// Rows and leading dimension of the row-major `C` the `movers` block
/// stages tiles of: L2-resident, and rows that do not alias in L1.
const MOVERS_C: (usize, usize) = (64, 960);

/// How a variant lays out and views its operands.
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

struct Variant {
    name: &'static str,
    driver: BlisGemm,
    mode: Mode,
}

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

/// Measures one configuration at one size, returning measured GFLOPS
/// (`2 m n k` useful flops per wall-clock second, best of `reps` runs).
fn measure(variant: &Variant, size: usize, reps: usize) -> f64 {
    let mut operands = Operands::new(variant.mode, size);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        operands.c.fill(0.0);
        let start = Instant::now();
        variant.driver.gemm(operands.problem()).expect("gemm run");
        best = best.min(start.elapsed().as_secs_f64());
    }
    let flops = 2.0 * (size as f64).powi(3);
    flops / best / 1.0e9
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
        // SAFETY: `j < 12` and `c` holds at least 96 floats.
        *acc = unsafe { _mm256_loadu_ps(c.as_ptr().add(j * 8)) };
    }
    for (a_col, b_row) in a.chunks_exact(8).zip(b.chunks_exact(12)).take(kc) {
        // SAFETY: `a_col` is a chunk of exactly 8 floats.
        let av = unsafe { _mm256_loadu_ps(a_col.as_ptr()) };
        for (acc, &bv) in acc.iter_mut().zip(b_row) {
            *acc = _mm256_fmadd_ps(av, _mm256_set1_ps(bv), *acc);
        }
    }
    for (j, acc) in acc.iter().enumerate() {
        // SAFETY: `j < 12` and `c` holds at least 96 floats.
        unsafe { _mm256_storeu_ps(c.as_mut_ptr().add(j * 8), *acc) };
    }
}

/// Off x86_64 no CPU meets the contract above: `solo` declines on the
/// active ISA before it could reach this.
#[cfg(not(target_arch = "x86_64"))]
unsafe fn hand_8x12_avx2(_kc: usize, _a: &[f32], _b: &[f32], _c: &mut [f32]) {
    unreachable!("AVX2 is never the active ISA off x86_64")
}

/// One `solo` measurement: both kernels' median burst rates and the median
/// of the per-pair ratios.
struct Solo {
    kc: usize,
    exo_gflops: f64,
    hand_gflops: f64,
    ratio: f64,
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// GFLOPS of one `solo` burst: [`SOLO_BURST`] back-to-back `call`s of a
/// `kc`-deep 8x12 update.
fn solo_burst(kc: usize, mut call: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..SOLO_BURST {
        call();
    }
    (SOLO_BURST * 2 * 96 * kc) as f64 / start.elapsed().as_secs_f64() / 1.0e9
}

/// Measures the `solo` block, or says why it cannot be measured here.
fn solo(kernel: &KernelImpl, kc: usize) -> Result<Solo, String> {
    if active_isa() != IsaKind::Avx2 {
        return Err(format!(
            "the hand-written reference is AVX2/FMA and the active ISA is `{}`",
            active_isa()
        ));
    }
    let mut dispatch = kernel.dispatcher();
    if dispatch.tier() != Some(ExecBackend::Native) {
        return Err(format!(
            "the 8x12 kernel resolved to {:?}, not to a promoted native artifact",
            dispatch.tier()
        ));
    }
    let a: Vec<f32> = (0..kc * 8).map(|i| ((i * 7 + 1) % 13) as f32 * 0.25 - 1.0).collect();
    let b: Vec<f32> = (0..kc * 12).map(|i| ((i * 5 + 2) % 17) as f32 * 0.125 - 1.0).collect();
    let (mut c_exo, mut c_hand) = (vec![0.0f32; 96], vec![0.0f32; 96]);
    let mut exo_burst = || {
        solo_burst(kc, || {
            dispatch.run(kc, black_box(&a), black_box(&b), &mut c_exo).expect("solo micro-kernel call")
        })
    };
    let mut hand_burst = || {
        // SAFETY: `active_isa()` is AVX2 only on a CPU that reports AVX2 and FMA.
        solo_burst(kc, || unsafe { hand_8x12_avx2(kc, black_box(&a), black_box(&b), &mut c_hand) })
    };
    // One burst each to warm the panels and the proof memo.
    exo_burst();
    hand_burst();
    let (mut exo, mut hand, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..SOLO_PAIRS {
        let (e, h) = if pair % 2 == 0 {
            let e = exo_burst();
            (e, hand_burst())
        } else {
            let h = hand_burst();
            (exo_burst(), h)
        };
        exo.push(e);
        hand.push(h);
        ratios.push(e / h);
    }
    // Each lane is the same chain of fused multiply-adds in the same order
    // on both sides, burst for burst.
    assert_eq!(c_exo, c_hand, "the hand-written 8x12 and the generated one compute the same update");
    Ok(Solo { kc, exo_gflops: median(exo), hand_gflops: median(hand), ratio: median(ratios) })
}

/// One `movers` measurement: the active ISA's rates, and the median
/// per-pair ratios to the scalar body's.
struct Movers {
    /// Read + write traffic of packing the `mc x kc` block, GB/s.
    pack_a_gbps: f64,
    pack_a_ratio: f64,
    /// One tile staged into the kernel's scratch and back out.
    c_tile_ns: f64,
    c_tile_ratio: f64,
}

/// Times `burst` on the active ISA's mover and on the scalar one,
/// [`MOVERS_PAIRS`] pairs in alternating order after one warming call each.
/// Returns the active side's median seconds and the median of the per-pair
/// `scalar / active` time ratios.
fn alternate(mut burst: impl FnMut(IsaKind)) -> (f64, f64) {
    let mut time = |isa: IsaKind| {
        let start = Instant::now();
        burst(isa);
        start.elapsed().as_secs_f64()
    };
    let (active, scalar) = (active_isa(), IsaKind::Scalar);
    time(active);
    time(scalar);
    let (mut secs, mut ratios) = (Vec::new(), Vec::new());
    for pair in 0..MOVERS_PAIRS {
        let (a, s) = if pair % 2 == 0 {
            let a = time(active);
            (a, time(scalar))
        } else {
            let s = time(scalar);
            (time(active), s)
        };
        secs.push(a);
        ratios.push(s / a);
    }
    (median(secs), median(ratios))
}

/// Measures the `movers` block for `blocking`'s `mc x kc` block and
/// `mr x nr` tile. That the bodies move the same bits is the differential
/// test's business (`tests/strided_mover.rs`), not checked again here.
fn movers(blocking: &BlockingParams) -> Movers {
    let BlockingParams { mc, kc, mr, nr, .. } = *blocking;
    let panels = mc / mr;
    let a: Vec<f32> = (0..mc * kc).map(|i| ((i * 7 + 1) % 13) as f32 * 0.25 - 1.0).collect();
    let mut packed = vec![0.0f32; mc * kc];
    // `pack_a_into`'s walk over a dense row-major block: panel `p` is the
    // transpose of rows `p * mr ..` of `A`.
    let (pack_secs, pack_a_ratio) = alternate(|isa| {
        for p in 0..panels {
            // SAFETY: panel `p` is `kc * mr` elements of `packed` and rows
            // `p * mr .. (p + 1) * mr` of the `mc x kc` block `a`.
            unsafe {
                strided_move_on(
                    isa,
                    packed.as_mut_ptr().add(p * kc * mr),
                    (mr, 1),
                    black_box(a.as_ptr()).add(p * mr * kc),
                    (1, kc),
                    (kc, mr),
                    1.0,
                );
            }
        }
    });

    let (rows, ldc) = MOVERS_C;
    let tiles = (rows / mr, ldc / nr);
    let mut c = vec![1.0f32; rows * ldc];
    let mut tile = vec![0.0f32; mr * nr];
    // The driver's staging of every full tile of `C`, in its `jr`-outer
    // order: into `c_tile[j * mr + i]` scaled as a first k-block would,
    // and back out untouched.
    let (trip_secs, c_tile_ratio) = alternate(|isa| {
        for jr in 0..tiles.1 {
            for ir in 0..tiles.0 {
                // SAFETY: the tile at `(ir * mr, jr * nr)` lies inside the
                // `rows x ldc` matrix `c`; `tile` holds `mr * nr` elements.
                unsafe {
                    let corner = c.as_mut_ptr().add(ir * mr * ldc + jr * nr);
                    strided_move_on(isa, tile.as_mut_ptr(), (1, mr), corner, (ldc, 1), (mr, nr), -1.0);
                    black_box(&mut tile);
                    strided_move_on(isa, corner, (ldc, 1), tile.as_ptr(), (1, mr), (mr, nr), 1.0);
                }
            }
        }
    });
    Movers {
        pack_a_gbps: 2.0 * (panels * mr * kc * 4) as f64 / pack_secs / 1.0e9,
        pack_a_ratio,
        c_tile_ns: trip_secs / (tiles.0 * tiles.1) as f64 * 1.0e9,
        c_tile_ratio,
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A committed baseline parsed from a previous run's JSON.
struct Baseline {
    sizes: Vec<usize>,
    series: Vec<(String, Vec<f64>)>,
    /// Which vector ISA produced the baseline numbers, when recorded
    /// (older baselines predate the multi-ISA backend and carry none).
    isa: Option<String>,
}

fn load_baseline(path: &str) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let json = exo_tune::json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let sizes = json
        .get("sizes")
        .and_then(|s| s.as_arr())
        .ok_or("baseline has no sizes array")?
        .iter()
        .map(|v| v.as_usize().ok_or("non-integer size"))
        .collect::<Result<Vec<_>, _>>()?;
    let gflops = json.get("gflops").and_then(|g| g.as_obj()).ok_or("baseline has no gflops object")?;
    let mut series = Vec::new();
    for (name, arr) in gflops {
        let values = arr
            .as_arr()
            .ok_or("gflops series is not an array")?
            .iter()
            .map(|v| v.as_num().ok_or("non-numeric gflops"))
            .collect::<Result<Vec<_>, _>>()?;
        if values.len() != sizes.len() {
            return Err(format!("series `{name}` has {} values for {} sizes", values.len(), sizes.len()));
        }
        series.push((name.clone(), values));
    }
    let isa = json.get("isa").and_then(|v| v.as_str()).map(str::to_string);
    Ok(Baseline { sizes, series, isa })
}

/// The `--check` regression gate: every backend in the committed baseline
/// must be measured by the current run, and its geomean GFLOPS over the
/// sizes shared with the baseline must stay within [`CHECK_TOLERANCE`] of
/// the baseline's geomean over those sizes. Returns `true` if the gate
/// passes.
fn check_against_baseline(baseline: &Baseline, sizes: &[usize], names: &[&str], gflops: &[Vec<f64>]) -> bool {
    // The floors compare like-for-like only: a baseline recorded on a
    // different vector ISA (or on one when this run has none pinned the
    // same way) measures different machine code, so its geomeans say
    // nothing about a regression here.
    let current_isa = active_isa().name();
    if let Some(base_isa) = &baseline.isa {
        if base_isa != current_isa {
            println!(
                "\n--check: baseline was recorded on the `{base_isa}` ISA but this run uses \
                 `{current_isa}`; geomean floors skipped (not comparable like-for-like)"
            );
            return true;
        }
    }
    let common: Vec<usize> = sizes.iter().copied().filter(|s| baseline.sizes.contains(s)).collect();
    if common.is_empty() {
        eprintln!("CHECK FAIL: no sizes in common with the baseline ({:?})", baseline.sizes);
        return false;
    }
    println!("\n--check against committed baseline (common sizes {common:?}, tolerance {CHECK_TOLERANCE}):");
    let mut ok = true;
    for (name, base_values) in &baseline.series {
        let Some(vi) = names.iter().position(|n| n == name) else {
            // The bench measures every series it knows; a baseline series
            // this run lacks means a variant was renamed or dropped, which
            // must not silently remove its perf coverage.
            eprintln!("CHECK FAIL: baseline series `{name}` is not measured by this run");
            ok = false;
            continue;
        };
        let cur: Vec<f64> =
            common.iter().map(|s| gflops[vi][sizes.iter().position(|x| x == s).unwrap()]).collect();
        let base: Vec<f64> =
            common.iter().map(|s| base_values[baseline.sizes.iter().position(|x| x == s).unwrap()]).collect();
        let (cur_g, base_g) = (geomean(&cur), geomean(&base));
        let floor = base_g * (1.0 - CHECK_TOLERANCE);
        let verdict = if cur_g >= floor { "ok" } else { "REGRESSED" };
        println!(
            "  {name:<16} geomean {cur_g:>8.3} vs baseline {base_g:>8.3} (floor {floor:>8.3}) {verdict}"
        );
        if cur_g < floor {
            ok = false;
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    // A flag with a missing value must be an error, not a silent default —
    // `--check` with no path would otherwise disable the regression gate
    // while exiting 0.
    let arg_after = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("FAIL: {flag} requires a value");
                std::process::exit(1);
            })
        })
    };
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_gemm.json".to_string());
    // Read the baseline up front: the fresh results may overwrite the file
    // it lives in.
    let baseline = arg_after("--check").map(|path| match load_baseline(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("FAIL: cannot load baseline: {e}");
            std::process::exit(1);
        }
    });
    let sizes: Vec<usize> = if quick { QUICK_SIZES.to_vec() } else { FULL_SIZES.to_vec() };
    // The fast configurations take a best-of-2 even in quick mode so a
    // single noisy run does not trip the regression gate; the interpreter
    // (orders of magnitude slower, and the least noise-sensitive series) is
    // never repeated.
    let reps = 2;

    let generator = MicroKernelGenerator::new(exo_isa::neon_f32());
    let kernel = Arc::new(generator.generate(8, 12).expect("8x12 kernel generates"));
    assert!(kernel.tape.is_some(), "the 8x12 kernel must tape-compile");
    assert!(kernel.superword.is_some(), "the 8x12 kernel must superword-compile");
    // Settle the asynchronous native build before any measurement: the
    // `native` series must bench the promoted artifact (when a toolchain
    // answers), not race the background compile and silently measure the
    // simd fallback on its early iterations.
    let _ = kernel.native_wait();
    let blocking = BlockingParams::analytical(&carmel_sim::CacheHierarchy::carmel(), 8, 12, 4);
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());

    let variant = |name, kernel: KernelImpl, threads, mode| Variant {
        name,
        driver: BlisGemm::new(blocking).with_kernel(kernel).with_threads(threads),
        mode,
    };
    let variants = [
        variant("interp", exo_kernel_interp(Arc::clone(&kernel)), 1, Mode::Dense),
        variant("tape", exo_kernel_tape(Arc::clone(&kernel)), 1, Mode::Dense),
        variant("superword", exo_kernel_superword(Arc::clone(&kernel)), 1, Mode::Dense),
        variant("simd", exo_kernel_simd(Arc::clone(&kernel)), 1, Mode::Dense),
        variant("native", exo_kernel(Arc::clone(&kernel)), 1, Mode::Dense),
        variant("native+threads", exo_kernel(Arc::clone(&kernel)), 0, Mode::Dense),
        variant("native+strided", exo_kernel(Arc::clone(&kernel)), 1, Mode::Strided),
        variant("native+transB", exo_kernel(Arc::clone(&kernel)), 1, Mode::TransposedB),
    ];
    let names: Vec<&str> = variants.iter().map(|v| v.name).collect();

    println!("gemm_throughput — measured GFLOPS, EXO 8x12 kernel ({threads} host threads)");
    print!("{:<8}", "m=n=k");
    for name in &names {
        print!("{name:>16}");
    }
    println!();

    let mut gflops: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for &size in &sizes {
        print!("{size:<8}");
        for (vi, variant) in variants.iter().enumerate() {
            // The interpreter is orders of magnitude slower; never repeat it.
            let v_reps = if variant.name == "interp" { 1 } else { reps };
            let g = measure(variant, size, v_reps);
            gflops[vi].push(g);
            print!("{g:>16.3}");
        }
        println!();
    }

    let series_geomeans: Vec<f64> = gflops.iter().map(|g| geomean(g)).collect();
    // Look series up by name, not position, so reordering or inserting
    // variants cannot silently rewire the speedups or the ordering gate.
    let series_of = |name: &str| -> usize {
        names.iter().position(|n| *n == name).unwrap_or_else(|| panic!("no `{name}` series"))
    };
    let (interp_i, tape_i, sw_i, simd_i, native_i) = (
        series_of("interp"),
        series_of("tape"),
        series_of("superword"),
        series_of("simd"),
        series_of("native"),
    );
    let speedup_series = |num: usize, den: usize| -> (f64, f64) {
        let per_size: Vec<f64> = (0..sizes.len()).map(|i| gflops[num][i] / gflops[den][i]).collect();
        (per_size.iter().cloned().fold(f64::INFINITY, f64::min), geomean(&per_size))
    };
    let (tape_min, tape_geo) = speedup_series(tape_i, interp_i);
    let (sw_min, sw_geo) = speedup_series(sw_i, tape_i);
    let (simd_min, simd_geo) = speedup_series(simd_i, sw_i);
    let (native_min, native_geo) = speedup_series(native_i, simd_i);
    println!("\ntape over interp:     min {tape_min:.1}x, geomean {tape_geo:.1}x");
    println!("superword over tape:  min {sw_min:.1}x, geomean {sw_geo:.1}x");
    println!(
        "simd over superword:  min {simd_min:.1}x, geomean {simd_geo:.1}x{}",
        if simd_available() {
            format!("  (isa: {})", active_isa())
        } else {
            "  (no native ISA: both series ran the one scalar chain)".to_string()
        }
    );
    println!(
        "native over simd:     min {native_min:.1}x, geomean {native_geo:.1}x{}",
        match toolchain() {
            Some(tc) => format!("  (cc: {})", tc.version),
            None => "  (no C toolchain: native ran the simd chain)".to_string(),
        }
    );

    let solo = solo(&exo_kernel(Arc::clone(&kernel)), blocking.kc);
    match &solo {
        Ok(s) => println!(
            "solo 8x12 (kc {}):     generated {:.1} GFLOPS, hand-written {:.1} GFLOPS, ratio {:.3} \
             (median of {SOLO_PAIRS} alternating burst pairs)",
            s.kc, s.exo_gflops, s.hand_gflops, s.ratio
        ),
        Err(why) => println!("solo 8x12:            skipped — {why}"),
    }

    let movers = movers(&blocking);
    println!(
        "movers ({}):        pack A {}x{} {:.1} GB/s ({:.2}x the scalar mover), C tile {}x{} in+out {:.1} ns \
         ({:.2}x; medians of {MOVERS_PAIRS} alternating pairs)",
        active_isa(),
        blocking.mc,
        blocking.kc,
        movers.pack_a_gbps,
        movers.pack_a_ratio,
        blocking.mr,
        blocking.nr,
        movers.c_tile_ns,
        movers.c_tile_ratio
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"gemm_throughput\",\n");
    json.push_str("  \"kernel\": \"EXO 8x12\",\n");
    json.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    json.push_str(&format!("  \"host_threads\": {threads},\n"));
    json.push_str(&format!(
        "  \"sizes\": [{}],\n",
        sizes.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(", ")
    ));
    json.push_str("  \"gflops\": {\n");
    for (vi, variant) in variants.iter().enumerate() {
        let series = gflops[vi].iter().map(|&g| json_f64(g)).collect::<Vec<_>>().join(", ");
        let comma = if vi + 1 < variants.len() { "," } else { "" };
        json.push_str(&format!("    \"{}\": [{}]{}\n", variant.name, series, comma));
    }
    json.push_str("  },\n");
    json.push_str("  \"geomean_gflops\": {\n");
    for (vi, variant) in variants.iter().enumerate() {
        let comma = if vi + 1 < variants.len() { "," } else { "" };
        json.push_str(&format!("    \"{}\": {}{}\n", variant.name, json_f64(series_geomeans[vi]), comma));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"speedup_tape_over_interp\": {{ \"min\": {}, \"geomean\": {} }},\n",
        json_f64(tape_min),
        json_f64(tape_geo)
    ));
    json.push_str(&format!(
        "  \"speedup_superword_over_tape\": {{ \"min\": {}, \"geomean\": {} }},\n",
        json_f64(sw_min),
        json_f64(sw_geo)
    ));
    json.push_str(&format!(
        "  \"speedup_simd_over_superword\": {{ \"min\": {}, \"geomean\": {} }},\n",
        json_f64(simd_min),
        json_f64(simd_geo)
    ));
    json.push_str(&format!(
        "  \"speedup_native_over_simd\": {{ \"min\": {}, \"geomean\": {} }},\n",
        json_f64(native_min),
        json_f64(native_geo)
    ));
    json.push_str(&match &solo {
        Ok(s) => format!(
            "  \"solo\": {{ \"kc\": {}, \"exo_gflops\": {}, \"hand_gflops\": {}, \"ratio\": {} }},\n",
            s.kc,
            json_f64(s.exo_gflops),
            json_f64(s.hand_gflops),
            json_f64(s.ratio)
        ),
        Err(_) => "  \"solo\": null,\n".to_string(),
    });
    json.push_str(&format!(
        "  \"movers\": {{ \"pack_a_gbps\": {}, \"pack_a_vs_scalar\": {}, \"c_tile_ns\": {}, \
         \"c_tile_vs_scalar\": {} }},\n",
        json_f64(movers.pack_a_gbps),
        json_f64(movers.pack_a_ratio),
        json_f64(movers.c_tile_ns),
        json_f64(movers.c_tile_ratio)
    ));
    json.push_str(&format!("  \"simd_available\": {},\n", simd_available()));
    json.push_str(&format!("  \"native_available\": {},\n", native_available()));
    json.push_str(&format!(
        "  \"cc_version\": {},\n",
        match toolchain() {
            Some(tc) => format!("\"{}\"", tc.version.replace('\\', "\\\\").replace('"', "\\\"")),
            None => "null".to_string(),
        }
    ));
    json.push_str(&format!("  \"isa\": \"{}\",\n", active_isa().name()));
    json.push_str("  \"isa_available\": {\n");
    for (i, isa) in IsaKind::ALL.iter().enumerate() {
        let comma = if i + 1 < IsaKind::ALL.len() { "," } else { "" };
        json.push_str(&format!("    \"{}\": {}{}\n", isa.name(), isa.available(), comma));
    }
    json.push_str("  }\n");
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write BENCH_gemm.json");
    println!("wrote {out_path}");

    // CI gate 1: the backend ordering must hold at every size — a faster
    // tier measuring slower than its own fallback is a hard regression.
    // The simd leg is skipped where the active ISA is the scalar
    // reference: `simd` and `superword` are then the same executor, and
    // ordering a series against itself only measures noise.
    let mut failed = false;
    for (i, &size) in sizes.iter().enumerate() {
        if gflops[tape_i][i] < gflops[interp_i][i] {
            eprintln!("FAIL: tape slower than the interpreter at {size}");
            failed = true;
        }
        if gflops[sw_i][i] < gflops[tape_i][i] {
            eprintln!("FAIL: superword (the portable chain) slower than the scalar tape at {size}");
            failed = true;
        }
        if simd_available() && gflops[simd_i][i] < gflops[sw_i][i] {
            eprintln!("FAIL: simd slower than the portable scalar chain at {size}");
            failed = true;
        }
        // The native leg only applies where an artifact actually compiled:
        // without a toolchain the native series *is* the simd chain and the
        // two differ only by noise.
        if native_available() && gflops[native_i][i] < gflops[simd_i][i] {
            eprintln!("FAIL: native slower than the simd fallback at {size}");
            failed = true;
        }
    }
    // CI gates 2 to 4, under `--check`: the committed-baseline geomean
    // floors, the generated 8x12 against the hand-written one, and the
    // active ISA's mover against the scalar one.
    if let Some(baseline) = &baseline {
        if !check_against_baseline(baseline, &sizes, &names, &gflops) {
            failed = true;
        }
        match &solo {
            Ok(s) if s.ratio < SOLO_FLOOR => {
                eprintln!(
                    "CHECK FAIL: solo ratio {:.3} — the generated 8x12 runs below {SOLO_FLOOR} of the \
                     hand-written intrinsics kernel",
                    s.ratio
                );
                failed = true;
            }
            Ok(s) => println!("  solo             ratio   {:>8.3} (floor {SOLO_FLOOR:>8.3}) ok", s.ratio),
            Err(why) => println!("  solo             skipped — {why}"),
        }
        if active_isa() != IsaKind::Avx2 {
            println!(
                "  movers           skipped — the floor is AVX2's and the active ISA is `{}`",
                active_isa()
            );
        } else {
            for (what, ratio) in [("pack A", movers.pack_a_ratio), ("C tile", movers.c_tile_ratio)] {
                if ratio < MOVERS_FLOOR {
                    eprintln!(
                        "CHECK FAIL: movers {what} ratio {ratio:.3} — the AVX2 mover runs below \
                         {MOVERS_FLOOR}x the scalar one"
                    );
                    failed = true;
                } else {
                    println!("  movers {what:<9} ratio   {ratio:>8.3} (floor {MOVERS_FLOOR:>8.3}) ok");
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
