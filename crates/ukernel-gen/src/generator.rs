//! The micro-kernel generator: strategy selection, recipe execution, and
//! packaging of every artefact a consumer needs (scheduled IR, C code,
//! pseudo-assembly, machine trace, executable form).
//!
//! Generation is split at the schedule. [`MicroKernelGenerator::schedule`]
//! runs the recipe and extracts the machine trace — everything the
//! performance model reads — into a [`KernelSchedule`];
//! [`GeneratedKernel::lower`] turns a schedule into the C text, the
//! listing and the superword lowering a kernel runs from (which keeps the
//! scalar tape it was packed from, the reference of every tier). A
//! ranker reads schedules only, so a tile is lowered when something is
//! going to run it, and never to be compared.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use exo_codegen::{
    compile, emit_asm, emit_c, extract_trace, ExecBackend, KernelTrace, SimdKernel, SuperwordKernel,
};
use exo_ir::{Proc, ScalarType};
use exo_isa::VectorIsa;

use crate::error::{GenError, Result};
use crate::recipes::{broadcast_a_recipe, broadcast_b_recipe, laneq_recipe, scalar_recipe, RecipeStep};

/// Which scheduling recipe to use for a kernel shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The paper's Section III recipe: both tile dimensions vectorised,
    /// lane-indexed FMA.
    Laneq,
    /// Rows vectorised, `Bc` elements broadcast from memory (edge cases with
    /// arbitrary `nr`, and ISAs without a lane-indexed FMA).
    BroadcastB,
    /// Columns vectorised, the single `Ac` element broadcast from memory
    /// (`mr == 1` tiles such as the ResNet50 1x8 / 1x12 kernels; also the
    /// paper's non-packed-A variant, Section III-B).
    BroadcastA,
    /// Unvectorised fallback.
    Scalar,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::Laneq => "laneq",
            Strategy::BroadcastB => "broadcast-b",
            Strategy::BroadcastA => "broadcast-a",
            Strategy::Scalar => "scalar",
        };
        f.write_str(s)
    }
}

impl Strategy {
    /// Vector registers an `mr x nr` kernel keeps live under this strategy
    /// at `lanes` lanes — the `C` accumulators plus the staged `A`/`B`
    /// operand vectors — or `None` for the scalar fallback, which keeps no
    /// register tile.
    pub fn registers(self, lanes: usize, mr: usize, nr: usize) -> Option<usize> {
        match self {
            // C accumulators as (mr/lanes) x nr vectors, A column vectors,
            // B row vectors (both tile dimensions vectorised).
            Strategy::Laneq => Some((mr / lanes) * nr + mr / lanes + nr / lanes),
            // Rows vectorised; B elements broadcast through one register.
            Strategy::BroadcastB => Some((mr / lanes) * nr + mr / lanes + 1),
            // Columns vectorised; the single A element broadcast.
            Strategy::BroadcastA => Some(nr.div_ceil(lanes) + nr.div_ceil(lanes) + 1),
            Strategy::Scalar => None,
        }
    }
}

/// A register tile the modelled design space admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileShape {
    /// Register-tile rows.
    pub mr: usize,
    /// Register-tile columns.
    pub nr: usize,
    /// The scheduling strategy the generator chooses for the tile.
    pub strategy: Strategy,
    /// Modelled vector-register footprint of the kernel.
    pub registers: usize,
}

/// Options controlling kernel generation.
#[derive(Debug, Clone)]
pub struct KernelOptions {
    /// Register-tile rows.
    pub mr: usize,
    /// Register-tile columns.
    pub nr: usize,
    /// Force a specific strategy instead of letting the generator choose.
    pub strategy: Option<Strategy>,
    /// Unroll the operand-load loops (the paper's step f; on by default).
    pub unroll: bool,
}

impl KernelOptions {
    /// Default options for a tile shape.
    pub fn new(mr: usize, nr: usize) -> Self {
        KernelOptions { mr, nr, strategy: None, unroll: true }
    }
}

/// A scheduled micro-kernel: the recipe's output and the machine trace of
/// it, before any lowering — all a performance model needs to rank the
/// tile, and what a [`GeneratedKernel`] is lowered from.
#[derive(Debug, Clone)]
pub struct KernelSchedule {
    /// Register-tile rows.
    pub mr: usize,
    /// Register-tile columns.
    pub nr: usize,
    /// Element type.
    pub dtype: ScalarType,
    /// ISA the kernel targets.
    pub isa_name: String,
    /// Vector lanes of the target ISA.
    pub lanes: usize,
    /// The strategy that was used.
    pub strategy: Strategy,
    /// Scheduling snapshots (the paper's v1..v6).
    pub steps: Vec<RecipeStep>,
    /// The final scheduled procedure. Its reference semantics,
    /// `exo_ir::interp::run_proc`, is the bits every tier below computes.
    pub proc: Proc,
    /// Machine-operation trace for the performance model.
    pub trace: KernelTrace,
}

impl KernelSchedule {
    /// Floating-point operations the kernel performs for a given `KC`.
    pub fn flops(&self, kc: usize) -> u64 {
        2 * self.mr as u64 * self.nr as u64 * kc as u64
    }
}

/// A fully generated micro-kernel: its [`KernelSchedule`] (which it
/// dereferences to, so `kernel.proc`, `kernel.trace`, ... read the
/// schedule) and every artefact lowered from it.
#[derive(Debug, Clone)]
pub struct GeneratedKernel {
    /// The schedule this kernel lowers, shared with the cache that ranked
    /// it.
    pub schedule: Arc<KernelSchedule>,
    /// Generated C-with-intrinsics source.
    pub c_code: String,
    /// Pseudo-assembly listing of the k-loop (Fig. 12 analogue).
    pub asm: String,
    /// Superword lowering of the schedule's tape-compiled `proc`: the
    /// SLP-packed whole-vector ops plus the proofs a native body of them
    /// runs under — the IR both tiers consume. Its interpreter is the
    /// superword tier, the one that needs no C toolchain, and what
    /// [`Self::run_packed`] runs; the scalar tape it was packed from
    /// (`superword.tape()`), the flat executor that checks every access
    /// one lane at a time, is the reference the promotion probe compares a
    /// native body against.
    pub superword: Arc<SuperwordKernel>,
    /// The native tier's verdict, settled on the first [`Self::native`]
    /// call: [`Self::superword`]'s body from the table compiled at build
    /// time, probe-verified by the engine, or `None` — for good — when the
    /// table holds no body for it or the probe rejected it.
    native: OnceLock<Option<Arc<SimdKernel>>>,
}

impl Deref for GeneratedKernel {
    type Target = KernelSchedule;

    fn deref(&self) -> &KernelSchedule {
        &self.schedule
    }
}

impl GeneratedKernel {
    /// Runs the kernel on packed operands: `c[nr][mr] += ac[kc][mr] *
    /// bc[kc][nr]` (row-major, exactly the layouts of the paper's Fig. 5)
    /// — a one-shot [`Self::dispatcher`]`(`[`ExecBackend::Superword`]`)` run:
    /// the superword interpreter, bit-identical to every other tier.
    /// Any other tier: `dispatcher(backend).run(..)`.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Codegen`] if the buffers do not match the kernel's
    /// shape.
    pub fn run_packed(&self, kc: usize, ac: &[f32], bc: &[f32], c: &mut [f32]) -> Result<()> {
        Ok(self.dispatcher(ExecBackend::Superword).run(kc, ac, bc, c)?)
    }

    /// The native kernel: [`Self::superword`]'s emitted C, looked up by its
    /// hash in the table of bodies compiled when the workspace was built,
    /// and promoted once the engine's probe reproduced the scalar tape bit
    /// for bit. Settled synchronously on the first call and cached: `None`
    /// for good when the table holds no body for this kernel on the active
    /// ISA (a tile outside the admitted spaces, or a build with no C
    /// compiler), the emitter declines the lowering, or the probe rejected
    /// the body. Callers then serve on the superword interpreter, which
    /// computes the same bits.
    pub fn native(&self) -> Option<Arc<SimdKernel>> {
        self.native
            .get_or_init(|| exo_aot::engine().compile(&self.superword, exo_codegen::active_isa()).ok())
            .clone()
    }

    /// The same call as [`Self::native`], which no longer has anything to
    /// wait for; kept for the callers that settle the native tier before
    /// they measure it.
    pub fn native_wait(&self) -> Option<Arc<SimdKernel>> {
        self.native()
    }

    /// Lowers a schedule: the C text, the listing of its trace, and the
    /// superword form of its tape. The recipe is not run again.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Codegen`] if any lowering cannot be built: a
    /// kernel comes back with all of them or not at all.
    pub(crate) fn lower(schedule: Arc<KernelSchedule>) -> Result<GeneratedKernel> {
        let c_code = emit_c(&schedule.proc)?;
        let asm = emit_asm(&schedule.trace);
        let superword = Arc::new(Arc::new(compile(&schedule.proc)?).to_superword()?);
        Ok(GeneratedKernel { schedule, c_code, asm, superword, native: OnceLock::new() })
    }
}

/// Generates size-specialised micro-kernels for one instruction set, the
/// paper's `EXO_ukr_generator`.
#[derive(Debug, Clone)]
pub struct MicroKernelGenerator {
    isa: VectorIsa,
    base: Proc,
}

impl MicroKernelGenerator {
    /// Creates a generator for an instruction set, starting every recipe from
    /// the reference kernel of the paper's Fig. 5 in the ISA's element type.
    pub fn new(isa: VectorIsa) -> Self {
        let base = exo_isa::ukernel_ref_simple(isa.elem);
        MicroKernelGenerator { isa, base }
    }

    /// The target instruction set.
    pub fn isa(&self) -> &VectorIsa {
        &self.isa
    }

    /// Chooses the scheduling strategy for a tile shape, mirroring the
    /// decision procedure of Sections III-B/III-C.
    pub fn choose_strategy(&self, mr: usize, nr: usize) -> Strategy {
        let lanes = self.isa.lanes;
        let has_lane_fma = self.isa.fma_lane.is_some();
        if mr.is_multiple_of(lanes) && nr.is_multiple_of(lanes) && has_lane_fma {
            Strategy::Laneq
        } else if mr.is_multiple_of(lanes) {
            Strategy::BroadcastB
        } else if mr == 1 && nr.is_multiple_of(lanes) {
            Strategy::BroadcastA
        } else {
            Strategy::Scalar
        }
    }

    /// The register tiles the modelled design space of this generator's
    /// ISA admits: one vector row (`mr = 1`) or up to four vectors tall,
    /// one to six vectors wide, with a vectorised strategy whose register
    /// footprint fits a 32-entry vector register file (what ARM Neon and
    /// AVX-512 both have). Rows first, then columns, each ascending. This
    /// is the tile list every design space filters and the list whose C
    /// the native tier compiles when the workspace builds.
    pub fn admitted_tiles(&self) -> Vec<TileShape> {
        const REGISTER_FILE: usize = 32;
        let lanes = self.isa.lanes;
        let rows = std::iter::once(1).chain((1..=4).map(|i| i * lanes));
        let mut tiles = Vec::new();
        for mr in rows {
            for nr in (1..=6).map(|j| j * lanes) {
                let strategy = self.choose_strategy(mr, nr);
                match strategy.registers(lanes, mr, nr) {
                    Some(registers) if registers <= REGISTER_FILE => {
                        tiles.push(TileShape { mr, nr, strategy, registers })
                    }
                    _ => {}
                }
            }
        }
        tiles
    }

    /// Generates a kernel with default options: [`Self::schedule`], then
    /// the lowering of that schedule.
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] if no recipe can produce the requested shape.
    pub fn generate(&self, mr: usize, nr: usize) -> Result<GeneratedKernel> {
        self.generate_with(&KernelOptions::new(mr, nr))
    }

    /// Generates a kernel with explicit options: the recipe and the trace,
    /// then their lowering.
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] if the requested strategy cannot handle the shape
    /// or a scheduling step fails, and [`GenError::Codegen`] if the trace or
    /// any lowering of the scheduled form — C text, tape, superword —
    /// cannot be built: a kernel comes back with all of them or not at all.
    pub fn generate_with(&self, opts: &KernelOptions) -> Result<GeneratedKernel> {
        GeneratedKernel::lower(Arc::new(self.schedule_with(opts)?))
    }

    /// Schedules a kernel with default options: runs the recipe and
    /// extracts the trace, lowering nothing.
    ///
    /// # Errors
    ///
    /// Returns [`GenError`] if no recipe can produce the requested shape.
    pub fn schedule(&self, mr: usize, nr: usize) -> Result<KernelSchedule> {
        self.schedule_with(&KernelOptions::new(mr, nr))
    }

    /// Schedules a kernel with explicit options; it fails as
    /// [`Self::generate_with`] does before any lowering.
    fn schedule_with(&self, opts: &KernelOptions) -> Result<KernelSchedule> {
        if opts.mr == 0 || opts.nr == 0 {
            return Err(GenError::UnsupportedShape {
                mr: opts.mr,
                nr: opts.nr,
                reason: "tile dimensions must be positive".into(),
            });
        }
        let strategy = opts.strategy.unwrap_or_else(|| self.choose_strategy(opts.mr, opts.nr));
        let steps = match strategy {
            Strategy::Laneq => laneq_recipe(&self.base, &self.isa, opts.mr, opts.nr, opts.unroll)?,
            Strategy::BroadcastB => broadcast_b_recipe(&self.base, &self.isa, opts.mr, opts.nr, opts.unroll)?,
            Strategy::BroadcastA => broadcast_a_recipe(&self.base, &self.isa, opts.mr, opts.nr, opts.unroll)?,
            Strategy::Scalar => scalar_recipe(&self.base, opts.mr, opts.nr)?,
        };
        let proc = steps.last().expect("every recipe produces at least one step").proc.clone();
        let trace = extract_trace(&proc, "KC")?;
        Ok(KernelSchedule {
            mr: opts.mr,
            nr: opts.nr,
            dtype: self.isa.elem,
            isa_name: self.isa.name.clone(),
            lanes: self.isa.lanes,
            strategy,
            steps,
            proc,
            trace,
        })
    }
}

/// A collection of generated kernels covering a set of tile shapes — the
/// "collection of Exo generated C code, each handling a different edge case"
/// that replaces the single library micro-kernel.
#[derive(Debug, Clone, Default)]
pub struct KernelSet {
    kernels: Vec<Arc<GeneratedKernel>>,
}

impl KernelSet {
    /// Generates kernels for every shape in `sizes`.
    ///
    /// # Errors
    ///
    /// Returns the first generation failure.
    pub fn generate(generator: &MicroKernelGenerator, sizes: &[(usize, usize)]) -> Result<Self> {
        let mut kernels = Vec::new();
        for &(mr, nr) in sizes {
            kernels.push(Arc::new(generator.generate(mr, nr)?));
        }
        Ok(KernelSet { kernels })
    }

    /// The tile shapes the paper evaluates: the native 8x12 BLIS shape, the
    /// solo-mode edge cases of Fig. 13, and the 1-row shapes used for the
    /// ResNet50 layers (Section IV-C).
    pub fn paper_shapes() -> Vec<(usize, usize)> {
        vec![(8, 12), (8, 8), (8, 4), (4, 12), (4, 8), (4, 4), (1, 12), (1, 8)]
    }

    /// All kernels in the set.
    pub fn kernels(&self) -> &[Arc<GeneratedKernel>] {
        &self.kernels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_codegen::CodegenError;
    use exo_isa::{avx512_f32, neon_f16, neon_f32};

    fn naive(mr: usize, nr: usize, kc: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for k in 0..kc {
            for j in 0..nr {
                for i in 0..mr {
                    c[j * mr + i] = a[k * mr + i].mul_add(b[k * nr + j], c[j * mr + i]);
                }
            }
        }
    }

    /// The reference semantics on packed operands: the interpreter run on a
    /// copy of `c0`.
    fn interpret(kernel: &GeneratedKernel, kc: usize, a: &[f32], b: &[f32], c0: &[f32]) -> Vec<f32> {
        let mut c = c0.to_vec();
        exo_ir::interp::run_packed(&kernel.proc, kc, a, b, &mut c).unwrap();
        c
    }

    fn check_against_naive(kernel: &GeneratedKernel, kc: usize) {
        let (mr, nr) = (kernel.mr, kernel.nr);
        let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 13 + 5) % 17) as f32 * 0.25 - 2.0).collect();
        let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 7 + 11) % 19) as f32 * 0.125 - 1.0).collect();
        let mut c: Vec<f32> = (0..nr * mr).map(|i| (i % 7) as f32 * 0.5).collect();
        let mut c_ref = c.clone();
        kernel.run_packed(kc, &a, &b, &mut c).unwrap();
        naive(mr, nr, kc, &a, &b, &mut c_ref);
        for (idx, (x, y)) in c.iter().zip(&c_ref).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{mr}x{nr} kernel ({}) mismatch at {idx}: {x} vs {y}",
                kernel.strategy
            );
        }
    }

    #[test]
    fn all_paper_shapes_generate_and_match_naive_gemm() {
        let generator = MicroKernelGenerator::new(neon_f32());
        for (mr, nr) in KernelSet::paper_shapes() {
            let kernel = generator.generate(mr, nr).unwrap();
            check_against_naive(&kernel, 37);
        }
    }

    #[test]
    fn every_paper_shape_tape_compiles_and_matches_the_interpreter_bit_for_bit() {
        let generator = MicroKernelGenerator::new(neon_f32());
        for (mr, nr) in KernelSet::paper_shapes() {
            let kernel = generator.generate(mr, nr).unwrap();
            // Scheduled kernels stage the C tile (and vector operands) in
            // locals, which the tape register-allocates.
            let tape = kernel.superword.tape();
            assert!(tape.register_count() >= mr * nr, "{mr}x{nr} C tile must live in registers");
            let kc = 23;
            let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 13 + 5) % 17) as f32 * 0.25 - 2.0).collect();
            let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 7 + 11) % 19) as f32 * 0.125 - 1.0).collect();
            let c0: Vec<f32> = (0..nr * mr).map(|i| (i % 7) as f32 * 0.5).collect();
            // The tape computes the interpreter's bits.
            let mut c_tape = c0.clone();
            tape.run_packed(kc, &a, &b, &mut c_tape).unwrap();
            assert_eq!(
                c_tape,
                interpret(&kernel, kc, &a, &b, &c0),
                "{mr}x{nr} tape diverges from the interpreter"
            );
            // So does the superword tier, and the one-shot default.
            let mut dispatch = kernel.dispatcher(ExecBackend::Superword);
            assert_eq!(dispatch.tier(), ExecBackend::Superword, "{mr}x{nr}: a pin is its own tier");
            let mut c_superword = c0.clone();
            dispatch.run(kc, &a, &b, &mut c_superword).unwrap();
            assert_eq!(c_superword, c_tape, "{mr}x{nr} superword diverges from the tape");
            let mut c_default = c0.clone();
            kernel.run_packed(kc, &a, &b, &mut c_default).unwrap();
            assert_eq!(c_default, c_tape, "{mr}x{nr}: run_packed diverges from the tape");
        }
    }

    /// Generation is total over the bundled instruction libraries, and a
    /// kernel that comes back is whole: the superword pin resolves to
    /// itself (the native pin is the ladder's one edge, held by
    /// `dispatch::tests`), and it and the tape it was packed from compute
    /// the interpreter's bits.
    #[test]
    fn every_tile_generates_whole_and_every_pin_is_its_own_tier() {
        use ExecBackend::*;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut sampled = 0;
        for isa in [neon_f32(), neon_f16(), avx512_f32()] {
            let generator = MicroKernelGenerator::new(isa.clone());
            for (mr, nr) in (1..=16).flat_map(|mr| (1..=16).map(move |nr| (mr, nr))) {
                for unroll in [true, false] {
                    let label = format!("{} {mr}x{nr} unroll={unroll}", isa.name);
                    let kernel = generator
                        .generate_with(&KernelOptions { unroll, ..KernelOptions::new(mr, nr) })
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    if next() % 24 != 0 {
                        continue;
                    }
                    sampled += 1;
                    for kc in [0usize, 1, 17] {
                        let mut operand = |len: usize| {
                            (0..len).map(|_| (next() % 64) as f32 / 32.0 - 1.0).collect::<Vec<f32>>()
                        };
                        let (a, b, c0) = (operand(kc * mr), operand(kc * nr), operand(mr * nr));
                        let mut dispatch = kernel.dispatcher(Superword);
                        assert_eq!(dispatch.tier(), Superword, "{label}: a pin is its own tier");
                        let mut c_superword = c0.clone();
                        dispatch.run(kc, &a, &b, &mut c_superword).unwrap_or_else(|e| panic!("{label}: {e}"));
                        let mut c_tape = c0.clone();
                        kernel.superword.tape().run_packed(kc, &a, &b, &mut c_tape).unwrap();
                        let c_interp = interpret(&kernel, kc, &a, &b, &c0);
                        assert_eq!(c_tape, c_interp, "{label} kc={kc}: tape vs interpreter");
                        assert_eq!(c_superword, c_interp, "{label} kc={kc}: superword vs interpreter");
                    }
                    // A call that does not fit the tile is a typed error, not a run.
                    let misfit = kernel.dispatcher(Superword).run(0, &[], &[], &mut vec![0.0; mr * nr + 1]);
                    assert!(matches!(misfit, Err(CodegenError::BadArguments { .. })), "{label}: {misfit:?}");
                }
            }
        }
        assert!(sampled >= 32, "the sample must not be empty: {sampled}");
    }

    #[test]
    fn strategy_selection_follows_the_paper() {
        let generator = MicroKernelGenerator::new(neon_f32());
        assert_eq!(generator.choose_strategy(8, 12), Strategy::Laneq);
        assert_eq!(generator.choose_strategy(4, 4), Strategy::Laneq);
        assert_eq!(generator.choose_strategy(8, 6), Strategy::BroadcastB);
        assert_eq!(generator.choose_strategy(1, 12), Strategy::BroadcastA);
        assert_eq!(generator.choose_strategy(3, 5), Strategy::Scalar);

        let avx = MicroKernelGenerator::new(avx512_f32());
        assert_eq!(avx.choose_strategy(16, 16), Strategy::BroadcastB);
    }

    #[test]
    fn trace_of_the_8x12_kernel_matches_the_paper() {
        let generator = MicroKernelGenerator::new(neon_f32());
        let kernel = generator.generate(8, 12).unwrap();
        assert_eq!(kernel.strategy, Strategy::Laneq);
        assert_eq!(kernel.trace.per_k_count(exo_ir::InstrClass::VecFma), 24);
        assert_eq!(kernel.trace.per_k_count(exo_ir::InstrClass::VecLoad), 5);
        assert_eq!(kernel.trace.once_count(exo_ir::InstrClass::VecLoad), 24);
        assert_eq!(kernel.trace.once_count(exo_ir::InstrClass::VecStore), 24);
        assert_eq!(kernel.trace.total_flops(512), kernel.flops(512));
        // The generated C code carries the Neon intrinsics.
        assert!(kernel.c_code.contains("vfmaq_laneq_f32"));
        assert!(kernel.asm.contains("fmla"));
    }

    #[test]
    fn avx512_and_f16_targets_generate() {
        let avx = MicroKernelGenerator::new(avx512_f32());
        let k = avx.generate(16, 4).unwrap();
        assert_eq!(k.strategy, Strategy::BroadcastB);
        check_against_naive(&k, 23);

        let f16 = MicroKernelGenerator::new(neon_f16());
        let k = f16.generate(8, 8).unwrap();
        assert_eq!(k.strategy, Strategy::Laneq);
        assert_eq!(k.dtype, ScalarType::F16);
        // f16 storage is lossy; use small exact values.
        let kc = 8;
        let a = vec![0.5f32; kc * 8];
        let b = vec![0.25f32; kc * 8];
        let mut c = vec![0.0f32; 64];
        k.run_packed(kc, &a, &b, &mut c).unwrap();
        assert!(c.iter().all(|&v| (v - kc as f32 * 0.125).abs() < 1e-3), "{c:?}");
    }

    #[test]
    fn scalar_fallback_is_used_for_odd_shapes() {
        let generator = MicroKernelGenerator::new(neon_f32());
        let kernel = generator.generate(3, 5).unwrap();
        assert_eq!(kernel.strategy, Strategy::Scalar);
        check_against_naive(&kernel, 11);
    }

    #[test]
    fn generation_rejects_degenerate_shapes() {
        let generator = MicroKernelGenerator::new(neon_f32());
        assert!(generator.generate(0, 4).is_err());
    }

    #[test]
    fn unroll_ablation_changes_structure_not_semantics() {
        let generator = MicroKernelGenerator::new(neon_f32());
        let rolled =
            generator.generate_with(&KernelOptions { unroll: false, ..KernelOptions::new(8, 12) }).unwrap();
        let unrolled = generator.generate(8, 12).unwrap();
        assert!(rolled.steps.len() < unrolled.steps.len());
        check_against_naive(&rolled, 19);
        // Same instruction counts per k iteration either way.
        assert_eq!(
            rolled.trace.per_k_count(exo_ir::InstrClass::VecFma),
            unrolled.trace.per_k_count(exo_ir::InstrClass::VecFma)
        );
    }

    #[test]
    fn forced_strategy_is_respected() {
        let generator = MicroKernelGenerator::new(neon_f32());
        let opts = KernelOptions { strategy: Some(Strategy::BroadcastB), ..KernelOptions::new(8, 12) };
        let kernel = generator.generate_with(&opts).unwrap();
        assert_eq!(kernel.strategy, Strategy::BroadcastB);
        check_against_naive(&kernel, 13);
    }
}
