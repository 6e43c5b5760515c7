//! The micro-kernel implementations the paper compares (Section IV):
//!
//! * `NEON` — a hand-written kernel using Neon intrinsics,
//! * `BLIS` — the BLIS v0.9 assembly kernel (with software prefetch of the
//!   `C` tile and edge-case handling),
//! * `EXO`  — kernels generated by [`ukernel_gen`], one per tile shape.
//!
//! This repository has neither the intrinsics nor the assembly, so `NEON`
//! and `BLIS` exist only as [`ModelledKernel`]s: a machine-operation trace
//! plus a modelled per-iteration overhead, which is all Figs. 13–18 read.
//! The monolithic library kernels carry edge-case and alpha/beta
//! bookkeeping in the loop body, the compiler-scheduled intrinsics version
//! is a little less tight than the assembly one, and only the BLIS library
//! kernel prefetches `C` — exactly the distinctions the paper draws. An
//! `EXO` descriptor is a scheduled kernel's own trace
//! ([`ModelledKernel::generated`]), read off its schedule: a kernel is
//! modelled without being lowered.
//!
//! A kernel that runs is a generated one: [`KernelImpl`] wraps a
//! [`GeneratedKernel`] and the tier it is pinned to, and nothing else
//! executes the micro-kernel semantics in the GEMM driver. Its call handle
//! is the generated kernel's own [`TierDispatch`]
//! ([`KernelImpl::dispatcher`]): the engine holds it beside the kernel and
//! calls it once per register tile.
//!
//! "Only the BLIS library kernel prefetches `C`" describes the modelled
//! kernel traces ([`ModelledKernel::prefetch_c`]). The executing engine
//! prefetches the next `C` tile for every kernel it drives, once the
//! window of `C` outgrows the L1d (see [`crate::algorithm`]); the model
//! does not see that.

use std::sync::{Arc, OnceLock};

use exo_codegen::{KernelTrace, MachineOp};
use exo_ir::{InstrClass, ScalarType};
use ukernel_gen::{GenError, GeneratedKernel, KernelSchedule, MicroKernelGenerator, TierDispatch};
// The tier pin lives where the tier ladder is resolved; re-exported here
// (and from the crate root) for the driver's callers.
pub use ukernel_gen::ExecBackend;

use crate::GemmError;

/// An executable micro-kernel: a generated, size-specialised kernel and
/// the tier it is asked to run on.
#[derive(Debug, Clone)]
pub struct KernelImpl {
    /// Display name (`"EXO 8x12"`, `"EXO 8x12 (superword)"`, ...): the tile
    /// and the pin, shared with the [`crate::GemmStats::kernel`] of every
    /// GEMM it runs.
    pub name: Arc<str>,
    /// Register-tile rows.
    pub mr: usize,
    /// Register-tile columns.
    pub nr: usize,
    /// The generated kernel this runs.
    pub generated: Arc<GeneratedKernel>,
    /// The execution tier asked for ([`GeneratedKernel::dispatcher`]).
    pub backend: ExecBackend,
}

impl KernelImpl {
    /// Pins the execution backend (see [`ExecBackend`]), renaming the
    /// kernel after the new pin.
    #[must_use]
    pub fn with_backend(self, backend: ExecBackend) -> Self {
        KernelImpl { name: exo_name(self.mr, self.nr, backend), backend, ..self }
    }

    /// Runs the kernel functionally: `c[nr][mr] += a[kc][mr] * b[kc][nr]`,
    /// on [`Self::backend`] — a one-shot [`Self::dispatcher`] run.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::Kernel`] if the buffer sizes do not match the
    /// shape (the tier handle's one length check).
    pub fn run(&self, kc: usize, a: &[f32], b: &[f32], c: &mut [f32]) -> Result<(), GemmError> {
        self.dispatcher().run(kc, a, b, c).map_err(|e| GemmError::Kernel {
            kernel: self.name.to_string(),
            message: GenError::from(e).to_string(),
        })
    }

    /// A reusable dispatch handle for this kernel: the generated kernel's
    /// [`TierDispatch`] on [`Self::backend`].
    ///
    /// Every five-loop engine instance (`GemmRunner`) holds one beside its
    /// kernel, so a generated kernel proves its affine-interval obligations
    /// and allocates its register file **once** per distinct `(KC, buffer
    /// lengths)` input instead of on every micro-tile — the fringe tiles
    /// of a blocked problem no longer re-prove and re-allocate thousands
    /// of times. The tier is resolved here: the native one when the
    /// build-time table holds a verified body for the kernel, else the
    /// superword interpreter — bit-identical, so which one serves is
    /// invisible except for speed.
    pub fn dispatcher(&self) -> TierDispatch {
        self.generated.dispatcher(self.backend)
    }
}

/// A micro-kernel as the performance model reads it: the tile, the
/// machine-operation trace of one invocation, and what the trace does not
/// say. Nothing here executes; [`crate::GemmSimulator`],
/// [`crate::modelled_gemm_cycles`] and the `exo-tune` ranker read it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelledKernel {
    /// Display name (`"NEON"`, `"BLIS"`, `"EXO 8x8"`, ...), the
    /// [`crate::SimResult::kernel`] of every simulation that picks it.
    pub name: Arc<str>,
    /// Register-tile rows.
    pub mr: usize,
    /// Register-tile columns.
    pub nr: usize,
    /// Machine-operation trace of one invocation.
    pub trace: KernelTrace,
    /// Extra modelled cycles per `k` iteration (edge-case logic, scheduling
    /// slack). Zero for generated kernels.
    pub per_k_overhead: f64,
    /// Whether the kernel software-prefetches the `C` tile.
    pub prefetch_c: bool,
}

impl ModelledKernel {
    /// A generated kernel as the paper's `EXO` series models it: no
    /// edge-case logic, no prefetch, exactly the scheduled trace. It reads
    /// the schedule alone, so a [`GeneratedKernel`] (which dereferences to
    /// its schedule) models exactly as the schedule it was lowered from.
    pub fn generated(kernel: &KernelSchedule) -> Self {
        ModelledKernel {
            name: format!("EXO {}x{}", kernel.mr, kernel.nr).into(),
            mr: kernel.mr,
            nr: kernel.nr,
            trace: kernel.trace.clone(),
            per_k_overhead: 0.0,
            prefetch_c: false,
        }
    }
}

/// Builds the trace of a monolithic 8x12-style kernel for a given tile shape:
/// the vector loads and lane-indexed FMAs of the paper's Fig. 11/12, plus
/// `extra_scalar_ops` bookkeeping operations per iteration (edge-case checks)
/// and optional `C` prefetches.
fn monolithic_trace(
    name: &str,
    mr: usize,
    nr: usize,
    lanes: usize,
    extra_scalar_ops: u64,
    prefetch: bool,
) -> KernelTrace {
    let vec_op = |class, buffer: Option<&str>, count| MachineOp {
        class,
        lanes,
        elem: ScalarType::F32,
        buffer: buffer.map(|b| b.into()),
        count,
    };
    let c_vectors = (mr / lanes).max(1) * nr;
    let mut per_k = vec![
        vec_op(InstrClass::VecLoad, Some("Ac"), (mr / lanes).max(1) as u64),
        vec_op(InstrClass::VecLoad, Some("Bc"), (nr / lanes).max(1) as u64),
        vec_op(InstrClass::VecFma, None, c_vectors as u64),
    ];
    if extra_scalar_ops > 0 {
        per_k.push(MachineOp {
            class: InstrClass::Other,
            lanes: 1,
            elem: ScalarType::F32,
            buffer: None,
            count: extra_scalar_ops,
        });
    }
    if prefetch {
        per_k.push(vec_op(InstrClass::Prefetch, Some("C"), 2));
    }
    KernelTrace {
        name: name.to_string(),
        prologue: vec![vec_op(InstrClass::VecLoad, Some("C"), c_vectors as u64)],
        per_k,
        epilogue: vec![vec_op(InstrClass::VecStore, Some("C"), c_vectors as u64)],
        inner_loop_levels: 3,
    }
}

/// The hand-written Neon-intrinsics 8x12 kernel (the paper's `NEON`
/// series), as modelled.
pub fn neon_intrinsics_kernel() -> ModelledKernel {
    ModelledKernel {
        name: "NEON".into(),
        mr: 8,
        nr: 12,
        trace: monolithic_trace("neon_8x12", 8, 12, 4, 3, false),
        per_k_overhead: 1.5,
        prefetch_c: false,
    }
}

/// The BLIS v0.9 assembly 8x12 kernel (the paper's `BLIS` series), as
/// modelled. `prefetch` selects whether the software prefetch of `C` is
/// active — it is inside the BLIS library, and inactive when the kernel is
/// dropped into the external BLIS-like algorithm (`ALG+BLIS`), which is
/// exactly the distinction the paper uses to explain Fig. 14.
pub fn blis_assembly_kernel(prefetch: bool) -> ModelledKernel {
    ModelledKernel {
        name: if prefetch { "BLIS" } else { "ALG+BLIS kernel" }.into(),
        mr: 8,
        nr: 12,
        trace: monolithic_trace("blis_8x12", 8, 12, 4, 2, prefetch),
        per_k_overhead: 0.75,
        prefetch_c: prefetch,
    }
}

/// Wraps a generated kernel as a [`KernelImpl`] (the paper's `EXO`
/// series). Executes through the native body compiled at build time when
/// the table holds one for the kernel (the fastest tier), and
/// bit-faithfully on the superword interpreter when it does not —
/// [`TierDispatch::tier`] says which.
pub fn exo_kernel(kernel: Arc<GeneratedKernel>) -> KernelImpl {
    KernelImpl {
        name: exo_name(kernel.mr, kernel.nr, ExecBackend::Native),
        mr: kernel.mr,
        nr: kernel.nr,
        generated: kernel,
        backend: ExecBackend::Native,
    }
}

/// The name of a generated `mr x nr` kernel pinned to `backend`: the
/// default native pin is the plain `EXO` series, any other pin says its
/// tier.
fn exo_name(mr: usize, nr: usize, backend: ExecBackend) -> Arc<str> {
    let pin = match backend {
        ExecBackend::Native => "",
        ExecBackend::Superword => " (superword)",
    };
    format!("EXO {mr}x{nr}{pin}").into()
}

/// Like [`exo_kernel`] but pinned to the superword interpreter — the
/// floor of the ladder: the tier that needs no C toolchain, what the
/// serving layer's retry degrades the native tier onto, and the one the
/// native tier must match bit for bit. The pin lets the differential tests
/// and benches compare the compiled artifact against the ops it was
/// lowered from.
pub fn exo_kernel_superword(kernel: Arc<GeneratedKernel>) -> KernelImpl {
    exo_kernel(kernel).with_backend(ExecBackend::Superword)
}

/// The kernel a [`crate::BlisGemm`] runs until it is given another: the
/// generated `neon_f32` 8x12 — the paper's monolithic tile — on the
/// default native pin, which serves on the superword interpreter where the
/// build left no body for it. Generated once per process.
pub(crate) fn default_kernel() -> KernelImpl {
    static KERNEL: OnceLock<Arc<GeneratedKernel>> = OnceLock::new();
    let kernel = KERNEL.get_or_init(|| {
        let generator = MicroKernelGenerator::new(exo_isa::neon_f32());
        Arc::new(generator.generate(8, 12).expect("the 8x12 kernel generates"))
    });
    exo_kernel(Arc::clone(kernel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_isa::neon_f32;
    use ukernel_gen::MicroKernelGenerator;

    fn run_and_check(kernel: &KernelImpl, kc: usize) {
        let (mr, nr) = (kernel.mr, kernel.nr);
        let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 3 + 1) % 7) as f32 * 0.5).collect();
        let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + 2) % 9) as f32 - 4.0).collect();
        let mut c = vec![0.0f32; mr * nr];
        kernel.run(kc, &a, &b, &mut c).unwrap();
        let mut c_ref = vec![0.0f32; mr * nr];
        for k in 0..kc {
            for j in 0..nr {
                for i in 0..mr {
                    c_ref[j * mr + i] = a[k * mr + i].mul_add(b[k * nr + j], c_ref[j * mr + i]);
                }
            }
        }
        for (x, y) in c.iter().zip(&c_ref) {
            // The kernels fuse each multiply-add, `k` ascending, as this
            // loop does.
            assert_eq!(x.to_bits(), y.to_bits(), "{} mismatch: {x} vs {y}", kernel.name);
        }
    }

    #[test]
    fn all_baselines_compute_the_same_update() {
        // The baselines' 8x12 tile executes as the generated kernel: the
        // driver's default and the native default alike.
        run_and_check(&default_kernel(), 33);
        let generator = MicroKernelGenerator::new(neon_f32());
        let exo = exo_kernel(Arc::new(generator.generate(8, 12).unwrap()));
        run_and_check(&exo, 33);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let mut c = vec![0.0f32; 8 * 12];
        // A kernel's one length check is its tier handle's, on every tier —
        // the driver never gets a misfit as far as a body.
        let exo = exo_kernel(Arc::new(MicroKernelGenerator::new(neon_f32()).generate(8, 12).unwrap()));
        for (backend, name) in
            [(ExecBackend::Native, "EXO 8x12"), (ExecBackend::Superword, "EXO 8x12 (superword)")]
        {
            let imp = exo.clone().with_backend(backend);
            let misfit = imp.run(4, &[0.0; 3], &[0.0; 48], &mut c);
            assert!(matches!(misfit, Err(GemmError::Kernel { .. })), "{backend:?}: {misfit:?}");
            // A short `C` through the handle: the tier's own error, naming
            // the lengths it expected; through `run`, the same error as the
            // generator reports a backend failure, under the kernel's name.
            let (a, b) = ([0.0; 32], [0.0; 48]);
            let short = imp.dispatcher().run(4, &a, &b, &mut c[..95]).unwrap_err();
            assert!(short.to_string().contains("expected Ac[32], Bc[48], C[96]"), "{backend:?}: {short}");
            assert_eq!(
                imp.run(4, &a, &b, &mut c[..95]),
                Err(GemmError::Kernel { kernel: name.into(), message: GenError::from(short).to_string() }),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn traces_reflect_the_modelling_distinctions() {
        let neon = neon_intrinsics_kernel();
        let blis = blis_assembly_kernel(true);
        let alg_blis = blis_assembly_kernel(false);
        // Same vector work.
        assert_eq!(neon.trace.per_k_count(InstrClass::VecFma), blis.trace.per_k_count(InstrClass::VecFma));
        // Only the library BLIS kernel prefetches C.
        assert!(blis.trace.per_k_count(InstrClass::Prefetch) > 0);
        assert_eq!(alg_blis.trace.per_k_count(InstrClass::Prefetch), 0);
        assert!(blis.prefetch_c && !alg_blis.prefetch_c && !neon.prefetch_c);
        // The intrinsics kernel carries more bookkeeping than the assembly one.
        assert!(neon.per_k_overhead > blis.per_k_overhead);
    }

    #[test]
    fn the_default_backend_is_native_and_degrades_to_superword() {
        assert_eq!(ExecBackend::default(), ExecBackend::Native);
        assert_eq!(ExecBackend::Native.degraded(), Some(ExecBackend::Superword));
        assert_eq!(ExecBackend::Superword.degraded(), None, "the superword interpreter is the floor");
    }

    #[test]
    fn pinned_backends_agree_with_the_reference_bit_for_bit() {
        // Every pin computes the reference interpreter's bits: the native
        // default (its artifact, or the silent fallback to the superword
        // interpreter) and the superword interpreter — and so does the
        // tape they were lowered from, the probe's reference.
        let generator = MicroKernelGenerator::new(neon_f32());
        let kernel = Arc::new(generator.generate(8, 12).unwrap());
        let kc = 37usize;
        let a: Vec<f32> = (0..kc * 8).map(|i| ((i * 7 + 3) % 13) as f32 * 0.37 - 1.5).collect();
        let b: Vec<f32> = (0..kc * 12).map(|i| ((i * 5 + 1) % 11) as f32 * 0.21 - 0.5).collect();
        let c0: Vec<f32> = (0..96).map(|i| (i % 5) as f32 * 0.5).collect();
        let run = |imp: &KernelImpl| {
            let mut c = c0.clone();
            imp.run(kc, &a, &b, &mut c).unwrap();
            c
        };
        let mut c_interp = c0.clone();
        exo_ir::interp::run_packed(&kernel.proc, kc, &a, &b, &mut c_interp).unwrap();
        let mut c_tape = c0.clone();
        kernel.superword.tape().run_packed(kc, &a, &b, &mut c_tape).unwrap();
        assert_eq!(c_tape, c_interp, "the tape vs the interpreter");
        for imp in [exo_kernel(Arc::clone(&kernel)), exo_kernel_superword(Arc::clone(&kernel))] {
            assert_eq!(run(&imp), c_interp, "{} vs the interpreter", imp.name);
        }
        // The dispatch handle of each pin matches its one-shot run
        // bit-for-bit (same tier, same op order).
        for imp in [exo_kernel(Arc::clone(&kernel)), exo_kernel_superword(Arc::clone(&kernel))] {
            let mut c = c0.clone();
            imp.dispatcher().run(kc, &a, &b, &mut c).unwrap();
            assert_eq!(c, run(&imp), "{}: dispatch handle vs one-shot", imp.name);
        }
    }

    #[test]
    fn with_backend_pins_a_tier_programmatically() {
        let generator = MicroKernelGenerator::new(neon_f32());
        let kernel = Arc::new(generator.generate(8, 8).unwrap());
        let pinned = exo_kernel(Arc::clone(&kernel)).with_backend(ExecBackend::Superword);
        assert_eq!(pinned.backend, ExecBackend::Superword);
        let kc = 21usize;
        let a = vec![0.5f32; kc * 8];
        let b = vec![0.25f32; kc * 8];
        let mut c_pinned = vec![0.0f32; 64];
        pinned.run(kc, &a, &b, &mut c_pinned).unwrap();
        let mut c_superword = vec![0.0f32; 64];
        exo_kernel_superword(Arc::clone(&kernel)).run(kc, &a, &b, &mut c_superword).unwrap();
        assert_eq!(c_pinned, c_superword, "with_backend(Superword) is the superword pin");
        // The name follows the pin: re-pinning any kernel names it as the
        // pinned constructor does.
        for (backend, pinned, name) in [
            (ExecBackend::Native, exo_kernel(Arc::clone(&kernel)), "EXO 8x8"),
            (ExecBackend::Superword, exo_kernel_superword(Arc::clone(&kernel)), "EXO 8x8 (superword)"),
        ] {
            assert_eq!(&*pinned.name, name);
            for from in [exo_kernel(Arc::clone(&kernel)), exo_kernel_superword(Arc::clone(&kernel))] {
                assert_eq!(from.with_backend(backend).name, pinned.name, "{backend:?}");
            }
        }
    }

    /// Ranking reads a schedule where it used to read a generated kernel,
    /// so the two must model alike: on every admitted tile of both bundled
    /// f32 libraries and on a scalar-strategy tile, a schedule's trace is
    /// the trace of the kernel generated for the same tile.
    #[test]
    fn a_schedule_models_exactly_as_its_generated_kernel() {
        use exo_isa::avx512_f32;
        use ukernel_gen::Strategy;
        let mut checked = 0;
        for isa in [neon_f32(), avx512_f32()] {
            let generator = MicroKernelGenerator::new(isa);
            let mut tiles: Vec<(usize, usize)> =
                generator.admitted_tiles().iter().map(|t| (t.mr, t.nr)).collect();
            if generator.isa().name == "neon-f32" {
                assert_eq!(generator.choose_strategy(3, 5), Strategy::Scalar);
                tiles.push((3, 5));
            }
            for (mr, nr) in tiles {
                let schedule = generator.schedule(mr, nr).unwrap();
                let kernel = generator.generate(mr, nr).unwrap();
                let label = format!("{} {mr}x{nr}", generator.isa().name);
                assert_eq!(schedule.trace, kernel.trace, "{label}: trace");
                assert_eq!(
                    ModelledKernel::generated(&schedule),
                    ModelledKernel::generated(&kernel),
                    "{label}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 18 + 7 + 1, "every admitted tile of both libraries, and the scalar one");
    }

    #[test]
    fn exo_kernels_have_no_modelled_overhead() {
        let generator = MicroKernelGenerator::new(neon_f32());
        let kernel = Arc::new(generator.generate(4, 4).unwrap());
        let modelled = ModelledKernel::generated(&kernel);
        assert_eq!((&*modelled.name, modelled.per_k_overhead, modelled.prefetch_c), ("EXO 4x4", 0.0, false));
        assert_eq!(modelled.trace.per_k_count(InstrClass::VecFma), 4);
        run_and_check(&exo_kernel(kernel), 21);
    }
}
