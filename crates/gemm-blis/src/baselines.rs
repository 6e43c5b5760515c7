//! The micro-kernel implementations the paper compares (Section IV):
//!
//! * `NEON` — a hand-written kernel using Neon intrinsics,
//! * `BLIS` — the BLIS v0.9 assembly kernel (with software prefetch of the
//!   `C` tile and edge-case handling),
//! * `EXO`  — kernels generated by [`ukernel_gen`], one per tile shape.
//!
//! All three are *functionally* implemented in Rust (they compute the same
//! `C[nr][mr] += Ac[kc][mr] * Bc[kc][nr]` update); what distinguishes them in
//! the performance model is their machine-operation trace and their modelled
//! per-iteration overhead: the monolithic library kernels carry edge-case and
//! alpha/beta bookkeeping in the loop body, the compiler-scheduled intrinsics
//! version is a little less tight than the assembly one, and only the BLIS
//! library kernel prefetches `C` — exactly the distinctions the paper draws.
//!
//! "Only the BLIS library kernel prefetches `C`" describes the modelled
//! kernel traces ([`KernelImpl::prefetch_c`]), which Figs. 13–18 read. The
//! executing engine prefetches the next `C` tile for every kernel it
//! drives, once the window of `C` outgrows the L1d (see
//! [`crate::algorithm`]); the model does not see that.

use std::sync::Arc;

use exo_codegen::{KernelTrace, MachineOp};
use exo_ir::{InstrClass, ScalarType};
use ukernel_gen::{GeneratedKernel, TierDispatch};
// The tier pin lives where the tier ladder is resolved; re-exported here
// (and from the crate root) for the driver's callers.
pub use ukernel_gen::ExecBackend;

use crate::GemmError;

/// A micro-kernel implementation: functional entry point plus the metadata
/// the performance model needs.
#[derive(Debug, Clone)]
pub struct KernelImpl {
    /// Display name (`"NEON"`, `"BLIS"`, `"EXO 8x8"`, ...), shared with the
    /// [`crate::GemmStats::kernel`] of every GEMM it runs.
    pub name: Arc<str>,
    /// Register-tile rows.
    pub mr: usize,
    /// Register-tile columns.
    pub nr: usize,
    /// The generated, size-specialised kernel behind an `EXO` series;
    /// `None` for the hand-written families, which run the same plain loops
    /// and differ only in what the model reads (trace, overhead, prefetch).
    pub generated: Option<Arc<GeneratedKernel>>,
    /// Machine-operation trace of one invocation.
    pub trace: KernelTrace,
    /// Extra modelled cycles per `k` iteration (edge-case logic, scheduling
    /// slack). Zero for generated kernels.
    pub per_k_overhead: f64,
    /// Whether the kernel software-prefetches the `C` tile.
    pub prefetch_c: bool,
    /// Execution backend for generated kernels (ignored by the hand-written
    /// families, which are plain Rust loops either way).
    pub backend: ExecBackend,
}

impl KernelImpl {
    /// Validates the packed-operand buffer sizes against the tile shape —
    /// for the hand-written families; a generated kernel's tier handle makes
    /// the same three comparisons itself (`TierDispatch::run_packed`).
    fn check_packed_shape(&self, kc: usize, a: &[f32], b: &[f32], c: &[f32]) -> Result<(), GemmError> {
        if a.len() != kc * self.mr || b.len() != kc * self.nr || c.len() != self.mr * self.nr {
            return Err(GemmError::ShapeMismatch {
                what: format!(
                    "micro-kernel `{}` expects Ac[{}], Bc[{}], C[{}]",
                    self.name,
                    kc * self.mr,
                    kc * self.nr,
                    self.mr * self.nr
                ),
            });
        }
        Ok(())
    }

    /// Pins the execution backend of a generated kernel (see
    /// [`ExecBackend`]). Ignored by the hand-written families.
    #[must_use]
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The resolved tier handle of a generated kernel —
    /// [`GeneratedKernel::dispatcher`] of [`Self::backend`] — or `None` for
    /// the hand-written families.
    fn resolve(&self) -> Option<TierDispatch> {
        self.generated.as_ref().map(|kernel| kernel.dispatcher(self.backend))
    }

    /// The one body behind [`Self::run`] and [`KernelDispatch::run`].
    fn run_on(
        &self,
        tier: Option<&mut TierDispatch>,
        kc: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) -> Result<(), GemmError> {
        let Some(tier) = tier else {
            // The hand-written kernels compute the same update; the
            // functional path models their arithmetic, the trace models
            // their schedule.
            self.check_packed_shape(kc, a, b, c)?;
            for k in 0..kc {
                for j in 0..self.nr {
                    let bkj = b[k * self.nr + j];
                    for i in 0..self.mr {
                        c[j * self.mr + i] += a[k * self.mr + i] * bkj;
                    }
                }
            }
            return Ok(());
        };
        tier.run_packed(kc, a, b, c)
            .map_err(|e| GemmError::Kernel { kernel: self.name.to_string(), message: e.to_string() })
    }

    /// Runs the kernel functionally: `c[nr][mr] += a[kc][mr] * b[kc][nr]`,
    /// on [`Self::backend`] — a one-shot [`Self::dispatcher`] run.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError`] if the buffer sizes do not match the shape
    /// ([`GemmError::ShapeMismatch`] from a hand-written kernel,
    /// [`GemmError::Kernel`] from a generated one's tier handle).
    pub fn run(&self, kc: usize, a: &[f32], b: &[f32], c: &mut [f32]) -> Result<(), GemmError> {
        self.run_on(self.resolve().as_mut(), kc, a, b, c)
    }

    /// A reusable dispatch handle for this kernel (see [`KernelDispatch`]).
    ///
    /// Every five-loop engine instance (`GemmRunner`) holds one, so a
    /// generated kernel proves its affine-interval obligations and
    /// allocates its register file **once** per distinct `(KC, buffer
    /// lengths)` input instead of on every micro-tile — the fringe tiles
    /// of a blocked problem no longer re-prove and re-allocate thousands
    /// of times. The tier is resolved here for the first time, not for the
    /// last: a handle built while the native artifact is still compiling
    /// starts on the simd chain, and the engine that holds it re-resolves
    /// it at the top of every GEMM until it reaches the tier it asked for
    /// — bit-identical on a matching ISA, so the switch is invisible
    /// except for speed.
    pub fn dispatcher(&self) -> KernelDispatch {
        KernelDispatch { imp: self.clone(), tier: self.resolve() }
    }
}

/// A reusable per-engine (per-worker) micro-kernel handle.
///
/// For generated kernels this holds the one resolved
/// [`ukernel_gen::TierDispatch`]: on the proved tiers (native, simd,
/// portable) the run-time bounds proof is memoised per distinct `(KC,
/// buffer lengths)` tuple and the register file is reused, so the
/// steady-state micro-tile dispatch allocates nothing. Every other kernel
/// family runs its plain loops. Results are bit-for-bit identical to
/// calling [`KernelImpl::run`] on the same kernel.
///
/// The handle may outlive the moment it was built in — engines are kept
/// warm by their driver — so it remembers the tier it asked for (the
/// kernel's backend) and, while a native request sits on the simd chain,
/// polls for the artifact again at the top of each GEMM: one that promotes
/// later reaches handles that were built before it.
#[derive(Debug, Clone)]
pub struct KernelDispatch {
    imp: KernelImpl,
    tier: Option<TierDispatch>,
}

impl KernelDispatch {
    /// The kernel this handle dispatches.
    pub fn kernel(&self) -> &KernelImpl {
        &self.imp
    }

    /// The execution tier this handle currently runs on, or `None` for the
    /// hand-written kernel families (plain Rust loops, no tier).
    pub fn tier(&self) -> Option<ExecBackend> {
        self.tier.as_ref().map(TierDispatch::tier)
    }

    /// Promotes a handle whose native request sits on the simd chain
    /// ([`TierDispatch::refresh`]). The engine calls this once at the top
    /// of a GEMM — never between tiles, so one problem runs on one tier.
    pub(crate) fn refresh(&mut self) {
        if let (Some(kernel), Some(tier)) = (&self.imp.generated, &mut self.tier) {
            tier.refresh(kernel);
        }
    }

    /// Runs the kernel: `c[nr][mr] += a[kc][mr] * b[kc][nr]`, on the tier
    /// this handle currently holds.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError`] if the buffer sizes do not match the shape, and
    /// propagates kernel failures.
    pub fn run(&mut self, kc: usize, a: &[f32], b: &[f32], c: &mut [f32]) -> Result<(), GemmError> {
        self.imp.run_on(self.tier.as_mut(), kc, a, b, c)
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

/// The hand-written Neon-intrinsics 8x12 kernel (the paper's `NEON` series).
pub fn neon_intrinsics_kernel() -> KernelImpl {
    KernelImpl {
        name: "NEON".into(),
        mr: 8,
        nr: 12,
        generated: None,
        trace: monolithic_trace("neon_8x12", 8, 12, 4, 3, false),
        per_k_overhead: 1.5,
        prefetch_c: false,
        backend: ExecBackend::default(),
    }
}

/// The BLIS v0.9 assembly 8x12 kernel (the paper's `BLIS` series). `prefetch`
/// selects whether the software prefetch of `C` is active — it is inside the
/// BLIS library, and inactive when the kernel is dropped into the external
/// BLIS-like algorithm (`ALG+BLIS`), which is exactly the distinction the
/// paper uses to explain Fig. 14.
pub fn blis_assembly_kernel(prefetch: bool) -> KernelImpl {
    KernelImpl {
        name: if prefetch { "BLIS" } else { "ALG+BLIS kernel" }.into(),
        mr: 8,
        nr: 12,
        generated: None,
        trace: monolithic_trace("blis_8x12", 8, 12, 4, 2, prefetch),
        per_k_overhead: 0.75,
        prefetch_c: prefetch,
        backend: ExecBackend::default(),
    }
}

/// Wraps a generated kernel as a [`KernelImpl`] (the paper's `EXO` series):
/// no edge-case logic, no prefetch, exactly the generated trace. Executes
/// through the ahead-of-time compiled native artifact when the host has a
/// C toolchain (the fastest tier), and bit-faithfully on the in-process
/// SIMD chain of the active vector ISA (AVX-512, AVX2/FMA, NEON, or the bit-exact
/// scalar reference) when it does not — [`KernelDispatch::tier`] says
/// which.
pub fn exo_kernel(kernel: Arc<GeneratedKernel>) -> KernelImpl {
    KernelImpl {
        name: format!("EXO {}x{}", kernel.mr, kernel.nr).into(),
        mr: kernel.mr,
        nr: kernel.nr,
        trace: kernel.trace.clone(),
        generated: Some(kernel),
        per_k_overhead: 0.0,
        prefetch_c: false,
        backend: ExecBackend::Native,
    }
}

/// Like [`exo_kernel`] but pinned to the in-process SIMD chain — the
/// fastest tier that needs no C toolchain, and the one the native tier
/// must match bit for bit on the same ISA. The pin lets the differential
/// tests and benches compare the compiled artifact against the chain it
/// was lowered from.
pub fn exo_kernel_simd(kernel: Arc<GeneratedKernel>) -> KernelImpl {
    KernelImpl {
        name: format!("EXO {}x{} (simd)", kernel.mr, kernel.nr).into(),
        backend: ExecBackend::Simd,
        ..exo_kernel(kernel)
    }
}

/// Like [`exo_kernel`] but pinned to the portable tier — the superword
/// lowering executed by the scalar-ISA chain, bit-for-bit identical to
/// tape and interpreter on every host. The pin lets the differential
/// tests and benches compare the contracting chains against the bit-exact
/// one, and is what the serving layer's retry degrades simd onto.
pub fn exo_kernel_superword(kernel: Arc<GeneratedKernel>) -> KernelImpl {
    KernelImpl {
        name: format!("EXO {}x{} (superword)", kernel.mr, kernel.nr).into(),
        backend: ExecBackend::Superword,
        ..exo_kernel(kernel)
    }
}

/// Like [`exo_kernel`] but pinned to the scalar tape — the checked floor of
/// the ladder, where every declined proof lands and below which a failed
/// retry does not go; also the scalar baseline the SLP speedup is measured
/// against.
pub fn exo_kernel_tape(kernel: Arc<GeneratedKernel>) -> KernelImpl {
    KernelImpl {
        name: format!("EXO {}x{} (tape)", kernel.mr, kernel.nr).into(),
        backend: ExecBackend::Tape,
        ..exo_kernel(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_codegen::TensorView;
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
                    c_ref[j * mr + i] += a[k * mr + i] * b[k * nr + j];
                }
            }
        }
        for (x, y) in c.iter().zip(&c_ref) {
            // Relative tolerance: the SIMD default contracts the FMA, so
            // generated kernels are ULP-close, not bit-equal, to the
            // mul-then-add reference.
            assert!((x - y).abs() < 1e-3 * y.abs().max(1.0), "{} mismatch: {x} vs {y}", kernel.name);
        }
    }

    #[test]
    fn all_baselines_compute_the_same_update() {
        run_and_check(&neon_intrinsics_kernel(), 33);
        run_and_check(&blis_assembly_kernel(true), 33);
        run_and_check(&blis_assembly_kernel(false), 33);
        let generator = MicroKernelGenerator::new(neon_f32());
        let exo = exo_kernel(Arc::new(generator.generate(8, 12).unwrap()));
        run_and_check(&exo, 33);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let k = neon_intrinsics_kernel();
        let mut c = vec![0.0f32; 8 * 12];
        assert!(matches!(k.run(4, &[0.0; 3], &[0.0; 48], &mut c), Err(GemmError::ShapeMismatch { .. })));
        // A generated kernel's one length check is its tier handle's, on
        // every tier — the driver never gets a misfit as far as a body.
        let exo = exo_kernel(Arc::new(MicroKernelGenerator::new(neon_f32()).generate(8, 12).unwrap()));
        for backend in [ExecBackend::Native, ExecBackend::Superword, ExecBackend::Tape] {
            let misfit = exo.clone().with_backend(backend).run(4, &[0.0; 3], &[0.0; 48], &mut c);
            assert!(matches!(misfit, Err(GemmError::Kernel { .. })), "{backend:?}: {misfit:?}");
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
    fn the_default_backend_is_native_and_degrades_to_simd() {
        assert_eq!(ExecBackend::default(), ExecBackend::Native);
        assert_eq!(ExecBackend::Native.degraded(), Some(ExecBackend::Simd));
    }

    #[test]
    fn pinned_backends_agree_within_the_fma_bound_and_portable_tiers_bitwise() {
        // The portable tiers are bit-identical; the native default is
        // bit-faithful to the simd pin (same artifact or silent fallback
        // to the same chain), and both stay within the FMA-contraction
        // bound of the portable tiers.
        let generator = MicroKernelGenerator::new(neon_f32());
        let kernel = Arc::new(generator.generate(8, 12).unwrap());
        let kc = 37usize;
        let a: Vec<f32> = (0..kc * 8).map(|i| ((i * 7 + 3) % 13) as f32 * 0.25 - 1.5).collect();
        let b: Vec<f32> = (0..kc * 12).map(|i| ((i * 5 + 1) % 11) as f32 * 0.125 - 0.5).collect();
        let c0: Vec<f32> = (0..96).map(|i| (i % 5) as f32 * 0.5).collect();
        let run = |imp: &KernelImpl| {
            let mut c = c0.clone();
            imp.run(kc, &a, &b, &mut c).unwrap();
            c
        };
        let c_native = run(&exo_kernel(Arc::clone(&kernel)));
        let c_simd = run(&exo_kernel_simd(Arc::clone(&kernel)));
        let c_sw = run(&exo_kernel_superword(Arc::clone(&kernel)));
        let c_tape = run(&exo_kernel_tape(Arc::clone(&kernel)));
        let mut c_interp = c0.clone();
        let views = &mut [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Rw(&mut c_interp)];
        kernel.compiled.run_views(&[kc as i64], views).unwrap();
        assert_eq!(c_native, c_simd, "the native tier is bit-faithful to the simd chain");
        assert_eq!(c_sw, c_tape, "superword and tape are bit-identical");
        assert_eq!(c_tape, c_interp, "tape and interpreter are bit-identical");
        let tol = exo_codegen::fma_contraction_tol(kc);
        for (i, (x, y)) in c_simd.iter().zip(&c_sw).enumerate() {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() <= tol * scale, "simd vs superword at {i}: {x} vs {y}");
        }
        // The dispatch handle of each pin matches its one-shot run
        // bit-for-bit (same tier, same op order).
        for imp in [
            exo_kernel(Arc::clone(&kernel)),
            exo_kernel_simd(Arc::clone(&kernel)),
            exo_kernel_superword(Arc::clone(&kernel)),
        ] {
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
        let mut c_sw = vec![0.0f32; 64];
        exo_kernel_superword(kernel).run(kc, &a, &b, &mut c_sw).unwrap();
        assert_eq!(c_pinned, c_sw, "with_backend(Superword) is the superword pin");
    }

    #[test]
    fn exo_kernels_have_no_modelled_overhead() {
        let generator = MicroKernelGenerator::new(neon_f32());
        let exo = exo_kernel(Arc::new(generator.generate(4, 4).unwrap()));
        assert_eq!(exo.per_k_overhead, 0.0);
        assert_eq!(exo.trace.per_k_count(InstrClass::VecFma), 4);
        run_and_check(&exo, 21);
    }
}
