//! The loaded native kernel: compiled code as the unchecked body of an
//! [`exo_codegen::SimdKernel`].

use std::sync::Arc;

use exo_codegen::{IsaKind, SimdDispatch, SimdKernel, SuperwordKernel};

use crate::dylib::Dylib;
use crate::error::Result;

/// The exported symbol every emitted kernel carries.
pub const KERNEL_SYMBOL: &str = "exo_aot_kernel";

/// The packed micro-kernel ABI: `(KC, Ac, Bc, C)`, the signature
/// [`exo_codegen::emit_superword_c`] emits.
pub type KernelFn = exo_codegen::PackedKernelFn;

/// A compiled, loaded native micro-kernel.
///
/// Holds the emitted C and the loaded function as the unchecked body of a
/// [`SimdKernel`] over the source superword tape — so every call runs
/// behind the workspace's one proved-call site: the memoised
/// affine-interval proof admits it to the function pointer, or declines
/// it onto the tape's checked reference, exactly like the simd chain. The
/// body keeps the dylib mapped for as long as any clone or dispatch
/// handle is alive.
#[derive(Debug, Clone)]
pub struct NativeKernel {
    body: Arc<SimdKernel>,
    c_source: Arc<str>,
}

impl NativeKernel {
    pub(crate) fn from_lib(
        source: Arc<SuperwordKernel>,
        c_source: Arc<str>,
        isa: IsaKind,
        lib: Arc<Dylib>,
    ) -> Result<NativeKernel> {
        let ptr = lib.symbol(KERNEL_SYMBOL)?;
        // SAFETY: the symbol was emitted by `emit_superword_c` with
        // exactly the `KernelFn` signature; the transmute re-types the
        // loader's raw pointer to it.
        let f: KernelFn = unsafe { std::mem::transmute(ptr) };
        // SAFETY: `lib` was built from `emit_superword_c(source, isa, ..)`
        // for this host (the engine's cache key and manifest tie the
        // artifact to exactly that source and ISA), and `f` points into
        // it, so it stays callable while the body holds `lib`.
        let body = unsafe { SimdKernel::from_compiled(source, isa, f, lib) }?;
        Ok(NativeKernel { body: Arc::new(body), c_source })
    }

    /// The superword tape this kernel was compiled from.
    pub fn source(&self) -> &Arc<SuperwordKernel> {
        self.body.source()
    }

    /// The emitted C translation unit (also kept next to the artifact on
    /// disk).
    pub fn c_source(&self) -> &str {
        &self.c_source
    }

    /// The ISA the C was lowered for.
    pub fn isa(&self) -> IsaKind {
        self.body.isa()
    }

    /// Runs the packed micro-kernel `c += ac * bc` natively when the
    /// affine-interval proof admits the call, and through the tape's
    /// checked reference otherwise — the simd chain's proved-call site, so
    /// the native tier never trades safety for speed.
    ///
    /// # Errors
    ///
    /// As [`SimdKernel::run_packed`] (only reachable on the checked
    /// reference; proven calls cannot fail).
    pub fn run_packed(&self, kc: usize, ac: &[f32], bc: &[f32], c: &mut [f32]) -> exo_codegen::Result<()> {
        self.body.run_packed(kc, ac, bc, c)
    }

    /// A prove-once dispatch handle over the compiled code: proofs are
    /// memoised across calls (the per-GEMM tile loop hits the same
    /// `(kc, lengths)` key thousands of times), and a declined proof takes
    /// the same route to the checked reference as [`Self::run_packed`].
    pub fn dispatcher(&self) -> SimdDispatch {
        self.body.dispatcher()
    }
}
