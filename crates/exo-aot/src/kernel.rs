//! Loading a native kernel: the compiled function becomes the unchecked
//! body of an [`exo_codegen::SimdKernel`].

use std::sync::Arc;

use exo_codegen::{IsaKind, PackedKernelFn, SimdKernel, SuperwordKernel};

use crate::dylib::Dylib;
use crate::error::Result;

/// The exported symbol every emitted kernel carries.
pub const KERNEL_SYMBOL: &str = "exo_aot_kernel";

/// Loads [`KERNEL_SYMBOL`] from `lib` as the unchecked body of a
/// [`SimdKernel`] over the `source` tape it was compiled from — so every
/// call runs behind the workspace's one proved-call site: the memoised
/// affine-interval proof admits it to the function pointer, or declines it
/// onto the tape's checked reference, exactly like the simd chain. The
/// kernel keeps the dylib mapped for as long as it or any dispatch handle
/// over it is alive.
pub(crate) fn load(source: Arc<SuperwordKernel>, isa: IsaKind, lib: Arc<Dylib>) -> Result<SimdKernel> {
    let ptr = lib.symbol(KERNEL_SYMBOL)?;
    // SAFETY: the symbol was emitted by `emit_superword_c` with exactly the
    // `PackedKernelFn` signature; the transmute re-types the loader's raw
    // pointer to it.
    let f: PackedKernelFn = unsafe { std::mem::transmute(ptr) };
    // SAFETY: `lib` was built from `emit_superword_c(source, isa, ..)` for
    // this host: the engine wrote that source into a build directory only
    // its user can write to (created fresh, mode 0700), compiled it there,
    // and opened the object its own compiler invocation produced, under a
    // name no earlier load in the process used. `f` points into it, so it stays
    // callable while the kernel holds `lib`.
    Ok(unsafe { SimdKernel::from_compiled(source, isa, f, lib) }?)
}
