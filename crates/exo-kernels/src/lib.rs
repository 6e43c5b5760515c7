//! # exo-kernels
//!
//! The native bodies of every micro-kernel the generator admits, compiled
//! when this crate builds, as the paper compiles Exo's C once with a stock
//! compiler and links it into BLIS.
//!
//! The build script generates every tile that
//! `ukernel_gen::MicroKernelGenerator::admitted_tiles` admits for the
//! `neon_f32` and `avx512_f32` descriptions, emits each one's C with
//! [`exo_codegen::emit_superword_c`] for every ISA row the target can run —
//! AVX-512, AVX2 and the scalar floor on x86_64, NEON and the scalar floor
//! on aarch64, the scalar floor elsewhere; the `avx512_f32` tiles on the
//! AVX-512 row only, the one ISA whose serving space holds them — and
//! compiles each with the C compiler (`EXO_CC`, else the first of `cc`,
//! `gcc`, `clang` that answers `--version`) and that row's flags,
//! `-O3 -fPIC -ffp-contract=off` plus
//! [`exo_codegen::IsaKind::cc_flags`]. A `-D` renames each body's symbol, so
//! the hashed text is byte for byte the text the run time emits. The
//! objects go into one static archive (`EXO_AR`, else `ar`), and the
//! generated table maps each C text's [`exo_aot::content_hash`] to its
//! function. A build that finds no C compiler, or that cross-compiles
//! without `EXO_CC`, leaves the table empty: every kernel then serves on
//! the superword interpreter.
//!
//! Linking this crate installs the table into the `exo-aot` engine before
//! `main` runs (on ELF and Mach-O targets; elsewhere nothing installs it and
//! every kernel serves on the superword interpreter); `gemm-blis` links
//! it, so every GEMM stack
//! has it. [`TABLE`] is readable, so a test can check what was installed.

#![warn(missing_docs)]

use exo_aot::{NativeBody, NativeTable};

include!(concat!(env!("OUT_DIR"), "/table.rs"));

#[cfg(test)]
#[path = "../build/toolchain.rs"]
mod toolchain;

/// The bodies this build compiled and the compiler that compiled them —
/// what linking the crate installs.
pub static TABLE: NativeTable = NativeTable { compiler: COMPILER, bodies: &BODIES };

/// Installs [`TABLE`] into the `exo-aot` engine from an entry in the
/// executable's initialiser array, which the C runtime calls before `main`,
/// so the table is in place before any kernel resolves its native tier.
#[used]
#[cfg_attr(
    any(
        target_os = "linux",
        target_os = "android",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd",
        target_os = "dragonfly",
        target_os = "illumos"
    ),
    link_section = ".init_array"
)]
#[cfg_attr(target_vendor = "apple", link_section = "__DATA,__mod_init_func")]
static INSTALL_AT_LOAD: extern "C" fn() = {
    extern "C" fn install_at_load() {
        exo_aot::install(&TABLE);
    }
    install_at_load
};

#[cfg(test)]
mod tests {
    use super::*;
    use exo_codegen::IsaKind;

    #[test]
    fn the_table_is_installed_before_main() {
        // Nothing in this test binary called `install`.
        assert_eq!(exo_aot::toolchain().map(|tc| tc.cc.as_str()), TABLE.compiler.map(|(cc, _)| cc));
        assert_eq!(exo_aot::native_available(), BODIES.iter().any(|b| b.isa == exo_codegen::active_isa()));
    }

    #[test]
    fn every_body_has_one_key_per_isa() {
        let mut keys: Vec<(u64, IsaKind)> = BODIES.iter().map(|b| (b.key, b.isa)).collect();
        let n = keys.len();
        keys.sort_by_key(|&(key, isa)| (key, isa.name()));
        keys.dedup();
        assert_eq!(keys.len(), n);
        assert!(TABLE.compiler.is_some() || BODIES.is_empty(), "bodies without a compiler");
    }
}
