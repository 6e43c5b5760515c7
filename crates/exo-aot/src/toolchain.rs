//! The table of native bodies compiled when the workspace was built.
//!
//! The `exo-kernels` crate's build script emits the C of every tile the
//! generator admits, for every ISA row its target can run, compiles each
//! with the host C compiler into one static archive, and generates a table
//! from the [`crate::content_hash`] of each emitted C text to its
//! function. Linking `exo-kernels` installs that table here ([`install`])
//! before `main` runs; the engine looks a kernel's emitted C up in it. A
//! process that links no table — or one built with no C compiler — has an
//! empty one, and every kernel serves on the simd chain.

use std::sync::OnceLock;

use exo_codegen::{active_isa, IsaKind, PackedKernelFn};

/// The symbol every emitted kernel defines; the build renames it per body.
pub const KERNEL_SYMBOL: &str = "exo_aot_kernel";

/// One compiled body: the function the C with key `key` compiled to with
/// `isa`'s flags.
#[derive(Debug, Clone, Copy)]
pub struct NativeBody {
    /// [`crate::content_hash`] of the emitted C.
    pub key: u64,
    /// The ISA row the C was emitted and compiled for.
    pub isa: IsaKind,
    /// The compiled function.
    pub body: PackedKernelFn,
}

/// Everything a build left for the run time: its bodies and the compiler
/// that built them.
#[derive(Debug)]
pub struct NativeTable {
    /// The compiler command and the first line of its `--version`, or
    /// `None` when the build found no C compiler (and `bodies` is empty).
    pub compiler: Option<(&'static str, &'static str)>,
    /// Every compiled body.
    pub bodies: &'static [NativeBody],
}

/// The C compiler a table was built with.
#[derive(Debug, Clone, PartialEq)]
pub struct Toolchain {
    /// The compiler command (from `EXO_CC` at build time, or the first of
    /// `cc`, `gcc`, `clang` that answered).
    pub cc: String,
    /// First line of its `--version` output, for reports
    /// (`gemm_throughput` and `exo_bench` print it).
    pub version: String,
}

static INSTALLED: OnceLock<&'static NativeTable> = OnceLock::new();

/// Parses an `EXO_CC` value, which the `exo-kernels` build script reads:
/// any non-blank string names a compiler.
///
/// # Errors
///
/// A blank value: it names no compiler.
pub fn parse_exo_cc(value: &str) -> std::result::Result<String, String> {
    let v = value.trim();
    if v.is_empty() {
        return Err(format!("`{value}` does not name a C compiler (expected e.g. `cc` or `/usr/bin/gcc`)"));
    }
    Ok(v.to_string())
}

/// The most bytes of a failing compile's diagnostics the `exo-kernels`
/// build script reports.
pub const MAX_DIAGNOSTICS: usize = 2000;

/// A failing compiler's stderr as the `exo-kernels` build script reports
/// it: decoded (bytes that are not UTF-8 become U+FFFD), without trailing
/// white space, and cut to at most [`MAX_DIAGNOSTICS`] bytes on a character
/// boundary.
pub fn compiler_diagnostics(stderr: &[u8]) -> String {
    let text = String::from_utf8_lossy(stderr);
    let text = text.trim_end();
    let mut end = text.len().min(MAX_DIAGNOSTICS);
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    text[..end].to_string()
}

/// Installs the process's table of native bodies. The first call wins;
/// `exo-kernels` makes it at load time.
pub fn install(table: &'static NativeTable) {
    let _ = INSTALLED.set(table);
}

/// The installed table's bodies (none when no table is installed).
pub(crate) fn installed_bodies() -> &'static [NativeBody] {
    INSTALLED.get().map_or(&[], |table| table.bodies)
}

/// The compiler the installed table was built with, or `None` when no
/// table is installed or its build found no C compiler.
pub fn toolchain() -> Option<&'static Toolchain> {
    static CELL: OnceLock<Option<Toolchain>> = OnceLock::new();
    let table = INSTALLED.get()?;
    CELL.get_or_init(|| {
        table.compiler.map(|(cc, version)| Toolchain { cc: cc.into(), version: version.into() })
    })
    .as_ref()
}

/// Whether the installed table holds bodies for [`active_isa`]: whether
/// the native tier can serve in this process.
pub fn native_available() -> bool {
    let isa = active_isa();
    installed_bodies().iter().any(|body| body.isa == isa)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails the test if it is ever called.
    unsafe extern "C" fn never_called(_: i64, _: *const f32, _: *const f32, _: *mut f32) {
        panic!("a body of the test table was called");
    }

    #[test]
    fn detection_is_consistent_with_availability() {
        // Nothing in this test binary links `exo-kernels`, and this is the
        // one test that installs a table: before it, no compiler is detected
        // and nothing is available.
        assert!(toolchain().is_none() && !native_available());
        // A table's compiler is what `toolchain()` reports, and a body for
        // the active ISA is what makes the tier available.
        static BODIES: OnceLock<[NativeBody; 1]> = OnceLock::new();
        static TABLE: OnceLock<NativeTable> = OnceLock::new();
        let bodies = BODIES.get_or_init(|| [NativeBody { key: 0, isa: active_isa(), body: never_called }]);
        install(
            TABLE.get_or_init(|| NativeTable {
                compiler: Some(("cc-under-test", "cc-under-test 1.0")),
                bodies,
            }),
        );
        let tc = toolchain().expect("the installed table's compiler");
        assert_eq!((tc.cc.as_str(), tc.version.as_str()), ("cc-under-test", "cc-under-test 1.0"));
        assert!(native_available());
    }

    #[test]
    fn blank_exo_cc_is_a_parse_error_and_nonblank_is_trimmed() {
        assert!(parse_exo_cc("   ").is_err());
        assert_eq!(parse_exo_cc(" gcc ").unwrap(), "gcc");
    }

    #[test]
    fn a_blank_exo_cc_panics_with_the_variable_name() {
        // The same contract the other `EXO_*` overrides are tested to:
        // set-but-unparseable panics with `"{var}: {description}"`. Uses a
        // private cell so no process-wide verdict is disturbed.
        std::env::set_var("EXO_CC_TEST_BLANK", "  ");
        let cell: OnceLock<Option<String>> = OnceLock::new();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exo_codegen::env_once(&cell, "EXO_CC_TEST_BLANK", parse_exo_cc)
        }))
        .expect_err("a blank EXO_CC must panic");
        let message = payload.downcast_ref::<String>().expect("panic carries the formatted message");
        assert!(
            message.starts_with("EXO_CC_TEST_BLANK: ") && message.contains("does not name a C compiler"),
            "got: {message}"
        );
    }
}
