//! Error type for the ahead-of-time compilation pipeline.
//!
//! Everything in this crate reports failure as a value — never a panic —
//! so the dispatch layers above can degrade to the simd tier and
//! exo-serve's failure taxonomy extends to the native tier unchanged.

use std::fmt;

/// Why a native kernel could not be produced or loaded.
///
/// Every variant is a *decline*, not a fault: callers fall back to the
/// simd tier (which itself falls back to the checked portable tiers), so
/// the user-visible contract is "native when possible, bit-faithful
/// fallback otherwise".
#[derive(Debug, Clone, PartialEq)]
pub enum AotError {
    /// No usable C compiler on this host (nothing on `PATH`, or the
    /// `EXO_CC` override did not answer a `--version` probe).
    ToolchainMissing,
    /// The C compiler ran and failed.
    CompileFailed {
        /// The compiler invoked.
        compiler: String,
        /// Its captured standard error (truncated).
        stderr: String,
    },
    /// The built artifact could not be `dlopen`ed.
    LoadFailed {
        /// The artifact path.
        path: String,
        /// The loader's error string.
        reason: String,
    },
    /// The artifact loaded but does not export the kernel symbol.
    SymbolMissing {
        /// The symbol looked up.
        symbol: String,
    },
    /// The kernel has a shape the C emitter declines (non-packed
    /// signature, f16 rounding, a written packed operand).
    Unsupported {
        /// The emitter's description of the construct.
        what: String,
    },
    /// A filesystem operation in the build directory failed.
    Io {
        /// What was being done.
        context: String,
        /// The OS error rendered to a string (keeps the type `Clone`).
        reason: String,
    },
    /// The C compiler exceeded its deadline (20 s) and was killed.
    CompileTimeout {
        /// The compiler invoked.
        compiler: String,
        /// The deadline it exceeded, in milliseconds.
        ms: u64,
    },
    /// The loaded kernel computed a wrong answer on the verification
    /// probe: the key is pinned to the simd tier for the rest of this
    /// process.
    WrongResult,
    /// A fault-injection hook forced this compilation to fail (the
    /// `aot-compile-fail` class of the exo-serve harness).
    FaultInjected,
}

impl fmt::Display for AotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AotError::ToolchainMissing => {
                write!(f, "no C toolchain found (tried EXO_CC, cc, gcc, clang)")
            }
            AotError::CompileFailed { compiler, stderr } => {
                write!(f, "`{compiler}` failed to compile the emitted kernel: {stderr}")
            }
            AotError::LoadFailed { path, reason } => {
                write!(f, "failed to load compiled kernel `{path}`: {reason}")
            }
            AotError::SymbolMissing { symbol } => {
                write!(f, "compiled kernel does not export `{symbol}`")
            }
            AotError::Unsupported { what } => {
                write!(f, "the aot backend does not support {what}")
            }
            AotError::CompileTimeout { compiler, ms } => {
                write!(f, "`{compiler}` exceeded the {ms} ms compile deadline and was killed")
            }
            AotError::WrongResult => write!(f, "compiled kernel failed probe verification"),
            AotError::Io { context, reason } => write!(f, "build directory: {context}: {reason}"),
            AotError::FaultInjected => write!(f, "aot compilation failed by fault injection"),
        }
    }
}

impl std::error::Error for AotError {}

impl From<exo_codegen::CodegenError> for AotError {
    fn from(e: exo_codegen::CodegenError) -> Self {
        AotError::Unsupported { what: e.to_string() }
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, AotError>;

pub(crate) fn io_err(context: impl Into<String>, e: std::io::Error) -> AotError {
    AotError::Io { context: context.into(), reason: e.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = AotError::CompileFailed { compiler: "cc".into(), stderr: "boom".into() };
        assert!(e.to_string().contains("cc") && e.to_string().contains("boom"));
        assert!(AotError::ToolchainMissing.to_string().contains("EXO_CC"));
        let e = AotError::SymbolMissing { symbol: "exo_aot_kernel".into() };
        assert!(e.to_string().contains("exo_aot_kernel"));
        let e = AotError::CompileTimeout { compiler: "cc".into(), ms: 150 };
        assert!(e.to_string().contains("150 ms"));
        assert!(AotError::WrongResult.to_string().contains("probe verification"));
    }
}
