//! Error type of the native tier.
//!
//! Everything in this crate reports failure as a value — never a panic —
//! so the dispatch layers above can degrade to the superword tier and
//! exo-serve's failure taxonomy extends to the native tier unchanged.

use std::fmt;

/// Why a kernel has no native body in this process.
///
/// Every variant is a *decline*, not a fault: callers fall back to the
/// superword interpreter, which checks every access itself, so
/// the user-visible contract is "native when possible, bit-faithful
/// fallback otherwise".
#[derive(Debug, Clone, PartialEq)]
pub enum AotError {
    /// The build-time table holds no body for the kernel's emitted C (the
    /// tile is outside the admitted spaces, or the build found no C
    /// compiler).
    NotInTable,
    /// The kernel has a shape the C emitter declines (non-packed
    /// signature, f16 rounding, a written packed operand), the host cannot
    /// run the requested ISA, or the probe cannot run.
    Unsupported {
        /// A description of the construct.
        what: String,
    },
    /// The body computed a wrong answer on the verification probe: the key
    /// is pinned to the superword tier for the rest of this process.
    WrongResult,
}

impl fmt::Display for AotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AotError::NotInTable => write!(f, "no native body was compiled for this kernel at build time"),
            AotError::Unsupported { what } => write!(f, "the native tier does not support {what}"),
            AotError::WrongResult => write!(f, "native body failed probe verification"),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(AotError::NotInTable.to_string().contains("build time"));
        let e = AotError::Unsupported { what: "f16 rounding".into() };
        assert!(e.to_string().contains("f16 rounding"));
        assert!(AotError::WrongResult.to_string().contains("probe verification"));
    }
}
