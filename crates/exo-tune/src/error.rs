//! Error type of the autotuning subsystem.

use std::fmt;

/// Errors produced while searching or dispatching.
#[derive(Debug, Clone, PartialEq)]
pub enum TuneError {
    /// Kernel generation failed for a candidate shape.
    Generation {
        /// The candidate tile.
        mr: usize,
        /// The candidate tile.
        nr: usize,
        /// Generator failure description.
        message: String,
    },
    /// The GEMM driver or simulator rejected a problem.
    Gemm(String),
    /// The search space is empty for the requested problem.
    EmptySpace,
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Generation { mr, nr, message } => {
                write!(f, "generating the {mr}x{nr} candidate failed: {message}")
            }
            TuneError::Gemm(message) => write!(f, "gemm failed: {message}"),
            TuneError::EmptySpace => f.write_str("the design space contains no candidates"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<gemm_blis::GemmError> for TuneError {
    fn from(e: gemm_blis::GemmError) -> Self {
        TuneError::Gemm(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_context() {
        let e = TuneError::Generation { mr: 3, nr: 7, message: "no recipe".into() };
        assert!(e.to_string().contains("3x7"));
        let e: TuneError = gemm_blis::GemmError::ShapeMismatch { what: "bad".into() }.into();
        assert!(e.to_string().contains("bad"));
        assert!(TuneError::EmptySpace.to_string().contains("no candidates"));
    }
}
