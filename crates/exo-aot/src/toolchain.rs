//! Host C-toolchain detection.
//!
//! The native tier needs a C compiler at runtime. Detection runs once per
//! process: the `EXO_CC` override (routed through the workspace-wide
//! [`exo_codegen::env_once`] contract) names a compiler explicitly,
//! otherwise `cc`, `gcc` and `clang` are probed in order with
//! `--version`. A missing toolchain is **not** an error here — it yields
//! `None` and every caller silently falls back to the simd tier — but a
//! malformed `EXO_CC` value (empty after trimming) panics like every
//! other typo'd `EXO_*` override.
//!
//! Note the asymmetry, shared with `EXO_ISA`'s "pinned ISA unavailable"
//! handling: `EXO_CC=/nonexistent/cc` is a *well-formed* override naming
//! a compiler that does not answer, so it disables the native tier
//! (silent fallback, and the probed CI leg asserts exactly that) rather
//! than panicking.

use std::process::Command;
use std::sync::OnceLock;

use exo_codegen::env_once;

/// A probed, answering host C compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct Toolchain {
    /// The compiler command (from `EXO_CC` or the probe list).
    pub cc: String,
    /// First line of its `--version` output, for reports
    /// (`gemm_throughput` prints it).
    pub version: String,
}

/// Parses an `EXO_CC` value: any non-blank string names a compiler.
/// Exposed for the env-override unit tests.
pub fn parse_exo_cc(value: &str) -> std::result::Result<String, String> {
    let v = value.trim();
    if v.is_empty() {
        return Err(format!("`{value}` does not name a C compiler (expected e.g. `cc` or `/usr/bin/gcc`)"));
    }
    Ok(v.to_string())
}

/// The `EXO_CC` override, if set (read once per process; a blank value
/// panics per the `EXO_*` contract).
pub fn env_cc_override() -> Option<String> {
    static CELL: OnceLock<Option<String>> = OnceLock::new();
    env_once(&CELL, "EXO_CC", parse_exo_cc)
}

/// Runs `cmd --version` and returns the first output line if it answers.
fn probe_command(cmd: &str) -> Option<String> {
    let out = Command::new(cmd).arg("--version").output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().next().unwrap_or("").trim();
    Some(if line.is_empty() { format!("{cmd} (unversioned)") } else { line.to_string() })
}

fn detect() -> Option<Toolchain> {
    let candidates: Vec<String> = match env_cc_override() {
        // An explicit override is authoritative: no fallback probing, so
        // a pointed-at-but-broken compiler disables the tier outright.
        Some(cc) => vec![cc],
        None => ["cc", "gcc", "clang"].iter().map(|s| s.to_string()).collect(),
    };
    candidates.into_iter().find_map(|cc| probe_command(&cc).map(|version| Toolchain { cc, version }))
}

/// The host toolchain, probed once per process. `None` means the native
/// tier is unavailable and callers fall back to simd.
pub fn toolchain() -> Option<&'static Toolchain> {
    static CELL: OnceLock<Option<Toolchain>> = OnceLock::new();
    CELL.get_or_init(detect).as_ref()
}

/// Whether this host can compile native kernels (a toolchain answered
/// the probe). Recorded by the bench harness next to its `native` series.
pub fn native_available() -> bool {
    toolchain().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probing_a_nonexistent_compiler_yields_none() {
        assert_eq!(probe_command("/nonexistent/exo-aot-no-such-cc"), None);
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
        // private cell so the process-wide verdict is not disturbed.
        std::env::set_var("EXO_CC_TEST_BLANK", "  ");
        let cell: OnceLock<Option<String>> = OnceLock::new();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            env_once(&cell, "EXO_CC_TEST_BLANK", parse_exo_cc)
        }))
        .expect_err("a blank EXO_CC must panic");
        let message = payload.downcast_ref::<String>().expect("panic carries the formatted message");
        assert!(
            message.starts_with("EXO_CC_TEST_BLANK: ") && message.contains("does not name a C compiler"),
            "got: {message}"
        );
    }

    #[test]
    fn detection_is_consistent_with_availability() {
        assert_eq!(toolchain().is_some(), native_available());
        if let Some(tc) = toolchain() {
            assert!(!tc.cc.is_empty() && !tc.version.is_empty());
        }
    }
}
