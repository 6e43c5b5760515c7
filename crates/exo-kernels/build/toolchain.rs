//! The build script's compiler handling: the `EXO_CC` value, the compiler
//! probe and the diagnostics of a failing compile. `build.rs` includes this
//! file, and so does the library under `cfg(test)`, so its tests run with
//! the crate's.

use std::process::{Command, Stdio};

/// Parses an `EXO_CC` value: any non-blank string names a compiler.
///
/// # Errors
///
/// A blank value: it names no compiler.
pub fn parse_exo_cc(value: &str) -> Result<String, String> {
    let v = value.trim();
    if v.is_empty() {
        return Err(format!("`{value}` does not name a C compiler (expected e.g. `cc` or `/usr/bin/gcc`)"));
    }
    Ok(v.to_string())
}

/// Runs `cc --version`: `Some((cc, first line of its answer))` when it
/// answers successfully, `None` when it cannot be started or fails.
pub fn probe_command(cc: &str) -> Option<(String, String)> {
    let out = Command::new(cc).arg("--version").stderr(Stdio::null()).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().next().unwrap_or("").trim();
    let version = if line.is_empty() { format!("{cc} (unversioned)") } else { line.to_string() };
    out.status.success().then(|| (cc.to_string(), version))
}

/// The most bytes of a failing compile's diagnostics the build reports.
pub const MAX_DIAGNOSTICS: usize = 2000;

/// A failing compiler's stderr as the build reports it: decoded (bytes
/// that are not UTF-8 become U+FFFD), without trailing white space, and
/// cut to at most [`MAX_DIAGNOSTICS`] bytes on a character boundary.
pub fn compiler_diagnostics(stderr: &[u8]) -> String {
    let text = String::from_utf8_lossy(stderr);
    let text = text.trim_end();
    let mut end = text.len().min(MAX_DIAGNOSTICS);
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    text[..end].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    #[test]
    fn probing_a_nonexistent_compiler_yields_none() {
        assert_eq!(probe_command("/nonexistent/exo-kernels-no-such-cc"), None);
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

    #[test]
    fn a_failing_compilers_long_stderr_is_cut_on_a_char_boundary() {
        // The build script reports a failing compile's stderr as a warning, cut
        // to `MAX_DIAGNOSTICS` bytes. One ASCII byte, then 1000 three-byte `‘`:
        // byte 2000 falls inside a character.
        let mut stderr = b"x".to_vec();
        for _ in 0..1000 {
            stderr.extend_from_slice("\u{2018}".as_bytes());
        }
        let cut = compiler_diagnostics(&stderr);
        assert_eq!(MAX_DIAGNOSTICS, 2000);
        assert_eq!(cut.len(), 1999, "cut to the last whole character before byte 2000");
        assert!(cut.starts_with('x') && cut[1..].chars().all(|c| c == '\u{2018}'), "{cut}");
        // Short diagnostics pass whole, less the trailing newline; bytes that
        // are not UTF-8 do not panic.
        assert_eq!(compiler_diagnostics(b"k.c:1: error: boom\n"), "k.c:1: error: boom");
        assert_eq!(compiler_diagnostics(b"\xff\xfe"), "\u{fffd}\u{fffd}");
    }
}
