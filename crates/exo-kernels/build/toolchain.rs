//! The build script's compiler probe. `build.rs` includes this file, and so
//! does the library under `cfg(test)`, so its tests run with the crate's.

use std::process::{Command, Stdio};

/// Runs `cc --version`: `Some((cc, first line of its answer))` when it
/// answers successfully, `None` when it cannot be started or fails.
pub fn probe_command(cc: &str) -> Option<(String, String)> {
    let out = Command::new(cc).arg("--version").stderr(Stdio::null()).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().next().unwrap_or("").trim();
    let version = if line.is_empty() { format!("{cc} (unversioned)") } else { line.to_string() };
    out.status.success().then(|| (cc.to_string(), version))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probing_a_nonexistent_compiler_yields_none() {
        assert_eq!(probe_command("/nonexistent/exo-kernels-no-such-cc"), None);
    }
}
