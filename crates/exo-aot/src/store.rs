//! The compiled-artifact store: a per-user cache directory of built
//! kernel dylibs, written atomically and keyed by content.
//!
//! The cache key hashes everything that affects the produced machine
//! code: the emitted C source (which itself encodes the op hash and the
//! ISA), the target triple's arch/OS (the host fingerprint), and the
//! compiler's version line. Warm processes — and eventually a fleet
//! sharing a cache volume — `dlopen` the existing artifact without ever
//! invoking the compiler; a compiler upgrade or a schedule change simply
//! hashes to a new file.
//!
//! Writes follow the same write-then-rename discipline as the exo-tune
//! registry: the artifact is built at a process-unique temporary path and
//! `rename`d into place, so a concurrent process sees either nothing or
//! a complete dylib, never a torn one. Unreadable entries are quarantined
//! to `<path>.corrupt` (keeping the evidence) and rebuilt.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use crate::error::{io_err, Result};

/// Resolves the artifact cache directory once per process:
/// `EXO_AOT_DIR` override, else `$HOME/.cache/exo-aot`, else a
/// per-system temporary directory.
pub fn default_artifact_dir() -> &'static Path {
    static CELL: OnceLock<PathBuf> = OnceLock::new();
    CELL.get_or_init(|| {
        static ENV: OnceLock<Option<PathBuf>> = OnceLock::new();
        if let Some(dir) = exo_codegen::env_once(&ENV, "EXO_AOT_DIR", |v| {
            let v = v.trim();
            if v.is_empty() {
                Err(format!("`{v}` is not a directory path"))
            } else {
                Ok(PathBuf::from(v))
            }
        }) {
            return dir;
        }
        match std::env::var_os("HOME") {
            Some(home) if !home.is_empty() => Path::new(&home).join(".cache").join("exo-aot"),
            _ => std::env::temp_dir().join("exo-aot"),
        }
    })
}

/// FNV-1a 64 over one byte string — the hash the integrity manifest
/// records for the artifact's dylib bytes.
pub fn content_hash(bytes: &[u8]) -> u64 {
    fnv1a64(&[bytes])
}

/// FNV-1a 64, the workspace's dependency-free content hash.
fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Delimit parts so ("ab","c") and ("a","bc") hash differently.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content key of one compiled artifact: emitted C source, host
/// fingerprint, and compiler version.
pub fn artifact_key(c_source: &str, cc_version: &str) -> u64 {
    fnv1a64(&[
        c_source.as_bytes(),
        std::env::consts::ARCH.as_bytes(),
        std::env::consts::OS.as_bytes(),
        cc_version.as_bytes(),
    ])
}

/// A handle on the artifact directory.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// A store rooted at `dir` (created lazily on first write).
    pub fn new(dir: PathBuf) -> Self {
        ArtifactStore { dir }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the dylib for `key`.
    pub fn artifact_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("exo_aot_{key:016x}.{}", dylib_ext()))
    }

    /// Path of the emitted C source kept next to the dylib (debuggability:
    /// the artifact's provenance is always inspectable).
    pub fn source_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("exo_aot_{key:016x}.c"))
    }

    /// Path of the integrity manifest sidecar (`<artifact>.meta`) checked
    /// before the dylib for `key` is ever `dlopen`ed.
    pub fn manifest_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("exo_aot_{key:016x}.meta"))
    }

    /// A process-unique scratch path next to `final_path`, for
    /// write-then-rename (same filesystem, so the rename is atomic).
    pub fn scratch_path(&self, final_path: &Path, tag: &str) -> PathBuf {
        let name = final_path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        self.dir.join(format!(".{name}.{tag}.{}.tmp", std::process::id()))
    }

    /// Creates the directory.
    pub fn ensure_dir(&self) -> Result<()> {
        std::fs::create_dir_all(&self.dir).map_err(|e| io_err(format!("creating {}", self.dir.display()), e))
    }

    /// Writes `content` at `path` atomically (scratch file + rename).
    pub fn write_atomic(&self, path: &Path, content: &[u8]) -> Result<()> {
        self.ensure_dir()?;
        let tmp = self.scratch_path(path, "w");
        std::fs::write(&tmp, content).map_err(|e| io_err(format!("writing {}", tmp.display()), e))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            io_err(format!("renaming into {}", path.display()), e)
        })
    }

    /// Moves an unloadable artifact aside to `<path>.corrupt` — the
    /// evidence is kept for inspection, the slot is free for a rebuild,
    /// and the next load attempt will not trip over it again. Returns the
    /// quarantine path.
    pub fn quarantine(&self, path: &Path) -> PathBuf {
        self.quarantine_as(path, "corrupt")
    }

    /// Moves an untrusted artifact aside to `<path>.<kind>` (`corrupt`
    /// for integrity/load failures, `wrong-result` for artifacts that
    /// failed probe verification). Returns the quarantine path.
    pub fn quarantine_as(&self, path: &Path, kind: &str) -> PathBuf {
        let mut q = path.as_os_str().to_owned();
        q.push(".");
        q.push(kind);
        let q = PathBuf::from(q);
        // Best effort: if even the rename fails, delete; if that fails
        // too, the next writer's atomic rename will replace the entry.
        if std::fs::rename(path, &q).is_err() {
            let _ = std::fs::remove_file(path);
        }
        q
    }

    /// Garbage-collects cache debris: scratch files (`.*.tmp`) left by
    /// crashed processes and quarantine evidence (`.corrupt` /
    /// `.wrong-result`) older than `older_than`, plus any quarantine
    /// files beyond the newest `max_quarantine` (the freshest evidence is
    /// the most useful). Best effort and silent — a missing or read-only
    /// directory sweeps nothing. Returns how many files were removed.
    pub fn sweep(&self, older_than: std::time::Duration, max_quarantine: usize) -> usize {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(_) => return 0,
        };
        let now = std::time::SystemTime::now();
        let mut removed = 0usize;
        let mut quarantined: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let is_scratch = name.starts_with('.') && name.ends_with(".tmp");
            let is_quarantine = name.ends_with(".corrupt") || name.ends_with(".wrong-result");
            if !is_scratch && !is_quarantine {
                continue;
            }
            let modified = entry.metadata().and_then(|m| m.modified()).unwrap_or(now);
            if now.duration_since(modified).unwrap_or_default() >= older_than {
                removed += usize::from(std::fs::remove_file(entry.path()).is_ok());
            } else if is_quarantine {
                quarantined.push((modified, entry.path()));
            }
        }
        quarantined.sort_by_key(|entry| std::cmp::Reverse(entry.0));
        for (_, path) in quarantined.into_iter().skip(max_quarantine) {
            removed += usize::from(std::fs::remove_file(path).is_ok());
        }
        removed
    }
}

/// The platform's dylib extension (what `-shared` produces).
pub fn dylib_ext() -> &'static str {
    match std::env::consts::OS {
        "macos" => "dylib",
        "windows" => "dll",
        _ => "so",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ArtifactStore {
        ArtifactStore::new(std::env::temp_dir().join(format!("exo-aot-store-{tag}-{}", std::process::id())))
    }

    #[test]
    fn keys_separate_source_and_compiler_version() {
        let k = artifact_key("int x;", "gcc 12");
        assert_eq!(k, artifact_key("int x;", "gcc 12"), "the key is deterministic");
        assert_ne!(k, artifact_key("int y;", "gcc 12"));
        assert_ne!(k, artifact_key("int x;", "gcc 13"));
        // Part boundaries matter: moving a byte across the boundary is a
        // different key.
        assert_ne!(artifact_key("ab", "c"), artifact_key("a", "bc"));
    }

    #[test]
    fn atomic_writes_land_and_quarantine_moves_aside() {
        let store = temp_store("atomic");
        let key = artifact_key("test source", "test cc");
        let path = store.artifact_path(key);
        store.write_atomic(&path, b"payload").unwrap();
        assert!(path.is_file());
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        let q = store.quarantine(&path);
        assert!(!path.is_file(), "the slot is free after quarantine");
        assert!(q.extension().is_some_and(|e| e == "corrupt"));
        assert_eq!(std::fs::read(&q).unwrap(), b"payload", "the evidence is kept");
        let _ = std::fs::remove_file(&q);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn sweep_removes_stale_scratch_and_caps_quarantine_evidence() {
        let store = temp_store("sweep");
        store.ensure_dir().unwrap();
        let artifact = store.artifact_path(artifact_key("swept", "cc"));
        std::fs::write(store.scratch_path(&artifact, "cc"), b"half-written").unwrap();
        for kind in ["corrupt", "wrong-result"] {
            std::fs::write(store.dir().join(format!("a.so.{kind}")), b"evidence").unwrap();
            std::fs::write(store.dir().join(format!("b.so.{kind}")), b"evidence").unwrap();
        }
        std::fs::write(&artifact, b"a finished artifact").unwrap();

        // Young files survive a long-TTL sweep, but the quarantine cap
        // still applies: of four evidence files only one remains.
        let removed = store.sweep(std::time::Duration::from_secs(3600), 1);
        assert_eq!(removed, 3);
        // Zero TTL mows down everything that is debris…
        let removed = store.sweep(std::time::Duration::ZERO, 0);
        assert_eq!(removed, 2);
        // …and never the finished artifact.
        assert!(artifact.is_file());
        assert_eq!(std::fs::read_dir(store.dir()).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn paths_carry_the_key_and_live_in_the_store_dir() {
        let store = temp_store("paths");
        let key = 0xabcdu64;
        let p = store.artifact_path(key);
        assert!(p.starts_with(store.dir()));
        assert!(p.to_string_lossy().contains("000000000000abcd"));
        assert!(store.source_path(key).to_string_lossy().ends_with(".c"));
    }
}
