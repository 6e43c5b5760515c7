//! The executing machine's caches: what the serving blocking
//! ([`crate::BlockingParams::for_host`]) is sized for.
//!
//! The figures model the paper's Carmel (`carmel_sim`); a GEMM served on
//! this host runs on whatever caches the host has. [`HostDescription`] is
//! read from Linux's sysfs cache tree
//! (`/sys/devices/system/cpu/cpu0/cache/index*`), once per process
//! ([`HostDescription::probed`]). A host without that tree, or with one
//! that does not parse, is described by Carmel's numbers
//! ([`HostDescription::carmel`]), so the serving blocking on such a host is
//! the one the modelled machine would get. Lanes and vector registers are
//! not repeated here: they are the executing ISA's (`IsaKind::row`).

use std::fmt;
use std::path::Path;
use std::sync::OnceLock;

use carmel_sim::CacheHierarchy;

/// Where Linux publishes cpu0's cache tree.
const SYSFS_CACHE_ROOT: &str = "/sys/devices/system/cpu/cpu0/cache";

/// The geometry of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Capacity in bytes (`0`: the host has no such level).
    pub bytes: usize,
    /// Associativity (`0` where the tree does not say).
    pub ways: usize,
    /// Line size in bytes.
    pub line: usize,
}

/// The data caches of the machine that executes the served GEMMs, as seen
/// from one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostDescription {
    /// The level-1 data cache.
    pub l1d: CacheGeometry,
    /// The level-2 cache.
    pub l2: CacheGeometry,
    /// The level-3 cache, often shared between cores (zero bytes on a host
    /// without one).
    pub l3: CacheGeometry,
}

impl HostDescription {
    /// The modelled Carmel's caches (`carmel_sim::CacheHierarchy::carmel`):
    /// 64 KB 4-way L1d, 2 MB 16-way L2, 4 MB 16-way L3, 64-byte lines.
    pub fn carmel() -> Self {
        let mem = CacheHierarchy::carmel();
        let level = |bytes, ways| CacheGeometry { bytes, ways, line: mem.line_bytes };
        HostDescription {
            l1d: level(mem.l1_bytes, 4),
            l2: level(mem.l2_bytes, 16),
            l3: level(mem.l3_bytes, 16),
        }
    }

    /// This process's host, probed from
    /// `/sys/devices/system/cpu/cpu0/cache` on first use.
    pub fn probed() -> &'static Self {
        static HOST: OnceLock<HostDescription> = OnceLock::new();
        HOST.get_or_init(|| HostDescription::probe(Path::new(SYSFS_CACHE_ROOT)))
    }

    /// Reads a sysfs cache tree rooted at `root` (a directory of `index*`
    /// entries, each with `level`, `type`, `size`, `ways_of_associativity`
    /// and `coherency_line_size`). Instruction caches are skipped. A tree
    /// without a readable L1d and L2 — each of some bytes, on a line that
    /// is a power of two — falls back to [`Self::carmel`]; one without an
    /// L3 records it as zero bytes.
    pub fn probe(root: &Path) -> Self {
        Self::read(root).unwrap_or_else(Self::carmel)
    }

    fn read(root: &Path) -> Option<Self> {
        let (mut l1d, mut l2, mut l3) = (None, None, None);
        let mut entries: Vec<_> = std::fs::read_dir(root)
            .ok()?
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("index"))
            .map(|e| e.path())
            .collect();
        entries.sort();
        for index in entries {
            let field =
                |name: &str| std::fs::read_to_string(index.join(name)).ok().map(|s| s.trim().to_string());
            if field("type")? == "Instruction" {
                continue;
            }
            let geometry = CacheGeometry {
                bytes: parse_size(&field("size")?)?,
                ways: field("ways_of_associativity")?.parse().ok()?,
                line: field("coherency_line_size")?.parse().ok()?,
            };
            let slot = match field("level")?.parse::<u32>().ok()? {
                1 => &mut l1d,
                2 => &mut l2,
                3 => &mut l3,
                _ => continue,
            };
            slot.get_or_insert(geometry);
        }
        let usable = |level: &CacheGeometry| level.bytes > 0 && level.line.is_power_of_two();
        Some(HostDescription { l1d: l1d?, l2: l2?, l3: l3.unwrap_or_default() })
            .filter(|host| usable(&host.l1d) && usable(&host.l2))
    }

    /// The caches as one token for a registry identity: a verdict file is
    /// only loaded on a host whose caches read the same.
    pub fn signature(&self) -> String {
        format!("l1d:{},l2:{},l3:{}", self.l1d, self.l2, self.l3)
    }
}

/// A sysfs `size`: bytes, or a count with a `K`, `M` or `G` suffix.
fn parse_size(text: &str) -> Option<usize> {
    let (digits, unit) = match text.char_indices().last()? {
        (at, 'K') => (&text[..at], 1 << 10),
        (at, 'M') => (&text[..at], 1 << 20),
        (at, 'G') => (&text[..at], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(unit)
}

/// `48K/12w/64B`: the capacity in the largest unit that divides it, the
/// ways, the line.
impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self.bytes;
        if bytes > 0 && bytes.is_multiple_of(1 << 20) {
            write!(f, "{}M", bytes >> 20)?;
        } else if bytes > 0 && bytes.is_multiple_of(1 << 10) {
            write!(f, "{}K", bytes >> 10)?;
        } else {
            write!(f, "{bytes}")?;
        }
        write!(f, "/{}w/{}B", self.ways, self.line)
    }
}

impl fmt::Display for HostDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L1d {}, L2 {}, L3 {}", self.l1d, self.l2, self.l3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A fresh directory for one fake cache tree.
    fn tree(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("gemm-blis-host-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        root
    }

    fn index(root: &Path, n: usize, fields: &[(&str, &str)]) {
        let dir = root.join(format!("index{n}"));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, value) in fields {
            std::fs::write(dir.join(name), format!("{value}\n")).unwrap();
        }
    }

    fn level(root: &Path, n: usize, level: &str, kind: &str, size: &str, ways: &str) {
        level_on(root, n, level, kind, size, ways, "64");
    }

    fn level_on(root: &Path, n: usize, level: &str, kind: &str, size: &str, ways: &str, line: &str) {
        let fields = [
            ("level", level),
            ("type", kind),
            ("size", size),
            ("ways_of_associativity", ways),
            ("coherency_line_size", line),
        ];
        index(root, n, &fields);
    }

    #[test]
    fn the_probe_reads_a_sysfs_tree() {
        let root = tree("full");
        level(&root, 0, "1", "Data", "48K", "12");
        level(&root, 1, "1", "Instruction", "32K", "8");
        level(&root, 2, "2", "Unified", "2048K", "16");
        level(&root, 3, "3", "Unified", "300M", "20");
        let host = HostDescription::probe(&root);
        let geometry = |bytes, ways| CacheGeometry { bytes, ways, line: 64 };
        assert_eq!(host.l1d, geometry(48 << 10, 12), "the instruction cache is not the L1d");
        assert_eq!(host.l2, geometry(2 << 20, 16));
        assert_eq!(host.l3, geometry(300 << 20, 20));
        assert_eq!(host.signature(), "l1d:48K/12w/64B,l2:2M/16w/64B,l3:300M/20w/64B");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_host_without_an_l3_records_none() {
        let root = tree("no-l3");
        level(&root, 0, "1", "Data", "32768", "8");
        level(&root, 1, "2", "Unified", "1M", "8");
        let host = HostDescription::probe(&root);
        assert_eq!((host.l1d.bytes, host.l2.bytes, host.l3.bytes), (32 << 10, 1 << 20, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_missing_or_garbled_tree_falls_back_to_carmel() {
        let carmel = HostDescription::carmel();
        assert_eq!((carmel.l1d.bytes, carmel.l2.bytes, carmel.l3.bytes), (64 << 10, 2 << 20, 4 << 20));
        let missing = std::env::temp_dir().join(format!("gemm-blis-host-absent-{}", std::process::id()));
        assert_eq!(HostDescription::probe(&missing), carmel);
        let empty = tree("empty");
        assert_eq!(HostDescription::probe(&empty), carmel);
        let _ = std::fs::remove_dir_all(&empty);
        for (tag, size) in [("garbled", "forty-eight"), ("suffix", "48Q"), ("blank", "")] {
            let root = tree(tag);
            level(&root, 0, "1", "Data", size, "12");
            level(&root, 1, "2", "Unified", "2048K", "16");
            assert_eq!(HostDescription::probe(&root), carmel, "size {size:?}");
            let _ = std::fs::remove_dir_all(&root);
        }
        // An L1d alone, or a level that lost a field, is not a description.
        let root = tree("partial");
        level(&root, 0, "1", "Data", "48K", "12");
        assert_eq!(HostDescription::probe(&root), carmel);
        index(&root, 1, &[("level", "2"), ("type", "Unified"), ("size", "2048K")]);
        assert_eq!(HostDescription::probe(&root), carmel);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_line_that_is_not_a_power_of_two_is_a_garbled_tree() {
        let carmel = HostDescription::carmel();
        for line in ["0", "48", "96"] {
            for garbled in [1, 2] {
                let root = tree(&format!("line-{line}-l{garbled}"));
                let line_of = |level| if level == garbled { line } else { "64" };
                level_on(&root, 0, "1", "Data", "48K", "12", line_of(1));
                level_on(&root, 1, "2", "Unified", "2048K", "16", line_of(2));
                assert_eq!(HostDescription::probe(&root), carmel, "a {line}-byte L{garbled} line");
                let _ = std::fs::remove_dir_all(&root);
            }
        }
    }

    #[test]
    fn sizes_take_sysfs_suffixes() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("1G"), Some(1 << 30));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("K"), None);
        assert_eq!(parse_size(""), None);
        assert_eq!(HostDescription::carmel().to_string(), "L1d 64K/4w/64B, L2 2M/16w/64B, L3 4M/16w/64B");
    }
}
