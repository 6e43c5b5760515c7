//! The kernel registry: generated-kernel caching, tuning-verdict
//! memoisation, and JSON persistence.
//!
//! The registry is the subsystem's memory. It wraps a shared
//! [`KernelCache`] (kernels keyed by `(isa, mr, nr)`, generated at most
//! once per process) and adds a verdict table keyed by problem shape
//! `(m, n, k)`. With a persistence path configured, every recorded verdict
//! is written to a JSON file, and a registry opened on the same path starts
//! warm: a second tuning run answers every shape from the file without
//! invoking the generator at all.
//!
//! A registry is named after the design space its verdicts were searched
//! in ([`crate::DesignSpace::identity`]): `neon-f32` for the modelled
//! space, `neon-f32@avx2` for the tiles served on an AVX2 host. The name is
//! the file's `isa` field, and a file is only loaded under its own name —
//! a verdict searched for one executing ISA is never served on another —
//! and in the current format: every verdict in it was ranked by the one
//! analytical model, so a verdict carries no note of its ranker.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gemm_blis::BlockingParams;
use ukernel_gen::KernelCache;

use crate::error::TuneError;
use crate::json::{self, Json};

/// Current on-disk format version. Version 2 dropped the per-verdict
/// `evaluator` key: every search of this tree ranks with the one analytical
/// model, so a file from an older ranker is refused whole as
/// [`TuneError::Corrupt`] instead of re-checked verdict by verdict.
const FORMAT_VERSION: f64 = 2.0;

/// The outcome of tuning one GEMM problem shape.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneVerdict {
    /// Problem rows.
    pub m: usize,
    /// Problem columns.
    pub n: usize,
    /// Problem depth.
    pub k: usize,
    /// Winning register-tile rows.
    pub mr: usize,
    /// Winning register-tile columns.
    pub nr: usize,
    /// Winning cache blocking: rows of the packed `Ac` block.
    pub mc: usize,
    /// Winning cache blocking: packed block depth.
    pub kc: usize,
    /// Winning cache blocking: columns of the packed `Bc` block.
    pub nc: usize,
    /// Cost of the winner in cycles of the *modelled Carmel core*. It ranks
    /// candidates against each other and feeds the paper's modelled
    /// figures; it is never a prediction for the host that executes the
    /// kernel.
    pub predicted_cycles: f64,
    /// [`Self::predicted_cycles`] as GFLOPS (`2 m n k` useful flops at the
    /// modelled clock) — the modelled Carmel's rate, not the host's.
    pub predicted_gflops: f64,
    /// How many candidates the search evaluated when this verdict was
    /// produced (memoised answers keep the original search's count). Zero
    /// marks the verdict an empty problem is dispatched with, which no
    /// search produced.
    pub candidates_evaluated: usize,
}

impl TuneVerdict {
    /// The winning blocking parameters as a [`BlockingParams`].
    pub fn blocking(&self) -> BlockingParams {
        BlockingParams { mc: self.mc, kc: self.kc, nc: self.nc, mr: self.mr, nr: self.nr }
    }

    fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        let mut put = |key: &str, value: f64| {
            obj.insert(key.to_string(), Json::Num(value));
        };
        put("m", self.m as f64);
        put("n", self.n as f64);
        put("k", self.k as f64);
        put("mr", self.mr as f64);
        put("nr", self.nr as f64);
        put("mc", self.mc as f64);
        put("kc", self.kc as f64);
        put("nc", self.nc as f64);
        put("predicted_cycles", self.predicted_cycles);
        put("predicted_gflops", self.predicted_gflops);
        put("candidates_evaluated", self.candidates_evaluated as f64);
        Json::Obj(obj)
    }

    fn from_json(value: &Json) -> Result<Self, TuneError> {
        let field = |key: &str| -> Result<usize, TuneError> {
            value
                .get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| TuneError::Corrupt(format!("verdict field `{key}` missing or invalid")))
        };
        let num = |key: &str| -> Result<f64, TuneError> {
            value
                .get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| TuneError::Corrupt(format!("verdict field `{key}` missing or invalid")))
        };
        Ok(TuneVerdict {
            m: field("m")?,
            n: field("n")?,
            k: field("k")?,
            mr: field("mr")?,
            nr: field("nr")?,
            mc: field("mc")?,
            kc: field("kc")?,
            nc: field("nc")?,
            predicted_cycles: num("predicted_cycles")?,
            predicted_gflops: num("predicted_gflops")?,
            candidates_evaluated: field("candidates_evaluated")?,
        })
    }
}

/// Kernel cache plus memoised tuning verdicts, optionally persisted.
#[derive(Debug)]
pub struct KernelRegistry {
    kernels: Arc<KernelCache>,
    verdicts: Mutex<BTreeMap<(usize, usize, usize), TuneVerdict>>,
    isa_name: String,
    path: Option<PathBuf>,
    /// Held across a save's render, write and rename, so concurrent saves
    /// take turns and the last one to rename published the newest table.
    saving: Mutex<()>,
}

impl KernelRegistry {
    /// An in-memory registry (no persistence) named `isa_name` — the
    /// [`crate::DesignSpace::identity`] of the space it will hold verdicts
    /// for.
    pub fn new(isa_name: impl Into<String>) -> Self {
        KernelRegistry {
            kernels: Arc::new(KernelCache::new()),
            verdicts: Mutex::new(BTreeMap::new()),
            isa_name: isa_name.into(),
            path: None,
            saving: Mutex::new(()),
        }
    }

    /// A registry persisted at `path`. If the file exists its verdicts are
    /// loaded (a warm start); otherwise it is created on the first record.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::Io`] if the file exists but cannot be read, and
    /// [`TuneError::Corrupt`] if it does not parse as a registry of the
    /// same name.
    pub fn with_persistence(isa_name: impl Into<String>, path: impl AsRef<Path>) -> Result<Self, TuneError> {
        let mut registry = KernelRegistry::new(isa_name);
        let path = path.as_ref().to_path_buf();
        if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| TuneError::Io(format!("reading {}: {e}", path.display())))?;
            registry.load_text(&text)?;
        }
        registry.path = Some(path);
        Ok(registry)
    }

    /// Like [`KernelRegistry::with_persistence`], but a damaged cache
    /// degrades to a cold start instead of refusing to serve: if the file
    /// is unreadable or does not parse, it is quarantined aside as
    /// `<path>.corrupt` (best effort) and a fresh registry persisting at
    /// `path` is returned, along with the error that was tolerated so the
    /// caller can log it. A tuning cache is an accelerant, not a source of
    /// truth — losing it costs a re-search, never correctness.
    pub fn with_persistence_or_fresh(
        isa_name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> (Self, Option<TuneError>) {
        let isa_name = isa_name.into();
        let path = path.as_ref();
        match KernelRegistry::with_persistence(isa_name.clone(), path) {
            Ok(registry) => (registry, None),
            Err(error) => {
                let mut quarantine = path.as_os_str().to_owned();
                quarantine.push(".corrupt");
                let _ = std::fs::rename(path, &quarantine);
                let mut registry = KernelRegistry::new(isa_name);
                registry.path = Some(path.to_path_buf());
                (registry, Some(error))
            }
        }
    }

    /// The shared generated-kernel cache.
    pub fn kernel_cache(&self) -> Arc<KernelCache> {
        Arc::clone(&self.kernels)
    }

    /// The name of the design space this registry's verdicts apply to: the
    /// described ISA, plus `@<executing ISA>` for a serving space.
    pub fn isa_name(&self) -> &str {
        &self.isa_name
    }

    /// The persistence path, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Generator invocations performed through the kernel cache.
    pub fn generator_invocations(&self) -> u64 {
        self.kernels.generator_invocations()
    }

    /// The verdict table, whether or not a holder of the lock panicked:
    /// every critical section is one whole map operation, so the table is
    /// consistent at any point a panic can leave it — and one contained
    /// panic must not fail every later lookup.
    fn table(&self) -> MutexGuard<'_, BTreeMap<(usize, usize, usize), TuneVerdict>> {
        self.verdicts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memoised verdict for a problem shape, if present.
    pub fn verdict(&self, m: usize, n: usize, k: usize) -> Option<TuneVerdict> {
        self.table().get(&(m, n, k)).cloned()
    }

    /// Number of memoised verdicts.
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// Whether the registry holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a verdict and, when persistence is configured, rewrites the
    /// registry file.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::Io`] if the file cannot be written.
    pub fn record(&self, verdict: TuneVerdict) -> Result<(), TuneError> {
        self.table().insert((verdict.m, verdict.n, verdict.k), verdict);
        self.save()
    }

    /// Writes the registry file if persistence is configured (no-op
    /// otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::Io`] if the file cannot be written.
    pub fn save(&self) -> Result<(), TuneError> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| TuneError::Io(format!("creating {}: {e}", parent.display())))?;
            }
        }
        // Write-then-rename so an interrupted save never leaves a truncated
        // file behind: the previous registry stays intact until the new one
        // is fully on disk. The scratch file is named for this process, and
        // this registry's saves take turns on it from render to rename.
        let _turn = self.saving.lock().unwrap_or_else(PoisonError::into_inner);
        let text = self.to_text();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let tmp = path.with_file_name(format!(".{name}.{}.tmp", std::process::id()));
        std::fs::write(&tmp, text).map_err(|e| TuneError::Io(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| TuneError::Io(format!("renaming {} to {}: {e}", tmp.display(), path.display())))
    }

    /// Serialises the registry to its JSON document.
    pub fn to_text(&self) -> String {
        let verdicts = self.table();
        let mut obj = BTreeMap::new();
        obj.insert("version".to_string(), Json::Num(FORMAT_VERSION));
        obj.insert("isa".to_string(), Json::Str(self.isa_name.clone()));
        obj.insert("verdicts".to_string(), Json::Arr(verdicts.values().map(TuneVerdict::to_json).collect()));
        Json::Obj(obj).to_text()
    }

    /// Loads verdicts from a serialised registry, replacing the in-memory
    /// table.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::Corrupt`] on malformed documents or a name
    /// (`isa`) mismatch.
    pub fn load_text(&mut self, text: &str) -> Result<(), TuneError> {
        let doc = json::parse(text).map_err(TuneError::Corrupt)?;
        let version = doc
            .get("version")
            .and_then(Json::as_num)
            .ok_or_else(|| TuneError::Corrupt("missing `version`".into()))?;
        if version != FORMAT_VERSION {
            return Err(TuneError::Corrupt(format!("unsupported registry version {version}")));
        }
        let isa = doc
            .get("isa")
            .and_then(Json::as_str)
            .ok_or_else(|| TuneError::Corrupt("missing `isa`".into()))?;
        if isa != self.isa_name {
            return Err(TuneError::Corrupt(format!(
                "registry file targets `{isa}` but this registry targets `{}`",
                self.isa_name
            )));
        }
        let entries = doc
            .get("verdicts")
            .and_then(|v| v.as_arr().map(<[Json]>::to_vec))
            .ok_or_else(|| TuneError::Corrupt("missing `verdicts`".into()))?;
        let mut table = BTreeMap::new();
        for entry in &entries {
            let verdict = TuneVerdict::from_json(entry)?;
            table.insert((verdict.m, verdict.n, verdict.k), verdict);
        }
        *self.table() = table;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(m: usize, n: usize, k: usize) -> TuneVerdict {
        TuneVerdict {
            m,
            n,
            k,
            mr: 8,
            nr: 12,
            mc: 120,
            kc: 512,
            nc: 3072,
            predicted_cycles: 1.25e6,
            predicted_gflops: 30.5,
            candidates_evaluated: 36,
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("exo-tune-registry-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn verdicts_round_trip_through_json() {
        let registry = KernelRegistry::new("neon-f32");
        registry.record(verdict(1000, 1000, 1000)).unwrap();
        registry.record(verdict(49, 512, 4608)).unwrap();
        let text = registry.to_text();

        let mut restored = KernelRegistry::new("neon-f32");
        restored.load_text(&text).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.verdict(49, 512, 4608), registry.verdict(49, 512, 4608));
        assert_eq!(restored.verdict(1000, 1000, 1000).unwrap().blocking().kc, 512);
    }

    #[test]
    fn persistence_survives_reopening() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let registry = KernelRegistry::with_persistence("neon-f32", &path).unwrap();
            assert!(registry.is_empty());
            registry.record(verdict(196, 256, 2304)).unwrap();
        }
        let registry = KernelRegistry::with_persistence("neon-f32", &path).unwrap();
        assert_eq!(registry.len(), 1);
        assert!(registry.verdict(196, 256, 2304).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn isa_mismatch_and_corrupt_files_are_rejected() {
        let mut registry = KernelRegistry::new("neon-f32");
        let other = KernelRegistry::new("avx512-f32");
        other.record(verdict(10, 10, 10)).unwrap();
        assert!(matches!(registry.load_text(&other.to_text()), Err(TuneError::Corrupt(_))));
        // The executing ISA is part of the name: a serving registry loads
        // neither another host ISA's file nor an unsuffixed (modelled, or
        // pre-suffix) one, and the modelled registry loads no serving file.
        let mut avx2 = KernelRegistry::new("neon-f32@avx2");
        let neon = KernelRegistry::new("neon-f32@neon");
        assert!(matches!(avx2.load_text(&neon.to_text()), Err(TuneError::Corrupt(_))));
        assert!(matches!(avx2.load_text(&registry.to_text()), Err(TuneError::Corrupt(_))));
        assert!(matches!(registry.load_text(&avx2.to_text()), Err(TuneError::Corrupt(_))));
        assert!(avx2.load_text(&KernelRegistry::new("neon-f32@avx2").to_text()).is_ok());
        assert!(matches!(registry.load_text("not json"), Err(TuneError::Corrupt(_))));
        assert!(matches!(
            registry.load_text("{\"version\": 99, \"isa\": \"neon-f32\", \"verdicts\": []}"),
            Err(TuneError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_cache_degrades_to_cold_start_and_is_quarantined() {
        let path = temp_path("quarantine");
        let quarantine = {
            let mut q = path.as_os_str().to_owned();
            q.push(".corrupt");
            PathBuf::from(q)
        };
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);
        std::fs::write(&path, "definitely not a registry").unwrap();

        assert!(KernelRegistry::with_persistence("neon-f32", &path).is_err());
        let (registry, tolerated) = KernelRegistry::with_persistence_or_fresh("neon-f32", &path);
        assert!(matches!(tolerated, Some(TuneError::Corrupt(_))));
        assert!(registry.is_empty());
        assert_eq!(registry.path(), Some(path.as_path()));
        assert_eq!(std::fs::read_to_string(&quarantine).unwrap(), "definitely not a registry");

        // The fresh registry still persists: record, reopen, warm start.
        registry.record(verdict(196, 256, 2304)).unwrap();
        let reopened = KernelRegistry::with_persistence("neon-f32", &path).unwrap();
        assert_eq!(reopened.len(), 1);

        // An intact (or absent) file passes through untouched.
        let (warm, tolerated) = KernelRegistry::with_persistence_or_fresh("neon-f32", &path);
        assert!(tolerated.is_none());
        assert_eq!(warm.len(), 1);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_take_the_registry_down() {
        let mut registry = KernelRegistry::new("neon-f32");
        registry.record(verdict(32, 32, 32)).unwrap();
        // A thread dies holding the verdict lock (joined, so the poison is
        // in place before the next line).
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = registry.verdicts.lock().unwrap();
                panic!("a contained panic under the verdict lock");
            })
            .join()
        });
        assert!(poisoner.is_err() && registry.verdicts.is_poisoned());
        // Every door still answers, with the state the panic found.
        assert!(registry.verdict(32, 32, 32).is_some());
        registry.record(verdict(64, 64, 64)).unwrap();
        assert_eq!(registry.len(), 2);
        let text = registry.to_text();
        registry.load_text(&text).unwrap();
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn concurrent_records_on_one_persisted_registry_all_land() {
        // Every record renders, writes and renames its own save; run
        // together, none may fail and the file must end up with every
        // verdict, whichever save published last.
        const THREADS: usize = 8;
        const RECORDS: usize = 50;
        let path = temp_path("concurrent");
        let _ = std::fs::remove_file(&path);
        let registry = KernelRegistry::with_persistence("neon-f32", &path).unwrap();
        let results: Vec<Result<(), TuneError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let registry = &registry;
                    s.spawn(move || {
                        (1..=RECORDS).map(|r| registry.record(verdict(t + 1, r, 7))).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results.len(), THREADS * RECORDS);
        for result in &results {
            assert!(result.is_ok(), "{result:?}");
        }
        let reopened = KernelRegistry::with_persistence("neon-f32", &path).unwrap();
        assert_eq!(reopened.len(), THREADS * RECORDS);
        for t in 1..=THREADS {
            for r in 1..=RECORDS {
                assert_eq!(reopened.verdict(t, r, 7), Some(verdict(t, r, 7)));
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn registry_without_persistence_never_touches_disk() {
        let registry = KernelRegistry::new("neon-f32");
        assert!(registry.path().is_none());
        registry.record(verdict(32, 32, 32)).unwrap();
        assert_eq!(registry.len(), 1);
    }
}
