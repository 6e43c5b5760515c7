//! The kernel registry: kernel caching and tuning-verdict memoisation.
//!
//! The registry is a tuner's memory for the life of the process. It wraps a
//! shared [`KernelCache`] (schedules keyed by `(isa, mr, nr)`, each tile
//! scheduled at most once per process and lowered at most once, when it is
//! served) and adds a verdict table keyed by problem shape
//! `(m, n, k)`. A verdict is a pure function of the shape and the design
//! space it was searched in — the described ISA, the executing ISA and the
//! caches — so nothing is written down: every [`crate::Tuner`] owns its
//! registry, and a verdict cannot reach a tuner of another space.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gemm_blis::BlockingParams;
use ukernel_gen::KernelCache;

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
}

/// Kernel cache plus memoised tuning verdicts.
#[derive(Debug, Default)]
pub struct KernelRegistry {
    kernels: Arc<KernelCache>,
    verdicts: Mutex<BTreeMap<(usize, usize, usize), TuneVerdict>>,
}

impl KernelRegistry {
    /// An empty registry with a fresh kernel cache.
    pub fn new() -> Self {
        KernelRegistry::default()
    }

    /// The shared kernel cache.
    pub fn kernel_cache(&self) -> Arc<KernelCache> {
        Arc::clone(&self.kernels)
    }

    /// Recipe runs performed through the kernel cache
    /// ([`KernelCache::generator_invocations`]).
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

    /// Records a verdict, replacing any earlier one for its shape.
    pub fn record(&self, verdict: TuneVerdict) {
        self.table().insert((verdict.m, verdict.n, verdict.k), verdict);
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

    #[test]
    fn a_panic_under_the_lock_does_not_take_the_registry_down() {
        let registry = KernelRegistry::new();
        registry.record(verdict(32, 32, 32));
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
        registry.record(verdict(64, 64, 64));
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn concurrent_records_on_one_persisted_registry_all_land() {
        // Records from many threads at once: every one lands, none is lost
        // to another's insert.
        const THREADS: usize = 8;
        const RECORDS: usize = 50;
        let registry = KernelRegistry::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let registry = &registry;
                s.spawn(move || (1..=RECORDS).for_each(|r| registry.record(verdict(t + 1, r, 7))));
            }
        });
        assert_eq!(registry.len(), THREADS * RECORDS);
        for t in 1..=THREADS {
            for r in 1..=RECORDS {
                assert_eq!(registry.verdict(t, r, 7), Some(verdict(t, r, 7)));
            }
        }
    }
}
