//! A shared, thread-safe cache of generated kernels keyed by
//! `(isa, mr, nr)`.
//!
//! Generating a micro-kernel is cheap but not free (a dozen scheduling
//! rewrites plus code generation), and the same shapes recur across the
//! simulator, the functional GEMM driver, and the autotuner. A
//! [`KernelCache`] is the single source of generated kernels for all of
//! them: the first request for a shape invokes the generator, every later
//! request returns the cached [`GeneratedKernel`]. The cache counts
//! generator invocations so callers (and tests) can verify that a warm
//! cache never regenerates.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::error::Result;
use crate::generator::{GeneratedKernel, MicroKernelGenerator};

/// Key of a cached kernel: ISA name and register-tile shape.
pub type KernelKey = (String, usize, usize);

/// A thread-safe cache of generated kernels keyed by `(isa, mr, nr)`.
#[derive(Debug, Default)]
pub struct KernelCache {
    kernels: Mutex<HashMap<KernelKey, Arc<GeneratedKernel>>>,
    invocations: AtomicU64,
}

impl KernelCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        KernelCache::default()
    }

    /// The table, whether or not a holder of the lock panicked: the map is
    /// only touched by whole lookups and by the insertion after generation
    /// has returned, so a panic inside `generate` leaves it as it was — and
    /// one contained panic must not fail every later lookup.
    fn table(&self) -> MutexGuard<'_, HashMap<KernelKey, Arc<GeneratedKernel>>> {
        self.kernels.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cached kernel for `(generator ISA, mr, nr)`, generating
    /// (and caching) it on the first request.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::GenError`] if the shape cannot be generated.
    pub fn get_or_generate(
        &self,
        generator: &MicroKernelGenerator,
        mr: usize,
        nr: usize,
    ) -> Result<Arc<GeneratedKernel>> {
        let key = (generator.isa().name.clone(), mr, nr);
        let mut kernels = self.table();
        if let Some(kernel) = kernels.get(&key) {
            return Ok(Arc::clone(kernel));
        }
        // Generate while holding the lock: generation is pure and quick, and
        // this guarantees each shape is generated exactly once.
        self.invocations.fetch_add(1, Ordering::Relaxed);
        let kernel = Arc::new(generator.generate(mr, nr)?);
        kernels.insert(key, Arc::clone(&kernel));
        Ok(kernel)
    }

    /// Number of kernels currently cached.
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many times the cache has invoked a generator since creation.
    pub fn generator_invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_isa::{avx512_f32, neon_f32};

    #[test]
    fn cache_generates_once_per_shape() {
        let cache = KernelCache::new();
        let generator = MicroKernelGenerator::new(neon_f32());
        let first = cache.get_or_generate(&generator, 8, 12).unwrap();
        assert_eq!(cache.generator_invocations(), 1);
        let second = cache.get_or_generate(&generator, 8, 12).unwrap();
        assert_eq!(cache.generator_invocations(), 1, "warm lookup must not regenerate");
        assert!(Arc::ptr_eq(&first, &second));
        cache.get_or_generate(&generator, 4, 4).unwrap();
        assert_eq!(cache.generator_invocations(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_keys_include_the_isa() {
        let cache = KernelCache::new();
        let neon = MicroKernelGenerator::new(neon_f32());
        let avx = MicroKernelGenerator::new(avx512_f32());
        let neon_8x8 = cache.get_or_generate(&neon, 8, 8).unwrap();
        let avx_8x8 = cache.get_or_generate(&avx, 8, 8).unwrap();
        assert_eq!(cache.generator_invocations(), 2, "one shape, two ISAs: two kernels");
        assert_eq!((neon_8x8.isa_name.as_str(), avx_8x8.isa_name.as_str()), ("neon-f32", "avx512-f32"));
        assert!(Arc::ptr_eq(&cache.get_or_generate(&neon, 8, 8).unwrap(), &neon_8x8));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn every_lowering_is_cached_alongside_its_kernel() {
        let cache = KernelCache::new();
        let generator = MicroKernelGenerator::new(neon_f32());
        let kernel = cache.get_or_generate(&generator, 8, 12).unwrap();
        assert!(Arc::ptr_eq(kernel.superword.tape(), &kernel.tape), "one tape under both lowerings");
        // This crate links no table of native bodies, so the verdict is a
        // silent, permanent miss; under a table the body promotes.
        let settled = kernel.native();
        assert!(settled.is_none() || exo_aot::native_available(), "a body without a table");
        // A second request serves the same kernel — tape, lowering and
        // settled native verdict with it — without regenerating.
        let again = cache.get_or_generate(&generator, 8, 12).unwrap();
        assert_eq!(cache.generator_invocations(), 1);
        assert!(Arc::ptr_eq(&kernel, &again));
        match (settled, again.native()) {
            (Some(native), Some(polled)) => {
                assert_eq!(native.isa(), exo_codegen::active_isa());
                assert!(Arc::ptr_eq(&native, &polled));
            }
            (None, None) => {}
            (settled, polled) => panic!("settled {settled:?} but the poll answers {polled:?}"),
        }
    }

    #[test]
    fn a_panic_under_the_lock_does_not_take_the_cache_down() {
        let cache = KernelCache::new();
        let generator = MicroKernelGenerator::new(neon_f32());
        let before = cache.get_or_generate(&generator, 4, 4).unwrap();
        // What a panic inside `generate` does: the thread dies holding the
        // lock. (Joined, so the poison is in place before the next line.)
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = cache.kernels.lock().unwrap();
                panic!("a contained panic inside generation");
            })
            .join()
        });
        assert!(poisoner.is_err() && cache.kernels.is_poisoned());
        // Every door still answers, with the state the panic found.
        assert!(Arc::ptr_eq(&cache.get_or_generate(&generator, 4, 4).unwrap(), &before));
        cache.get_or_generate(&generator, 4, 8).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.generator_invocations(), 2);
    }
}
