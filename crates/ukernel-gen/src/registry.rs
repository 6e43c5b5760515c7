//! A shared, thread-safe cache of scheduled and generated kernels keyed by
//! `(isa, mr, nr)`.
//!
//! Scheduling a micro-kernel is cheap but not free (a dozen scheduling
//! rewrites), lowering it costs about as much again (C text, tape,
//! superword), and the same shapes recur across the simulator, the
//! functional GEMM driver, and the autotuner. A [`KernelCache`] is the
//! single source of kernels for all of them, in two steps. The first
//! request for a shape — a [`KernelCache::get_or_schedule`] from a ranker,
//! or a [`KernelCache::get_or_generate`] — runs the generator's recipe and
//! keeps the [`KernelSchedule`]; the first `get_or_generate` lowers that
//! schedule into a [`GeneratedKernel`] without running the recipe again,
//! and every later request returns what is cached. The cache counts recipe
//! runs ([`KernelCache::generator_invocations`]) and lowerings
//! ([`KernelCache::lowerings`]) so callers (and tests) can verify that a
//! warm cache never regenerates and that ranking lowers nothing. A hit
//! allocates nothing: the table is keyed by ISA name, then by tile, so a
//! lookup borrows the generator's name instead of copying it into a key.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::error::Result;
use crate::generator::{GeneratedKernel, KernelSchedule, MicroKernelGenerator};

/// One tile's cached state: its schedule, and its lowering once a caller
/// asked for the kernel.
#[derive(Debug)]
struct Tile {
    schedule: Arc<KernelSchedule>,
    kernel: Option<Arc<GeneratedKernel>>,
}

/// The cached tiles of one ISA, keyed by `(mr, nr)`.
type Tiles = HashMap<(usize, usize), Tile>;

/// A thread-safe cache of kernels keyed by `(isa, mr, nr)`: each tile's
/// schedule, and its generated kernel once one was asked for.
#[derive(Debug, Default)]
pub struct KernelCache {
    tiles: Mutex<HashMap<String, Tiles>>,
    invocations: AtomicU64,
    lowerings: AtomicU64,
}

impl KernelCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        KernelCache::default()
    }

    /// The table, whether or not a holder of the lock panicked: the map is
    /// only touched by whole lookups and by the insertions after a recipe
    /// or a lowering has returned, so a panic inside either leaves it as it
    /// was — and one contained panic must not fail every later lookup.
    fn table(&self) -> MutexGuard<'_, HashMap<String, Tiles>> {
        self.tiles.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The tile for `(generator ISA, mr, nr)` in `table`, running the
    /// generator's recipe (and caching its schedule) on the first request.
    /// Only the first request for an ISA copies its name.
    fn tile<'t>(
        &self,
        table: &'t mut HashMap<String, Tiles>,
        generator: &MicroKernelGenerator,
        mr: usize,
        nr: usize,
    ) -> Result<&'t mut Tile> {
        let isa = generator.isa().name.as_str();
        if !table.contains_key(isa) {
            table.insert(isa.to_owned(), Tiles::new());
        }
        let tiles = table.get_mut(isa).expect("inserted above");
        match tiles.entry((mr, nr)) {
            Entry::Occupied(tile) => Ok(tile.into_mut()),
            Entry::Vacant(slot) => {
                self.invocations.fetch_add(1, Ordering::Relaxed);
                let schedule = Arc::new(generator.schedule(mr, nr)?);
                Ok(slot.insert(Tile { schedule, kernel: None }))
            }
        }
    }

    /// Returns the cached schedule for `(generator ISA, mr, nr)`, running
    /// the recipe (and caching the schedule) on the first request. Lowers
    /// nothing: this is what a ranker asks for.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::GenError`] if the shape cannot be scheduled.
    pub fn get_or_schedule(
        &self,
        generator: &MicroKernelGenerator,
        mr: usize,
        nr: usize,
    ) -> Result<Arc<KernelSchedule>> {
        // Schedule while holding the lock: scheduling is pure and quick,
        // and this guarantees each shape's recipe runs exactly once.
        let mut tiles = self.table();
        Ok(Arc::clone(&self.tile(&mut tiles, generator, mr, nr)?.schedule))
    }

    /// Returns the cached kernel for `(generator ISA, mr, nr)`, lowering
    /// the cached schedule — and running the recipe first if no schedule is
    /// cached yet — on the first request.
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
        // Lower while holding the lock, for the same reason: each shape is
        // lowered exactly once.
        let mut tiles = self.table();
        let tile = self.tile(&mut tiles, generator, mr, nr)?;
        if let Some(kernel) = &tile.kernel {
            return Ok(Arc::clone(kernel));
        }
        self.lowerings.fetch_add(1, Ordering::Relaxed);
        let kernel = Arc::new(GeneratedKernel::lower(Arc::clone(&tile.schedule))?);
        tile.kernel = Some(Arc::clone(&kernel));
        Ok(kernel)
    }

    /// Number of tiles currently cached (each scheduled; some of them also
    /// lowered).
    pub fn len(&self) -> usize {
        self.table().values().map(HashMap::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many times the cache has run a generator's recipe since
    /// creation: one per tile scheduled.
    pub fn generator_invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// How many schedules the cache has lowered into kernels since
    /// creation: one per tile a caller asked to run.
    pub fn lowerings(&self) -> u64 {
        self.lowerings.load(Ordering::Relaxed)
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
    fn a_schedule_then_its_kernel_runs_the_recipe_once() {
        let cache = KernelCache::new();
        let generator = MicroKernelGenerator::new(neon_f32());
        let schedule = cache.get_or_schedule(&generator, 8, 12).unwrap();
        assert_eq!((cache.generator_invocations(), cache.lowerings()), (1, 0), "scheduling lowers nothing");
        assert!(Arc::ptr_eq(&cache.get_or_schedule(&generator, 8, 12).unwrap(), &schedule));
        let kernel = cache.get_or_generate(&generator, 8, 12).unwrap();
        assert_eq!(
            (cache.generator_invocations(), cache.lowerings()),
            (1, 1),
            "the kernel lowers the schedule"
        );
        assert!(Arc::ptr_eq(&kernel.schedule, &schedule), "the kernel is the cached schedule's lowering");
        assert!(Arc::ptr_eq(&cache.get_or_generate(&generator, 8, 12).unwrap(), &kernel));
        assert!(Arc::ptr_eq(&cache.get_or_schedule(&generator, 8, 12).unwrap(), &schedule));
        assert_eq!((cache.generator_invocations(), cache.lowerings(), cache.len()), (1, 1, 1));
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
        // This crate links no table of native bodies, so the verdict is a
        // silent, permanent miss; under a table the body promotes.
        let settled = kernel.native();
        assert!(settled.is_none() || exo_aot::native_available(), "a body without a table");
        // A second request serves the same kernel — its lowering and
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
                let _held = cache.tiles.lock().unwrap();
                panic!("a contained panic inside generation");
            })
            .join()
        });
        assert!(poisoner.is_err() && cache.tiles.is_poisoned());
        // Every door still answers, with the state the panic found.
        assert!(Arc::ptr_eq(&cache.get_or_generate(&generator, 4, 4).unwrap(), &before));
        cache.get_or_generate(&generator, 4, 8).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.generator_invocations(), 2);
    }
}
