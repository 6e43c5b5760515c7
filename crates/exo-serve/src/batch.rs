//! Batched GEMM execution: many `C_i = alpha_i * op(A_i) * op(B_i) +
//! beta_i * C_i` entries solved through shared, amortised machinery.
//!
//! A standalone `gemm` call pays fixed costs that have nothing to do with
//! the problem's flops: a registry lookup and `KernelImpl` clone, a driver
//! construction, a packing-arena allocation, and a fresh prove-once
//! dispatch handle whose bounds proof (the superword lowering's
//! affine-interval certificate) is re-memoised from scratch. For the small problems of a serving mix those costs dominate.
//! [`GemmBatchExecutor::gemm_batch`] restructures the work so they are paid
//! **once per kernel-shape group instead of once per entry**:
//!
//! 1. entries are grouped by tuning verdict (kernel tile + blocking) — one
//!    `KernelCache` lookup and one blocking per group;
//! 2. each group runs on per-shard [`gemm_blis::GemmRunner`]s — one arena
//!    reservation and one dispatch-proof memoisation per shard, not per
//!    entry (and [`CachedTunedGemm`] keeps them warm *across* batches: once
//!    per shape family for the executor's lifetime);
//! 3. **the entries are the parallel axis**: a group with at least as many
//!    entries as the shared pool ([`gemm_blis::ThreadPool::global`]) has
//!    workers deals them round-robin, one shard per worker, and every
//!    entry — whatever its size — runs whole on its shard's runner. Only a
//!    group too short to occupy the pool runs its entries one after
//!    another under the driver's own threaded partition of `C`;
//! 4. consecutive entries of a group that multiply by the same `B` — a
//!    layer's weights against a batch of activations — pack it **once per
//!    batch** into a [`gemm_blis::PackedB`] image every one of them
//!    slices, instead of once per entry ([`BatchReport::b_images_packed`],
//!    [`BatchReport::entries_on_shared_b`]).
//!
//! The result is **bit-identical to a sequential per-entry loop** over the
//! same executor: kernel and blocking selection are deterministic per
//! shape, entries never share a `C`, a shared image holds the bytes each
//! entry would have packed for itself, and each entry runs the exact
//! sequential five-loop op order inside its runner.
//!
//! ## Fault isolation and degradation
//!
//! Entries fail **individually**: each attempt runs inside a panic capture
//! (and each pool shard inside [`ThreadPool::scope_run_captured`]), so a
//! panicking entry resolves as [`GemmError::JobPanicked`] while the rest of
//! the batch completes. A failed or panicked entry whose `beta == 0` (its
//! `C` is never read, so a re-run fully overwrites any partial write) is
//! retried **once on the next execution tier down** the ladder
//! native → simd → superword (the portable scalar chain) → tape → interp
//! ([`gemm_blis::ExecBackend::degraded`]);
//! a retried success is stamped [`GemmStats::degraded`]. The
//! [`BatchReport`] carries the per-entry outcomes plus the isolation
//! tallies (panics caught, retries, degraded completions).

use std::collections::hash_map::{Entry, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gemm_blis::pool::{PoolJob, ThreadPool};
use gemm_blis::{BlisGemm, GemmError, GemmExecutor, GemmProblem, GemmRunner, GemmStats, PackedB};

use crate::fault;

/// An ordered batch of GEMM problems, executed together by a
/// [`GemmBatchExecutor`].
///
/// Entry `i` of the returned stats corresponds to entry `i` pushed here,
/// and results are bit-identical to running the entries one by one through
/// the same executor — batching changes *when* fixed costs are paid, never
/// *what* is computed.
#[derive(Default)]
pub struct GemmBatch<'a> {
    entries: Vec<GemmProblem<'a>>,
}

impl<'a> GemmBatch<'a> {
    /// An empty batch.
    pub fn new() -> Self {
        GemmBatch { entries: Vec::new() }
    }

    /// Appends one problem; it keeps its position in the stats vector.
    pub fn push(&mut self, problem: GemmProblem<'a>) {
        self.entries.push(problem);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the batch has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Consumes the batch into its problems, in submission order.
    pub fn into_problems(self) -> Vec<GemmProblem<'a>> {
        self.entries
    }
}

impl<'a> From<Vec<GemmProblem<'a>>> for GemmBatch<'a> {
    fn from(entries: Vec<GemmProblem<'a>>) -> Self {
        GemmBatch { entries }
    }
}

impl<'a> FromIterator<GemmProblem<'a>> for GemmBatch<'a> {
    fn from_iter<I: IntoIterator<Item = GemmProblem<'a>>>(iter: I) -> Self {
        GemmBatch { entries: iter.into_iter().collect() }
    }
}

/// The per-entry outcomes of one batch, plus the isolation tallies.
///
/// Entry `i` of [`BatchReport::outcomes`] corresponds to entry `i` of the
/// executed [`GemmBatch`]. Failures are per entry — one panicking or
/// erroring entry never aborts its batch.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-entry results in submission order: stats (with
    /// [`GemmStats::batched`] set) or the entry's own error.
    pub outcomes: Vec<Result<GemmStats, GemmError>>,
    /// Panic events contained by the entry and shard captures.
    pub panics_caught: u64,
    /// Degradation retries attempted (failed first attempts re-run one
    /// tier down).
    pub retries: u64,
    /// Entries that completed on the retry tier ([`GemmStats::degraded`]).
    pub degraded_completions: u64,
    /// Fresh per-shard runner constructions (arena + staged tile + dispatch
    /// proof) this batch paid for. A [`CachedTunedGemm`] serving a warm
    /// shape mix reports zero: every shard drew a pooled runner.
    pub runners_built: u64,
    /// `B` operands packed once for several entries: one per run of two or
    /// more consecutive entries of a group that borrow the same `B`.
    pub b_images_packed: u64,
    /// Entries whose `B` came from such an image instead of being packed
    /// for them alone.
    pub entries_on_shared_b: u64,
}

impl BatchReport {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the batch had no entries.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Collapses the report into the pre-isolation contract: stats in
    /// submission order, or the error of the lowest-indexed failing entry
    /// (the convenience for callers that treat any entry failure as a
    /// batch failure, e.g. the throughput benches).
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-indexed) entry error.
    pub fn into_stats(self) -> Result<Vec<GemmStats>, GemmError> {
        self.outcomes.into_iter().collect()
    }
}

/// An executor that solves a whole [`GemmBatch`] with amortised fixed costs
/// (see the module docs for the cost model).
pub trait GemmBatchExecutor {
    /// Solves every entry and returns per-entry outcomes in submission
    /// order (successes carry [`GemmStats::batched`]).
    ///
    /// An empty batch returns an empty report. Degenerate entries
    /// (`m`/`n`/`k` of zero) are executed (their `beta` contract applies)
    /// and counted with zero flops. Entries fail individually — panics are
    /// contained and degradation-retried per the module docs — so the `C`
    /// operand of every *successful* outcome is fully updated regardless
    /// of other entries' failures. A failed entry's `C` is untouched for
    /// pre-dispatch errors (shape, planning, decline) and unspecified for
    /// contained panics without a successful retry.
    fn gemm_batch(&self, batch: GemmBatch<'_>) -> BatchReport;
}

/// Stamps the batch marker on stats produced through the batch path.
fn mark_batched(mut stats: GemmStats) -> GemmStats {
    stats.batched = true;
    stats
}

/// Shared isolation tallies, updated from shards and the calling thread.
#[derive(Default)]
struct Tally {
    panics: AtomicU64,
    retries: AtomicU64,
    degraded: AtomicU64,
    runner_builds: AtomicU64,
    b_images: AtomicU64,
    shared_b_entries: AtomicU64,
}

/// Renders a contained panic payload into the `JobPanicked` message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one batch entry with panic isolation and one degradation retry.
///
/// The first attempt goes through `runner` (the shard's amortised engine,
/// built from `driver`) on up to `threads` pool workers, reading `B` from
/// `packed_b` when the entry shares an image. A panic is contained and
/// resolved as [`GemmError::JobPanicked`]. Executional failures —
/// contained panics and kernel errors — are retried once on the next
/// backend tier down (on one thread, packing `B` for itself), but
/// only when `beta == 0`: a failed attempt may have partially written `C`,
/// and only the never-reads-`C` contract makes a re-run equivalent to a
/// clean first run. (Under an `EXO_BACKEND` override the dispatch tier is
/// pinned, so the "degraded" retry re-runs the forced tier.)
fn run_entry(
    driver: &BlisGemm,
    runner: &mut GemmRunner,
    problem: &mut GemmProblem<'_>,
    packed_b: Option<&PackedB>,
    threads: usize,
    tally: &Tally,
) -> Result<GemmStats, GemmError> {
    let first = catch_unwind(AssertUnwindSafe(|| {
        if let Some(fault::EntryFault::Decline) = fault::entry_hook() {
            return Err(GemmError::Kernel {
                kernel: driver.kernel().name.clone(),
                message: "injected fault: simulated proof decline (EXO_FAULT decline)".into(),
            });
        }
        runner.run(problem.reborrow(), packed_b, threads)
    }));
    let failure = match first {
        Ok(Ok(stats)) => return Ok(mark_batched(stats)),
        Ok(Err(e)) => e,
        Err(payload) => {
            tally.panics.fetch_add(1, Ordering::Relaxed);
            GemmError::JobPanicked { message: panic_message(payload.as_ref()) }
        }
    };
    let executional = matches!(failure, GemmError::JobPanicked { .. } | GemmError::Kernel { .. });
    if !executional || problem.beta != 0.0 {
        return Err(failure);
    }
    let Some(tier) = driver.kernel().backend.effective().degraded() else {
        return Err(failure);
    };
    tally.retries.fetch_add(1, Ordering::Relaxed);
    let degraded_driver =
        driver.clone().with_kernel(driver.kernel().clone().with_backend(tier)).with_threads(1);
    match catch_unwind(AssertUnwindSafe(|| degraded_driver.gemm(problem.reborrow()))) {
        Ok(Ok(mut stats)) => {
            stats.degraded = true;
            tally.degraded.fetch_add(1, Ordering::Relaxed);
            Ok(mark_batched(stats))
        }
        Ok(Err(e)) => Err(e),
        Err(payload) => {
            tally.panics.fetch_add(1, Ordering::Relaxed);
            Err(GemmError::JobPanicked { message: panic_message(payload.as_ref()) })
        }
    }
}

/// One entry of a group on its way to a shard: its slot in the batch, the
/// problem, and the index of the image it reads `B` from, if it shares one.
type GroupEntry<'a> = (usize, GemmProblem<'a>, Option<usize>);

/// Packs one image per run of two or more consecutive `entries` that
/// multiply by the same `B` — the same view ([`gemm_blis::MatRef::same_view`])
/// under the same `op_b`, which the batch holds immutably for as long as the
/// entries live — and points the run's entries at it. One pass of pointer
/// compares; a group that shares nothing touches neither `images` nor the
/// allocator. `images` is scratch: slots are reused from the front, grown
/// only when a batch has more shared operands than any before it.
fn pack_shared_b(
    driver: &BlisGemm,
    entries: &mut [GroupEntry<'_>],
    images: &mut Vec<PackedB>,
    tally: &Tally,
) {
    let same_b = |x: &GemmProblem<'_>, y: &GemmProblem<'_>| x.op_b == y.op_b && x.b.same_view(&y.b);
    let (mut start, mut packed) = (0, 0);
    while start < entries.len() {
        let first = &entries[start].1;
        let run = 1 + entries[start + 1..].iter().take_while(|(_, p, _)| same_b(first, p)).count();
        if run >= 2 {
            if images.len() == packed {
                images.push(PackedB::default());
            }
            driver.pack_b(first.op_b.apply(first.b), &mut images[packed]);
            for entry in &mut entries[start..start + run] {
                entry.2 = Some(packed);
            }
            packed += 1;
            tally.b_images.fetch_add(1, Ordering::Relaxed);
            tally.shared_b_entries.fetch_add(run as u64, Ordering::Relaxed);
        }
        start += run;
    }
}

/// Runs one same-kernel/same-blocking group of entries through `driver`,
/// writing each entry's outcome into its `out` slot.
///
/// The entries are the parallel axis: a group with at least as many of
/// them as the pool has workers deals them round-robin over one shard per
/// worker, each entry running whole on its shard's [`gemm_blis::GemmRunner`]
/// (arena + dispatch proof, reused across the shard's entries). A shorter
/// group cannot occupy the pool that way, so its entries run one after
/// another on one runner under the driver's own partition of `C`. Either
/// way, entries that share a `B` read it from one image
/// ([`pack_shared_b`]). Runners are drawn from `runners` — which must only
/// ever hold runners built from this `driver` — and returned to it
/// afterwards, and images are packed into `images`' buffers, so a caller
/// passing persistent vecs ([`CachedTunedGemm`]) pays runner construction
/// and image allocation once per lifetime and a caller passing empty ones
/// once per batch.
fn run_group<'a>(
    driver: &BlisGemm,
    entries: Vec<(usize, GemmProblem<'a>)>,
    out: &mut [Option<Result<GemmStats, GemmError>>],
    tally: &Tally,
    runners: &mut Vec<GemmRunner>,
    images: &mut Vec<PackedB>,
) {
    let mut valid: Vec<GroupEntry<'a>> = Vec::with_capacity(entries.len());
    for (idx, problem) in entries {
        match problem.dims() {
            Ok(_) => valid.push((idx, problem, None)),
            Err(e) => out[idx] = Some(Err(e)),
        }
    }
    if valid.is_empty() {
        return;
    }
    pack_shared_b(driver, &mut valid, images, tally);
    let images: &[PackedB] = images;
    // A shard's runner comes from the warm pool when it has one; building
    // fresh is the counted cold path.
    let take_runner = |pooled: Option<GemmRunner>| {
        pooled.unwrap_or_else(|| {
            tally.runner_builds.fetch_add(1, Ordering::Relaxed);
            driver.runner()
        })
    };
    let run_shard = |runner: &mut GemmRunner, (idx, mut problem, image): GroupEntry<'a>, threads: usize| {
        (idx, run_entry(driver, runner, &mut problem, image.map(|i| &images[i]), threads, tally))
    };
    let pool = ThreadPool::global();
    let shard_count = pool.workers();
    if shard_count == 1 || valid.len() < shard_count {
        // One shard, on this thread. Too few entries to occupy the pool:
        // each partitions its own `C` over it instead.
        let threads = if valid.len() < shard_count { driver.threads } else { 1 };
        let mut runner = take_runner(runners.pop());
        for entry in valid {
            let (idx, result) = run_shard(&mut runner, entry, threads);
            out[idx] = Some(result);
        }
        runners.push(runner);
        return;
    }
    let mut shards: Vec<Vec<GroupEntry<'a>>> = (0..shard_count).map(|_| Vec::new()).collect();
    for (pos, entry) in valid.into_iter().enumerate() {
        shards[pos % shard_count].push(entry);
    }
    let mut shard_results: Vec<Vec<(usize, Result<GemmStats, GemmError>)>> =
        (0..shard_count).map(|_| Vec::new()).collect();
    // One runner per shard, handed back through its slot so the pool stays
    // warm for the next batch. A shard that dies mid-run leaves its slot
    // `None` — that runner is lost with the shard, never returned
    // half-valid.
    let mut slots: Vec<Option<GemmRunner>> = (0..shard_count).map(|_| runners.pop()).collect();
    let (take_runner, run_shard) = (&take_runner, &run_shard);
    let jobs: Vec<PoolJob<'_>> = shards
        .into_iter()
        .zip(shard_results.iter_mut())
        .zip(slots.iter_mut())
        .map(|((shard, results), slot)| {
            Box::new(move || {
                let mut runner = take_runner(slot.take());
                for entry in shard {
                    results.push(run_shard(&mut runner, entry, 1));
                }
                *slot = Some(runner);
            }) as PoolJob<'_>
        })
        .collect();
    // Captured scope: a panic that escapes the per-entry isolation (an
    // injected pool-job fault, or a future bug in the shard loop itself)
    // fails only the entries that never produced an outcome, never the
    // caller.
    if pool.scope_run_captured(jobs).is_some() {
        tally.panics.fetch_add(1, Ordering::Relaxed);
    }
    runners.extend(slots.into_iter().flatten());
    for (idx, result) in shard_results.into_iter().flatten() {
        out[idx] = Some(result);
    }
}

/// Collapses per-entry slots into the [`BatchReport`]. A slot left empty
/// means the entry's shard died before reaching it (a pool-level panic
/// contained by the captured scope): that entry — and only that entry —
/// resolves as [`GemmError::JobPanicked`].
fn collect_outcomes(out: Vec<Option<Result<GemmStats, GemmError>>>, tally: Tally) -> BatchReport {
    let outcomes = out
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(GemmError::JobPanicked {
                    message: "the entry's pool shard panicked before reaching it".into(),
                })
            })
        })
        .collect();
    BatchReport {
        outcomes,
        panics_caught: tally.panics.into_inner(),
        retries: tally.retries.into_inner(),
        degraded_completions: tally.degraded.into_inner(),
        runners_built: tally.runner_builds.into_inner(),
        b_images_packed: tally.b_images.into_inner(),
        entries_on_shared_b: tally.shared_b_entries.into_inner(),
    }
}

impl GemmBatchExecutor for BlisGemm {
    /// One group: the driver's stored kernel and blocking serve every
    /// entry, so the whole batch shares one kernel, per-shard runners and
    /// shared-`B` images (rebuilt per batch — [`CachedTunedGemm`] is the
    /// executor that keeps them across batches).
    fn gemm_batch(&self, batch: GemmBatch<'_>) -> BatchReport {
        let entries = batch.into_problems();
        let mut out: Vec<Option<Result<GemmStats, GemmError>>> = (0..entries.len()).map(|_| None).collect();
        let tally = Tally::default();
        let group = entries.into_iter().enumerate().collect();
        run_group(self, group, &mut out, &tally, &mut Vec::new(), &mut Vec::new());
        collect_outcomes(out, tally)
    }
}

/// Group key of the tuned batch path: the verdict's register tile plus
/// blocking — the complete dispatch identity (the kernel cache is keyed by
/// `(mr, nr)`, the driver by the blocking).
type GroupKey = (usize, usize, usize, usize, usize);

/// The per-verdict-group state a [`CachedTunedGemm`] keeps warm across
/// batches: the built driver (registry lookup + kernel clone paid once)
/// and the idle shard runners built from it (arena + staged tile +
/// memoised dispatch proofs).
struct GroupPool {
    driver: BlisGemm,
    runners: Vec<GemmRunner>,
}

/// Everything a [`CachedTunedGemm`] keeps warm, behind its one mutex.
#[derive(Default)]
struct WarmState {
    pools: HashMap<GroupKey, GroupPool>,
    /// The shared-`B` image buffers. One list for all groups — groups run
    /// one after another and an image lives for one batch, so what stays
    /// resident is the largest batch's images, not every group's.
    images: Vec<PackedB>,
}

/// The tuned batch executor: a [`exo_tune::TunedGemm`] whose
/// per-verdict-group machinery stays warm **across batches**. Entries are
/// grouped by tuning verdict — kernel register tile plus blocking, the
/// complete dispatch identity — and each group's built driver (registry
/// lookup + kernel clone) and shard [`gemm_blis::GemmRunner`]s (packing
/// arena, staged `C` tile, memoised dispatch proofs) persist in a per-key
/// pool, so a steady-state serving mix pays those costs once per shape
/// family for the executor's lifetime instead of once per batch —
/// [`BatchReport::runners_built`] is zero from the second batch of a
/// repeated mix on. The buffers shared-`B` images are packed into persist
/// the same way, so a steady-state batch that packs a weight matrix once
/// for all its entries allocates nothing to do it. Results are
/// bit-identical to per-entry [`exo_tune::TunedGemm::execute`] calls: a
/// runner carries no numeric state, only warm capacity and proofs, and an
/// image is repacked from the batch's own `B` every time.
///
/// The state is behind a mutex, taken once per batch — the service's
/// single collector thread never contends on it.
pub struct CachedTunedGemm {
    tuned: exo_tune::TunedGemm,
    warm: Mutex<WarmState>,
}

impl CachedTunedGemm {
    /// Wraps a tuned executor with a cross-batch runner pool.
    pub fn new(tuned: exo_tune::TunedGemm) -> Self {
        CachedTunedGemm { tuned, warm: Mutex::default() }
    }

    /// The wrapped executor.
    pub fn tuned(&self) -> &exo_tune::TunedGemm {
        &self.tuned
    }

    /// Number of verdict groups with cached state.
    pub fn cached_groups(&self) -> usize {
        self.warm.lock().expect("runner pool poisoned").pools.len()
    }

    /// Total idle runners held across all groups (shards currently
    /// executing are not counted — they hold their runner).
    pub fn cached_runners(&self) -> usize {
        self.warm.lock().expect("runner pool poisoned").pools.values().map(|p| p.runners.len()).sum()
    }
}

impl GemmBatchExecutor for CachedTunedGemm {
    /// Each distinct shape family pays one registry lookup, one kernel
    /// clone, and one driver construction for the executor's lifetime;
    /// drivers and shard runners are drawn from — and returned to — the
    /// warm per-group pool. Degenerate entries run on the default blocking,
    /// exactly as `TunedGemm::execute` treats them.
    fn gemm_batch(&self, batch: GemmBatch<'_>) -> BatchReport {
        let tuned = &self.tuned;
        let mut warm = self.warm.lock().expect("runner pool poisoned");
        let WarmState { pools, images } = &mut *warm;
        let entries = batch.into_problems();
        let mut out: Vec<Option<Result<GemmStats, GemmError>>> = (0..entries.len()).map(|_| None).collect();
        let tally = Tally::default();
        let backend_error = |e: exo_tune::TuneError| GemmError::Backend {
            backend: "exo-tune".into(),
            message: e.to_string(),
        };

        // Insertion-ordered Vec lookup — a serving mix has a handful of
        // groups, not thousands.
        let mut groups: Vec<(GroupKey, Vec<(usize, GemmProblem<'_>)>)> = Vec::new();
        let mut degenerate: Vec<(usize, GemmProblem<'_>)> = Vec::new();
        for (idx, problem) in entries.into_iter().enumerate() {
            let (m, n, k) = match problem.dims() {
                Ok(d) => d,
                Err(e) => {
                    out[idx] = Some(Err(e));
                    continue;
                }
            };
            if m == 0 || n == 0 || k == 0 {
                degenerate.push((idx, problem));
                continue;
            }
            let verdict = match tuned.plan(m, n, k) {
                Ok(v) => v,
                Err(e) => {
                    out[idx] = Some(Err(backend_error(e)));
                    continue;
                }
            };
            let key: GroupKey = (verdict.mr, verdict.nr, verdict.mc, verdict.kc, verdict.nc);
            if let Some((_, group)) = groups.iter_mut().find(|(k0, _)| *k0 == key) {
                group.push((idx, problem));
                continue;
            }
            if let Entry::Vacant(slot) = pools.entry(key) {
                match tuned.tuner().kernel_impl_for(&verdict) {
                    Ok(kernel) => {
                        let driver = BlisGemm::new(verdict.blocking())
                            .with_threads(tuned.threads())
                            .with_kernel(kernel);
                        slot.insert(GroupPool { driver, runners: Vec::new() });
                    }
                    Err(e) => {
                        out[idx] = Some(Err(backend_error(e)));
                        continue;
                    }
                }
            }
            groups.push((key, vec![(idx, problem)]));
        }

        if !degenerate.is_empty() {
            // Same driver TunedGemm::execute uses for untunable shapes.
            let driver = BlisGemm::new(gemm_blis::BlockingParams::carmel_defaults(8, 12))
                .with_threads(tuned.threads());
            let mut runner = driver.runner();
            for (idx, mut problem) in degenerate {
                out[idx] = Some(run_entry(&driver, &mut runner, &mut problem, None, driver.threads, &tally));
            }
        }
        for (key, group) in groups {
            let GroupPool { driver, runners } =
                pools.get_mut(&key).expect("every pushed group has a pooled driver");
            run_group(driver, group, &mut out, &tally, runners, images);
        }
        collect_outcomes(out, tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_blis::{BlockingParams, GemmExecutor, MatRef, Matrix};

    fn fill(m: usize, n: usize, seed: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| ((i * 7 + j * 3 + seed) % 13) as f32 * 0.25 - 1.0)
    }

    #[test]
    fn empty_batch_returns_no_stats() {
        let driver = BlisGemm::new(BlockingParams::carmel_defaults(8, 12));
        let report = driver.gemm_batch(GemmBatch::new());
        assert!(report.is_empty());
        assert_eq!((report.panics_caught, report.retries, report.degraded_completions), (0, 0, 0));
        assert!(report.into_stats().unwrap().is_empty());
    }

    #[test]
    fn batch_is_bit_identical_to_a_per_entry_loop() {
        let driver = BlisGemm::new(BlockingParams { mc: 24, kc: 16, nc: 36, mr: 8, nr: 12 });
        let shapes = [(13usize, 9usize, 7usize), (48, 48, 32), (1, 12, 5), (30, 17, 23)];
        let inputs: Vec<(Matrix, Matrix, Matrix)> = shapes
            .iter()
            .enumerate()
            .map(|(s, &(m, n, k))| (fill(m, k, s), fill(k, n, s + 5), fill(m, n, s + 9)))
            .collect();

        let mut c_batch: Vec<Matrix> = inputs.iter().map(|(_, _, c)| c.clone()).collect();
        let mut batch = GemmBatch::new();
        for ((a, b, _), c) in inputs.iter().zip(c_batch.iter_mut()) {
            batch.push(GemmProblem::new(a.view(), b.view(), c.view_mut()).alpha(1.25).beta(-0.5));
        }
        let stats = driver.gemm_batch(batch).into_stats().unwrap();
        assert_eq!(stats.len(), shapes.len());
        assert!(stats.iter().all(|s| s.batched), "batch path must stamp the marker");
        assert!(stats.iter().all(|s| !s.degraded), "healthy batches never degrade");

        for (i, ((a, b, c0), c_got)) in inputs.iter().zip(&c_batch).enumerate() {
            let mut c_seq = c0.clone();
            let seq = driver
                .gemm(GemmProblem::new(a.view(), b.view(), c_seq.view_mut()).alpha(1.25).beta(-0.5))
                .unwrap();
            assert_eq!(c_seq.data, c_got.data, "entry {i} must be bit-identical to the per-entry loop");
            assert_eq!(stats[i].flop_count, seq.flop_count);
            assert_eq!((stats[i].m, stats[i].n, stats[i].k), (seq.m, seq.n, seq.k));
        }
    }

    #[test]
    fn single_entry_and_degenerate_batches_follow_the_contract() {
        let driver = BlisGemm::new(BlockingParams::carmel_defaults(8, 12));
        let a = fill(10, 6, 0);
        let b = fill(6, 7, 1);
        let mut c = fill(10, 7, 2);
        let c0 = c.clone();
        let mut batch = GemmBatch::new();
        batch.push(GemmProblem::new(a.view(), b.view(), c.view_mut()));
        assert_eq!(driver.gemm_batch(batch).into_stats().unwrap().len(), 1);
        let mut c_seq = c0;
        driver.gemm(GemmProblem::new(a.view(), b.view(), c_seq.view_mut())).unwrap();
        assert_eq!(c.data, c_seq.data);

        // Degenerate entry: k = 0 applies beta and reports zero flops.
        let ea = Matrix::zeros(3, 0);
        let eb = Matrix::zeros(0, 4);
        let mut ec = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32);
        let mut batch = GemmBatch::new();
        batch.push(GemmProblem::new(ea.view(), eb.view(), ec.view_mut()).beta(2.0));
        let stats = driver.gemm_batch(batch).into_stats().unwrap();
        assert_eq!(stats[0].flop_count, 0);
        assert!(stats[0].batched);
        assert_eq!(ec.get(2, 3), 22.0);
    }

    #[test]
    fn cached_executors_reuse_runners_across_batches() {
        let executor = CachedTunedGemm::new(exo_tune::TunedGemm::new());
        let shapes = [(13usize, 9usize, 7usize), (48, 48, 32), (30, 17, 23)];
        let run_batch = |seed: usize| {
            let inputs: Vec<(Matrix, Matrix, Matrix)> = shapes
                .iter()
                .enumerate()
                .map(|(s, &(m, n, k))| (fill(m, k, s + seed), fill(k, n, s + seed + 5), fill(m, n, s + 9)))
                .collect();
            let mut cs: Vec<Matrix> = inputs.iter().map(|(_, _, c)| c.clone()).collect();
            let mut batch = GemmBatch::new();
            for ((a, b, _), c) in inputs.iter().zip(cs.iter_mut()) {
                batch.push(GemmProblem::new(a.view(), b.view(), c.view_mut()).alpha(1.25).beta(-0.5));
            }
            let report = executor.gemm_batch(batch);
            assert!(report.outcomes.iter().all(Result::is_ok), "healthy batch");
            (report.runners_built, inputs, cs)
        };
        let (cold_builds, inputs, cold_cs) = run_batch(0);
        assert!(cold_builds > 0, "the first batch must build its shard runners");
        assert!(executor.cached_groups() > 0);
        let idle = executor.cached_runners();
        assert!(idle > 0, "finished shards must return their runners to the pool");
        // The same shape mix again: every shard draws a warm runner —
        // no new arenas, no new dispatch proofs.
        let (warm_builds, _, _) = run_batch(0);
        assert_eq!(warm_builds, 0, "a warm batch must allocate no new runners");
        assert_eq!(executor.cached_runners(), idle, "runner count is steady state");
        // And the cache changes when fixed costs are paid, never results:
        // the cold batch's outputs are bit-identical to per-call TunedGemm.
        for (i, ((a, b, c0), c_got)) in inputs.iter().zip(&cold_cs).enumerate() {
            let mut c_plain = c0.clone();
            exo_tune::TunedGemm::new()
                .execute(GemmProblem::new(a.view(), b.view(), c_plain.view_mut()).alpha(1.25).beta(-0.5))
                .unwrap();
            assert_eq!(c_plain.data, c_got.data, "entry {i}: cached executor vs per-call TunedGemm");
        }
    }

    /// One `k x n` weight matrix in one of the layouts a caller may hand
    /// over, on the dyadic grid (products and sums exact in `f32`).
    struct Weights {
        data: Vec<f32>,
        layout: &'static str,
        k: usize,
        n: usize,
    }

    const LAYOUTS: [&str; 3] = ["row-major", "op_b = T", "padded sub-view"];

    impl Weights {
        fn new(layout: &'static str, k: usize, n: usize, seed: usize) -> Weights {
            let at = |p: usize, j: usize| ((p * 5 + j * 11 + seed) % 17) as f32 * 0.125 - 1.0;
            let ld = n + 5;
            let data = match layout {
                "row-major" => Matrix::from_fn(k, n, at).data,
                // Stored as the n x k transpose.
                "op_b = T" => Matrix::from_fn(n, k, |j, p| at(p, j)).data,
                // A window at (2, 3) of a (k + 3) x (n + 5) matrix of NaN.
                _ => {
                    Matrix::from_fn(k + 3, ld, |r, c| {
                        if (2..k + 2).contains(&r) && (3..n + 3).contains(&c) {
                            at(r - 2, c - 3)
                        } else {
                            f32::NAN
                        }
                    })
                    .data
                }
            };
            Weights { data, layout, k, n }
        }

        /// `C = A * op(B) + beta * C` over these weights.
        fn problem<'a>(&'a self, a: &'a Matrix, c: &'a mut Matrix, beta: f32) -> GemmProblem<'a> {
            let (k, n) = (self.k, self.n);
            let (b, transposed) = match self.layout {
                "row-major" => (MatRef::from_slice(&self.data, k, n), false),
                "op_b = T" => (MatRef::from_slice(&self.data, n, k), true),
                _ => (MatRef::with_strides(&self.data[2 * (n + 5) + 3..], k, n, n + 5, 1), false),
            };
            let problem = GemmProblem::new(a.view(), b, c.view_mut()).beta(beta);
            if transposed {
                problem.transpose_b()
            } else {
                problem
            }
        }
    }

    /// Runs `owners[e]`'s weights against activation `e` for every `e`, as
    /// one batch and as a per-entry loop over the same driver, asserts the
    /// two agree bit for bit, and returns the batch's report.
    fn batch_vs_loop(
        driver: &BlisGemm,
        weights: &[Weights],
        owners: &[usize],
        m: usize,
        beta: f32,
    ) -> BatchReport {
        let acts: Vec<Matrix> = owners.iter().enumerate().map(|(e, &w)| fill(m, weights[w].k, e)).collect();
        // beta == 0 must never read C, so it starts as NaN.
        let c0 = |e: usize, w: usize| {
            Matrix::from_fn(m, weights[w].n, |i, j| {
                if beta == 0.0 {
                    f32::NAN
                } else {
                    ((i + j + e) % 5) as f32 * 0.5
                }
            })
        };
        let mut c_batch: Vec<Matrix> = owners.iter().enumerate().map(|(e, &w)| c0(e, w)).collect();
        let mut batch = GemmBatch::new();
        for ((a, c), &w) in acts.iter().zip(c_batch.iter_mut()).zip(owners) {
            batch.push(weights[w].problem(a, c, beta));
        }
        let report = driver.gemm_batch(batch);
        for (e, ((a, got), &w)) in acts.iter().zip(&c_batch).zip(owners).enumerate() {
            report.outcomes[e].as_ref().expect("healthy entry");
            let mut want = c0(e, w);
            driver.gemm(weights[w].problem(a, &mut want, beta)).unwrap();
            let bits = |c: &Matrix| c.data.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(got), bits(&want), "entry {e} ({}, beta {beta})", weights[w].layout);
        }
        report
    }

    #[test]
    fn entries_sharing_a_b_pack_it_once_and_match_the_per_entry_loop() {
        // Small blocking, so the shapes cross every edge of an image: two
        // `jc` blocks, each ending in a fringe `nr` panel (n = 45 under
        // nc = 40, nr = 12), a fringe `kc` block (k = 23 under kc = 16),
        // and the single-block cases.
        let driver = BlisGemm::new(BlockingParams { mc: 24, kc: 16, nc: 40, mr: 8, nr: 12 });
        // (which weight matrix each of the 7 entries multiplies by, images
        // packed, entries served from an image). Sharing is found among
        // consecutive entries, so interleaved weights pack for themselves.
        let sharings: [(&str, [usize; 7], u64, u64); 4] = [
            ("all share", [0; 7], 1, 7),
            ("none share", [0, 1, 2, 3, 4, 5, 6], 0, 0),
            ("two weight matrices back to back", [0, 0, 0, 0, 1, 1, 1], 2, 7),
            ("two weight matrices interleaved", [0, 1, 0, 1, 0, 1, 0], 0, 0),
        ];
        for layout in LAYOUTS {
            for (m, n, k) in [(13usize, 45usize, 23usize), (30, 36, 16), (9, 7, 40), (5, 90, 33)] {
                let weights: Vec<Weights> = (0..7).map(|w| Weights::new(layout, k, n, w)).collect();
                for (sharing, owners, images, sharers) in sharings {
                    for beta in [0.0f32, 0.75] {
                        let report = batch_vs_loop(&driver, &weights, &owners, m, beta);
                        assert_eq!(
                            (report.b_images_packed, report.entries_on_shared_b),
                            (images, sharers),
                            "{layout}, {m}x{n}x{k}, {sharing}, beta {beta}"
                        );
                    }
                }
                // A pair: fewer entries than a pool of three or more
                // workers, so there it runs under the driver's partition.
                let report = batch_vs_loop(&driver.clone().with_threads(0), &weights, &[3, 3], m, 0.75);
                assert_eq!((report.b_images_packed, report.entries_on_shared_b), (1, 2), "{layout}: a pair");
            }
        }
    }

    #[test]
    fn the_same_storage_under_another_op_b_is_another_matrix() {
        // A square B read plain by two entries and transposed by two more:
        // one storage, two matrices, two images.
        let driver = BlisGemm::new(BlockingParams { mc: 24, kc: 16, nc: 36, mr: 8, nr: 12 });
        let (m, s) = (11usize, 29usize);
        let b = fill(s, s, 3);
        let acts: Vec<Matrix> = (0..4).map(|e| fill(m, s, e)).collect();
        fn build<'a>(a: &'a Matrix, b: &'a Matrix, c: &'a mut Matrix, transposed: bool) -> GemmProblem<'a> {
            let problem = GemmProblem::new(a.view(), b.view(), c.view_mut()).beta(0.0);
            if transposed {
                problem.transpose_b()
            } else {
                problem
            }
        }
        let mut c_batch: Vec<Matrix> = (0..4).map(|_| Matrix::from_fn(m, s, |_, _| f32::NAN)).collect();
        let mut batch = GemmBatch::new();
        for (e, c) in c_batch.iter_mut().enumerate() {
            batch.push(build(&acts[e], &b, c, e >= 2));
        }
        let report = driver.gemm_batch(batch);
        assert_eq!((report.b_images_packed, report.entries_on_shared_b), (2, 4));
        for (e, got) in c_batch.iter().enumerate() {
            let mut want = Matrix::from_fn(m, s, |_, _| f32::NAN);
            driver.gemm(build(&acts[e], &b, &mut want, e >= 2)).unwrap();
            assert_eq!(got.data, want.data, "entry {e}");
        }
        assert_ne!(
            c_batch[0].data, c_batch[2].data,
            "B and its transpose must differ for this to test anything"
        );
    }

    #[test]
    fn shape_mismatch_fails_only_the_bad_entry() {
        let driver = BlisGemm::new(BlockingParams::carmel_defaults(8, 12));
        let a = fill(4, 4, 0);
        let bad_b = fill(5, 4, 1);
        let good_b = fill(4, 4, 2);
        let mut c_bad = Matrix::zeros(4, 4);
        let mut c_good = Matrix::zeros(4, 4);
        let mut batch = GemmBatch::new();
        batch.push(GemmProblem::new(a.view(), bad_b.view(), c_bad.view_mut()));
        batch.push(GemmProblem::new(a.view(), good_b.view(), c_good.view_mut()).beta(0.0));
        let report = driver.gemm_batch(batch);
        assert!(matches!(report.outcomes[0], Err(GemmError::ShapeMismatch { .. })));
        assert!(report.outcomes[1].is_ok(), "the good entry must complete despite its neighbour");
        // into_stats keeps the old first-error contract.
        let a2 = fill(4, 4, 0);
        let b2 = fill(5, 4, 1);
        let mut c2 = Matrix::zeros(4, 4);
        let mut batch = GemmBatch::new();
        batch.push(GemmProblem::new(a2.view(), b2.view(), c2.view_mut()));
        assert!(matches!(driver.gemm_batch(batch).into_stats(), Err(GemmError::ShapeMismatch { .. })));
    }
}
