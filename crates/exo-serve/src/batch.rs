//! Batched GEMM execution: many `C_i = alpha_i * op(A_i) * op(B_i) +
//! beta_i * C_i` entries solved through shared, amortised machinery.
//!
//! A GEMM pays fixed costs that have nothing to do with the problem's
//! flops: a verdict lookup, a driver and `KernelImpl` to build, a
//! packing-arena allocation, and a prove-once dispatch handle whose bounds
//! proof (the superword lowering's affine-interval certificate) is
//! memoised from scratch. The drivers own what can be kept — one built
//! driver per verdict group in [`exo_tune::TunedGemm`], the warm
//! [`gemm_blis::GemmRunner`]s in each [`gemm_blis::BlisGemm`] — so those
//! are paid once per executor whichever door a problem comes through;
//! this module keeps no engine state of its own. What
//! [`GemmBatchExecutor::gemm_batch`] adds is what only a batch can do:
//!
//! 1. entries are grouped by the driver of their tuning verdict (kernel
//!    tile + blocking, [`exo_tune::TunedGemm::driver_for`]) — one
//!    `pack_shared_b` pass, one deal over the pool per group;
//! 2. each shard checks **one** runner out of the group's driver for all
//!    its entries and returns it at the end — no lock, no arena
//!    reservation and no proof memoisation per entry, and the next batch,
//!    or a per-call `gemm` on the same executor, finds it warm. A runner
//!    that was checked out when its entry or shard panicked is dropped,
//!    never returned;
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
//!    [`BatchReport::entries_on_shared_b`]);
//! 5. a shard's consecutive entries on one image under one `alpha` and
//!    `beta` run as **one stacked engine pass** over their concatenated
//!    rows ([`gemm_blis::BlisGemm::run`] on a stack): sixteen 49-row
//!    entries are one 784-row operand, so the `m`-fringe — a 16-row tile
//!    computes 64 rows for 49 — is paid once per shard instead of once per
//!    entry ([`BatchReport::stacked_passes`]).
//!
//! A batch of one gains nothing from any of that, so
//! [`GemmBatchExecutor::gemm_one`] is the same engine pass without it: one
//! runner checked out of the problem's driver, one `run_entry`, the
//! runner put back — the door a service takes for a lone job. Executors
//! that implement only `gemm_batch` get a batch of one there.
//!
//! The result is **bit-identical to a sequential per-entry loop** over the
//! same executor: kernel and blocking selection are deterministic per
//! shape, entries never share a `C`, a shared image holds the bytes each
//! entry would have packed for itself, and each entry's `C` elements see
//! the exact sequential five-loop op order — the same `k`-blocks, kernel
//! and operations — whether the entry runs alone or stacked.
//!
//! ## Fault isolation and degradation
//!
//! Entries fail **individually**: each attempt runs inside a panic capture
//! (and each pool shard inside [`ThreadPool::scope_run_captured`]), so a
//! panicking entry resolves as [`GemmError::JobPanicked`] while the rest of
//! the batch completes. A failed or panicked entry whose `beta == 0` (its
//! `C` is never read, so a re-run fully overwrites any partial write) is
//! retried **once on the tier below the one it ran on**, down the ladder
//! native → simd → superword (the portable scalar chain) → tape
//! ([`gemm_blis::ExecBackend::degraded`] of [`gemm_blis::GemmRunner::tier`]);
//! a retried success is stamped [`GemmStats::degraded`]. An entry that has
//! no rung below it — it ran on the tape, the checked floor — keeps its
//! first failure. The [`BatchReport`] carries the per-entry outcomes plus
//! the isolation tallies (panics caught, retries, degraded completions).
//!
//! A stacked pass keeps entries failing individually where it can: each
//! entry's injected fault fires once, before the pass writes anything, and
//! the entry it hits leaves the stack and resolves alone. A pass that
//! itself fails — a kernel error, or a contained panic that costs its
//! runner — fails every entry in it, and each is resolved one by one:
//! retried one tier down on its own when `beta == 0`, the pass's typed
//! error otherwise.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use gemm_blis::pool::{PoolJob, ThreadPool};
use gemm_blis::{
    BlisGemm, ExecBackend, GemmError, GemmExecutor, GemmProblem, GemmRunner, GemmStats, PackedB,
};

use crate::fault;

/// An ordered batch of GEMM problems, executed together by a
/// [`GemmBatchExecutor`].
///
/// Entry `i` of the returned stats corresponds to entry `i` of the vector,
/// and results are bit-identical to running the entries one by one through
/// the same executor — batching changes *when* fixed costs are paid, never
/// *what* is computed.
pub type GemmBatch<'a> = Vec<GemmProblem<'a>>;

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
    /// Runners (arena + staged tile + dispatch proof) the batch's drivers
    /// had to build while it ran, because a shard's check-out found none
    /// idle. An executor serving a warm shape mix reports zero. (Read off
    /// the drivers' own counters, so a per-call `gemm` racing the batch on
    /// the same driver is counted with it.)
    pub runners_built: u64,
    /// `B` operands packed once for several entries: one per run of two or
    /// more consecutive entries of a group that borrow the same `B`.
    pub b_images_packed: u64,
    /// Entries whose `B` came from such an image instead of being packed
    /// for them alone.
    pub entries_on_shared_b: u64,
    /// Engine passes that ran a stack of entries — a shard's consecutive
    /// entries on one image under one `alpha` and `beta` — over their
    /// concatenated rows, each counted once whatever its outcome.
    pub stacked_passes: u64,
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

/// The outcome of one entry run through [`GemmBatchExecutor::gemm_one`],
/// plus the isolation tallies of [`BatchReport`] that a service books.
#[derive(Debug)]
pub struct EntryReport {
    /// Stats (with [`GemmStats::batched`] set) or the entry's own error.
    pub outcome: Result<GemmStats, GemmError>,
    /// Panic events contained while the entry ran.
    pub panics_caught: u64,
    /// Degradation retries attempted (`0` or `1`).
    pub retries: u64,
    /// `1` if the entry completed on the retry tier.
    pub degraded_completions: u64,
}

impl EntryReport {
    /// An entry that never ran: its error, nothing tallied.
    pub(crate) fn refused(error: GemmError) -> Self {
        EntryReport { outcome: Err(error), panics_caught: 0, retries: 0, degraded_completions: 0 }
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

    /// Solves one problem as a batch of one would: the same outcome, panic
    /// capture, tier-down retry and tallies. This default is that batch of
    /// one. The executors of this crate override it with one runner checked
    /// out of the problem's driver around one engine pass, and no batch,
    /// group or outcome vector — the door a lone service job takes.
    fn gemm_one(&self, problem: GemmProblem<'_>) -> EntryReport {
        let report = self.gemm_batch(vec![problem]);
        let outcome = report.outcomes.into_iter().next().expect("one outcome per batch entry");
        EntryReport {
            outcome,
            panics_caught: report.panics_caught,
            retries: report.retries,
            degraded_completions: report.degraded_completions,
        }
    }
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
    stacked_passes: AtomicU64,
}

/// Renders a contained panic payload into the `JobPanicked` message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `attempt` on `runner` inside a panic capture. A panic is counted
/// and resolved as [`GemmError::JobPanicked`], and the runner whose pass
/// unwound is dropped: the caller goes on with another one from `driver`.
fn contained<T>(
    driver: &BlisGemm,
    runner: &mut GemmRunner,
    tally: &Tally,
    attempt: impl FnOnce(&mut GemmRunner) -> Result<T, GemmError>,
) -> Result<T, GemmError> {
    catch_unwind(AssertUnwindSafe(|| attempt(runner))).unwrap_or_else(|payload| {
        tally.panics.fetch_add(1, Ordering::Relaxed);
        *runner = driver.runner();
        Err(GemmError::JobPanicked { message: panic_message(payload.as_ref()) })
    })
}

/// The entry fault hook of one entry's first attempt ([`fault::entry_hook`]):
/// an armed decline as the kernel error a real one is.
fn entry_fault(driver: &BlisGemm) -> Result<(), GemmError> {
    match fault::entry_hook() {
        Some(fault::EntryFault::Decline) => Err(GemmError::Kernel {
            kernel: driver.kernel().name.to_string(),
            message: "injected fault: simulated proof decline (EXO_FAULT decline)".into(),
        }),
        None => Ok(()),
    }
}

/// Resolves an entry whose first attempt, on tier `ran_on`, failed.
/// Executional failures — contained panics and kernel errors — are retried
/// once on the tier below `ran_on` (on one thread, packing `B` for
/// itself), but only when there is such a tier and `beta == 0`: a failed
/// attempt may have partially written `C`, and only the never-reads-`C`
/// contract makes a re-run equivalent to a clean first run. Anything else
/// keeps its failure.
fn retry(
    driver: &BlisGemm,
    ran_on: ExecBackend,
    problem: &mut GemmProblem<'_>,
    failure: GemmError,
    tally: &Tally,
) -> Result<GemmStats, GemmError> {
    let executional = matches!(failure, GemmError::JobPanicked { .. } | GemmError::Kernel { .. });
    let Some(below) = ran_on.degraded().filter(|_| executional && problem.beta == 0.0) else {
        return Err(failure);
    };
    tally.retries.fetch_add(1, Ordering::Relaxed);
    let degraded_driver =
        driver.clone().with_kernel(driver.kernel().clone().with_backend(below)).with_threads(1);
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

/// Runs one batch entry with panic isolation and one degradation retry.
///
/// The first attempt goes through `runner` (the shard's engine, checked
/// out of `driver`) on up to `threads` pool workers, reading `B` from
/// `packed_b` when the entry shares an image. A panic is contained
/// ([`contained`]) and a failure resolved by [`retry`].
fn run_entry(
    driver: &BlisGemm,
    runner: &mut GemmRunner,
    problem: &mut GemmProblem<'_>,
    packed_b: Option<&PackedB>,
    threads: usize,
    tally: &Tally,
) -> Result<GemmStats, GemmError> {
    let ran_on = runner.tier();
    let first = contained(driver, runner, tally, |runner| {
        entry_fault(driver)?;
        driver.run(runner, std::slice::from_mut(problem), packed_b, threads)
    });
    match first {
        Ok(stats) => Ok(mark_batched(stats)),
        Err(failure) => retry(driver, ran_on, problem, failure, tally),
    }
}

/// Runs a run of entries that read one image under one `alpha` and `beta`
/// as one engine pass over their stacked rows ([`BlisGemm::run`] on a
/// stack), passing each outcome to `sink`.
///
/// Each entry's fault hook fires once, before anything is written: an
/// entry it fails leaves the stack and resolves alone, as [`run_entry`]
/// resolves it. The rest run as one pass. A pass that fails — a kernel
/// error, or a contained panic that costs the runner — fails every entry
/// in it, and [`retry`] resolves each one by one: re-run one tier down
/// when `beta == 0`, the typed error otherwise.
#[allow(clippy::too_many_arguments)]
fn run_stack(
    driver: &BlisGemm,
    runner: &mut GemmRunner,
    stack: &mut [GroupEntry<'_>],
    image: &PackedB,
    threads: usize,
    tally: &Tally,
    sink: Sink<'_>,
) {
    let ran_on = runner.tier();
    let (mut slots, mut problems) = (Vec::with_capacity(stack.len()), Vec::with_capacity(stack.len()));
    for (idx, problem, _) in stack.iter_mut() {
        match contained(driver, runner, tally, |_| entry_fault(driver)) {
            Ok(()) => {
                slots.push(*idx);
                problems.push(problem.reborrow());
            }
            Err(failure) => sink(*idx, retry(driver, ran_on, problem, failure, tally)),
        }
    }
    if problems.is_empty() {
        return;
    }
    if problems.len() > 1 {
        tally.stacked_passes.fetch_add(1, Ordering::Relaxed);
    }
    match contained(driver, runner, tally, |runner| driver.run(runner, &mut problems, Some(image), threads)) {
        Ok(stack) => {
            for (idx, problem) in slots.into_iter().zip(&problems) {
                let (m, n, k) = (problem.c.rows(), stack.n, stack.k);
                let flop_count = GemmStats::flops_for(m, n, k, problem.alpha);
                sink(idx, Ok(mark_batched(GemmStats { m, flop_count, ..stack.clone() })));
            }
        }
        Err(failure) => {
            for (idx, mut problem) in slots.into_iter().zip(problems) {
                sink(idx, retry(driver, ran_on, &mut problem, failure.clone(), tally));
            }
        }
    }
}

/// One entry of a group on its way to a shard: its slot in the batch, the
/// problem, and the index of the image it reads `B` from, if it shares one.
type GroupEntry<'a> = (usize, GemmProblem<'a>, Option<usize>);

/// Where a shard delivers each entry's outcome: its slot, and the result.
type Sink<'s> = &'s mut dyn FnMut(usize, Result<GemmStats, GemmError>);

/// Whether `next` joins the stack of `entry`, the shard entry before it:
/// both read one image under one `alpha` and one `beta` (the same image
/// means the same `B`, and with it the same `n` and `k`).
fn stacks_with(entry: &GroupEntry<'_>, next: &GroupEntry<'_>) -> bool {
    let scales = |p: &GemmProblem<'_>| (p.alpha.to_bits(), p.beta.to_bits());
    entry.2.is_some() && entry.2 == next.2 && scales(&entry.1) == scales(&next.1)
}

/// Packs one image per run of two or more consecutive `entries` that
/// multiply by the same `B` — the same view ([`gemm_blis::MatRef::same_view`])
/// under the same `op_b`, which the batch holds immutably for as long as the
/// entries live — and points the run's entries at it. One pass of pointer
/// compares; a group that shares nothing touches neither `images` nor the
/// allocator. `images` is scratch: slots are reused from the front, grown
/// only when a batch has more shared operands than any before it. The
/// image index is also what [`run_group`]'s shards stack by: a run's
/// entries share `n` and `k`, and those of one shard that share `alpha`
/// and `beta` too become one pass ([`stacks_with`]).
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
/// group cannot occupy the pool that way, so its entries run on one runner
/// under the driver's own partition of `C`. Either way, entries that share
/// a `B` read it from one image ([`pack_shared_b`]), packed into `images`'
/// buffers — a caller passing a persistent vec ([`CachedTunedGemm`]) pays
/// image allocation once per lifetime, a caller passing an empty one once
/// per batch — and each run of a shard's entries that read one image under
/// one `alpha` and `beta` ([`stacks_with`]) is one engine pass over their
/// stacked rows ([`run_stack`]); any other entry runs alone
/// ([`run_entry`]). On a pool of two, a 16-entry batch of 49-row entries
/// is two passes of 392 rows: 25 row panels of a 16-row tile per shard,
/// not 32. A shard's
/// runner is checked out of `driver` on the calling thread, owned by the
/// shard, and returned by it when it is through: a shard that dies takes
/// its runner with it.
fn run_group<'a>(
    driver: &BlisGemm,
    mut entries: Vec<GroupEntry<'a>>,
    out: &mut [Option<Result<GemmStats, GemmError>>],
    tally: &Tally,
    images: &mut Vec<PackedB>,
) {
    entries.retain(|(idx, problem, _)| match problem.dims() {
        Ok(_) => true,
        Err(e) => {
            out[*idx] = Some(Err(e));
            false
        }
    });
    if entries.is_empty() {
        return;
    }
    let built_before = driver.runners_built();
    pack_shared_b(driver, &mut entries, images, tally);
    let images: &[PackedB] = images;
    let run_shard =
        |mut shard: Vec<GroupEntry<'a>>, mut runner: GemmRunner, threads: usize, sink: Sink<'_>| {
            for run in shard.chunk_by_mut(stacks_with) {
                match run {
                    [(idx, problem, image)] => {
                        let image = image.map(|i| &images[i]);
                        sink(*idx, run_entry(driver, &mut runner, problem, image, threads, tally));
                    }
                    stack => {
                        let image = &images[stack[0].2.expect("a stack reads one image")];
                        run_stack(driver, &mut runner, stack, image, threads, tally, sink);
                    }
                }
            }
            driver.put_back(runner);
        };
    let pool = ThreadPool::global();
    let shard_count = pool.workers();
    if shard_count == 1 || entries.len() < shard_count {
        // One shard, on this thread: no pool job exists. Too few entries
        // to occupy the pool: each partitions its own `C` over it instead.
        let threads = if entries.len() < shard_count { driver.threads } else { 1 };
        run_shard(entries, driver.runner(), threads, &mut |idx, result| out[idx] = Some(result));
    } else {
        let per_shard = entries.len().div_ceil(shard_count);
        let mut shards: Vec<Vec<GroupEntry<'a>>> =
            (0..shard_count).map(|_| Vec::with_capacity(per_shard)).collect();
        for (pos, entry) in entries.into_iter().enumerate() {
            shards[pos % shard_count].push(entry);
        }
        let mut shard_results: Vec<Vec<(usize, Result<GemmStats, GemmError>)>> =
            (0..shard_count).map(|_| Vec::with_capacity(per_shard)).collect();
        let run_shard = &run_shard;
        let jobs: Vec<PoolJob<'_>> = shards
            .into_iter()
            .zip(shard_results.iter_mut())
            .map(|(shard, results)| {
                // Checked out here and owned by the job: a job that dies
                // before or while it runs takes its runner with it.
                let runner = driver.runner();
                Box::new(move || run_shard(shard, runner, 1, &mut |idx, result| results.push((idx, result))))
                    as PoolJob<'_>
            })
            .collect();
        // Captured scope: a panic that escapes the per-entry isolation (an
        // injected pool-job fault, or a future bug in the shard loop
        // itself) fails only the entries that never produced an outcome,
        // never the caller.
        if pool.scope_run_captured(jobs).is_some() {
            tally.panics.fetch_add(1, Ordering::Relaxed);
        }
        for (idx, result) in shard_results.into_iter().flatten() {
            out[idx] = Some(result);
        }
    }
    tally.runner_builds.fetch_add(driver.runners_built() - built_before, Ordering::Relaxed);
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
        stacked_passes: tally.stacked_passes.into_inner(),
    }
}

/// One problem on one of `driver`'s runners, checked out for it and put
/// back after it — the batch path's group of one, minus the group: the
/// same shape check, the same thread count and [`run_entry`].
fn run_one(driver: &BlisGemm, mut problem: GemmProblem<'_>) -> EntryReport {
    if let Err(e) = problem.dims() {
        return EntryReport::refused(e);
    }
    let tally = Tally::default();
    // A group of one runs under the driver's partition of `C`, unless the
    // pool has a single worker ([`run_group`]).
    let threads = if ThreadPool::global().workers() == 1 { 1 } else { driver.threads };
    let mut runner = driver.runner();
    let outcome = run_entry(driver, &mut runner, &mut problem, None, threads, &tally);
    driver.put_back(runner);
    EntryReport {
        outcome,
        panics_caught: tally.panics.into_inner(),
        retries: tally.retries.into_inner(),
        degraded_completions: tally.degraded.into_inner(),
    }
}

impl GemmBatchExecutor for BlisGemm {
    /// One group: the driver's stored kernel and blocking serve every
    /// entry, on the driver's own warm runners. (Shared-`B` image buffers
    /// are per batch — [`CachedTunedGemm`] is the executor that keeps
    /// those.)
    fn gemm_batch(&self, entries: GemmBatch<'_>) -> BatchReport {
        let mut out: Vec<Option<Result<GemmStats, GemmError>>> = (0..entries.len()).map(|_| None).collect();
        let tally = Tally::default();
        let group = entries.into_iter().enumerate().map(|(idx, problem)| (idx, problem, None)).collect();
        run_group(self, group, &mut out, &tally, &mut Vec::new());
        collect_outcomes(out, tally)
    }

    fn gemm_one(&self, problem: GemmProblem<'_>) -> EntryReport {
        run_one(self, problem)
    }
}

/// The tuned batch executor: an [`exo_tune::TunedGemm`] plus the buffers
/// shared-`B` images are packed into. Entries are grouped by the driver of
/// their tuning verdict — kernel register tile plus blocking, the complete
/// dispatch identity — and everything a group keeps warm lives where
/// per-call dispatch finds it too: the built driver in the `TunedGemm`,
/// the [`gemm_blis::GemmRunner`]s (packing arena, staged `C` tile, tier
/// handle with its memoised proofs) in the driver. A steady-state serving
/// mix therefore pays those costs once per shape family for the executor's
/// lifetime — [`BatchReport::runners_built`] is zero from the second batch
/// of a repeated mix on, and zero from the first if per-call
/// [`exo_tune::TunedGemm::execute`]s on [`CachedTunedGemm::tuned`] already
/// warmed the group. The image buffers persist the same way, so a
/// steady-state batch that packs a weight matrix once for all its entries
/// allocates nothing to do it.
/// Entries on one image that also share their verdict's driver — every
/// entry of a batch of one layer's activations — stack into one engine
/// pass per shard, which pays the row fringe once for the shard; that
/// costs one vector of row parts per pass and no copy of any operand.
/// Results are bit-identical to per-entry `execute` calls: a runner
/// carries no numeric state, only warm capacity and proofs, an image is
/// repacked from the batch's own `B` every time, and a stacked entry's `C`
/// sees its own call's `k`-blocks, kernel and operation order.
///
/// The image buffers are behind a mutex, taken once per batch — a
/// service runs one pass at a time and never contends on it.
pub struct CachedTunedGemm {
    tuned: exo_tune::TunedGemm,
    /// One list for all groups — groups run one after another and an image
    /// lives for one batch, so what stays resident is the largest batch's
    /// images, not every group's.
    images: Mutex<Vec<PackedB>>,
}

impl CachedTunedGemm {
    /// Wraps a tuned executor for batch execution.
    pub fn new(tuned: exo_tune::TunedGemm) -> Self {
        CachedTunedGemm { tuned, images: Mutex::default() }
    }

    /// The wrapped executor: the same drivers and warm runners, one call
    /// at a time.
    pub fn tuned(&self) -> &exo_tune::TunedGemm {
        &self.tuned
    }
}

impl GemmBatchExecutor for CachedTunedGemm {
    /// Each entry is routed exactly as `TunedGemm::execute` routes it —
    /// degenerate shapes included — and each group runs on its driver.
    fn gemm_batch(&self, entries: GemmBatch<'_>) -> BatchReport {
        // Buffers only: a poisoned lock's state is consistent.
        let mut images = self.images.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<Option<Result<GemmStats, GemmError>>> = (0..entries.len()).map(|_| None).collect();
        let tally = Tally::default();

        // Insertion-ordered Vec lookup — a serving mix has a handful of
        // groups, not thousands.
        let mut groups: Vec<(Arc<BlisGemm>, Vec<_>)> = Vec::new();
        for (idx, problem) in entries.into_iter().enumerate() {
            let routed = problem.dims().and_then(|(m, n, k)| Ok(self.tuned.driver_for(m, n, k)?.1));
            match routed {
                Ok(driver) => match groups.iter_mut().find(|(group, _)| Arc::ptr_eq(group, &driver)) {
                    Some((_, group)) => group.push((idx, problem, None)),
                    None => groups.push((driver, vec![(idx, problem, None)])),
                },
                Err(e) => out[idx] = Some(Err(e)),
            }
        }
        for (driver, group) in groups {
            run_group(&driver, group, &mut out, &tally, &mut images);
        }
        collect_outcomes(out, tally)
    }

    /// Routed as `gemm_batch` routes an entry, run on its group's driver;
    /// the image buffers are not touched.
    fn gemm_one(&self, problem: GemmProblem<'_>) -> EntryReport {
        match problem.dims().and_then(|(m, n, k)| Ok(self.tuned.driver_for(m, n, k)?.1)) {
            Ok(driver) => run_one(&driver, problem),
            Err(e) => EntryReport::refused(e),
        }
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
        let batch = vec![GemmProblem::new(a.view(), b.view(), c.view_mut())];
        assert_eq!(driver.gemm_batch(batch).into_stats().unwrap().len(), 1);
        let mut c_seq = c0;
        driver.gemm(GemmProblem::new(a.view(), b.view(), c_seq.view_mut())).unwrap();
        assert_eq!(c.data, c_seq.data);

        // Degenerate entry: k = 0 applies beta and reports zero flops.
        let ea = Matrix::zeros(3, 0);
        let eb = Matrix::zeros(0, 4);
        let mut ec = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32);
        let batch = vec![GemmProblem::new(ea.view(), eb.view(), ec.view_mut()).beta(2.0)];
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
        let idle = || executor.tuned().drivers().iter().map(|d| d.idle_runners()).sum::<usize>();
        let built = || executor.tuned().drivers().iter().map(|d| d.runners_built()).sum::<u64>();
        let (cold_builds, inputs, cold_cs) = run_batch(0);
        assert!(cold_builds > 0, "the first batch must build its shard runners");
        assert_eq!(cold_builds, built(), "the report counts what the drivers built");
        assert!(!executor.tuned().drivers().is_empty());
        let warm = idle();
        assert_eq!(warm as u64, cold_builds, "finished shards must return their runners to their driver");
        // The same shape mix again: every shard draws a warm runner —
        // no new arenas, no new dispatch proofs.
        let (warm_builds, _, _) = run_batch(0);
        assert_eq!(warm_builds, 0, "a warm batch must allocate no new runners");
        assert_eq!(idle(), warm, "runner count is steady state");
        // And the per-call door opens onto the same state: a warm
        // `TunedGemm::execute` builds no runner either, and where fixed
        // costs are paid never changes results — the cold batch's outputs
        // are bit-identical to per-call execution.
        for (i, ((a, b, c0), c_got)) in inputs.iter().zip(&cold_cs).enumerate() {
            let mut c_plain = c0.clone();
            executor
                .tuned()
                .execute(GemmProblem::new(a.view(), b.view(), c_plain.view_mut()).alpha(1.25).beta(-0.5))
                .unwrap();
            assert_eq!(c_plain.data, c_got.data, "entry {i}: batch vs per-call on the same executor");
        }
        assert_eq!((built(), idle()), (cold_builds, warm), "per-call dispatch drew the batch's runners");
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
    fn a_warm_shared_b_batch_runs_one_stacked_pass_per_shard() {
        // The benchmark's batch: 16 entries of 49 rows against one `B`,
        // the pool at its full width. Each shard's entries read one image
        // under one `alpha` and `beta`, so each shard is one stacked pass —
        // two on two workers; a one-worker pool's single shard is one too.
        let executor = CachedTunedGemm::new(exo_tune::TunedGemm::new().with_threads(0));
        let (m, n, k) = (49usize, 40usize, 48usize);
        let b = fill(k, n, 3);
        let acts: Vec<Matrix> = (0..16).map(|e| fill(m, k, e)).collect();
        let mut cs: Vec<Matrix> = (0..16).map(|_| Matrix::zeros(m, n)).collect();
        let run = |cs: &mut [Matrix]| {
            let batch = acts
                .iter()
                .zip(cs.iter_mut())
                .map(|(a, c)| GemmProblem::new(a.view(), b.view(), c.view_mut()).alpha(0.75).beta(0.0));
            executor.gemm_batch(batch.collect())
        };
        let cold = run(&mut cs);
        assert!(cold.outcomes.iter().all(Result::is_ok), "healthy batch");
        let warm = run(&mut cs);
        let workers = ThreadPool::global().workers();
        let shards = if workers <= 16 { workers } else { 1 };
        assert_eq!(
            (warm.stacked_passes, warm.runners_built, warm.b_images_packed, warm.entries_on_shared_b),
            (shards as u64, 0, 1, 16),
            "(stacked passes, runners built, images packed, entries on them) on {workers} workers"
        );
        for (e, (a, got)) in acts.iter().zip(&cs).enumerate() {
            let stats = warm.outcomes[e].as_ref().expect("healthy entry");
            assert_eq!((stats.m, stats.n, stats.k, stats.flop_count), (m, n, k, 2 * (m * n * k) as u64));
            assert!(stats.batched && !stats.degraded);
            let mut want = Matrix::zeros(m, n);
            let alone = GemmProblem::new(a.view(), b.view(), want.view_mut()).alpha(0.75).beta(0.0);
            executor.tuned().execute(alone).unwrap();
            assert_eq!(got.data, want.data, "entry {e}: the stacked pass vs its own call");
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
        let batch = vec![
            GemmProblem::new(a.view(), bad_b.view(), c_bad.view_mut()),
            GemmProblem::new(a.view(), good_b.view(), c_good.view_mut()).beta(0.0),
        ];
        let report = driver.gemm_batch(batch);
        assert!(matches!(report.outcomes[0], Err(GemmError::ShapeMismatch { .. })));
        assert!(report.outcomes[1].is_ok(), "the good entry must complete despite its neighbour");
        // into_stats keeps the old first-error contract.
        let a2 = fill(4, 4, 0);
        let b2 = fill(5, 4, 1);
        let mut c2 = Matrix::zeros(4, 4);
        let batch = vec![GemmProblem::new(a2.view(), b2.view(), c2.view_mut())];
        assert!(matches!(driver.gemm_batch(batch).into_stats(), Err(GemmError::ShapeMismatch { .. })));
    }
}
