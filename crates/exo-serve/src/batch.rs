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
//! 3. small entries are dealt round-robin across the shared pool
//!    ([`gemm_blis::ThreadPool::global`]), one shard per worker; large
//!    entries keep the driver's own threaded partition of `C`.
//!
//! The result is **bit-identical to a sequential per-entry loop** over the
//! same executor: kernel and blocking selection are deterministic per
//! shape, entries never share a `C`, and each entry runs the exact
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
use gemm_blis::{BlisGemm, GemmError, GemmExecutor, GemmProblem, GemmRunner, GemmStats};

use crate::fault;

/// Problems whose useful flops reach this threshold keep the driver's own
/// threading (its partition of `C` over the pool); smaller entries are
/// cheaper to run whole, one per shard.
const LARGE_FLOP_THRESHOLD: u64 = 32_000_000;

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
/// The first attempt goes through `runner` (the shard's amortised engine)
/// when given, the driver's own path (threaded for large entries)
/// otherwise. A panic is contained and resolved as
/// [`GemmError::JobPanicked`]. Executional failures — contained panics and
/// kernel errors — are retried once on the next backend tier down, but
/// only when `beta == 0`: a failed attempt may have partially written `C`,
/// and only the never-reads-`C` contract makes a re-run equivalent to a
/// clean first run. (Under an `EXO_BACKEND` override the dispatch tier is
/// pinned, so the "degraded" retry re-runs the forced tier.)
fn run_entry(
    driver: &BlisGemm,
    runner: Option<&mut GemmRunner>,
    problem: &mut GemmProblem<'_>,
    tally: &Tally,
) -> Result<GemmStats, GemmError> {
    let first = catch_unwind(AssertUnwindSafe(|| {
        if let Some(fault::EntryFault::Decline) = fault::entry_hook() {
            return Err(GemmError::Kernel {
                kernel: driver.kernel().name.clone(),
                message: "injected fault: simulated proof decline (EXO_FAULT decline)".into(),
            });
        }
        match runner {
            Some(runner) => runner.gemm(problem.reborrow()),
            None => driver.gemm(problem.reborrow()),
        }
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

/// Runs one same-kernel/same-blocking group of entries through `driver`,
/// writing each entry's outcome into its `out` slot.
///
/// Large entries (by [`LARGE_FLOP_THRESHOLD`]) run in submission order with
/// the driver's own threading; small entries are dealt round-robin over
/// pool-worker shards, each shard reusing one [`gemm_blis::GemmRunner`]
/// (arena + dispatch proof) across its entries. Shard runners are drawn
/// from `runners` — which must only ever hold runners built from this
/// `driver` — and returned to it afterwards, so a caller passing a
/// persistent pool ([`CachedTunedGemm`]) pays runner construction once per
/// group lifetime and a caller passing an empty vec once per batch.
fn run_group<'a>(
    driver: &BlisGemm,
    entries: Vec<(usize, GemmProblem<'a>)>,
    out: &mut [Option<Result<GemmStats, GemmError>>],
    tally: &Tally,
    runners: &mut Vec<GemmRunner>,
) {
    let mut small: Vec<(usize, GemmProblem<'a>)> = Vec::new();
    let mut large: Vec<(usize, GemmProblem<'a>)> = Vec::new();
    for (idx, problem) in entries {
        match problem.dims() {
            Ok((m, n, k)) if GemmStats::flops_for(m, n, k, problem.alpha) >= LARGE_FLOP_THRESHOLD => {
                large.push((idx, problem));
            }
            Ok(_) => small.push((idx, problem)),
            Err(e) => out[idx] = Some(Err(e)),
        }
    }

    for (idx, mut problem) in large {
        out[idx] = Some(run_entry(driver, None, &mut problem, tally));
    }

    if small.is_empty() {
        return;
    }
    // A shard's runner comes from the warm pool when it has one; building
    // fresh is the counted cold path.
    let take_runner = |pooled: Option<GemmRunner>| {
        pooled.unwrap_or_else(|| {
            tally.runner_builds.fetch_add(1, Ordering::Relaxed);
            driver.runner()
        })
    };
    let pool = ThreadPool::global();
    let shard_count = pool.workers().min(small.len());
    if shard_count <= 1 {
        let mut runner = take_runner(runners.pop());
        for (idx, mut problem) in small {
            out[idx] = Some(run_entry(driver, Some(&mut runner), &mut problem, tally));
        }
        runners.push(runner);
        return;
    }
    let mut shards: Vec<Vec<(usize, GemmProblem<'a>)>> = (0..shard_count).map(|_| Vec::new()).collect();
    for (pos, entry) in small.into_iter().enumerate() {
        shards[pos % shard_count].push(entry);
    }
    let mut shard_results: Vec<Vec<(usize, Result<GemmStats, GemmError>)>> =
        (0..shard_count).map(|_| Vec::new()).collect();
    // One runner per shard, handed back through its slot so the pool stays
    // warm for the next batch. A shard that dies mid-run leaves its slot
    // `None` — that runner is lost with the shard, never returned
    // half-valid.
    let mut slots: Vec<Option<GemmRunner>> = (0..shard_count).map(|_| runners.pop()).collect();
    let take_runner = &take_runner;
    let jobs: Vec<PoolJob<'_>> = shards
        .into_iter()
        .zip(shard_results.iter_mut())
        .zip(slots.iter_mut())
        .map(|((shard, results), slot)| {
            Box::new(move || {
                let mut runner = take_runner(slot.take());
                for (idx, mut problem) in shard {
                    results.push((idx, run_entry(driver, Some(&mut runner), &mut problem, tally)));
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
    }
}

impl GemmBatchExecutor for BlisGemm {
    /// One group: the driver's stored kernel and blocking serve every
    /// entry, so the whole batch shares one kernel and per-shard runners
    /// (rebuilt per batch — [`CachedTunedGemm`] is the executor that keeps
    /// them across batches).
    fn gemm_batch(&self, batch: GemmBatch<'_>) -> BatchReport {
        let entries = batch.into_problems();
        let mut out: Vec<Option<Result<GemmStats, GemmError>>> = (0..entries.len()).map(|_| None).collect();
        let tally = Tally::default();
        run_group(self, entries.into_iter().enumerate().collect(), &mut out, &tally, &mut Vec::new());
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

/// The tuned batch executor: a [`exo_tune::TunedGemm`] whose
/// per-verdict-group machinery stays warm **across batches**. Entries are
/// grouped by tuning verdict — kernel register tile plus blocking, the
/// complete dispatch identity — and each group's built driver (registry
/// lookup + kernel clone) and shard [`gemm_blis::GemmRunner`]s (packing
/// arena, staged `C` tile, memoised dispatch proofs) persist in a per-key
/// pool, so a steady-state serving mix pays those costs once per shape
/// family for the executor's lifetime instead of once per batch —
/// [`BatchReport::runners_built`] is zero from the second batch of a
/// repeated mix on. Results are bit-identical to per-entry
/// [`exo_tune::TunedGemm::execute`] calls: a runner carries no numeric
/// state, only warm capacity and proofs.
///
/// The pool is behind a mutex, taken once per batch — the service's
/// single collector thread never contends on it.
pub struct CachedTunedGemm {
    tuned: exo_tune::TunedGemm,
    pools: Mutex<HashMap<GroupKey, GroupPool>>,
}

impl CachedTunedGemm {
    /// Wraps a tuned executor with a cross-batch runner pool.
    pub fn new(tuned: exo_tune::TunedGemm) -> Self {
        CachedTunedGemm { tuned, pools: Mutex::new(HashMap::new()) }
    }

    /// The wrapped executor.
    pub fn tuned(&self) -> &exo_tune::TunedGemm {
        &self.tuned
    }

    /// Number of verdict groups with cached state.
    pub fn cached_groups(&self) -> usize {
        self.pools.lock().expect("runner pool poisoned").len()
    }

    /// Total idle runners held across all groups (shards currently
    /// executing are not counted — they hold their runner).
    pub fn cached_runners(&self) -> usize {
        self.pools.lock().expect("runner pool poisoned").values().map(|p| p.runners.len()).sum()
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
        let mut pools = self.pools.lock().expect("runner pool poisoned");
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
            for (idx, mut problem) in degenerate {
                out[idx] = Some(run_entry(&driver, None, &mut problem, &tally));
            }
        }
        for (key, group) in groups {
            let GroupPool { driver, runners } =
                pools.get_mut(&key).expect("every pushed group has a pooled driver");
            run_group(driver, group, &mut out, &tally, runners);
        }
        collect_outcomes(out, tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_blis::{BlockingParams, GemmExecutor, Matrix};

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
