//! The queued GEMM front door: many caller threads submit owned jobs, one
//! collector thread drains them into [`GemmBatch`]es, the shared pool
//! executes them.
//!
//! Lifecycle and flow:
//!
//! 1. [`GemmService::new`] spawns the collector thread and takes ownership
//!    of a [`GemmBatchExecutor`] (typically a [`crate::CachedTunedGemm`]).
//! 2. Callers [`GemmService::submit`] owned [`GemmJob`]s from any number of
//!    threads. The queue is **bounded** ([`ServiceConfig::queue_capacity`]):
//!    a full queue blocks the submitter — backpressure, not unbounded
//!    buffering. [`GemmService::try_submit`] and
//!    [`GemmService::submit_timeout`] are the non-blocking and bounded-wait
//!    variants; both hand the job back in the [`SubmitError`] so nothing is
//!    lost on rejection.
//! 3. The collector drains whatever is queued (up to
//!    [`ServiceConfig::max_batch`] entries) into one batch, so batch size
//!    adapts to load: an idle service runs singletons with no added
//!    latency, a loaded service amortises fixed costs across everything
//!    that queued up meanwhile.
//! 4. Each job's result — the updated `C` plus [`gemm_blis::GemmStats`] —
//!    comes back
//!    through its [`JobHandle`]; per-call stats aggregate into the
//!    process-wide counters of [`GemmService::stats`].
//!
//! Failure semantics: a panic inside one batch entry fails only that job
//! (see [`crate::batch`]); jobs with a queue deadline
//! ([`GemmJob::with_deadline`]) that expire before execution resolve with
//! [`GemmError::DeadlineExceeded`]; and if the collector thread itself dies
//! the service flips to [`ServiceHealth::Failed`], every queued and
//! in-flight handle resolves with [`GemmError::ServiceShutdown`], and later
//! submissions are refused — callers never hang on a dead service.
//!
//! Shutdown: dropping the service closes the queue, lets the collector
//! finish everything already accepted, and joins it. Handles outstanding at
//! shutdown resolve with an error rather than hanging.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use gemm_blis::pool::ThreadPool;
use gemm_blis::GemmError;

use crate::batch::{GemmBatch, GemmBatchExecutor};
use crate::fault;
use crate::job::{CompletedJob, GemmJob};

/// Tunables of a [`GemmService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Bound of the submission queue. A full queue blocks `submit` until
    /// the collector drains — the service's backpressure mechanism.
    pub queue_capacity: usize,
    /// Maximum entries drained into a single batch.
    pub max_batch: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { queue_capacity: 64, max_batch: 32 }
    }
}

/// Service liveness, reported by [`GemmService::health`]. Health only ever
/// worsens over a service's lifetime (raise-only), so a snapshot is a safe
/// upper bound on how well the service has behaved so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ServiceHealth {
    /// Every job so far ran cleanly on its intended backend.
    Healthy = 0,
    /// The service is live but has caught panics or completed jobs on a
    /// degraded (tiered-down) backend.
    Degraded = 1,
    /// The collector thread died; the service refuses new work and all
    /// outstanding handles resolve with [`GemmError::ServiceShutdown`].
    Failed = 2,
}

impl ServiceHealth {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => ServiceHealth::Healthy,
            1 => ServiceHealth::Degraded,
            _ => ServiceHealth::Failed,
        }
    }
}

impl std::fmt::Display for ServiceHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceHealth::Healthy => write!(f, "healthy"),
            ServiceHealth::Degraded => write!(f, "degraded"),
            ServiceHealth::Failed => write!(f, "failed"),
        }
    }
}

/// Why a submission was rejected — see [`SubmitError::reason`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitErrorReason {
    /// The queue was at capacity ([`GemmService::try_submit`]).
    QueueFull,
    /// The queue stayed at capacity for the whole allowed wait
    /// ([`GemmService::submit_timeout`]).
    Timeout,
    /// The service has shut down or its collector died.
    Shutdown,
}

/// A rejected submission. The job is handed back untouched
/// ([`SubmitError::into_job`]) so the caller can retry, reroute, or run it
/// synchronously — rejection never loses work.
#[derive(Debug)]
pub struct SubmitError {
    job: GemmJob,
    reason: SubmitErrorReason,
}

impl SubmitError {
    /// Why the job was rejected.
    pub fn reason(&self) -> SubmitErrorReason {
        self.reason
    }

    /// Recovers the rejected job.
    pub fn into_job(self) -> GemmJob {
        self.job
    }

    /// The rejection as a [`GemmError`], for callers folding submission
    /// failures into per-job results (as [`GemmService::execute_all`] does).
    pub fn gemm_error(&self) -> GemmError {
        match self.reason {
            SubmitErrorReason::QueueFull | SubmitErrorReason::Timeout => GemmError::QueueFull,
            SubmitErrorReason::Shutdown => GemmError::ServiceShutdown,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            SubmitErrorReason::QueueFull => write!(f, "submission rejected: queue full"),
            SubmitErrorReason::Timeout => {
                write!(f, "submission rejected: queue stayed full past the timeout")
            }
            SubmitErrorReason::Shutdown => write!(f, "submission rejected: service shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Aggregate service counters, snapshot via [`GemmService::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted by `submit` so far.
    pub jobs_submitted: u64,
    /// Jobs completed successfully.
    pub jobs_completed: u64,
    /// Jobs that resolved with an error.
    pub jobs_failed: u64,
    /// Batches the collector has executed.
    pub batches: u64,
    /// Largest batch executed so far.
    pub largest_batch: usize,
    /// High-water mark of the submission queue depth.
    pub queue_highwater: usize,
    /// Configured queue bound.
    pub queue_capacity: usize,
    /// Width of the shared worker pool serving the batches.
    pub pool_workers: usize,
    /// Jobs the shared pool has executed process-wide — together with
    /// `pool_workers` this is the pool-utilization side of the story
    /// (the counter spans every pool user in the process, not just this
    /// service).
    pub pool_tasks_executed: usize,
    /// Total useful flops of completed jobs (degenerate jobs count as
    /// zero-flop completions, not omissions).
    pub total_flops: u64,
    /// Panics caught and isolated to single jobs (each fails only its own
    /// job; the rest of the batch completes).
    pub panics_caught: u64,
    /// Tier-down retries attempted after an executional failure.
    pub retries: u64,
    /// Jobs that completed on a degraded (tiered-down) backend.
    pub degraded_completions: u64,
    /// Jobs whose queue deadline expired before execution.
    pub deadline_expired: u64,
    /// `B` operands packed once for several jobs of a batch
    /// ([`crate::BatchReport::b_images_packed`], summed over batches).
    pub b_images_packed: u64,
    /// Jobs that read their `B` from such an image
    /// ([`crate::BatchReport::entries_on_shared_b`], summed over batches).
    pub entries_on_shared_b: u64,
    /// Native kernels verified and promoted since this service was
    /// constructed (the engine counters are process-wide; the service
    /// reports deltas against its construction-time baseline).
    pub aot_promotions: u64,
    /// Native-kernel build attempts that failed since construction —
    /// every one is a degradation: the affected kernels serve on the
    /// simd tier.
    pub aot_builds_failed: u64,
    /// Compiler invocations killed on the `EXO_AOT_TIMEOUT_MS` deadline
    /// since construction (a subset of `aot_builds_failed`).
    pub aot_compile_timeouts: u64,
    /// Kernels that failed probe verification since construction (also a
    /// subset of `aot_builds_failed`; their keys are pinned to simd).
    pub aot_wrong_results: u64,
    /// Current service health (raise-only: healthy → degraded → failed).
    pub health: ServiceHealth,
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submitted / {} completed / {} failed in {} batches (largest {}); \
             queue high-water {}/{}; pool {} workers, {} tasks; {:.3} GFLOP total; \
             {} panics caught, {} retries, {} degraded, {} deadline-expired; \
             {} shared-B images for {} jobs; \
             aot {} promoted, {} build-failures ({} timeouts, {} wrong-results); health {}",
            self.jobs_submitted,
            self.jobs_completed,
            self.jobs_failed,
            self.batches,
            self.largest_batch,
            self.queue_highwater,
            self.queue_capacity,
            self.pool_workers,
            self.pool_tasks_executed,
            self.total_flops as f64 / 1e9,
            self.panics_caught,
            self.retries,
            self.degraded_completions,
            self.deadline_expired,
            self.b_images_packed,
            self.entries_on_shared_b,
            self.aot_promotions,
            self.aot_builds_failed,
            self.aot_compile_timeouts,
            self.aot_wrong_results,
            self.health,
        )
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    largest_batch: AtomicUsize,
    queue_depth: AtomicUsize,
    queue_highwater: AtomicUsize,
    flops: AtomicU64,
    panics: AtomicU64,
    retries: AtomicU64,
    degraded_jobs: AtomicU64,
    deadline_expired: AtomicU64,
    b_images: AtomicU64,
    shared_b_entries: AtomicU64,
    health: AtomicU8,
    /// The process-wide AOT engine counters at service construction.
    /// Engine counters span every engine user in the process, so the
    /// service reports (and judges its health by) deltas against this
    /// baseline: only degradations on *this service's* watch count.
    aot_base: exo_aot::AotStats,
    /// Serializes submission accounting against the collector's terminal
    /// drain, so `jobs_submitted == jobs_completed + jobs_failed` holds
    /// exactly even when the collector dies mid-submission. Held around a
    /// non-blocking offer to the queue only, never across a wait.
    gate: Mutex<()>,
}

impl Counters {
    fn raise_health(&self, to: ServiceHealth) {
        self.health.fetch_max(to as u8, Ordering::Relaxed);
    }

    /// The engine's counter movement since this service was constructed:
    /// `(promotions, builds_failed, compile_timeouts, wrong_results)`.
    fn aot_deltas(&self) -> (u64, u64, u64, u64) {
        let now = exo_aot::engine().stats();
        (
            now.verified_promotions.saturating_sub(self.aot_base.verified_promotions),
            now.builds_failed.saturating_sub(self.aot_base.builds_failed),
            now.compile_timeouts.saturating_sub(self.aot_base.compile_timeouts),
            now.wrong_results.saturating_sub(self.aot_base.wrong_results),
        )
    }

    /// Folds AOT degradations into service health: any failed build on
    /// this service's watch means some kernel is serving below its best
    /// tier — degraded, not failed (the simd fallback is bit-faithful
    /// and jobs keep completing).
    fn observe_aot_health(&self) {
        let (_, builds_failed, _, _) = self.aot_deltas();
        if builds_failed > 0 {
            self.raise_health(ServiceHealth::Degraded);
        }
    }

    fn gate(&self) -> std::sync::MutexGuard<'_, ()> {
        self.gate.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// How long a submitter parked on a full queue waits between offers.
const FULL_QUEUE_POLL: Duration = Duration::from_micros(100);

struct Submission {
    job: GemmJob,
    reply: mpsc::Sender<Result<CompletedJob, GemmError>>,
    enqueued: Instant,
}

/// Submissions the collector has received but not yet replied to. Owned
/// outside the collector's panic capture so a dying collector can fail
/// every one of them with the failure counted *before* the reply lands —
/// callers never observe a resolved handle the stats don't yet account
/// for.
#[derive(Default)]
struct InFlight {
    /// Drained from the queue, not yet triaged (deadline/shape checks).
    triage: Vec<Submission>,
    /// Triaged and awaiting batch execution / replies.
    valid: Vec<Submission>,
}

impl InFlight {
    fn fail_all(&mut self, counters: &Counters) {
        for submission in self.triage.drain(..).chain(self.valid.drain(..)) {
            counters.failed.fetch_add(1, Ordering::Relaxed);
            let _ = submission.reply.send(Err(GemmError::ServiceShutdown));
        }
    }
}

/// The handle returned by [`GemmService::submit`]: redeem it with
/// [`JobHandle::wait`] for the job's `C` operand and stats.
#[derive(Debug)]
pub struct JobHandle {
    rx: mpsc::Receiver<Result<CompletedJob, GemmError>>,
}

impl JobHandle {
    /// Blocks until the job resolves.
    ///
    /// # Errors
    ///
    /// Propagates the executor's error for this job, or
    /// [`GemmError::ServiceShutdown`] if the service (or its collector)
    /// went away first — a dead service resolves handles, it never hangs
    /// them.
    pub fn wait(self) -> Result<CompletedJob, GemmError> {
        self.rx.recv().unwrap_or(Err(GemmError::ServiceShutdown))
    }

    /// Like [`JobHandle::wait`] but gives up after `timeout`, returning
    /// `None` so the caller can retry later (the handle stays redeemable).
    /// A dead service still resolves immediately with
    /// [`GemmError::ServiceShutdown`].
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<CompletedJob, GemmError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(GemmError::ServiceShutdown)),
        }
    }
}

/// A persistent GEMM service: one collector thread batching submissions
/// from any number of caller threads onto the shared worker pool.
///
/// See the module docs for lifecycle, batching, backpressure, and failure
/// semantics. The service is `Sync` — share `&GemmService` freely across
/// caller threads (or clone the jobs' data and use scoped threads, as
/// `examples/gemm_service.rs` does).
pub struct GemmService {
    tx: Option<mpsc::SyncSender<Submission>>,
    collector: Option<std::thread::JoinHandle<()>>,
    counters: Arc<Counters>,
    config: ServiceConfig,
}

impl GemmService {
    /// A service over `executor` with the default [`ServiceConfig`].
    pub fn new<E: GemmBatchExecutor + Send + 'static>(executor: E) -> Self {
        GemmService::with_config(executor, ServiceConfig::default())
    }

    /// A service over `executor` with explicit queue/batch bounds.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity` or `max_batch` is zero, or if `EXO_FAULT`
    /// is set to an unparseable fault spec.
    pub fn with_config<E: GemmBatchExecutor + Send + 'static>(executor: E, config: ServiceConfig) -> Self {
        assert!(config.queue_capacity > 0, "queue_capacity must be at least 1");
        assert!(config.max_batch > 0, "max_batch must be at least 1");
        fault::arm_from_env();
        let (tx, rx) = mpsc::sync_channel::<Submission>(config.queue_capacity);
        let counters = Arc::new(Counters { aot_base: exo_aot::engine().stats(), ..Counters::default() });
        let collector_counters = Arc::clone(&counters);
        let max_batch = config.max_batch;
        let collector = std::thread::Builder::new()
            .name("exo-serve-collector".into())
            .spawn(move || {
                // The in-flight holder lives OUTSIDE the panic capture, so
                // submissions the collector had already received when it
                // died are failed with full accounting below — their
                // handles never resolve before the books record them.
                let mut in_flight = InFlight::default();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    collector_loop(executor, &rx, &mut in_flight, &collector_counters, max_batch)
                }));
                if outcome.is_err() {
                    in_flight.fail_all(&collector_counters);
                    fail_everything_outstanding(rx, &collector_counters);
                }
            })
            .expect("failed to spawn exo-serve collector");
        GemmService { tx: Some(tx), collector: Some(collector), counters, config }
    }

    /// Submits one owned job, blocking while the queue is at capacity
    /// (backpressure). Redeem the handle with [`JobHandle::wait`].
    ///
    /// # Errors
    ///
    /// [`SubmitErrorReason::Shutdown`] if the service has failed or shut
    /// down; the job comes back in the error.
    // The error variant is deliberately large: it hands the job — three
    // owned operands — back to the caller instead of dropping it.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, job: GemmJob) -> Result<JobHandle, SubmitError> {
        self.enqueue(job, None)
    }

    /// Non-blocking [`GemmService::submit`]: a full queue rejects with
    /// [`SubmitErrorReason::QueueFull`] instead of blocking — also while
    /// other callers are parked in `submit` — handing the job back for the
    /// caller to retry or reroute.
    ///
    /// # Errors
    ///
    /// `QueueFull` under backpressure, `Shutdown` on a dead service.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, job: GemmJob) -> Result<JobHandle, SubmitError> {
        self.enqueue(job, Some(Instant::now()))
    }

    /// [`GemmService::submit`] with a bound on how long backpressure may
    /// block.
    ///
    /// # Errors
    ///
    /// [`SubmitErrorReason::Timeout`] if the queue stayed full the whole
    /// time, `Shutdown` on a dead service.
    #[allow(clippy::result_large_err)]
    pub fn submit_timeout(&self, job: GemmJob, timeout: Duration) -> Result<JobHandle, SubmitError> {
        self.enqueue(job, Some(Instant::now() + timeout)).map_err(|e| match e.reason {
            SubmitErrorReason::QueueFull => SubmitError { reason: SubmitErrorReason::Timeout, ..e },
            _ => e,
        })
    }

    /// The one submission path: offer the job to the queue, and while the
    /// queue is full and `give_up_at` has not passed (`None`: never gives
    /// up) offer it again every [`FULL_QUEUE_POLL`]. The accounting gate is
    /// held around each non-blocking offer and never across a wait, so a
    /// caller parked on a full queue delays no other caller's answer.
    #[allow(clippy::result_large_err)]
    fn enqueue(&self, job: GemmJob, give_up_at: Option<Instant>) -> Result<JobHandle, SubmitError> {
        let tx = match self.tx.as_ref() {
            Some(tx) if self.health() != ServiceHealth::Failed => tx,
            _ => return Err(SubmitError { job, reason: SubmitErrorReason::Shutdown }),
        };
        let (reply, rx) = mpsc::channel();
        let mut submission = Submission { job, reply, enqueued: Instant::now() };
        loop {
            let gate = self.counters.gate();
            // Depth rises before the offer so the collector's decrement
            // (which can only follow an accepted one) never underflows the
            // counter; a refused offer takes it back under the same gate.
            let depth = self.counters.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
            let refused = match tx.try_send(submission) {
                Ok(()) => {
                    // The collector subtracts a batch after it has drained
                    // it, so the counter can run ahead of the channel by the
                    // batch in hand; the channel never holds more than its
                    // bound.
                    let depth = depth.min(self.config.queue_capacity);
                    self.counters.queue_highwater.fetch_max(depth, Ordering::Relaxed);
                    self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                    return Ok(JobHandle { rx });
                }
                Err(refused) => refused,
            };
            self.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
            drop(gate);
            let (back, reason) = match refused {
                mpsc::TrySendError::Full(back) if give_up_at.is_none_or(|at| Instant::now() < at) => {
                    submission = back;
                    std::thread::sleep(FULL_QUEUE_POLL);
                    continue;
                }
                mpsc::TrySendError::Full(back) => (back, SubmitErrorReason::QueueFull),
                mpsc::TrySendError::Disconnected(back) => (back, SubmitErrorReason::Shutdown),
            };
            return Err(SubmitError { job: back.job, reason });
        }
    }

    /// Submits every job, then waits for all of them, returning results in
    /// submission order. Blocking submission + bounded queue means this
    /// paces itself against the collector instead of buffering everything.
    /// Rejected submissions fold into per-job errors
    /// ([`SubmitError::gemm_error`]) instead of aborting the rest.
    pub fn execute_all(&self, jobs: Vec<GemmJob>) -> Vec<Result<CompletedJob, GemmError>> {
        let handles: Vec<Result<JobHandle, GemmError>> =
            jobs.into_iter().map(|job| self.submit(job).map_err(|e| e.gemm_error())).collect();
        handles.into_iter().map(|handle| handle.and_then(JobHandle::wait)).collect()
    }

    /// Current service health (raise-only; see [`ServiceHealth`]).
    pub fn health(&self) -> ServiceHealth {
        ServiceHealth::from_u8(self.counters.health.load(Ordering::Relaxed))
    }

    /// A snapshot of the aggregate counters. Observing the snapshot also
    /// folds any AOT build failures since construction into the health
    /// (background builds settle between batches, so the collector alone
    /// cannot see every late failure).
    pub fn stats(&self) -> ServiceStats {
        let pool = ThreadPool::global();
        self.counters.observe_aot_health();
        let (aot_promotions, aot_builds_failed, aot_compile_timeouts, aot_wrong_results) =
            self.counters.aot_deltas();
        ServiceStats {
            jobs_submitted: self.counters.submitted.load(Ordering::Relaxed),
            jobs_completed: self.counters.completed.load(Ordering::Relaxed),
            jobs_failed: self.counters.failed.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            largest_batch: self.counters.largest_batch.load(Ordering::Relaxed),
            queue_highwater: self.counters.queue_highwater.load(Ordering::Relaxed),
            queue_capacity: self.config.queue_capacity,
            pool_workers: pool.workers(),
            pool_tasks_executed: pool.tasks_executed(),
            total_flops: self.counters.flops.load(Ordering::Relaxed),
            panics_caught: self.counters.panics.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
            degraded_completions: self.counters.degraded_jobs.load(Ordering::Relaxed),
            deadline_expired: self.counters.deadline_expired.load(Ordering::Relaxed),
            b_images_packed: self.counters.b_images.load(Ordering::Relaxed),
            entries_on_shared_b: self.counters.shared_b_entries.load(Ordering::Relaxed),
            aot_promotions,
            aot_builds_failed,
            aot_compile_timeouts,
            aot_wrong_results,
            health: self.health(),
        }
    }
}

impl Drop for GemmService {
    fn drop(&mut self) {
        // Closing the queue ends the collector's recv loop after it drains
        // everything already accepted; then join so no thread leaks.
        drop(self.tx.take());
        if let Some(collector) = self.collector.take() {
            let _ = collector.join();
        }
    }
}

/// Terminal cleanup after a collector panic: refuse-and-resolve everything
/// still queued, close the queue, and square the books so
/// `jobs_submitted == jobs_completed + jobs_failed` holds exactly.
fn fail_everything_outstanding(rx: mpsc::Receiver<Submission>, counters: &Counters) {
    counters.raise_health(ServiceHealth::Failed);
    // With the gate held no submitter is mid-offer (none ever waits under
    // it), so drain-then-drop loses nothing and the balance below sees final
    // counts; an offer after the drop is refused as `Shutdown`.
    let gate = counters.gate();
    while let Ok(submission) = rx.try_recv() {
        counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        counters.failed.fetch_add(1, Ordering::Relaxed);
        let _ = submission.reply.send(Err(GemmError::ServiceShutdown));
    }
    drop(rx);
    // Safety net: in-flight jobs were failed by `InFlight::fail_all` and
    // queued jobs by the drain above, so this normally adds zero — but if
    // any job slipped through, count it failed so the books still balance.
    let submitted = counters.submitted.load(Ordering::Relaxed);
    let resolved = counters.completed.load(Ordering::Relaxed) + counters.failed.load(Ordering::Relaxed);
    counters.failed.fetch_add(submitted.saturating_sub(resolved), Ordering::Relaxed);
    drop(gate);
}

/// The collector: block for one submission, opportunistically drain the
/// rest of the queue (up to `max_batch`), execute as one batch, reply per
/// job.
fn collector_loop<E: GemmBatchExecutor>(
    executor: E,
    rx: &mpsc::Receiver<Submission>,
    in_flight: &mut InFlight,
    counters: &Counters,
    max_batch: usize,
) {
    while let Ok(first) = rx.recv() {
        in_flight.triage.push(first);
        while in_flight.triage.len() < max_batch {
            match rx.try_recv() {
                Ok(submission) => in_flight.triage.push(submission),
                Err(_) => break,
            }
        }
        counters.queue_depth.fetch_sub(in_flight.triage.len(), Ordering::Relaxed);
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters.largest_batch.fetch_max(in_flight.triage.len(), Ordering::Relaxed);
        fault::collector_hook();

        // Expired and invalid jobs fail individually and never poison the
        // batch. Pop front-to-back so every submission is either still in
        // the holder or already replied to, whatever happens mid-triage.
        in_flight.triage.reverse();
        while let Some(mut submission) = in_flight.triage.pop() {
            if let Some(deadline) = submission.job.deadline() {
                let waited = submission.enqueued.elapsed();
                if waited >= deadline {
                    counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
                    counters.failed.fetch_add(1, Ordering::Relaxed);
                    let _ = submission
                        .reply
                        .send(Err(GemmError::DeadlineExceeded { waited_ms: waited.as_millis() as u64 }));
                    continue;
                }
            }
            match submission.job.problem().dims() {
                Ok(_) => in_flight.valid.push(submission),
                Err(e) => {
                    counters.failed.fetch_add(1, Ordering::Relaxed);
                    let _ = submission.reply.send(Err(e));
                }
            }
        }
        if in_flight.valid.is_empty() {
            continue;
        }
        let report = {
            let batch: GemmBatch<'_> = in_flight.valid.iter_mut().map(|s| s.job.problem()).collect();
            executor.gemm_batch(batch)
        };
        counters.panics.fetch_add(report.panics_caught, Ordering::Relaxed);
        counters.retries.fetch_add(report.retries, Ordering::Relaxed);
        counters.degraded_jobs.fetch_add(report.degraded_completions, Ordering::Relaxed);
        counters.b_images.fetch_add(report.b_images_packed, Ordering::Relaxed);
        counters.shared_b_entries.fetch_add(report.entries_on_shared_b, Ordering::Relaxed);
        if report.panics_caught > 0 || report.degraded_completions > 0 {
            counters.raise_health(ServiceHealth::Degraded);
        }
        // AOT builds land asynchronously; fold any failures since the
        // last batch into health so degradation is visible without a
        // stats() call.
        counters.observe_aot_health();
        debug_assert_eq!(report.len(), in_flight.valid.len(), "one outcome per batch entry");
        for (submission, outcome) in in_flight.valid.drain(..).zip(report.outcomes) {
            match outcome {
                Ok(stats) => {
                    counters.completed.fetch_add(1, Ordering::Relaxed);
                    counters.flops.fetch_add(stats.flop_count, Ordering::Relaxed);
                    let _ = submission.reply.send(Ok(CompletedJob { c: submission.job.into_c(), stats }));
                }
                Err(e) => {
                    counters.failed.fetch_add(1, Ordering::Relaxed);
                    let _ = submission.reply.send(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::OwnedMat;
    use gemm_blis::{BlisGemm, BlockingParams};

    fn job(m: usize, n: usize, k: usize, seed: usize) -> GemmJob {
        let a = OwnedMat::from_fn(m, k, move |i, j| ((i * 7 + j * 3 + seed) % 13) as f32 * 0.25 - 1.0);
        let b = OwnedMat::from_fn(k, n, move |i, j| ((i * 5 + j * 11 + seed) % 17) as f32 * 0.125 - 1.0);
        let c = OwnedMat::zeros(m, n);
        GemmJob::new(a, b, c).beta(0.0)
    }

    #[test]
    fn service_runs_jobs_and_aggregates_counters() {
        let service = GemmService::new(BlisGemm::new(BlockingParams::carmel_defaults(8, 12)));
        let handles: Vec<JobHandle> =
            (0..6).map(|s| service.submit(job(17, 13, 9, s)).expect("service accepting")).collect();
        for handle in handles {
            let done = handle.wait().unwrap();
            assert!(done.stats.batched);
            assert_eq!(done.stats.flop_count, 2 * 17 * 13 * 9);
        }
        let stats = service.stats();
        assert_eq!(stats.jobs_submitted, 6);
        assert_eq!(stats.jobs_completed, 6);
        assert_eq!(stats.jobs_failed, 0);
        assert!(stats.batches >= 1 && stats.batches <= 6);
        assert!(stats.largest_batch >= 1);
        assert!(stats.queue_highwater >= 1);
        assert_eq!(stats.total_flops, 6 * 2 * 17 * 13 * 9);
        assert_eq!(stats.health, ServiceHealth::Healthy);
        assert_eq!((stats.panics_caught, stats.retries, stats.degraded_completions), (0, 0, 0));
        assert!(stats.to_string().contains("6 submitted"));
        assert!(stats.to_string().contains("health healthy"));
    }

    #[test]
    fn invalid_jobs_fail_alone_without_poisoning_the_batch() {
        let service = GemmService::new(BlisGemm::new(BlockingParams::carmel_defaults(8, 12)));
        let bad = GemmJob::new(OwnedMat::zeros(4, 5), OwnedMat::zeros(6, 4), OwnedMat::zeros(4, 4));
        let good = job(8, 8, 8, 1);
        let mut results = service.execute_all(vec![bad, good]);
        assert!(matches!(results.remove(0), Err(GemmError::ShapeMismatch { .. })));
        assert!(results.remove(0).is_ok());
        let stats = service.stats();
        assert_eq!(stats.jobs_failed, 1);
        assert_eq!(stats.jobs_completed, 1);
    }

    #[test]
    fn degenerate_jobs_complete_with_zero_flops() {
        let service = GemmService::new(BlisGemm::new(BlockingParams::carmel_defaults(8, 12)));
        let job = GemmJob::new(
            OwnedMat::zeros(3, 0),
            OwnedMat::zeros(0, 4),
            OwnedMat::from_fn(3, 4, |i, j| (i * 4 + j) as f32),
        )
        .beta(2.0);
        let done = service.submit(job).expect("service accepting").wait().unwrap();
        assert_eq!(done.stats.flop_count, 0);
        assert_eq!(done.c.get(2, 3), 22.0, "k = 0 still applies beta");
        let stats = service.stats();
        assert_eq!(stats.jobs_completed, 1, "degenerate jobs are counted, not skipped");
        assert_eq!(stats.total_flops, 0);
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let service = GemmService::with_config(
            BlisGemm::new(BlockingParams::carmel_defaults(8, 12)),
            ServiceConfig { queue_capacity: 4, max_batch: 2 },
        );
        let handles: Vec<JobHandle> =
            (0..4).map(|s| service.submit(job(12, 12, 12, s)).expect("service accepting")).collect();
        drop(service);
        for handle in handles {
            assert!(handle.wait().is_ok(), "accepted jobs must finish during shutdown");
        }
    }

    #[test]
    fn zero_deadline_jobs_expire_in_queue_instead_of_executing() {
        let service = GemmService::new(BlisGemm::new(BlockingParams::carmel_defaults(8, 12)));
        let expired = job(8, 8, 8, 0).with_deadline(Duration::ZERO);
        let handle = service.submit(expired).expect("service accepting");
        match handle.wait() {
            Err(GemmError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // A job with slack runs normally alongside the expired one.
        let done = service
            .submit(job(8, 8, 8, 1).with_deadline(Duration::from_secs(60)))
            .expect("service accepting")
            .wait()
            .unwrap();
        assert_eq!(done.stats.flop_count, 2 * 8 * 8 * 8);
        let stats = service.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.jobs_failed, 1);
        assert_eq!(stats.jobs_completed, 1);
    }

    #[test]
    fn try_submit_and_submit_timeout_accept_when_there_is_room() {
        let service = GemmService::new(BlisGemm::new(BlockingParams::carmel_defaults(8, 12)));
        let a = service.try_submit(job(8, 8, 8, 0)).expect("room in a fresh queue");
        let b = service
            .submit_timeout(job(8, 8, 8, 1), Duration::from_secs(5))
            .expect("room well within the timeout");
        assert!(a.wait().is_ok());
        match b.wait_timeout(Duration::from_secs(30)) {
            Some(Ok(_)) => {}
            other => panic!("expected a completion, got {other:?}"),
        }
    }
}
