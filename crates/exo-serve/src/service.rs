//! The queued GEMM front door: many caller threads submit owned jobs, and
//! whichever of them finds the queue idle drains it into passes on its own
//! thread — a pass of one job through the executor's one-entry door, a
//! longer one as a [`GemmBatch`]. The service owns no thread.
//!
//! Lifecycle and flow:
//!
//! 1. [`GemmService::new`] takes ownership of a [`GemmBatchExecutor`]
//!    (typically a [`crate::CachedTunedGemm`]).
//! 2. Callers [`GemmService::submit`] owned [`GemmJob`]s from any number of
//!    threads. The queue is **bounded** ([`ServiceConfig::queue_capacity`]):
//!    a full queue blocks the submitter — backpressure, not unbounded
//!    buffering. [`GemmService::try_submit`] and
//!    [`GemmService::submit_timeout`] are the non-blocking and bounded-wait
//!    variants; both hand the job back in the [`SubmitError`] so nothing is
//!    lost on rejection.
//! 3. A submitter queues its job under the one lock. If nobody is draining
//!    the queue it becomes the **combiner**: it takes up to
//!    [`ServiceConfig::max_batch`] queued jobs, runs them as one pass on
//!    its own thread (a lone job through [`GemmBatchExecutor::gemm_one`],
//!    two or more as one [`GemmBatchExecutor::gemm_batch`]), and repeats
//!    until the queue is empty — its own job and whatever other callers
//!    queued meanwhile. Otherwise it returns
//!    its handle at once: a combiner never leaves a non-empty queue
//!    behind. So an idle service runs a job on the calling thread and
//!    returns a resolved handle, and batches form exactly when callers
//!    contend.
//! 4. A pass writes each job's answer — [`gemm_blis::GemmStats`] or its
//!    error — onto the queued job itself. The combiner books the pass's
//!    answers into the counters of [`GemmService::stats`], then sends each
//!    job's own answer, with its updated `C`, through its [`JobHandle`]:
//!    the books always balance before any handle resolves.
//!
//! What `submit` costs: on an idle service, the job's one engine pass plus
//! one lock and a completion slot; for a combiner, also every job other
//! callers queue before it finds the queue empty — bounded by the windows
//! of closed-loop callers, unbounded while open-loop callers submit faster
//! than one thread executes.
//!
//! Failure semantics: a panic inside one batch entry fails only that job
//! (see [`crate::batch`]); a misshapen job is refused by the executor
//! with [`GemmError::ShapeMismatch`], its `C` untouched; jobs with a queue
//! deadline ([`GemmJob::with_deadline`]) that expire before execution
//! resolve with [`GemmError::DeadlineExceeded`] and never reach the
//! executor; and if a pass itself unwinds on the draining thread, exactly
//! the jobs of that pass resolve with [`GemmError::JobPanicked`], the
//! caught panic makes [`GemmService::health`] read
//! [`ServiceHealth::Degraded`], and the same thread goes on draining —
//! there is no state in which a live service refuses work, and no handle
//! can hang.
//!
//! Shutdown: a queued job implies a combiner inside `submit`, borrowing
//! the service, so a service that can be dropped has an empty queue and
//! dropping it is dropping its fields. Handles outlive it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gemm_blis::pool::ThreadPool;
use gemm_blis::{GemmError, GemmStats};

use crate::batch::{panic_message, GemmBatch, GemmBatchExecutor};
use crate::fault;
use crate::job::{CompletedJob, GemmJob};

/// Tunables of a [`GemmService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Bound of the submission queue. A full queue blocks `submit` until
    /// the draining thread takes a batch — the service's backpressure
    /// mechanism.
    pub queue_capacity: usize,
    /// Maximum entries drained into a single batch.
    pub max_batch: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { queue_capacity: 64, max_batch: 32 }
    }
}

/// How well the service has behaved, reported by [`GemmService::health`].
/// It is read off three counters of [`ServiceStats`] that only grow —
/// `panics_caught`, `degraded_completions` and `aot_builds_failed` — so it
/// only ever worsens over a service's lifetime (raise-only), and a
/// snapshot is a safe upper bound on how well the service has behaved so
/// far. Neither state refuses work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServiceHealth {
    /// Every job so far ran cleanly on its intended backend.
    #[default]
    Healthy,
    /// The service has caught panics, completed jobs on a degraded
    /// (tiered-down) backend, or lost a native-kernel build.
    Degraded,
}

impl std::fmt::Display for ServiceHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceHealth::Healthy => write!(f, "healthy"),
            ServiceHealth::Degraded => write!(f, "degraded"),
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
        GemmError::QueueFull
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            SubmitErrorReason::QueueFull => write!(f, "submission rejected: queue full"),
            SubmitErrorReason::Timeout => {
                write!(f, "submission rejected: queue stayed full past the timeout")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Aggregate service counters, snapshot via [`GemmService::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted by `submit` so far.
    pub jobs_submitted: u64,
    /// Jobs completed successfully.
    pub jobs_completed: u64,
    /// Jobs that resolved with an error.
    pub jobs_failed: u64,
    /// Batches (passes of a draining thread) executed.
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
    /// Panics caught and isolated: to single jobs (each fails only its own
    /// job; the rest of the batch completes), or — a pass that unwound
    /// outside any entry — to that pass's jobs.
    pub panics_caught: u64,
    /// Tier-down retries attempted after an executional failure.
    pub retries: u64,
    /// Jobs that completed on a degraded (tiered-down) backend.
    pub degraded_completions: u64,
    /// Jobs whose queue deadline expired before execution.
    pub deadline_expired: u64,
    /// Native kernels verified and promoted since this service was
    /// constructed (the engine counters are process-wide; the service
    /// reports deltas against its construction-time baseline).
    pub aot_promotions: u64,
    /// Native bodies that failed to promote since construction — every
    /// one is a degradation: the affected kernels serve on the simd tier.
    /// (A kernel the build-time table holds no body for is not: it never
    /// had a native tier to lose.)
    pub aot_builds_failed: u64,
    /// Bodies that failed probe verification since construction (a
    /// subset of `aot_builds_failed`; their keys are pinned to simd).
    pub aot_wrong_results: u64,
    /// Service health: [`ServiceHealth::Degraded`] exactly when
    /// `panics_caught`, `degraded_completions` or `aot_builds_failed` is
    /// non-zero (raise-only, since all three only grow).
    pub health: ServiceHealth,
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submitted / {} completed / {} failed in {} batches (largest {}); \
             queue high-water {}/{}; pool {} workers, {} tasks; {:.3} GFLOP total; \
             {} panics caught, {} retries, {} degraded, {} deadline-expired; \
             aot {} promoted, {} build-failures ({} wrong-results); health {}",
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
            self.aot_promotions,
            self.aot_builds_failed,
            self.aot_wrong_results,
            self.health,
        )
    }
}

/// Locks `mutex` whatever an earlier holder did: nothing here panics with a
/// lock held except a misused handle, which poisons only its own slot.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parks on `on` until it is notified or `give_up_at` comes (`None`: waits
/// as long as it takes). `None` once the time is up, the guard released.
fn park<'a, T>(
    on: &Condvar,
    guard: MutexGuard<'a, T>,
    give_up_at: Option<Instant>,
) -> Option<MutexGuard<'a, T>> {
    let Some(at) = give_up_at else {
        return Some(on.wait(guard).unwrap_or_else(PoisonError::into_inner));
    };
    let left = at.saturating_duration_since(Instant::now());
    (!left.is_zero()).then(|| on.wait_timeout(guard, left).unwrap_or_else(PoisonError::into_inner).0)
}

/// Where one job's result is left for its [`JobHandle`].
#[derive(Debug)]
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

#[derive(Debug)]
enum SlotState {
    /// Not resolved yet; `awaited` once a handle is parked on `ready`, so a
    /// result nobody waits for yet is published without a wake-up.
    Pending {
        awaited: bool,
    },
    Ready(Result<CompletedJob, GemmError>),
    Redeemed,
}

/// A fresh slot's two ends.
fn slot() -> (Reply, JobHandle) {
    let slot =
        Arc::new(Slot { state: Mutex::new(SlotState::Pending { awaited: false }), ready: Condvar::new() });
    (Reply { slot: Arc::clone(&slot), sent: false }, JobHandle { slot })
}

/// The resolving side of a [`Slot`]. Dropped unsent it resolves the handle
/// with [`GemmError::JobPanicked`]: only an unwind drops a submission, and
/// a handle that waits on a result nobody will send would hang.
struct Reply {
    slot: Arc<Slot>,
    sent: bool,
}

impl Reply {
    fn send(mut self, result: Result<CompletedJob, GemmError>) {
        self.publish(result);
    }

    fn publish(&mut self, result: Result<CompletedJob, GemmError>) {
        self.sent = true;
        let mut state = lock(&self.slot.state);
        let awaited = matches!(*state, SlotState::Pending { awaited: true });
        *state = SlotState::Ready(result);
        if awaited {
            self.slot.ready.notify_all();
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.sent {
            self.publish(Err(GemmError::JobPanicked {
                message: "the job was dropped before it was resolved".into(),
            }));
        }
    }
}

struct Submission {
    job: GemmJob,
    reply: Reply,
    /// When `submit` was called, for a job with a deadline: the deadline
    /// check is all that reads it, so no other job reads the clock for it.
    enqueued: Option<Instant>,
    /// The job's answer, `None` until the pass that holds it gives one.
    outcome: Option<Result<GemmStats, GemmError>>,
}

/// The handle returned by [`GemmService::submit`]: redeem it with
/// [`JobHandle::wait`] for the job's `C` operand and stats.
#[derive(Debug)]
pub struct JobHandle {
    slot: Arc<Slot>,
}

impl JobHandle {
    /// Blocks until the job resolves; returns at once if it already has
    /// (a job submitted to an idle service ran inside `submit`).
    ///
    /// # Errors
    ///
    /// Propagates the executor's error for this job,
    /// [`GemmError::DeadlineExceeded`] if it expired in the queue, or
    /// [`GemmError::JobPanicked`] if the pass that held it unwound — every
    /// accepted job resolves, a handle never hangs.
    pub fn wait(self) -> Result<CompletedJob, GemmError> {
        self.redeem(None).expect("a wait without a limit ends with the result")
    }

    /// Like [`JobHandle::wait`] but gives up after `timeout`, returning
    /// `None` so the caller can retry later (the handle stays redeemable).
    /// A timeout too large to be a point in time never gives up.
    ///
    /// # Panics
    ///
    /// Panics if this handle already returned its result: a job resolves
    /// once.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<CompletedJob, GemmError>> {
        self.redeem(Instant::now().checked_add(timeout))
    }

    /// Takes the result out, parking until it is there or `give_up_at`
    /// comes (`None`: as long as it takes, so never `None` back).
    fn redeem(&self, give_up_at: Option<Instant>) -> Option<Result<CompletedJob, GemmError>> {
        let mut state = lock(&self.slot.state);
        loop {
            match std::mem::replace(&mut *state, SlotState::Redeemed) {
                SlotState::Ready(result) => return Some(result),
                SlotState::Pending { .. } => *state = SlotState::Pending { awaited: true },
                SlotState::Redeemed => panic!("this JobHandle already returned its result"),
            }
            state = park(&self.slot.ready, state, give_up_at)?;
        }
    }
}

/// What the one lock guards: the queue, the right to drain it, the books.
struct State {
    pending: VecDeque<Submission>,
    /// The executor while nobody drains the queue. The submitter that takes
    /// it is the combiner and puts it back in the critical section that
    /// finds `pending` empty, so `None` here means "someone is draining"
    /// and a non-empty queue implies it.
    executor: Option<Box<dyn GemmBatchExecutor + Send>>,
    /// The counters this service moves itself; [`GemmService::stats`] fills
    /// in the pool's and the AOT engine's, and the health read off them.
    /// All of them move under the lock, so `jobs_submitted >=
    /// jobs_completed + jobs_failed` in every snapshot, with equality
    /// whenever no job is queued or running.
    stats: ServiceStats,
}

/// A pass's isolation tallies: `(panics caught, retries, degraded
/// completions)`.
type Tallies = (u64, u64, u64);

impl State {
    /// Books one answered pass — before any answer is published, so a
    /// caller never holds a result the stats do not yet account for.
    fn book(&mut self, (panics, retries, degraded): Tallies, pass: &[Submission]) {
        let stats = &mut self.stats;
        stats.panics_caught += panics;
        stats.retries += retries;
        stats.degraded_completions += degraded;
        for submission in pass {
            match &submission.outcome {
                Some(Ok(done)) => {
                    stats.jobs_completed += 1;
                    stats.total_flops += done.flop_count;
                }
                failed => {
                    stats.jobs_failed += 1;
                    stats.deadline_expired +=
                        u64::from(matches!(failed, Some(Err(GemmError::DeadlineExceeded { .. }))));
                }
            }
        }
    }
}

/// The combiner's hold on the executor. Every pass runs inside a panic
/// capture and nothing between passes can unwind, so the executor normally
/// goes back by hand, together with the emptiness check; this returns it if
/// that reasoning is ever wrong, so the next submitter can still drain.
struct Combiner<'a> {
    service: &'a GemmService,
    executor: Option<Box<dyn GemmBatchExecutor + Send>>,
}

impl Drop for Combiner<'_> {
    fn drop(&mut self) {
        if let Some(executor) = self.executor.take() {
            lock(&self.service.state).executor = Some(executor);
        }
    }
}

/// A persistent GEMM service: any number of caller threads submit to one
/// bounded queue, and the caller that finds it idle batches and runs what
/// is queued on its own thread.
///
/// See the module docs for lifecycle, batching, backpressure, and failure
/// semantics. The service is `Sync` — share `&GemmService` freely across
/// caller threads (or clone the jobs' data and use scoped threads, as
/// `examples/gemm_service.rs` does).
pub struct GemmService {
    state: Mutex<State>,
    /// Signalled when a batch is taken out of a full queue.
    room: Condvar,
    config: ServiceConfig,
    /// The process-wide AOT engine counters at service construction.
    /// Engine counters span every engine user in the process, so the
    /// service reports (and judges its health by) deltas against this
    /// baseline: only degradations on *this service's* watch count.
    aot_base: exo_aot::AotStats,
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
        let state = State {
            pending: VecDeque::with_capacity(config.queue_capacity),
            executor: Some(Box::new(executor)),
            stats: ServiceStats { queue_capacity: config.queue_capacity, ..ServiceStats::default() },
        };
        GemmService {
            state: Mutex::new(state),
            room: Condvar::new(),
            config,
            aot_base: exo_aot::engine().stats(),
        }
    }

    /// Submits one owned job, blocking while the queue is at capacity
    /// (backpressure). Redeem the handle with [`JobHandle::wait`].
    ///
    /// On an idle service the job runs on this thread, inside the call, and
    /// the handle comes back resolved; see the module docs for what a
    /// combiner may run besides.
    ///
    /// # Errors
    ///
    /// None: a blocking submission waits for room, and a live service
    /// never refuses work. (The `Result` is what the three doors share.)
    // The error variant is deliberately large: it hands the job — three
    // owned operands — back to the caller instead of dropping it.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, job: GemmJob) -> Result<JobHandle, SubmitError> {
        self.enqueue(job, None)
    }

    /// Non-blocking [`GemmService::submit`]: a full queue rejects with
    /// [`SubmitErrorReason::QueueFull`] instead of waiting for room — also
    /// while other callers are parked in `submit` — handing the job back
    /// for the caller to retry or reroute. (An accepted job may still run
    /// inside the call, like any submission.)
    ///
    /// # Errors
    ///
    /// `QueueFull` under backpressure.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, job: GemmJob) -> Result<JobHandle, SubmitError> {
        self.enqueue(job, Some(Duration::ZERO))
    }

    /// [`GemmService::submit`] with a bound on how long backpressure may
    /// block. A timeout too large to be a point in time never gives up.
    ///
    /// # Errors
    ///
    /// [`SubmitErrorReason::Timeout`] if the queue stayed full the whole
    /// time.
    #[allow(clippy::result_large_err)]
    pub fn submit_timeout(&self, job: GemmJob, timeout: Duration) -> Result<JobHandle, SubmitError> {
        self.enqueue(job, Some(timeout)).map_err(|e| SubmitError { reason: SubmitErrorReason::Timeout, ..e })
    }

    /// The one submission path: wait for room for at most `patience`
    /// (`None`: as long as it takes), queue the job, and drain the queue if
    /// nobody else is.
    #[allow(clippy::result_large_err)]
    fn enqueue(&self, job: GemmJob, patience: Option<Duration>) -> Result<JobHandle, SubmitError> {
        // The clock is read for a job with a deadline, whose queue time
        // starts here, and for a bounded wait once the queue is found full.
        let enqueued = job.deadline().map(|_| Instant::now());
        let mut state = lock(&self.state);
        if state.pending.len() >= self.config.queue_capacity {
            let give_up_at =
                patience.and_then(|patience| enqueued.unwrap_or_else(Instant::now).checked_add(patience));
            while state.pending.len() >= self.config.queue_capacity {
                state = match park(&self.room, state, give_up_at) {
                    Some(state) => state,
                    None => return Err(SubmitError { job, reason: SubmitErrorReason::QueueFull }),
                };
            }
        }
        let (reply, handle) = slot();
        state.pending.push_back(Submission { job, reply, enqueued, outcome: None });
        state.stats.jobs_submitted += 1;
        state.stats.queue_highwater = state.stats.queue_highwater.max(state.pending.len());
        if let Some(executor) = state.executor.take() {
            let first = self.take_pass(&mut state);
            drop(state);
            self.drain(executor, first);
        }
        Ok(handle)
    }

    /// The next pass: up to `max_batch` jobs from the front of the queue
    /// (none if it is empty), counted, with parked submitters told if that
    /// made room.
    fn take_pass(&self, state: &mut State) -> Vec<Submission> {
        let was_full = state.pending.len() >= self.config.queue_capacity;
        let take = state.pending.len().min(self.config.max_batch);
        let pass: Vec<Submission> = state.pending.drain(..take).collect();
        if take > 0 {
            state.stats.batches += 1;
            state.stats.largest_batch = state.stats.largest_batch.max(take);
        }
        // Submitters only park on a full queue, and every take from one
        // comes through here.
        if was_full {
            self.room.notify_all();
        }
        pass
    }

    /// Runs `pass`, then whatever queued up meanwhile, until the queue is
    /// found empty. One lock per pass: it books the answers the pass left
    /// on its jobs and takes the next pass (or hands the executor back);
    /// each job's answer is sent after it, outside it.
    fn drain(&self, executor: Box<dyn GemmBatchExecutor + Send>, mut pass: Vec<Submission>) {
        let mut combiner = Combiner { service: self, executor: Some(executor) };
        while !pass.is_empty() {
            let executor = combiner.executor.as_deref().expect("held until the queue is found empty");
            // The pass lives outside the capture: if it unwinds, its jobs
            // are still here to be failed — typed, and counted first.
            let tallies =
                catch_unwind(AssertUnwindSafe(|| run_pass(executor, &mut pass))).unwrap_or_else(|payload| {
                    let message = panic_message(payload.as_ref());
                    for submission in &mut pass {
                        submission.outcome = Some(Err(GemmError::JobPanicked { message: message.clone() }));
                    }
                    (1, 0, 0)
                });
            let next = {
                let mut state = lock(&self.state);
                state.book(tallies, &pass);
                let next = self.take_pass(&mut state);
                if next.is_empty() {
                    state.executor = combiner.executor.take();
                }
                next
            };
            for Submission { job, reply, outcome, .. } in std::mem::replace(&mut pass, next) {
                let outcome = outcome.expect("a pass answers every job, or fails them all");
                reply.send(outcome.map(|stats| CompletedJob { c: job.into_c(), stats }));
            }
        }
    }

    /// Submits every job, then waits for all of them, returning results in
    /// submission order. A lone caller runs each job inside its `submit`;
    /// beside other callers the bounded queue paces it.
    pub fn execute_all(&self, jobs: Vec<GemmJob>) -> Vec<Result<CompletedJob, GemmError>> {
        let handles: Vec<Result<JobHandle, GemmError>> =
            jobs.into_iter().map(|job| self.submit(job).map_err(|e| e.gemm_error())).collect();
        handles.into_iter().map(|handle| handle.and_then(JobHandle::wait)).collect()
    }

    /// Current service health (raise-only; see [`ServiceHealth`]): the
    /// health of a [`Self::stats`] snapshot.
    pub fn health(&self) -> ServiceHealth {
        self.stats().health
    }

    /// A snapshot of the aggregate counters. The AOT counters are the
    /// engine's movement since this service was constructed, whoever's
    /// resolution moved them, so a failed promotion counts here, and
    /// degrades the health, whenever it happens — some kernel then serves
    /// below its best tier, degraded but not refused (the simd fallback is
    /// bit-faithful).
    pub fn stats(&self) -> ServiceStats {
        let pool = ThreadPool::global();
        let (now, base) = (exo_aot::engine().stats(), &self.aot_base);
        let books = lock(&self.state).stats.clone();
        let aot_builds_failed = now.builds_failed.saturating_sub(base.builds_failed);
        let degraded = books.panics_caught + books.degraded_completions + aot_builds_failed > 0;
        ServiceStats {
            pool_workers: pool.workers(),
            pool_tasks_executed: pool.tasks_executed(),
            aot_promotions: now.verified_promotions.saturating_sub(base.verified_promotions),
            aot_builds_failed,
            aot_wrong_results: now.wrong_results.saturating_sub(base.wrong_results),
            health: if degraded { ServiceHealth::Degraded } else { ServiceHealth::Healthy },
            ..books
        }
    }
}

/// One pass on the draining thread. It answers every job of `pass` on the
/// job: `DeadlineExceeded` for one whose queue deadline passed, which never
/// reaches the executor; the executor's outcome for the rest — a pass of
/// one through its one-entry door, the unanswered jobs of a longer pass as
/// one batch. Returns the pass's isolation tallies.
fn run_pass(executor: &dyn GemmBatchExecutor, pass: &mut [Submission]) -> Tallies {
    fault::drain_hook();
    for Submission { job, enqueued, outcome, .. } in pass.iter_mut() {
        if let Some((deadline, at)) = job.deadline().zip(*enqueued) {
            let waited = at.elapsed();
            if waited >= deadline {
                *outcome = Some(Err(GemmError::DeadlineExceeded { waited_ms: waited.as_millis() as u64 }));
            }
        }
    }
    if let [Submission { job, outcome: outcome @ None, .. }] = pass {
        let entry = executor.gemm_one(job.problem());
        *outcome = Some(entry.outcome);
        return (entry.panics_caught, entry.retries, entry.degraded_completions);
    }
    let (batch, answers): (GemmBatch<'_>, Vec<_>) = pass
        .iter_mut()
        .filter(|submission| submission.outcome.is_none())
        .map(|Submission { job, outcome, .. }| (job.problem(), outcome))
        .unzip();
    if batch.is_empty() {
        return (0, 0, 0);
    }
    let report = executor.gemm_batch(batch);
    let mut outcomes = report.outcomes.into_iter();
    for answer in answers {
        *answer = Some(outcomes.next().expect("one outcome per batch entry"));
    }
    (report.panics_caught, report.retries, report.degraded_completions)
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
            assert!(
                handle.wait().is_ok(),
                "accepted jobs are finished and redeemable after the service is gone"
            );
        }
    }

    #[test]
    fn a_submission_dropped_unresolved_resolves_its_handle_typed() {
        let (reply, handle) = slot();
        let submission = Submission { job: job(4, 4, 4, 0), reply, enqueued: None, outcome: None };
        assert!(handle.wait_timeout(Duration::ZERO).is_none(), "nothing has resolved it yet");
        drop(submission);
        match handle.wait() {
            Err(GemmError::JobPanicked { message }) => assert!(message.contains("dropped"), "{message}"),
            other => panic!("expected JobPanicked, got {other:?}"),
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
        // A timeout too large to add to the clock is "never gives up", on
        // both sides of a job: it used to panic with the job in hand.
        let c = service.submit_timeout(job(8, 8, 8, 2), Duration::MAX).expect("room, whatever the timeout");
        assert!(a.wait().is_ok());
        match b.wait_timeout(Duration::from_secs(30)) {
            Some(Ok(_)) => {}
            other => panic!("expected a completion, got {other:?}"),
        }
        assert!(matches!(c.wait_timeout(Duration::MAX), Some(Ok(_))));
    }
}
