//! The process-wide GEMM worker pool: long-lived OS threads created once
//! and borrowed by every driver call, in place of per-call
//! `std::thread::scope` spawning.
//!
//! The pool exists for the serving story (see the `exo-serve` crate): a
//! long-lived process answering a stream of GEMM calls must not pay thread
//! creation and teardown on every call, and concurrent callers must share
//! one bounded set of workers instead of oversubscribing the machine with
//! per-call scopes. [`ThreadPool::global`] is that shared set — created on
//! first use via `OnceLock`, sized to the machine (or the `EXO_THREADS`
//! override), and never torn down.
//!
//! Design notes:
//!
//! * **Scoped semantics without scoped threads.** [`ThreadPool::scope_run`]
//!   accepts jobs borrowing the caller's stack (`'env` closures) and does
//!   not return until every job has finished, so the borrows stay valid —
//!   the same contract as `std::thread::scope`, but on recycled workers.
//! * **The caller helps.** While its jobs are outstanding the submitting
//!   thread runs queued jobs itself. This keeps a single-worker pool (or a
//!   pool whose workers are all blocked inside nested scopes) deadlock-free
//!   and means a `scope_run` never waits idle while work it could do sits
//!   queued.
//! * **Panics propagate.** A panicking job poisons nothing: the first
//!   panic payload is captured and re-thrown from `scope_run` on the
//!   submitting thread, matching what `std::thread::scope` callers observe.
//!   Service-grade callers that must survive a panicking job use
//!   [`ThreadPool::scope_run_captured`], which hands the payload back as a
//!   value instead.
//! * **Poison tolerance.** All pool locks are acquired with a
//!   poison-tolerant helper: a panic while a lock is held (impossible in the
//!   pool's own critical sections, which only move plain data, but cheap to
//!   defend against) can never cascade `PoisonError` unwraps through every
//!   later pool user.
//! * **Worker respawn.** If a worker thread dies of an unwinding panic
//!   (only reachable through the [`ThreadPool::arm_worker_death`] fault hook today, but
//!   defended regardless), a replacement is spawned on its way out, so the
//!   pool's width survives any fault the harness can inject.
//! * **Bit-identical results are the driver's concern, not the pool's.**
//!   The pool promises only that each job runs exactly once; the GEMM
//!   driver's block partitioning already makes any worker assignment
//!   produce identical bits.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use exo_codegen::Countdown;

/// Acquires a mutex whether or not it is poisoned.
///
/// The pool's critical sections only push/pop plain data, so a poisoned
/// lock's state is always consistent; propagating the poison (the default
/// `unwrap`) would turn one contained panic into a process-wide cascade.
pub(crate) fn lock_tolerant<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Deterministic fault hooks (inert unless armed).
//
// These are the pool-level half of the `exo_serve::fault` harness: the
// dependency arrow points from `exo-serve` down to this crate, so the hooks
// that must fire *inside* the pool live here and are armed from above. The
// countdowns live per pool (tests arm private pools without interfering);
// `exo_serve::fault` arms the ones of the process-wide [`ThreadPool::global`],
// which is what the service layer executes on. Each hook is one atomic load
// on the hot path when disarmed ([`Countdown`]).
// ---------------------------------------------------------------------------

/// A unit of work submitted to the pool: a lifetime-erased closure plus the
/// completion latch of the `scope_run` that owns it.
struct Task {
    job: Box<dyn FnOnce() + Send + 'static>,
    latch: Arc<Latch>,
}

impl Task {
    /// Runs the job and signals the owning scope, capturing a panic payload
    /// instead of unwinding into the worker loop.
    fn run(self, shared: &Shared) {
        let Task { job, latch } = self;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shared.maybe_injected_task_panic();
            job();
        }));
        let mut state = lock_tolerant(&latch.state);
        state.remaining -= 1;
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        if state.remaining == 0 {
            latch.done.notify_all();
        }
    }
}

/// Completion tracking for one `scope_run` call.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new(jobs: usize) -> Self {
        Latch { state: Mutex::new(LatchState { remaining: jobs, panic: None }), done: Condvar::new() }
    }

    fn is_done(&self) -> bool {
        lock_tolerant(&self.state).remaining == 0
    }

    /// Blocks until either the scope completes or a spurious wakeup occurs
    /// (the caller re-checks the queue afterwards, so spurious wakeups are
    /// harmless).
    fn wait(&self) {
        let state = lock_tolerant(&self.state);
        if state.remaining > 0 {
            drop(self.done.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner()));
        }
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        lock_tolerant(&self.state).panic.take()
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<QueueState>,
    ready: Condvar,
    /// Total OS threads this pool has ever created — the observable the
    /// pool-reuse tests assert on (it must stop growing after warm-up).
    spawned: AtomicUsize,
    /// Total jobs finished by pool workers *and* helping callers.
    executed: AtomicUsize,
    /// Workers respawned after dying of an unwinding panic.
    respawned: AtomicUsize,
    /// Fault hook: countdown until an injected panic inside the Nth job of
    /// this pool.
    task_panic_in: Countdown,
    /// Fault hook: countdown until the worker finishing the Nth queued task
    /// of this pool dies. The kill fires *after* the
    /// task signalled its scope, so no latch is stranded — the observable
    /// is the worker death plus its respawn.
    worker_death_in: Countdown,
}

struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

impl Shared {
    /// Pops one queued task, if any.
    fn try_pop(&self) -> Option<Task> {
        lock_tolerant(&self.queue).tasks.pop_front()
    }

    /// Called at the start of every job of this pool (inside its capture).
    #[inline]
    fn maybe_injected_task_panic(&self) {
        if self.task_panic_in.fires() {
            panic!("injected fault: pool job panic (EXO_FAULT pool-panic)");
        }
    }

    fn run_task(&self, task: Task) {
        task.run(self);
        self.executed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A boxed job for [`ThreadPool::scope_run`], borrowing the caller's stack.
pub type PoolJob<'env> = Box<dyn FnOnce() + Send + 'env>;

/// A pool of long-lived worker threads with scoped-execution semantics.
///
/// Most callers want the process-wide [`ThreadPool::global`]; private pools
/// ([`ThreadPool::with_workers`]) exist for tests and for callers that need
/// isolation. Dropping a private pool signals its workers to exit once the
/// queue drains (they are detached, so drop does not block on them).
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: usize,
}

impl ThreadPool {
    /// The process-wide pool: created on first use, sized by
    /// [`env_threads_override`] (`EXO_THREADS`) when set, otherwise by
    /// `std::thread::available_parallelism`, and alive for the rest of the
    /// process.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers = env_threads_override()
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
            ThreadPool::with_workers(workers)
        })
    }

    /// Creates a private pool with `workers` threads (clamped to at least
    /// one). Prefer [`ThreadPool::global`] outside tests.
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState { tasks: VecDeque::new(), shutdown: false }),
            ready: Condvar::new(),
            spawned: AtomicUsize::new(0),
            executed: AtomicUsize::new(0),
            respawned: AtomicUsize::new(0),
            task_panic_in: Countdown::new(),
            worker_death_in: Countdown::new(),
        });
        for idx in 0..workers {
            spawn_worker(Arc::clone(&shared), format!("exo-gemm-worker-{idx}"));
        }
        ThreadPool { shared, workers }
    }

    /// The number of worker threads — the pool's maximum parallelism (the
    /// helping caller adds one more lane while inside `scope_run`).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total OS threads this pool has ever spawned. Constant after
    /// construction — asserted by the serving tests to prove the hot path
    /// recycles workers instead of spawning.
    pub fn threads_spawned(&self) -> usize {
        self.shared.spawned.load(Ordering::Relaxed)
    }

    /// Total jobs the pool has completed (workers and helping callers).
    pub fn tasks_executed(&self) -> usize {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Workers respawned after dying of an unwinding panic — zero in a
    /// healthy process; positive only under injected worker-death faults
    /// (or a pool bug the respawn guard then contains).
    pub fn workers_respawned(&self) -> usize {
        self.shared.respawned.load(Ordering::Relaxed)
    }

    /// Arms a deterministic fault: the `nth` job of this pool to start
    /// from now (1 = the very next one) panics before doing any work. The
    /// panic is observed exactly as a real panicking job: captured by the
    /// job's scope and either re-thrown from [`ThreadPool::scope_run`] or
    /// returned from [`ThreadPool::scope_run_captured`].
    pub fn arm_task_panic(&self, nth: u64) {
        self.shared.task_panic_in.arm(nth.max(1));
    }

    /// Arms a deterministic fault: the worker that finishes the `nth`
    /// queued task of this pool from now dies (its thread unwinds) *after*
    /// signalling the task's scope, exercising the respawn path without
    /// stranding any waiter.
    pub fn arm_worker_death(&self, nth: u64) {
        self.shared.worker_death_in.arm(nth.max(1));
    }

    /// Disarms every fault hook of this pool.
    pub fn disarm_faults(&self) {
        self.shared.task_panic_in.arm(0);
        self.shared.worker_death_in.arm(0);
    }

    /// Runs every job to completion before returning, on pool workers plus
    /// the calling thread — `std::thread::scope` semantics on recycled
    /// threads.
    ///
    /// If a job panics, the first panic payload is re-thrown here after all
    /// jobs of this scope have finished.
    pub fn scope_run<'env>(&self, jobs: Vec<PoolJob<'env>>) {
        match jobs.len() {
            0 => return,
            // One job: run it inline, no queue round-trip. An injected
            // task-panic fault still counts this as a pool job, and its
            // panic propagates — exactly like a real panic on this path.
            1 => {
                let job = jobs.into_iter().next().unwrap();
                self.shared.maybe_injected_task_panic();
                return job();
            }
            _ => {}
        }
        if let Some(payload) = self.scope_run_latch(jobs) {
            resume_unwind(payload);
        }
    }

    /// Like [`ThreadPool::scope_run`], but a panicking job does not unwind
    /// the caller: the first panic payload is returned as a value after
    /// every job of the scope has finished (the rest run to completion).
    ///
    /// This is the service path's opt-in: `scope_run` keeps
    /// `std::thread::scope` propagate semantics for direct callers, while a
    /// batch executor that must keep serving the other entries of a batch
    /// captures here and resolves only the affected jobs with errors.
    pub fn scope_run_captured<'env>(
        &self,
        jobs: Vec<PoolJob<'env>>,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        match jobs.len() {
            0 => None,
            1 => {
                let job = jobs.into_iter().next().unwrap();
                catch_unwind(AssertUnwindSafe(|| {
                    self.shared.maybe_injected_task_panic();
                    job();
                }))
                .err()
            }
            _ => self.scope_run_latch(jobs),
        }
    }

    /// The shared latch machinery behind both scope entry points: queue the
    /// jobs, help run the queue until the scope's latch reports done, and
    /// hand back the first captured panic payload (if any).
    fn scope_run_latch<'env>(&self, jobs: Vec<PoolJob<'env>>) -> Option<Box<dyn std::any::Any + Send>> {
        let latch = Arc::new(Latch::new(jobs.len()));
        {
            let mut queue = lock_tolerant(&self.shared.queue);
            for job in jobs {
                // SAFETY: lifetime erasure only. `scope_run_latch` does not
                // return until this scope's latch reports every job finished
                // (even on panic), so the `'env` borrows captured by the
                // closure outlive every access the pool makes to it.
                let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
                queue.tasks.push_back(Task { job, latch: Arc::clone(&latch) });
            }
        }
        self.shared.ready.notify_all();
        // Help until our scope completes: run queued tasks (ours or another
        // scope's) and only sleep on the latch when the queue is empty.
        loop {
            if latch.is_done() {
                break;
            }
            match self.shared.try_pop() {
                Some(task) => self.shared.run_task(task),
                None => latch.wait(),
            }
        }
        latch.take_panic()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        let mut queue = lock_tolerant(&self.shared.queue);
        queue.shutdown = true;
        drop(queue);
        self.shared.ready.notify_all();
    }
}

/// Spawns one pool worker thread (initial fleet and respawns alike).
fn spawn_worker(shared: Arc<Shared>, name: String) {
    shared.spawned.fetch_add(1, Ordering::Relaxed);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(shared))
        .expect("failed to spawn gemm pool worker");
}

/// Replaces the current worker with a fresh one if its thread is dying of
/// an unwinding panic. Armed for the whole worker loop; a clean shutdown
/// exit defuses it.
struct RespawnGuard {
    shared: Arc<Shared>,
    defused: bool,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !self.defused && std::thread::panicking() {
            let idx = self.shared.respawned.fetch_add(1, Ordering::Relaxed);
            spawn_worker(Arc::clone(&self.shared), format!("exo-gemm-worker-r{idx}"));
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut guard = RespawnGuard { shared: Arc::clone(&shared), defused: false };
    loop {
        let task = {
            let mut state = lock_tolerant(&shared.queue);
            loop {
                if let Some(task) = state.tasks.pop_front() {
                    break Some(task);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.ready.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        match task {
            Some(task) => {
                shared.run_task(task);
                // The injected worker-death fault fires *after* the task
                // signalled its scope: no waiter is stranded, the only
                // observable is this thread dying and the respawn guard
                // replacing it.
                if shared.worker_death_in.fires() {
                    panic!("injected fault: pool worker death (EXO_FAULT worker-death)");
                }
            }
            None => {
                guard.defused = true;
                return;
            }
        }
    }
}

/// Parses an `EXO_THREADS` value: a positive worker count.
///
/// # Errors
///
/// Returns a description of the problem for non-numeric or zero values.
pub fn parse_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(format!("`{value}` is zero; the pool needs at least one worker (unset EXO_THREADS for the machine default)")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("`{value}` is not a worker count; expected a positive integer like `EXO_THREADS=4`")),
    }
}

/// The process-wide `EXO_THREADS` override, read once under the workspace
/// override contract ([`exo_codegen::env_once`], as `EXO_ISA`): unset or empty means "no override" (size the pool to the
/// machine), anything else must parse as a positive worker count — a typo
/// panics with the parse error rather than silently falling back.
pub fn env_threads_override() -> Option<usize> {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    exo_codegen::env_once(&OVERRIDE, "EXO_THREADS", parse_threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn scope_run_completes_every_job_and_keeps_borrows_valid() {
        let pool = ThreadPool::with_workers(3);
        let mut slots = vec![0u32; 17];
        let jobs: Vec<PoolJob<'_>> = slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| Box::new(move || *slot = i as u32 + 1) as PoolJob<'_>)
            .collect();
        pool.scope_run(jobs);
        assert_eq!(slots, (1..=17).collect::<Vec<u32>>());
    }

    #[test]
    fn pool_threads_are_reused_across_scopes() {
        let pool = ThreadPool::with_workers(2);
        let spawned = pool.threads_spawned();
        assert_eq!(spawned, 2);
        let counter = AtomicU32::new(0);
        for _ in 0..20 {
            let jobs: Vec<PoolJob<'_>> = (0..4)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as PoolJob<'_>
                })
                .collect();
            pool.scope_run(jobs);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 80);
        assert_eq!(pool.threads_spawned(), spawned, "scopes must recycle workers, not spawn");
        assert!(pool.tasks_executed() >= 80);
    }

    #[test]
    fn nested_scopes_do_not_deadlock_even_on_one_worker() {
        let pool = ThreadPool::with_workers(1);
        let counter = AtomicU32::new(0);
        let outer: Vec<PoolJob<'_>> = (0..3)
            .map(|_| {
                Box::new(|| {
                    let inner: Vec<PoolJob<'_>> = (0..3)
                        .map(|_| {
                            Box::new(|| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            }) as PoolJob<'_>
                        })
                        .collect();
                    pool.scope_run(inner);
                }) as PoolJob<'_>
            })
            .collect();
        pool.scope_run(outer);
        assert_eq!(counter.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn panics_propagate_to_the_submitting_thread() {
        let pool = ThreadPool::with_workers(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<PoolJob<'_>> = vec![
                Box::new(|| {}) as PoolJob<'_>,
                Box::new(|| panic!("gemm worker exploded")) as PoolJob<'_>,
                Box::new(|| {}) as PoolJob<'_>,
            ];
            pool.scope_run(jobs);
        }));
        let payload = result.expect_err("panic must cross scope_run");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("exploded"), "payload preserved, got: {message}");
        // The pool survives the panic and keeps serving.
        let ran = AtomicU32::new(0);
        pool.scope_run(
            (0..4)
                .map(|_| {
                    Box::new(|| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }) as PoolJob<'_>
                })
                .collect(),
        );
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn captured_scopes_return_the_payload_instead_of_unwinding() {
        let pool = ThreadPool::with_workers(2);
        let done = AtomicU32::new(0);
        let jobs: Vec<PoolJob<'_>> = vec![
            Box::new(|| {
                done.fetch_add(1, Ordering::Relaxed);
            }) as PoolJob<'_>,
            Box::new(|| panic!("captured boom")) as PoolJob<'_>,
            Box::new(|| {
                done.fetch_add(1, Ordering::Relaxed);
            }) as PoolJob<'_>,
        ];
        let payload = pool.scope_run_captured(jobs).expect("panic must be captured");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("captured boom"));
        assert_eq!(done.load(Ordering::Relaxed), 2, "the other jobs of the scope still ran");

        // Singleton captured scopes catch inline panics too.
        let payload = pool.scope_run_captured(vec![Box::new(|| panic!("solo")) as PoolJob<'_>]);
        assert!(payload.is_some());
        assert!(pool.scope_run_captured(Vec::new()).is_none());
    }

    #[test]
    fn injected_worker_death_respawns_and_the_pool_keeps_serving() {
        let pool = ThreadPool::with_workers(2);
        let spawned_before = pool.threads_spawned();
        pool.arm_worker_death(1);
        // Drive multi-job scopes until a pool worker (not just the helping
        // caller) runs a task and trips the countdown; jobs sleep briefly
        // so the helping caller cannot drain the whole queue alone.
        let counter = AtomicU32::new(0);
        for _ in 0..200 {
            if pool.workers_respawned() > 0 {
                break;
            }
            pool.scope_run(
                (0..8)
                    .map(|_| {
                        Box::new(|| {
                            std::thread::sleep(std::time::Duration::from_micros(300));
                            counter.fetch_add(1, Ordering::Relaxed);
                        }) as PoolJob<'_>
                    })
                    .collect(),
            );
        }
        pool.disarm_faults();
        assert!(pool.workers_respawned() >= 1, "the dead worker must be replaced");
        assert_eq!(
            pool.threads_spawned(),
            spawned_before + pool.workers_respawned(),
            "each respawn spawns exactly one replacement"
        );
        // Full-width liveness after the death: a scope with more jobs than
        // the helping caller can run alone still completes.
        let ran = AtomicU32::new(0);
        pool.scope_run(
            (0..8)
                .map(|_| {
                    Box::new(|| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }) as PoolJob<'_>
                })
                .collect(),
        );
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn injected_task_panic_is_deterministic_and_contained() {
        let pool = ThreadPool::with_workers(2);
        pool.arm_task_panic(3);
        let ran = AtomicU32::new(0);
        let jobs = || {
            (0..4)
                .map(|_| {
                    Box::new(|| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }) as PoolJob<'_>
                })
                .collect::<Vec<_>>()
        };
        let payload = pool.scope_run_captured(jobs());
        pool.disarm_faults();
        let message = payload.as_deref().and_then(|p| p.downcast_ref::<&str>()).copied().unwrap_or_default();
        assert!(message.contains("injected fault"), "job 3 of 4 must trip the countdown: {message}");
        assert_eq!(ran.load(Ordering::Relaxed), 3, "exactly one of the four jobs was killed");
        // Disarmed again: everything runs.
        assert!(pool.scope_run_captured(jobs()).is_none());
        assert_eq!(ran.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn empty_and_singleton_scopes_short_circuit() {
        let pool = ThreadPool::with_workers(2);
        pool.scope_run(Vec::new());
        let mut hit = false;
        pool.scope_run(vec![Box::new(|| hit = true) as PoolJob<'_>]);
        assert!(hit);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = ThreadPool::global() as *const ThreadPool;
        let b = ThreadPool::global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(ThreadPool::global().workers() >= 1);
    }

    #[test]
    fn thread_count_parser_accepts_counts_and_rejects_typos() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 8 "), Ok(8));
        assert!(parse_threads("0").unwrap_err().contains("at least one"));
        assert!(parse_threads("fast").unwrap_err().contains("not a worker count"));
        assert!(parse_threads("-2").unwrap_err().contains("positive integer"));
    }
}
