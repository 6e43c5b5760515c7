//! The compilation engine: emission → toolchain → artifact cache →
//! verified, loaded kernel — asynchronous by default, with per-key build
//! state, integrity-checked disk loads, probe-verified promotion, a
//! kill-on-deadline compiler wrapper, and a capped negative cache.
//!
//! The native tier is *eventually fast, immediately safe*. A kernel's
//! first [`AotEngine::poll`] answers `None` (the caller serves on the
//! simd tier) while a bounded background builder compiles the artifact;
//! once the build lands **and** the loaded code reproduces the checked
//! tape bit for bit on deterministic seeded probe problems, the key atomically
//! promotes and later polls return the native kernel. No GEMM ever waits
//! on `cc`.
//!
//! Every failure is a typed decline. Retryable failures (a compiler
//! crash, a timeout, a full disk) back off exponentially and stop for
//! good after [`MAX_BUILD_ATTEMPTS`] attempts — a persistently failing
//! key invokes the compiler a bounded number of times per process, not
//! once per call. A kernel that *runs* but computes a wrong answer on
//! the probe is quarantined to `<path>.wrong-result` and its key is
//! pinned to the simd tier immediately and terminally.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use exo_codegen::{emit_superword_c, Countdown, IsaKind, SimdKernel, SuperwordKernel, TensorView};

use crate::dylib::Dylib;
use crate::error::{io_err, AotError, Result};
use crate::kernel::{self, KERNEL_SYMBOL};
use crate::manifest::{self, Manifest};
use crate::store::{artifact_key, default_artifact_dir, ArtifactStore};
use crate::toolchain::{toolchain, Toolchain};

/// Build attempts per key per process before the negative cache pins the
/// key to the simd tier for good.
pub const MAX_BUILD_ATTEMPTS: u32 = 3;

/// Base of the exponential backoff between failed attempts: attempt `n`
/// becomes eligible again `250ms * 2^n` after failing. Only the
/// non-blocking serving path honours the backoff; the blocking path
/// retries immediately (but still honours the attempt cap).
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(250);

/// Depth of the background build queue. A poll that finds it full stays
/// on simd and re-enqueues on a later poll — bounded memory, no build
/// storm.
const BUILD_QUEUE_DEPTH: usize = 32;

/// The `KC` values of the verification probe every kernel must pass
/// before promotion: the empty loop, the single iteration, and one that
/// is odd and larger than any unroll factor in the emitters, so
/// remainder paths execute too — a kernel wrong only at `kc = 0` or
/// `kc = 1` (a fringe `KC` block does reach them) must not promote.
const PROBE_KCS: [usize; 3] = [0, 1, 17];

/// Age past which scratch/quarantine debris is swept on engine init.
const SWEEP_TTL: Duration = Duration::from_secs(24 * 3600);

/// Quarantined artifacts kept per directory after a sweep (newest
/// first).
const MAX_QUARANTINE: usize = 16;

/// The compile deadline: how long one compiler invocation may run before
/// it is killed and the attempt reported as [`AotError::CompileTimeout`].
/// A kernel's translation unit builds in well under a second; 20 s only
/// ever ends a compiler that is not going to answer.
const COMPILE_DEADLINE: Duration = Duration::from_secs(20);

/// Effective deadline when the `aot-hang` fault replaces the compiler
/// with a sleeping child: long enough to prove the kill path runs, short
/// enough that the chaos suite stays fast.
const HANG_FAULT_DEADLINE: Duration = Duration::from_millis(150);

/// Fault-injection countdown for the `aot-compile-fail` class: when
/// armed, the Nth build attempt in the process fails with
/// [`AotError::FaultInjected`] before touching the cache or the
/// toolchain. Armed by exo-serve's fault harness.
static COMPILE_FAIL_IN: Countdown = Countdown::new();

/// Fault-injection countdown for the `aot-hang` class: the Nth compiler
/// invocation is replaced by a child that sleeps forever, so the
/// kill-on-deadline wrapper must reap it and report
/// [`AotError::CompileTimeout`].
static HANG_IN: Countdown = Countdown::new();

/// Fault-injection countdown for the `aot-bad-artifact` class: the Nth
/// successful compile has its artifact bytes replaced with garbage
/// *before* the manifest is computed — the manifest matches, `dlopen`
/// fails, and the quarantine path is exercised end-to-end.
static BAD_ARTIFACT_IN: Countdown = Countdown::new();

/// Fault-injection countdown for the `aot-wrong-result` class: the Nth
/// verification probe reports a mismatch, driving the
/// `<path>.wrong-result` quarantine and the terminal simd pin.
static WRONG_RESULT_IN: Countdown = Countdown::new();

/// Arms the `aot-compile-fail` countdown: the `n`-th build attempt from
/// now fails. `0` disarms.
pub fn arm_compile_fail(n: u64) {
    COMPILE_FAIL_IN.arm(n);
}

/// Arms the `aot-hang` countdown: the `n`-th compiler invocation from
/// now hangs and must be killed on deadline. `0` disarms.
pub fn arm_hang(n: u64) {
    HANG_IN.arm(n);
}

/// Arms the `aot-bad-artifact` countdown: the `n`-th successful compile
/// from now produces a sealed-but-unloadable artifact. `0` disarms.
pub fn arm_bad_artifact(n: u64) {
    BAD_ARTIFACT_IN.arm(n);
}

/// Arms the `aot-wrong-result` countdown: the `n`-th verification probe
/// from now reports a mismatch. `0` disarms.
pub fn arm_wrong_result(n: u64) {
    WRONG_RESULT_IN.arm(n);
}

/// A point-in-time snapshot of an engine's observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AotStats {
    /// C compiler invocations (including hung ones that were killed).
    pub compiler_invocations: u64,
    /// Kernels satisfied by a manifest-verified on-disk artifact.
    pub disk_hits: u64,
    /// Build attempts entered (one per `build_and_verify` run).
    pub build_attempts: u64,
    /// Attempts that ended in a verified promotion.
    pub builds_ok: u64,
    /// Attempts that ended in any decline.
    pub builds_failed: u64,
    /// Compiler invocations killed on deadline.
    pub compile_timeouts: u64,
    /// Artifacts moved aside as `.corrupt` or `.wrong-result`.
    pub quarantines: u64,
    /// Kernels that ran but failed probe verification.
    pub wrong_results: u64,
    /// Kernels that passed probe verification and entered dispatch.
    pub verified_promotions: u64,
}

#[derive(Debug, Default)]
struct EngineCounters {
    compiler_invocations: AtomicU64,
    disk_hits: AtomicU64,
    build_attempts: AtomicU64,
    builds_ok: AtomicU64,
    builds_failed: AtomicU64,
    compile_timeouts: AtomicU64,
    quarantines: AtomicU64,
    wrong_results: AtomicU64,
    verified_promotions: AtomicU64,
}

impl EngineCounters {
    fn snapshot(&self) -> AotStats {
        AotStats {
            compiler_invocations: self.compiler_invocations.load(Ordering::SeqCst),
            disk_hits: self.disk_hits.load(Ordering::SeqCst),
            build_attempts: self.build_attempts.load(Ordering::SeqCst),
            builds_ok: self.builds_ok.load(Ordering::SeqCst),
            builds_failed: self.builds_failed.load(Ordering::SeqCst),
            compile_timeouts: self.compile_timeouts.load(Ordering::SeqCst),
            quarantines: self.quarantines.load(Ordering::SeqCst),
            wrong_results: self.wrong_results.load(Ordering::SeqCst),
            verified_promotions: self.verified_promotions.load(Ordering::SeqCst),
        }
    }
}

/// A prepared compilation request: emission, the toolchain probe, and
/// the cache key computed once. Callers (the kernel cache, benches) hold
/// on to it so the steady-state [`AotEngine::poll`] costs a map lookup,
/// not a re-emission.
#[derive(Debug, Clone)]
pub struct AotRequest {
    source: Arc<SuperwordKernel>,
    c_source: Arc<str>,
    isa: IsaKind,
    key: u64,
    tc: &'static Toolchain,
}

impl AotRequest {
    /// The artifact cache key (source × host × compiler version).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The ISA the C was emitted for.
    pub fn isa(&self) -> IsaKind {
        self.isa
    }

    /// The emitted C translation unit.
    pub fn c_source(&self) -> &str {
        &self.c_source
    }
}

/// Per-key build state: the negative cache, the backoff clock, and the
/// promotion slot, all behind one per-key mutex so a slow build of
/// kernel A never blocks kernel B.
#[derive(Debug)]
enum KeyState {
    /// Buildable (or failed retryably): eligible again once `retry_at`
    /// passes.
    Pending { attempts: u32, retry_at: Instant },
    /// A build — background or foreground — is in flight.
    Building { attempts: u32 },
    /// Verified and promoted.
    Ready(Arc<SimdKernel>),
    /// Terminally declined for this process: the attempt cap was reached
    /// or the kernel computed a wrong result. The key stays on simd.
    Rejected(AotError),
}

#[derive(Debug)]
struct KeySlot {
    state: Mutex<KeyState>,
    settled: Condvar,
}

impl KeySlot {
    fn fresh() -> Arc<KeySlot> {
        Arc::new(KeySlot {
            state: Mutex::new(KeyState::Pending { attempts: 0, retry_at: Instant::now() }),
            settled: Condvar::new(),
        })
    }
}

/// Records a finished attempt in the slot and wakes blocked waiters.
fn settle(slot: &KeySlot, prior_attempts: u32, outcome: Result<Arc<SimdKernel>>) -> Result<Arc<SimdKernel>> {
    let mut state = slot.state.lock().unwrap_or_else(|e| e.into_inner());
    let result = match outcome {
        Ok(kernel) => {
            *state = KeyState::Ready(Arc::clone(&kernel));
            Ok(kernel)
        }
        Err(e) => {
            let attempts = prior_attempts + 1;
            // A wrong result is terminal on the spot: rebuilding the same
            // source with the same compiler would reproduce it, and a
            // kernel that computes garbage must never race a retry.
            let terminal = matches!(e, AotError::WrongResult { .. }) || attempts >= MAX_BUILD_ATTEMPTS;
            *state = if terminal {
                KeyState::Rejected(e.clone())
            } else {
                KeyState::Pending {
                    attempts,
                    retry_at: Instant::now() + RETRY_BACKOFF_BASE * 2u32.saturating_pow(attempts.min(8)),
                }
            };
            Err(e)
        }
    };
    slot.settled.notify_all();
    result
}

/// One unit of background work: everything the builder thread needs,
/// owned, so scratch engines in tests share the one process-wide thread.
struct BuildJob {
    slot: Arc<KeySlot>,
    req: AotRequest,
    store: ArtifactStore,
    counters: Arc<EngineCounters>,
}

/// Hands a job to the process-wide builder thread (spawned lazily,
/// bounded queue). Returns the job when the queue is full so the caller
/// can revert the slot to `Pending`.
fn enqueue(job: BuildJob) -> std::result::Result<(), BuildJob> {
    static TX: OnceLock<SyncSender<BuildJob>> = OnceLock::new();
    let tx = TX.get_or_init(|| {
        let (tx, rx) = sync_channel::<BuildJob>(BUILD_QUEUE_DEPTH);
        std::thread::Builder::new()
            .name("exo-aot-builder".into())
            .spawn(move || {
                while let Ok(BuildJob { slot, req, store, counters }) = rx.recv() {
                    let attempts = match &*slot.state.lock().unwrap_or_else(|e| e.into_inner()) {
                        KeyState::Building { attempts } => *attempts,
                        _ => 0,
                    };
                    // Contain a panicking build so one bad job cannot
                    // take the builder thread (and every future
                    // promotion) down with it.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        build_and_verify(&store, &counters, &req)
                    }))
                    .unwrap_or_else(|_| Err(AotError::Unsupported { what: "a panicking build".into() }));
                    let _ = settle(&slot, attempts, outcome);
                }
            })
            .expect("spawning the exo-aot builder thread");
        tx
    });
    tx.try_send(job).map_err(|e| match e {
        TrySendError::Full(job) | TrySendError::Disconnected(job) => job,
    })
}

/// The ahead-of-time compilation engine.
///
/// One engine owns one artifact directory plus a per-key build-state
/// map, and counts everything observable about the pipeline — the
/// warm-start proof ("a second process performs zero compiler
/// invocations") is an assertion over [`AotEngine::stats`].
#[derive(Debug)]
pub struct AotEngine {
    store: ArtifactStore,
    slots: Mutex<HashMap<u64, Arc<KeySlot>>>,
    counters: Arc<EngineCounters>,
}

impl AotEngine {
    /// An engine over an explicit artifact directory (tests point this at
    /// a scratch dir; production uses [`engine()`]). Initialisation sweeps
    /// cache debris — stale scratch files from crashed processes and
    /// quarantine evidence past its retention — from the directory.
    pub fn with_dir(dir: PathBuf) -> AotEngine {
        let store = ArtifactStore::new(dir);
        store.sweep(SWEEP_TTL, MAX_QUARANTINE);
        AotEngine { store, slots: Mutex::new(HashMap::new()), counters: Arc::new(EngineCounters::default()) }
    }

    /// The engine's artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// A snapshot of every pipeline counter.
    pub fn stats(&self) -> AotStats {
        self.counters.snapshot()
    }

    /// Emits C for `source` on `isa`, probes the toolchain, and computes
    /// the cache key — the per-kernel work a caller does once and reuses
    /// for every [`Self::poll`].
    ///
    /// # Errors
    ///
    /// [`AotError::Unsupported`] when the emitter declines the tape,
    /// [`AotError::ToolchainMissing`] with no host compiler. Both are
    /// permanent for the process: callers cache the decline.
    pub fn prepare(&self, source: &Arc<SuperwordKernel>, isa: IsaKind) -> Result<AotRequest> {
        let c_source = emit_superword_c(source, isa, KERNEL_SYMBOL)?;
        let tc = toolchain().ok_or(AotError::ToolchainMissing)?;
        let key = artifact_key(&c_source, &tc.version);
        Ok(AotRequest { source: Arc::clone(source), c_source: c_source.into(), isa, key, tc })
    }

    fn slot(&self, key: u64) -> Arc<KeySlot> {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(slots.entry(key).or_insert_with(KeySlot::fresh))
    }

    /// The non-blocking serving path: the promoted kernel if the key has
    /// one, else `None` *right now* — after kicking a background build
    /// if the key is buildable (first poll, or a retryable failure whose
    /// backoff has elapsed). Rejected keys and in-flight builds cost one
    /// map lookup and return immediately: no GEMM ever waits on `cc`.
    pub fn poll(&self, req: &AotRequest) -> Option<Arc<SimdKernel>> {
        let slot = self.slot(req.key);
        let mut state = slot.state.lock().unwrap_or_else(|e| e.into_inner());
        match &*state {
            KeyState::Ready(k) => Some(Arc::clone(k)),
            KeyState::Building { .. } | KeyState::Rejected(_) => None,
            KeyState::Pending { attempts, retry_at } => {
                let attempts = *attempts;
                if Instant::now() < *retry_at {
                    return None;
                }
                *state = KeyState::Building { attempts };
                drop(state);
                let job = BuildJob {
                    slot: Arc::clone(&slot),
                    req: req.clone(),
                    store: self.store.clone(),
                    counters: Arc::clone(&self.counters),
                };
                if let Err(job) = enqueue(job) {
                    // Queue full: hand the slot back unchanged; a later
                    // poll re-enqueues.
                    let mut state = job.slot.state.lock().unwrap_or_else(|e| e.into_inner());
                    *state = KeyState::Pending { attempts, retry_at: Instant::now() };
                }
                None
            }
        }
    }

    /// The blocking path: drives the key to a settled state — the
    /// promoted kernel or the decline that stopped it — building in the
    /// foreground if nobody else is. Ignores the retry backoff (that
    /// paces the serving path) but honours the attempt cap and terminal
    /// pins. For tests, benches, and offline warm-up; serving uses
    /// [`Self::poll`].
    ///
    /// # Errors
    ///
    /// Any [`AotError`]: compile/load/verify failures, the timeout, the
    /// fault hook, or the cached terminal decline. All mean "stay on
    /// simd".
    pub fn wait(&self, req: &AotRequest) -> Result<Arc<SimdKernel>> {
        enum Next {
            Build(u32),
            WaitForBuilder,
        }
        let slot = self.slot(req.key);
        loop {
            let mut state = slot.state.lock().unwrap_or_else(|e| e.into_inner());
            let next = match &*state {
                KeyState::Ready(k) => return Ok(Arc::clone(k)),
                KeyState::Rejected(e) => return Err(e.clone()),
                KeyState::Building { .. } => Next::WaitForBuilder,
                KeyState::Pending { attempts, .. } => Next::Build(*attempts),
            };
            match next {
                Next::WaitForBuilder => {
                    // A background (or sibling) build is in flight: wait
                    // for it to settle and re-examine. The timeout only
                    // guards against a missed wake-up; builds themselves
                    // are bounded by the compile deadline.
                    let _unused = slot
                        .settled
                        .wait_timeout(state, Duration::from_millis(100))
                        .unwrap_or_else(|e| e.into_inner());
                }
                Next::Build(attempts) => {
                    *state = KeyState::Building { attempts };
                    drop(state);
                    let outcome = build_and_verify(&self.store, &self.counters, req);
                    return settle(&slot, attempts, outcome);
                }
            }
        }
    }

    /// Prepares and blocks: the one-call path for tests and callers that
    /// want the kernel now or the reason they cannot have it.
    ///
    /// # Errors
    ///
    /// As [`Self::prepare`] and [`Self::wait`].
    pub fn compile(&self, source: &Arc<SuperwordKernel>, isa: IsaKind) -> Result<Arc<SimdKernel>> {
        self.wait(&self.prepare(source, isa)?)
    }
}

/// One build attempt, end to end: fault hook → manifest-checked disk
/// load → compile under deadline → seal (hash + sidecar + rename) →
/// `dlopen` → probe verification. Free function so the background
/// builder and the blocking path share it exactly.
fn build_and_verify(
    store: &ArtifactStore,
    counters: &EngineCounters,
    req: &AotRequest,
) -> Result<Arc<SimdKernel>> {
    counters.build_attempts.fetch_add(1, Ordering::SeqCst);
    let outcome = (|| {
        if COMPILE_FAIL_IN.fires() {
            return Err(AotError::FaultInjected);
        }
        let artifact = store.artifact_path(req.key);
        let lib = match try_disk(store, counters, req, &artifact) {
            Some(lib) => lib,
            None => build(store, counters, req, &artifact)?,
        };
        let kernel = match kernel::load(Arc::clone(&req.source), req.isa, Arc::new(lib)) {
            Ok(kernel) => kernel,
            Err(e) => {
                // Loadable but not our kernel (the symbol is missing):
                // quarantine the evidence, free the slot.
                counters.quarantines.fetch_add(1, Ordering::SeqCst);
                store.quarantine(&artifact);
                let _ = std::fs::remove_file(store.manifest_path(req.key));
                return Err(e);
            }
        };
        verify(store, counters, req, &artifact, &kernel)?;
        counters.verified_promotions.fetch_add(1, Ordering::SeqCst);
        Ok(Arc::new(kernel))
    })();
    match &outcome {
        Ok(_) => counters.builds_ok.fetch_add(1, Ordering::SeqCst),
        Err(_) => counters.builds_failed.fetch_add(1, Ordering::SeqCst),
    };
    outcome
}

/// Tries the on-disk artifact. The manifest sidecar is verified *before*
/// `dlopen`: a missing, unparseable, or mismatching sidecar (truncation,
/// tampering, foreign arch, stale toolchain, or a pre-manifest cache
/// entry) quarantines the artifact without ever handing it to the
/// loader.
fn try_disk(
    store: &ArtifactStore,
    counters: &EngineCounters,
    req: &AotRequest,
    artifact: &Path,
) -> Option<Dylib> {
    if !artifact.is_file() {
        return None;
    }
    if manifest::verify_file(store, req.key, artifact, &req.tc.version, req.isa).is_err() {
        counters.quarantines.fetch_add(1, Ordering::SeqCst);
        store.quarantine(artifact);
        let _ = std::fs::remove_file(store.manifest_path(req.key));
        return None;
    }
    match Dylib::open(artifact) {
        Ok(lib) => {
            counters.disk_hits.fetch_add(1, Ordering::SeqCst);
            Some(lib)
        }
        Err(_) => {
            counters.quarantines.fetch_add(1, Ordering::SeqCst);
            store.quarantine(artifact);
            let _ = std::fs::remove_file(store.manifest_path(req.key));
            None
        }
    }
}

/// Invokes the C compiler under the kill-on-deadline wrapper and seals
/// the result: hash the exact bytes, write the manifest sidecar, then
/// publish the artifact — in that order, so a reader only ever accepts a
/// dylib whose sidecar landed first.
fn build(
    store: &ArtifactStore,
    counters: &EngineCounters,
    req: &AotRequest,
    artifact: &Path,
) -> Result<Dylib> {
    store.ensure_dir()?;
    let src = store.source_path(req.key);
    store.write_atomic(&src, req.c_source.as_bytes())?;

    let tmp = store.scratch_path(artifact, "cc");
    let (mut cmd, deadline) = if HANG_IN.fires() {
        // The `aot-hang` fault: a compiler that never answers. A sleeping
        // child stands in for `cc`, under a short deadline so the chaos
        // suite proves the kill path without waiting out the real one.
        let mut cmd = Command::new("sleep");
        cmd.arg("600");
        (cmd, HANG_FAULT_DEADLINE)
    } else {
        let mut cmd = Command::new(&req.tc.cc);
        cmd.args(["-O3", "-shared", "-fPIC", "-ffp-contract=off"]).args(req.isa.cc_flags());
        // `-lm` after the source: the scalar floor's lanes call `fmaf`.
        cmd.arg(&src).arg("-lm").arg("-o").arg(&tmp);
        (cmd, COMPILE_DEADLINE)
    };
    counters.compiler_invocations.fetch_add(1, Ordering::SeqCst);
    let (status, stderr) = match run_with_deadline(&mut cmd, deadline, store, artifact) {
        Ok(finished) => finished,
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            if matches!(e, AotError::CompileTimeout { .. }) {
                counters.compile_timeouts.fetch_add(1, Ordering::SeqCst);
            }
            return Err(e);
        }
    };
    if !status.success() {
        let _ = std::fs::remove_file(&tmp);
        let mut stderr = stderr;
        stderr.truncate(2000);
        return Err(AotError::CompileFailed { compiler: req.tc.cc.clone(), stderr });
    }
    if BAD_ARTIFACT_IN.fires() {
        // The `aot-bad-artifact` fault: a build that "succeeds" but
        // leaves garbage (a torn disk, an OOM-killed assembler). Written
        // before the hash so the manifest seals the garbage — only the
        // loader, and then the quarantine path, can catch it.
        let _ = std::fs::write(&tmp, b"injected fault: not an object file (aot-bad-artifact)");
    }
    let bytes = std::fs::read(&tmp).map_err(|e| io_err(format!("reading {}", tmp.display()), e))?;
    manifest::write(store, req.key, &Manifest::for_bytes(&bytes, &req.tc.version, req.isa, req.key))?;
    std::fs::rename(&tmp, artifact).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io_err(format!("renaming into {}", artifact.display()), e)
    })?;
    match Dylib::open(artifact) {
        Ok(lib) => Ok(lib),
        Err(e) => {
            // Freshly built yet unloadable: keep the evidence, free the
            // slot for the retry.
            counters.quarantines.fetch_add(1, Ordering::SeqCst);
            store.quarantine(artifact);
            let _ = std::fs::remove_file(store.manifest_path(req.key));
            Err(e)
        }
    }
}

/// Runs a child process with its stderr captured to a scratch file,
/// killing and reaping it if it outlives `deadline`.
fn run_with_deadline(
    cmd: &mut Command,
    deadline: Duration,
    store: &ArtifactStore,
    artifact: &Path,
) -> Result<(std::process::ExitStatus, String)> {
    let program = cmd.get_program().to_string_lossy().into_owned();
    // Stderr goes to a scratch file, not a pipe: nobody drains a pipe
    // while we poll, and a chatty compiler must not deadlock on a full
    // one.
    let stderr_path = store.scratch_path(artifact, "stderr");
    let stderr_file = std::fs::File::create(&stderr_path)
        .map_err(|e| io_err(format!("creating {}", stderr_path.display()), e))?;
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::from(stderr_file));
    let mut child = cmd.spawn().map_err(|e| {
        let _ = std::fs::remove_file(&stderr_path);
        io_err(format!("running `{program}`"), e)
    })?;
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if start.elapsed() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = std::fs::remove_file(&stderr_path);
                    return Err(AotError::CompileTimeout {
                        compiler: program,
                        ms: deadline.as_millis() as u64,
                    });
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&stderr_path);
                return Err(io_err(format!("waiting for `{program}`"), e));
            }
        }
    };
    let stderr = std::fs::read_to_string(&stderr_path).unwrap_or_default();
    let _ = std::fs::remove_file(&stderr_path);
    Ok((status, stderr))
}

/// Verified promotion: before a freshly built *or* disk-loaded kernel
/// enters dispatch, run it on deterministic seeded probe problems (one
/// per [`PROBE_KCS`] entry) and compare against the source tape's checked
/// reference — a reference that trusts no proof — bit for bit: every
/// tier computes the same fused arithmetic, so one differing bit is a
/// wrong result. A mismatch quarantines the artifact to
/// `<path>.wrong-result` and the caller pins the key to simd terminally.
fn verify(
    store: &ArtifactStore,
    counters: &EngineCounters,
    req: &AotRequest,
    artifact: &Path,
    kernel: &SimdKernel,
) -> Result<()> {
    let sw = &req.source;
    // Deterministic seeded operands (xorshift64*), identical in every
    // process that ever verifies this key.
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ req.key;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 40) & 0xffff) as f32 / 32768.0 - 1.0
    };
    let mut mismatch = false;
    for kc in PROBE_KCS {
        let (ac_len, bc_len, c_len) = sw
            .packed_probe_lens(kc)
            .ok_or_else(|| AotError::Unsupported { what: "a kernel with no derivable probe shape".into() })?;
        if !sw.packed_bounds_provable(kc, ac_len, bc_len, c_len) {
            // A declined proof would route the call below to the checked
            // reference, and the probe would compare the reference with
            // itself; a kernel that cannot be probed is not promoted.
            return Err(AotError::Unsupported { what: "a kernel whose probe shape is not provable".into() });
        }
        let ac: Vec<f32> = (0..ac_len).map(|_| next()).collect();
        let bc: Vec<f32> = (0..bc_len).map(|_| next()).collect();
        let mut c_native: Vec<f32> = (0..c_len).map(|_| next()).collect();
        let mut c_ref = c_native.clone();
        // Admitted by the proof just checked, so this runs the loaded code.
        kernel.run_packed(kc, &ac, &bc, &mut c_native)?;
        let views = &mut [TensorView::Ro(&ac), TensorView::Ro(&bc), TensorView::Rw(&mut c_ref)];
        sw.run_checked(&[kc as i64], views).map_err(|e| AotError::Unsupported {
            what: format!("a probe the checked reference declines ({e})"),
        })?;
        mismatch |= c_native.iter().zip(&c_ref).any(|(n, r)| n.to_bits() != r.to_bits());
    }
    let forced = WRONG_RESULT_IN.fires();
    if forced || mismatch {
        counters.wrong_results.fetch_add(1, Ordering::SeqCst);
        counters.quarantines.fetch_add(1, Ordering::SeqCst);
        let quarantined = store.quarantine_as(artifact, "wrong-result");
        let _ = std::fs::remove_file(store.manifest_path(req.key));
        return Err(AotError::WrongResult { path: quarantined.display().to_string() });
    }
    Ok(())
}

/// The process-wide engine over the default artifact directory
/// (`EXO_AOT_DIR`, else `$HOME/.cache/exo-aot`, else the system temp
/// dir). Everything above this crate — kernel caches, the GEMM runner,
/// exo-serve — compiles through this instance, sharing its build state
/// and counters.
pub fn engine() -> &'static AotEngine {
    static CELL: OnceLock<AotEngine> = OnceLock::new();
    CELL.get_or_init(|| AotEngine::with_dir(default_artifact_dir().to_path_buf()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarming_resets_the_global_countdown() {
        arm_compile_fail(1);
        arm_compile_fail(0);
        assert!(!COMPILE_FAIL_IN.fires());
    }

    #[test]
    fn a_deadlined_child_is_killed_and_reported_as_a_timeout() {
        let store =
            ArtifactStore::new(std::env::temp_dir().join(format!("exo-aot-deadline-{}", std::process::id())));
        store.ensure_dir().unwrap();
        let artifact = store.artifact_path(1);
        let mut cmd = Command::new("sleep");
        cmd.arg("600");
        let start = Instant::now();
        let err = run_with_deadline(&mut cmd, Duration::from_millis(50), &store, &artifact)
            .expect_err("the sleeping child must be killed");
        assert!(matches!(err, AotError::CompileTimeout { ms: 50, .. }), "got {err}");
        assert!(start.elapsed() < Duration::from_secs(30), "the kill must not wait for the child");
        // The scratch stderr file is cleaned up on the timeout path.
        assert_eq!(std::fs::read_dir(store.dir()).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_finished_child_reports_status_and_stderr() {
        let store =
            ArtifactStore::new(std::env::temp_dir().join(format!("exo-aot-finished-{}", std::process::id())));
        store.ensure_dir().unwrap();
        let artifact = store.artifact_path(2);
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo oops >&2; exit 3"]);
        let (status, stderr) =
            run_with_deadline(&mut cmd, Duration::from_secs(30), &store, &artifact).unwrap();
        assert_eq!(status.code(), Some(3));
        assert_eq!(stderr.trim(), "oops");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn backoff_grows_exponentially_and_the_cap_is_terminal() {
        let slot = KeySlot::fresh();
        let e = AotError::FaultInjected;
        assert!(settle(&slot, 0, Err(e.clone())).is_err());
        match &*slot.state.lock().unwrap() {
            KeyState::Pending { attempts: 1, retry_at, .. } => {
                assert!(*retry_at > Instant::now(), "a failed attempt backs off");
            }
            other => panic!("expected Pending after one failure, got {other:?}"),
        }
        assert!(settle(&slot, 1, Err(e.clone())).is_err());
        assert!(settle(&slot, 2, Err(e.clone())).is_err());
        assert!(
            matches!(&*slot.state.lock().unwrap(), KeyState::Rejected(_)),
            "attempt {MAX_BUILD_ATTEMPTS} is terminal"
        );
    }

    #[test]
    fn a_wrong_result_is_terminal_on_the_first_attempt() {
        let slot = KeySlot::fresh();
        let e = AotError::WrongResult { path: "x".into() };
        assert!(settle(&slot, 0, Err(e)).is_err());
        assert!(matches!(&*slot.state.lock().unwrap(), KeyState::Rejected(AotError::WrongResult { .. })));
    }
}
