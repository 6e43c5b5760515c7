//! The compilation engine: emission → toolchain → a private build
//! directory → verified, loaded kernel — asynchronous by default, with
//! per-key build state, probe-verified promotion, a kill-on-deadline
//! compiler wrapper, and a capped negative cache.
//!
//! The native tier is *eventually fast, immediately safe*. A kernel's
//! first [`AotEngine::poll`] answers `None` (the caller serves on the
//! simd tier) while a bounded background builder compiles the artifact;
//! once the build lands **and** the loaded code reproduces the checked
//! tape bit for bit on deterministic seeded probe problems, the key atomically
//! promotes and later polls return the native kernel. No GEMM ever waits
//! on `cc`.
//!
//! Every build runs in a directory of its own, created fresh (mode 0700)
//! under a name never reused in the process, and removed with everything in it when
//! the attempt ends, whatever its outcome: the process only ever
//! `dlopen`s an object its own compiler invocation just wrote, and a
//! loaded object outlives its file. Nothing persists across processes.
//!
//! Every failure is a typed decline. Retryable failures (a compiler
//! crash, a timeout, a full disk) back off exponentially and stop for
//! good after [`MAX_BUILD_ATTEMPTS`] attempts — a persistently failing
//! key invokes the compiler a bounded number of times per process, not
//! once per call. A kernel that *runs* but computes a wrong answer on
//! the probe pins its key to the simd tier immediately and terminally.

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
/// [`AotError::FaultInjected`] before touching the disk or the
/// toolchain. Armed by exo-serve's fault harness.
static COMPILE_FAIL_IN: Countdown = Countdown::new();

/// Fault-injection countdown for the `aot-hang` class: the Nth compiler
/// invocation is replaced by a child that sleeps forever, so the
/// kill-on-deadline wrapper must reap it and report
/// [`AotError::CompileTimeout`].
static HANG_IN: Countdown = Countdown::new();

/// Fault-injection countdown for the `aot-bad-artifact` class: the Nth
/// successful compile has its artifact bytes replaced with garbage
/// before `dlopen`, which declines them: the attempt fails retryably.
static BAD_ARTIFACT_IN: Countdown = Countdown::new();

/// Fault-injection countdown for the `aot-wrong-result` class: the Nth
/// verification probe reports a mismatch, driving the terminal simd pin.
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
/// from now produces an artifact the loader declines. `0` disarms.
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
    /// Build attempts entered (one per `build_and_verify` run).
    pub build_attempts: u64,
    /// Attempts that ended in a verified promotion.
    pub builds_ok: u64,
    /// Attempts that ended in any decline.
    pub builds_failed: u64,
    /// Compiler invocations killed on deadline.
    pub compile_timeouts: u64,
    /// Kernels that ran but failed probe verification.
    pub wrong_results: u64,
    /// Kernels that passed probe verification and entered dispatch.
    pub verified_promotions: u64,
}

#[derive(Debug, Default)]
struct EngineCounters {
    compiler_invocations: AtomicU64,
    build_attempts: AtomicU64,
    builds_ok: AtomicU64,
    builds_failed: AtomicU64,
    compile_timeouts: AtomicU64,
    wrong_results: AtomicU64,
    verified_promotions: AtomicU64,
}

impl EngineCounters {
    fn snapshot(&self) -> AotStats {
        AotStats {
            compiler_invocations: self.compiler_invocations.load(Ordering::SeqCst),
            build_attempts: self.build_attempts.load(Ordering::SeqCst),
            builds_ok: self.builds_ok.load(Ordering::SeqCst),
            builds_failed: self.builds_failed.load(Ordering::SeqCst),
            compile_timeouts: self.compile_timeouts.load(Ordering::SeqCst),
            wrong_results: self.wrong_results.load(Ordering::SeqCst),
            verified_promotions: self.verified_promotions.load(Ordering::SeqCst),
        }
    }
}

/// A prepared compilation request: emission and the key computed once.
/// Callers (the kernel cache, benches) hold on to it so the steady-state
/// [`AotEngine::poll`] costs a map lookup, not a re-emission.
#[derive(Debug, Clone)]
pub struct AotRequest {
    source: Arc<SuperwordKernel>,
    c_source: Arc<str>,
    isa: IsaKind,
    key: u64,
}

impl AotRequest {
    /// The request's key: the [`content_hash`] of its emitted C, which
    /// names the kernel in the engine's per-key state and seeds its
    /// verification probe.
    pub fn key(&self) -> u64 {
        self.key
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
            let terminal = matches!(e, AotError::WrongResult) || attempts >= MAX_BUILD_ATTEMPTS;
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

/// What an engine builds with and where, plus its counters: shared with
/// every background job the engine hands out.
#[derive(Debug)]
struct Site {
    root: PathBuf,
    toolchain: Option<Toolchain>,
    counters: EngineCounters,
}

/// One unit of background work: everything the builder thread needs,
/// owned, so scratch engines in tests share the one process-wide thread.
struct BuildJob {
    slot: Arc<KeySlot>,
    req: AotRequest,
    site: Arc<Site>,
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
                while let Ok(BuildJob { slot, req, site }) = rx.recv() {
                    let attempts = match &*slot.state.lock().unwrap_or_else(|e| e.into_inner()) {
                        KeyState::Building { attempts } => *attempts,
                        _ => 0,
                    };
                    // Contain a panicking build so one bad job cannot
                    // take the builder thread (and every future
                    // promotion) down with it.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        build_and_verify(&site, &req)
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
/// One engine owns a toolchain, the directory its builds happen under,
/// and a per-key build-state map, and counts everything observable about
/// the pipeline in [`AotEngine::stats`].
#[derive(Debug)]
pub struct AotEngine {
    site: Arc<Site>,
    slots: Mutex<HashMap<u64, Arc<KeySlot>>>,
}

impl AotEngine {
    /// An engine that builds with `toolchain` (`None`: every request
    /// declines with [`AotError::ToolchainMissing`]) in private
    /// directories under `dir`, which is created on the first build if it
    /// does not exist. Production uses [`engine()`]; tests point this at a
    /// scratch directory and, to plant a miscompiling compiler, at a
    /// toolchain of their own.
    pub fn with_dir(dir: PathBuf, toolchain: Option<Toolchain>) -> AotEngine {
        AotEngine {
            site: Arc::new(Site { root: dir, toolchain, counters: EngineCounters::default() }),
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// A snapshot of every pipeline counter.
    pub fn stats(&self) -> AotStats {
        self.site.counters.snapshot()
    }

    /// Emits C for `source` on `isa` and computes its key — the
    /// per-kernel work a caller does once and reuses for every
    /// [`Self::poll`].
    ///
    /// # Errors
    ///
    /// [`AotError::Unsupported`] when the emitter declines the tape,
    /// [`AotError::ToolchainMissing`] with no compiler. Both are
    /// permanent for the process: callers cache the decline.
    pub fn prepare(&self, source: &Arc<SuperwordKernel>, isa: IsaKind) -> Result<AotRequest> {
        let c_source = emit_superword_c(source, isa, KERNEL_SYMBOL)?;
        if self.site.toolchain.is_none() {
            return Err(AotError::ToolchainMissing);
        }
        let key = content_hash(c_source.as_bytes());
        Ok(AotRequest { source: Arc::clone(source), c_source: c_source.into(), isa, key })
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
                let job =
                    BuildJob { slot: Arc::clone(&slot), req: req.clone(), site: Arc::clone(&self.site) };
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
                    let outcome = build_and_verify(&self.site, req);
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

/// One build attempt, end to end: fault hook → a fresh build directory →
/// compile under deadline → `dlopen` → probe verification, with the
/// directory removed on every outcome. Free function so the background
/// builder and the blocking path share it exactly.
fn build_and_verify(site: &Site, req: &AotRequest) -> Result<Arc<SimdKernel>> {
    let counters = &site.counters;
    counters.build_attempts.fetch_add(1, Ordering::SeqCst);
    let outcome = (|| {
        if COMPILE_FAIL_IN.fires() {
            return Err(AotError::FaultInjected);
        }
        let toolchain = site.toolchain.as_ref().ok_or(AotError::ToolchainMissing)?;
        let dir = BuildDir::create(&site.root)?;
        let lib = build(toolchain, counters, req, &dir.0)?;
        let kernel = kernel::load(Arc::clone(&req.source), req.isa, Arc::new(lib))?;
        verify(counters, req, &kernel)?;
        counters.verified_promotions.fetch_add(1, Ordering::SeqCst);
        Ok(Arc::new(kernel))
    })();
    match &outcome {
        Ok(_) => counters.builds_ok.fetch_add(1, Ordering::SeqCst),
        Err(_) => counters.builds_failed.fetch_add(1, Ordering::SeqCst),
    };
    outcome
}

/// One build's private directory under the engine's root: created fresh
/// with mode 0700, named by the process id and a process-wide sequence
/// number, and removed with everything in it on drop. A name is never
/// reused within the process: the loader hands back the object it
/// already mapped for a path name it has opened before, so a reused name
/// could serve another build's code.
struct BuildDir(PathBuf);

/// The build directories not yet dropped, or `None` once the process has
/// begun to exit. A process that exits while its background builder is
/// mid-build never runs that build's drop, so an exit hook removes
/// whatever is listed here, and no build directory is created after it.
static IN_FLIGHT: Mutex<Option<Vec<PathBuf>>> = Mutex::new(Some(Vec::new()));

impl BuildDir {
    fn create(root: &Path) -> Result<BuildDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        remove_in_flight_at_exit();
        std::fs::create_dir_all(root).map_err(|e| io_err(format!("creating {}", root.display()), e))?;
        let seq = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("exo-aot-{}-{seq}", std::process::id()));
        let mut builder = std::fs::DirBuilder::new();
        #[cfg(unix)]
        std::os::unix::fs::DirBuilderExt::mode(&mut builder, 0o700);
        let mut in_flight = IN_FLIGHT.lock().unwrap_or_else(|e| e.into_inner());
        let Some(in_flight) = in_flight.as_mut() else {
            return Err(AotError::Io {
                context: format!("creating {}", path.display()),
                reason: "the process is exiting".into(),
            });
        };
        builder.create(&path).map_err(|e| io_err(format!("creating {}", path.display()), e))?;
        in_flight.push(path.clone());
        Ok(BuildDir(path))
    }
}

impl Drop for BuildDir {
    fn drop(&mut self) {
        let mut in_flight = IN_FLIGHT.lock().unwrap_or_else(|e| e.into_inner());
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(in_flight) = in_flight.as_mut() {
            in_flight.retain(|dir| *dir != self.0);
        }
    }
}

/// Registers, once per process, the exit hook that removes every build
/// directory still in flight.
fn remove_in_flight_at_exit() {
    #[cfg(unix)]
    {
        extern "C" fn remove_in_flight() {
            let in_flight = IN_FLIGHT.lock().unwrap_or_else(|e| e.into_inner()).take();
            for dir in in_flight.unwrap_or_default() {
                // Renamed first: the builder may still be writing into it
                // by path, and a file it creates while the directory is
                // being emptied would keep the directory alive.
                let gone = dir.with_extension("exit");
                let _ =
                    std::fs::remove_dir_all(if std::fs::rename(&dir, &gone).is_ok() { gone } else { dir });
            }
        }
        extern "C" {
            fn atexit(hook: extern "C" fn()) -> std::os::raw::c_int;
        }
        static HOOK: std::sync::Once = std::sync::Once::new();
        // SAFETY: `atexit` takes a plain function of no arguments, which
        // the C runtime calls once at exit; the hook touches nothing but
        // its own static and the filesystem, and never unwinds.
        HOOK.call_once(|| unsafe {
            atexit(remove_in_flight);
        });
    }
}

/// Writes the C source into `dir` and invokes the compiler on it under
/// the kill-on-deadline wrapper, then `dlopen`s what it wrote.
fn build(toolchain: &Toolchain, counters: &EngineCounters, req: &AotRequest, dir: &Path) -> Result<Dylib> {
    let src = dir.join("kernel.c");
    std::fs::write(&src, req.c_source.as_bytes())
        .map_err(|e| io_err(format!("writing {}", src.display()), e))?;
    let artifact = dir.join(format!("kernel.{}", std::env::consts::DLL_EXTENSION));
    let (mut cmd, deadline) = if HANG_IN.fires() {
        // The `aot-hang` fault: a compiler that never answers. A sleeping
        // child stands in for `cc`, under a short deadline so the chaos
        // suite proves the kill path without waiting out the real one.
        let mut cmd = Command::new("sleep");
        cmd.arg("600");
        (cmd, HANG_FAULT_DEADLINE)
    } else {
        let mut cmd = Command::new(&toolchain.cc);
        cmd.args(["-O3", "-shared", "-fPIC", "-ffp-contract=off"]).args(req.isa.cc_flags());
        // `-lm` after the source: the scalar floor's lanes call `fmaf`.
        cmd.arg(&src).arg("-lm").arg("-o").arg(&artifact);
        (cmd, COMPILE_DEADLINE)
    };
    counters.compiler_invocations.fetch_add(1, Ordering::SeqCst);
    let (status, mut stderr) =
        run_with_deadline(&mut cmd, deadline, &dir.join("cc.stderr")).inspect_err(|e| {
            if matches!(e, AotError::CompileTimeout { .. }) {
                counters.compile_timeouts.fetch_add(1, Ordering::SeqCst);
            }
        })?;
    if !status.success() {
        let mut end = stderr.len().min(2000);
        while !stderr.is_char_boundary(end) {
            end -= 1;
        }
        stderr.truncate(end);
        return Err(AotError::CompileFailed { compiler: toolchain.cc.clone(), stderr });
    }
    if BAD_ARTIFACT_IN.fires() {
        // The `aot-bad-artifact` fault: a build that "succeeds" but
        // leaves garbage (a torn disk, an OOM-killed assembler); only the
        // loader can catch it.
        let _ = std::fs::write(&artifact, b"injected fault: not an object file (aot-bad-artifact)");
    }
    Dylib::open(&artifact)
}

/// Runs a child process with its stderr captured to `stderr_path`,
/// killing and reaping it if it outlives `deadline`.
fn run_with_deadline(
    cmd: &mut Command,
    deadline: Duration,
    stderr_path: &Path,
) -> Result<(std::process::ExitStatus, String)> {
    let program = cmd.get_program().to_string_lossy().into_owned();
    // Stderr goes to a file, not a pipe: nobody drains a pipe while we
    // poll, and a chatty compiler must not deadlock on a full one.
    let stderr_file = std::fs::File::create(stderr_path)
        .map_err(|e| io_err(format!("creating {}", stderr_path.display()), e))?;
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::from(stderr_file));
    let mut child = cmd.spawn().map_err(|e| io_err(format!("running `{program}`"), e))?;
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if start.elapsed() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
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
                return Err(io_err(format!("waiting for `{program}`"), e));
            }
        }
    };
    Ok((status, std::fs::read_to_string(stderr_path).unwrap_or_default()))
}

/// Verified promotion: before a freshly built kernel enters dispatch, run it on deterministic seeded probe problems (one
/// per [`PROBE_KCS`] entry) and compare against the source tape's checked
/// reference — a reference that trusts no proof — bit for bit: every
/// tier computes the same fused arithmetic, so one differing bit is a
/// wrong result, and the caller pins the key to simd terminally.
fn verify(counters: &EngineCounters, req: &AotRequest, kernel: &SimdKernel) -> Result<()> {
    let sw = &req.source;
    // Deterministic seeded operands (xorshift64*), identical on every
    // verification of this key.
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
        return Err(AotError::WrongResult);
    }
    Ok(())
}

/// FNV-1a 64 over one byte string: the workspace's dependency-free
/// content hash, and the key of an [`AotRequest`] over its emitted C.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    // The trailing 0xff is part of the recorded hashes' definition.
    for &b in bytes.iter().chain(&[0xff]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The process-wide engine: the probed [`toolchain()`], building under
/// `EXO_AOT_DIR`, else the system temp directory. Everything above this
/// crate — kernel caches, the GEMM runner, exo-serve — compiles through
/// this instance, sharing its build state and counters.
pub fn engine() -> &'static AotEngine {
    static CELL: OnceLock<AotEngine> = OnceLock::new();
    static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
    CELL.get_or_init(|| {
        let dir = exo_codegen::env_once(&DIR, "EXO_AOT_DIR", |v| {
            let v = v.trim();
            if v.is_empty() {
                Err(format!("`{v}` is not a directory path"))
            } else {
                Ok(PathBuf::from(v))
            }
        });
        AotEngine::with_dir(dir.unwrap_or_else(std::env::temp_dir), toolchain().cloned())
    })
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

    #[cfg(unix)]
    #[test]
    fn build_directories_are_private_fresh_and_removed_on_drop() {
        use std::os::unix::fs::PermissionsExt;
        let root = std::env::temp_dir().join(format!("exo-aot-builddirs-{}", std::process::id()));
        let (a, b) = (BuildDir::create(&root).unwrap(), BuildDir::create(&root).unwrap());
        assert_ne!(a.0, b.0, "two builds never share a name");
        for dir in [&a.0, &b.0] {
            assert_eq!(dir.parent(), Some(root.as_path()));
            let mode = std::fs::metadata(dir).unwrap().permissions().mode();
            assert_eq!(mode & 0o777, 0o700, "{}", dir.display());
        }
        std::fs::write(a.0.join("kernel.c"), "int x;").unwrap();
        drop((a, b));
        assert_eq!(
            std::fs::read_dir(&root).unwrap().count(),
            0,
            "dropping a build directory removes it and its files"
        );
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn a_deadlined_child_is_killed_and_reported_as_a_timeout() {
        let root = std::env::temp_dir().join(format!("exo-aot-deadline-{}", std::process::id()));
        let dir = BuildDir::create(&root).unwrap();
        let mut cmd = Command::new("sleep");
        cmd.arg("600");
        let start = Instant::now();
        let err = run_with_deadline(&mut cmd, Duration::from_millis(50), &dir.0.join("cc.stderr"))
            .expect_err("the sleeping child must be killed");
        assert!(matches!(err, AotError::CompileTimeout { ms: 50, .. }), "got {err}");
        assert!(start.elapsed() < Duration::from_secs(30), "the kill must not wait for the child");
        // The build directory takes the stderr file with it.
        drop(dir);
        assert_eq!(std::fs::read_dir(&root).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn a_finished_child_reports_status_and_stderr() {
        let root = std::env::temp_dir().join(format!("exo-aot-finished-{}", std::process::id()));
        let dir = BuildDir::create(&root).unwrap();
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo oops >&2; exit 3"]);
        let (status, stderr) =
            run_with_deadline(&mut cmd, Duration::from_secs(30), &dir.0.join("cc.stderr")).unwrap();
        assert_eq!(status.code(), Some(3));
        assert_eq!(stderr.trim(), "oops");
        let _ = std::fs::remove_dir_all(root);
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
        assert!(settle(&slot, 0, Err(AotError::WrongResult)).is_err());
        assert!(matches!(&*slot.state.lock().unwrap(), KeyState::Rejected(AotError::WrongResult)));
    }
}
