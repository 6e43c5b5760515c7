//! Deterministic fault injection for the serving stack: compiled always,
//! inert unless armed, one atomic load per hook on the happy path.
//!
//! A [`FaultPlan`] names *which* fault fires and *when* (the Nth event of
//! its class, counted process-wide from arming), so a stress run is exactly
//! reproducible: same plan, same submission order, same failure. Plans are
//! armed programmatically ([`FaultPlan::arm`]) or through the `EXO_FAULT`
//! environment variable (see [`arm_from_env`]), which is how CI drives the
//! stress suite.
//!
//! Fault classes:
//!
//! | spec             | fires                                            |
//! |------------------|--------------------------------------------------|
//! | `pool-panic@N`   | the Nth job of the shared pool panics            |
//! | `worker-death@N` | the worker finishing the Nth pool task dies      |
//! | `entry-panic@N`  | the Nth batch entry panics mid-execution         |
//! | `slow@N=MS`      | the Nth batch entry sleeps `MS` ms first         |
//! | `decline@N`      | the Nth batch entry reports a kernel decline     |
//! | `collector-panic@N` | the thread draining a service's queue panics |
//! |                  | before its Nth pass (the name is older than the  |
//! |                  | design: no service owns a collector thread)      |
//! | `aot-wrong-result@N` | the Nth promotion probe reports a mismatch   |
//! |                  | (the key is pinned to simd)                      |
//!
//! The pool-level classes are implemented by hooks inside
//! `gemm_blis::pool`, and the aot class by a hook inside
//! `exo_aot::engine` (the dependency arrows point down, so those crates
//! cannot call into this one); the entry and collector classes live here
//! and are called from the batch executor and from the submitter draining
//! a service's queue. Counters are process-global: arm one plan at a time
//! and [`disarm`] between experiments (the stress suite serialises its
//! tests for this reason).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use gemm_blis::pool::ThreadPool;
use gemm_blis::Countdown;

/// Countdown until an injected panic inside the Nth batch entry.
static ENTRY_PANIC_IN: Countdown = Countdown::new();
/// Countdown until the Nth batch entry runs artificially slow.
static ENTRY_SLOW_IN: Countdown = Countdown::new();
/// Sleep applied by the slow fault, in milliseconds.
static ENTRY_SLOW_MS: AtomicU64 = AtomicU64::new(0);
/// Countdown until the Nth batch entry reports a simulated proof decline.
static ENTRY_DECLINE_IN: Countdown = Countdown::new();
/// Countdown until the thread draining a service's queue panics before its
/// Nth pass.
static COLLECTOR_PANIC_IN: Countdown = Countdown::new();

/// Entry-level fault outcomes the batch executor must act on itself (the
/// panic and slow classes act directly inside [`entry_hook`]).
pub(crate) enum EntryFault {
    /// Simulated proof decline: the entry must fail with a kernel error
    /// without executing (the shape a backend's checked-semantics decline
    /// takes in production).
    Decline,
}

/// Called at the start of every batch entry attempt, inside the entry's
/// panic capture. Panics for the entry-panic class, sleeps for the slow
/// class, and returns the declines the caller must turn into errors.
pub(crate) fn entry_hook() -> Option<EntryFault> {
    if ENTRY_PANIC_IN.fires() {
        panic!("injected fault: batch entry panic (EXO_FAULT entry-panic)");
    }
    if ENTRY_SLOW_IN.fires() {
        std::thread::sleep(Duration::from_millis(ENTRY_SLOW_MS.load(Ordering::Relaxed)));
    }
    if ENTRY_DECLINE_IN.fires() {
        return Some(EntryFault::Decline);
    }
    None
}

/// Called by the submitter draining a service's queue once per pass,
/// before processing. An armed collector-panic unwinds that pass outside
/// any batch entry — the service (not the batch isolation layer) must
/// contain it: the pass's jobs fail typed, the thread goes on draining.
pub(crate) fn drain_hook() {
    if COLLECTOR_PANIC_IN.fires() {
        panic!("injected fault: the draining thread panics (EXO_FAULT collector-panic)");
    }
}

/// A deterministic set of faults to arm: each class fires on the Nth event
/// of its kind, counted process-wide from [`FaultPlan::arm`].
///
/// Build one with [`FaultPlan::new`] plus the builder methods, derive one
/// from a seed ([`FaultPlan::seeded`]), or parse the `EXO_FAULT` grammar
/// ([`FaultPlan::parse`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `pool-panic@N`: the Nth job of the shared pool panics.
    pub pool_panic: Option<u64>,
    /// `worker-death@N`: the worker finishing the Nth pool task dies.
    pub worker_death: Option<u64>,
    /// `entry-panic@N`: the Nth batch entry panics.
    pub entry_panic: Option<u64>,
    /// `slow@N=MS`: the Nth batch entry sleeps `MS` milliseconds.
    pub slow: Option<(u64, u64)>,
    /// `decline@N`: the Nth batch entry reports a simulated proof decline.
    pub decline: Option<u64>,
    /// `collector-panic@N`: the thread draining the queue panics before its
    /// Nth pass.
    pub collector_panic: Option<u64>,
    /// `aot-wrong-result@N`: the Nth promotion probe reports a mismatch —
    /// the shape a miscompiled kernel takes; the key is pinned to the simd
    /// tier.
    pub aot_wrong_result: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (arming it is a no-op beyond disarming what was set).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A plan covering the executable fault classes with trigger points
    /// derived deterministically from `seed` (xorshift64*), each in
    /// `1..=span`: the "fuzz one scenario, then replay it exactly"
    /// entry point of the stress suite.
    pub fn seeded(seed: u64, span: u64) -> Self {
        let mut state = seed | 1;
        let mut next = |hi: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            1 + state % hi.max(1)
        };
        FaultPlan {
            pool_panic: Some(next(span)),
            worker_death: Some(next(span)),
            entry_panic: Some(next(span)),
            slow: Some((next(span), next(8))),
            decline: Some(next(span)),
            collector_panic: None,
            aot_wrong_result: None,
        }
    }

    /// The Nth pool job panics.
    #[must_use]
    pub fn pool_panic(mut self, nth: u64) -> Self {
        self.pool_panic = Some(nth);
        self
    }

    /// The worker finishing the Nth pool task dies (and is respawned).
    #[must_use]
    pub fn worker_death(mut self, nth: u64) -> Self {
        self.worker_death = Some(nth);
        self
    }

    /// The Nth batch entry panics.
    #[must_use]
    pub fn entry_panic(mut self, nth: u64) -> Self {
        self.entry_panic = Some(nth);
        self
    }

    /// The Nth batch entry sleeps `ms` milliseconds before executing.
    #[must_use]
    pub fn slow(mut self, nth: u64, ms: u64) -> Self {
        self.slow = Some((nth, ms));
        self
    }

    /// The Nth batch entry reports a simulated proof decline.
    #[must_use]
    pub fn decline(mut self, nth: u64) -> Self {
        self.decline = Some(nth);
        self
    }

    /// The thread draining the queue panics before processing its Nth pass.
    #[must_use]
    pub fn collector_panic(mut self, nth: u64) -> Self {
        self.collector_panic = Some(nth);
        self
    }

    /// The Nth promotion probe reports a wrong result.
    #[must_use]
    pub fn aot_wrong_result(mut self, nth: u64) -> Self {
        self.aot_wrong_result = Some(nth);
        self
    }

    /// Parses the `EXO_FAULT` grammar: comma-separated `class@N` items
    /// (`slow` takes `slow@N=MS`), e.g.
    /// `EXO_FAULT=entry-panic@3,slow@5=20,decline@7`.
    ///
    /// # Errors
    ///
    /// Returns a description naming the offending item and the accepted
    /// classes.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (class, rest) = item
                .split_once('@')
                .ok_or_else(|| format!("`{item}` is not `class@N` (e.g. `entry-panic@3`)"))?;
            let nth = |s: &str| {
                s.parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("`{item}`: `{s}` is not a positive trigger index"))
            };
            plan = match class {
                "pool-panic" => plan.pool_panic(nth(rest)?),
                "worker-death" => plan.worker_death(nth(rest)?),
                "entry-panic" => plan.entry_panic(nth(rest)?),
                "decline" => plan.decline(nth(rest)?),
                "collector-panic" => plan.collector_panic(nth(rest)?),
                "aot-wrong-result" => plan.aot_wrong_result(nth(rest)?),
                "slow" => {
                    let (n, ms) = rest
                        .split_once('=')
                        .ok_or_else(|| format!("`{item}` needs `slow@N=MS` (sleep MS milliseconds)"))?;
                    let ms = ms
                        .parse::<u64>()
                        .map_err(|_| format!("`{item}`: `{ms}` is not a sleep in milliseconds"))?;
                    plan.slow(nth(n)?, ms)
                }
                other => {
                    return Err(format!(
                        "unknown fault class `{other}` (expected one of: pool-panic, worker-death, \
                         entry-panic, slow, decline, collector-panic, aot-wrong-result)"
                    ))
                }
            };
        }
        Ok(plan)
    }

    /// Arms this plan process-wide, replacing whatever was armed before
    /// (classes this plan leaves `None` are disarmed). Counting starts
    /// now: `@1` means the very next event of the class.
    pub fn arm(&self) {
        let set = |counter: &Countdown, v: Option<u64>| counter.arm(v.map_or(0, |n| n.max(1)));
        let pool = ThreadPool::global();
        pool.disarm_faults();
        if let Some(nth) = self.pool_panic {
            pool.arm_task_panic(nth);
        }
        if let Some(nth) = self.worker_death {
            pool.arm_worker_death(nth);
        }
        set(&ENTRY_PANIC_IN, self.entry_panic);
        set(&ENTRY_SLOW_IN, self.slow.map(|(n, _)| n));
        ENTRY_SLOW_MS.store(self.slow.map_or(0, |(_, ms)| ms), Ordering::Relaxed);
        set(&ENTRY_DECLINE_IN, self.decline);
        set(&COLLECTOR_PANIC_IN, self.collector_panic);
        exo_aot::arm_wrong_result(self.aot_wrong_result.unwrap_or(0));
    }
}

/// Disarms every fault class (pool hooks included). Call between
/// experiments; the harness is inert again afterwards.
pub fn disarm() {
    FaultPlan::new().arm();
}

/// Arms the plan named by the `EXO_FAULT` environment variable, once per
/// process (later calls are no-ops). Returns whether a plan was armed.
///
/// Called on every service construction, so `EXO_FAULT=...` alone turns a
/// test binary into a fault run. An unset or empty variable means "no
/// faults"; an unparseable value panics (a typo silently ignoring the
/// requested fault would defeat its purpose — the workspace override
/// contract of [`gemm_blis::env_once`], as `EXO_ISA`/`EXO_THREADS`).
pub fn arm_from_env() -> bool {
    static PLAN: std::sync::OnceLock<Option<FaultPlan>> = std::sync::OnceLock::new();
    // Arming inside the parse closure keeps the once-per-process contract:
    // `env_once` runs it only on the first read of a set variable.
    gemm_blis::env_once(&PLAN, "EXO_FAULT", |spec| FaultPlan::parse(spec).inspect(|plan| plan.arm()))
        .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_spec_grammar_round_trips_every_class() {
        let plan = FaultPlan::parse(
            "pool-panic@2, worker-death@3,entry-panic@4,slow@5=20,decline@6,collector-panic@7,\
             aot-wrong-result@8",
        )
        .unwrap();
        assert_eq!(
            plan,
            FaultPlan::new()
                .pool_panic(2)
                .worker_death(3)
                .entry_panic(4)
                .slow(5, 20)
                .decline(6)
                .collector_panic(7)
                .aot_wrong_result(8)
        );
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::new());
    }

    #[test]
    fn the_spec_grammar_rejects_typos_with_guidance() {
        assert!(FaultPlan::parse("entry-panic").unwrap_err().contains("class@N"));
        assert!(FaultPlan::parse("entry-panic@0").unwrap_err().contains("positive"));
        assert!(FaultPlan::parse("slow@3").unwrap_err().contains("slow@N=MS"));
        assert!(FaultPlan::parse("meteor@1").unwrap_err().contains("unknown fault class"));
        assert!(FaultPlan::parse("aot-hang@1").unwrap_err().contains("unknown fault class"));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        let a = FaultPlan::seeded(0xF00D, 10);
        let b = FaultPlan::seeded(0xF00D, 10);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::seeded(0xBEEF, 10));
        for nth in [a.pool_panic, a.worker_death, a.entry_panic, a.decline, a.slow.map(|(n, _)| n)] {
            let nth = nth.unwrap();
            assert!((1..=10).contains(&nth), "trigger {nth} out of span");
        }
        assert!(a.collector_panic.is_none(), "seeded plans unwind no pass");
    }
}
