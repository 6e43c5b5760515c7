//! The engine: emitted C → its key → a body from the build-time table →
//! probe-verified promotion, once per key per process, synchronously.
//!
//! A kernel's C is compiled when the workspace builds, not when the
//! process runs, so resolving the native tier costs one emission, one
//! hash, one table lookup and — on a hit — one probe. A key the table does
//! not hold is a counted miss, and the caller serves on the simd chain.
//! A body that *runs* but computes a wrong answer on the probe pins its key
//! to the simd tier for the rest of the process. Every verdict is cached
//! per key: nothing is retried, because nothing it rests on can change.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use exo_codegen::{emit_superword_c, Countdown, IsaKind, SimdKernel, SuperwordKernel, TensorView};

use crate::error::{AotError, Result};
use crate::toolchain::{installed_bodies, NativeBody, KERNEL_SYMBOL};

/// The `KC` values of the verification probe every body must pass
/// before promotion: the empty loop, the single iteration, and one that
/// is odd and larger than any unroll factor in the emitters, so
/// remainder paths execute too — a body wrong only at `kc = 0` or
/// `kc = 1` (a fringe `KC` block does reach them) must not promote.
const PROBE_KCS: [usize; 3] = [0, 1, 17];

/// Fault-injection countdown for the `aot-wrong-result` class: the Nth
/// verification probe reports a mismatch, driving the terminal simd pin.
/// Armed by exo-serve's fault harness.
static WRONG_RESULT_IN: Countdown = Countdown::new();

/// Arms the `aot-wrong-result` countdown: the `n`-th verification probe
/// from now reports a mismatch. `0` disarms.
pub fn arm_wrong_result(n: u64) {
    WRONG_RESULT_IN.arm(n);
}

/// A point-in-time snapshot of an engine's observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AotStats {
    /// Keys the table holds no body for: they serve on the simd chain.
    pub misses: u64,
    /// Table bodies that did not promote: the probe found a wrong result
    /// or could not run. (The name is kept from when bodies were built at
    /// run time.)
    pub builds_failed: u64,
    /// Bodies that ran but failed probe verification (a subset of
    /// `builds_failed`).
    pub wrong_results: u64,
    /// Bodies that passed probe verification and entered dispatch.
    pub verified_promotions: u64,
}

#[derive(Debug, Default)]
struct EngineCounters {
    misses: AtomicU64,
    builds_failed: AtomicU64,
    wrong_results: AtomicU64,
    verified_promotions: AtomicU64,
}

impl EngineCounters {
    fn snapshot(&self) -> AotStats {
        AotStats {
            misses: self.misses.load(Ordering::SeqCst),
            builds_failed: self.builds_failed.load(Ordering::SeqCst),
            wrong_results: self.wrong_results.load(Ordering::SeqCst),
            verified_promotions: self.verified_promotions.load(Ordering::SeqCst),
        }
    }
}

/// One key's verdict, settled by whichever caller resolves it first.
type Verdict = Arc<OnceLock<Result<Arc<SimdKernel>>>>;

/// The native-tier engine.
///
/// One engine owns a table of bodies and a per-key verdict map, and counts
/// everything observable about resolution in [`AotEngine::stats`].
#[derive(Debug)]
pub struct AotEngine {
    /// The bodies to look keys up in; `None`: the installed table.
    bodies: Option<Vec<NativeBody>>,
    counters: EngineCounters,
    verdicts: Mutex<HashMap<(u64, IsaKind), Verdict>>,
}

impl AotEngine {
    /// An engine that looks keys up in `bodies` instead of the installed
    /// table — the seam through which tests hand the promotion path bodies
    /// of their own. Production uses [`engine()`].
    pub fn with_bodies(bodies: Vec<NativeBody>) -> AotEngine {
        AotEngine { bodies: Some(bodies), ..AotEngine::installed() }
    }

    fn installed() -> AotEngine {
        AotEngine { bodies: None, counters: EngineCounters::default(), verdicts: Mutex::new(HashMap::new()) }
    }

    /// A snapshot of every counter.
    pub fn stats(&self) -> AotStats {
        self.counters.snapshot()
    }

    /// The promoted kernel for `source` on `isa`, or why there is none:
    /// emits the C, hashes it and settles that key's verdict. The first
    /// call for a key looks its body up and probes it; every later one —
    /// and any caller that raced it — gets that verdict back.
    ///
    /// # Errors
    ///
    /// [`AotError::NotInTable`] on a miss, [`AotError::WrongResult`] when
    /// the probe rejects the body, [`AotError::Unsupported`] when the
    /// emitter declines the tape, the host cannot run `isa` or the probe
    /// cannot run. All mean "stay on simd".
    pub fn compile(&self, source: &Arc<SuperwordKernel>, isa: IsaKind) -> Result<Arc<SimdKernel>> {
        let key = content_hash(emit_superword_c(source, isa, KERNEL_SYMBOL)?.as_bytes());
        let verdict = {
            let mut verdicts = self.verdicts.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(verdicts.entry((key, isa)).or_default())
        };
        verdict.get_or_init(|| self.promote(source, isa, key)).clone()
    }

    /// A key's first resolution: lookup, then the probe.
    fn promote(&self, source: &Arc<SuperwordKernel>, isa: IsaKind, key: u64) -> Result<Arc<SimdKernel>> {
        if !isa.available() {
            return Err(AotError::Unsupported { what: format!("the {isa} ISA on this host") });
        }
        let bodies = match &self.bodies {
            Some(bodies) => bodies.as_slice(),
            None => installed_bodies(),
        };
        let Some(body) = bodies.iter().find(|b| b.key == key && b.isa == isa) else {
            self.counters.misses.fetch_add(1, Ordering::SeqCst);
            return Err(AotError::NotInTable);
        };
        // SAFETY: `body` was compiled, with `isa`'s flags, from C whose hash
        // is `key`: the C `emit_superword_c(source, isa, ..)` emits, for an
        // ISA this host runs (checked above). It is a function of the
        // binary, so it stays callable for good.
        let outcome = unsafe { SimdKernel::from_compiled(Arc::clone(source), isa, body.body) }
            .map_err(AotError::from)
            .and_then(|kernel| verify(&self.counters, key, &kernel).map(|()| Arc::new(kernel)));
        let counter =
            if outcome.is_ok() { &self.counters.verified_promotions } else { &self.counters.builds_failed };
        counter.fetch_add(1, Ordering::SeqCst);
        outcome
    }
}

/// Verified promotion: before a body enters dispatch, run it on
/// deterministic seeded probe problems (one per [`PROBE_KCS`] entry) and
/// compare against the source tape's checked reference — a reference that
/// trusts no proof — bit for bit: every tier computes the same fused
/// arithmetic, so one differing bit is a wrong result, and the key is
/// pinned to simd terminally.
fn verify(counters: &EngineCounters, key: u64, kernel: &SimdKernel) -> Result<()> {
    let sw = kernel.source();
    // Deterministic seeded operands (xorshift64*), identical on every
    // verification of this key.
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ key;
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
        // Admitted by the proof just checked, so this runs the body.
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
/// content hash, and the key of a kernel's emitted C.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    // The trailing 0xff is part of the recorded hashes' definition.
    for &b in bytes.iter().chain(&[0xff]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The process-wide engine over the installed table. Everything above
/// this crate — kernel caches, the GEMM runner, exo-serve — resolves
/// through this instance, sharing its verdicts and counters.
pub fn engine() -> &'static AotEngine {
    static CELL: OnceLock<AotEngine> = OnceLock::new();
    CELL.get_or_init(AotEngine::installed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::builder::*;
    use exo_ir::{Expr, MemSpace, ScalarType};

    /// A 2x2 packed micro-kernel, `C[j][i] += Ac[k][i] * Bc[k][j]` over `k`.
    fn kernel_2x2() -> Arc<SuperwordKernel> {
        let update = reduce(
            "C",
            vec![Expr::add(Expr::mul(var("j"), int(2)), var("i"))],
            Expr::mul(read("Ac", vec![var("k"), var("i")]), read("Bc", vec![var("k"), var("j")])),
        );
        let p = proc("ukr_2x2")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(2)], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![var("KC"), int(2)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .body(vec![for_("k", 0, var("KC"), vec![for_("j", 0, 2, vec![for_("i", 0, 2, vec![update])])])])
            .build();
        Arc::new(exo_codegen::compile(&p).unwrap().to_superword().unwrap())
    }

    static WRONG_CALLS: AtomicU64 = AtomicU64::new(0);

    /// Adds a constant to the tile's first element: wrong at every `KC`
    /// that touches the tile (at `KC = 0` the kernel touches nothing, and
    /// the probe passes no `C` to write).
    unsafe extern "C" fn wrong(kc: i64, _ac: *const f32, _bc: *const f32, c: *mut f32) {
        WRONG_CALLS.fetch_add(1, Ordering::SeqCst);
        if kc > 0 {
            // SAFETY: for `KC > 0` the proved-call site passes the 4-float tile.
            unsafe { *c += 1234.5 };
        }
    }

    #[test]
    fn a_wrong_result_is_terminal_on_the_first_attempt() {
        let sw = kernel_2x2();
        let isa = IsaKind::Scalar;
        let key = content_hash(emit_superword_c(&sw, isa, KERNEL_SYMBOL).unwrap().as_bytes());
        let engine = AotEngine::with_bodies(vec![NativeBody { key, isa, body: wrong }]);
        assert_eq!(engine.compile(&sw, isa).err(), Some(AotError::WrongResult));
        let first = engine.stats();
        assert_eq!((first.builds_failed, first.wrong_results, first.verified_promotions), (1, 1, 0));
        let calls = WRONG_CALLS.load(Ordering::SeqCst);
        assert_eq!(calls, PROBE_KCS.len() as u64, "the probe runs the body once per probe KC");
        // The pin holds: no second probe, and the body never runs again.
        for _ in 0..3 {
            assert_eq!(engine.compile(&sw, isa).err(), Some(AotError::WrongResult));
        }
        assert_eq!(engine.stats(), first);
        assert_eq!(WRONG_CALLS.load(Ordering::SeqCst), calls);
    }

    #[test]
    fn disarming_resets_the_global_countdown() {
        arm_wrong_result(1);
        arm_wrong_result(0);
        assert!(!WRONG_RESULT_IN.fires());
    }
}
