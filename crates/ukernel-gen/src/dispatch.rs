//! The tier ladder, written once: which execution tier a generated kernel
//! runs a packed call on, and the reusable handle that runs it.
//!
//! A [`GeneratedKernel`] carries up to five ways to execute the same
//! schedule — `native → simd → portable → tape → interp`, fastest first.
//! [`GeneratedKernel::dispatcher`] is the **one** function in the workspace
//! that maps a requested [`ExecBackend`] onto the tier that actually runs:
//! the requested one when the kernel has that lowering (and, for the
//! native tier, when its background build has promoted), else the next
//! one down. Every entry point — one-shot runs, the GEMM driver's per-worker
//! handles, a pinned tier, the serving layer's degraded retry — goes
//! through it, so a pin is never a second code path beside the ladder —
//! and so does [`TierDispatch::refresh`], which walks the same ladder again
//! for a long-lived handle that was built before the native tier promoted.

use std::sync::Arc;

use exo_codegen::{CodegenError, CompiledKernel, RunArg, SimdDispatch, SimdKernel, TapeKernel};

use crate::error::{GenError, Result};
use crate::generator::GeneratedKernel;

/// Which execution tier a generated kernel dispatches through.
///
/// The per-kernel setting can be overridden process-wide with the
/// `EXO_BACKEND` environment variable (`native`, `simd`, `superword`,
/// `tape`, or `interp`), read once at first dispatch: the override wins
/// over the programmatic pin, so any tier is forceable for debugging —
/// and CI forces `EXO_BACKEND=superword` to run the whole suite with the
/// native tier off and the portable chain on. Which vector ISA the
/// `native` and `simd` tiers target is a separate, orthogonal override:
/// `EXO_ISA` (see [`exo_codegen::active_isa`]) — every host at least gets
/// the bit-exact scalar chain, so neither tier ever silently vanishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Ahead-of-time compiled native code: the superword tape lowered to
    /// C, built into a dylib by the host toolchain (`cc`, or the `EXO_CC`
    /// override) and called through a raw function pointer — the fastest
    /// tier and the default. Guarded by the same affine-interval proofs
    /// as the simd tier and bit-identical to it on the matching ISA, so
    /// serving on simd while the build is in flight (or for good: no
    /// toolchain, emission decline, build failure) changes speed, never
    /// results.
    #[default]
    Native,
    /// The in-process vector closure chain of the widest available ISA
    /// (AVX2/FMA on x86_64, NEON on aarch64, bit-exact scalar everywhere;
    /// pin one with `EXO_ISA`) — the fastest tier that needs no C
    /// toolchain. Results of the contracting ISAs are within the
    /// documented FMA-contraction ULP bound of the portable tiers (FMA
    /// contracts the multiply-add into one rounding); the scalar chain is
    /// bit-identical to them.
    Simd,
    /// The portable tier: the superword lowering executed by the
    /// scalar-ISA closure chain — bit-for-bit identical to tape and
    /// interpreter on every host. (The name is the lowering's; the
    /// superword module itself executes nothing unchecked.)
    Superword,
    /// The scalar tape — the intermediate tier, kept as a perf baseline and
    /// differential anchor.
    Tape,
    /// The tree-walking interpreter (differential tests, perf baselines).
    Interp,
}

impl ExecBackend {
    /// Parses a backend name as accepted by the `EXO_BACKEND` override.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted names.
    pub fn parse(s: &str) -> std::result::Result<ExecBackend, String> {
        match s.to_ascii_lowercase().as_str() {
            "native" => Ok(ExecBackend::Native),
            "simd" => Ok(ExecBackend::Simd),
            "superword" => Ok(ExecBackend::Superword),
            "tape" => Ok(ExecBackend::Tape),
            "interp" => Ok(ExecBackend::Interp),
            other => Err(format!(
                "unknown backend `{other}` (expected one of: native, simd, superword, tape, interp)"
            )),
        }
    }

    /// The backend actually requested of the ladder: the `EXO_BACKEND`
    /// environment override when set (see [`env_backend_override`]), this
    /// value otherwise.
    pub fn effective(self) -> ExecBackend {
        env_backend_override().unwrap_or(self)
    }

    /// The next execution tier down the ladder
    /// (native → simd → superword → tape → interp), or `None` at the
    /// bottom.
    ///
    /// This is the fall-through of [`GeneratedKernel::dispatcher`] and the
    /// retry ladder of the fault-tolerant serving path: when a tier fails
    /// or panics on an entry, the entry is re-attempted once on the tier
    /// below, trading speed for the portable tiers' simpler dispatch. Note
    /// that when `EXO_BACKEND` is set, the override still wins at dispatch
    /// time, so a "degraded" retry re-runs the forced tier — the retry is
    /// then a plain re-execution.
    pub fn degraded(self) -> Option<ExecBackend> {
        match self {
            ExecBackend::Native => Some(ExecBackend::Simd),
            ExecBackend::Simd => Some(ExecBackend::Superword),
            ExecBackend::Superword => Some(ExecBackend::Tape),
            ExecBackend::Tape => Some(ExecBackend::Interp),
            ExecBackend::Interp => None,
        }
    }
}

/// The process-wide `EXO_BACKEND` override, read and parsed once on first
/// use under the workspace override contract
/// ([`exo_codegen::env_once`]): an unset or empty variable means "no
/// override"; an unparseable value panics on first dispatch (a typo
/// silently ignoring the override would defeat its debugging purpose).
pub fn env_backend_override() -> Option<ExecBackend> {
    static OVERRIDE: std::sync::OnceLock<Option<ExecBackend>> = std::sync::OnceLock::new();
    exo_codegen::env_once(&OVERRIDE, "EXO_BACKEND", ExecBackend::parse)
}

/// What a resolved tier runs a packed call on.
#[derive(Debug, Clone)]
enum Tier {
    /// An unchecked body behind the memoised bounds proof, with the
    /// checked reference on a decline: the native, simd and portable
    /// tiers differ only in the body their handle carries.
    Proved(SimdDispatch),
    /// The scalar tape (checks every access itself).
    Tape(Arc<TapeKernel>),
    /// The tree-walking interpreter.
    Interp(Arc<CompiledKernel>),
}

/// A reusable packed-call handle on one resolved tier of a
/// [`GeneratedKernel`] — what [`GeneratedKernel::dispatcher`] returns.
///
/// For the proved tiers it owns the memoised bounds proof and the
/// register file, so steady-state micro-tile dispatch allocates and
/// re-proves nothing: create one per worker and reuse it for every tile.
/// Results are bit-for-bit those of a fresh handle on the same tier.
///
/// The handle remembers the tier it was asked for, so one that had to
/// settle below it — the native build was still in flight — can be taken
/// back up the ladder later ([`TierDispatch::refresh`]) instead of serving
/// on the fallback for as long as it lives.
#[derive(Debug, Clone)]
pub struct TierDispatch {
    mr: usize,
    nr: usize,
    asked: ExecBackend,
    resolved: ExecBackend,
    tier: Tier,
}

impl GeneratedKernel {
    /// Resolves `backend` down the ladder and returns the handle that runs
    /// it: the requested tier when this kernel has that lowering (for
    /// [`ExecBackend::Native`]: when the background build has promoted —
    /// a non-blocking [`Self::native`] poll, so a handle built early serves
    /// on simd until a [`TierDispatch::refresh`] finds the artifact), else
    /// the next tier down. The interpreter always resolves. Callers
    /// honouring `EXO_BACKEND` pass [`ExecBackend::effective`].
    pub fn dispatcher(&self, backend: ExecBackend) -> TierDispatch {
        self.resolve(backend, None).expect("the interpreter always resolves")
    }

    /// The ladder: the handle of the first tier at or below `asked` this
    /// kernel can serve now — or `None` once the walk reaches `held`, the
    /// tier the caller already has a handle on, without building anything.
    fn resolve(&self, asked: ExecBackend, held: Option<ExecBackend>) -> Option<TierDispatch> {
        let proved = |body: &Arc<SimdKernel>| Tier::Proved(body.dispatcher());
        let mut backend = asked;
        while Some(backend) != held {
            let tier = match backend {
                ExecBackend::Native => self.native().map(|native| Tier::Proved(native.dispatcher())),
                ExecBackend::Simd => self.simd.as_ref().map(proved),
                ExecBackend::Superword => self.portable().map(proved),
                ExecBackend::Tape => self.tape.clone().map(Tier::Tape),
                ExecBackend::Interp => Some(Tier::Interp(Arc::clone(&self.compiled))),
            };
            if let Some(tier) = tier {
                return Some(TierDispatch { mr: self.mr, nr: self.nr, asked, resolved: backend, tier });
            }
            backend = backend.degraded()?;
        }
        None
    }
}

impl TierDispatch {
    /// The tier this handle resolved to — the requested backend, or the
    /// first one below it the kernel could serve.
    pub fn tier(&self) -> ExecBackend {
        self.resolved
    }

    /// Re-resolves a handle that sits below the tier it was asked for:
    /// walks `kernel`'s ladder (the kernel this handle was built from)
    /// from the asked tier down to the held one, and replaces the handle —
    /// proof memo and register file start over — only when a tier above
    /// the held one now answers. A handle already on the tier it was asked
    /// for does nothing; below it the cost is the ladder's own probes (for
    /// the native tier one `OnceLock` read on a host without a toolchain,
    /// one engine slot lookup while the build is in flight or rejected).
    pub fn refresh(&mut self, kernel: &GeneratedKernel) {
        if self.resolved != self.asked {
            if let Some(higher) = kernel.resolve(self.asked, Some(self.resolved)) {
                *self = higher;
            }
        }
    }

    /// Runs the kernel on packed operands: `c[nr][mr] += ac[kc][mr] *
    /// bc[kc][nr]` (row-major, exactly the layouts of the paper's Fig. 5).
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Codegen`] if the buffers do not match the
    /// kernel's shape.
    #[inline]
    pub fn run_packed(&mut self, kc: usize, ac: &[f32], bc: &[f32], c: &mut [f32]) -> Result<()> {
        let (mr, nr) = (self.mr, self.nr);
        if ac.len() != kc * mr || bc.len() != kc * nr || c.len() != mr * nr {
            return Err(GenError::Codegen(CodegenError::BadArguments {
                reason: format!(
                    "expected Ac[{}], Bc[{}], C[{}] for a {mr}x{nr} kernel with KC={kc}",
                    kc * mr,
                    kc * nr,
                    mr * nr
                ),
            }));
        }
        let ran = match &mut self.tier {
            Tier::Proved(dispatch) => dispatch.run_packed(kc, ac, bc, c),
            Tier::Tape(tape) => tape.run_packed(kc, ac, bc, c),
            Tier::Interp(compiled) => {
                // The RunArg interface takes every tensor mutably, so the
                // read-only operands must be copied; this is part of why
                // the interpreter is slow, and why the tape gets a
                // zero-copy entry point.
                let (mut a, mut b) = (ac.to_vec(), bc.to_vec());
                compiled.run(&mut [
                    RunArg::Size(kc as i64),
                    RunArg::Tensor(&mut a),
                    RunArg::Tensor(&mut b),
                    RunArg::Tensor(c),
                ])
            }
        };
        ran.map_err(GenError::Codegen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MicroKernelGenerator;

    #[test]
    fn a_missing_lowering_falls_through_to_the_next_tier_down() {
        use ExecBackend::*;
        let full = MicroKernelGenerator::new(exo_isa::neon_f32()).generate(4, 4).unwrap();
        let kc = 9usize;
        let a: Vec<f32> = (0..kc * 4).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
        let b: Vec<f32> = (0..kc * 4).map(|i| (i % 5) as f32 * 0.5 - 1.0).collect();
        let run = |kernel: &GeneratedKernel, backend: ExecBackend, resolved: ExecBackend| {
            let mut dispatch = kernel.dispatcher(backend);
            assert_eq!(dispatch.tier(), resolved, "{backend:?} must resolve to {resolved:?}");
            let mut c = vec![0.5f32; 16];
            dispatch.run_packed(kc, &a, &b, &mut c).unwrap();
            c
        };
        let want = run(&full, Interp, Interp);
        // Strip the lowerings top down (each stage from a fresh clone —
        // the lazily built portable chain is derived state): every request
        // lands on the first tier below it that still exists, with the
        // portable result.
        let stripped = |strip: fn(&mut GeneratedKernel)| {
            let mut kernel = full.clone();
            strip(&mut kernel);
            kernel
        };
        let no_chain = stripped(|k| k.simd = None);
        assert_eq!(run(&no_chain, Simd, Superword), want, "the portable chain compiles on demand");
        let no_superword = stripped(|k| (k.simd, k.superword) = (None, None));
        for backend in [Native, Simd, Superword, Tape] {
            assert_eq!(run(&no_superword, backend, Tape), want);
        }
        let interp_only = stripped(|k| (k.simd, k.superword, k.tape) = (None, None, None));
        for backend in [Native, Simd, Superword, Tape, Interp] {
            assert_eq!(run(&interp_only, backend, Interp), want);
        }
        // Nothing stripped, every in-process pin is its own tier.
        for backend in [Simd, Superword, Tape] {
            run(&full, backend, backend);
        }
        assert!(matches!(
            full.dispatcher(Simd).run_packed(kc, &a, &b, &mut [0.0; 3]),
            Err(GenError::Codegen(_))
        ));
    }

    #[test]
    fn refresh_takes_a_handle_up_the_ladder_only_when_a_higher_tier_answers() {
        use ExecBackend::*;
        let kernel = MicroKernelGenerator::new(exo_isa::neon_f32()).generate(4, 8).unwrap();
        let kc = 11usize;
        let a: Vec<f32> = (0..kc * 4).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
        let b: Vec<f32> = (0..kc * 8).map(|i| (i % 5) as f32 * 0.5 - 1.0).collect();
        let run = |handle: &mut TierDispatch| {
            let mut c = vec![0.5f32; 32];
            handle.run_packed(kc, &a, &b, &mut c).unwrap();
            c
        };
        // Built before the artifact settles (the first poll of a kernel
        // only enqueues its build), refreshed after: the handle lands on
        // the native tier when the host can build one and stays put — same
        // bits either way — when it cannot.
        let mut early = kernel.dispatcher(Native);
        let (built_on, before) = (early.tier(), run(&mut early));
        let settled = kernel.native_wait();
        early.refresh(&kernel);
        assert_eq!(early.tier(), if settled.is_some() { Native } else { built_on });
        assert_eq!(run(&mut early), before, "native is bit-identical to the simd chain it was lowered from");
        // On the tier it was asked for, a handle has nowhere to go.
        let mut pinned = kernel.dispatcher(Simd);
        pinned.refresh(&kernel);
        assert_eq!(pinned.tier(), Simd);
        // Below it for good — the lowering does not exist — it stays.
        let mut stripped = kernel.clone();
        (stripped.simd, stripped.superword) = (None, None);
        let mut low = stripped.dispatcher(Simd);
        low.refresh(&stripped);
        assert_eq!(low.tier(), Tape);
    }
}
