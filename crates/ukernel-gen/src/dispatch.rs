//! The tier ladder, written once: which execution tier a generated kernel
//! runs a packed call on, and the reusable handle that runs it.
//!
//! A [`GeneratedKernel`] carries four ways to execute the same schedule —
//! `native → simd → portable → tape`, fastest first, the checked tape at the
//! floor. Three of them are built by the generator and always there, so a
//! request for one — a pin — resolves to itself. The fourth, the native
//! tier, is compiled in the background: [`ExecBackend::Native`] serves on
//! the simd chain until its artifact promotes, and that is the ladder's one
//! edge. The reference interpreter (`exo_ir::interp::run_proc` of
//! [`GeneratedKernel::proc`]) is not a rung: it is the semantics every tier
//! computes bit for bit, and the tests call it directly.
//! [`GeneratedKernel::dispatcher`] is the **one** function in the workspace
//! that maps a requested [`ExecBackend`] onto the tier that runs, and every
//! entry point — one-shot runs, the handle each GEMM engine holds and calls
//! once per register tile, a pinned tier, the serving layer's degraded
//! retry — goes through it;
//! [`TierDispatch::refresh`] takes the same edge later, for a long-lived
//! handle that was built before the native tier promoted.

use std::sync::Arc;

use exo_codegen::{CodegenError, SimdDispatch, TapeKernel};

use crate::error::{GenError, Result};
use crate::generator::GeneratedKernel;

/// Which execution tier a generated kernel dispatches through — asked for
/// one way, the pin a caller passes to [`GeneratedKernel::dispatcher`] (for
/// the GEMM driver: the `backend` of its kernel). Which vector ISA the
/// `native` and `simd` tiers target is a separate, process-wide choice:
/// `EXO_ISA` (see [`exo_codegen::active_isa`]) — every host at least gets
/// the scalar chain. Every tier computes the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Ahead-of-time compiled native code: the superword tape lowered to
    /// C, built into a dylib by the host toolchain (`cc`, or the `EXO_CC`
    /// override) and called through a raw function pointer — the fastest
    /// tier and the default. Guarded by the same affine-interval proofs
    /// as the simd tier and bit-identical to it, so
    /// serving on simd while the build is in flight (or for good: no
    /// toolchain, emission decline, build failure) changes speed, never
    /// results.
    #[default]
    Native,
    /// The in-process vector closure chain of the widest available ISA
    /// (AVX-512 or AVX2/FMA on x86_64, NEON on aarch64, scalar everywhere;
    /// pin one with `EXO_ISA`) — the fastest tier that needs no C
    /// toolchain.
    Simd,
    /// The portable tier: the superword lowering executed by the
    /// scalar-ISA closure chain — bit-for-bit identical to the tape and the
    /// interpreter on every host. (The name is the lowering's; the
    /// superword module itself executes nothing unchecked.)
    Superword,
    /// The scalar tape — the checked floor: the flat executor that
    /// bounds-checks every access, which is what any declined proof of the
    /// three tiers above runs and what the native tier's promotion probe
    /// compares against. The pin runs it on every call.
    Tape,
}

impl ExecBackend {
    /// The next execution tier down the ladder
    /// (native → simd → superword → tape), or `None` at the tape, the
    /// checked floor.
    ///
    /// This is the retry ladder of the fault-tolerant serving path: when a
    /// tier fails or panics on an entry, the entry is re-attempted once on
    /// the tier below the one it ran on, trading speed for the portable
    /// tiers' simpler dispatch. A failure on the tape is final: nothing
    /// below it checks more.
    pub fn degraded(self) -> Option<ExecBackend> {
        match self {
            ExecBackend::Native => Some(ExecBackend::Simd),
            ExecBackend::Simd => Some(ExecBackend::Superword),
            ExecBackend::Superword => Some(ExecBackend::Tape),
            ExecBackend::Tape => None,
        }
    }
}

/// What a resolved tier runs a packed call on.
#[derive(Debug, Clone)]
enum Tier {
    /// An unchecked body behind the memoised bounds proof, with the
    /// checked reference on a decline: the native, simd and portable
    /// tiers differ only in the body their handle carries.
    Proved(SimdDispatch),
    /// The scalar tape (checks every access itself) — also where a
    /// [`Tier::Proved`] call goes when its proof declines.
    Tape(Arc<TapeKernel>),
}

/// A reusable packed-call handle on one resolved tier of a
/// [`GeneratedKernel`] — what [`GeneratedKernel::dispatcher`] returns.
///
/// For the proved tiers it owns the memoised bounds proof and the
/// register file, so steady-state micro-tile dispatch allocates and
/// re-proves nothing: create one per worker and reuse it for every tile.
/// Results are bit-for-bit those of a fresh handle on the same tier.
///
/// The handle remembers the tier it was asked for, so one that was asked
/// for the native tier while the build was still in flight can be promoted
/// later ([`TierDispatch::refresh`]) instead of serving on the simd chain
/// for as long as it lives.
#[derive(Debug, Clone)]
pub struct TierDispatch {
    mr: usize,
    nr: usize,
    asked: ExecBackend,
    resolved: ExecBackend,
    tier: Tier,
}

impl GeneratedKernel {
    /// The handle that runs `backend`: the requested tier itself, except
    /// that [`ExecBackend::Native`] serves on the simd chain until its
    /// background build has promoted — a non-blocking [`Self::native`]
    /// poll, so a handle built early stays on simd until a
    /// [`TierDispatch::refresh`] finds the artifact.
    pub fn dispatcher(&self, backend: ExecBackend) -> TierDispatch {
        let (resolved, tier) = self.resolve(backend);
        TierDispatch { mr: self.mr, nr: self.nr, asked: backend, resolved, tier }
    }

    /// The ladder: every tier resolves to itself but the native one, which
    /// is the simd chain for as long as no artifact has promoted.
    fn resolve(&self, asked: ExecBackend) -> (ExecBackend, Tier) {
        use ExecBackend::*;
        match asked {
            Native => match self.native() {
                Some(native) => (Native, Tier::Proved(native.dispatcher())),
                None => (Simd, Tier::Proved(self.simd.dispatcher())),
            },
            Simd => (Simd, Tier::Proved(self.simd.dispatcher())),
            Superword => (Superword, Tier::Proved(self.portable.dispatcher())),
            Tape => (Tape, Tier::Tape(Arc::clone(&self.tape))),
        }
    }
}

impl TierDispatch {
    /// The tier this handle runs on — the requested backend, or the simd
    /// chain under a native request whose artifact has not promoted.
    pub fn tier(&self) -> ExecBackend {
        self.resolved
    }

    /// Promotes a handle that was asked for the native tier and sits on
    /// the simd chain, once `kernel` (the kernel this handle was built
    /// from) has its artifact: the handle is replaced — proof memo and
    /// register file start over. A handle on the tier it was asked for
    /// does nothing; below it the cost is one native poll (one `OnceLock`
    /// read on a host without a toolchain, one engine slot lookup while
    /// the build is in flight or rejected).
    pub fn refresh(&mut self, kernel: &GeneratedKernel) {
        if self.resolved != self.asked {
            if let Some(native) = kernel.native() {
                (self.resolved, self.tier) = (ExecBackend::Native, Tier::Proved(native.dispatcher()));
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
    pub fn run(&mut self, kc: usize, ac: &[f32], bc: &[f32], c: &mut [f32]) -> Result<()> {
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
        };
        ran.map_err(GenError::Codegen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MicroKernelGenerator;

    #[test]
    fn the_ladder_steps_down_one_rung_at_a_time_and_stops_at_the_tape() {
        use ExecBackend::*;
        let mut ladder = vec![Native];
        while let Some(below) = ladder.last().and_then(|tier| tier.degraded()) {
            ladder.push(below);
        }
        assert_eq!(ladder, [Native, Simd, Superword, Tape]);
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
            handle.run(kc, &a, &b, &mut c).unwrap();
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
    }
}
