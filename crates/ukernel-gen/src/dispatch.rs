//! The tier ladder, written once: which execution tier a generated kernel
//! runs a packed call on, and the reusable handle that runs it.
//!
//! A [`GeneratedKernel`] carries three ways to execute the same schedule —
//! `native → superword → tape`, fastest first, the checked tape at the
//! floor. Two of them are built by the generator and always there, so a
//! request for one — a pin — resolves to itself: the safe superword
//! interpreter, which runs the kernel's whole-vector ops one at a time with
//! every access checked, and the scalar tape. The third, the native tier,
//! is a body compiled when the workspace was built:
//! [`ExecBackend::Native`] serves on the superword interpreter when the
//! build-time table holds no body for the kernel, and that is the ladder's
//! one edge.
//! The reference interpreter (`exo_ir::interp::run_proc` of
//! [`GeneratedKernel::proc`]) is not a rung: it is the semantics every tier
//! computes bit for bit, and the tests call it directly.
//! [`GeneratedKernel::dispatcher`] is the **one** function in the workspace
//! that maps a requested [`ExecBackend`] onto the tier that runs, and every
//! entry point — one-shot runs, the handle each GEMM engine holds and calls
//! once per register tile, a pinned tier, the serving layer's degraded
//! retry — goes through it.

use std::sync::Arc;

use exo_codegen::{CodegenError, SimdDispatch, SuperwordDispatch, TapeKernel};

use crate::error::{GenError, Result};
use crate::generator::GeneratedKernel;

/// Which execution tier a generated kernel dispatches through — asked for
/// one way, the pin a caller passes to [`GeneratedKernel::dispatcher`] (for
/// the GEMM driver: the `backend` of its kernel). Which ISA row the
/// `native` tier's body is looked up for is a separate, process-wide
/// choice: `EXO_ISA` (see [`exo_codegen::active_isa`]) — every host at
/// least gets the scalar row. Every tier computes the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Ahead-of-time compiled native code: the superword tape lowered to
    /// C, compiled by the C compiler when the workspace was built, linked
    /// into the binary and called through a function pointer — the fastest
    /// tier and the default. Guarded by the affine-interval proof of the
    /// superword lowering and bit-identical to the interpreter of it, so
    /// serving on the interpreter (no body in the table, emission decline,
    /// probe rejection) changes speed, never results.
    #[default]
    Native,
    /// The safe superword interpreter: the kernel's whole-vector ops, one
    /// at a time, over checked slices, each lane one `f32::mul_add` — the
    /// fastest tier that needs no C toolchain and no proof, and the same on
    /// every ISA.
    Superword,
    /// The scalar tape — the checked floor: the flat executor that
    /// bounds-checks every access one lane at a time, which is what a
    /// declined proof of the native tier runs and what its promotion probe
    /// compares against. The pin runs it on every call.
    Tape,
}

impl ExecBackend {
    /// The next execution tier down the ladder (native → superword →
    /// tape), or `None` at the tape, the checked floor.
    ///
    /// This is the retry ladder of the fault-tolerant serving path: when a
    /// tier fails or panics on an entry, the entry is re-attempted once on
    /// the tier below the one it ran on, trading speed for a simpler
    /// executor. A failure on the tape is final: nothing below it checks
    /// more.
    pub fn degraded(self) -> Option<ExecBackend> {
        match self {
            ExecBackend::Native => Some(ExecBackend::Superword),
            ExecBackend::Superword => Some(ExecBackend::Tape),
            ExecBackend::Tape => None,
        }
    }
}

/// What a resolved tier runs a packed call on.
#[derive(Debug, Clone)]
enum Tier {
    /// The native body behind the memoised bounds proof, with the checked
    /// reference on a decline.
    Native(SimdDispatch),
    /// The superword interpreter with its own register file and loop
    /// table (checks every access itself).
    Superword(SuperwordDispatch),
    /// The scalar tape (checks every access itself) — also where a
    /// [`Tier::Native`] call goes when its proof declines.
    Tape(Arc<TapeKernel>),
}

/// A reusable packed-call handle on one resolved tier of a
/// [`GeneratedKernel`] — what [`GeneratedKernel::dispatcher`] returns.
///
/// It owns the native tier's memoised bounds proof, or the superword
/// interpreter's register file and loop table, so steady-state micro-tile
/// dispatch on either allocates and re-proves nothing: create one per
/// worker and reuse it for every tile.
/// Results are bit-for-bit those of a fresh handle on the same tier.
#[derive(Debug, Clone)]
pub struct TierDispatch {
    mr: usize,
    nr: usize,
    resolved: ExecBackend,
    tier: Tier,
}

impl GeneratedKernel {
    /// The handle that runs `backend`: the requested tier itself, except
    /// that [`ExecBackend::Native`] serves on the superword interpreter
    /// when the kernel has no native body ([`Self::native`]).
    pub fn dispatcher(&self, backend: ExecBackend) -> TierDispatch {
        let (resolved, tier) = self.resolve(backend);
        TierDispatch { mr: self.mr, nr: self.nr, resolved, tier }
    }

    /// The ladder: every tier resolves to itself but the native one, which
    /// is the superword interpreter when no body promoted.
    fn resolve(&self, asked: ExecBackend) -> (ExecBackend, Tier) {
        use ExecBackend::*;
        match asked {
            Native => match self.native() {
                Some(native) => (Native, Tier::Native(native.dispatcher())),
                None => self.resolve(Superword),
            },
            Superword => (Superword, Tier::Superword(self.superword.dispatcher())),
            Tape => (Tape, Tier::Tape(Arc::clone(&self.tape))),
        }
    }
}

impl TierDispatch {
    /// The tier this handle runs on — the requested backend, or the
    /// superword interpreter under a native request with no promoted body.
    pub fn tier(&self) -> ExecBackend {
        self.resolved
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
            Tier::Native(dispatch) => dispatch.run_packed(kc, ac, bc, c),
            Tier::Superword(dispatch) => dispatch.run_packed(kc, ac, bc, c),
            Tier::Tape(tape) => tape.run_packed(kc, ac, bc, c),
        };
        ran.map_err(GenError::Codegen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ladder_steps_down_one_rung_at_a_time_and_stops_at_the_tape() {
        use ExecBackend::*;
        let mut ladder = vec![Native];
        while let Some(below) = ladder.last().and_then(|tier| tier.degraded()) {
            ladder.push(below);
        }
        assert_eq!(ladder, [Native, Superword, Tape]);
    }

    #[test]
    fn a_native_request_without_a_body_serves_on_the_superword_interpreter() {
        use ExecBackend::*;
        // This crate links no table of native bodies, so no kernel has one.
        let kernel = crate::MicroKernelGenerator::new(exo_isa::neon_f32()).generate(8, 12).unwrap();
        assert!(kernel.native().is_none());
        let resolved = [Native, Superword, Tape].map(|pin| kernel.dispatcher(pin).tier());
        assert_eq!(resolved, [Superword, Superword, Tape]);
        let kc = 9;
        let a: Vec<f32> = (0..kc * 8).map(|i| (i % 7) as f32 * 0.37 - 1.0).collect();
        let b: Vec<f32> = (0..kc * 12).map(|i| (i % 5) as f32 * 0.21 - 0.5).collect();
        let mut handle = kernel.dispatcher(Native);
        let mut outputs = Vec::new();
        for pin in [Native, Superword, Tape] {
            let mut c = vec![0.5f32; 96];
            kernel.dispatcher(pin).run(kc, &a, &b, &mut c).unwrap();
            outputs.push(c);
        }
        let mut c = vec![0.5f32; 96];
        handle.run(kc, &a, &b, &mut c).unwrap();
        assert!(outputs.iter().all(|out| *out == c), "every rung computes the same bits");
    }
}
