//! The tier handle: what a GEMM engine holds and calls once per register
//! tile, and the one place in the workspace that calls a native body.
//!
//! A micro-kernel runs on one of two tiers — `native → superword`, the
//! faster first, the safe superword interpreter at the floor
//! ([`ExecBackend`]). A [`TierDispatch`] is a reusable packed-call handle
//! on one of them, and it owns that tier's state: the native body and its
//! memoised bounds proof, or the superword interpreter's register file and
//! loop table. So a warm call on either tier allocates and re-proves
//! nothing. Which tier a requested backend resolves to is not decided
//! here: the generator's `GeneratedKernel::dispatcher` is the one function
//! that maps a request onto a tier and builds the handle for it. The
//! scalar tape is no tier: it is the reference the promotion probe and the
//! tests compare every tier against ([`TapeKernel::run_views`]).
//!
//! **Arguments.** A handle is built for the packed `(KC, Ac, Bc, C)`
//! signature and checks it once, when it is built: one scalar, three
//! tensors, `Ac` and `Bc` never written. Its packed [`TierDispatch::run`]
//! then checks only that the operands have exactly the tile's lengths;
//! [`TierDispatch::run_views`] validates whatever views it is handed.
//!
//! **Selection and safety.** A [`SimdKernel`]'s body — the ahead-of-time
//! compiled C the `exo-aot` tier hands in through
//! [`SimdKernel::from_compiled`] — runs bounds-free and relies on exactly
//! the proofs the superword lowering established: the construction-time
//! register/loop-structure validation and the run-time affine-interval
//! proof over the tensor addresses. `SimdKernel::run_proved` is the **one
//! place** in the workspace that chooses between an unchecked body and a
//! checked run: proof admits → the body, proof declines → a one-shot
//! [`SuperwordKernel::run_views`], the safe interpreter of the ops the body
//! was emitted from, which fails where the tape fails, after the tape's
//! partial stores. The handle owns the proof memo, so a steady-state call
//! re-proves nothing; no GEMM call is declined, so the one-shot run's
//! register file is paid by misuse only.

use std::sync::Arc;

use crate::error::{CodegenError, Result};
use crate::simd::IsaKind;
use crate::superword::{ProofMemo, SuperwordKernel};
use crate::tape::{Machine, TapeKernel, TensorView};

/// Which execution tier a micro-kernel dispatches through — asked for one
/// way, the pin a caller passes to the generator's
/// `GeneratedKernel::dispatcher` (for the GEMM driver: the `backend` of its
/// kernel). Which ISA row the `native` tier's body is looked up for is a
/// separate, process-wide choice: `EXO_ISA` (see [`crate::active_isa`]) —
/// every host at least gets the scalar row. Every tier computes the same
/// bits.
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
    /// The safe superword interpreter — the floor: the kernel's
    /// whole-vector ops, one at a time, over checked slices, each lane one
    /// `f32::mul_add` — the tier that needs no C toolchain and no proof,
    /// the same on every ISA, and what a declined proof of the native tier
    /// runs.
    Superword,
}

impl ExecBackend {
    /// The next execution tier down the ladder (native → superword), or
    /// `None` at the superword interpreter, the floor.
    ///
    /// This is the retry ladder of the fault-tolerant serving path: when
    /// the native tier fails or panics on an entry, the entry is
    /// re-attempted once on the safe interpreter, the retry that covers
    /// the one `unsafe` body. A failure on the interpreter is final: the
    /// only checked executor below it, the tape, runs the same lowering
    /// through the same checked step and would return the same error.
    pub fn degraded(self) -> Option<ExecBackend> {
        match self {
            ExecBackend::Native => Some(ExecBackend::Superword),
            ExecBackend::Superword => None,
        }
    }
}

/// The packed micro-kernel C ABI `(KC, Ac, Bc, C)` — the signature of the
/// function [`crate::emit_superword_c`] emits, and so of every
/// ahead-of-time compiled body handed to [`SimdKernel::from_compiled`].
pub type PackedKernelFn = unsafe extern "C" fn(i64, *const f32, *const f32, *mut f32);

/// A validated superword kernel paired with the body compiled for one
/// vector ISA from its C.
///
/// Obtained from [`SimdKernel::from_compiled`] — how the `exo-aot` native
/// tier hands in a body compiled when the workspace was built — and run
/// through [`TierDispatch::native`]. The body computes the bits of the
/// superword interpreter, of the tape and of the reference interpreter, on
/// every ISA, run and thread count. Every run goes through the one
/// proved-call site, so a body changes speed, never results, safety or
/// errors.
pub struct SimdKernel {
    source: Arc<SuperwordKernel>,
    isa: IsaKind,
    entry: PackedKernelFn,
}

impl std::fmt::Debug for SimdKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimdKernel")
            .field("name", &self.source.name())
            .field("isa", &self.isa.name())
            .finish_non_exhaustive()
    }
}

impl SimdKernel {
    /// Pairs a superword kernel with ahead-of-time compiled code as its
    /// unchecked body, behind the proved-call site (and the superword
    /// interpreter on a declined proof).
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::BadArguments`] if `source` does not have the
    /// packed `(KC, Ac, Bc, C)` signature `entry` is called with.
    ///
    /// # Safety
    ///
    /// `entry` must be the function [`crate::emit_superword_c`] emits for
    /// `source` and `isa`, compiled for this host, and must stay callable
    /// for as long as the kernel lives.
    pub unsafe fn from_compiled(
        source: Arc<SuperwordKernel>,
        isa: IsaKind,
        entry: PackedKernelFn,
    ) -> Result<SimdKernel> {
        source.tape().check_packed_signature()?;
        Ok(SimdKernel { source, isa, entry })
    }

    /// The superword kernel this body was lowered from (the owner of the
    /// proofs, and the checked run of a declined call).
    pub fn source(&self) -> &Arc<SuperwordKernel> {
        &self.source
    }

    /// The vector ISA this kernel's body targets — the reported-ISA probe
    /// the cross-target CI asserts against.
    pub fn isa(&self) -> IsaKind {
        self.isa
    }

    /// The one proved-call site: every run of a compiled body chooses here
    /// between that body and the superword interpreter. `tensors` are views
    /// the caller built or validated for the packed signature.
    ///
    /// `#[inline]` from here up to [`TierDispatch::run`]: this is the
    /// per-micro-tile call, and inlining it into the packed callers (other
    /// crates) lets their fixed one-scalar/three-tensor shape fold the
    /// view handling.
    #[inline]
    fn run_proved(
        &self,
        scalars: &[i64],
        tensors: &mut [TensorView<'_>],
        proofs: &mut ProofMemo,
    ) -> Result<()> {
        if !proofs.admits(&self.source, scalars, tensors) {
            // Declined (and memoised as declined): the superword
            // interpreter runs the call one-shot and reports what it finds.
            return self.source.run_views(scalars, tensors);
        }
        // `from_compiled` checked the one-scalar/three-tensor packed
        // signature, and every caller hands in views of those counts (the
        // packed `run` builds them, `run_views` validates them), so `C` is
        // the one tensor the body writes. A read-only view's `*mut` is
        // never written through: the validation turns away a read-only
        // view of a tensor the kernel writes.
        let [ac, bc, c] = tensors else { unreachable!("validated: three tensors") };
        let (ac, bc) = (ac.as_slice().as_ptr(), bc.as_slice().as_ptr());
        let c = match c {
            TensorView::Rw(c) => c.as_mut_ptr(),
            TensorView::Ro(c) => c.as_ptr().cast_mut(),
        };
        // SAFETY: `entry` is the compiled C of the source kernel
        // (`from_compiled`'s contract), whose construction proof covers
        // every register operand and the loop structure; `admits` just
        // certified (or recalled the certification of) every tensor access
        // for these exact scalars and buffer lengths.
        unsafe { (self.entry)(scalars[0], ac, bc, c) };
        Ok(())
    }
}

/// The state one tier runs a call with.
#[derive(Debug, Clone)]
enum Tier {
    /// The native body behind the memoised bounds proof, with a one-shot
    /// superword interpreter run on a decline.
    Native { body: Arc<SimdKernel>, proofs: ProofMemo },
    /// The superword interpreter with its own register file and loop table
    /// (checks every access itself).
    Superword { kernel: Arc<SuperwordKernel>, machine: Machine },
}

/// A reusable packed-call handle on one tier of an `mr x nr` micro-kernel.
///
/// It owns its tier's state — the native tier's memoised bounds proof, or
/// the superword interpreter's register file and loop table — so
/// steady-state micro-tile dispatch allocates and re-proves nothing:
/// create one per worker and reuse it for every tile. Results are
/// bit-for-bit those of a fresh handle on the same tier.
#[derive(Debug, Clone)]
pub struct TierDispatch {
    mr: usize,
    nr: usize,
    tier: Tier,
}

impl TierDispatch {
    /// A handle on the native tier: `body` behind the proved-call site.
    ///
    /// # Errors
    ///
    /// [`CodegenError::BadArguments`] if the kernel does not have the
    /// packed signature or writes `Ac` or `Bc`.
    pub fn native(body: Arc<SimdKernel>, mr: usize, nr: usize) -> Result<TierDispatch> {
        TierDispatch::new(mr, nr, Tier::Native { body, proofs: ProofMemo::default() })
    }

    /// A handle on the superword interpreter of `kernel`.
    ///
    /// # Errors
    ///
    /// As [`Self::native`].
    pub fn superword(kernel: Arc<SuperwordKernel>, mr: usize, nr: usize) -> Result<TierDispatch> {
        let machine = kernel.tape().machine();
        TierDispatch::new(mr, nr, Tier::Superword { kernel, machine })
    }

    /// The handle, once the packed call's argument validation passed on
    /// empty operands: one scalar, three tensors, `Ac` and `Bc` read-only —
    /// what [`Self::run`] never checks again.
    fn new(mr: usize, nr: usize, tier: Tier) -> Result<TierDispatch> {
        let handle = TierDispatch { mr, nr, tier };
        handle
            .source_tape()
            .validate_views(&[0], &[TensorView::Ro(&[]), TensorView::Ro(&[]), TensorView::Rw(&mut [])])?;
        Ok(handle)
    }

    /// The tier this handle runs on.
    pub fn tier(&self) -> ExecBackend {
        match self.tier {
            Tier::Native { .. } => ExecBackend::Native,
            Tier::Superword { .. } => ExecBackend::Superword,
        }
    }

    /// How many distinct `(scalars, buffer lengths)` proof inputs the
    /// native tier has memoised so far (a well-blocked GEMM sees only a
    /// handful); 0 on the superword tier, which proves nothing.
    pub fn memoised_proofs(&self) -> usize {
        match &self.tier {
            Tier::Native { proofs, .. } => proofs.len(),
            Tier::Superword { .. } => 0,
        }
    }

    /// Whether a call with these scalars and views runs the native body
    /// rather than the superword interpreter: the bounds proof this handle
    /// memoises, run for an input it has not seen and recalled after, so a
    /// [`Self::run_views`] of the same input proves nothing again. `false`
    /// on the superword tier, which never runs a body unchecked.
    ///
    /// # Errors
    ///
    /// [`CodegenError::BadArguments`] on an argument mismatch, as
    /// [`Self::run_views`].
    pub fn admits(&mut self, scalars: &[i64], tensors: &[TensorView<'_>]) -> Result<bool> {
        self.source_tape().validate_views(scalars, tensors)?;
        Ok(match &mut self.tier {
            Tier::Native { body, proofs } => proofs.admits(&body.source, scalars, tensors),
            Tier::Superword { .. } => false,
        })
    }

    /// Runs the kernel on packed operands: `c[nr][mr] += ac[kc][mr] *
    /// bc[kc][nr]` (row-major, exactly the layouts of the paper's Fig. 5).
    ///
    /// # Errors
    ///
    /// [`CodegenError::BadArguments`] if the buffers do not have exactly
    /// the tile's lengths at this `kc` — the call's one check; the
    /// signature was checked when the handle was built.
    #[inline]
    pub fn run(&mut self, kc: usize, ac: &[f32], bc: &[f32], c: &mut [f32]) -> Result<()> {
        let (mr, nr) = (self.mr, self.nr);
        if ac.len() != kc * mr || bc.len() != kc * nr || c.len() != mr * nr {
            return Err(CodegenError::BadArguments {
                reason: format!(
                    "expected Ac[{}], Bc[{}], C[{}] for a {mr}x{nr} kernel with KC={kc}",
                    kc * mr,
                    kc * nr,
                    mr * nr
                ),
            });
        }
        self.execute(&[kc as i64], &mut [TensorView::Ro(ac), TensorView::Ro(bc), TensorView::Rw(c)])
    }

    /// Runs the kernel over borrowed tensor views of any length, validated
    /// first; on the native tier a call the bounds proof declines runs the
    /// superword interpreter.
    ///
    /// # Errors
    ///
    /// Exactly [`TapeKernel::run_views`]'s: [`CodegenError::BadArguments`]
    /// on an argument mismatch, and [`CodegenError::OutOfBounds`] for the
    /// first access that leaves its buffer, after the tape's partial
    /// stores.
    pub fn run_views(&mut self, scalars: &[i64], tensors: &mut [TensorView<'_>]) -> Result<()> {
        self.source_tape().validate_views(scalars, tensors)?;
        self.execute(scalars, tensors)
    }

    /// The scalar tape under this handle's tier: the signature its views
    /// are validated against.
    fn source_tape(&self) -> &TapeKernel {
        match &self.tier {
            Tier::Native { body, .. } => body.source.tape(),
            Tier::Superword { kernel, .. } => kernel.tape(),
        }
    }

    /// Runs validated views on this handle's tier and state.
    #[inline]
    fn execute(&mut self, scalars: &[i64], tensors: &mut [TensorView<'_>]) -> Result<()> {
        match &mut self.tier {
            Tier::Native { body, proofs } => body.run_proved(scalars, tensors, proofs),
            Tier::Superword { kernel, machine } => kernel.interpret(machine, scalars, tensors),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::active_isa;
    use crate::tape::compile as compile_proc;
    use exo_ir::builder::*;
    use exo_ir::{Expr, MemSpace, ScalarType};

    #[test]
    fn the_ladder_steps_down_one_rung_at_a_time_and_stops_at_the_tape() {
        use ExecBackend::*;
        let mut ladder = vec![Native];
        while let Some(below) = ladder.last().and_then(|tier| tier.degraded()) {
            ladder.push(below);
        }
        assert_eq!(ladder, [Native, Superword]);
    }

    /// A packed-signature kernel that stores into C *inside* the KC loop
    /// (`c[k] = ac[k] + bc[0]`), so a claimed KC past the buffers leaves
    /// partial stores behind before the faulting access.
    fn partial_stores_kernel() -> Arc<SuperwordKernel> {
        let p = proc("partial")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC")], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![int(1)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![var("KC")], MemSpace::Dram)
            .body(vec![for_(
                "k",
                0,
                var("KC"),
                vec![assign(
                    "C",
                    vec![var("k")],
                    Expr::add(read("Ac", vec![var("k")]), read("Bc", vec![int(0)])),
                )],
            )])
            .build();
        Arc::new(Arc::new(compile_proc(&p).unwrap()).to_superword().unwrap())
    }

    /// A stand-in for ahead-of-time compiled code: a declined proof must
    /// never reach it.
    unsafe extern "C" fn never_called(_kc: i64, _ac: *const f32, _bc: *const f32, _c: *mut f32) {
        panic!("an unchecked body ran on a call its proof declined");
    }

    /// ... and an admitted call must: this one leaves its mark in `C[0]`.
    unsafe extern "C" fn marks_c0(kc: i64, _ac: *const f32, _bc: *const f32, c: *mut f32) {
        *c = 42.0 + kc as f32;
    }

    /// A native handle on `sw` with a stand-in body behind the proved-call
    /// site. The partial-stores kernel has no `mr x nr` tile, so its calls
    /// go through [`TierDispatch::run_views`], which checks none.
    fn with_body(sw: &Arc<SuperwordKernel>, entry: PackedKernelFn) -> TierDispatch {
        // SAFETY: both stand-ins have the packed ABI and are plain
        // functions (callable for good); `never_called` is only paired
        // with calls its proof declines, and `marks_c0` writes only `C[0]`,
        // which every admitted call (KC >= 1) owns.
        let body = unsafe { SimdKernel::from_compiled(Arc::clone(sw), active_isa(), entry) }.unwrap();
        TierDispatch::native(Arc::new(body), 1, 1).unwrap()
    }

    /// A packed call `(KC, Ac, Bc, C)` through the handle's views door,
    /// with whatever lengths the operands have.
    fn run_packed(handle: &mut TierDispatch, kc: usize, ac: &[f32], bc: &[f32], c: &mut [f32]) -> Result<()> {
        handle.run_views(&[kc as i64], &mut [TensorView::Ro(ac), TensorView::Ro(bc), TensorView::Rw(c)])
    }

    #[test]
    fn a_declined_proof_takes_one_route_to_the_checked_reference_whatever_the_body() {
        let sw = partial_stores_kernel();
        let (ac, bc, c0) = (vec![1.0f32, 2.0, 3.0, 4.0, 5.0], vec![0.5f32], vec![-1.0f32; 8]);
        // KC = 9 over a 5-element Ac: the load of Ac[5] faults after five
        // stores landed.
        let kc = 9usize;
        let mut c_ref = c0.clone();
        let want = sw
            .tape()
            .run_views(
                &[kc as i64],
                &mut [TensorView::Ro(&ac), TensorView::Ro(&bc), TensorView::Rw(&mut c_ref)],
            )
            .unwrap_err();
        assert_eq!(want, CodegenError::OutOfBounds { buf: "Arg(0)".into(), index: 5, len: 5 });
        assert_eq!(&c_ref[..6], &[1.5, 2.5, 3.5, 4.5, 5.5, -1.0]);
        // The superword interpreter needs no proof and checks every access
        // itself: the same error after the same stores.
        let mut c_interp = c0.clone();
        assert_eq!(sw.run_packed(kc, &ac, &bc, &mut c_interp), Err(want.clone()));
        assert_eq!(c_interp, c_ref, "the interpreter's partial stores");

        for (label, entry) in [("never called", never_called as PackedKernelFn), ("marks", marks_c0)] {
            let mut c_one_shot = c0.clone();
            let one_shot = run_packed(&mut with_body(&sw, entry), kc, &ac, &bc, &mut c_one_shot);
            assert_eq!(one_shot, Err(want.clone()), "{label}");
            assert_eq!(c_one_shot, c_ref, "{label}: partial stores of the one-shot run");
            let mut dispatch = with_body(&sw, entry);
            for attempt in 0..2 {
                let mut c = c0.clone();
                assert_eq!(run_packed(&mut dispatch, kc, &ac, &bc, &mut c), Err(want.clone()), "{label}");
                assert_eq!(c, c_ref, "{label}: partial stores through the handle, attempt {attempt}");
            }
            assert_eq!(dispatch.memoised_proofs(), 1, "{label}: the declined verdict is memoised");
        }

        // The same site hands an *admitted* call to the compiled body.
        let mut c = c0.clone();
        run_packed(&mut with_body(&sw, marks_c0), 5, &ac, &bc, &mut c[..5]).unwrap();
        assert_eq!(c[0], 47.0);
    }

    #[test]
    fn out_of_bounds_falls_back_to_the_checked_loop_with_identical_errors() {
        let sw = partial_stores_kernel();
        let (ac, bc) = (vec![1.0f32; 9], vec![0.5f32]);
        // Claim KC = 7 over a 2-element C: what the scalar tape itself
        // reports, and the partial stores it leaves behind.
        let mut c_tape = vec![0.0f32; 2];
        let want = sw.tape().run_packed(7, &ac[..7], &bc, &mut c_tape);
        assert_eq!(want, Err(CodegenError::OutOfBounds { buf: "Arg(2)".into(), index: 2, len: 2 }));
        assert_eq!(c_tape, vec![1.5, 1.5]);
        let mut dispatch = with_body(&sw, marks_c0);
        let mut c = vec![0.0f32; 2];
        assert_eq!(run_packed(&mut dispatch, 7, &ac[..7], &bc, &mut c), want);
        assert_eq!(c, c_tape, "partial stores precede the error");
        assert_eq!(dispatch.memoised_proofs(), 1);
        // A `C` long enough is a second input, proved and handed to the body.
        let mut c = vec![0.0f32; 7];
        run_packed(&mut dispatch, 7, &ac[..7], &bc, &mut c).unwrap();
        assert_eq!(c[0], 49.0, "the compiled body ran");
        assert_eq!(dispatch.memoised_proofs(), 2);
    }

    #[test]
    fn dispatch_handle_matches_one_shot_runs_and_memoises_proofs() {
        let sw = partial_stores_kernel();
        let mut dispatch = with_body(&sw, marks_c0);
        // The per-GEMM dispatch pattern: many tiles, two distinct KC values
        // (full and fringe) — the proof runs once per distinct input.
        for rep in 0..6 {
            for &kc in &[17usize, 5] {
                let a: Vec<f32> = (0..kc).map(|i| ((i * 7 + rep) % 13) as f32 * 0.5 - 2.0).collect();
                let c0: Vec<f32> = (0..kc).map(|i| ((i + rep) % 5) as f32 * 0.5).collect();
                let mut c_dispatch = c0.clone();
                run_packed(&mut dispatch, kc, &a, &[0.25], &mut c_dispatch).unwrap();
                let mut c_one_shot = c0.clone();
                run_packed(&mut with_body(&sw, marks_c0), kc, &a, &[0.25], &mut c_one_shot).unwrap();
                assert_eq!(c_dispatch, c_one_shot, "kc={kc} rep={rep}");
                assert_eq!(c_dispatch[0], 42.0 + kc as f32, "kc={kc}: the body ran");
            }
        }
        assert_eq!(dispatch.memoised_proofs(), 2, "one proof per distinct (KC, lens) input");
    }
}
