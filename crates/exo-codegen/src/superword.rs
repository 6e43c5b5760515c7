//! The superword lowering: whole-vector tape ops, the safe interpreter
//! that runs them, and the proofs the native tier's unchecked bodies rest
//! on.
//!
//! The scalar tape of [`crate::tape`] already erased the expression trees,
//! but it still *scalarises* the kernel's vector instructions: a
//! `vld1q_f32` becomes four `LoadT` ops, a `vfmaq_laneq_f32` four `Fma`
//! ops. This module closes that gap with a classic
//! superword-level-parallelism (SLP) pass over the scalar tape: runs of
//! isomorphic lane ops over consecutive registers and consecutive affine
//! addresses are re-rolled into whole-vector ops —
//!
//! * `VLoad` / `VStore` — `lanes` contiguous elements moved between a
//!   tensor and a lane-aligned run of the register file (the tape's local
//!   allocator aligns every local to `LANE_ALIGN` registers),
//! * `VFmaLane` — `reg[dst+i] += reg[a+i] * reg[b]` for `i in 0..lanes`,
//!   the `vfmaq_laneq_f32` shape (one lane of a vector register broadcast
//!   across the accumulator),
//! * `VFmaBcast` — the broadcast-from-memory FMA of `vfmaq_n_f32`: the
//!   scalar tape's repeated `[LoadT rhs; Fma]` pairs collapse into one
//!   load plus a vector FMA.
//!
//! A [`SuperwordKernel`] is the IR two tiers consume: the C of
//! [`crate::emit_superword_c`], which the native tier compiles when the
//! workspace builds, and the **superword interpreter** of this module —
//! the floor of the tier ladder, the executor of a kernel the build left
//! no native body for and of a call whose bounds proof declined, and the
//! test oracle of the SLP pass on any schedule. The interpreter runs one op at a time over the tape's
//! register file, with checked slices and one [`f32::mul_add`] per lane;
//! the scalar ops packing left go through the tape's own checked step
//! (`tape::Machine`). It needs no proof: an access that leaves its buffer
//! is the tape's `OutOfBounds` error, at the tape's index, after the
//! tape's partial stores — a vector store lands its in-bounds prefix lane
//! by lane first. Like the tape it holds no `unsafe`, and the compiler
//! enforces that.
//!
//! **The native tier's proofs.** [`TapeKernel::to_superword`] proves, at
//! construction time, that every register operand (including the full
//! `dst..dst+lanes` runs) stays inside the register file, that the loop
//! structure is well formed, and that no packed op's scalar operand is
//! clobbered by its own accumulator writes. At run time, a single exact
//! interval analysis over the (affine) addresses and the dynamic-loop
//! bounds (`bounds_provable`, memoised per dispatch handle by
//! `ProofMemo`) proves every tensor access in bounds *before* a compiled
//! body is called. When the proof does not go through, the call runs the
//! interpreter instead, one-shot ([`SuperwordKernel::run_views`]), which
//! fails as the scalar tape ([`TapeKernel::run_views`]) would.
//!
//! Packing preserves the scalar tape's exact op order within each packed
//! group (lanes execute in ascending order, multiplication commutes
//! bitwise, each lane one fused multiply-add), so the interpreter and the
//! compiled bodies are **bit-for-bit** equal to the scalar tape and the
//! reference interpreter; the differential suite in `tests/tape_exec.rs`
//! asserts this across every registry shape and ISA row.

#![forbid(unsafe_code)]

use std::sync::Arc;

use crate::error::{CodegenError, Result};
use crate::tape::{out_of_bounds, Addr, Machine, TOp, TapeKernel, TensorView, Term};

/// One superword tape operation. Packed ops carry their lane count; scalar
/// leftovers ride along unchanged.
#[derive(Debug, Clone)]
pub(crate) enum VOp {
    /// A scalar tape op that did not pack (never a loop marker).
    Scalar(TOp),
    /// `reg[dst..dst+lanes] = tensor[buf][addr..addr+lanes]`
    VLoad { dst: u32, buf: u16, addr: Addr, lanes: u32 },
    /// `tensor[buf][addr..addr+lanes] = reg[src..src+lanes]`
    VStore { src: u32, buf: u16, addr: Addr, lanes: u32 },
    /// `reg[dst+i] += reg[a+i] * reg[b]` for `i in 0..lanes` (`b` is one
    /// lane of a vector register, held fixed across the run).
    VFmaLane { dst: u32, a: u32, b: u32, lanes: u32 },
    /// `reg[scratch] = tensor[buf][addr]; reg[dst+i] += reg[a+i] *
    /// reg[scratch]` for `i in 0..lanes` — the broadcast-from-memory FMA.
    /// `scratch` is written so the register file finishes in exactly the
    /// state the scalar sequence leaves it in.
    VFmaBcast { dst: u32, a: u32, buf: u16, addr: Addr, scratch: u32, lanes: u32 },
    /// Enter a dynamic loop: evaluate bounds, jump to `end` if empty.
    LoopBegin { slot: u16, lo: Addr, hi: Addr, end: u32 },
    /// Bottom of a dynamic loop: bump the counter, jump back while it holds.
    LoopEnd { slot: u16, begin: u32 },
}

impl VOp {
    /// Whether this packed FMA must execute its lanes strictly ascending,
    /// one at a time: its operand run `a..a+lanes` *partially* overlaps
    /// its accumulator run `dst..dst+lanes`, so a later lane reads what an
    /// earlier lane wrote and whole-vector loads would read stale values
    /// (`a == dst` is whole-run aliasing, which a vector load-then-store
    /// gets right). The rule the C emitter lowers from (the interpreter
    /// runs every lane in order anyway). `false` for every op that is not
    /// a packed FMA.
    pub(crate) fn fma_in_order(&self) -> bool {
        match *self {
            VOp::VFmaLane { dst, a, lanes, .. } | VOp::VFmaBcast { dst, a, lanes, .. } => {
                a != dst && a < dst + lanes && dst < a + lanes
            }
            _ => false,
        }
    }

    /// Every run `(base, len)` of the register file this op reads or
    /// writes — a packed FMA's accumulator run first. What the
    /// construction-time validation bounds against the file and
    /// [`SuperwordKernel::split_accumulator_groups`] cuts into lane groups.
    fn register_runs(&self) -> Vec<(u32, u32)> {
        match self {
            VOp::Scalar(s) => match s {
                TOp::ConstF { dst, .. } | TOp::LoadT { dst, .. } | TOp::CastI { dst, .. } => vec![(*dst, 1)],
                TOp::StoreT { src, .. } => vec![(*src, 1)],
                TOp::Round { reg } => vec![(*reg, 1)],
                TOp::Mov { dst, src } | TOp::Neg { dst, src } | TOp::AddAssign { dst, src } => {
                    vec![(*dst, 1), (*src, 1)]
                }
                TOp::Add { dst, a, b }
                | TOp::Sub { dst, a, b }
                | TOp::Mul { dst, a, b }
                | TOp::Div { dst, a, b }
                | TOp::Fma { dst, a, b } => vec![(*dst, 1), (*a, 1), (*b, 1)],
                TOp::Zero { base, len } => vec![(*base, *len)],
                TOp::LoopBegin { .. } | TOp::LoopEnd { .. } => Vec::new(),
            },
            VOp::VLoad { dst, lanes, .. } => vec![(*dst, *lanes)],
            VOp::VStore { src, lanes, .. } => vec![(*src, *lanes)],
            VOp::VFmaLane { dst, a, b, lanes } => vec![(*dst, *lanes), (*a, *lanes), (*b, 1)],
            VOp::VFmaBcast { dst, a, scratch, lanes, .. } => {
                vec![(*dst, *lanes), (*a, *lanes), (*scratch, 1)]
            }
            VOp::LoopBegin { .. } | VOp::LoopEnd { .. } => Vec::new(),
        }
    }

    /// The `(start, width)` pieces an executor `lanes` wide moves one of
    /// this op's register runs in: whole vectors from the run's base, then
    /// a narrower tail — or single registers throughout when the op's lane
    /// order is semantic ([`Self::fma_in_order`]).
    fn pieces(&self, (base, len): (u32, u32), lanes: u32) -> impl Iterator<Item = (u32, u32)> {
        let width = if self.fma_in_order() { 1 } else { lanes };
        (0..len.div_ceil(width)).map(move |i| (base + i * width, width.min(len - i * width)))
    }
}

/// A kernel lowered to whole-vector superword ops.
///
/// Obtained from [`TapeKernel::to_superword`]. Describes bit-for-bit the same
/// computation as the scalar tape and the interpreter, one vector register
/// per op instead of one lane; executed by the superword interpreter
/// ([`Self::run_views`], [`crate::TierDispatch::superword`]) — which also
/// runs a call whose bounds proof declined — and by the native bodies
/// compiled from its C ([`crate::SimdKernel`]).
#[derive(Debug, Clone)]
pub struct SuperwordKernel {
    /// The scalar tape these ops were packed from: the signature, the
    /// register-file and loop-table sizes, and the reference the probe
    /// compares against.
    tape: Arc<TapeKernel>,
    pub(crate) ops: Vec<VOp>,
    n_vector_ops: usize,
}

fn unsupported(what: impl Into<String>) -> CodegenError {
    CodegenError::Unsupported { backend: "superword", what: what.into() }
}

/// Maximal `VLoad` run starting at `ops[i]`: consecutive destination
/// registers fed from consecutive addresses of one buffer.
fn try_vload(ops: &[TOp], i: usize) -> Option<(VOp, usize)> {
    let TOp::LoadT { dst, buf, addr } = &ops[i] else { return None };
    let mut lanes: u32 = 1;
    while let Some(TOp::LoadT { dst: d2, buf: b2, addr: a2 }) = ops.get(i + lanes as usize) {
        if *b2 == *buf && *d2 == dst.wrapping_add(lanes) && addr.offset_by(a2, i64::from(lanes)) {
            lanes += 1;
        } else {
            break;
        }
    }
    (lanes >= 2).then(|| (VOp::VLoad { dst: *dst, buf: *buf, addr: addr.clone(), lanes }, lanes as usize))
}

/// Maximal `VStore` run starting at `ops[i]`.
fn try_vstore(ops: &[TOp], i: usize) -> Option<(VOp, usize)> {
    let TOp::StoreT { src, buf, addr } = &ops[i] else { return None };
    let mut lanes: u32 = 1;
    while let Some(TOp::StoreT { src: s2, buf: b2, addr: a2 }) = ops.get(i + lanes as usize) {
        if *b2 == *buf && *s2 == src.wrapping_add(lanes) && addr.offset_by(a2, i64::from(lanes)) {
            lanes += 1;
        } else {
            break;
        }
    }
    (lanes >= 2).then(|| (VOp::VStore { src: *src, buf: *buf, addr: addr.clone(), lanes }, lanes as usize))
}

/// Maximal `VFmaLane` run starting at `ops[i]`: consecutive accumulators,
/// one operand consecutive, the other held fixed. Multiplication commutes
/// bitwise, so the fixed operand becomes the broadcast lane either way.
fn try_vfma_lane(ops: &[TOp], i: usize) -> Option<(VOp, usize)> {
    let TOp::Fma { dst, a, b } = &ops[i] else { return None };
    let TOp::Fma { dst: d1, a: a1, b: b1 } = ops.get(i + 1)? else { return None };
    if *d1 != dst + 1 {
        return None;
    }
    // (vector operand base, fixed lane operand), determined by the second op.
    let (vec0, lane) = if *a1 == a + 1 && b1 == b {
        (*a, *b)
    } else if a1 == a && *b1 == b + 1 {
        (*b, *a)
    } else {
        return None;
    };
    let mut lanes: u32 = 2;
    while let Some(TOp::Fma { dst: d2, a: a2, b: b2 }) = ops.get(i + lanes as usize) {
        let (v2, l2) = if lane == *b { (*a2, *b2) } else { (*b2, *a2) };
        if *d2 == dst.wrapping_add(lanes) && v2 == vec0.wrapping_add(lanes) && l2 == lane {
            lanes += 1;
        } else {
            break;
        }
    }
    // The fixed lane register is read once per lane; hoisting it out of the
    // loop is only sound if no accumulator write can change it.
    if lane >= *dst && lane < dst + lanes {
        return None;
    }
    Some((VOp::VFmaLane { dst: *dst, a: vec0, b: lane, lanes }, lanes as usize))
}

/// Maximal `VFmaBcast` run starting at `ops[i]`: repeated `[LoadT t; Fma
/// {dst+i, a+i, t}]` pairs where every load reads the *same* address into
/// the *same* scratch register — the scalarised broadcast FMA. One load
/// replaces them all (each re-load wrote the identical value).
fn try_vfma_bcast(ops: &[TOp], i: usize) -> Option<(VOp, usize)> {
    let TOp::LoadT { dst: t, buf, addr } = &ops[i] else { return None };
    let TOp::Fma { dst, a, b } = ops.get(i + 1)? else { return None };
    if b != t {
        return None;
    }
    let mut lanes: u32 = 1;
    loop {
        let j = i + 2 * lanes as usize;
        match (ops.get(j), ops.get(j + 1)) {
            (Some(TOp::LoadT { dst: t2, buf: b2, addr: a2 }), Some(TOp::Fma { dst: d2, a: av2, b: bv2 }))
                if t2 == t
                    && *b2 == *buf
                    && addr.offset_by(a2, 0)
                    && *d2 == dst.wrapping_add(lanes)
                    && *av2 == a.wrapping_add(lanes)
                    && bv2 == t =>
            {
                lanes += 1;
            }
            _ => break,
        }
    }
    if lanes < 2 {
        return None;
    }
    // The scratch register must survive the accumulator writes, or later
    // lanes would read a clobbered broadcast value.
    if *t >= *dst && *t < dst + lanes {
        return None;
    }
    Some((
        VOp::VFmaBcast { dst: *dst, a: *a, buf: *buf, addr: addr.clone(), scratch: *t, lanes },
        2 * lanes as usize,
    ))
}

/// The superword packing pass: re-roll isomorphic scalar runs into vector
/// ops, rebuilding loop jump targets for the shorter op list.
fn pack(ops: &[TOp]) -> Result<Vec<VOp>> {
    let mut out: Vec<VOp> = Vec::with_capacity(ops.len());
    let mut begin_stack: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        match &ops[i] {
            TOp::LoopBegin { slot, lo, hi, .. } => {
                begin_stack.push(out.len());
                out.push(VOp::LoopBegin { slot: *slot, lo: lo.clone(), hi: hi.clone(), end: 0 });
                i += 1;
            }
            TOp::LoopEnd { slot, .. } => {
                let begin = begin_stack.pop().ok_or_else(|| unsupported("unbalanced loop end"))?;
                out.push(VOp::LoopEnd { slot: *slot, begin: begin as u32 });
                let end = out.len() as u32;
                let VOp::LoopBegin { end: e, .. } = &mut out[begin] else { unreachable!() };
                *e = end;
                i += 1;
            }
            op @ TOp::LoadT { .. } => {
                if let Some((vop, used)) = try_vfma_bcast(ops, i).or_else(|| try_vload(ops, i)) {
                    out.push(vop);
                    i += used;
                } else {
                    out.push(VOp::Scalar(op.clone()));
                    i += 1;
                }
            }
            op @ TOp::StoreT { .. } => {
                if let Some((vop, used)) = try_vstore(ops, i) {
                    out.push(vop);
                    i += used;
                } else {
                    out.push(VOp::Scalar(op.clone()));
                    i += 1;
                }
            }
            op @ TOp::Fma { .. } => {
                if let Some((vop, used)) = try_vfma_lane(ops, i) {
                    out.push(vop);
                    i += used;
                } else {
                    out.push(VOp::Scalar(op.clone()));
                    i += 1;
                }
            }
            op => {
                out.push(VOp::Scalar(op.clone()));
                i += 1;
            }
        }
    }
    if !begin_stack.is_empty() {
        return Err(unsupported("unterminated loop"));
    }
    Ok(out)
}

/// Construction-time proof obligations of every bounds-free executor:
/// every register operand (including whole `dst..dst+lanes` runs) indexes
/// inside the register file, every buffer index inside the parameter list,
/// every affine term inside its scalar/loop table (loop terms only under an
/// open loop), and the loop markers form a well-nested structure with
/// consistent jump targets.
fn validate_construction(
    ops: &[VOp],
    n_regs: usize,
    n_dyn: usize,
    n_scalars: usize,
    n_tensors: usize,
) -> Result<()> {
    let buf = |b: u16| -> Result<()> {
        if (b as usize) >= n_tensors {
            return Err(unsupported(format!("tensor index {b} out of {n_tensors}")));
        }
        Ok(())
    };
    let mut active = vec![false; n_dyn];
    let addr = |a: &Addr, active: &[bool]| -> Result<()> {
        a.terms().try_for_each(|(t, _)| match t {
            Term::Scalar(s) if (s as usize) < n_scalars => Ok(()),
            Term::Loop(l) if (l as usize) < n_dyn && active[l as usize] => Ok(()),
            _ => Err(unsupported("affine term outside its table or loop")),
        })
    };
    let mut stack: Vec<(usize, u16)> = Vec::new();
    for (idx, op) in ops.iter().enumerate() {
        for (r, lanes) in op.register_runs() {
            if (r as usize) + (lanes as usize) > n_regs {
                return Err(unsupported(format!("register run {r}+{lanes} exceeds file of {n_regs}")));
            }
        }
        match op {
            VOp::Scalar(TOp::LoadT { buf: b, addr: a, .. } | TOp::StoreT { buf: b, addr: a, .. })
            | VOp::VLoad { buf: b, addr: a, .. }
            | VOp::VStore { buf: b, addr: a, .. } => {
                buf(*b)?;
                addr(a, &active)?;
            }
            VOp::Scalar(TOp::CastI { value, .. }) => addr(value, &active)?,
            VOp::Scalar(TOp::LoopBegin { .. } | TOp::LoopEnd { .. }) => {
                return Err(unsupported("loop marker hidden in a scalar op"))
            }
            VOp::Scalar(
                TOp::ConstF { .. }
                | TOp::Mov { .. }
                | TOp::Neg { .. }
                | TOp::AddAssign { .. }
                | TOp::Add { .. }
                | TOp::Sub { .. }
                | TOp::Mul { .. }
                | TOp::Div { .. }
                | TOp::Fma { .. }
                | TOp::Round { .. }
                | TOp::Zero { .. },
            ) => {}
            VOp::VFmaLane { dst, b, lanes, .. } => {
                if *b >= *dst && *b < dst + lanes {
                    return Err(unsupported("broadcast lane aliases its accumulator run"));
                }
            }
            VOp::VFmaBcast { dst, buf: b, addr: ad, scratch, lanes, .. } => {
                buf(*b)?;
                addr(ad, &active)?;
                if *scratch >= *dst && *scratch < dst + lanes {
                    return Err(unsupported("broadcast scratch aliases its accumulator run"));
                }
            }
            VOp::LoopBegin { slot, lo, hi, .. } => {
                if (*slot as usize) >= n_dyn || active[*slot as usize] {
                    return Err(unsupported("bad loop slot"));
                }
                addr(lo, &active)?;
                addr(hi, &active)?;
                stack.push((idx, *slot));
                active[*slot as usize] = true;
            }
            VOp::LoopEnd { slot, begin } => {
                let Some((b_idx, b_slot)) = stack.pop() else {
                    return Err(unsupported("unbalanced loop end"));
                };
                let VOp::LoopBegin { end, .. } = &ops[b_idx] else { unreachable!() };
                if b_slot != *slot || *begin as usize != b_idx || *end as usize != idx + 1 {
                    return Err(unsupported("inconsistent loop targets"));
                }
                active[*slot as usize] = false;
            }
        }
    }
    if !stack.is_empty() {
        return Err(unsupported("unterminated loop"));
    }
    Ok(())
}

impl TapeKernel {
    /// Lowers this scalar tape to a [`SuperwordKernel`] via the superword
    /// packing pass, proving the register-file obligations of the unchecked
    /// executors at construction time.
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::Unsupported`] if the tape violates a
    /// structural invariant (which a tape built by
    /// [`crate::compile`] never does).
    pub fn to_superword(self: &Arc<Self>) -> Result<SuperwordKernel> {
        let ops = pack(&self.ops)?;
        let n_tensors = self.tensor_written.len();
        let n_scalars = self.params.len() - n_tensors;
        validate_construction(&ops, self.n_regs, self.n_dyn_loops, n_scalars, n_tensors)?;
        let n_vector_ops = ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    VOp::VLoad { .. } | VOp::VStore { .. } | VOp::VFmaLane { .. } | VOp::VFmaBcast { .. }
                )
            })
            .count();
        Ok(SuperwordKernel { tape: Arc::clone(self), ops, n_vector_ops })
    }
}

impl SuperwordKernel {
    /// Name of the source procedure.
    pub fn name(&self) -> &str {
        &self.tape.name
    }

    /// The scalar tape this kernel was packed from — the reference every
    /// executor of it is compared against: the promotion probe runs it
    /// beside each native body, and the tests beside every tier.
    #[inline]
    pub fn tape(&self) -> &Arc<TapeKernel> {
        &self.tape
    }

    /// Number of ops on the superword tape (packed ops count once).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// How many whole-vector ops the packing pass produced.
    pub fn vector_op_count(&self) -> usize {
        self.n_vector_ops
    }

    /// How many accumulator lane groups an executor `lanes` registers wide
    /// cannot keep in one machine register — 0 is the condition under which
    /// `cc -O3` promotes [`crate::emit_superword_c`]'s `reg[]` array out of
    /// memory. A lane group is one piece of a packed FMA's accumulator run
    /// as that executor cuts it (whole vectors from the run's base, then a
    /// narrower tail); it is split when it is itself such a tail, or when
    /// any op — a load, a store, another FMA, a scalar leftover — touches
    /// some of its registers in a piece that is not exactly the group: part
    /// of it, a different width, or a vector straddling two groups.
    pub fn split_accumulator_groups(&self, lanes: usize) -> usize {
        let lanes = u32::try_from(lanes).unwrap_or(u32::MAX).max(1);
        let groups = self.accumulator_groups(lanes);
        let touched: Vec<(u32, u32)> = self
            .ops
            .iter()
            .flat_map(|op| op.register_runs().into_iter().flat_map(move |run| op.pieces(run, lanes)))
            .collect();
        let split = |&(start, width): &(u32, u32)| {
            width != lanes
                || touched
                    .iter()
                    .any(|&(s, w)| (s, w) != (start, width) && s < start + width && start < s + w)
        };
        groups.iter().filter(|group| split(group)).count()
    }

    /// The accumulator lane groups of an executor `lanes` registers wide,
    /// as [`Self::split_accumulator_groups`] defines them: `(start, width)`
    /// pieces of every packed FMA's accumulator run, sorted by start.
    pub(crate) fn accumulator_groups(&self, lanes: u32) -> Vec<(u32, u32)> {
        let mut groups: Vec<(u32, u32)> = self
            .ops
            .iter()
            .filter(|op| matches!(op, VOp::VFmaLane { .. } | VOp::VFmaBcast { .. }))
            .flat_map(|op| op.pieces(op.register_runs()[0], lanes))
            .collect();
        groups.sort_unstable();
        groups.dedup();
        groups
    }

    /// Runs the kernel on the superword interpreter over borrowed tensor
    /// views (one-shot: a fresh register file; the GEMM hot path holds a
    /// [`crate::TierDispatch`] instead) — also what a native call whose
    /// bounds proof declined runs. Bit-for-bit the tape's results.
    ///
    /// # Errors
    ///
    /// Exactly [`TapeKernel::run_views`]'s, with the tape's partial stores
    /// behind an [`CodegenError::OutOfBounds`].
    pub fn run_views(&self, scalars: &[i64], tensors: &mut [TensorView<'_>]) -> Result<()> {
        self.tape.validate_views(scalars, tensors)?;
        self.interpret(&mut self.tape.machine(), scalars, tensors)
    }

    /// Runs the packed micro-kernel signature `(KC, Ac, Bc, C)` on the
    /// superword interpreter: `c[nr][mr] += ac[kc][mr] * bc[kc][nr]`.
    ///
    /// # Errors
    ///
    /// As [`Self::run_views`]: a kernel without the packed signature is an
    /// argument mismatch there.
    pub fn run_packed(&self, kc: usize, ac: &[f32], bc: &[f32], c: &mut [f32]) -> Result<()> {
        self.run_views(&[kc as i64], &mut [TensorView::Ro(ac), TensorView::Ro(bc), TensorView::Rw(c)])
    }

    /// The superword interpreter on views already validated for the tape:
    /// one op at a time on `machine`, from zeroed registers, every access
    /// checked — a scalar op by the tape's own step, a packed op lane by
    /// lane in the tape's order.
    #[inline]
    pub(crate) fn interpret(
        &self,
        machine: &mut Machine,
        scalars: &[i64],
        tensors: &mut [TensorView<'_>],
    ) -> Result<()> {
        machine.reset();
        let mut pc = 0usize;
        while pc < self.ops.len() {
            match &self.ops[pc] {
                VOp::Scalar(op) => machine.step(op, scalars, tensors)?,
                VOp::VLoad { dst, buf, addr, lanes } => {
                    let slice = tensors[*buf as usize].as_slice();
                    let (run, fault) = lanes_in_bounds(machine.eval(addr, scalars), *lanes, slice.len());
                    if let Some(index) = fault {
                        return Err(out_of_bounds(*buf, index, slice.len()));
                    }
                    let dst = *dst as usize;
                    machine.regs[dst..dst + run.len()].copy_from_slice(&slice[run]);
                }
                VOp::VStore { src, buf, addr, lanes } => {
                    let idx = machine.eval(addr, scalars);
                    let slice = tensors[*buf as usize].writable(*buf)?;
                    let (run, fault) = lanes_in_bounds(idx, *lanes, slice.len());
                    let src = *src as usize;
                    let len = slice.len();
                    slice[run.clone()].copy_from_slice(&machine.regs[src..src + run.len()]);
                    if let Some(index) = fault {
                        return Err(out_of_bounds(*buf, index, len));
                    }
                }
                VOp::VFmaLane { dst, a, b, lanes } => {
                    let bval = machine.regs[*b as usize];
                    fma_run(&mut machine.regs, *dst, *a, bval, *lanes);
                }
                VOp::VFmaBcast { dst, a, buf, addr, scratch, lanes } => {
                    let idx = machine.eval(addr, scalars);
                    let slice = tensors[*buf as usize].as_slice();
                    let bval = *slice
                        .get(usize::try_from(idx).unwrap_or(usize::MAX))
                        .ok_or_else(|| out_of_bounds(*buf, idx, slice.len()))?;
                    machine.regs[*scratch as usize] = bval;
                    fma_run(&mut machine.regs, *dst, *a, bval, *lanes);
                }
                VOp::LoopBegin { slot, lo, hi, end } => {
                    if !machine.loop_begin(*slot, lo, hi, scalars) {
                        pc = *end as usize;
                        continue;
                    }
                }
                VOp::LoopEnd { slot, begin } => {
                    if machine.loop_again(*slot) {
                        pc = *begin as usize + 1;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        Ok(())
    }

    /// Whether a packed call `(kc, ac, bc, c)` with operands of the given
    /// lengths passes the bounds proof: the kernel has the packed signature
    /// and the affine interval analysis proves every tensor access in
    /// bounds — the verdict a dispatch handle memoises before it lets an
    /// unchecked body run, and what the ahead-of-time tier's promotion
    /// probe checks so that its probe call runs the compiled code.
    pub fn packed_bounds_provable(&self, kc: usize, ac_len: usize, bc_len: usize, c_len: usize) -> bool {
        self.tape.check_packed_signature().is_ok()
            && self.bounds_provable(&[kc as i64], &[ac_len, bc_len, c_len])
    }

    /// The minimal packed operand lengths `(ac_len, bc_len, c_len)` that
    /// cover every tensor access this kernel makes at the given `kc` —
    /// the exact probe shape the ahead-of-time tier's verified promotion
    /// runs a compiled native body on before letting it into
    /// dispatch. The same affine-interval walk as
    /// [`Self::packed_bounds_provable`], but recording the maximal
    /// touched index per buffer instead of checking against supplied
    /// lengths. `None` when the kernel does not have the packed
    /// `(KC, Ac, Bc, C)` signature, an access interval reaches below
    /// zero, or an interval saturates (a dependent loop bound) — the
    /// cases where no finite lengths would make the call provable either.
    pub fn packed_probe_lens(&self, kc: usize) -> Option<(usize, usize, usize)> {
        // Lengths past this are not a probe, they are a bug (or a
        // saturated interval): refuse rather than allocate gigabytes.
        const MAX_PROBE_LEN: i64 = 1 << 24;
        self.tape.check_packed_signature().ok()?;
        let mut ends = [0i64; 3];
        let finite = self.every_access(&[kc as i64], |buf, lo, end| {
            ends[buf as usize] = ends[buf as usize].max(end);
            lo >= 0 && end <= MAX_PROBE_LEN
        });
        finite.then_some((ends[0] as usize, ends[1] as usize, ends[2] as usize))
    }

    /// The runtime half of the validation proof: every tensor access stays
    /// inside a buffer of the given length.
    pub(crate) fn bounds_provable(&self, scalars: &[i64], lens: &[usize]) -> bool {
        self.every_access(scalars, |buf, lo, end| lo >= 0 && end <= lens[buf as usize] as i64)
    }

    /// The exact interval analysis over the affine addresses both proofs
    /// are phrased in: whether `holds(buf, lo, end)` for every tensor
    /// access the tape makes, `lo..end` being the half-open range of
    /// indices the access can touch in tensor `buf` (saturating, so
    /// overflow only ever widens the range). The tape has no
    /// data-dependent branches, so an op inside a loop executes for
    /// *every* counter value in the loop's range — the interval bound is
    /// not an approximation unless a loop bound itself depends on an outer
    /// loop (where it degrades to a safe over-approximation and the call
    /// runs the interpreter).
    fn every_access(&self, scalars: &[i64], mut holds: impl FnMut(u16, i64, i64) -> bool) -> bool {
        let mut iv: Vec<(i64, i64)> = vec![(0, 0); self.tape.n_dyn_loops];
        let mut pc = 0usize;
        while pc < self.ops.len() {
            let access = match &self.ops[pc] {
                VOp::Scalar(TOp::LoadT { buf, addr, .. } | TOp::StoreT { buf, addr, .. })
                | VOp::VFmaBcast { buf, addr, .. } => Some((*buf, addr.interval(&iv, scalars), 1)),
                VOp::VLoad { buf, addr, lanes, .. } | VOp::VStore { buf, addr, lanes, .. } => {
                    Some((*buf, addr.interval(&iv, scalars), *lanes))
                }
                VOp::LoopBegin { slot, lo, hi, end } => {
                    let (lo_min, _) = lo.interval(&iv, scalars);
                    let (_, hi_max) = hi.interval(&iv, scalars);
                    if hi_max.saturating_sub(1) < lo_min {
                        // The loop never executes for any outer assignment:
                        // its body touches nothing.
                        pc = *end as usize;
                        continue;
                    }
                    iv[*slot as usize] = (lo_min, hi_max - 1);
                    None
                }
                _ => None,
            };
            if let Some((buf, (lo, hi), span)) = access {
                if !holds(buf, lo, hi.saturating_add(i64::from(span))) {
                    return false;
                }
            }
            pc += 1;
        }
        true
    }
}

/// The in-bounds prefix of the `lanes` elements from `idx` in a buffer of
/// `len`, and the index of the first lane past it, if any — where the
/// tape, one lane at a time, would fault.
fn lanes_in_bounds(idx: i64, lanes: u32, len: usize) -> (std::ops::Range<usize>, Option<i64>) {
    let Ok(start) = usize::try_from(idx) else { return (0..0, Some(idx)) };
    let end = start.saturating_add(lanes as usize);
    if end <= len {
        (start..end, None)
    } else {
        (start.min(len)..len, Some(idx.max(len as i64)))
    }
}

/// `lanes` multiply-adds `reg[dst+i] = reg[a+i]·bval + reg[dst+i]`, one
/// rounding each, strictly ascending — the tape's own order, which is
/// right whether or not the two runs overlap.
#[inline]
fn fma_run(regs: &mut [f32], dst: u32, a: u32, bval: f32, lanes: u32) {
    let (dst, a) = (dst as usize, a as usize);
    for i in 0..lanes as usize {
        regs[dst + i] = regs[a + i].mul_add(bval, regs[dst + i]);
    }
}

/// One memoised run of the interval proof: the scalar arguments and buffer
/// lengths it was run for, and its verdict.
#[derive(Debug, Clone)]
struct ProofEntry {
    scalars: Vec<i64>,
    lens: Vec<usize>,
    provable: bool,
}

/// The interval proof, memoised per distinct `(scalars, buffer lengths)`
/// input. A GEMM driver dispatches one kernel thousands of times per
/// problem with only a couple of distinct proof inputs (`KC` full vs.
/// fringe, and the matching buffer lengths), so a dispatch handle that
/// owns one of these re-proves nothing in steady state. Declined verdicts
/// are memoised too: a retry goes straight back to the interpreter.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProofMemo(Vec<ProofEntry>);

impl ProofMemo {
    /// Whether `kernel`'s interval proof admits these scalars and tensor
    /// lengths (contents never matter — the tape has no data-dependent
    /// control flow), recalled when already run for them.
    #[inline]
    pub(crate) fn admits(
        &mut self,
        kernel: &SuperwordKernel,
        scalars: &[i64],
        tensors: &[TensorView<'_>],
    ) -> bool {
        let lens = || tensors.iter().map(|t| t.as_slice().len());
        if let Some(entry) = self.0.iter().find(|p| p.scalars == scalars && p.lens.iter().copied().eq(lens()))
        {
            return entry.provable;
        }
        let lens: Vec<usize> = lens().collect();
        let provable = kernel.bounds_provable(scalars, &lens);
        self.0.push(ProofEntry { scalars: scalars.to_vec(), lens, provable });
        provable
    }

    /// How many distinct inputs have been proved (or declined) so far.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::TierDispatch;
    use crate::tape::compile;
    use exo_ir::builder::*;
    use exo_ir::{Expr, MemSpace, ScalarType};

    /// A hand-staged 8x4 laneq-shaped kernel with the structure every
    /// scheduled micro-kernel lowers to: the `C` tile and both operand
    /// stages live in locals (registers), so the tape scalarises them into
    /// exactly the lane runs the superword pass re-rolls.
    fn staged_kernels() -> (Arc<TapeKernel>, Arc<SuperwordKernel>) {
        let (mr, nr) = (8i64, 4i64);
        let p = proc("ukr_8x4_staged")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(mr)], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![var("KC"), int(nr)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(nr * mr)], MemSpace::Dram)
            .body(vec![
                alloc("Ct", ScalarType::F32, vec![int(nr), int(mr)], MemSpace::Neon),
                alloc("Ra", ScalarType::F32, vec![int(mr)], MemSpace::Neon),
                alloc("Rb", ScalarType::F32, vec![int(nr)], MemSpace::Neon),
                for_(
                    "j",
                    0,
                    nr,
                    vec![for_(
                        "i",
                        0,
                        mr,
                        vec![assign(
                            "Ct",
                            vec![var("j"), var("i")],
                            read("C", vec![Expr::add(Expr::mul(var("j"), int(mr)), var("i"))]),
                        )],
                    )],
                ),
                for_(
                    "k",
                    0,
                    var("KC"),
                    vec![
                        for_(
                            "i",
                            0,
                            mr,
                            vec![assign("Ra", vec![var("i")], read("Ac", vec![var("k"), var("i")]))],
                        ),
                        for_(
                            "j",
                            0,
                            nr,
                            vec![assign("Rb", vec![var("j")], read("Bc", vec![var("k"), var("j")]))],
                        ),
                        for_(
                            "j",
                            0,
                            nr,
                            vec![for_(
                                "i",
                                0,
                                mr,
                                vec![reduce(
                                    "Ct",
                                    vec![var("j"), var("i")],
                                    Expr::mul(read("Ra", vec![var("i")]), read("Rb", vec![var("j")])),
                                )],
                            )],
                        ),
                    ],
                ),
                for_(
                    "j",
                    0,
                    nr,
                    vec![for_(
                        "i",
                        0,
                        mr,
                        vec![assign(
                            "C",
                            vec![Expr::add(Expr::mul(var("j"), int(mr)), var("i"))],
                            read("Ct", vec![var("j"), var("i")]),
                        )],
                    )],
                ),
            ])
            .build();
        let tape = Arc::new(compile(&p).unwrap());
        let sw = Arc::new(tape.to_superword().unwrap());
        assert!(Arc::ptr_eq(&tape, sw.tape()), "the lowering keeps the tape it was packed from");
        (tape, sw)
    }

    #[test]
    fn superword_matches_the_scalar_tape_bit_for_bit() {
        let (tape, sw) = staged_kernels();
        let (mr, nr, kc) = (8usize, 4usize, 29usize);
        let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + 3) % 13) as f32 * 0.5 - 2.0).collect();
        let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + 1) % 11) as f32 * 0.25 - 1.0).collect();
        let c0: Vec<f32> = (0..nr * mr).map(|i| (i % 5) as f32 * 0.5).collect();
        let mut c_tape = c0.clone();
        tape.run_packed(kc, &a, &b, &mut c_tape).unwrap();
        let mut c_sw = c0.clone();
        sw.run_packed(kc, &a, &b, &mut c_sw).unwrap();
        assert_eq!(c_tape, c_sw, "the interpreter must be bit-for-bit equal to the scalar tape");
        // A call the proof would decline (Ac two rows short): the
        // interpreter reports the tape's own error and leaves C as the
        // tape leaves it.
        let short = &a[..(kc - 2) * mr];
        let mut c_tape = c0.clone();
        let want = tape.run_packed(kc, short, &b, &mut c_tape).unwrap_err();
        assert_eq!(want, CodegenError::OutOfBounds { buf: "Arg(0)".into(), index: 216, len: 216 });
        let mut c_sw = c0.clone();
        assert_eq!(sw.run_packed(kc, short, &b, &mut c_sw), Err(want));
        assert_eq!(c_tape, c_sw, "C is staged in registers: a faulting call stores nothing");
        assert_eq!(c_sw, c0);
    }

    #[test]
    fn unscheduled_kernels_survive_as_scalar_passthrough() {
        // The unscheduled reference kernel keeps `C` in memory, so nothing
        // packs — the superword tape degenerates to the scalar one and
        // must still agree bit for bit.
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let p = exo_sched::partial_eval(&p, &[4, 4]).unwrap();
        let tape = Arc::new(compile(&p).unwrap());
        let sw = Arc::new(tape.to_superword().unwrap());
        let kc = 13usize;
        let a: Vec<f32> = (0..kc * 4).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
        let b: Vec<f32> = (0..kc * 4).map(|i| (i % 5) as f32 * 0.5 - 1.0).collect();
        let c0: Vec<f32> = (0..16).map(|i| i as f32 * 0.125).collect();
        let mut c_tape = c0.clone();
        tape.run_packed(kc, &a, &b, &mut c_tape).unwrap();
        let mut c_sw = c0.clone();
        sw.run_packed(kc, &a, &b, &mut c_sw).unwrap();
        assert_eq!(c_tape, c_sw);
    }

    #[test]
    fn packing_produces_whole_vector_ops() {
        let (tape, sw) = staged_kernels();
        assert!(sw.vector_op_count() > 0, "the staged 8x4 kernel must pack");
        // Packing re-rolls lane runs, so the superword tape is much shorter
        // than the scalar one; the FMA stream packs completely.
        assert!(sw.len() * 3 < tape.len(), "superword tape ({}) vs scalar tape ({})", sw.len(), tape.len());
        assert!(sw.ops.iter().any(|op| matches!(op, VOp::VFmaLane { lanes, .. } if *lanes >= 4)));
    }

    #[test]
    fn accumulator_groups_split_by_width_offset_and_straddle() {
        let (_, sw) = staged_kernels();
        // Ct loads, accumulates and stores as whole 8-register columns.
        for lanes in [8, 4, 1] {
            assert_eq!(sw.split_accumulator_groups(lanes), 0, "{lanes} lanes");
        }
        assert_eq!(sw.split_accumulator_groups(16), 4, "every 8-lane run is a half-filled tail");
        // Two 8-lane accumulators whose prologue loads arrive as a 4-lane
        // half and an 8-lane move across the boundary between them: both
        // split at 8 lanes, neither at 4.
        let mut straddled = (*sw).clone();
        straddled.ops = vec![
            VOp::VLoad { dst: 0, buf: 2, addr: Addr::Const(0), lanes: 4 },
            VOp::VLoad { dst: 4, buf: 2, addr: Addr::Const(4), lanes: 8 },
            VOp::VLoad { dst: 12, buf: 2, addr: Addr::Const(12), lanes: 4 },
            VOp::VFmaLane { dst: 0, a: 32, b: 40, lanes: 8 },
            VOp::VFmaLane { dst: 8, a: 32, b: 41, lanes: 8 },
            VOp::VStore { src: 0, buf: 2, addr: Addr::Const(0), lanes: 16 },
        ];
        assert_eq!(straddled.split_accumulator_groups(8), 2);
        assert_eq!(straddled.split_accumulator_groups(4), 0);
        // A scalar leftover inside an accumulator splits it at any vector width.
        straddled.ops.push(VOp::Scalar(TOp::Mov { dst: 9, src: 40 }));
        assert_eq!(straddled.split_accumulator_groups(4), 1);
    }

    #[test]
    fn partially_overlapping_fma_runs_keep_their_lane_order() {
        let lane = |dst, a| VOp::VFmaLane { dst, a, b: 100, lanes: 4 };
        assert!(!lane(8, 0).fma_in_order(), "disjoint runs vectorise");
        assert!(!lane(8, 8).fma_in_order(), "whole-run aliasing vectorises");
        assert!(lane(8, 6).fma_in_order() && lane(8, 10).fma_in_order(), "partial overlap is semantic");
        assert!(!lane(8, 4).fma_in_order() && !lane(8, 12).fma_in_order(), "adjacent runs do not overlap");
        let bcast = VOp::VFmaBcast { dst: 8, a: 9, buf: 0, addr: Addr::Const(0), scratch: 100, lanes: 4 };
        assert!(bcast.fma_in_order(), "the broadcast FMA follows the same rule");
        assert!(!VOp::LoopEnd { slot: 0, begin: 0 }.fma_in_order());
    }

    #[test]
    fn empty_kc_loops_skip_their_body() {
        let (_, sw) = staged_kernels();
        // kc = 0: the packed operands are empty, the KC loop never runs, and
        // the interval proof must skip its body rather than reject it.
        let mut c = vec![1.0f32; 32];
        let before = c.clone();
        assert!(sw.packed_bounds_provable(0, 0, 0, 32));
        sw.run_packed(0, &[], &[], &mut c).unwrap();
        assert_eq!(c, before, "kc = 0 stages C through registers and writes it back unchanged");
    }

    /// `x[i] = 1.0 for i in 0..N` — claimed over a buffer shorter than `N`,
    /// the interval proof declines.
    fn oob_kernel() -> Arc<SuperwordKernel> {
        let p = proc("oob")
            .size_arg("N")
            .tensor_arg("x", ScalarType::F32, vec![var("N")], MemSpace::Dram)
            .body(vec![for_("i", 0, var("N"), vec![assign("x", vec![var("i")], flt(1.0))])])
            .build();
        Arc::new(Arc::new(compile(&p).unwrap()).to_superword().unwrap())
    }

    #[test]
    fn out_of_bounds_falls_back_to_the_checked_loop_and_reports() {
        let sw = oob_kernel();
        let mut x = vec![0.0f32; 2];
        // Claim N = 7 over a 2-element buffer: the interval proof declines
        // and the scalar tape runs the call.
        let mut x_tape = x.clone();
        let want = sw.tape().run_views(&[7], &mut [TensorView::Rw(&mut x_tape)]);
        assert_eq!(want, Err(CodegenError::OutOfBounds { buf: "Arg(0)".into(), index: 2, len: 2 }));
        assert_eq!(sw.run_views(&[7], &mut [TensorView::Rw(&mut x)]), want);
        // The first two stores landed before the error, like the tape's.
        assert_eq!(x, vec![1.0, 1.0]);
        assert_eq!(x, x_tape);
    }

    #[test]
    fn f16_rounding_matches_the_tape() {
        let p = proc("round16")
            .tensor_arg("out", ScalarType::F16, vec![int(2)], MemSpace::Dram)
            .body(vec![assign("out", vec![int(0)], flt(1.0 + 1.0e-5)), reduce("out", vec![int(1)], flt(0.1))])
            .build();
        let tape = Arc::new(compile(&p).unwrap());
        let sw = Arc::new(tape.to_superword().unwrap());
        let mut out_tape = vec![0.0f32, 3.0];
        tape.run_views(&[], &mut [TensorView::Rw(&mut out_tape)]).unwrap();
        let mut out_sw = vec![0.0f32, 3.0];
        sw.run_views(&[], &mut [TensorView::Rw(&mut out_sw)]).unwrap();
        assert_eq!(out_tape, out_sw);
    }

    #[test]
    fn written_tensors_and_argument_mismatches_are_rejected() {
        let (_, sw) = staged_kernels();
        assert!(!sw.tape().writes_tensor(0) && !sw.tape().writes_tensor(1) && sw.tape().writes_tensor(2));
        let a = vec![0.0f32; 8];
        let b = vec![0.0f32; 4];
        let c = vec![0.0f32; 32];
        let err = sw.run_views(&[1], &mut [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Ro(&c)]);
        assert!(matches!(err, Err(CodegenError::BadArguments { .. })));
        let too_few = sw.run_views(&[1], &mut [TensorView::Ro(&a)]);
        assert!(matches!(too_few, Err(CodegenError::BadArguments { .. })));
        // A kernel without the packed (KC, Ac, Bc, C) signature is turned
        // away by the views' validation, with one error on every packed
        // door: the tape, the one-shot interpreter, and the tier handle,
        // which runs that validation once, when it is built.
        let one_tensor = oob_kernel();
        let mut c = vec![0.0f32; 2];
        let want = one_tensor.tape().run_packed(1, &a, &b, &mut c).unwrap_err();
        assert!(matches!(want, CodegenError::BadArguments { .. }), "{want:?}");
        assert_eq!(one_tensor.run_packed(1, &a, &b, &mut c), Err(want.clone()));
        assert_eq!(TierDispatch::superword(one_tensor, 1, 1).err(), Some(want));
        assert_eq!(c, [0.0; 2], "nothing ran");
    }

    #[test]
    fn dispatch_handle_matches_one_shot_runs_and_memoises_proofs() {
        let (_, sw) = staged_kernels();
        let (mr, nr) = (8usize, 4usize);
        let mut dispatch = TierDispatch::superword(Arc::clone(&sw), mr, nr).unwrap();
        let mut proofs = ProofMemo::default();
        // Sweep the per-GEMM dispatch pattern: many tiles, two distinct KC
        // values (full and fringe). The interpreter's handle reuses one
        // register file; the proof a native body would run under is run
        // once per distinct input, not once per tile.
        for rep in 0..6 {
            for &kc in &[17usize, 5] {
                let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + rep) % 13) as f32 * 0.5 - 2.0).collect();
                let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + rep) % 11) as f32 * 0.25 - 1.0).collect();
                let c0: Vec<f32> = (0..nr * mr).map(|i| ((i + rep) % 5) as f32 * 0.5).collect();
                let mut c_dispatch = c0.clone();
                dispatch.run(kc, &a, &b, &mut c_dispatch).unwrap();
                let mut c_one_shot = c0.clone();
                sw.run_packed(kc, &a, &b, &mut c_one_shot).unwrap();
                assert_eq!(c_dispatch, c_one_shot, "kc={kc} rep={rep}");
                let views = [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Ro(&c0)];
                assert!(proofs.admits(&sw, &[kc as i64], &views), "kc={kc}");
            }
        }
        assert_eq!(proofs.len(), 2, "one proof per distinct (KC, lens) input");
    }

    #[test]
    fn dispatch_handle_reports_checked_path_errors_like_the_one_shot_run() {
        // The packed form of `oob_kernel`: `C[i] = 1.0 for i in 0..KC`,
        // the operands unread.
        let p = proc("oob_packed")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC")], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![int(1)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![var("KC")], MemSpace::Dram)
            .body(vec![for_("i", 0, var("KC"), vec![assign("C", vec![var("i")], flt(1.0))])])
            .build();
        let sw = Arc::new(Arc::new(compile(&p).unwrap()).to_superword().unwrap());
        let mut dispatch = TierDispatch::superword(Arc::clone(&sw), 1, 1).unwrap();
        let (a, b) = (vec![0.0f32; 7], vec![0.0f32]);
        let views = |x: &mut [f32], run: &mut dyn FnMut(&mut [TensorView<'_>]) -> Result<()>| {
            run(&mut [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Rw(x)])
        };
        let mut x = vec![0.0f32; 2];
        let mut x_one_shot = x.clone();
        assert_eq!(
            views(&mut x, &mut |v| dispatch.run_views(&[7], v)),
            views(&mut x_one_shot, &mut |v| sw.run_views(&[7], v))
        );
        assert_eq!(x, vec![1.0, 1.0], "partial stores before the error, like the tape's");
        assert_eq!(x, x_one_shot);
        // A failed run leaves nothing behind in the handle: the next call,
        // on a buffer long enough, runs whole.
        let mut y = vec![0.0f32; 8];
        views(&mut y, &mut |v| dispatch.run_views(&[7], v)).unwrap();
        assert_eq!(&y[..7], &[1.0; 7]);
        assert_eq!(y[7], 0.0);
    }

    #[test]
    fn broadcast_pairs_pack_into_vfma_bcast() {
        // The scalarised broadcast FMA: a register-staged operand times one
        // memory element, accumulated into a register run — the tape
        // interleaves [LoadT rhs; Fma] pairs, which must collapse into one
        // VFmaBcast per statement.
        let p = proc("bcast")
            .tensor_arg("x", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("s", ScalarType::F32, vec![int(1)], MemSpace::Dram)
            .tensor_arg("y", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .body(vec![
                alloc("acc", ScalarType::F32, vec![int(4)], MemSpace::Neon),
                alloc("r", ScalarType::F32, vec![int(4)], MemSpace::Neon),
                for_("i", 0, 4, vec![assign("r", vec![var("i")], read("x", vec![var("i")]))]),
                for_(
                    "i",
                    0,
                    4,
                    vec![reduce(
                        "acc",
                        vec![var("i")],
                        Expr::mul(read("r", vec![var("i")]), read("s", vec![int(0)])),
                    )],
                ),
                for_("i", 0, 4, vec![assign("y", vec![var("i")], read("acc", vec![var("i")]))]),
            ])
            .build();
        let tape = Arc::new(compile(&p).unwrap());
        let sw = Arc::new(tape.to_superword().unwrap());
        assert!(sw.ops.iter().any(|op| matches!(op, VOp::VFmaBcast { lanes: 4, .. })), "{:?}", sw.ops);
        assert!(sw.ops.iter().any(|op| matches!(op, VOp::VLoad { lanes: 4, .. })));
        assert!(sw.ops.iter().any(|op| matches!(op, VOp::VStore { lanes: 4, .. })));
        let x = vec![1.5f32, -2.0, 0.25, 3.0];
        let s = vec![0.5f32];
        let mut y_tape = vec![0.0f32; 4];
        tape.run_views(&[], &mut [TensorView::Ro(&x), TensorView::Ro(&s), TensorView::Rw(&mut y_tape)])
            .unwrap();
        let mut y_sw = vec![0.0f32; 4];
        sw.run_views(&[], &mut [TensorView::Ro(&x), TensorView::Ro(&s), TensorView::Rw(&mut y_sw)]).unwrap();
        assert_eq!(y_tape, y_sw);
        assert_eq!(y_sw, vec![0.75, -1.0, 0.125, 1.5]);
    }

    #[test]
    fn nested_dynamic_loops_compile_and_run() {
        // Two nested dynamic loops: the inner loop's jump targets sit inside
        // the outer one's body, and each loop slot is live only inside its
        // own loop.
        let p = proc("nested")
            .size_arg("N")
            .size_arg("M")
            // Constant column extent keeps the addresses affine (the tape
            // rejects `i * M`); both loop bounds stay dynamic.
            .tensor_arg("x", ScalarType::F32, vec![var("N"), int(8)], MemSpace::Dram)
            .body(vec![for_(
                "i",
                0,
                var("N"),
                vec![for_(
                    "j",
                    0,
                    var("M"),
                    vec![assign(
                        "x",
                        vec![var("i"), var("j")],
                        Expr::add(Expr::mul(var("i"), int(10)), var("j")),
                    )],
                )],
            )])
            .build();
        let sw = Arc::new(Arc::new(compile(&p).unwrap()).to_superword().unwrap());
        let (n, m) = (3usize, 5usize);
        let mut want = vec![-1.0f32; n * 8];
        sw.tape().run_views(&[n as i64, m as i64], &mut [TensorView::Rw(&mut want)]).unwrap();
        let mut x = vec![-1.0f32; n * 8];
        sw.run_views(&[n as i64, m as i64], &mut [TensorView::Rw(&mut x)]).unwrap();
        assert_eq!(x, want, "integer-valued writes — exact across tiers");
        assert_eq!(x[8 + 4], 14.0, "x[1][4] = 1*10 + 4");
        assert_eq!(x[8 + 5], -1.0, "columns past M stay untouched");
    }

    /// The staged 8x4 kernel with `B` read from memory instead of staged:
    /// one `VFmaBcast` per column.
    fn broadcast_b_kernel() -> (exo_ir::Proc, Arc<SuperwordKernel>) {
        let (mr, nr) = (8i64, 4i64);
        let c_at = || Expr::add(Expr::mul(var("j"), int(mr)), var("i"));
        let p = proc("ukr_8x4_bcast")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(mr)], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![var("KC"), int(nr)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(nr * mr)], MemSpace::Dram)
            .body(vec![
                alloc("Ct", ScalarType::F32, vec![int(nr), int(mr)], MemSpace::Neon),
                alloc("Ra", ScalarType::F32, vec![int(mr)], MemSpace::Neon),
                for_(
                    "j",
                    0,
                    nr,
                    vec![for_(
                        "i",
                        0,
                        mr,
                        vec![assign("Ct", vec![var("j"), var("i")], read("C", vec![c_at()]))],
                    )],
                ),
                for_(
                    "k",
                    0,
                    var("KC"),
                    vec![
                        for_(
                            "i",
                            0,
                            mr,
                            vec![assign("Ra", vec![var("i")], read("Ac", vec![var("k"), var("i")]))],
                        ),
                        for_(
                            "j",
                            0,
                            nr,
                            vec![for_(
                                "i",
                                0,
                                mr,
                                vec![reduce(
                                    "Ct",
                                    vec![var("j"), var("i")],
                                    Expr::mul(
                                        read("Ra", vec![var("i")]),
                                        read("Bc", vec![var("k"), var("j")]),
                                    ),
                                )],
                            )],
                        ),
                    ],
                ),
                for_(
                    "j",
                    0,
                    nr,
                    vec![for_(
                        "i",
                        0,
                        mr,
                        vec![assign("C", vec![c_at()], read("Ct", vec![var("j"), var("i")]))],
                    )],
                ),
            ])
            .build();
        let sw = Arc::new(Arc::new(compile(&p).unwrap()).to_superword().unwrap());
        (p, sw)
    }

    #[test]
    fn the_interpreter_computes_the_reference_bits_on_laneq_and_broadcast_b_tiles() {
        let (_, laneq) = staged_kernels();
        let (p_bcast, bcast) = broadcast_b_kernel();
        assert!(laneq.ops.iter().any(|op| matches!(op, VOp::VFmaLane { lanes: 8, .. })));
        assert!(bcast.ops.iter().any(|op| matches!(op, VOp::VFmaBcast { lanes: 8, .. })), "{:?}", bcast.ops);
        let (mr, nr) = (8usize, 4usize);
        for (label, sw) in [("laneq", &laneq), ("broadcast-b", &bcast)] {
            for kc in [0usize, 1, 2, 17, 64] {
                let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + 3) % 13) as f32 * 0.37 - 2.0).collect();
                let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + 1) % 11) as f32 * 0.21 - 1.0).collect();
                let c0: Vec<f32> = (0..nr * mr).map(|i| (i % 5) as f32 * 0.5).collect();
                let mut c_sw = c0.clone();
                sw.run_packed(kc, &a, &b, &mut c_sw).unwrap();
                let mut c_tape = c0.clone();
                sw.tape().run_packed(kc, &a, &b, &mut c_tape).unwrap();
                assert_eq!(c_sw, c_tape, "{label} kc={kc}: interpreter vs tape");
                if label == "broadcast-b" {
                    let mut c_ref = c0.clone();
                    exo_ir::interp::run_packed(&p_bcast, kc, &a, &b, &mut c_ref).unwrap();
                    assert_eq!(c_sw, c_ref, "{label} kc={kc}: interpreter vs run_proc");
                }
            }
        }
    }

    #[test]
    fn a_lane_run_faults_where_the_tape_would_one_lane_at_a_time() {
        assert_eq!(lanes_in_bounds(2, 4, 8), (2..6, None), "whole run inside");
        assert_eq!(lanes_in_bounds(4, 4, 8), (4..8, None), "ending on the last element");
        assert_eq!(lanes_in_bounds(6, 4, 8), (6..8, Some(8)), "two lanes land, the third faults");
        assert_eq!(lanes_in_bounds(9, 4, 8), (8..8, Some(9)), "starting past the end: the first lane");
        assert_eq!(lanes_in_bounds(-3, 4, 8), (0..0, Some(-3)), "a negative start: the first lane");
        assert_eq!(lanes_in_bounds(0, 4, 0), (0..0, Some(0)), "an empty buffer");
    }

    #[test]
    fn a_vector_store_lands_its_in_bounds_prefix_like_the_tape() {
        // `y[i] = x[i]` for 8 lanes, staged through a register run, so one
        // `VLoad` and one `VStore`: over a 5-element `y` the store faults
        // at 5 after five lanes landed; over a 5-element `x` the load
        // faults first and nothing lands.
        let p = proc("copy8")
            .tensor_arg("x", ScalarType::F32, vec![int(8)], MemSpace::Dram)
            .tensor_arg("y", ScalarType::F32, vec![int(8)], MemSpace::Dram)
            .body(vec![
                alloc("r", ScalarType::F32, vec![int(8)], MemSpace::Neon),
                for_("i", 0, 8, vec![assign("r", vec![var("i")], read("x", vec![var("i")]))]),
                for_("i", 0, 8, vec![assign("y", vec![var("i")], read("r", vec![var("i")]))]),
            ])
            .build();
        let sw = Arc::new(Arc::new(compile(&p).unwrap()).to_superword().unwrap());
        assert!(sw.ops.iter().any(|op| matches!(op, VOp::VStore { lanes: 8, .. })), "{:?}", sw.ops);
        let x: Vec<f32> = (1..=8).map(|v| v as f32).collect();
        for (x_len, y_len, want) in [
            (8, 5, CodegenError::OutOfBounds { buf: "Arg(1)".into(), index: 5, len: 5 }),
            (5, 8, CodegenError::OutOfBounds { buf: "Arg(0)".into(), index: 5, len: 5 }),
        ] {
            let mut y_tape = vec![0.0f32; y_len];
            let got =
                sw.tape().run_views(&[], &mut [TensorView::Ro(&x[..x_len]), TensorView::Rw(&mut y_tape)]);
            assert_eq!(got, Err(want.clone()));
            let mut y_sw = vec![0.0f32; y_len];
            let got = sw.run_views(&[], &mut [TensorView::Ro(&x[..x_len]), TensorView::Rw(&mut y_sw)]);
            assert_eq!(got, Err(want), "x[{x_len}], y[{y_len}]");
            assert_eq!(y_sw, y_tape, "x[{x_len}], y[{y_len}]: the tape's partial stores");
        }
        assert!(!sw.bounds_provable(&[], &[8, 5]), "the proof declines these views");
    }
}
