//! The superword lowering: whole-vector tape ops, and the proofs every
//! unchecked executor of them rests on.
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
//! A [`SuperwordKernel`] is the IR every faster tier consumes — the
//! closure chains of [`crate::simd`] (one per vector ISA, the scalar one
//! being the *portable* tier) and the C of
//! [`crate::emit_superword_c`] — and it **executes nothing unchecked
//! itself**: every line of this module is checked Rust. What it owns is
//! the two-part proof those executors run under; the reference they fall
//! back to is the scalar tape it was packed from, which it keeps.
//!
//! **Validated construction.** [`TapeKernel::to_superword`] proves, at
//! construction time, that every register operand (including the full
//! `dst..dst+lanes` runs) stays inside the register file, that the loop
//! structure is well formed, and that no packed op's scalar operand is
//! clobbered by its own accumulator writes. At run time, a single exact
//! interval analysis over the (affine) addresses and the dynamic-loop
//! bounds (`bounds_provable`, memoised per dispatch handle by
//! `ProofMemo`) proves every tensor access in bounds *before* a call
//! starts. When the proof does not go through (an address that could
//! leave its buffer), the call runs [`SuperwordKernel::run_checked`]
//! instead: the scalar tape itself ([`TapeKernel::run_views`]), the one
//! flat executor that checks every access, so a declined call reports the
//! tape's error after the tape's partial stores by construction.
//!
//! Packing preserves the scalar tape's exact op order within each packed
//! group (lanes execute in ascending order, multiplication commutes
//! bitwise, each lane one fused multiply-add), so every chain is
//! **bit-for-bit** equal to the scalar tape and the reference interpreter;
//! the differential suite in `tests/tape_exec.rs` asserts this across
//! every registry shape and ISA.

use std::sync::Arc;

use crate::error::{CodegenError, Result};
use crate::exec::{CompiledKernel, TensorView};
use crate::tape::{Addr, TOp, TapeKernel, Term};

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
    /// gets right). The one statement of the rule both printers — the
    /// closure-chain compiler and the C emitter — lower from. `false` for
    /// every op that is not a packed FMA.
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
/// Obtained from [`TapeKernel::to_superword`] (or
/// [`CompiledKernel::to_superword`]). Describes bit-for-bit the same
/// computation as the scalar tape and the interpreter, one vector register
/// per op instead of one lane; executed by the chains compiled from it
/// ([`crate::SimdKernel`]) and, proof declined, by the tape it was packed
/// from ([`Self::run_checked`]).
#[derive(Debug, Clone)]
pub struct SuperwordKernel {
    /// The scalar tape these ops were packed from: the signature, the
    /// register-file and loop-table sizes, and the checked reference.
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
    /// [`CompiledKernel::to_tape`] never does).
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

impl CompiledKernel {
    /// Compiles this kernel straight to a [`SuperwordKernel`]
    /// (tape-compile, then superword-pack).
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::Unsupported`] for constructs the tape cannot
    /// register-allocate.
    pub fn to_superword(&self) -> Result<SuperwordKernel> {
        Arc::new(self.to_tape()?).to_superword()
    }
}

impl SuperwordKernel {
    /// Name of the source procedure.
    pub fn name(&self) -> &str {
        &self.tape.name
    }

    /// The scalar tape this kernel was packed from — the checked reference
    /// of every executor of it.
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

    /// The checked reference run — the scalar tape these ops were packed
    /// from, the kernel's one executor that trusts no proof: every register
    /// and tensor access bounds-checked, one lane at a time (packing keeps
    /// the tape's op order, so the stores already performed when an access
    /// faults are the tape's too). Every declined interval proof lands
    /// here, and the ahead-of-time tier's promotion probe uses it as its
    /// reference.
    ///
    /// # Errors
    ///
    /// [`TapeKernel::run_views`]'s.
    pub fn run_checked(&self, scalars: &[i64], tensors: &mut [TensorView<'_>]) -> Result<()> {
        self.tape.run_views(scalars, tensors)
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
    /// runs the checked reference).
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
/// are memoised too: a retry goes straight back to the checked reference.
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
    use crate::exec::compile;
    use crate::simd::{IsaKind, SimdKernel};
    use exo_ir::builder::*;
    use exo_ir::{Expr, MemSpace, ScalarType};

    /// The portable tier: the scalar-ISA chain compiled from a superword
    /// kernel — the executor a `Superword` pin resolves to, held to
    /// bit equality with the scalar tape throughout this module.
    fn portable(sw: &Arc<SuperwordKernel>) -> Arc<SimdKernel> {
        Arc::new(SimdKernel::compile_for(Arc::clone(sw), IsaKind::Scalar).expect("the scalar chain compiles"))
    }

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
        let tape = Arc::new(compile(&p).unwrap().to_tape().unwrap());
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
        portable(&sw).run_packed(kc, &a, &b, &mut c_sw).unwrap();
        assert_eq!(c_tape, c_sw, "the portable chain must be bit-for-bit equal to the scalar tape");
        // A call the proof declines (Ac two rows short): the chain reports
        // the tape's own error and leaves C as the tape leaves it.
        let short = &a[..(kc - 2) * mr];
        let mut c_tape = c0.clone();
        let want = tape.run_packed(kc, short, &b, &mut c_tape).unwrap_err();
        assert_eq!(want, CodegenError::OutOfBounds { buf: "Arg(0)".into(), index: 216, len: 216 });
        let mut c_sw = c0.clone();
        assert_eq!(portable(&sw).run_packed(kc, short, &b, &mut c_sw), Err(want));
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
        let tape = Arc::new(compile(&p).unwrap().to_tape().unwrap());
        let sw = Arc::new(tape.to_superword().unwrap());
        let kc = 13usize;
        let a: Vec<f32> = (0..kc * 4).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
        let b: Vec<f32> = (0..kc * 4).map(|i| (i % 5) as f32 * 0.5 - 1.0).collect();
        let c0: Vec<f32> = (0..16).map(|i| i as f32 * 0.125).collect();
        let mut c_tape = c0.clone();
        tape.run_packed(kc, &a, &b, &mut c_tape).unwrap();
        let mut c_sw = c0.clone();
        portable(&sw).run_packed(kc, &a, &b, &mut c_sw).unwrap();
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
        portable(&sw).run_packed(0, &[], &[], &mut c).unwrap();
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
        Arc::new(compile(&p).unwrap().to_superword().unwrap())
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
        assert_eq!(portable(&sw).run_views(&[7], &mut [TensorView::Rw(&mut x)]), want);
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
        let tape = Arc::new(compile(&p).unwrap().to_tape().unwrap());
        let sw = Arc::new(tape.to_superword().unwrap());
        let mut out_tape = vec![0.0f32, 3.0];
        tape.run_views(&[], &mut [TensorView::Rw(&mut out_tape)]).unwrap();
        let mut out_sw = vec![0.0f32, 3.0];
        portable(&sw).run_views(&[], &mut [TensorView::Rw(&mut out_sw)]).unwrap();
        assert_eq!(out_tape, out_sw);
    }

    #[test]
    fn written_tensors_and_argument_mismatches_are_rejected() {
        let (_, sw) = staged_kernels();
        assert!(!sw.tape().writes_tensor(0) && !sw.tape().writes_tensor(1) && sw.tape().writes_tensor(2));
        let a = vec![0.0f32; 8];
        let b = vec![0.0f32; 4];
        let c = vec![0.0f32; 32];
        let err =
            portable(&sw).run_views(&[1], &mut [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Ro(&c)]);
        assert!(matches!(err, Err(CodegenError::BadArguments { .. })));
        let too_few = portable(&sw).run_views(&[1], &mut [TensorView::Ro(&a)]);
        assert!(matches!(too_few, Err(CodegenError::BadArguments { .. })));
        // A kernel without the packed (KC, Ac, Bc, C) signature is turned
        // away by the views' validation, with one error on every packed
        // door: the tape, the one-shot chain and a dispatch handle.
        let one_tensor = oob_kernel();
        let mut c = vec![0.0f32; 2];
        let want = one_tensor.tape().run_packed(1, &a, &b, &mut c).unwrap_err();
        assert!(matches!(want, CodegenError::BadArguments { .. }), "{want:?}");
        let chain = portable(&one_tensor);
        assert_eq!(chain.run_packed(1, &a, &b, &mut c), Err(want.clone()));
        assert_eq!(chain.dispatcher().run_packed(1, &a, &b, &mut c), Err(want));
        assert_eq!(c, [0.0; 2], "nothing ran");
    }

    #[test]
    fn dispatch_handle_matches_one_shot_runs_and_memoises_proofs() {
        let (_, sw) = staged_kernels();
        let chain = portable(&sw);
        let mut dispatch = chain.dispatcher();
        let (mr, nr) = (8usize, 4usize);
        // Sweep the per-GEMM dispatch pattern: many tiles, two distinct KC
        // values (full and fringe) — the proof must run once per distinct
        // input, not once per tile.
        for rep in 0..6 {
            for &kc in &[17usize, 5] {
                let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + rep) % 13) as f32 * 0.5 - 2.0).collect();
                let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + rep) % 11) as f32 * 0.25 - 1.0).collect();
                let c0: Vec<f32> = (0..nr * mr).map(|i| ((i + rep) % 5) as f32 * 0.5).collect();
                let mut c_dispatch = c0.clone();
                dispatch.run_packed(kc, &a, &b, &mut c_dispatch).unwrap();
                let mut c_one_shot = c0.clone();
                chain.run_packed(kc, &a, &b, &mut c_one_shot).unwrap();
                assert_eq!(c_dispatch, c_one_shot, "kc={kc} rep={rep}");
            }
        }
        assert_eq!(dispatch.memoised_proofs(), 2, "one proof per distinct (KC, lens) input");
    }

    #[test]
    fn dispatch_handle_reports_checked_path_errors_like_the_one_shot_run() {
        let chain = portable(&oob_kernel());
        let mut dispatch = chain.dispatcher();
        let mut x = vec![0.0f32; 2];
        let mut x_one_shot = x.clone();
        assert_eq!(
            dispatch.run_views(&[7], &mut [TensorView::Rw(&mut x)]),
            chain.run_views(&[7], &mut [TensorView::Rw(&mut x_one_shot)])
        );
        assert_eq!(x, vec![1.0, 1.0], "partial stores before the error, like the tape's");
        assert_eq!(x, x_one_shot);
        // The failed proof is memoised too: a retry with the same inputs
        // goes straight back to the checked loop.
        assert_eq!(dispatch.memoised_proofs(), 1);
        let mut y = vec![0.0f32; 8];
        dispatch.run_views(&[7], &mut [TensorView::Rw(&mut y)]).unwrap();
        assert_eq!(&y[..7], &[1.0; 7]);
        assert_eq!(dispatch.memoised_proofs(), 2);
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
        let tape = Arc::new(compile(&p).unwrap().to_tape().unwrap());
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
        portable(&sw)
            .run_views(&[], &mut [TensorView::Ro(&x), TensorView::Ro(&s), TensorView::Rw(&mut y_sw)])
            .unwrap();
        assert_eq!(y_tape, y_sw);
        assert_eq!(y_sw, vec![0.75, -1.0, 0.125, 1.5]);
    }
}
