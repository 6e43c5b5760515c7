//! Tape-compiled execution: the one lowering of a scheduled procedure,
//! into a flat, register-allocated tape.
//!
//! The reference interpreter (`exo_ir::interp::run_proc`) re-evaluates
//! expression trees and re-resolves buffers on every statement it touches —
//! fine for validation, orders of magnitude off for a hot GEMM inner loop.
//! [`compile`] walks the procedure once, into a *tape*: a linear array of
//! ops over a flat `f32` register file.
//!
//! * Instruction calls are inlined back to their semantic bodies, once,
//!   before the walk.
//! * Constant-trip loops (the register-tile loops of a micro-kernel) are
//!   fully unrolled at tape-build time.
//! * Local buffers with constant extents become contiguous runs of the
//!   register file, so the staged `C` tile and the `Ac`/`Bc` vector stages
//!   live in "registers", exactly as the generated C would place them.
//! * Every memory access is linearised row-major and normalised by
//!   `exo_ir::Affine` — the form the scheduler's index checks use — into a
//!   precomputed affine address `base + Σ coeff·loop + Σ coeff·scalar` over
//!   the few loops that stay dynamic (the `KC` loop): an unrolled loop's
//!   variable folds into the constant, and no expression trees survive to
//!   run time.
//! * Remaining loops (`for k in 0..KC`) are tape-level jump pairs.
//!
//! **The tape's job is to be the reference.** It is the flat scalar
//! executor that bounds-checks every register and tensor access, one lane
//! at a time, and every faster lowering is packed *from* it and keeps it
//! ([`crate::SuperwordKernel::tape`]). It is no serving tier: the
//! ahead-of-time tier's promotion probe compares every compiled body
//! against it, and the tests compare every tier against it. Its checked
//! op step (`Machine`) is the only place the scalar ops are spelled with
//! checks: the superword interpreter — the tier that serves a kernel with
//! no native body and a call whose bounds proof declined — runs its
//! leftover scalar ops through the same step, so it fails where the tape
//! fails.
//!
//! The tape executes the interpreter's operations in the interpreter's
//! order and rounding — one rounding per op, a reduce of a product as one
//! fused `Fma`, `f16` rounding on the same stores — so results are bit for
//! bit equal; the differential suites assert this. Constructs the tape
//! cannot register-allocate (dynamically sized locals, data-dependent
//! branches, non-affine addresses) fail [`compile`] with
//! [`CodegenError::Unsupported`], which the micro-kernel generator reports
//! as a generation error.

#![forbid(unsafe_code)]

use exo_ir::printer::expr_to_string;
use exo_ir::{Affine, ArgKind, BinOp, Expr, Proc, ScalarType, Stmt, Sym};
use exo_sched::inline_call;

use crate::error::{CodegenError, Result};

/// Loops with a constant trip count at or below this are unrolled; longer
/// ones stay dynamic loops on the tape.
const UNROLL_CAP: i64 = 4096;

/// Hard ceiling on tape length, so pathological inputs fail instead of
/// exhausting memory during unrolling.
const MAX_TAPE_OPS: usize = 1 << 20;

/// Marker bit distinguishing statement-scoped temporaries from persistent
/// registers while the tape is being built; cleared by the final remap.
const TEMP_FLAG: u32 = 1 << 31;

/// Vector lanes the register file is aligned to: every local buffer starts
/// on a multiple of this, so the whole-vector ops of the superword backend
/// ([`crate::superword`]) always address lane-aligned register runs — whole
/// vectors of the emitted C's `reg[]` array.
pub(crate) const LANE_ALIGN: u32 = 8;

/// A borrowed tensor argument — with the scalars beside it, the one way a
/// kernel of any tier is called (`run_views`).
#[derive(Debug)]
pub enum TensorView<'a> {
    /// A tensor the kernel only reads.
    Ro(&'a [f32]),
    /// A tensor the kernel may write.
    Rw(&'a mut [f32]),
}

impl TensorView<'_> {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f32] {
        match self {
            TensorView::Ro(s) => s,
            TensorView::Rw(s) => s,
        }
    }

    /// The view as a slice a store may write, or the error of a store to
    /// read-only tensor parameter `buf` (which the views' validation
    /// already turns away).
    #[inline]
    pub(crate) fn writable(&mut self, buf: u16) -> Result<&mut [f32]> {
        match self {
            TensorView::Rw(s) => Ok(s),
            TensorView::Ro(_) => Err(CodegenError::BadArguments {
                reason: format!("store to read-only tensor parameter {buf}"),
            }),
        }
    }
}

/// Whether a kernel parameter is a scalar (`size` / `index`) or a tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParamKind {
    Scalar,
    Tensor,
}

/// A term of an affine address: one dynamic-loop counter or one scalar
/// parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Term {
    Loop(u16),
    Scalar(u16),
}

/// A precomputed affine address `base + Σ coeff·term`, specialised at tape
/// build time into the handful of shapes a micro-kernel produces, so the
/// hot shapes evaluate without walking a term list. The one address type
/// of every lowering below the interpreter: the checked tape, the superword
/// packing, its interpreter and its proofs, and the emitted C all read it.
#[derive(Debug, Clone)]
pub(crate) enum Addr {
    /// A compile-time constant address.
    Const(i64),
    /// `base + coeff * loop[slot]` — the hot shape of every packed operand
    /// access inside the dynamic `KC` loop.
    Loop { base: i64, slot: u16, coeff: i64 },
    /// `base + coeff * scalar[slot]` — loop bounds (`0..KC`).
    Scalar { base: i64, slot: u16, coeff: i64 },
    /// Two or more terms, kept as a list.
    General { base: i64, terms: Box<[(Term, i64)]> },
}

impl Addr {
    /// The address of an affine form, in the one shape its terms call for,
    /// picked here once so no later stage re-classifies it.
    fn of(a: Affine<Term>) -> Addr {
        let base = a.constant;
        match *a.terms() {
            [] => Addr::Const(base),
            [(Term::Loop(slot), coeff)] => Addr::Loop { base, slot, coeff },
            [(Term::Scalar(slot), coeff)] => Addr::Scalar { base, slot, coeff },
            ref terms => Addr::General { base, terms: terms.into() },
        }
    }

    /// The constant offset.
    pub(crate) fn base(&self) -> i64 {
        match *self {
            Addr::Const(base)
            | Addr::Loop { base, .. }
            | Addr::Scalar { base, .. }
            | Addr::General { base, .. } => base,
        }
    }

    /// Every `(term, coeff)` pair, in order.
    pub(crate) fn terms(&self) -> impl Iterator<Item = (Term, i64)> + '_ {
        let single = match *self {
            Addr::Loop { slot, coeff, .. } => Some((Term::Loop(slot), coeff)),
            Addr::Scalar { slot, coeff, .. } => Some((Term::Scalar(slot), coeff)),
            Addr::Const(_) | Addr::General { .. } => None,
        };
        let list = match self {
            Addr::General { terms, .. } => &terms[..],
            _ => &[],
        };
        single.into_iter().chain(list.iter().copied())
    }

    #[inline]
    pub(crate) fn eval(&self, loops: &[i64], scalars: &[i64]) -> i64 {
        match self {
            Addr::Const(v) => *v,
            Addr::Loop { base, slot, coeff } => base + coeff * loops[*slot as usize],
            Addr::Scalar { base, slot, coeff } => base + coeff * scalars[*slot as usize],
            Addr::General { base, terms } => terms.iter().fold(*base, |v, &(t, c)| {
                v + c * match t {
                    Term::Loop(i) => loops[i as usize],
                    Term::Scalar(i) => scalars[i as usize],
                }
            }),
        }
    }

    /// Exact interval over the current loop-counter intervals (saturating,
    /// so overflow only ever widens the range and fails toward the checked
    /// path).
    pub(crate) fn interval(&self, iv: &[(i64, i64)], scalars: &[i64]) -> (i64, i64) {
        self.terms().fold((self.base(), self.base()), |(lo, hi), (t, c)| {
            let (tmin, tmax) = match t {
                Term::Loop(i) => iv[i as usize],
                Term::Scalar(i) => (scalars[i as usize], scalars[i as usize]),
            };
            let (p, q) = if c >= 0 { (tmin, tmax) } else { (tmax, tmin) };
            (lo.saturating_add(c.saturating_mul(p)), hi.saturating_add(c.saturating_mul(q)))
        })
    }

    /// Whether `next` is this address shifted by a constant `k`: the same
    /// shape and strides, consecutive memory.
    pub(crate) fn offset_by(&self, next: &Addr, k: i64) -> bool {
        next.base() == self.base() + k && self.terms().eq(next.terms())
    }
}

/// One tape operation. Register fields index the flat `f32` register file.
#[derive(Debug, Clone)]
pub(crate) enum TOp {
    /// `reg[dst] = val`
    ConstF { dst: u32, val: f32 },
    /// `reg[dst] = tensor[buf][addr]`
    LoadT { dst: u32, buf: u16, addr: Addr },
    /// `tensor[buf][addr] = reg[src]`
    StoreT { src: u32, buf: u16, addr: Addr },
    /// `reg[dst] = reg[src]`
    Mov { dst: u32, src: u32 },
    /// `reg[dst] = reg[a] + reg[b]`
    Add { dst: u32, a: u32, b: u32 },
    /// `reg[dst] = reg[a] - reg[b]`
    Sub { dst: u32, a: u32, b: u32 },
    /// `reg[dst] = reg[a] * reg[b]`
    Mul { dst: u32, a: u32, b: u32 },
    /// `reg[dst] = reg[a] / reg[b]`
    Div { dst: u32, a: u32, b: u32 },
    /// `reg[dst] = -reg[src]`
    Neg { dst: u32, src: u32 },
    /// `reg[dst] = reg[a] * reg[b] + reg[dst]`, one rounding — the hot op.
    Fma { dst: u32, a: u32, b: u32 },
    /// `reg[dst] += reg[src]`
    AddAssign { dst: u32, src: u32 },
    /// `reg[dst] = addr as f32` (integer affine value cast to float)
    CastI { dst: u32, value: Addr },
    /// Round `reg[reg]` to f16 precision in place.
    Round { reg: u32 },
    /// Zero `len` registers starting at `base` (local-buffer allocation).
    Zero { base: u32, len: u32 },
    /// Enter a dynamic loop: evaluate bounds, jump to `end` if empty.
    LoopBegin { slot: u16, lo: Addr, hi: Addr, end: u32 },
    /// Bottom of a dynamic loop: bump the counter, jump back while it holds.
    LoopEnd { slot: u16, begin: u32 },
}

/// A kernel compiled to a flat tape of register ops.
///
/// Obtained from [`compile`]. Runs the same computation as
/// the interpreter bit-for-bit, typically one to two orders of magnitude
/// faster.
#[derive(Debug, Clone)]
pub struct TapeKernel {
    /// Name of the source procedure.
    pub name: String,
    pub(crate) params: Vec<(String, ParamKind)>,
    pub(crate) ops: Vec<TOp>,
    pub(crate) n_regs: usize,
    pub(crate) n_dyn_loops: usize,
    /// Per tensor-parameter flag: does any tape op store to it?
    pub(crate) tensor_written: Vec<bool>,
}

impl TapeKernel {
    /// Number of ops on the tape.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty (a kernel with no statements).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Size of the flat `f32` register file.
    pub fn register_count(&self) -> usize {
        self.n_regs
    }

    /// Whether the tape stores to tensor parameter `idx` (counting tensor
    /// parameters only, in signature order).
    pub fn writes_tensor(&self, idx: usize) -> bool {
        self.tensor_written.get(idx).copied().unwrap_or(false)
    }

    /// Runs the tape over borrowed tensor views: `scalars` and `tensors`
    /// are matched to the scalar and tensor parameters in signature order.
    /// Every register and tensor access is bounds-checked, which makes this
    /// the *reference* of every lowering packed from this tape: what the
    /// ahead-of-time tier's promotion probe compares a compiled body
    /// against, and what the tests compare every tier against.
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::BadArguments`] if the counts do not match or
    /// a read-only view is passed for a tensor the tape writes, and
    /// [`CodegenError::OutOfBounds`] for the first access that leaves its
    /// buffer (the stores before it have landed).
    pub fn run_views(&self, scalars: &[i64], tensors: &mut [TensorView<'_>]) -> Result<()> {
        self.validate_views(scalars, tensors)?;
        let m = &mut self.machine();
        let ops = &self.ops;
        let mut pc = 0usize;
        while pc < ops.len() {
            match &ops[pc] {
                TOp::LoopBegin { slot, lo, hi, end } => {
                    if !m.loop_begin(*slot, lo, hi, scalars) {
                        pc = *end as usize;
                        continue;
                    }
                }
                TOp::LoopEnd { slot, begin } => {
                    if m.loop_again(*slot) {
                        pc = *begin as usize + 1;
                        continue;
                    }
                }
                op => m.step(op, scalars, tensors)?,
            }
            pc += 1;
        }
        Ok(())
    }

    /// The argument validation every run — checked or proved — starts with.
    #[inline]
    pub(crate) fn validate_views(&self, scalars: &[i64], tensors: &[TensorView<'_>]) -> Result<()> {
        // `tensor_written` has one entry per tensor parameter.
        let n_tensors = self.tensor_written.len();
        let n_scalars = self.params.len() - n_tensors;
        if scalars.len() != n_scalars || tensors.len() != n_tensors {
            return Err(CodegenError::BadArguments {
                reason: format!(
                    "tape kernel `{}` expects {n_scalars} scalars and {n_tensors} tensors, got {} and {}",
                    self.name,
                    scalars.len(),
                    tensors.len()
                ),
            });
        }
        for (i, view) in tensors.iter().enumerate() {
            if matches!(view, TensorView::Ro(_)) && self.tensor_written[i] {
                return Err(CodegenError::BadArguments {
                    reason: format!(
                        "tape kernel `{}` writes tensor parameter {i}, which was passed read-only",
                        self.name
                    ),
                });
            }
        }
        Ok(())
    }

    /// Whether the kernel has the packed `(KC, Ac, Bc, C)` micro-kernel
    /// signature (one scalar, three tensors) — for the callers that lower or
    /// prove it without validating a call's views. A packed call needs no
    /// such check: [`Self::validate_views`] of one scalar and three tensors
    /// accepts exactly these kernels.
    pub(crate) fn check_packed_signature(&self) -> Result<()> {
        if self.params.len() != 4 || self.tensor_written.len() != 3 {
            return Err(CodegenError::BadArguments {
                reason: format!(
                    "tape kernel `{}` does not have the packed (KC, Ac, Bc, C) signature",
                    self.name
                ),
            });
        }
        Ok(())
    }

    /// Runs a packed micro-kernel signature `(KC, Ac, Bc, C)`:
    /// `c[nr][mr] += ac[kc][mr] * bc[kc][nr]`.
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::BadArguments`] if the kernel does not have
    /// the one-scalar/three-tensor packed signature or writes its packed
    /// operands (the views' validation), and propagates execution errors.
    pub fn run_packed(&self, kc: usize, ac: &[f32], bc: &[f32], c: &mut [f32]) -> Result<()> {
        self.run_views(&[kc as i64], &mut [TensorView::Ro(ac), TensorView::Ro(bc), TensorView::Rw(c)])
    }

    /// A fresh machine for this tape — and for the superword ops packed
    /// from it: its register file and dynamic-loop table.
    pub(crate) fn machine(&self) -> Machine {
        Machine {
            regs: vec![0.0; self.n_regs],
            loops: vec![0; self.n_dyn_loops],
            bounds: vec![0; self.n_dyn_loops],
        }
    }
}

/// The state of a checked run — the flat register file, the dynamic loop
/// counters and their bounds — and the one place the scalar ops are
/// spelled with checks: the tape runs every op through it, and the
/// superword interpreter ([`crate::superword`]) every scalar op its
/// packing left. Made by [`TapeKernel::machine`]; reusable across runs:
/// [`Self::reset`] restores a fresh machine's registers without allocating.
#[derive(Debug, Clone)]
pub(crate) struct Machine {
    pub(crate) regs: Vec<f32>,
    loops: Vec<i64>,
    bounds: Vec<i64>,
}

/// The error of an access at `index` outside a buffer of `len` elements.
pub(crate) fn out_of_bounds(buf: u16, index: i64, len: usize) -> CodegenError {
    CodegenError::OutOfBounds { buf: format!("Arg({buf})"), index, len }
}

impl Machine {
    /// Zeroes the register file, as a fresh run starts; loop slots are
    /// always written by their loop's entry before they are read.
    pub(crate) fn reset(&mut self) {
        self.regs.fill(0.0);
    }

    /// The value of an affine address under the current loop counters.
    #[inline]
    pub(crate) fn eval(&self, addr: &Addr, scalars: &[i64]) -> i64 {
        addr.eval(&self.loops, scalars)
    }

    /// Enters dynamic loop `slot` over `lo..hi`: `false` when it is empty
    /// (the caller jumps past its end).
    #[inline]
    pub(crate) fn loop_begin(&mut self, slot: u16, lo: &Addr, hi: &Addr, scalars: &[i64]) -> bool {
        let (l, h) = (self.eval(lo, scalars), self.eval(hi, scalars));
        self.loops[slot as usize] = l;
        self.bounds[slot as usize] = h;
        l < h
    }

    /// Bumps loop `slot`'s counter: `true` while the loop runs again (the
    /// caller jumps back to its body).
    #[inline]
    pub(crate) fn loop_again(&mut self, slot: u16) -> bool {
        let s = slot as usize;
        self.loops[s] += 1;
        self.loops[s] < self.bounds[s]
    }

    /// Runs one scalar op with every access checked. Loop markers are the
    /// caller's control flow, and nothing here.
    #[inline]
    pub(crate) fn step(&mut self, op: &TOp, scalars: &[i64], tensors: &mut [TensorView<'_>]) -> Result<()> {
        let regs = &mut self.regs;
        match op {
            TOp::Fma { dst, a, b } => {
                let v = regs[*a as usize].mul_add(regs[*b as usize], regs[*dst as usize]);
                regs[*dst as usize] = v;
            }
            TOp::LoadT { dst, buf, addr } => {
                let idx = addr.eval(&self.loops, scalars);
                let slice = tensors[*buf as usize].as_slice();
                regs[*dst as usize] = *slice
                    .get(usize::try_from(idx).unwrap_or(usize::MAX))
                    .ok_or_else(|| out_of_bounds(*buf, idx, slice.len()))?;
            }
            TOp::StoreT { src, buf, addr } => {
                let idx = addr.eval(&self.loops, scalars);
                let value = regs[*src as usize];
                let slice = tensors[*buf as usize].writable(*buf)?;
                let len = slice.len();
                *slice
                    .get_mut(usize::try_from(idx).unwrap_or(usize::MAX))
                    .ok_or_else(|| out_of_bounds(*buf, idx, len))? = value;
            }
            TOp::ConstF { dst, val } => regs[*dst as usize] = *val,
            TOp::Mov { dst, src } => regs[*dst as usize] = regs[*src as usize],
            TOp::Add { dst, a, b } => {
                let v = regs[*a as usize] + regs[*b as usize];
                regs[*dst as usize] = v;
            }
            TOp::Sub { dst, a, b } => {
                let v = regs[*a as usize] - regs[*b as usize];
                regs[*dst as usize] = v;
            }
            TOp::Mul { dst, a, b } => {
                let v = regs[*a as usize] * regs[*b as usize];
                regs[*dst as usize] = v;
            }
            TOp::Div { dst, a, b } => {
                let v = regs[*a as usize] / regs[*b as usize];
                regs[*dst as usize] = v;
            }
            TOp::Neg { dst, src } => regs[*dst as usize] = -regs[*src as usize],
            TOp::AddAssign { dst, src } => {
                let v = regs[*src as usize];
                regs[*dst as usize] += v;
            }
            TOp::CastI { dst, value } => regs[*dst as usize] = value.eval(&self.loops, scalars) as f32,
            TOp::Round { reg } => {
                let r = &mut regs[*reg as usize];
                *r = exo_ir::types::f16_round(*r as f64) as f32;
            }
            TOp::Zero { base, len } => regs[*base as usize..(*base + *len) as usize].fill(0.0),
            TOp::LoopBegin { .. } | TOp::LoopEnd { .. } => {}
        }
        Ok(())
    }
}

/// Lowers a scheduled procedure to its [`TapeKernel`], the one lowering
/// every tier starts from: instruction calls are inlined back to their
/// semantic bodies, constant-trip loops unrolled, every access linearised
/// row-major and normalised to an affine address under the loop bindings in
/// force, and every store to an `f16` buffer marked for rounding.
///
/// # Errors
///
/// Returns [`CodegenError::Unsupported`] for constructs the tape cannot
/// register-allocate — dynamically sized locals, dynamic indices into
/// locals, data-dependent branches, index arithmetic that is not affine (a
/// product of two unknowns, a division by anything but a non-zero constant)
/// — and for calls whose arguments do not match their instruction;
/// [`CodegenError::UnknownBuffer`] for a name nothing binds.
pub fn compile(p: &Proc) -> Result<TapeKernel> {
    let body = inline_calls(&p.body)?;
    let mut b = TapeBuilder {
        ops: Vec::new(),
        env: Env(Vec::new()),
        n_dyn: 0,
        persist_next: 0,
        temp_next: 0,
        temp_high: 0,
    };
    let mut params = Vec::with_capacity(p.args.len());
    let (mut n_scalars, mut n_tensors) = (0u16, 0u16);
    for arg in &p.args {
        let bind = match &arg.kind {
            ArgKind::Size | ArgKind::Index => {
                n_scalars += 1;
                params.push((arg.name.to_string(), ParamKind::Scalar));
                Bind::Scalar(n_scalars - 1)
            }
            ArgKind::Tensor { ty, dims, .. } => {
                n_tensors += 1;
                params.push((arg.name.to_string(), ParamKind::Tensor));
                Bind::Tensor { slot: n_tensors - 1, f16: *ty == ScalarType::F16, dims }
            }
        };
        b.env.insert(&arg.name, bind);
    }
    b.block(&body)?;
    b.finish(p.name.clone(), params, n_tensors.into())
}

/// Inlines every instruction call back to its semantic body, once, so an
/// unrolled loop does not re-inline its body on every iteration. Comments
/// go too.
fn inline_calls(block: &[Stmt]) -> Result<Vec<Stmt>> {
    let mut out = Vec::with_capacity(block.len());
    for stmt in block {
        match stmt {
            Stmt::Comment(_) => {}
            Stmt::Call { instr, args } => {
                let body = inline_call(instr, args).map_err(|e| {
                    unsupported(format!("call to `{}` could not be inlined: {e}", instr.name))
                })?;
                out.extend(inline_calls(&body)?);
            }
            Stmt::For { var, lo, hi, body } => out.push(Stmt::For {
                var: var.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
                body: inline_calls(body)?,
            }),
            Stmt::If { cond, then_body, else_body } => out.push(Stmt::If {
                cond: cond.clone(),
                then_body: inline_calls(then_body)?,
                else_body: inline_calls(else_body)?,
            }),
            Stmt::Assign { .. } | Stmt::Reduce { .. } | Stmt::Alloc { .. } => out.push(stmt.clone()),
        }
    }
    Ok(out)
}

/// What a name stands for while the tape is built. One environment holds
/// them all, as in the interpreter: a loop binds its variable for its body,
/// and an allocation binds its name from there on, so a name resolves to
/// its latest allocation.
#[derive(Debug, Clone, Copy)]
enum Bind<'a> {
    /// The variable of a loop being unrolled, at its current iteration.
    Unrolled(i64),
    /// The variable of a loop left on the tape: its counter slot.
    Dyn(u16),
    /// A size or index parameter: its slot among the scalar parameters.
    Scalar(u16),
    /// A tensor parameter: its slot among the tensor parameters.
    Tensor { slot: u16, f16: bool, dims: &'a [Expr] },
    /// A register-allocated local buffer: its run of the register file.
    Local { base: u32, len: u32, f16: bool, dims: &'a [Expr] },
}

/// Where a compiled access lands: a register (constant-indexed local) or a
/// tensor memory location.
enum Target {
    Reg(u32),
    Mem { buf: u16, addr: Addr },
}

/// The name environment. A kernel binds a dozen names or so, so a list
/// scanned from its end, where the innermost loops' variables sit, finds one
/// faster than a hash of it.
struct Env<'a>(Vec<(&'a Sym, Bind<'a>)>);

impl<'a> Env<'a> {
    fn get(&self, name: &Sym) -> Option<Bind<'a>> {
        self.0.iter().rev().find(|(n, _)| *n == name).map(|&(_, bind)| bind)
    }

    /// Binds `name`, replacing what it was bound to.
    fn insert(&mut self, name: &'a Sym, bind: Bind<'a>) {
        match self.0.iter_mut().rev().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = bind,
            None => self.0.push((name, bind)),
        }
    }

    fn remove(&mut self, name: &Sym) {
        self.0.retain(|(n, _)| *n != name);
    }
}

struct TapeBuilder<'a> {
    ops: Vec<TOp>,
    env: Env<'a>,
    n_dyn: usize,
    persist_next: u32,
    temp_next: u32,
    temp_high: u32,
}

fn unsupported(what: impl Into<String>) -> CodegenError {
    CodegenError::Unsupported { backend: "tape", what: what.into() }
}

impl<'a> TapeBuilder<'a> {
    fn push(&mut self, op: TOp) -> Result<()> {
        if self.ops.len() >= MAX_TAPE_OPS {
            return Err(unsupported(format!("tape exceeds {MAX_TAPE_OPS} ops")));
        }
        self.ops.push(op);
        Ok(())
    }

    fn persist_alloc(&mut self, len: u32) -> u32 {
        // Lane-align every local so the superword backend's whole-vector ops
        // address lane-aligned register runs; the padding registers are never
        // read or written.
        let base = self.persist_next.next_multiple_of(LANE_ALIGN);
        self.persist_next = base + len;
        base
    }

    fn temp(&mut self) -> u32 {
        let t = self.temp_next;
        self.temp_next += 1;
        self.temp_high = self.temp_high.max(self.temp_next);
        TEMP_FLAG | t
    }

    fn temp_reset(&mut self) {
        self.temp_next = 0;
    }

    /// Normalises an index expression to an affine form under the current
    /// bindings: an unrolled loop's variable is its constant, a dynamic
    /// loop's or a scalar parameter's its tape term.
    fn affine(&self, e: &Expr) -> Result<Affine<Term>> {
        Affine::of_bound(e, &mut |s| match self.env.get(s) {
            Some(Bind::Unrolled(v)) => Ok(Affine::constant(v)),
            Some(Bind::Dyn(slot)) => Ok(Affine::var(Term::Loop(slot))),
            Some(Bind::Scalar(slot)) => Ok(Affine::var(Term::Scalar(slot))),
            Some(Bind::Tensor { .. } | Bind::Local { .. }) => {
                Err(unsupported(format!("buffer `{s}` in index position")))
            }
            None => Err(CodegenError::UnknownBuffer { buf: s.clone() }),
        })?
        .ok_or_else(|| unsupported(format!("index `{}` is not affine", expr_to_string(e))))
    }

    /// Resolves a buffer access to a register (constant-indexed local) or a
    /// tensor address, and whether the buffer holds `f16`.
    fn resolve(&self, buf: &Sym, idx: &[Expr]) -> Result<(Target, bool)> {
        let bind = self.env.get(buf);
        let (dims, f16) = match bind {
            Some(Bind::Tensor { dims, f16, .. } | Bind::Local { dims, f16, .. }) => (dims, f16),
            _ => return Err(CodegenError::UnknownBuffer { buf: buf.clone() }),
        };
        if idx.len() != dims.len() {
            return Err(unsupported(format!(
                "access to `{buf}` with rank {} but the buffer has rank {}",
                idx.len(),
                dims.len()
            )));
        }
        // Horner: flat = ((i0 * d1 + i1) * d2 + i2) ...
        let mut flat = match idx.first() {
            Some(i0) => self.affine(i0)?,
            None => Affine::constant(0),
        };
        for (i, d) in idx.iter().zip(dims).skip(1) {
            let scaled = flat.product(self.affine(d)?);
            flat =
                scaled.ok_or_else(|| unsupported("product of two non-constant indices"))? + self.affine(i)?;
        }
        let target = match bind {
            Some(Bind::Local { base, len, .. }) => {
                if !flat.is_constant() {
                    return Err(unsupported("dynamic index into a register-allocated local"));
                }
                let off = flat.constant;
                if off < 0 || off >= i64::from(len) {
                    return Err(CodegenError::OutOfBounds {
                        buf: buf.to_string(),
                        index: off,
                        len: len as usize,
                    });
                }
                Target::Reg(base + off as u32)
            }
            Some(Bind::Tensor { slot, .. }) => Target::Mem { buf: slot, addr: Addr::of(flat) },
            _ => unreachable!("matched above"),
        };
        Ok((target, f16))
    }

    /// Compiles a value expression, returning the register holding it and
    /// whether that register is a fresh temporary (false = a borrowed
    /// persistent local register that must not be clobbered).
    fn vexpr(&mut self, e: &Expr) -> Result<(u32, bool)> {
        let t = match e {
            Expr::Read { buf, idx } => match self.resolve(buf, idx)?.0 {
                Target::Reg(r) => return Ok((r, false)),
                Target::Mem { buf, addr } => {
                    let t = self.temp();
                    self.push(TOp::LoadT { dst: t, buf, addr })?;
                    t
                }
            },
            _ => {
                let t = self.temp();
                self.vexpr_into(t, e)?;
                t
            }
        };
        Ok((t, true))
    }

    /// Compiles a value expression so that its final op writes `dst`.
    fn vexpr_into(&mut self, dst: u32, e: &Expr) -> Result<()> {
        match e {
            Expr::Float(v) => self.push(TOp::ConstF { dst, val: *v as f32 }),
            Expr::Int(v) => self.push(TOp::ConstF { dst, val: *v as f32 }),
            Expr::Var(_) => {
                let a = self.affine(e)?;
                match a.is_constant() {
                    true => self.push(TOp::ConstF { dst, val: a.constant as f32 }),
                    false => self.push(TOp::CastI { dst, value: Addr::of(a) }),
                }
            }
            Expr::Read { buf, idx } => match self.resolve(buf, idx)?.0 {
                Target::Reg(r) if r == dst => Ok(()),
                Target::Reg(r) => self.push(TOp::Mov { dst, src: r }),
                Target::Mem { buf, addr } => self.push(TOp::LoadT { dst, buf, addr }),
            },
            Expr::Binop { op, lhs, rhs } => {
                let make: fn(u32, u32, u32) -> TOp = match op {
                    BinOp::Add => |dst, a, b| TOp::Add { dst, a, b },
                    BinOp::Sub => |dst, a, b| TOp::Sub { dst, a, b },
                    BinOp::Mul => |dst, a, b| TOp::Mul { dst, a, b },
                    BinOp::Div => |dst, a, b| TOp::Div { dst, a, b },
                    BinOp::Mod => return Err(unsupported("floating-point modulo")),
                };
                let (a, _) = self.vexpr(lhs)?;
                let (b, _) = self.vexpr(rhs)?;
                self.push(make(dst, a, b))
            }
            Expr::Neg(inner) => {
                let (src, _) = self.vexpr(inner)?;
                self.push(TOp::Neg { dst, src })
            }
        }
    }

    fn block(&mut self, block: &'a [Stmt]) -> Result<()> {
        for stmt in block {
            self.stmt(stmt)?;
        }
        Ok(())
    }

    /// Restores what `var` was bound to before a loop bound it.
    fn unbind(&mut self, var: &'a Sym, saved: Option<Bind<'a>>) {
        match saved {
            Some(bind) => self.env.insert(var, bind),
            None => self.env.remove(var),
        };
    }

    fn stmt(&mut self, stmt: &'a Stmt) -> Result<()> {
        match stmt {
            Stmt::Comment(_) => Ok(()),
            Stmt::Call { instr, .. } => {
                Err(unsupported(format!("call to `{}` left after inlining", instr.name)))
            }
            Stmt::Alloc { name, ty, dims, .. } => {
                let len = dims.iter().try_fold(Affine::constant(1), |len, d| {
                    len.product(self.affine(d)?).ok_or_else(|| unsupported("dynamically sized local buffer"))
                })?;
                if !len.is_constant() {
                    return Err(unsupported("dynamically sized local buffer"));
                }
                let len = len.constant.max(1);
                if len > UNROLL_CAP * 16 {
                    return Err(unsupported(format!("local buffer of {len} registers")));
                }
                let base = self.persist_alloc(len as u32);
                self.env
                    .insert(name, Bind::Local { base, len: len as u32, f16: *ty == ScalarType::F16, dims });
                self.push(TOp::Zero { base, len: len as u32 })
            }
            Stmt::Assign { buf, idx, rhs } => {
                self.temp_reset();
                match self.resolve(buf, idx)? {
                    (Target::Reg(r), f16) => {
                        self.vexpr_into(r, rhs)?;
                        if f16 {
                            self.push(TOp::Round { reg: r })?;
                        }
                        Ok(())
                    }
                    (Target::Mem { buf, addr }, f16) => {
                        let (src, owned) = self.vexpr(rhs)?;
                        let src = if f16 {
                            // Round in a scratch register so a borrowed
                            // local is not corrupted.
                            let r = if owned {
                                src
                            } else {
                                let t = self.temp();
                                self.push(TOp::Mov { dst: t, src })?;
                                t
                            };
                            self.push(TOp::Round { reg: r })?;
                            r
                        } else {
                            src
                        };
                        self.push(TOp::StoreT { src, buf, addr })
                    }
                }
            }
            Stmt::Reduce { buf, idx, rhs } => {
                self.temp_reset();
                // The accumulator: the target register, or a temporary the
                // target's element is loaded into and stored back from.
                let (target, f16) = self.resolve(buf, idx)?;
                let (acc, mem) = match target {
                    Target::Reg(r) => (r, None),
                    Target::Mem { buf, addr } => (self.temp(), Some((buf, addr))),
                };
                let load = |tb: &mut Self| match &mem {
                    Some((buf, addr)) => tb.push(TOp::LoadT { dst: acc, buf: *buf, addr: addr.clone() }),
                    None => Ok(()),
                };
                if let Expr::Binop { op: BinOp::Mul, lhs, rhs } = rhs {
                    let (ra, _) = self.vexpr(lhs)?;
                    let (rb, _) = self.vexpr(rhs)?;
                    load(self)?;
                    self.push(TOp::Fma { dst: acc, a: ra, b: rb })?;
                } else {
                    let (v, _) = self.vexpr(rhs)?;
                    load(self)?;
                    self.push(TOp::AddAssign { dst: acc, src: v })?;
                }
                if f16 {
                    self.push(TOp::Round { reg: acc })?;
                }
                match mem {
                    Some((buf, addr)) => self.push(TOp::StoreT { src: acc, buf, addr }),
                    None => Ok(()),
                }
            }
            Stmt::For { var, lo, hi, body } => {
                let (lo, hi) = (self.affine(lo)?, self.affine(hi)?);
                let saved = self.env.get(var);
                if lo.is_constant() && hi.is_constant() && hi.constant - lo.constant <= UNROLL_CAP {
                    for i in lo.constant..hi.constant {
                        self.env.insert(var, Bind::Unrolled(i));
                        self.block(body)?;
                    }
                    self.unbind(var, saved);
                    return Ok(());
                }
                // Dynamic loop (or a constant loop too long to unroll).
                if self.n_dyn >= u16::MAX as usize {
                    return Err(unsupported("too many dynamic loops"));
                }
                let slot = self.n_dyn as u16;
                self.n_dyn += 1;
                let (lo, hi) = (Addr::of(lo), Addr::of(hi));
                self.env.insert(var, Bind::Dyn(slot));
                let begin = self.ops.len();
                self.push(TOp::LoopBegin { slot, lo, hi, end: 0 })?;
                self.block(body)?;
                self.push(TOp::LoopEnd { slot, begin: begin as u32 })?;
                let end = self.ops.len() as u32;
                if let TOp::LoopBegin { end: e, .. } = &mut self.ops[begin] {
                    *e = end;
                }
                self.unbind(var, saved);
                Ok(())
            }
            Stmt::If { cond, then_body, else_body } => {
                let (l, r) = (self.affine(&cond.lhs)?, self.affine(&cond.rhs)?);
                if !l.is_constant() || !r.is_constant() {
                    return Err(unsupported("data-dependent branch"));
                }
                if cond.op.eval(l.constant, r.constant) {
                    self.block(then_body)
                } else {
                    self.block(else_body)
                }
            }
        }
    }

    fn finish(
        mut self,
        name: String,
        params: Vec<(String, ParamKind)>,
        n_tensors: usize,
    ) -> Result<TapeKernel> {
        // Temporaries were numbered in their own space during the build;
        // place them after the persistent (local) registers.
        let persist = self.persist_next;
        let remap = |r: &mut u32| {
            if *r & TEMP_FLAG != 0 {
                *r = persist + (*r & !TEMP_FLAG);
            }
        };
        for op in &mut self.ops {
            match op {
                TOp::ConstF { dst, .. } | TOp::CastI { dst, .. } => remap(dst),
                TOp::LoadT { dst, .. } => remap(dst),
                TOp::StoreT { src, .. } => remap(src),
                TOp::Mov { dst, src } | TOp::Neg { dst, src } | TOp::AddAssign { dst, src } => {
                    remap(dst);
                    remap(src);
                }
                TOp::Add { dst, a, b }
                | TOp::Sub { dst, a, b }
                | TOp::Mul { dst, a, b }
                | TOp::Div { dst, a, b }
                | TOp::Fma { dst, a, b } => {
                    remap(dst);
                    remap(a);
                    remap(b);
                }
                TOp::Round { reg } => remap(reg),
                TOp::Zero { .. } | TOp::LoopBegin { .. } | TOp::LoopEnd { .. } => {}
            }
        }
        let mut tensor_written = vec![false; n_tensors];
        for op in &self.ops {
            if let TOp::StoreT { buf, .. } = op {
                tensor_written[*buf as usize] = true;
            }
        }
        Ok(TapeKernel {
            name,
            params,
            ops: self.ops,
            n_regs: (persist + self.temp_high) as usize,
            n_dyn_loops: self.n_dyn,
            tensor_written,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::builder::*;
    use exo_ir::{MemSpace, ScalarType};

    /// The reference kernel specialised to an 8x12 tile: signature
    /// `(KC, Ac, Bc, C)` with constant-trip tile loops, the form every
    /// generated kernel takes.
    fn reference_tape() -> (exo_ir::Proc, TapeKernel) {
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let p = exo_sched::partial_eval(&p, &[8, 12]).unwrap();
        let tape = compile(&p).unwrap();
        (p, tape)
    }

    #[test]
    fn tape_matches_interpreter_bit_for_bit_on_the_fig5_ukernel() {
        // `C` is reduced in memory here, so the load / fused multiply-add /
        // store lowering of a memory reduce runs; off-grid values make every
        // rounding show.
        let (p, tape) = reference_tape();
        let (mr, nr, kc) = (8usize, 12usize, 29usize);
        let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + 3) % 13) as f32 * 0.37 - 2.0).collect();
        let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + 1) % 11) as f32 * 0.21 - 1.0).collect();
        let c0: Vec<f32> = (0..nr * mr).map(|i| (i % 5) as f32 * 0.53).collect();

        let (mut c_interp, mut c_tape) = (c0.clone(), c0.clone());
        exo_ir::interp::run_packed(&p, kc, &a, &b, &mut c_interp).unwrap();
        tape.run_views(
            &[kc as i64],
            &mut [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Rw(&mut c_tape)],
        )
        .unwrap();
        assert_eq!(c_interp, c_tape, "tape must be bit-for-bit equal to the interpreter");

        // The packed entry point computes the same values.
        let mut c_packed = c0.clone();
        tape.run_packed(kc, &a, &b, &mut c_packed).unwrap();
        assert_eq!(c_interp, c_packed);
    }

    #[test]
    fn tape_reports_written_tensors_and_rejects_misuse() {
        let (_, tape) = reference_tape();
        // Signature is (KC, Ac, Bc, C): only C is written.
        assert!(!tape.writes_tensor(0));
        assert!(!tape.writes_tensor(1));
        assert!(tape.writes_tensor(2));
        // Passing the written tensor read-only is rejected up front.
        let a = vec![0.0f32; 8];
        let b = vec![0.0f32; 12];
        let c = vec![0.0f32; 96];
        let err = tape.run_views(&[1], &mut [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Ro(&c)]);
        assert!(matches!(err, Err(CodegenError::BadArguments { .. })));
    }

    #[test]
    fn constant_loops_unroll_and_kc_stays_dynamic() {
        let (_, tape) = reference_tape();
        // The register-tile loops are unrolled; only the KC loop remains.
        assert_eq!(tape.n_dyn_loops, 1);
        assert!(tape.len() > 8 * 12, "unrolled tape should carry ops for every tile element");
    }

    #[test]
    fn fully_symbolic_kernels_fall_back_to_the_interpreter() {
        // Without partial evaluation the tile loops multiply two unknowns
        // (`k * MR`), which is not affine: the tape refuses, and only the
        // reference interpreter runs such a procedure.
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        assert!(matches!(compile(&p), Err(CodegenError::Unsupported { .. })));
    }

    #[test]
    fn out_of_bounds_accesses_are_reported() {
        let p = proc("oob")
            .size_arg("N")
            .tensor_arg("x", ScalarType::F32, vec![var("N")], MemSpace::Dram)
            .body(vec![for_("i", 0, var("N"), vec![assign("x", vec![var("i")], flt(1.0))])])
            .build();
        let tape = compile(&p).unwrap();
        let mut x = vec![0.0f32; 2];
        // Claim N = 7 over a 2-element buffer.
        assert!(matches!(
            tape.run_views(&[7], &mut [TensorView::Rw(&mut x)]),
            Err(CodegenError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn f16_rounding_matches_the_interpreter() {
        use exo_ir::interp::{run_proc, ArgValue, TensorData};
        let p = proc("round16")
            .tensor_arg("out", ScalarType::F16, vec![int(2)], MemSpace::Dram)
            .body(vec![assign("out", vec![int(0)], flt(1.0 + 1.0e-5)), reduce("out", vec![int(1)], flt(0.1))])
            .build();
        let tape = compile(&p).unwrap();
        let mut args =
            [ArgValue::Tensor(TensorData { dims: vec![2], data: vec![0.0, 3.0], ty: ScalarType::F16 })];
        run_proc(&p, &mut args).unwrap();
        let out_interp: Vec<f32> = args[0].as_tensor().unwrap().data.iter().map(|&v| v as f32).collect();
        let mut out_tape = vec![0.0f32, 3.0];
        tape.run_views(&[], &mut [TensorView::Rw(&mut out_tape)]).unwrap();
        assert_eq!(out_interp, out_tape);
        assert_eq!(out_interp[0], 1.0);
    }

    #[test]
    fn argument_mismatches_are_reported() {
        let (_, tape) = reference_tape();
        assert!(matches!(tape.run_views(&[1], &mut []), Err(CodegenError::BadArguments { .. })));
    }

    #[test]
    fn compiled_fig5_ukernel_matches_naive_gemm() {
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let (mr, nr, kc) = (8usize, 12usize, 17usize);
        let tape = compile(&exo_sched::partial_eval(&p, &[mr as i64, nr as i64]).unwrap()).unwrap();
        let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + 3) % 13) as f32 * 0.5 - 2.0).collect();
        let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + 1) % 11) as f32 * 0.25).collect();
        let mut c: Vec<f32> = (0..nr * mr).map(|i| (i % 5) as f32).collect();
        let mut c_ref = c.clone();
        tape.run_views(&[kc as i64], &mut [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Rw(&mut c)])
            .unwrap();
        // The operands are small multiples of powers of two, so every
        // product and partial sum is exact and the fused and unfused
        // accumulations agree bit for bit.
        for k in 0..kc {
            for j in 0..nr {
                for i in 0..mr {
                    c_ref[j * mr + i] += a[k * mr + i] * b[k * nr + j];
                }
            }
        }
        assert_eq!(c, c_ref);
    }

    #[test]
    fn compiled_kernel_with_calls_matches_reference() {
        // Build a tiny vectorised copy kernel: R[it, 0:4] loaded from X, then
        // stored to Y, via the Neon load/store instruction specs.
        let isa = exo_isa::neon_f32();
        let window =
            || vec![interval(Expr::mul(int(4), var("it")), Expr::add(Expr::mul(int(4), var("it")), int(4)))];
        let p = proc("copy8")
            .tensor_arg("X", ScalarType::F32, vec![int(8)], MemSpace::Dram)
            .tensor_arg("Y", ScalarType::F32, vec![int(8)], MemSpace::Dram)
            .body(vec![
                alloc("R", ScalarType::F32, vec![int(2), int(4)], MemSpace::Neon),
                for_(
                    "it",
                    0,
                    2,
                    vec![
                        call(
                            &isa.load,
                            vec![win("R", vec![pt(var("it")), interval(0, 4)]), win("X", window())],
                        ),
                        call(
                            &isa.store,
                            vec![win("Y", window()), win("R", vec![pt(var("it")), interval(0, 4)])],
                        ),
                    ],
                ),
            ])
            .build();
        let tape = compile(&p).unwrap();
        let x: Vec<f32> = (0..8).map(|i| i as f32 * 1.5).collect();
        let mut y = vec![0.0f32; 8];
        tape.run_views(&[], &mut [TensorView::Ro(&x), TensorView::Rw(&mut y)]).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn f16_kernels_round_on_store() {
        let p = proc("round16")
            .tensor_arg("out", ScalarType::F16, vec![int(1)], MemSpace::Dram)
            .body(vec![assign("out", vec![int(0)], flt(1.0 + 1.0e-5))])
            .build();
        let mut out = vec![0.0f32; 1];
        compile(&p).unwrap().run_views(&[], &mut [TensorView::Rw(&mut out)]).unwrap();
        assert_eq!(out[0], 1.0);
    }

    #[test]
    fn param_names_follow_signature_order() {
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let p = exo_sched::partial_eval(&p, &[8, 12]).unwrap();
        let tape = compile(&p).unwrap();
        let names: Vec<&str> = tape.params.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["KC", "Ac", "Bc", "C"]);
    }

    #[test]
    fn a_constant_zero_divisor_in_an_index_is_declined_like_the_interpreter() {
        use exo_ir::interp::{run_proc, ArgValue, TensorData};
        for index in [Expr::div(int(1), int(0)), Expr::rem(int(1), int(0))] {
            let p = proc("zero_divisor")
                .tensor_arg("C", ScalarType::F32, vec![int(2)], MemSpace::Dram)
                .body(vec![assign("C", vec![index.clone()], flt(1.0))])
                .build();
            let mut args =
                [ArgValue::Tensor(TensorData { dims: vec![2], data: vec![0.0; 2], ty: ScalarType::F32 })];
            assert!(run_proc(&p, &mut args).is_err(), "{index:?}: the reference semantics rejects it");
            assert!(
                matches!(compile(&p), Err(CodegenError::Unsupported { .. })),
                "{index:?}: the tape must decline what the interpreter rejects"
            );
        }
    }
}
