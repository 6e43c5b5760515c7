//! Tape-compiled execution: a flat, register-allocated lowering of a
//! [`CompiledKernel`].
//!
//! The reference interpreter (`exo_ir::interp::run_proc`) re-evaluates
//! expression trees and re-resolves buffers on every statement it touches —
//! fine for validation, orders of magnitude off for a hot GEMM inner loop.
//! `to_tape` compiles a kernel once more, into a *tape*: a linear array of
//! ops over a flat `f32` register file.
//!
//! * Constant-trip loops (the register-tile loops of a micro-kernel) are
//!   fully unrolled at tape-build time.
//! * Local buffers with constant extents become contiguous runs of the
//!   register file, so the staged `C` tile and the `Ac`/`Bc` vector stages
//!   live in "registers", exactly as the generated C would place them.
//! * Every memory access is reduced to a precomputed affine address
//!   `base + Σ coeff·loop + Σ coeff·scalar` over the few loops that stay
//!   dynamic (the `KC` loop) — no expression trees survive to run time.
//! * Remaining loops (`for k in 0..KC`) are tape-level jump pairs.
//!
//! **The tape's job is to be the checked reference.** It is the one flat
//! executor that bounds-checks every register and tensor access, and every
//! faster lowering is packed *from* it and keeps it
//! ([`crate::SuperwordKernel::tape`]): a call whose bounds proof declines
//! runs here whatever unchecked body it declined for, the ahead-of-time
//! tier's promotion probe compares a compiled body against it, and a
//! `Tape` pin runs it on every call. No other module spells the scalar ops
//! with checks.
//!
//! The tape executes the interpreter's operations in the interpreter's
//! order and rounding — one rounding per op, a reduce of a product as one
//! fused `Fma`, `f16` rounding on the same stores — so results are bit for
//! bit equal; the differential suites assert this. Constructs the tape
//! cannot register-allocate (dynamically sized locals, data-dependent
//! branches, non-affine addresses) fail `to_tape` with
//! [`CodegenError::Unsupported`], which the micro-kernel generator reports
//! as a generation error.

use std::collections::HashMap;

use crate::error::{CodegenError, Result};
use crate::exec::{BufSlot, CompiledKernel, IExpr, Op, ParamKind, TensorView, VExpr};

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
/// ([`crate::superword`]) always address lane-aligned register runs — and,
/// over the chain's cache-line-aligned file ([`crate::simd::AlignedBuf`]),
/// whole 32-byte vectors in memory.
pub(crate) const LANE_ALIGN: u32 = 8;

/// A term of an affine address: one dynamic-loop counter or one scalar
/// parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Term {
    Loop(u16),
    Scalar(u16),
}

/// Affine integer form `base + Σ coeff·term`, the only shape of index
/// arithmetic that survives onto the tape.
#[derive(Debug, Clone, PartialEq)]
struct Affine {
    base: i64,
    terms: Vec<(Term, i64)>,
}

impl Affine {
    fn constant(v: i64) -> Self {
        Affine { base: v, terms: Vec::new() }
    }

    fn term(t: Term) -> Self {
        Affine { base: 0, terms: vec![(t, 1)] }
    }

    fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.base)
    }

    fn add(mut self, other: &Affine) -> Self {
        self.base += other.base;
        for &(t, c) in &other.terms {
            self.add_term(t, c);
        }
        self
    }

    fn add_term(&mut self, t: Term, c: i64) {
        match self.terms.iter_mut().find(|(existing, _)| *existing == t) {
            Some((_, coeff)) => *coeff += c,
            None => self.terms.push((t, c)),
        }
        self.terms.retain(|&(_, coeff)| coeff != 0);
    }

    fn scale(mut self, f: i64) -> Self {
        self.base *= f;
        for (_, c) in &mut self.terms {
            *c *= f;
        }
        self.terms.retain(|&(_, coeff)| coeff != 0);
        self
    }

    /// The address in the one shape its terms call for, picked here once so
    /// no later stage re-classifies it.
    fn into_addr(self) -> Addr {
        match *self.terms.as_slice() {
            [] => Addr::Const(self.base),
            [(Term::Loop(slot), coeff)] => Addr::Loop { base: self.base, slot, coeff },
            [(Term::Scalar(slot), coeff)] => Addr::Scalar { base: self.base, slot, coeff },
            _ => Addr::General { base: self.base, terms: self.terms.into_boxed_slice() },
        }
    }
}

/// A precomputed affine address `base + Σ coeff·term`, specialised at tape
/// build time into the handful of shapes a micro-kernel produces, so the
/// hot shapes evaluate without walking a term list. The one address type
/// of every lowering below the interpreter: the checked tape, the superword
/// packing and its proofs, the closure chains and the emitted C all read it.
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
/// Obtained from [`CompiledKernel::to_tape`]. Runs the same computation as
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
    /// the *checked reference* of every lowering packed from this tape:
    /// what a declined bounds proof runs
    /// ([`crate::SuperwordKernel::run_checked`]), what the ahead-of-time
    /// tier's promotion probe compares against, and what a `Tape` pin runs.
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::BadArguments`] if the counts do not match or
    /// a read-only view is passed for a tensor the tape writes, and
    /// [`CodegenError::OutOfBounds`] for the first access that leaves its
    /// buffer (the stores before it have landed).
    pub fn run_views(&self, scalars: &[i64], tensors: &mut [TensorView<'_>]) -> Result<()> {
        self.validate_views(scalars, tensors)?;
        self.exec(scalars, tensors)
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

    fn exec(&self, scalars: &[i64], tensors: &mut [TensorView<'_>]) -> Result<()> {
        let mut regs = vec![0.0f32; self.n_regs];
        let mut loops = vec![0i64; self.n_dyn_loops];
        let mut bounds = vec![0i64; self.n_dyn_loops];
        let ops = &self.ops;
        let mut pc = 0usize;
        while pc < ops.len() {
            match &ops[pc] {
                TOp::Fma { dst, a, b } => {
                    let v = regs[*a as usize].mul_add(regs[*b as usize], regs[*dst as usize]);
                    regs[*dst as usize] = v;
                }
                TOp::LoadT { dst, buf, addr } => {
                    let idx = addr.eval(&loops, scalars);
                    let slice = tensors[*buf as usize].as_slice();
                    regs[*dst as usize] = *slice.get(usize::try_from(idx).unwrap_or(usize::MAX)).ok_or(
                        CodegenError::OutOfBounds {
                            buf: format!("Arg({buf})"),
                            index: idx,
                            len: slice.len(),
                        },
                    )?;
                }
                TOp::StoreT { src, buf, addr } => {
                    let idx = addr.eval(&loops, scalars);
                    let value = regs[*src as usize];
                    match &mut tensors[*buf as usize] {
                        TensorView::Rw(slice) => {
                            let len = slice.len();
                            *slice.get_mut(usize::try_from(idx).unwrap_or(usize::MAX)).ok_or(
                                CodegenError::OutOfBounds { buf: format!("Arg({buf})"), index: idx, len },
                            )? = value;
                        }
                        TensorView::Ro(_) => {
                            return Err(CodegenError::BadArguments {
                                reason: format!("store to read-only tensor parameter {buf}"),
                            })
                        }
                    }
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
                TOp::CastI { dst, value } => regs[*dst as usize] = value.eval(&loops, scalars) as f32,
                TOp::Round { reg } => {
                    let r = &mut regs[*reg as usize];
                    *r = exo_ir::types::f16_round(*r as f64) as f32;
                }
                TOp::Zero { base, len } => {
                    regs[*base as usize..(*base + *len) as usize].fill(0.0);
                }
                TOp::LoopBegin { slot, lo, hi, end } => {
                    let l = lo.eval(&loops, scalars);
                    let h = hi.eval(&loops, scalars);
                    if l >= h {
                        pc = *end as usize;
                        continue;
                    }
                    loops[*slot as usize] = l;
                    bounds[*slot as usize] = h;
                }
                TOp::LoopEnd { slot, begin } => {
                    let s = *slot as usize;
                    loops[s] += 1;
                    if loops[s] < bounds[s] {
                        pc = *begin as usize + 1;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        Ok(())
    }
}

impl CompiledKernel {
    /// Compiles this kernel to a [`TapeKernel`].
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::Unsupported`] for constructs the tape cannot
    /// register-allocate: dynamically sized locals, dynamic indices into
    /// locals, data-dependent branches, and non-affine index arithmetic.
    pub fn to_tape(&self) -> Result<TapeKernel> {
        let mut b = TapeBuilder {
            ops: Vec::new(),
            loop_bind: HashMap::new(),
            locals: Vec::new(),
            n_dyn: 0,
            persist_next: 0,
            temp_next: 0,
            temp_high: 0,
        };
        b.block(&self.body)?;
        b.finish(self)
    }
}

#[derive(Debug, Clone, Copy)]
enum LoopBind {
    Const(i64),
    Dyn(u16),
}

#[derive(Debug, Clone, Copy)]
struct LocalBind {
    base: u32,
    len: u32,
}

/// Where a compiled access lands: a register (constant-indexed local) or a
/// tensor memory location.
enum Target {
    Reg(u32),
    Mem { buf: u16, addr: Addr },
}

struct TapeBuilder {
    ops: Vec<TOp>,
    loop_bind: HashMap<u16, LoopBind>,
    locals: Vec<Option<LocalBind>>,
    n_dyn: usize,
    persist_next: u32,
    temp_next: u32,
    temp_high: u32,
}

fn unsupported(what: impl Into<String>) -> CodegenError {
    CodegenError::Unsupported { backend: "tape", what: what.into() }
}

impl TapeBuilder {
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

    /// Lowers an index expression to affine form under the current loop
    /// bindings.
    fn affine(&self, e: &IExpr) -> Result<Affine> {
        Ok(match e {
            IExpr::Const(v) => Affine::constant(*v),
            IExpr::Loop(i) => match self.loop_bind.get(i) {
                Some(LoopBind::Const(c)) => Affine::constant(*c),
                Some(LoopBind::Dyn(d)) => Affine::term(Term::Loop(*d)),
                None => return Err(unsupported("loop variable used outside its loop")),
            },
            IExpr::Scalar(s) => Affine::term(Term::Scalar(*s)),
            IExpr::Add(a, b) => self.affine(a)?.add(&self.affine(b)?),
            IExpr::Sub(a, b) => self.affine(a)?.add(&self.affine(b)?.scale(-1)),
            IExpr::Mul(a, b) => {
                let (l, r) = (self.affine(a)?, self.affine(b)?);
                if let Some(c) = l.as_const() {
                    r.scale(c)
                } else if let Some(c) = r.as_const() {
                    l.scale(c)
                } else {
                    return Err(unsupported("product of two non-constant indices"));
                }
            }
            // Division and modulo fold, Euclidean like the interpreter's,
            // only for fully constant operands (a zero divisor folds to 0)
            // — anything else is not affine.
            IExpr::Div(a, b) => {
                let (l, r) = (self.affine(a)?.as_const(), self.affine(b)?.as_const());
                match (l, r) {
                    (Some(x), Some(d)) => Affine::constant(if d == 0 { 0 } else { x.div_euclid(d) }),
                    _ => return Err(unsupported("non-constant integer division")),
                }
            }
            IExpr::Mod(a, b) => {
                let (l, r) = (self.affine(a)?.as_const(), self.affine(b)?.as_const());
                match (l, r) {
                    (Some(x), Some(d)) => Affine::constant(if d == 0 { 0 } else { x.rem_euclid(d) }),
                    _ => return Err(unsupported("non-constant integer modulo")),
                }
            }
            IExpr::Neg(a) => self.affine(a)?.scale(-1),
        })
    }

    /// Resolves a buffer access to a register (constant-indexed local) or a
    /// tensor address.
    fn resolve(&self, buf: &BufSlot, flat: &IExpr) -> Result<Target> {
        let a = self.affine(flat)?;
        match buf {
            BufSlot::Arg(i) => Ok(Target::Mem { buf: *i, addr: a.into_addr() }),
            BufSlot::Local(i) => {
                let bind = self
                    .locals
                    .get(*i as usize)
                    .copied()
                    .flatten()
                    .ok_or_else(|| unsupported("local buffer used before allocation"))?;
                let off = a
                    .as_const()
                    .ok_or_else(|| unsupported("dynamic index into a register-allocated local"))?;
                if off < 0 || off >= bind.len as i64 {
                    return Err(CodegenError::OutOfBounds {
                        buf: format!("Local({i})"),
                        index: off,
                        len: bind.len as usize,
                    });
                }
                Ok(Target::Reg(bind.base + off as u32))
            }
        }
    }

    /// Compiles a value expression, returning the register holding it and
    /// whether that register is a fresh temporary (false = a borrowed
    /// persistent local register that must not be clobbered).
    fn vexpr(&mut self, e: &VExpr) -> Result<(u32, bool)> {
        match e {
            VExpr::Load { buf, flat } => {
                if let Target::Reg(r) = self.resolve(buf, flat)? {
                    return Ok((r, false));
                }
                let t = self.temp();
                self.vexpr_into(t, e)?;
                Ok((t, true))
            }
            _ => {
                let t = self.temp();
                self.vexpr_into(t, e)?;
                Ok((t, true))
            }
        }
    }

    /// Compiles a value expression so that its final op writes `dst`.
    fn vexpr_into(&mut self, dst: u32, e: &VExpr) -> Result<()> {
        match e {
            VExpr::Const(v) => self.push(TOp::ConstF { dst, val: *v }),
            VExpr::Int(i) => {
                let a = self.affine(i)?;
                match a.as_const() {
                    Some(c) => self.push(TOp::ConstF { dst, val: c as f32 }),
                    None => self.push(TOp::CastI { dst, value: a.into_addr() }),
                }
            }
            VExpr::Load { buf, flat } => match self.resolve(buf, flat)? {
                Target::Reg(r) => {
                    if r == dst {
                        Ok(())
                    } else {
                        self.push(TOp::Mov { dst, src: r })
                    }
                }
                Target::Mem { buf, addr } => self.push(TOp::LoadT { dst, buf, addr }),
            },
            VExpr::Add(a, b) => {
                let (ra, _) = self.vexpr(a)?;
                let (rb, _) = self.vexpr(b)?;
                self.push(TOp::Add { dst, a: ra, b: rb })
            }
            VExpr::Sub(a, b) => {
                let (ra, _) = self.vexpr(a)?;
                let (rb, _) = self.vexpr(b)?;
                self.push(TOp::Sub { dst, a: ra, b: rb })
            }
            VExpr::Mul(a, b) => {
                let (ra, _) = self.vexpr(a)?;
                let (rb, _) = self.vexpr(b)?;
                self.push(TOp::Mul { dst, a: ra, b: rb })
            }
            VExpr::Div(a, b) => {
                let (ra, _) = self.vexpr(a)?;
                let (rb, _) = self.vexpr(b)?;
                self.push(TOp::Div { dst, a: ra, b: rb })
            }
            VExpr::Neg(a) => {
                let (ra, _) = self.vexpr(a)?;
                self.push(TOp::Neg { dst, src: ra })
            }
        }
    }

    fn block(&mut self, ops: &[Op]) -> Result<()> {
        for op in ops {
            self.stmt(op)?;
        }
        Ok(())
    }

    fn stmt(&mut self, op: &Op) -> Result<()> {
        match op {
            Op::AllocLocal { slot, len } => {
                let len = self
                    .affine(len)?
                    .as_const()
                    .ok_or_else(|| unsupported("dynamically sized local buffer"))?
                    .max(1);
                if len > UNROLL_CAP * 16 {
                    return Err(unsupported(format!("local buffer of {len} registers")));
                }
                let base = self.persist_alloc(len as u32);
                let slot = *slot as usize;
                if self.locals.len() <= slot {
                    self.locals.resize(slot + 1, None);
                }
                self.locals[slot] = Some(LocalBind { base, len: len as u32 });
                self.push(TOp::Zero { base, len: len as u32 })
            }
            Op::Assign { buf, flat, rhs, f16 } => {
                self.temp_reset();
                match self.resolve(buf, flat)? {
                    Target::Reg(r) => {
                        self.vexpr_into(r, rhs)?;
                        if *f16 {
                            self.push(TOp::Round { reg: r })?;
                        }
                        Ok(())
                    }
                    Target::Mem { buf, addr } => {
                        let (src, owned) = self.vexpr(rhs)?;
                        let src = if *f16 {
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
            Op::Reduce { buf, flat, rhs, f16 } => {
                self.temp_reset();
                // The accumulator: the target register, or a temporary the
                // target's element is loaded into and stored back from.
                let (acc, mem) = match self.resolve(buf, flat)? {
                    Target::Reg(r) => (r, None),
                    Target::Mem { buf, addr } => (self.temp(), Some((buf, addr))),
                };
                let load = |tb: &mut Self| match &mem {
                    Some((buf, addr)) => tb.push(TOp::LoadT { dst: acc, buf: *buf, addr: addr.clone() }),
                    None => Ok(()),
                };
                if let VExpr::Mul(a, b) = rhs {
                    let (ra, _) = self.vexpr(a)?;
                    let (rb, _) = self.vexpr(b)?;
                    load(self)?;
                    self.push(TOp::Fma { dst: acc, a: ra, b: rb })?;
                } else {
                    let (v, _) = self.vexpr(rhs)?;
                    load(self)?;
                    self.push(TOp::AddAssign { dst: acc, src: v })?;
                }
                if *f16 {
                    self.push(TOp::Round { reg: acc })?;
                }
                match mem {
                    Some((buf, addr)) => self.push(TOp::StoreT { src: acc, buf, addr }),
                    None => Ok(()),
                }
            }
            Op::For { var, lo, hi, body } => {
                let lo_a = self.affine(lo)?;
                let hi_a = self.affine(hi)?;
                if let (Some(l), Some(h)) = (lo_a.as_const(), hi_a.as_const()) {
                    if h - l <= UNROLL_CAP {
                        let saved = self.loop_bind.get(var).copied();
                        for i in l..h {
                            self.loop_bind.insert(*var, LoopBind::Const(i));
                            self.block(body)?;
                        }
                        match saved {
                            Some(bind) => self.loop_bind.insert(*var, bind),
                            None => self.loop_bind.remove(var),
                        };
                        return Ok(());
                    }
                }
                // Dynamic loop (or a constant loop too long to unroll).
                if self.n_dyn >= u16::MAX as usize {
                    return Err(unsupported("too many dynamic loops"));
                }
                let slot = self.n_dyn as u16;
                self.n_dyn += 1;
                let saved = self.loop_bind.insert(*var, LoopBind::Dyn(slot));
                let begin = self.ops.len();
                self.push(TOp::LoopBegin { slot, lo: lo_a.into_addr(), hi: hi_a.into_addr(), end: 0 })?;
                self.block(body)?;
                self.push(TOp::LoopEnd { slot, begin: begin as u32 })?;
                let end = self.ops.len() as u32;
                if let TOp::LoopBegin { end: e, .. } = &mut self.ops[begin] {
                    *e = end;
                }
                match saved {
                    Some(bind) => self.loop_bind.insert(*var, bind),
                    None => self.loop_bind.remove(var),
                };
                Ok(())
            }
            Op::If { lhs, op, rhs, then_body, else_body } => {
                let l = self.affine(lhs)?.as_const();
                let r = self.affine(rhs)?.as_const();
                match (l, r) {
                    (Some(a), Some(b)) => {
                        if op.eval(a, b) {
                            self.block(then_body)
                        } else {
                            self.block(else_body)
                        }
                    }
                    _ => Err(unsupported("data-dependent branch")),
                }
            }
        }
    }

    fn finish(mut self, kernel: &CompiledKernel) -> Result<TapeKernel> {
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
        let n_tensors = kernel.params.iter().filter(|(_, k)| *k == ParamKind::Tensor).count();
        let mut tensor_written = vec![false; n_tensors];
        for op in &self.ops {
            if let TOp::StoreT { buf, .. } = op {
                tensor_written[*buf as usize] = true;
            }
        }
        Ok(TapeKernel {
            name: kernel.name.clone(),
            params: kernel.params.clone(),
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
    use crate::exec::compile;
    use exo_ir::builder::*;
    use exo_ir::{MemSpace, ScalarType};

    /// The reference kernel specialised to an 8x12 tile: signature
    /// `(KC, Ac, Bc, C)` with constant-trip tile loops, the form every
    /// generated kernel takes.
    fn reference_tape() -> (exo_ir::Proc, TapeKernel) {
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let p = exo_sched::partial_eval(&p, &[8, 12]).unwrap();
        let tape = compile(&p).unwrap().to_tape().unwrap();
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
        assert!(matches!(compile(&p).unwrap().to_tape(), Err(CodegenError::Unsupported { .. })));
    }

    #[test]
    fn out_of_bounds_accesses_are_reported() {
        let p = proc("oob")
            .size_arg("N")
            .tensor_arg("x", ScalarType::F32, vec![var("N")], MemSpace::Dram)
            .body(vec![for_("i", 0, var("N"), vec![assign("x", vec![var("i")], flt(1.0))])])
            .build();
        let tape = compile(&p).unwrap().to_tape().unwrap();
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
        let tape = compile(&p).unwrap().to_tape().unwrap();
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
}
