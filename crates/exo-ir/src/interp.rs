//! A reference interpreter for procedures.
//!
//! The interpreter gives every procedure — scheduled or not — an executable
//! semantics, which is what lets the test-suite check that scheduling rewrites
//! are behaviour-preserving: run the original and the transformed procedure on
//! the same inputs and compare the output buffers.
//!
//! It is also *the* numeric semantics every executor of the workspace
//! reproduces bit for bit, and it is fused, as the paper's `fmla` is:
//!
//! * every arithmetic op rounds once to `f32`;
//! * a `Reduce` whose right-hand side is a product is one [`f32::mul_add`]
//!   (a single rounding), whether its target is a register or memory;
//! * a store to an `f16` buffer rounds that `f32` result to half.
//!
//! Buffers keep their elements in `f64` ([`TensorData`]), and every store
//! rounds to the buffer's storage type.

use std::collections::BTreeMap;
use std::fmt;

use crate::expr::Expr;
use crate::proc::{ArgKind, Proc};
use crate::stmt::{CallArg, Stmt, WAccess};
use crate::sym::Sym;
use crate::types::ScalarType;

/// A dense, row-major tensor of values at model precision.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorData {
    /// Dimension extents.
    pub dims: Vec<usize>,
    /// Row-major element storage (`dims.iter().product()` elements).
    pub data: Vec<f64>,
    /// Storage precision applied on every store.
    pub ty: ScalarType,
}

impl TensorData {
    /// Creates a zero-filled tensor.
    pub fn zeros(ty: ScalarType, dims: Vec<usize>) -> Self {
        let len = dims.iter().product();
        TensorData { dims, data: vec![0.0; len], ty }
    }

    /// Creates a tensor filled by `f(flat_index)`.
    pub fn from_fn(ty: ScalarType, dims: Vec<usize>, mut f: impl FnMut(usize) -> f64) -> Self {
        let len: usize = dims.iter().product();
        let data = (0..len).map(|i| ty.round(f(i))).collect();
        TensorData { dims, data, ty }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major flat offset of a multi-dimensional index, or `None` if out of
    /// bounds.
    pub fn flat_index(&self, idx: &[i64]) -> Option<usize> {
        if idx.len() != self.dims.len() {
            return None;
        }
        let mut flat = 0usize;
        for (i, (&x, &d)) in idx.iter().zip(&self.dims).enumerate() {
            if x < 0 || x as usize >= d {
                let _ = i;
                return None;
            }
            flat = flat * d + x as usize;
        }
        Some(flat)
    }

    /// Reads the element at `idx`.
    pub fn get(&self, idx: &[i64]) -> Option<f64> {
        self.flat_index(idx).map(|i| self.data[i])
    }

    /// Writes the element at `idx`, rounding to the storage precision.
    pub fn set(&mut self, idx: &[i64], value: f64) -> bool {
        match self.flat_index(idx) {
            Some(i) => {
                self.data[i] = self.ty.round(value);
                true
            }
            None => false,
        }
    }
}

/// A runtime argument passed to [`run_proc`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Value for a `size` parameter.
    Size(i64),
    /// Value for an `index` parameter.
    Index(i64),
    /// Buffer for a tensor parameter (mutated in place).
    Tensor(TensorData),
}

impl ArgValue {
    /// Convenience accessor for tensors.
    pub fn as_tensor(&self) -> Option<&TensorData> {
        match self {
            ArgValue::Tensor(t) => Some(t),
            _ => None,
        }
    }
}

/// Counters accumulated while interpreting, used by tests and by reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// `Reduce` statements executed, whatever their right-hand side.
    pub reduces: u64,
    /// Scalar assignments executed.
    pub assigns: u64,
    /// Instruction calls executed.
    pub calls: u64,
    /// Loop iterations executed.
    pub iterations: u64,
}

/// Errors produced by the interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// Number of runtime arguments does not match the procedure signature.
    ArgCountMismatch {
        /// Procedure name.
        proc: String,
        /// Expected count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// A runtime argument has the wrong kind (e.g. tensor where size expected).
    ArgKindMismatch {
        /// Argument name.
        name: Sym,
    },
    /// A symbol was not bound at use time.
    Unbound {
        /// The symbol.
        name: Sym,
    },
    /// A buffer access was out of bounds.
    OutOfBounds {
        /// Buffer name.
        buf: Sym,
        /// The offending index.
        idx: Vec<i64>,
        /// Buffer extents.
        dims: Vec<usize>,
    },
    /// An expression used in index position did not evaluate to an integer.
    NonIntegerIndex {
        /// Rendered expression.
        expr: String,
    },
    /// A value expression could not be evaluated (e.g. reads a `size`).
    BadValueExpr {
        /// Rendered expression.
        expr: String,
    },
    /// A call argument did not match the instruction parameter shape.
    BadCallArg {
        /// Callee name.
        callee: String,
        /// Parameter name.
        param: Sym,
        /// Description of the mismatch.
        reason: String,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::ArgCountMismatch { proc, expected, got } => {
                write!(f, "procedure `{proc}` expects {expected} arguments, got {got}")
            }
            InterpError::ArgKindMismatch { name } => write!(f, "argument `{name}` has the wrong kind"),
            InterpError::Unbound { name } => write!(f, "unbound symbol `{name}`"),
            InterpError::OutOfBounds { buf, idx, dims } => {
                write!(f, "index {idx:?} out of bounds for buffer `{buf}` with dims {dims:?}")
            }
            InterpError::NonIntegerIndex { expr } => write!(f, "expression `{expr}` is not an integer index"),
            InterpError::BadValueExpr { expr } => {
                write!(f, "expression `{expr}` cannot be evaluated as a value")
            }
            InterpError::BadCallArg { callee, param, reason } => {
                write!(f, "bad argument for parameter `{param}` of `{callee}`: {reason}")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Identifies the storage behind a buffer binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Arg(usize),
    Local(usize),
}

/// A (possibly windowed) view of a tensor.
#[derive(Debug, Clone, PartialEq)]
struct BufView {
    slot: Slot,
    /// Offset added to each underlying dimension.
    offsets: Vec<i64>,
    /// Which underlying dimensions are visible through the view, in order.
    kept: Vec<usize>,
    /// Extent of each visible dimension.
    extents: Vec<usize>,
}

impl BufView {
    fn full(slot: Slot, dims: &[usize]) -> Self {
        BufView {
            slot,
            offsets: vec![0; dims.len()],
            kept: (0..dims.len()).collect(),
            extents: dims.to_vec(),
        }
    }

    /// Translates view-relative indices to underlying-tensor indices.
    fn resolve(&self, idx: &[i64]) -> Option<Vec<i64>> {
        if idx.len() != self.kept.len() {
            return None;
        }
        let mut full: Vec<i64> = self.offsets.clone();
        for (pos, &dim) in self.kept.iter().enumerate() {
            if idx[pos] < 0 || idx[pos] as usize >= self.extents[pos] {
                return None;
            }
            full[dim] += idx[pos];
        }
        Some(full)
    }
}

#[derive(Debug, Clone)]
enum Binding {
    Int(i64),
    Buf(BufView),
}

type Env = BTreeMap<Sym, Binding>;

struct Machine<'a> {
    args: &'a mut [ArgValue],
    locals: Vec<TensorData>,
    stats: InterpStats,
}

impl<'a> Machine<'a> {
    fn tensor(&self, slot: Slot) -> &TensorData {
        match slot {
            Slot::Arg(i) => match &self.args[i] {
                ArgValue::Tensor(t) => t,
                _ => unreachable!("slot always refers to a tensor argument"),
            },
            Slot::Local(i) => &self.locals[i],
        }
    }

    fn tensor_mut(&mut self, slot: Slot) -> &mut TensorData {
        match slot {
            Slot::Arg(i) => match &mut self.args[i] {
                ArgValue::Tensor(t) => t,
                _ => unreachable!("slot always refers to a tensor argument"),
            },
            Slot::Local(i) => &mut self.locals[i],
        }
    }

    fn read_view(&self, view: &BufView, buf: &Sym, idx: &[i64]) -> Result<f64, InterpError> {
        let full = view.resolve(idx).ok_or_else(|| InterpError::OutOfBounds {
            buf: buf.clone(),
            idx: idx.to_vec(),
            dims: view.extents.clone(),
        })?;
        let t = self.tensor(view.slot);
        t.get(&full).ok_or_else(|| InterpError::OutOfBounds {
            buf: buf.clone(),
            idx: full,
            dims: t.dims.clone(),
        })
    }

    fn write_view(&mut self, view: &BufView, buf: &Sym, idx: &[i64], value: f64) -> Result<(), InterpError> {
        let full = view.resolve(idx).ok_or_else(|| InterpError::OutOfBounds {
            buf: buf.clone(),
            idx: idx.to_vec(),
            dims: view.extents.clone(),
        })?;
        let t = self.tensor_mut(view.slot);
        if t.set(&full, value) {
            Ok(())
        } else {
            Err(InterpError::OutOfBounds { buf: buf.clone(), idx: full, dims: t.dims.clone() })
        }
    }

    fn eval_index(&self, e: &Expr, env: &Env) -> Result<i64, InterpError> {
        match e {
            Expr::Int(v) => Ok(*v),
            Expr::Var(s) => match env.get(s) {
                Some(Binding::Int(v)) => Ok(*v),
                Some(Binding::Buf(_)) => Err(InterpError::NonIntegerIndex { expr: s.to_string() }),
                None => Err(InterpError::Unbound { name: s.clone() }),
            },
            Expr::Binop { op, lhs, rhs } => {
                let a = self.eval_index(lhs, env)?;
                let b = self.eval_index(rhs, env)?;
                use crate::expr::BinOp::*;
                Ok(match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => {
                        if b == 0 {
                            return Err(InterpError::NonIntegerIndex { expr: "division by zero".into() });
                        }
                        a.div_euclid(b)
                    }
                    Mod => {
                        if b == 0 {
                            return Err(InterpError::NonIntegerIndex { expr: "modulo by zero".into() });
                        }
                        a.rem_euclid(b)
                    }
                })
            }
            Expr::Neg(inner) => Ok(-self.eval_index(inner, env)?),
            Expr::Float(_) | Expr::Read { .. } => {
                Err(InterpError::NonIntegerIndex { expr: crate::printer::expr_to_string(e) })
            }
        }
    }

    fn eval_value(&self, e: &Expr, env: &Env) -> Result<f32, InterpError> {
        match e {
            Expr::Int(v) => Ok(*v as f32),
            Expr::Float(v) => Ok(*v as f32),
            Expr::Var(s) => match env.get(s) {
                Some(Binding::Int(v)) => Ok(*v as f32),
                Some(Binding::Buf(_)) => Err(InterpError::BadValueExpr { expr: s.to_string() }),
                None => Err(InterpError::Unbound { name: s.clone() }),
            },
            Expr::Read { buf, idx } => {
                let view = match env.get(buf) {
                    Some(Binding::Buf(v)) => v.clone(),
                    Some(Binding::Int(_)) => return Err(InterpError::BadValueExpr { expr: buf.to_string() }),
                    None => return Err(InterpError::Unbound { name: buf.clone() }),
                };
                let idx_vals: Result<Vec<i64>, _> = idx.iter().map(|i| self.eval_index(i, env)).collect();
                Ok(self.read_view(&view, buf, &idx_vals?)? as f32)
            }
            Expr::Binop { op, lhs, rhs } => {
                let a = self.eval_value(lhs, env)?;
                let b = self.eval_value(rhs, env)?;
                use crate::expr::BinOp::*;
                Ok(match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Mod => a % b,
                })
            }
            Expr::Neg(inner) => Ok(-self.eval_value(inner, env)?),
        }
    }

    fn exec_block(&mut self, block: &[Stmt], env: &mut Env) -> Result<(), InterpError> {
        let mut local_names: Vec<Sym> = Vec::new();
        for stmt in block {
            match stmt {
                Stmt::Comment(_) => {}
                Stmt::Alloc { name, ty, dims, .. } => {
                    let extents: Result<Vec<i64>, _> = dims.iter().map(|d| self.eval_index(d, env)).collect();
                    let extents: Vec<usize> =
                        extents?.into_iter().map(|d| if d < 0 { 0 } else { d as usize }).collect();
                    let slot = Slot::Local(self.locals.len());
                    self.locals.push(TensorData::zeros(*ty, extents.clone()));
                    env.insert(name.clone(), Binding::Buf(BufView::full(slot, &extents)));
                    local_names.push(name.clone());
                }
                Stmt::Assign { buf, idx, rhs } => {
                    let view = self.lookup_view(buf, env)?;
                    let idx_vals: Result<Vec<i64>, _> = idx.iter().map(|i| self.eval_index(i, env)).collect();
                    let value = self.eval_value(rhs, env)?;
                    self.write_view(&view, buf, &idx_vals?, value.into())?;
                    self.stats.assigns += 1;
                }
                Stmt::Reduce { buf, idx, rhs } => {
                    let view = self.lookup_view(buf, env)?;
                    let idx_vals: Vec<i64> =
                        idx.iter().map(|i| self.eval_index(i, env)).collect::<Result<_, _>>()?;
                    // A product is the one-rounding multiply-add the paper's `fmla` is.
                    let next = match rhs {
                        Expr::Binop { op: crate::expr::BinOp::Mul, lhs, rhs } => {
                            let (a, b) = (self.eval_value(lhs, env)?, self.eval_value(rhs, env)?);
                            a.mul_add(b, self.read_view(&view, buf, &idx_vals)? as f32)
                        }
                        _ => {
                            let value = self.eval_value(rhs, env)?;
                            self.read_view(&view, buf, &idx_vals)? as f32 + value
                        }
                    };
                    self.write_view(&view, buf, &idx_vals, next.into())?;
                    self.stats.reduces += 1;
                }
                Stmt::For { var, lo, hi, body } => {
                    let lo_v = self.eval_index(lo, env)?;
                    let hi_v = self.eval_index(hi, env)?;
                    let saved = env.get(var).cloned();
                    for i in lo_v..hi_v {
                        env.insert(var.clone(), Binding::Int(i));
                        self.stats.iterations += 1;
                        self.exec_block(body, env)?;
                    }
                    match saved {
                        Some(b) => {
                            env.insert(var.clone(), b);
                        }
                        None => {
                            env.remove(var);
                        }
                    }
                }
                Stmt::If { cond, then_body, else_body } => {
                    let a = self.eval_index(&cond.lhs, env)?;
                    let b = self.eval_index(&cond.rhs, env)?;
                    if cond.op.eval(a, b) {
                        self.exec_block(then_body, env)?;
                    } else {
                        self.exec_block(else_body, env)?;
                    }
                }
                Stmt::Call { instr, args } => {
                    self.stats.calls += 1;
                    self.exec_call(instr, args, env)?;
                }
            }
        }
        for name in local_names {
            env.remove(&name);
        }
        Ok(())
    }

    fn lookup_view(&self, buf: &Sym, env: &Env) -> Result<BufView, InterpError> {
        match env.get(buf) {
            Some(Binding::Buf(v)) => Ok(v.clone()),
            Some(Binding::Int(_)) => Err(InterpError::BadValueExpr { expr: buf.to_string() }),
            None => Err(InterpError::Unbound { name: buf.clone() }),
        }
    }

    fn exec_call(&mut self, instr: &Proc, args: &[CallArg], env: &Env) -> Result<(), InterpError> {
        if args.len() != instr.args.len() {
            return Err(InterpError::ArgCountMismatch {
                proc: instr.name.clone(),
                expected: instr.args.len(),
                got: args.len(),
            });
        }
        let mut callee_env: Env = Env::new();
        for (formal, actual) in instr.args.iter().zip(args) {
            match (&formal.kind, actual) {
                (ArgKind::Size | ArgKind::Index, CallArg::Expr(e)) => {
                    callee_env.insert(formal.name.clone(), Binding::Int(self.eval_index(e, env)?));
                }
                (ArgKind::Tensor { .. }, CallArg::Window(w)) => {
                    let base = self.lookup_view(&w.buf, env)?;
                    if w.idx.len() != base.kept.len() {
                        return Err(InterpError::BadCallArg {
                            callee: instr.name.clone(),
                            param: formal.name.clone(),
                            reason: format!(
                                "window has {} accesses but buffer `{}` has rank {}",
                                w.idx.len(),
                                w.buf,
                                base.kept.len()
                            ),
                        });
                    }
                    let mut offsets = base.offsets.clone();
                    let mut kept = Vec::new();
                    let mut extents = Vec::new();
                    for (pos, access) in w.idx.iter().enumerate() {
                        let underlying_dim = base.kept[pos];
                        match access {
                            WAccess::Point(e) => {
                                offsets[underlying_dim] += self.eval_index(e, env)?;
                            }
                            WAccess::Interval(lo, hi) => {
                                let lo_v = self.eval_index(lo, env)?;
                                let hi_v = self.eval_index(hi, env)?;
                                offsets[underlying_dim] += lo_v;
                                kept.push(underlying_dim);
                                extents.push((hi_v - lo_v).max(0) as usize);
                            }
                        }
                    }
                    let view = BufView { slot: base.slot, offsets, kept, extents };
                    callee_env.insert(formal.name.clone(), Binding::Buf(view));
                }
                (ArgKind::Tensor { .. }, CallArg::Expr(_)) => {
                    return Err(InterpError::BadCallArg {
                        callee: instr.name.clone(),
                        param: formal.name.clone(),
                        reason: "tensor parameter needs a window argument".into(),
                    })
                }
                (_, CallArg::Window(_)) => {
                    return Err(InterpError::BadCallArg {
                        callee: instr.name.clone(),
                        param: formal.name.clone(),
                        reason: "scalar parameter needs an expression argument".into(),
                    })
                }
            }
        }
        // Execute the instruction's semantic body with the callee environment.
        let body = instr.body.clone();
        self.exec_block(&body, &mut callee_env)
    }
}

/// Runs a procedure on the given arguments, mutating tensor arguments in
/// place.
///
/// # Errors
///
/// Returns [`InterpError`] if the argument list does not match the signature
/// or evaluation fails (unbound symbols, out-of-bounds accesses, ...).
pub fn run_proc(p: &Proc, args: &mut [ArgValue]) -> Result<InterpStats, InterpError> {
    if args.len() != p.args.len() {
        return Err(InterpError::ArgCountMismatch {
            proc: p.name.clone(),
            expected: p.args.len(),
            got: args.len(),
        });
    }
    let mut env: Env = Env::new();
    for (i, (formal, actual)) in p.args.iter().zip(args.iter()).enumerate() {
        match (&formal.kind, actual) {
            (ArgKind::Size, ArgValue::Size(v)) | (ArgKind::Index, ArgValue::Index(v)) => {
                env.insert(formal.name.clone(), Binding::Int(*v));
            }
            (ArgKind::Tensor { .. }, ArgValue::Tensor(t)) => {
                env.insert(formal.name.clone(), Binding::Buf(BufView::full(Slot::Arg(i), &t.dims)));
            }
            _ => return Err(InterpError::ArgKindMismatch { name: formal.name.clone() }),
        }
    }
    let mut machine = Machine { args, locals: Vec::new(), stats: InterpStats::default() };
    machine.exec_block(&p.body.clone(), &mut env)?;
    Ok(machine.stats)
}

/// [`run_proc`] on a packed micro-kernel `(KC, Ac, Bc, C)` over flat
/// row-major `f32` buffers, each shaped by its declared extents at
/// `KC = kc`: the reference an executor's `C` is held to bit for bit.
///
/// # Errors
///
/// As [`run_proc`]; a signature of another arity is an
/// [`InterpError::ArgCountMismatch`], and a buffer whose length is not
/// its extents' product an [`InterpError::ArgKindMismatch`].
pub fn run_packed(
    p: &Proc,
    kc: usize,
    ac: &[f32],
    bc: &[f32],
    c: &mut [f32],
) -> Result<InterpStats, InterpError> {
    if p.args.len() != 4 {
        return Err(InterpError::ArgCountMismatch { proc: p.name.clone(), expected: 4, got: p.args.len() });
    }
    let kc = kc as i64;
    let env = Env::from([(p.args[0].name.clone(), Binding::Int(kc))]);
    let shaper = Machine { args: &mut [], locals: Vec::new(), stats: InterpStats::default() };
    let mut args = vec![ArgValue::Size(kc)];
    for (formal, data) in p.args[1..].iter().zip([ac, bc, &*c]) {
        let mismatch = || InterpError::ArgKindMismatch { name: formal.name.clone() };
        let ArgKind::Tensor { ty, dims, .. } = &formal.kind else { return Err(mismatch()) };
        let dims: Vec<usize> =
            dims.iter().map(|d| Ok(shaper.eval_index(d, &env)?.max(0) as usize)).collect::<Result<_, _>>()?;
        if dims.iter().product::<usize>() != data.len() {
            return Err(mismatch());
        }
        args.push(ArgValue::Tensor(TensorData {
            dims,
            data: data.iter().map(|&v| v.into()).collect(),
            ty: *ty,
        }));
    }
    let stats = run_proc(p, &mut args)?;
    if let Some(ArgValue::Tensor(out)) = args.get(3) {
        c.iter_mut().zip(&out.data).for_each(|(c, &v)| *c = v as f32);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::proc::{InstrClass, InstrInfo};
    use crate::types::MemSpace;

    fn naive_ukernel(mr: i64, nr: i64) -> Proc {
        proc("ukernel_ref")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(mr)], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![var("KC"), int(nr)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(nr), int(mr)], MemSpace::Dram)
            .body(vec![for_(
                "k",
                0,
                var("KC"),
                vec![for_(
                    "j",
                    0,
                    int(nr),
                    vec![for_(
                        "i",
                        0,
                        int(mr),
                        vec![reduce(
                            "C",
                            vec![var("j"), var("i")],
                            Expr::mul(
                                read("Ac", vec![var("k"), var("i")]),
                                read("Bc", vec![var("k"), var("j")]),
                            ),
                        )],
                    )],
                )],
            )])
            .build()
    }

    #[test]
    fn gemm_microkernel_matches_manual_computation() {
        let (mr, nr, kc) = (4usize, 3usize, 5usize);
        let p = naive_ukernel(mr as i64, nr as i64);
        let a = TensorData::from_fn(ScalarType::F32, vec![kc, mr], |i| (i % 7) as f64 * 0.5);
        let b = TensorData::from_fn(ScalarType::F32, vec![kc, nr], |i| (i % 5) as f64 - 2.0);
        let c = TensorData::zeros(ScalarType::F32, vec![nr, mr]);
        let mut args = vec![
            ArgValue::Size(kc as i64),
            ArgValue::Tensor(a.clone()),
            ArgValue::Tensor(b.clone()),
            ArgValue::Tensor(c),
        ];
        let stats = run_proc(&p, &mut args).unwrap();
        assert_eq!(stats.reduces as usize, mr * nr * kc);
        let c_out = args[3].as_tensor().unwrap();
        for j in 0..nr {
            for i in 0..mr {
                let mut expect = 0.0f64;
                for k in 0..kc {
                    expect += a.get(&[k as i64, i as i64]).unwrap() * b.get(&[k as i64, j as i64]).unwrap();
                }
                let got = c_out.get(&[j as i64, i as i64]).unwrap();
                assert!((got - expect).abs() < 1e-6, "C[{j},{i}] = {got}, expected {expect}");
            }
        }
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let p = proc("oob")
            .tensor_arg("x", ScalarType::F32, vec![int(2)], MemSpace::Dram)
            .body(vec![assign("x", vec![int(5)], flt(1.0))])
            .build();
        let mut args = vec![ArgValue::Tensor(TensorData::zeros(ScalarType::F32, vec![2]))];
        match run_proc(&p, &mut args) {
            Err(InterpError::OutOfBounds { buf, .. }) => assert_eq!(buf, "x"),
            other => panic!("expected out-of-bounds, got {other:?}"),
        }
    }

    #[test]
    fn arg_mismatches_are_reported() {
        let p = naive_ukernel(2, 2);
        let mut too_few = vec![ArgValue::Size(1)];
        assert!(matches!(run_proc(&p, &mut too_few), Err(InterpError::ArgCountMismatch { .. })));
        let mut wrong_kind = vec![
            ArgValue::Tensor(TensorData::zeros(ScalarType::F32, vec![1])),
            ArgValue::Size(1),
            ArgValue::Size(1),
            ArgValue::Size(1),
        ];
        assert!(matches!(run_proc(&p, &mut wrong_kind), Err(InterpError::ArgKindMismatch { .. })));
    }

    #[test]
    fn alloc_creates_zeroed_scratch() {
        let p = proc("scratch")
            .tensor_arg("out", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .body(vec![
                alloc("tmp", ScalarType::F32, vec![int(4)], MemSpace::Dram),
                for_(
                    "i",
                    0,
                    4,
                    vec![
                        reduce("tmp", vec![var("i")], Expr::add(var("i"), flt(1.0))),
                        assign("out", vec![var("i")], read("tmp", vec![var("i")])),
                    ],
                ),
            ])
            .build();
        let mut args = vec![ArgValue::Tensor(TensorData::zeros(ScalarType::F32, vec![4]))];
        run_proc(&p, &mut args).unwrap();
        let out = args[0].as_tensor().unwrap();
        assert_eq!(out.get(&[0]).unwrap(), 1.0);
        assert_eq!(out.get(&[3]).unwrap(), 4.0);
    }

    #[test]
    fn f16_storage_rounds_values() {
        let p = proc("round16")
            .tensor_arg("out", ScalarType::F16, vec![int(1)], MemSpace::Dram)
            .body(vec![assign("out", vec![int(0)], flt(1.0 + 1e-5))])
            .build();
        let mut args = vec![ArgValue::Tensor(TensorData::zeros(ScalarType::F16, vec![1]))];
        run_proc(&p, &mut args).unwrap();
        assert_eq!(args[0].as_tensor().unwrap().get(&[0]).unwrap(), 1.0);
    }

    #[test]
    fn call_with_windows_executes_instruction_body() {
        // neon-style 4-wide load: dst[0:4] = src[0:4], where dst is a window
        // into a register tile and src a window into DRAM.
        let vld = std::sync::Arc::new(
            proc("neon_vld_4xf32")
                .tensor_arg("dst", ScalarType::F32, vec![int(4)], MemSpace::Neon)
                .tensor_arg("src", ScalarType::F32, vec![int(4)], MemSpace::Dram)
                .body(vec![for_("i", 0, 4, vec![assign("dst", vec![var("i")], read("src", vec![var("i")]))])])
                .instr_info(InstrInfo::new("vld", InstrClass::VecLoad, 4, ScalarType::F32))
                .build(),
        );
        let p = proc("stage")
            .tensor_arg("C", ScalarType::F32, vec![int(2), int(8)], MemSpace::Dram)
            .tensor_arg("R", ScalarType::F32, vec![int(2), int(2), int(4)], MemSpace::Dram)
            .body(vec![for_(
                "r",
                0,
                2,
                vec![for_(
                    "it",
                    0,
                    2,
                    vec![call(
                        &vld,
                        vec![
                            win("R", vec![pt(var("r")), pt(var("it")), interval(0, 4)]),
                            win(
                                "C",
                                vec![
                                    pt(var("r")),
                                    interval(
                                        Expr::mul(int(4), var("it")),
                                        Expr::add(Expr::mul(int(4), var("it")), int(4)),
                                    ),
                                ],
                            ),
                        ],
                    )],
                )],
            )])
            .build();
        let c = TensorData::from_fn(ScalarType::F32, vec![2, 8], |i| i as f64);
        let r = TensorData::zeros(ScalarType::F32, vec![2, 2, 4]);
        let mut args = vec![ArgValue::Tensor(c), ArgValue::Tensor(r)];
        let stats = run_proc(&p, &mut args).unwrap();
        assert_eq!(stats.calls, 4);
        let r_out = args[1].as_tensor().unwrap();
        // R[1, 1, 3] should hold C[1, 7] = 15.
        assert_eq!(r_out.get(&[1, 1, 3]).unwrap(), 15.0);
        assert_eq!(r_out.get(&[0, 1, 0]).unwrap(), 4.0);
    }

    #[test]
    fn index_call_args_bind_scalars() {
        // fma with lane index: dst[i] += lhs[i] * rhs[l]
        let fma = std::sync::Arc::new(
            proc("neon_vfmla")
                .tensor_arg("dst", ScalarType::F32, vec![int(4)], MemSpace::Neon)
                .tensor_arg("lhs", ScalarType::F32, vec![int(4)], MemSpace::Neon)
                .tensor_arg("rhs", ScalarType::F32, vec![int(4)], MemSpace::Neon)
                .index_arg("l")
                .body(vec![for_(
                    "i",
                    0,
                    4,
                    vec![reduce(
                        "dst",
                        vec![var("i")],
                        Expr::mul(read("lhs", vec![var("i")]), read("rhs", vec![var("l")])),
                    )],
                )])
                .instr_info(InstrInfo::new("fma", InstrClass::VecFma, 4, ScalarType::F32))
                .build(),
        );
        let p = proc("use_fma")
            .tensor_arg("d", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("a", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .tensor_arg("b", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .body(vec![call(
                &fma,
                vec![
                    win("d", vec![interval(0, 4)]),
                    win("a", vec![interval(0, 4)]),
                    win("b", vec![interval(0, 4)]),
                    arg_expr(int(2)),
                ],
            )])
            .build();
        let a = TensorData::from_fn(ScalarType::F32, vec![4], |i| (i + 1) as f64);
        let b = TensorData::from_fn(ScalarType::F32, vec![4], |i| (i * 10) as f64);
        let d = TensorData::zeros(ScalarType::F32, vec![4]);
        let mut args = vec![ArgValue::Tensor(d), ArgValue::Tensor(a), ArgValue::Tensor(b)];
        run_proc(&p, &mut args).unwrap();
        let d_out = args[0].as_tensor().unwrap();
        // d[i] = a[i] * b[2] = (i+1) * 20
        assert_eq!(d_out.get(&[0]).unwrap(), 20.0);
        assert_eq!(d_out.get(&[3]).unwrap(), 80.0);
    }

    #[test]
    fn if_statement_branches() {
        use crate::stmt::CmpOp;
        let p = proc("edge")
            .size_arg("n")
            .tensor_arg("x", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .body(vec![if_(
                CmpOp::Ge,
                var("n"),
                int(4),
                vec![assign("x", vec![int(0)], flt(1.0))],
                vec![assign("x", vec![int(0)], flt(2.0))],
            )])
            .build();
        let mut args = vec![ArgValue::Size(4), ArgValue::Tensor(TensorData::zeros(ScalarType::F32, vec![4]))];
        run_proc(&p, &mut args).unwrap();
        assert_eq!(args[1].as_tensor().unwrap().get(&[0]).unwrap(), 1.0);
        let mut args2 =
            vec![ArgValue::Size(2), ArgValue::Tensor(TensorData::zeros(ScalarType::F32, vec![4]))];
        run_proc(&p, &mut args2).unwrap();
        assert_eq!(args2[1].as_tensor().unwrap().get(&[0]).unwrap(), 2.0);
    }
}
