//! The tape's front end: lowers a scheduled procedure into a
//! [`CompiledKernel`], the form [`CompiledKernel::to_tape`] reads.
//!
//! Instruction calls are inlined back to their semantic bodies, multi-
//! dimensional accesses are linearised into row-major address polynomials,
//! and every store to an `f16` buffer is marked for rounding. Nothing here
//! executes: the reference semantics of a procedure is
//! `exo_ir::interp::run_proc`, which every tier reproduces bit for bit.

use exo_ir::{ArgKind, BinOp, Expr, Proc, ScalarType, Stmt, Sym};
use exo_sched::inline_call;

use crate::error::{CodegenError, Result};

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
}

/// Which runtime slot a compiled buffer reference points to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BufSlot {
    Arg(u16),
    Local(u16),
}

/// Compiled integer (index) expression.
#[derive(Debug, Clone)]
pub(crate) enum IExpr {
    Const(i64),
    Loop(u16),
    Scalar(u16),
    Add(Box<IExpr>, Box<IExpr>),
    Sub(Box<IExpr>, Box<IExpr>),
    Mul(Box<IExpr>, Box<IExpr>),
    Div(Box<IExpr>, Box<IExpr>),
    Mod(Box<IExpr>, Box<IExpr>),
    Neg(Box<IExpr>),
}

/// Compiled value (f32) expression.
#[derive(Debug, Clone)]
pub(crate) enum VExpr {
    Const(f32),
    Int(IExpr),
    Load { buf: BufSlot, flat: IExpr },
    Add(Box<VExpr>, Box<VExpr>),
    Sub(Box<VExpr>, Box<VExpr>),
    Mul(Box<VExpr>, Box<VExpr>),
    Div(Box<VExpr>, Box<VExpr>),
    Neg(Box<VExpr>),
}

/// Compiled statement.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    Assign { buf: BufSlot, flat: IExpr, rhs: VExpr, f16: bool },
    Reduce { buf: BufSlot, flat: IExpr, rhs: VExpr, f16: bool },
    For { var: u16, lo: IExpr, hi: IExpr, body: Vec<Op> },
    AllocLocal { slot: u16, len: IExpr },
    If { lhs: IExpr, op: exo_ir::CmpOp, rhs: IExpr, then_body: Vec<Op>, else_body: Vec<Op> },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParamKind {
    Scalar,
    Tensor,
}

/// A procedure lowered for the tape: calls inlined, accesses linearised.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Name of the source procedure.
    pub name: String,
    pub(crate) params: Vec<(String, ParamKind)>,
    pub(crate) body: Vec<Op>,
}

#[derive(Default)]
struct Compiler {
    loop_vars: Vec<Sym>,
    scalars: Vec<Sym>,
    arg_tensors: Vec<Sym>,
    arg_dims: Vec<Vec<Expr>>,
    arg_types: Vec<ScalarType>,
    locals: Vec<Sym>,
    local_dims: Vec<Vec<Expr>>,
    local_types: Vec<ScalarType>,
}

impl Compiler {
    fn loop_index(&mut self, s: &Sym) -> u16 {
        match self.loop_vars.iter().position(|v| v == s) {
            Some(i) => i as u16,
            None => {
                self.loop_vars.push(s.clone());
                (self.loop_vars.len() - 1) as u16
            }
        }
    }

    fn sym_ref(&self, s: &Sym) -> Option<IExpr> {
        if let Some(i) = self.loop_vars.iter().position(|v| v == s) {
            return Some(IExpr::Loop(i as u16));
        }
        if let Some(i) = self.scalars.iter().position(|v| v == s) {
            return Some(IExpr::Scalar(i as u16));
        }
        None
    }

    fn buffer(&self, s: &Sym) -> Option<(BufSlot, ScalarType, Vec<Expr>)> {
        if let Some(i) = self.arg_tensors.iter().position(|v| v == s) {
            return Some((BufSlot::Arg(i as u16), self.arg_types[i], self.arg_dims[i].clone()));
        }
        if let Some(i) = self.locals.iter().rposition(|v| v == s) {
            return Some((BufSlot::Local(i as u16), self.local_types[i], self.local_dims[i].clone()));
        }
        None
    }

    fn compile_iexpr(&mut self, e: &Expr) -> Result<IExpr> {
        Ok(match e {
            Expr::Int(v) => IExpr::Const(*v),
            Expr::Var(s) => self.sym_ref(s).ok_or_else(|| CodegenError::UnknownBuffer { buf: s.clone() })?,
            Expr::Binop { op, lhs, rhs } => {
                let l = Box::new(self.compile_iexpr(lhs)?);
                let r = Box::new(self.compile_iexpr(rhs)?);
                match op {
                    BinOp::Add => IExpr::Add(l, r),
                    BinOp::Sub => IExpr::Sub(l, r),
                    BinOp::Mul => IExpr::Mul(l, r),
                    BinOp::Div => IExpr::Div(l, r),
                    BinOp::Mod => IExpr::Mod(l, r),
                }
            }
            Expr::Neg(inner) => IExpr::Neg(Box::new(self.compile_iexpr(inner)?)),
            Expr::Float(_) | Expr::Read { .. } => {
                return Err(CodegenError::Unsupported {
                    backend: "exec",
                    what: "buffer reads or float literals in index position".into(),
                })
            }
        })
    }

    /// Compiles a multi-dimensional access into a row-major flat address
    /// polynomial.
    fn compile_access(&mut self, buf: &Sym, idx: &[Expr]) -> Result<(BufSlot, IExpr, bool)> {
        let (slot, ty, dims) =
            self.buffer(buf).ok_or_else(|| CodegenError::UnknownBuffer { buf: buf.clone() })?;
        if idx.len() != dims.len() {
            return Err(CodegenError::Unsupported {
                backend: "exec",
                what: format!(
                    "access to `{buf}` with rank {} but the buffer has rank {}",
                    idx.len(),
                    dims.len()
                ),
            });
        }
        // Horner: flat = ((i0 * d1 + i1) * d2 + i2) ...
        let mut flat = if idx.is_empty() { IExpr::Const(0) } else { self.compile_iexpr(&idx[0])? };
        for d in 1..idx.len() {
            let dim = self.compile_iexpr(&dims[d])?;
            let i = self.compile_iexpr(&idx[d])?;
            flat = IExpr::Add(Box::new(IExpr::Mul(Box::new(flat), Box::new(dim))), Box::new(i));
        }
        Ok((slot, flat, ty == ScalarType::F16))
    }

    fn compile_vexpr(&mut self, e: &Expr) -> Result<VExpr> {
        Ok(match e {
            Expr::Float(v) => VExpr::Const(*v as f32),
            Expr::Int(v) => VExpr::Const(*v as f32),
            Expr::Var(_) => VExpr::Int(self.compile_iexpr(e)?),
            Expr::Read { buf, idx } => {
                let (slot, flat, _) = self.compile_access(buf, idx)?;
                VExpr::Load { buf: slot, flat }
            }
            Expr::Binop { op, lhs, rhs } => {
                let l = Box::new(self.compile_vexpr(lhs)?);
                let r = Box::new(self.compile_vexpr(rhs)?);
                match op {
                    BinOp::Add => VExpr::Add(l, r),
                    BinOp::Sub => VExpr::Sub(l, r),
                    BinOp::Mul => VExpr::Mul(l, r),
                    BinOp::Div => VExpr::Div(l, r),
                    BinOp::Mod => {
                        return Err(CodegenError::Unsupported {
                            backend: "exec",
                            what: "floating-point modulo".into(),
                        })
                    }
                }
            }
            Expr::Neg(inner) => VExpr::Neg(Box::new(self.compile_vexpr(inner)?)),
        })
    }

    fn compile_block(&mut self, block: &[Stmt]) -> Result<Vec<Op>> {
        let mut out = Vec::new();
        for stmt in block {
            match stmt {
                Stmt::Comment(_) => {}
                Stmt::Alloc { name, ty, dims, .. } => {
                    let slot = self.locals.len() as u16;
                    // Total length = product of dims (1 for rank-0).
                    let mut len = IExpr::Const(1);
                    for d in dims {
                        let de = self.compile_iexpr(d)?;
                        len = IExpr::Mul(Box::new(len), Box::new(de));
                    }
                    self.locals.push(name.clone());
                    self.local_types.push(*ty);
                    self.local_dims.push(dims.clone());
                    out.push(Op::AllocLocal { slot, len });
                }
                Stmt::Assign { buf, idx, rhs } => {
                    let rhs = self.compile_vexpr(rhs)?;
                    let (slot, flat, f16) = self.compile_access(buf, idx)?;
                    out.push(Op::Assign { buf: slot, flat, rhs, f16 });
                }
                Stmt::Reduce { buf, idx, rhs } => {
                    let rhs = self.compile_vexpr(rhs)?;
                    let (slot, flat, f16) = self.compile_access(buf, idx)?;
                    out.push(Op::Reduce { buf: slot, flat, rhs, f16 });
                }
                Stmt::For { var, lo, hi, body } => {
                    let lo = self.compile_iexpr(lo)?;
                    let hi = self.compile_iexpr(hi)?;
                    let v = self.loop_index(var);
                    let body = self.compile_block(body)?;
                    out.push(Op::For { var: v, lo, hi, body });
                }
                Stmt::If { cond, then_body, else_body } => {
                    out.push(Op::If {
                        lhs: self.compile_iexpr(&cond.lhs)?,
                        op: cond.op,
                        rhs: self.compile_iexpr(&cond.rhs)?,
                        then_body: self.compile_block(then_body)?,
                        else_body: self.compile_block(else_body)?,
                    });
                }
                Stmt::Call { instr, args } => {
                    // Inline the instruction's semantic body; the scheduled
                    // structure has already done its job, functionally the
                    // body is all that matters.
                    let inlined = inline_call(instr, args).map_err(|e| CodegenError::Unsupported {
                        backend: "exec",
                        what: format!("call to `{}` could not be inlined: {e}", instr.name),
                    })?;
                    out.extend(self.compile_block(&inlined)?);
                }
            }
        }
        Ok(out)
    }
}

/// Lowers a procedure for the tape over `f32` buffers.
///
/// # Errors
///
/// Returns [`CodegenError::Unsupported`] for constructs the executable
/// backend cannot lower (reads in index position, calls whose arguments do
/// not match their instruction).
pub fn compile(p: &Proc) -> Result<CompiledKernel> {
    let mut params = Vec::new();
    let mut compiler = Compiler::default();
    for arg in &p.args {
        match &arg.kind {
            ArgKind::Size | ArgKind::Index => {
                compiler.scalars.push(arg.name.clone());
                params.push((arg.name.to_string(), ParamKind::Scalar));
            }
            ArgKind::Tensor { ty, dims, .. } => {
                compiler.arg_tensors.push(arg.name.clone());
                compiler.arg_types.push(*ty);
                compiler.arg_dims.push(dims.clone());
                params.push((arg.name.to_string(), ParamKind::Tensor));
            }
        }
    }
    let body = compiler.compile_block(&p.body)?;
    Ok(CompiledKernel { name: p.name.clone(), params, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::builder::*;
    use exo_ir::MemSpace;

    /// Runs a lowering on the tape, the one executor it has.
    fn run(kernel: &CompiledKernel, tensors: &mut [TensorView<'_>]) {
        kernel.to_tape().unwrap().run_views(&[], tensors).unwrap();
    }

    #[test]
    fn compiled_fig5_ukernel_matches_naive_gemm() {
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let (mr, nr, kc) = (8usize, 12usize, 17usize);
        let kernel = compile(&exo_sched::partial_eval(&p, &[mr as i64, nr as i64]).unwrap()).unwrap();
        let a: Vec<f32> = (0..kc * mr).map(|i| ((i * 7 + 3) % 13) as f32 * 0.5 - 2.0).collect();
        let b: Vec<f32> = (0..kc * nr).map(|i| ((i * 5 + 1) % 11) as f32 * 0.25).collect();
        let mut c: Vec<f32> = (0..nr * mr).map(|i| (i % 5) as f32).collect();
        let mut c_ref = c.clone();
        let tape = kernel.to_tape().unwrap();
        tape.run_views(&[kc as i64], &mut [TensorView::Ro(&a), TensorView::Ro(&b), TensorView::Rw(&mut c)])
            .unwrap();
        for k in 0..kc {
            for j in 0..nr {
                for i in 0..mr {
                    c_ref[j * mr + i] += a[k * mr + i] * b[k * nr + j];
                }
            }
        }
        for (x, y) in c.iter().zip(&c_ref) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn compiled_kernel_with_calls_matches_reference() {
        // Build a tiny vectorised copy kernel: R[it, 0:4] loaded from X, then
        // stored to Y, via the Neon load/store instruction specs.
        let isa = exo_isa::neon_f32();
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
                            vec![
                                win("R", vec![pt(var("it")), interval(0, 4)]),
                                win(
                                    "X",
                                    vec![interval(
                                        Expr::mul(int(4), var("it")),
                                        Expr::add(Expr::mul(int(4), var("it")), int(4)),
                                    )],
                                ),
                            ],
                        ),
                        call(
                            &isa.store,
                            vec![
                                win(
                                    "Y",
                                    vec![interval(
                                        Expr::mul(int(4), var("it")),
                                        Expr::add(Expr::mul(int(4), var("it")), int(4)),
                                    )],
                                ),
                                win("R", vec![pt(var("it")), interval(0, 4)]),
                            ],
                        ),
                    ],
                ),
            ])
            .build();
        let kernel = compile(&p).unwrap();
        let x: Vec<f32> = (0..8).map(|i| i as f32 * 1.5).collect();
        let mut y = vec![0.0f32; 8];
        run(&kernel, &mut [TensorView::Ro(&x), TensorView::Rw(&mut y)]);
        assert_eq!(y, x);
    }

    #[test]
    fn f16_kernels_round_on_store() {
        let p = proc("round16")
            .tensor_arg("out", ScalarType::F16, vec![int(1)], MemSpace::Dram)
            .body(vec![assign("out", vec![int(0)], flt(1.0 + 1.0e-5))])
            .build();
        let kernel = compile(&p).unwrap();
        let mut out = vec![0.0f32; 1];
        run(&kernel, &mut [TensorView::Rw(&mut out)]);
        assert_eq!(out[0], 1.0);
    }

    #[test]
    fn param_names_follow_signature_order() {
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let kernel = compile(&p).unwrap();
        let names: Vec<&str> = kernel.params.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["MR", "NR", "KC", "Ac", "Bc", "C"]);
    }
}
