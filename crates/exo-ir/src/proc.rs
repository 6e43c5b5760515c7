//! Procedures: the top-level schedulable unit, equivalent to an Exo `@proc`
//! (or `@instr` when carrying instruction metadata).

use std::collections::BTreeSet;
use std::fmt;

use crate::expr::Expr;
use crate::stmt::Stmt;
use crate::sym::Sym;
use crate::types::{MemSpace, ScalarType};

/// The kind of a procedure argument.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgKind {
    /// A `size` parameter: a positive integer fixed at call time (e.g. `KC`).
    Size,
    /// An `index` parameter: an integer used in subscripts (e.g. the lane
    /// number `l` of `vfmaq_laneq_f32`).
    Index,
    /// A tensor (buffer) parameter with element type, dimensions and memory
    /// placement. Scalars such as `alpha: f32[1]` are rank-1 tensors of
    /// extent 1, exactly as in the paper's listings.
    Tensor {
        /// Element type.
        ty: ScalarType,
        /// Dimension extents (may reference `size` parameters).
        dims: Vec<Expr>,
        /// Memory placement.
        mem: MemSpace,
    },
}

impl ArgKind {
    /// Shorthand for a tensor argument.
    pub fn tensor(ty: ScalarType, dims: Vec<Expr>, mem: MemSpace) -> ArgKind {
        ArgKind::Tensor { ty, dims, mem }
    }
}

/// A named procedure argument.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcArg {
    /// Argument name.
    pub name: Sym,
    /// Argument kind.
    pub kind: ArgKind,
}

impl ProcArg {
    /// Creates an argument.
    pub fn new(name: impl Into<Sym>, kind: ArgKind) -> Self {
        ProcArg { name: name.into(), kind }
    }

    /// Creates a `size` argument.
    pub fn size(name: impl Into<Sym>) -> Self {
        ProcArg::new(name, ArgKind::Size)
    }

    /// Creates an `index` argument.
    pub fn index(name: impl Into<Sym>) -> Self {
        ProcArg::new(name, ArgKind::Index)
    }

    /// Creates a tensor argument.
    pub fn tensor(name: impl Into<Sym>, ty: ScalarType, dims: Vec<Expr>, mem: MemSpace) -> Self {
        ProcArg::new(name, ArgKind::tensor(ty, dims, mem))
    }
}

/// Machine-level classification of an instruction, consumed by the
/// performance model (`carmel-sim`) when it executes instruction traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Vector load from memory into a register.
    VecLoad,
    /// Vector store from a register to memory.
    VecStore,
    /// Vector fused multiply-add, optionally indexed by a lane of the second
    /// source ("laneq" form).
    VecFma,
    /// Broadcast (duplicate) a scalar across a vector register.
    VecBroadcast,
    /// Vector multiply.
    VecMul,
    /// Vector add.
    VecAdd,
    /// Zero a vector register.
    VecZero,
    /// Software prefetch hint.
    Prefetch,
    /// Anything else (modelled as a generic single-issue ALU op).
    Other,
}

/// Metadata attached to an `@instr` procedure: how to print it as a C
/// intrinsic and how the hardware model should account for it.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrInfo {
    /// C format string with `{arg}` placeholders, e.g.
    /// `"vst1q_f32(&{dst_data}, {src_data});"`.
    pub c_format: String,
    /// Machine-level classification.
    pub class: InstrClass,
    /// Number of vector lanes the instruction operates on.
    pub lanes: usize,
    /// Element type of each lane.
    pub elem: ScalarType,
}

impl InstrInfo {
    /// Creates instruction metadata.
    pub fn new(c_format: impl Into<String>, class: InstrClass, lanes: usize, elem: ScalarType) -> Self {
        InstrInfo { c_format: c_format.into(), class, lanes, elem }
    }
}

/// A procedure: name, arguments, body, and optional instruction metadata.
///
/// This is the unit that scheduling operators rewrite and that backends
/// consume.
#[derive(Debug, Clone, PartialEq)]
pub struct Proc {
    /// Procedure name (becomes the C function name).
    pub name: String,
    /// Ordered argument list.
    pub args: Vec<ProcArg>,
    /// Statement body.
    pub body: Vec<Stmt>,
    /// Present when this procedure is a hardware instruction specification
    /// (the paper's `@instr` definitions, Fig. 3).
    pub instr: Option<InstrInfo>,
}

impl Proc {
    /// Creates a plain (schedulable) procedure.
    pub fn new(name: impl Into<String>, args: Vec<ProcArg>, body: Vec<Stmt>) -> Self {
        Proc { name: name.into(), args, body, instr: None }
    }

    /// Creates an instruction specification procedure.
    pub fn instr(name: impl Into<String>, args: Vec<ProcArg>, body: Vec<Stmt>, info: InstrInfo) -> Self {
        Proc { name: name.into(), args, body, instr: Some(info) }
    }

    /// Whether this procedure is an instruction specification.
    pub fn is_instr(&self) -> bool {
        self.instr.is_some()
    }

    /// Looks up an argument by name.
    pub fn arg(&self, name: &Sym) -> Option<&ProcArg> {
        self.args.iter().find(|a| &a.name == name)
    }

    /// Returns the formal tensor parameters written by the body.
    pub fn written_params(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        for stmt in &self.body {
            for name in stmt.written_bufs() {
                if self.arg(&name).is_some() {
                    out.insert(name);
                }
            }
        }
        out
    }

    /// Returns the formal tensor parameters read by the body.
    pub fn read_params(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        for stmt in &self.body {
            for name in stmt.read_bufs() {
                if self.arg(&name).is_some() {
                    out.insert(name);
                }
            }
        }
        out
    }

    /// Every symbol appearing anywhere in the procedure (arguments, loop
    /// variables, buffers). Used for fresh-name generation.
    pub fn all_syms(&self) -> BTreeSet<Sym> {
        let mut out: BTreeSet<Sym> = self.args.iter().map(|a| a.name.clone()).collect();
        for stmt in &self.body {
            out.extend(stmt.all_syms());
        }
        out
    }

    /// Generates a name derived from `base` that does not collide with any
    /// symbol already used in the procedure.
    pub fn fresh_sym(&self, base: &str) -> Sym {
        let taken = self.all_syms();
        Sym::new(base).freshen(&taken)
    }

    /// Simplifies every expression in the body.
    pub fn simplified(&self) -> Proc {
        self.with_body(self.body.iter().map(Stmt::simplify).collect())
    }

    /// This procedure's name, signature and instruction information around
    /// a new body — what a rewrite that rebuilds the whole body returns,
    /// without copying the old one first.
    pub fn with_body(&self, body: Vec<Stmt>) -> Proc {
        Proc { name: self.name.clone(), args: self.args.clone(), body, instr: self.instr.clone() }
    }

    /// Validates well-formedness of the procedure.
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] if an argument name is duplicated, a statement
    /// references an unbound symbol, a buffer is allocated twice, or an
    /// allocation shadows an argument.
    pub fn validate(&self) -> Result<(), IrError> {
        let mut bound: BTreeSet<Sym> = BTreeSet::new();
        for arg in &self.args {
            if !bound.insert(arg.name.clone()) {
                return Err(IrError::DuplicateName { proc: self.name.clone(), name: arg.name.clone() });
            }
        }
        // Dimensions of tensor args may only reference size args.
        let sizes: BTreeSet<Sym> =
            self.args.iter().filter(|a| matches!(a.kind, ArgKind::Size)).map(|a| a.name.clone()).collect();
        for arg in &self.args {
            if let ArgKind::Tensor { dims, .. } = &arg.kind {
                for d in dims {
                    let mut unbound = None;
                    d.for_each_sym(&mut |s| keep_least_unbound(&mut unbound, s, &sizes));
                    if let Some(name) = unbound {
                        return Err(IrError::UnboundSymbol {
                            proc: self.name.clone(),
                            name: name.clone(),
                            context: format!("dimension of argument `{}`", arg.name),
                        });
                    }
                }
            }
        }
        self.validate_block(&self.body, &mut bound)?;
        Ok(())
    }

    fn validate_block(&self, block: &[Stmt], bound: &mut BTreeSet<Sym>) -> Result<(), IrError> {
        let mut locally_bound: Vec<Sym> = Vec::new();
        for stmt in block {
            match stmt {
                Stmt::Alloc { name, dims, .. } => {
                    for d in dims {
                        self.check_expr_bound(d, bound, "allocation dimension")?;
                    }
                    if bound.contains(name) {
                        return Err(IrError::DuplicateName { proc: self.name.clone(), name: name.clone() });
                    }
                    bound.insert(name.clone());
                    locally_bound.push(name.clone());
                }
                Stmt::Assign { buf, idx, rhs } | Stmt::Reduce { buf, idx, rhs } => {
                    if !bound.contains(buf) {
                        return Err(IrError::UnboundSymbol {
                            proc: self.name.clone(),
                            name: buf.clone(),
                            context: "assignment target".into(),
                        });
                    }
                    for e in idx {
                        self.check_expr_bound(e, bound, "subscript")?;
                    }
                    self.check_expr_bound(rhs, bound, "right-hand side")?;
                }
                Stmt::For { var, lo, hi, body } => {
                    self.check_expr_bound(lo, bound, "loop bound")?;
                    self.check_expr_bound(hi, bound, "loop bound")?;
                    let fresh_here = !bound.contains(var);
                    if fresh_here {
                        bound.insert(var.clone());
                    }
                    self.validate_block(body, bound)?;
                    if fresh_here {
                        bound.remove(var);
                    }
                }
                Stmt::Call { instr, args } => {
                    if args.len() != instr.args.len() {
                        return Err(IrError::ArityMismatch {
                            proc: self.name.clone(),
                            callee: instr.name.clone(),
                            expected: instr.args.len(),
                            got: args.len(),
                        });
                    }
                    for arg in args {
                        // Window buffer names and index variables must both be bound.
                        let mut unbound = None;
                        arg.for_each_sym(&mut |s| keep_least_unbound(&mut unbound, s, bound));
                        if let Some(name) = unbound {
                            return Err(IrError::UnboundSymbol {
                                proc: self.name.clone(),
                                name: name.clone(),
                                context: format!("argument of call to `{}`", instr.name),
                            });
                        }
                    }
                }
                Stmt::If { cond, then_body, else_body } => {
                    self.check_expr_bound(&cond.lhs, bound, "if condition")?;
                    self.check_expr_bound(&cond.rhs, bound, "if condition")?;
                    self.validate_block(then_body, bound)?;
                    self.validate_block(else_body, bound)?;
                }
                Stmt::Comment(_) => {}
            }
        }
        for name in locally_bound {
            bound.remove(&name);
        }
        Ok(())
    }

    fn check_expr_bound(&self, e: &Expr, bound: &BTreeSet<Sym>, context: &str) -> Result<(), IrError> {
        let mut unbound = None;
        e.for_each_sym(&mut |s| keep_least_unbound(&mut unbound, s, bound));
        match unbound {
            Some(name) => Err(IrError::UnboundSymbol {
                proc: self.name.clone(),
                name: name.clone(),
                context: context.to_string(),
            }),
            None => Ok(()),
        }
    }
}

/// Keeps in `least` the least symbol visited that `bound` does not hold:
/// the one a walk over the sorted `free_syms` would report first, found
/// without collecting them.
fn keep_least_unbound<'a>(least: &mut Option<&'a Sym>, s: &'a Sym, bound: &BTreeSet<Sym>) {
    if !bound.contains(s) && least.is_none_or(|l| s < l) {
        *least = Some(s);
    }
}

/// Errors produced while constructing or validating IR.
#[derive(Debug, Clone, PartialEq)]
pub enum IrError {
    /// Two bindings share the same name.
    DuplicateName {
        /// Procedure in which the error occurred.
        proc: String,
        /// The offending name.
        name: Sym,
    },
    /// A symbol is referenced but never bound.
    UnboundSymbol {
        /// Procedure in which the error occurred.
        proc: String,
        /// The offending name.
        name: Sym,
        /// What the symbol was used for.
        context: String,
    },
    /// A call passes the wrong number of arguments.
    ArityMismatch {
        /// Procedure in which the error occurred.
        proc: String,
        /// The callee.
        callee: String,
        /// Number of formal parameters.
        expected: usize,
        /// Number of arguments supplied.
        got: usize,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::DuplicateName { proc, name } => {
                write!(f, "duplicate name `{name}` in procedure `{proc}`")
            }
            IrError::UnboundSymbol { proc, name, context } => {
                write!(f, "unbound symbol `{name}` used as {context} in procedure `{proc}`")
            }
            IrError::ArityMismatch { proc, callee, expected, got } => write!(
                f,
                "call to `{callee}` in procedure `{proc}` expects {expected} arguments but got {got}"
            ),
        }
    }
}

impl std::error::Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::stmt::Stmt;

    fn v(s: &str) -> Expr {
        Expr::var(s)
    }

    fn simple_proc() -> Proc {
        Proc::new(
            "ukernel_ref",
            vec![
                ProcArg::size("KC"),
                ProcArg::tensor("Ac", ScalarType::F32, vec![v("KC"), Expr::int(8)], MemSpace::Dram),
                ProcArg::tensor("Bc", ScalarType::F32, vec![v("KC"), Expr::int(12)], MemSpace::Dram),
                ProcArg::tensor("C", ScalarType::F32, vec![Expr::int(12), Expr::int(8)], MemSpace::Dram),
            ],
            vec![Stmt::for_(
                "k",
                0,
                v("KC"),
                vec![Stmt::for_(
                    "j",
                    0,
                    12,
                    vec![Stmt::for_(
                        "i",
                        0,
                        8,
                        vec![Stmt::reduce(
                            "C",
                            vec![v("j"), v("i")],
                            Expr::mul(
                                Expr::read("Ac", vec![v("k"), v("i")]),
                                Expr::read("Bc", vec![v("k"), v("j")]),
                            ),
                        )],
                    )],
                )],
            )],
        )
    }

    #[test]
    fn validates_well_formed_proc() {
        assert_eq!(simple_proc().validate(), Ok(()));
    }

    #[test]
    fn detects_unbound_symbol() {
        let mut p = simple_proc();
        p.body = vec![Stmt::assign("Z", vec![Expr::int(0)], Expr::int(0))];
        match p.validate() {
            Err(IrError::UnboundSymbol { name, .. }) => assert_eq!(name, "Z"),
            other => panic!("expected unbound symbol error, got {other:?}"),
        }
    }

    #[test]
    fn detects_duplicate_arg() {
        let mut p = simple_proc();
        p.args.push(ProcArg::size("KC"));
        assert!(matches!(p.validate(), Err(IrError::DuplicateName { .. })));
    }

    #[test]
    fn detects_arity_mismatch() {
        let instr = std::sync::Arc::new(Proc::instr(
            "neon_vld_4xf32",
            vec![
                ProcArg::tensor("dst", ScalarType::F32, vec![Expr::int(4)], MemSpace::Neon),
                ProcArg::tensor("src", ScalarType::F32, vec![Expr::int(4)], MemSpace::Dram),
            ],
            vec![Stmt::for_(
                "i",
                0,
                4,
                vec![Stmt::assign("dst", vec![v("i")], Expr::read("src", vec![v("i")]))],
            )],
            InstrInfo::new("{dst_data} = vld1q_f32(&{src_data});", InstrClass::VecLoad, 4, ScalarType::F32),
        ));
        let mut p = simple_proc();
        p.body = vec![Stmt::call(instr, vec![])];
        assert!(matches!(p.validate(), Err(IrError::ArityMismatch { .. })));
    }

    #[test]
    fn written_and_read_params() {
        let p = simple_proc();
        let written = p.written_params();
        let read = p.read_params();
        assert!(written.contains(&"C".into()));
        assert!(!written.contains(&"Ac".into()));
        assert!(read.contains(&"Ac".into()));
        assert!(read.contains(&"Bc".into()));
    }

    #[test]
    fn fresh_sym_avoids_existing_names() {
        let p = simple_proc();
        let s = p.fresh_sym("k");
        assert_eq!(s, "k_1");
        let t = p.fresh_sym("C_reg");
        assert_eq!(t, "C_reg");
    }

    #[test]
    fn tensor_dims_must_use_size_args() {
        let p = Proc::new(
            "bad",
            vec![ProcArg::tensor("A", ScalarType::F32, vec![v("N")], MemSpace::Dram)],
            vec![],
        );
        assert!(matches!(p.validate(), Err(IrError::UnboundSymbol { .. })));
    }

    #[test]
    fn stmt_count_counts_nested() {
        assert_eq!(crate::stmt::walk(&simple_proc().body).len(), 4);
    }

    #[test]
    fn display_of_errors_is_informative() {
        let e = IrError::ArityMismatch { proc: "p".into(), callee: "q".into(), expected: 2, got: 1 };
        let msg = e.to_string();
        assert!(msg.contains("expects 2"));
        assert!(msg.contains('q'));
    }
}
