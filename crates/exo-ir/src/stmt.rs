//! Statements, buffer windows, call arguments, and tree-addressing paths.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::expr::Expr;
use crate::proc::Proc;
use crate::sym::Sym;
use crate::types::{MemSpace, ScalarType};

/// One access along a single dimension of a buffer window.
#[derive(Debug, Clone, PartialEq)]
pub enum WAccess {
    /// A single element at the given index.
    Point(Expr),
    /// A half-open interval `[lo, hi)` of elements.
    Interval(Expr, Expr),
}

impl WAccess {
    /// Whether this access selects a range (contributes a dimension to the
    /// windowed view).
    pub fn is_interval(&self) -> bool {
        matches!(self, WAccess::Interval(_, _))
    }

    /// Applies a variable substitution to the contained expressions.
    pub fn subst(&self, map: &BTreeMap<Sym, Expr>) -> WAccess {
        match self {
            WAccess::Point(e) => WAccess::Point(e.subst(map)),
            WAccess::Interval(lo, hi) => WAccess::Interval(lo.subst(map), hi.subst(map)),
        }
    }

    /// Simplifies the contained expressions.
    pub fn simplify(&self) -> WAccess {
        match self {
            WAccess::Point(e) => WAccess::Point(e.simplify()),
            WAccess::Interval(lo, hi) => WAccess::Interval(lo.simplify(), hi.simplify()),
        }
    }
}

/// A window over a buffer, e.g. `C_reg[4 * jt + jtt, it, 0:4]`.
///
/// Windows appear as arguments to instruction calls: point accesses fix a
/// coordinate, interval accesses become dimensions of the callee's view.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowExpr {
    /// The buffer being windowed.
    pub buf: Sym,
    /// One access per buffer dimension.
    pub idx: Vec<WAccess>,
}

impl WindowExpr {
    /// Creates a window expression.
    pub fn new(buf: impl Into<Sym>, idx: Vec<WAccess>) -> Self {
        WindowExpr { buf: buf.into(), idx }
    }

    /// Number of interval (range) dimensions — the rank of the windowed view.
    pub fn rank(&self) -> usize {
        self.idx.iter().filter(|a| a.is_interval()).count()
    }

    /// Applies a variable substitution.
    pub fn subst(&self, map: &BTreeMap<Sym, Expr>) -> WindowExpr {
        WindowExpr { buf: self.buf.clone(), idx: self.idx.iter().map(|a| a.subst(map)).collect() }
    }

    /// Simplifies all contained expressions.
    pub fn simplify(&self) -> WindowExpr {
        WindowExpr { buf: self.buf.clone(), idx: self.idx.iter().map(|a| a.simplify()).collect() }
    }

    /// Collects every symbol referenced (buffer name and index variables).
    pub fn free_syms(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        self.for_each_sym(&mut |s| {
            out.insert(s.clone());
        });
        out
    }

    /// Visits every symbol referenced (buffer name and index variables,
    /// repeats included) without collecting them.
    pub(crate) fn for_each_sym<'w>(&'w self, f: &mut impl FnMut(&'w Sym)) {
        f(&self.buf);
        for a in &self.idx {
            match a {
                WAccess::Point(e) => e.for_each_sym(f),
                WAccess::Interval(lo, hi) => {
                    lo.for_each_sym(f);
                    hi.for_each_sym(f);
                }
            }
        }
    }
}

/// An argument passed to an instruction call.
#[derive(Debug, Clone, PartialEq)]
pub enum CallArg {
    /// A buffer window (tensor argument).
    Window(WindowExpr),
    /// A scalar / index expression (e.g. the lane number of
    /// `vfmaq_laneq_f32`).
    Expr(Expr),
}

impl CallArg {
    /// Applies a variable substitution.
    pub fn subst(&self, map: &BTreeMap<Sym, Expr>) -> CallArg {
        match self {
            CallArg::Window(w) => CallArg::Window(w.subst(map)),
            CallArg::Expr(e) => CallArg::Expr(e.subst(map)),
        }
    }

    /// Simplifies contained expressions.
    pub fn simplify(&self) -> CallArg {
        match self {
            CallArg::Window(w) => CallArg::Window(w.simplify()),
            CallArg::Expr(e) => CallArg::Expr(e.simplify()),
        }
    }

    /// Collects every symbol referenced.
    pub fn free_syms(&self) -> BTreeSet<Sym> {
        match self {
            CallArg::Window(w) => w.free_syms(),
            CallArg::Expr(e) => e.free_syms(),
        }
    }

    /// Visits every symbol referenced, repeats included.
    pub(crate) fn for_each_sym<'a>(&'a self, f: &mut impl FnMut(&'a Sym)) {
        match self {
            CallArg::Window(w) => w.for_each_sym(f),
            CallArg::Expr(e) => e.for_each_sym(f),
        }
    }
}

/// Comparison operators for `If` conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// C / Exo spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }

    /// Evaluates the comparison on integers.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

/// A scalar comparison used as an `If` condition.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    /// Comparison operator.
    pub op: CmpOp,
    /// Left operand.
    pub lhs: Expr,
    /// Right operand.
    pub rhs: Expr,
}

/// A statement in a procedure body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `buf[idx...] = rhs`
    Assign {
        /// Destination buffer.
        buf: Sym,
        /// Subscripts.
        idx: Vec<Expr>,
        /// Value stored.
        rhs: Expr,
    },
    /// `buf[idx...] += rhs`
    Reduce {
        /// Destination buffer.
        buf: Sym,
        /// Subscripts.
        idx: Vec<Expr>,
        /// Value accumulated.
        rhs: Expr,
    },
    /// `for var in seq(lo, hi): body`
    For {
        /// Loop index variable.
        var: Sym,
        /// Inclusive lower bound.
        lo: Expr,
        /// Exclusive upper bound.
        hi: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// A buffer allocation, e.g. `C_reg: f32[12, 2, 4] @ Neon`.
    Alloc {
        /// Buffer name.
        name: Sym,
        /// Element type.
        ty: ScalarType,
        /// Dimension extents.
        dims: Vec<Expr>,
        /// Memory placement.
        mem: MemSpace,
    },
    /// A call to a hardware instruction (an `@instr` procedure).
    Call {
        /// The instruction's semantic specification.
        instr: Arc<Proc>,
        /// Arguments, in the instruction's parameter order.
        args: Vec<CallArg>,
    },
    /// `if cond: then_body else: else_body`
    If {
        /// Condition.
        cond: Cond,
        /// Statements executed when the condition holds.
        then_body: Vec<Stmt>,
        /// Statements executed otherwise (may be empty).
        else_body: Vec<Stmt>,
    },
    /// A comment carried through to pretty-printed / generated code.
    Comment(String),
}

impl Stmt {
    /// Convenience constructor for `For`.
    pub fn for_(var: impl Into<Sym>, lo: impl Into<Expr>, hi: impl Into<Expr>, body: Vec<Stmt>) -> Stmt {
        Stmt::For { var: var.into(), lo: lo.into(), hi: hi.into(), body }
    }

    /// Convenience constructor for `Assign`.
    pub fn assign(buf: impl Into<Sym>, idx: Vec<Expr>, rhs: Expr) -> Stmt {
        Stmt::Assign { buf: buf.into(), idx, rhs }
    }

    /// Convenience constructor for `Reduce`.
    pub fn reduce(buf: impl Into<Sym>, idx: Vec<Expr>, rhs: Expr) -> Stmt {
        Stmt::Reduce { buf: buf.into(), idx, rhs }
    }

    /// Convenience constructor for `Alloc`.
    pub fn alloc(name: impl Into<Sym>, ty: ScalarType, dims: Vec<Expr>, mem: MemSpace) -> Stmt {
        Stmt::Alloc { name: name.into(), ty, dims, mem }
    }

    /// Convenience constructor for `Call`.
    pub fn call(instr: Arc<Proc>, args: Vec<CallArg>) -> Stmt {
        Stmt::Call { instr, args }
    }

    /// Returns the nested statement list if this statement has one (`For`
    /// bodies and `If` then-branches).
    pub fn child_block(&self) -> Option<&Vec<Stmt>> {
        match self {
            Stmt::For { body, .. } => Some(body),
            Stmt::If { then_body, .. } => Some(then_body),
            _ => None,
        }
    }

    /// Mutable variant of [`Stmt::child_block`].
    pub fn child_block_mut(&mut self) -> Option<&mut Vec<Stmt>> {
        match self {
            Stmt::For { body, .. } => Some(body),
            Stmt::If { then_body, .. } => Some(then_body),
            _ => None,
        }
    }

    /// Collects every symbol referenced by this statement (recursively),
    /// including buffer names, loop variables it *binds*, and variables it
    /// reads.
    pub fn all_syms(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        self.collect_syms(&mut out);
        out
    }

    fn collect_syms(&self, out: &mut BTreeSet<Sym>) {
        match self {
            Stmt::Assign { buf, idx, rhs } | Stmt::Reduce { buf, idx, rhs } => {
                out.insert(buf.clone());
                for e in idx {
                    out.extend(e.free_syms());
                }
                out.extend(rhs.free_syms());
            }
            Stmt::For { var, lo, hi, body } => {
                out.insert(var.clone());
                out.extend(lo.free_syms());
                out.extend(hi.free_syms());
                for s in body {
                    s.collect_syms(out);
                }
            }
            Stmt::Alloc { name, dims, .. } => {
                out.insert(name.clone());
                for d in dims {
                    out.extend(d.free_syms());
                }
            }
            Stmt::Call { args, .. } => {
                for a in args {
                    out.extend(a.free_syms());
                }
            }
            Stmt::If { cond, then_body, else_body } => {
                out.extend(cond.lhs.free_syms());
                out.extend(cond.rhs.free_syms());
                for s in then_body.iter().chain(else_body) {
                    s.collect_syms(out);
                }
            }
            Stmt::Comment(_) => {}
        }
    }

    /// Whether `var` is used (read) anywhere in this statement, not counting
    /// inner loops that shadow it.
    pub fn uses_var(&self, var: &Sym) -> bool {
        match self {
            Stmt::Assign { idx, rhs, .. } | Stmt::Reduce { idx, rhs, .. } => {
                idx.iter().any(|e| e.uses_var(var)) || rhs.uses_var(var)
            }
            Stmt::For { var: v, lo, hi, body } => {
                if lo.uses_var(var) || hi.uses_var(var) {
                    return true;
                }
                if v == var {
                    // Shadowed inside.
                    return false;
                }
                body.iter().any(|s| s.uses_var(var))
            }
            Stmt::Alloc { dims, .. } => dims.iter().any(|e| e.uses_var(var)),
            Stmt::Call { args, .. } => args.iter().any(|a| a.free_syms().contains(var)),
            Stmt::If { cond, then_body, else_body } => {
                cond.lhs.uses_var(var)
                    || cond.rhs.uses_var(var)
                    || then_body.iter().chain(else_body).any(|s| s.uses_var(var))
            }
            Stmt::Comment(_) => false,
        }
    }

    /// Buffers written (assigned or reduced into, or passed as a mutated call
    /// argument) by this statement, recursively.
    pub fn written_bufs(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        self.collect_written(&mut out);
        out
    }

    fn collect_written(&self, out: &mut BTreeSet<Sym>) {
        match self {
            Stmt::Assign { buf, .. } | Stmt::Reduce { buf, .. } => {
                out.insert(buf.clone());
            }
            Stmt::For { body, .. } => {
                for s in body {
                    s.collect_written(out);
                }
            }
            Stmt::Alloc { .. } | Stmt::Comment(_) => {}
            Stmt::Call { instr, args } => {
                // An argument is written if the instruction's body writes the
                // corresponding formal parameter.
                let written = instr.written_params();
                for (formal, actual) in instr.args.iter().zip(args) {
                    if written.contains(&formal.name) {
                        if let CallArg::Window(w) = actual {
                            out.insert(w.buf.clone());
                        }
                    }
                }
            }
            Stmt::If { then_body, else_body, .. } => {
                for s in then_body.iter().chain(else_body) {
                    s.collect_written(out);
                }
            }
        }
    }

    /// Buffers read by this statement, recursively (including call arguments
    /// the instruction reads).
    pub fn read_bufs(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        self.collect_read(&mut out);
        out
    }

    fn collect_read(&self, out: &mut BTreeSet<Sym>) {
        fn expr_reads(e: &Expr, out: &mut BTreeSet<Sym>) {
            match e {
                Expr::Read { buf, idx } => {
                    out.insert(buf.clone());
                    for i in idx {
                        expr_reads(i, out);
                    }
                }
                Expr::Binop { lhs, rhs, .. } => {
                    expr_reads(lhs, out);
                    expr_reads(rhs, out);
                }
                Expr::Neg(inner) => expr_reads(inner, out),
                Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => {}
            }
        }
        match self {
            Stmt::Assign { idx, rhs, .. } => {
                for e in idx {
                    expr_reads(e, out);
                }
                expr_reads(rhs, out);
            }
            Stmt::Reduce { buf, idx, rhs } => {
                // A reduction reads its destination as well.
                out.insert(buf.clone());
                for e in idx {
                    expr_reads(e, out);
                }
                expr_reads(rhs, out);
            }
            Stmt::For { body, .. } => {
                for s in body {
                    s.collect_read(out);
                }
            }
            Stmt::Alloc { .. } | Stmt::Comment(_) => {}
            Stmt::Call { instr, args } => {
                let read = instr.read_params();
                for (formal, actual) in instr.args.iter().zip(args) {
                    if read.contains(&formal.name) {
                        if let CallArg::Window(w) = actual {
                            out.insert(w.buf.clone());
                        }
                    }
                    if let CallArg::Expr(e) = actual {
                        expr_reads(e, out);
                    }
                }
            }
            Stmt::If { cond, then_body, else_body } => {
                expr_reads(&cond.lhs, out);
                expr_reads(&cond.rhs, out);
                for s in then_body.iter().chain(else_body) {
                    s.collect_read(out);
                }
            }
        }
    }

    /// Applies a variable substitution to every expression in the statement
    /// (recursively). Loop variables that shadow a substituted name stop the
    /// substitution in their body.
    pub fn subst(&self, map: &BTreeMap<Sym, Expr>) -> Stmt {
        match self {
            Stmt::Assign { buf, idx, rhs } => Stmt::Assign {
                buf: buf.clone(),
                idx: idx.iter().map(|e| e.subst(map)).collect(),
                rhs: rhs.subst(map),
            },
            Stmt::Reduce { buf, idx, rhs } => Stmt::Reduce {
                buf: buf.clone(),
                idx: idx.iter().map(|e| e.subst(map)).collect(),
                rhs: rhs.subst(map),
            },
            Stmt::For { var, lo, hi, body } => {
                let mut inner = map.clone();
                inner.remove(var);
                Stmt::For {
                    var: var.clone(),
                    lo: lo.subst(map),
                    hi: hi.subst(map),
                    body: body.iter().map(|s| s.subst(&inner)).collect(),
                }
            }
            Stmt::Alloc { name, ty, dims, mem } => Stmt::Alloc {
                name: name.clone(),
                ty: *ty,
                dims: dims.iter().map(|e| e.subst(map)).collect(),
                mem: *mem,
            },
            Stmt::Call { instr, args } => {
                Stmt::Call { instr: instr.clone(), args: args.iter().map(|a| a.subst(map)).collect() }
            }
            Stmt::If { cond, then_body, else_body } => Stmt::If {
                cond: Cond { op: cond.op, lhs: cond.lhs.subst(map), rhs: cond.rhs.subst(map) },
                then_body: then_body.iter().map(|s| s.subst(map)).collect(),
                else_body: else_body.iter().map(|s| s.subst(map)).collect(),
            },
            Stmt::Comment(c) => Stmt::Comment(c.clone()),
        }
    }

    /// Simplifies every expression in the statement (recursively).
    pub fn simplify(&self) -> Stmt {
        match self {
            Stmt::Assign { buf, idx, rhs } => Stmt::Assign {
                buf: buf.clone(),
                idx: idx.iter().map(Expr::simplify).collect(),
                rhs: rhs.simplify(),
            },
            Stmt::Reduce { buf, idx, rhs } => Stmt::Reduce {
                buf: buf.clone(),
                idx: idx.iter().map(Expr::simplify).collect(),
                rhs: rhs.simplify(),
            },
            Stmt::For { var, lo, hi, body } => Stmt::For {
                var: var.clone(),
                lo: lo.simplify(),
                hi: hi.simplify(),
                body: body.iter().map(Stmt::simplify).collect(),
            },
            Stmt::Alloc { name, ty, dims, mem } => Stmt::Alloc {
                name: name.clone(),
                ty: *ty,
                dims: dims.iter().map(Expr::simplify).collect(),
                mem: *mem,
            },
            Stmt::Call { instr, args } => {
                Stmt::Call { instr: instr.clone(), args: args.iter().map(CallArg::simplify).collect() }
            }
            Stmt::If { cond, then_body, else_body } => Stmt::If {
                cond: Cond { op: cond.op, lhs: cond.lhs.simplify(), rhs: cond.rhs.simplify() },
                then_body: then_body.iter().map(Stmt::simplify).collect(),
                else_body: else_body.iter().map(Stmt::simplify).collect(),
            },
            Stmt::Comment(c) => Stmt::Comment(c.clone()),
        }
    }
}

/// A path addressing a statement inside a nested statement tree.
///
/// Each step selects an index within the current statement block; descending
/// into a `For` enters its body, descending into an `If` enters its
/// then-branch.
pub type StmtPath = Vec<usize>;

/// Returns a reference to the statement at `path` within `block`, or `None`
/// if the path is invalid.
pub fn stmt_at<'a>(block: &'a [Stmt], path: &[usize]) -> Option<&'a Stmt> {
    let (&first, rest) = path.split_first()?;
    let stmt = block.get(first)?;
    if rest.is_empty() {
        Some(stmt)
    } else {
        stmt_at(stmt.child_block()?, rest)
    }
}

/// Returns a mutable reference to the statement at `path` within `block`.
pub fn stmt_at_mut<'a>(block: &'a mut [Stmt], path: &[usize]) -> Option<&'a mut Stmt> {
    let (&first, rest) = path.split_first()?;
    let stmt = block.get_mut(first)?;
    if rest.is_empty() {
        Some(stmt)
    } else {
        stmt_at_mut(stmt.child_block_mut()?, rest)
    }
}

/// Returns a mutable reference to the block (statement list) that directly
/// contains the statement at `path`, together with the statement's index in
/// that block.
pub fn block_of_mut<'a>(block: &'a mut Vec<Stmt>, path: &[usize]) -> Option<(&'a mut Vec<Stmt>, usize)> {
    match path {
        [] => None,
        [i] => {
            if *i < block.len() {
                Some((block, *i))
            } else {
                None
            }
        }
        [first, rest @ ..] => {
            let stmt = block.get_mut(*first)?;
            block_of_mut(stmt.child_block_mut()?, rest)
        }
    }
}

/// Splices `replacement` in place of the statement at `path`, returning the
/// removed statement. Returns `None` (and leaves the tree untouched) if the
/// path is invalid.
pub fn splice_at(block: &mut Vec<Stmt>, path: &[usize], replacement: Vec<Stmt>) -> Option<Stmt> {
    let (parent, i) = block_of_mut(block, path)?;
    let removed = parent.remove(i);
    for (offset, stmt) in replacement.into_iter().enumerate() {
        parent.insert(i + offset, stmt);
    }
    Some(removed)
}

/// The paths of the statements `keep` accepts, in pre-order — what
/// [`walk`] yields filtered, without building a path for every statement
/// it passes over.
pub fn paths_where(block: &[Stmt], mut keep: impl FnMut(&Stmt) -> bool) -> Vec<StmtPath> {
    fn rec(
        block: &[Stmt],
        prefix: &mut StmtPath,
        keep: &mut dyn FnMut(&Stmt) -> bool,
        out: &mut Vec<StmtPath>,
    ) {
        for (i, stmt) in block.iter().enumerate() {
            prefix.push(i);
            if keep(stmt) {
                out.push(prefix.clone());
            }
            if let Some(children) = stmt.child_block() {
                rec(children, prefix, keep, out);
            }
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    rec(block, &mut Vec::new(), &mut keep, &mut out);
    out
}

/// Visits every statement in the block in pre-order, yielding `(path, stmt)`.
pub fn walk(block: &[Stmt]) -> Vec<(StmtPath, &Stmt)> {
    let mut out = Vec::new();
    fn rec<'a>(block: &'a [Stmt], prefix: &mut StmtPath, out: &mut Vec<(StmtPath, &'a Stmt)>) {
        for (i, stmt) in block.iter().enumerate() {
            prefix.push(i);
            out.push((prefix.clone(), stmt));
            if let Some(children) = stmt.child_block() {
                rec(children, prefix, out);
            }
            prefix.pop();
        }
    }
    let mut prefix = Vec::new();
    rec(block, &mut prefix, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn v(s: &str) -> Expr {
        Expr::var(s)
    }

    fn sample_block() -> Vec<Stmt> {
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
        )]
    }

    #[test]
    fn stmt_at_navigates_nesting() {
        let block = sample_block();
        let inner = stmt_at(&block, &[0, 0, 0, 0]).unwrap();
        assert!(matches!(inner, Stmt::Reduce { .. }));
        assert!(stmt_at(&block, &[0, 1]).is_none());
        assert!(stmt_at(&block, &[]).is_none());
    }

    #[test]
    fn walk_visits_preorder() {
        let block = sample_block();
        let visited = walk(&block);
        assert_eq!(visited.len(), 4);
        assert_eq!(visited[0].0, vec![0]);
        assert_eq!(visited[3].0, vec![0, 0, 0, 0]);
    }

    #[test]
    fn paths_where_is_the_walk_filtered() {
        let block = sample_block();
        let loops = |s: &Stmt| matches!(s, Stmt::For { .. });
        let walked: Vec<StmtPath> =
            walk(&block).into_iter().filter(|(_, s)| loops(s)).map(|(path, _)| path).collect();
        assert_eq!(walked.len(), 3);
        assert_eq!(paths_where(&block, loops), walked);
        assert_eq!(paths_where(&block, |_| true).len(), walk(&block).len());
    }

    #[test]
    fn splice_replaces_statement() {
        let mut block = sample_block();
        let removed = splice_at(&mut block, &[0, 0, 0], vec![Stmt::Comment("gone".into())]).unwrap();
        assert!(matches!(removed, Stmt::For { .. }));
        let got = stmt_at(&block, &[0, 0, 0]).unwrap();
        assert!(matches!(got, Stmt::Comment(_)));
    }

    #[test]
    fn splice_can_expand_block() {
        let mut block = sample_block();
        splice_at(&mut block, &[0, 0], vec![Stmt::Comment("a".into()), Stmt::Comment("b".into())]).unwrap();
        let parent = stmt_at(&block, &[0]).unwrap();
        assert_eq!(parent.child_block().unwrap().len(), 2);
    }

    #[test]
    fn read_write_sets() {
        let block = sample_block();
        let stmt = &block[0];
        let written = stmt.written_bufs();
        let read = stmt.read_bufs();
        assert!(written.contains(&"C".into()));
        assert!(read.contains(&"Ac".into()));
        assert!(read.contains(&"Bc".into()));
        // A reduction also reads its destination.
        assert!(read.contains(&"C".into()));
    }

    #[test]
    fn uses_var_respects_shadowing() {
        let stmt = Stmt::for_("i", 0, 4, vec![Stmt::assign("x", vec![v("i")], Expr::int(0))]);
        assert!(!stmt.uses_var(&"i".into()), "the loop binds its own i");
        let stmt2 = Stmt::for_("j", 0, v("i"), vec![]);
        assert!(stmt2.uses_var(&"i".into()), "bound is an outer i");
    }

    #[test]
    fn subst_respects_shadowing() {
        let stmt = Stmt::for_("i", 0, v("n"), vec![Stmt::assign("x", vec![v("i")], v("i"))]);
        let mut map = BTreeMap::new();
        map.insert(Sym::new("i"), Expr::int(7));
        map.insert(Sym::new("n"), Expr::int(3));
        let out = stmt.subst(&map);
        match out {
            Stmt::For { hi, body, .. } => {
                assert_eq!(hi, Expr::int(3));
                match &body[0] {
                    Stmt::Assign { idx, .. } => assert_eq!(idx[0], v("i")),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn window_rank_counts_intervals() {
        let w = WindowExpr::new(
            "C_reg",
            vec![
                WAccess::Point(v("jt")),
                WAccess::Point(v("it")),
                WAccess::Interval(Expr::int(0), Expr::int(4)),
            ],
        );
        assert_eq!(w.rank(), 1);
        assert!(w.free_syms().contains(&"C_reg".into()));
    }

    #[test]
    fn cmp_op_eval() {
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(CmpOp::Ge.eval(2, 2));
        assert!(!CmpOp::Ne.eval(2, 2));
    }
}
