//! Expressions: index arithmetic, buffer reads, and scalar arithmetic.
//!
//! A single [`Expr`] enum covers both index expressions (loop bounds, buffer
//! subscripts) and value expressions (right-hand sides of assignments). The
//! distinction is enforced contextually by the procedure validator and the
//! interpreter rather than by separate types, which keeps the scheduling
//! rewrites in `exo-sched` considerably simpler.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::sym::Sym;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division in index context).
    Div,
    /// Remainder.
    Mod,
}

impl BinOp {
    /// C / Exo operator spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }

    /// Precedence for pretty-printing (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Add | BinOp::Sub => 1,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 2,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal (index arithmetic, loop bounds, lane numbers).
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// A variable: loop index, `size` argument, or `index` argument.
    Var(Sym),
    /// A read of a buffer element, e.g. `Ac[k, i]`.
    Read {
        /// Buffer being read.
        buf: Sym,
        /// One subscript per buffer dimension.
        idx: Vec<Expr>,
    },
    /// Binary arithmetic.
    Binop {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary negation.
    Neg(Box<Expr>),
}

impl Expr {
    /// Integer literal constructor.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    /// Floating-point literal constructor.
    pub fn float(v: f64) -> Expr {
        Expr::Float(v)
    }

    /// Variable reference constructor.
    pub fn var(name: impl Into<Sym>) -> Expr {
        Expr::Var(name.into())
    }

    /// Buffer-read constructor.
    pub fn read(buf: impl Into<Sym>, idx: Vec<Expr>) -> Expr {
        Expr::Read { buf: buf.into(), idx }
    }

    /// `lhs + rhs`.
    #[allow(clippy::should_implement_trait)] // constructor taking two operands, not an operator impl
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binop { op: BinOp::Add, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// `lhs - rhs`.
    #[allow(clippy::should_implement_trait)] // constructor taking two operands, not an operator impl
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binop { op: BinOp::Sub, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// `lhs * rhs`.
    #[allow(clippy::should_implement_trait)] // constructor taking two operands, not an operator impl
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binop { op: BinOp::Mul, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// `lhs / rhs`.
    #[allow(clippy::should_implement_trait)] // constructor taking two operands, not an operator impl
    pub fn div(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binop { op: BinOp::Div, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// `lhs % rhs`.
    #[allow(clippy::should_implement_trait)] // constructor taking two operands, not an operator impl
    pub fn rem(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binop { op: BinOp::Mod, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    /// Returns `Some(v)` if this expression is an integer literal.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Collects every symbol referenced by the expression (variables and
    /// buffer names).
    pub fn free_syms(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        self.for_each_sym(&mut |s| {
            out.insert(s.clone());
        });
        out
    }

    /// Visits every symbol the expression references (variables and buffer
    /// names, repeats included) without collecting them.
    pub(crate) fn for_each_sym<'e>(&'e self, f: &mut impl FnMut(&'e Sym)) {
        match self {
            Expr::Int(_) | Expr::Float(_) => {}
            Expr::Var(s) => f(s),
            Expr::Read { buf, idx } => {
                f(buf);
                for e in idx {
                    e.for_each_sym(f);
                }
            }
            Expr::Binop { lhs, rhs, .. } => {
                lhs.for_each_sym(f);
                rhs.for_each_sym(f);
            }
            Expr::Neg(e) => e.for_each_sym(f),
        }
    }

    /// Whether `var` occurs (as a variable, not a buffer name) in the
    /// expression.
    pub fn uses_var(&self, var: &Sym) -> bool {
        match self {
            Expr::Int(_) | Expr::Float(_) => false,
            Expr::Var(s) => s == var,
            Expr::Read { idx, .. } => idx.iter().any(|e| e.uses_var(var)),
            Expr::Binop { lhs, rhs, .. } => lhs.uses_var(var) || rhs.uses_var(var),
            Expr::Neg(e) => e.uses_var(var),
        }
    }

    /// Whether buffer `buf` is read anywhere in the expression.
    pub fn reads_buf(&self, buf: &Sym) -> bool {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => false,
            Expr::Read { buf: b, idx } => b == buf || idx.iter().any(|e| e.reads_buf(buf)),
            Expr::Binop { lhs, rhs, .. } => lhs.reads_buf(buf) || rhs.reads_buf(buf),
            Expr::Neg(e) => e.reads_buf(buf),
        }
    }

    /// Substitutes variables according to `map`, returning the new expression.
    ///
    /// Buffer names are not substituted; use [`Expr::rename_buf`] for that.
    pub fn subst(&self, map: &BTreeMap<Sym, Expr>) -> Expr {
        match self {
            Expr::Int(_) | Expr::Float(_) => self.clone(),
            Expr::Var(s) => map.get(s).cloned().unwrap_or_else(|| self.clone()),
            Expr::Read { buf, idx } => {
                Expr::Read { buf: buf.clone(), idx: idx.iter().map(|e| e.subst(map)).collect() }
            }
            Expr::Binop { op, lhs, rhs } => {
                Expr::Binop { op: *op, lhs: Box::new(lhs.subst(map)), rhs: Box::new(rhs.subst(map)) }
            }
            Expr::Neg(e) => Expr::Neg(Box::new(e.subst(map))),
        }
    }

    /// Renames every read of buffer `from` to `to`.
    pub fn rename_buf(&self, from: &Sym, to: &Sym) -> Expr {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => self.clone(),
            Expr::Read { buf, idx } => Expr::Read {
                buf: if buf == from { to.clone() } else { buf.clone() },
                idx: idx.iter().map(|e| e.rename_buf(from, to)).collect(),
            },
            Expr::Binop { op, lhs, rhs } => Expr::Binop {
                op: *op,
                lhs: Box::new(lhs.rename_buf(from, to)),
                rhs: Box::new(rhs.rename_buf(from, to)),
            },
            Expr::Neg(e) => Expr::Neg(Box::new(e.rename_buf(from, to))),
        }
    }

    /// Applies `f` to every buffer-read subexpression, bottom-up, replacing it
    /// with the returned expression.
    pub fn map_reads(&self, f: &mut impl FnMut(&Sym, &[Expr]) -> Option<Expr>) -> Expr {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => self.clone(),
            Expr::Read { buf, idx } => {
                let idx: Vec<Expr> = idx.iter().map(|e| e.map_reads(f)).collect();
                match f(buf, &idx) {
                    Some(e) => e,
                    None => Expr::Read { buf: buf.clone(), idx },
                }
            }
            Expr::Binop { op, lhs, rhs } => {
                Expr::Binop { op: *op, lhs: Box::new(lhs.map_reads(f)), rhs: Box::new(rhs.map_reads(f)) }
            }
            Expr::Neg(e) => Expr::Neg(Box::new(e.map_reads(f))),
        }
    }

    /// Evaluates the expression as an integer given bindings for variables.
    ///
    /// Returns `None` if the expression reads a buffer, references an unbound
    /// variable, contains a float literal, or divides by zero.
    pub fn eval_int(&self, env: &BTreeMap<Sym, i64>) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            Expr::Float(_) => None,
            Expr::Var(s) => env.get(s).copied(),
            Expr::Read { .. } => None,
            Expr::Binop { op, lhs, rhs } => {
                let a = lhs.eval_int(env)?;
                let b = rhs.eval_int(env)?;
                match op {
                    BinOp::Add => Some(a + b),
                    BinOp::Sub => Some(a - b),
                    BinOp::Mul => Some(a * b),
                    BinOp::Div => {
                        if b == 0 {
                            None
                        } else {
                            Some(a.div_euclid(b))
                        }
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            None
                        } else {
                            Some(a.rem_euclid(b))
                        }
                    }
                }
            }
            Expr::Neg(e) => e.eval_int(env).map(|v| -v),
        }
    }

    /// Simplifies the expression: folds constants and, for purely affine index
    /// expressions, normalises into a canonical sum-of-terms form.
    pub fn simplify(&self) -> Expr {
        if let Some(aff) = Affine::of(self) {
            return aff.to_expr();
        }
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => self.clone(),
            Expr::Read { buf, idx } => {
                Expr::Read { buf: buf.clone(), idx: idx.iter().map(Expr::simplify).collect() }
            }
            Expr::Binop { op, lhs, rhs } => {
                let l = lhs.simplify();
                let r = rhs.simplify();
                if let (Some(a), Some(b)) = (l.as_int(), r.as_int()) {
                    let env = BTreeMap::new();
                    if let Some(v) =
                        (Expr::Binop { op: *op, lhs: Box::new(Expr::Int(a)), rhs: Box::new(Expr::Int(b)) })
                            .eval_int(&env)
                    {
                        return Expr::Int(v);
                    }
                }
                Expr::Binop { op: *op, lhs: Box::new(l), rhs: Box::new(r) }
            }
            Expr::Neg(e) => {
                let inner = e.simplify();
                match inner.as_int() {
                    Some(v) => Expr::Int(-v),
                    None => Expr::Neg(Box::new(inner)),
                }
            }
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::Int(v)
    }
}

impl From<&Sym> for Expr {
    fn from(s: &Sym) -> Self {
        Expr::Var(s.clone())
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::add(self, rhs)
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::sub(self, rhs)
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::mul(self, rhs)
    }
}

/// A normalised affine form `constant + sum(coeff_i * var_i)` over integer
/// index variables: symbols by default, or whatever a lowering maps them
/// onto ([`Affine::of_bound`]).
///
/// Used by the scheduling operators to answer questions like "is this
/// subscript linear in `itt` with stride 1?" (required by `replace` to match a
/// loop against a vector-instruction spec) and to produce canonical simplified
/// index expressions, and by the executable lowering to build its addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Affine<V = Sym> {
    /// `(variable, coefficient)` pairs in variable order, no zero
    /// coefficient stored — so equal forms compare equal.
    terms: Vec<(V, i64)>,
    /// Constant offset.
    pub constant: i64,
}

impl<V> Default for Affine<V> {
    fn default() -> Self {
        Affine { terms: Vec::new(), constant: 0 }
    }
}

impl<V: Ord> Affine<V> {
    /// The constant form `v`.
    pub fn constant(v: i64) -> Affine<V> {
        Affine { terms: Vec::new(), constant: v }
    }

    /// The form `1 * var`.
    pub fn var(var: V) -> Affine<V> {
        Affine { terms: vec![(var, 1)], constant: 0 }
    }

    /// [`Affine::of`] with every variable replaced by the form `bind` gives
    /// it — a constant for a variable whose value is known, so it folds into
    /// the constant before any product or quotient is formed.
    ///
    /// Returns `Ok(None)` where [`Affine::of`] declines, and the first error
    /// `bind` returns.
    #[inline]
    pub fn of_bound<E>(
        e: &Expr,
        bind: &mut impl FnMut(&Sym) -> std::result::Result<Affine<V>, E>,
    ) -> std::result::Result<Option<Affine<V>>, E> {
        Ok(match e {
            Expr::Int(v) => Some(Affine::constant(*v)),
            Expr::Float(_) | Expr::Read { .. } => None,
            Expr::Var(s) => Some(bind(s)?),
            Expr::Neg(inner) => Affine::of_bound(inner, bind)?.map(|a| a.scale(-1)),
            Expr::Binop { op, lhs, rhs } => {
                let (Some(l), Some(r)) = (Affine::of_bound(lhs, bind)?, Affine::of_bound(rhs, bind)?) else {
                    return Ok(None);
                };
                match op {
                    BinOp::Add => Some(l + r),
                    BinOp::Sub => Some(l + r.scale(-1)),
                    BinOp::Mul => l.product(r),
                    // Only constant / non-zero constant folds, Euclidean like
                    // the interpreter's; anything else is not affine.
                    BinOp::Div | BinOp::Mod => match (l.is_constant(), r.is_constant(), r.constant) {
                        (true, true, d) if d != 0 => Some(Affine::constant(match op {
                            BinOp::Div => l.constant.div_euclid(d),
                            _ => l.constant.rem_euclid(d),
                        })),
                        _ => None,
                    },
                }
            }
        })
    }

    /// Whether the form has no variable terms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    fn merge(&mut self, terms: Vec<(V, i64)>) {
        for (v, c) in terms {
            match self.terms.binary_search_by(|(t, _)| t.cmp(&v)) {
                Ok(i) if self.terms[i].1 + c == 0 => {
                    self.terms.remove(i);
                }
                Ok(i) => self.terms[i].1 += c,
                Err(i) => self.terms.insert(i, (v, c)),
            }
        }
    }

    /// Multiplies by an integer constant.
    pub fn scale(mut self, k: i64) -> Affine<V> {
        if k == 0 {
            return Affine::default();
        }
        self.constant *= k;
        self.terms.iter_mut().for_each(|(_, c)| *c *= k);
        self
    }

    /// The product of two forms, if one of them is a constant; `None` (not
    /// affine) otherwise.
    pub fn product(self, other: Affine<V>) -> Option<Affine<V>> {
        if self.is_constant() {
            Some(other.scale(self.constant))
        } else if other.is_constant() {
            Some(self.scale(other.constant))
        } else {
            None
        }
    }

    /// The `(variable, coefficient)` terms, in variable order.
    pub fn terms(&self) -> &[(V, i64)] {
        &self.terms
    }

    /// Coefficient of `var` (zero if absent).
    pub fn coeff(&self, var: &V) -> i64 {
        self.terms.binary_search_by(|(t, _)| t.cmp(var)).map_or(0, |i| self.terms[i].1)
    }

    /// Removes `var` from the form, returning (coefficient, remainder).
    pub fn split_var(&self, var: &V) -> (i64, Affine<V>)
    where
        V: Clone,
    {
        let c = self.coeff(var);
        let mut rest = self.clone();
        rest.terms.retain(|(t, _)| t != var);
        (c, rest)
    }
}

impl<V: Ord> std::ops::Add for Affine<V> {
    type Output = Affine<V>;

    /// Adds two affine forms.
    #[inline]
    fn add(mut self, other: Affine<V>) -> Affine<V> {
        self.constant += other.constant;
        if self.terms.is_empty() {
            self.terms = other.terms;
        } else if !other.terms.is_empty() {
            self.merge(other.terms);
        }
        self
    }
}

impl Affine {
    /// Attempts to interpret `e` as an affine combination of variables.
    ///
    /// Returns `None` if the expression reads buffers, contains floats,
    /// multiplies two non-constant subexpressions, or divides by anything but
    /// a non-zero constant.
    pub fn of(e: &Expr) -> Option<Affine> {
        match Affine::of_bound(e, &mut |s| Ok::<_, std::convert::Infallible>(Affine::var(s.clone()))) {
            Ok(form) => form,
            Err(never) => match never {},
        }
    }

    /// Converts back to an expression in canonical order: variable terms in
    /// symbol order (`coeff * var`), then the constant.
    pub fn to_expr(&self) -> Expr {
        let mut acc: Option<Expr> = None;
        for (s, c) in &self.terms {
            let term = match *c {
                1 => Expr::var(s.clone()),
                -1 => Expr::Neg(Box::new(Expr::var(s.clone()))),
                c => Expr::mul(Expr::int(c), Expr::var(s.clone())),
            };
            acc = Some(match acc {
                None => term,
                Some(a) => Expr::add(a, term),
            });
        }
        match acc {
            None => Expr::int(self.constant),
            Some(a) => {
                if self.constant == 0 {
                    a
                } else if self.constant > 0 {
                    Expr::add(a, Expr::int(self.constant))
                } else {
                    Expr::sub(a, Expr::int(-self.constant))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Expr {
        Expr::var(s)
    }

    #[test]
    fn constructors_and_as_int() {
        assert_eq!(Expr::int(4).as_int(), Some(4));
        assert_eq!(v("i").as_int(), None);
    }

    #[test]
    fn free_syms_collects_vars_and_buffers() {
        let e = Expr::read("Ac", vec![v("k"), Expr::int(4) * v("it") + v("itt")]);
        let syms = e.free_syms();
        assert!(syms.contains(&"Ac".into()));
        assert!(syms.contains(&"k".into()));
        assert!(syms.contains(&"it".into()));
        assert!(syms.contains(&"itt".into()));
        assert_eq!(syms.len(), 4);
    }

    #[test]
    fn uses_var_distinguishes_buffers() {
        let e = Expr::read("C", vec![v("j")]);
        assert!(e.uses_var(&"j".into()));
        assert!(!e.uses_var(&"C".into()));
        assert!(e.reads_buf(&"C".into()));
    }

    #[test]
    fn subst_replaces_vars() {
        let e = Expr::int(4) * v("it") + v("itt");
        let out = e.subst(&BTreeMap::from([("it".into(), Expr::int(1))]));
        assert_eq!(out.simplify(), Expr::add(v("itt"), Expr::int(4)));
    }

    #[test]
    fn eval_int_handles_arithmetic() {
        let mut env = BTreeMap::new();
        env.insert(Sym::new("i"), 3);
        let e = (Expr::int(4) * v("i") + Expr::int(2)).simplify();
        assert_eq!(e.eval_int(&env), Some(14));
        assert_eq!(Expr::div(Expr::int(7), Expr::int(2)).eval_int(&env), Some(3));
        assert_eq!(Expr::rem(Expr::int(7), Expr::int(2)).eval_int(&env), Some(1));
        assert_eq!(Expr::div(Expr::int(7), Expr::int(0)).eval_int(&env), None);
    }

    #[test]
    fn affine_normalisation() {
        let e = Expr::add(Expr::mul(Expr::int(4), v("jt")), v("jtt"));
        let aff = Affine::of(&e).unwrap();
        assert_eq!(aff.coeff(&"jt".into()), 4);
        assert_eq!(aff.coeff(&"jtt".into()), 1);
        assert_eq!(aff.constant, 0);
    }

    #[test]
    fn affine_rejects_var_products() {
        let e = Expr::mul(v("i"), v("j"));
        assert!(Affine::of(&e).is_none());
    }

    #[test]
    fn affine_split_var() {
        let e = Expr::add(Expr::mul(Expr::int(4), v("it")), v("itt"));
        let aff = Affine::of(&e).unwrap();
        let (c, rest) = aff.split_var(&"itt".into());
        assert_eq!(c, 1);
        assert_eq!(rest.coeff(&"it".into()), 4);
    }

    #[test]
    fn simplify_folds_constants() {
        let e = Expr::mul(Expr::int(4), Expr::int(0)) + v("itt");
        assert_eq!(e.simplify(), v("itt"));
        let e2 = Expr::add(Expr::int(4), Expr::int(8));
        assert_eq!(e2.simplify(), Expr::int(12));
    }

    #[test]
    fn simplify_cancels_terms() {
        let e = Expr::sub(Expr::add(v("a"), v("b")), v("b"));
        assert_eq!(e.simplify(), v("a"));
    }

    #[test]
    fn rename_buf_only_touches_reads() {
        let e = Expr::read("Xc", vec![v("Xc")]);
        let out = e.rename_buf(&"Xc".into(), &"X_reg".into());
        match out {
            Expr::Read { buf, idx } => {
                assert_eq!(buf, "X_reg");
                assert_eq!(idx[0], v("Xc"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn to_expr_canonical_order() {
        let aff = Affine::var(Sym::new("b")).scale(2) + Affine::var(Sym::new("a")) + Affine::constant(-3);
        let e = aff.to_expr();
        // a + 2*b - 3
        assert_eq!(e, Expr::sub(Expr::add(v("a"), Expr::mul(Expr::int(2), v("b"))), Expr::int(3)));
    }
}
