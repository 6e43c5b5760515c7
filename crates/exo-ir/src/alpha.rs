//! Alpha-equivalence: structural comparison of statement blocks up to
//! consistent renaming of bound loop variables.
//!
//! Used by the `replace` operator's verification step.

use std::collections::BTreeMap;

use crate::expr::Expr;
use crate::stmt::{CallArg, Stmt, WAccess};
use crate::sym::Sym;

/// A bidirectional renaming between bound variables of the two sides.
#[derive(Debug, Default, Clone)]
struct Renaming {
    left_to_right: BTreeMap<Sym, Sym>,
    right_to_left: BTreeMap<Sym, Sym>,
}

impl Renaming {
    fn bind(&self, a: &Sym, b: &Sym) -> Option<Renaming> {
        if let Some(existing) = self.left_to_right.get(a) {
            if existing != b {
                return None;
            }
        }
        if let Some(existing) = self.right_to_left.get(b) {
            if existing != a {
                return None;
            }
        }
        let mut next = self.clone();
        next.left_to_right.insert(a.clone(), b.clone());
        next.right_to_left.insert(b.clone(), a.clone());
        Some(next)
    }

    fn syms_equal(&self, a: &Sym, b: &Sym) -> bool {
        match self.left_to_right.get(a) {
            Some(mapped) => mapped == b,
            // Free symbols (buffers, arguments) must match exactly and must
            // not be captured by a binding on the other side.
            None => a == b && !self.right_to_left.contains_key(b),
        }
    }
}

fn exprs_eq(a: &Expr, b: &Expr, ren: &Renaming) -> bool {
    match (a, b) {
        (Expr::Int(x), Expr::Int(y)) => x == y,
        (Expr::Float(x), Expr::Float(y)) => x == y,
        (Expr::Var(x), Expr::Var(y)) => ren.syms_equal(x, y),
        (Expr::Read { buf: b1, idx: i1 }, Expr::Read { buf: b2, idx: i2 }) => {
            ren.syms_equal(b1, b2)
                && i1.len() == i2.len()
                && i1.iter().zip(i2).all(|(x, y)| exprs_eq(x, y, ren))
        }
        (Expr::Binop { op: o1, lhs: l1, rhs: r1 }, Expr::Binop { op: o2, lhs: l2, rhs: r2 }) => {
            o1 == o2 && exprs_eq(l1, l2, ren) && exprs_eq(r1, r2, ren)
        }
        (Expr::Neg(x), Expr::Neg(y)) => exprs_eq(x, y, ren),
        _ => false,
    }
}

fn waccess_eq(a: &WAccess, b: &WAccess, ren: &Renaming) -> bool {
    match (a, b) {
        (WAccess::Point(x), WAccess::Point(y)) => exprs_eq(x, y, ren),
        (WAccess::Interval(l1, h1), WAccess::Interval(l2, h2)) => {
            exprs_eq(l1, l2, ren) && exprs_eq(h1, h2, ren)
        }
        _ => false,
    }
}

fn blocks_eq(a: &[Stmt], b: &[Stmt], ren: &Renaming) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(x, y)| stmts_eq_inner(x, y, ren))
}

fn stmts_eq_inner(a: &Stmt, b: &Stmt, ren: &Renaming) -> bool {
    match (a, b) {
        (Stmt::Comment(_), Stmt::Comment(_)) => true,
        (Stmt::Assign { buf: b1, idx: i1, rhs: r1 }, Stmt::Assign { buf: b2, idx: i2, rhs: r2 })
        | (Stmt::Reduce { buf: b1, idx: i1, rhs: r1 }, Stmt::Reduce { buf: b2, idx: i2, rhs: r2 }) => {
            ren.syms_equal(b1, b2)
                && i1.len() == i2.len()
                && i1.iter().zip(i2).all(|(x, y)| exprs_eq(x, y, ren))
                && exprs_eq(r1, r2, ren)
        }
        (
            Stmt::For { var: v1, lo: l1, hi: h1, body: bd1 },
            Stmt::For { var: v2, lo: l2, hi: h2, body: bd2 },
        ) => {
            if !exprs_eq(l1, l2, ren) || !exprs_eq(h1, h2, ren) {
                return false;
            }
            match ren.bind(v1, v2) {
                Some(inner) => blocks_eq(bd1, bd2, &inner),
                None => false,
            }
        }
        (
            Stmt::Alloc { name: n1, ty: t1, dims: d1, mem: m1 },
            Stmt::Alloc { name: n2, ty: t2, dims: d2, mem: m2 },
        ) => {
            // Allocations introduce buffer names that are treated as free
            // symbols elsewhere, so require identical names.
            n1 == n2
                && t1 == t2
                && m1 == m2
                && d1.len() == d2.len()
                && d1.iter().zip(d2).all(|(x, y)| exprs_eq(x, y, ren))
        }
        (Stmt::Call { instr: p1, args: a1 }, Stmt::Call { instr: p2, args: a2 }) => {
            p1.name == p2.name
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| match (x, y) {
                    (CallArg::Expr(e1), CallArg::Expr(e2)) => exprs_eq(e1, e2, ren),
                    (CallArg::Window(w1), CallArg::Window(w2)) => {
                        ren.syms_equal(&w1.buf, &w2.buf)
                            && w1.idx.len() == w2.idx.len()
                            && w1.idx.iter().zip(&w2.idx).all(|(p, q)| waccess_eq(p, q, ren))
                    }
                    _ => false,
                })
        }
        (
            Stmt::If { cond: c1, then_body: t1, else_body: e1 },
            Stmt::If { cond: c2, then_body: t2, else_body: e2 },
        ) => {
            c1.op == c2.op
                && exprs_eq(&c1.lhs, &c2.lhs, ren)
                && exprs_eq(&c1.rhs, &c2.rhs, ren)
                && blocks_eq(t1, t2, ren)
                && blocks_eq(e1, e2, ren)
        }
        _ => false,
    }
}

/// Whether two statement blocks are alpha-equivalent element-wise: equal
/// up to renaming of loop variables bound within them. Free symbols
/// (arguments, buffers) must match by name.
pub fn blocks_alpha_eq(a: &[Stmt], b: &[Stmt]) -> bool {
    blocks_eq(a, b, &Renaming::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    fn stmts_alpha_eq(a: &Stmt, b: &Stmt) -> bool {
        blocks_alpha_eq(std::slice::from_ref(a), std::slice::from_ref(b))
    }

    #[test]
    fn loop_variable_names_do_not_matter() {
        let a = for_("i", 0, 4, vec![assign("x", vec![var("i")], var("i"))]);
        let b = for_("q", 0, 4, vec![assign("x", vec![var("q")], var("q"))]);
        assert!(stmts_alpha_eq(&a, &b));
    }

    #[test]
    fn buffer_names_do_matter() {
        let a = for_("i", 0, 4, vec![assign("x", vec![var("i")], flt(0.0))]);
        let b = for_("i", 0, 4, vec![assign("y", vec![var("i")], flt(0.0))]);
        assert!(!stmts_alpha_eq(&a, &b));
    }

    #[test]
    fn inconsistent_renaming_rejected() {
        let a = for_("i", 0, 4, vec![assign("x", vec![var("i")], var("i"))]);
        let b = for_("q", 0, 4, vec![assign("x", vec![var("q")], var("r"))]);
        assert!(!stmts_alpha_eq(&a, &b));
    }

    #[test]
    fn bound_cannot_capture_free() {
        // `for q ... x[j]` vs `for j ... x[j]`: the free j on the left must not
        // be identified with the bound j on the right.
        let a = for_("q", 0, 4, vec![assign("x", vec![var("j")], flt(0.0))]);
        let b = for_("j", 0, 4, vec![assign("x", vec![var("j")], flt(0.0))]);
        assert!(!stmts_alpha_eq(&a, &b));
    }

    #[test]
    fn nesting_and_structure_must_match() {
        let a = for_("i", 0, 4, vec![assign("x", vec![var("i")], flt(0.0))]);
        let b = for_("i", 0, 4, vec![reduce("x", vec![var("i")], flt(0.0))]);
        assert!(!stmts_alpha_eq(&a, &b));
        let c = for_("i", 0, 5, vec![assign("x", vec![var("i")], flt(0.0))]);
        assert!(!stmts_alpha_eq(&a, &c));
    }

    #[test]
    fn comments_are_ignored_in_content() {
        let a = comment("hello");
        let b = comment("world");
        assert!(stmts_alpha_eq(&a, &b));
    }
}
