//! Loop-structure operators: `divide_loop`, `reorder_loops`, and
//! `unroll_loop`.

use std::collections::BTreeMap;

use exo_ir::stmt::{splice_at, stmt_at};
use exo_ir::{Expr, Proc, Stmt, Sym};

use crate::error::{Result, SchedError};
use crate::pattern::{find_all, StmtPattern};

fn find_loop(p: &Proc, var: &str) -> Result<Vec<usize>> {
    let paths = find_all(p, &StmtPattern::ForNamed(Sym::new(var)));
    paths.into_iter().next().ok_or_else(|| SchedError::PatternNotFound {
        pattern: format!("for {var} in _: _"),
        proc: p.name.clone(),
    })
}

/// Splits the first loop named `var` into an outer loop `outer_name` and an
/// inner loop `inner_name` of extent `factor`, substituting
/// `var := factor * outer + inner` in the body. This is the paper's
/// `divide_loop(p, 'i', 4, ['it', 'itt'], perfect=True)`.
///
/// With `perfect = true` the loop extent must be a compile-time constant
/// multiple of `factor`. With `perfect = false` a remainder ("edge") loop is
/// generated after the main loop, which is how non-multiple micro-kernel
/// sizes are handled.
///
/// # Errors
///
/// * [`SchedError::PatternNotFound`] if no loop named `var` exists.
/// * [`SchedError::NonConstantBound`] if the bounds are not constants.
/// * [`SchedError::NotDivisible`] if `perfect` and the extent is not a
///   multiple of `factor`.
pub fn divide_loop(
    p: &Proc,
    var: &str,
    factor: i64,
    outer_name: &str,
    inner_name: &str,
    perfect: bool,
) -> Result<Proc> {
    if factor <= 0 {
        return Err(SchedError::OutOfRange { reason: format!("division factor {factor} must be positive") });
    }
    let path = find_loop(p, var)?;
    let Some(Stmt::For { var: loop_var, lo, hi, body }) = stmt_at(&p.body, &path) else {
        unreachable!("find_loop only returns loops")
    };
    let lo_c = lo.simplify().as_int().ok_or(SchedError::NonConstantBound { var: loop_var.clone() })?;
    let hi_c = hi.simplify().as_int().ok_or(SchedError::NonConstantBound { var: loop_var.clone() })?;
    if lo_c != 0 {
        return Err(SchedError::OutOfRange {
            reason: format!("divide_loop requires a zero lower bound, loop `{loop_var}` starts at {lo_c}"),
        });
    }
    let extent = hi_c - lo_c;
    let quotient = extent / factor;
    let remainder = extent % factor;
    if perfect && remainder != 0 {
        return Err(SchedError::NotDivisible { var: loop_var.clone(), extent: Some(extent), factor });
    }

    let outer = Sym::new(outer_name);
    let inner = Sym::new(inner_name);
    let mut new_stmts: Vec<Stmt> = Vec::new();

    if quotient > 0 {
        let mut map: BTreeMap<Sym, Expr> = BTreeMap::new();
        map.insert(
            loop_var.clone(),
            Expr::add(Expr::mul(Expr::int(factor), Expr::var(outer.clone())), Expr::var(inner.clone())),
        );
        let main_body: Vec<Stmt> = body.iter().map(|s| s.subst(&map).simplify()).collect();
        new_stmts.push(Stmt::For {
            var: outer.clone(),
            lo: Expr::int(0),
            hi: Expr::int(quotient),
            body: vec![Stmt::For {
                var: inner.clone(),
                lo: Expr::int(0),
                hi: Expr::int(factor),
                body: main_body,
            }],
        });
    }
    if remainder != 0 {
        // Edge loop covering the last `remainder` iterations.
        let tail_var = Sym::new(format!("{inner_name}_tail"));
        let mut map: BTreeMap<Sym, Expr> = BTreeMap::new();
        map.insert(loop_var.clone(), Expr::add(Expr::int(quotient * factor), Expr::var(tail_var.clone())));
        let tail_body: Vec<Stmt> = body.iter().map(|s| s.subst(&map).simplify()).collect();
        new_stmts.push(Stmt::For {
            var: tail_var,
            lo: Expr::int(0),
            hi: Expr::int(remainder),
            body: tail_body,
        });
    }

    let mut out = p.clone();
    splice_at(&mut out.body, &path, new_stmts);
    out.validate()?;
    Ok(out)
}

/// Swaps two perfectly nested loops. The `order` string names the two loop
/// variables separated by whitespace, outer first — the paper's
/// `reorder_loops(p, 'jtt it')`.
///
/// Loops are addressed by name only, so when several nests carry the same
/// pair of names (after `stage_mem` and `autofission` the `C` load, the
/// computation and the `C` store all iterate `jtt` over `it`), the one that
/// moves is the **first in program order**; every later nest is left as it
/// was.
///
/// # Errors
///
/// * [`SchedError::PatternNotFound`] if the outer loop does not exist.
/// * [`SchedError::NotPerfectlyNested`] if the outer loop's body is not
///   exactly the inner loop, or the inner loop's bounds depend on the outer
///   variable.
pub fn reorder_loops(p: &Proc, order: &str) -> Result<Proc> {
    let mut names = order.split_whitespace();
    let (outer_name, inner_name) = match (names.next(), names.next(), names.next()) {
        (Some(a), Some(b), None) => (a, b),
        _ => {
            return Err(SchedError::WrongStatementKind {
                expected: "an order of exactly two loop names, e.g. `jtt it`",
                found: format!("`{order}`"),
            })
        }
    };
    // Find the first loop named `outer_name` whose sole child is a loop named
    // `inner_name`.
    let candidates = find_all(p, &StmtPattern::ForNamed(Sym::new(outer_name)));
    for path in candidates {
        let stmt = stmt_at(&p.body, &path).expect("path is valid");
        if let Stmt::For { var: ov, lo: olo, hi: ohi, body } = stmt {
            if body.len() == 1 {
                if let Stmt::For { var: iv, lo: ilo, hi: ihi, body: inner_body } = &body[0] {
                    if iv == inner_name {
                        if ilo.uses_var(ov) || ihi.uses_var(ov) {
                            return Err(SchedError::NotPerfectlyNested {
                                outer: ov.clone(),
                                inner: iv.clone(),
                            });
                        }
                        let swapped = Stmt::For {
                            var: iv.clone(),
                            lo: ilo.clone(),
                            hi: ihi.clone(),
                            body: vec![Stmt::For {
                                var: ov.clone(),
                                lo: olo.clone(),
                                hi: ohi.clone(),
                                body: inner_body.clone(),
                            }],
                        };
                        let mut out = p.clone();
                        splice_at(&mut out.body, &path, vec![swapped]);
                        out.validate()?;
                        return Ok(out);
                    }
                }
            }
        }
    }
    Err(SchedError::NotPerfectlyNested { outer: Sym::new(outer_name), inner: Sym::new(inner_name) })
}

/// Fully unrolls the first loop named `var`, which must have constant bounds
/// (the paper's `unroll_loop(p, 'it')`).
///
/// # Errors
///
/// * [`SchedError::PatternNotFound`] if no such loop exists.
/// * [`SchedError::NonConstantBound`] if the bounds are not constants.
pub fn unroll_loop(p: &Proc, var: &str) -> Result<Proc> {
    unroll_loop_nth(p, var, 0)
}

/// Fully unrolls the `occurrence`-th (0-based, pre-order) loop named `var`.
///
/// The paper's user code addresses loops by name only; when several loops
/// share a name (the `C` load nest and the operand load nest both iterate
/// over `it`), the generator uses this variant to address the one Fig. 11
/// unrolls.
///
/// # Errors
///
/// * [`SchedError::PatternNotFound`] if fewer than `occurrence + 1` loops
///   named `var` exist.
/// * [`SchedError::NonConstantBound`] if the bounds are not constants.
pub fn unroll_loop_nth(p: &Proc, var: &str, occurrence: usize) -> Result<Proc> {
    let paths = find_all(p, &StmtPattern::ForNamed(Sym::new(var)));
    let path = paths.into_iter().nth(occurrence).ok_or_else(|| SchedError::PatternNotFound {
        pattern: format!("for {var} in _: _ (occurrence {occurrence})"),
        proc: p.name.clone(),
    })?;
    let Some(Stmt::For { var: loop_var, lo, hi, body }) = stmt_at(&p.body, &path) else {
        unreachable!("find_loop only returns loops")
    };
    let lo_c = lo.simplify().as_int().ok_or(SchedError::NonConstantBound { var: loop_var.clone() })?;
    let hi_c = hi.simplify().as_int().ok_or(SchedError::NonConstantBound { var: loop_var.clone() })?;
    let mut unrolled = Vec::new();
    for i in lo_c..hi_c {
        let mut map = BTreeMap::new();
        map.insert(loop_var.clone(), Expr::int(i));
        for s in body {
            unrolled.push(s.subst(&map).simplify());
        }
    }
    let mut out = p.clone();
    splice_at(&mut out.body, &path, unrolled);
    out.validate()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::builder::*;
    use exo_ir::interp::{run_proc, ArgValue, TensorData};
    use exo_ir::printer::proc_to_string;
    use exo_ir::{MemSpace, ScalarType};

    fn uk_8x12() -> Proc {
        proc("uk_8x12")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(8)], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![var("KC"), int(12)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(12), int(8)], MemSpace::Dram)
            .body(vec![for_(
                "k",
                0,
                var("KC"),
                vec![for_(
                    "j",
                    0,
                    12,
                    vec![for_(
                        "i",
                        0,
                        8,
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

    fn run_kernel(p: &Proc, kc: usize, mr: usize, nr: usize) -> TensorData {
        let a = TensorData::from_fn(ScalarType::F32, vec![kc, mr], |i| ((i * 7 + 3) % 11) as f64 * 0.25);
        let b = TensorData::from_fn(ScalarType::F32, vec![kc, nr], |i| ((i * 5 + 1) % 13) as f64 - 6.0);
        let c = TensorData::from_fn(ScalarType::F32, vec![nr, mr], |i| (i % 3) as f64);
        let mut args =
            vec![ArgValue::Size(kc as i64), ArgValue::Tensor(a), ArgValue::Tensor(b), ArgValue::Tensor(c)];
        run_proc(p, &mut args).unwrap();
        args.remove(3).as_tensor().unwrap().clone()
    }

    #[test]
    fn divide_loop_perfect_matches_paper_structure() {
        let p = uk_8x12();
        let p = divide_loop(&p, "i", 4, "it", "itt", true).unwrap();
        let p = divide_loop(&p, "j", 4, "jt", "jtt", true).unwrap();
        let text = proc_to_string(&p);
        assert!(text.contains("for jt in seq(0, 3):"));
        assert!(text.contains("for jtt in seq(0, 4):"));
        assert!(text.contains("for it in seq(0, 2):"));
        assert!(text.contains("for itt in seq(0, 4):"));
        assert!(text.contains("C[4 * jt + jtt, 4 * it + itt] += Ac[k, 4 * it + itt] * Bc[k, 4 * jt + jtt]"));
    }

    #[test]
    fn divide_loop_preserves_semantics() {
        let p = uk_8x12();
        let q = divide_loop(&p, "i", 4, "it", "itt", true).unwrap();
        let q = divide_loop(&q, "j", 4, "jt", "jtt", true).unwrap();
        assert_eq!(run_kernel(&p, 5, 8, 12), run_kernel(&q, 5, 8, 12));
    }

    #[test]
    fn divide_loop_imperfect_generates_tail() {
        // 8 is not a multiple of 3: main loop of 2 x 3 plus a tail of 2.
        let p = uk_8x12();
        assert!(matches!(divide_loop(&p, "i", 3, "it", "itt", true), Err(SchedError::NotDivisible { .. })));
        let q = divide_loop(&p, "i", 3, "it", "itt", false).unwrap();
        let text = proc_to_string(&q);
        assert!(text.contains("for it in seq(0, 2):"));
        assert!(text.contains("for itt_tail in seq(0, 2):"));
        assert_eq!(run_kernel(&p, 4, 8, 12), run_kernel(&q, 4, 8, 12));
    }

    #[test]
    fn divide_loop_rejects_symbolic_bounds() {
        let p = uk_8x12();
        assert!(matches!(
            divide_loop(&p, "k", 4, "kt", "ktt", true),
            Err(SchedError::NonConstantBound { .. })
        ));
    }

    #[test]
    fn divide_loop_rejects_missing_loop() {
        let p = uk_8x12();
        assert!(matches!(divide_loop(&p, "zz", 4, "a", "b", true), Err(SchedError::PatternNotFound { .. })));
    }

    #[test]
    fn reorder_swaps_perfectly_nested_loops() {
        let p = uk_8x12();
        let p = divide_loop(&p, "i", 4, "it", "itt", true).unwrap();
        let p = divide_loop(&p, "j", 4, "jt", "jtt", true).unwrap();
        // jtt and it are adjacent in the nest k, jt, jtt, it, itt.
        let q = reorder_loops(&p, "jtt it").unwrap();
        let text = proc_to_string(&q);
        let pos_it = text.find("for it in").unwrap();
        let pos_jtt = text.find("for jtt in").unwrap();
        assert!(pos_it < pos_jtt, "after reorder `it` should come before `jtt`:\n{text}");
        assert_eq!(run_kernel(&p, 3, 8, 12), run_kernel(&q, 3, 8, 12));
    }

    #[test]
    fn reorder_moves_only_the_first_matching_nest_in_program_order() {
        // Two `jtt`/`it` nests, as a staged kernel has: a load nest first,
        // the computation after it.
        let nest = |stmt| for_("jtt", 0, 4, vec![for_("it", 0, 2, vec![stmt])]);
        let at = || vec![Expr::add(Expr::mul(var("jtt"), int(2)), var("it"))];
        let p = proc("two_nests")
            .tensor_arg("x", ScalarType::F32, vec![int(8)], MemSpace::Dram)
            .tensor_arg("y", ScalarType::F32, vec![int(8)], MemSpace::Dram)
            .body(vec![nest(assign("y", at(), read("x", at()))), nest(reduce("y", at(), read("x", at())))])
            .build();
        let text = proc_to_string(&reorder_loops(&p, "jtt it").unwrap());
        let order: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("for "))
            .map(|l| &l[..l.find(" in").unwrap()])
            .collect();
        assert_eq!(order, ["for it", "for jtt", "for jtt", "for it"], "{text}");
    }

    #[test]
    fn reorder_rejects_non_nested_loops() {
        let p = uk_8x12();
        assert!(matches!(reorder_loops(&p, "k i"), Err(SchedError::NotPerfectlyNested { .. })));
        assert!(reorder_loops(&p, "only_one").is_err());
    }

    #[test]
    fn unroll_expands_constant_loops() {
        let p = uk_8x12();
        let p = divide_loop(&p, "i", 4, "it", "itt", true).unwrap();
        let q = unroll_loop(&p, "it").unwrap();
        let text = proc_to_string(&q);
        // The `it` loop disappears; its two iterations are inlined with
        // constants 0 and 4 folded into the subscripts.
        assert!(!text.contains("for it in"));
        assert!(text.contains("Ac[k, itt]"));
        assert!(text.contains("Ac[k, itt + 4]"));
        assert_eq!(run_kernel(&p, 2, 8, 12), run_kernel(&q, 2, 8, 12));
    }

    #[test]
    fn unroll_rejects_symbolic_loop() {
        let p = uk_8x12();
        assert!(matches!(unroll_loop(&p, "k"), Err(SchedError::NonConstantBound { .. })));
    }
}
