//! Buffer-staging operators: `stage_mem`, `bind_expr`, `expand_dim`, and
//! `lift_alloc`. These are the operators the paper uses to materialise the
//! `C_reg`, `A_reg`, and `B_reg` register tiles (Section III, Figs. 8–9).

use exo_ir::stmt::{block_of_mut, splice_at, stmt_at, stmt_at_mut};
use exo_ir::{ArgKind, Expr, MemSpace, Proc, ScalarType, Stmt, Sym, WAccess, WindowExpr};

use crate::error::{Result, SchedError};
use crate::pattern::{find_all, find_first, ExprPattern, StmtPattern};

/// Whether two index expressions are equivalent (same affine normal form, or
/// structurally equal after simplification).
pub(crate) fn exprs_equiv(a: &Expr, b: &Expr) -> bool {
    match (exo_ir::Affine::of(a), exo_ir::Affine::of(b)) {
        (Some(x), Some(y)) => x == y,
        _ => a.simplify() == b.simplify(),
    }
}

/// Looks up the element type of a buffer: a tensor argument or a local
/// allocation.
fn buffer_type(p: &Proc, buf: &Sym) -> Option<ScalarType> {
    if let Some(arg) = p.arg(buf) {
        if let ArgKind::Tensor { ty, .. } = &arg.kind {
            return Some(*ty);
        }
    }
    for (_, stmt) in exo_ir::stmt::walk(&p.body) {
        if let Stmt::Alloc { name, ty, .. } = stmt {
            if name == buf {
                return Some(*ty);
            }
        }
    }
    None
}

/// Stages the memory region `window` of a buffer into a new scratch buffer
/// around the first statement matching `stmt_pattern` (the paper's
/// `stage_mem(p, 'C[_] += _', 'C[4 * jt + jtt, 4 * it + itt]', 'C_reg')`).
///
/// The rewrite produces, in place of the matched statement `S`:
///
/// 1. an allocation of the scratch buffer (rank = number of interval
///    dimensions of the window, zero for a single staged element),
/// 2. a copy-in if `S` reads the buffer,
/// 3. `S` with every window-matching access redirected to the scratch buffer,
/// 4. a copy-back if `S` writes the buffer.
///
/// # Errors
///
/// * [`SchedError::PatternNotFound`] if no statement matches.
/// * [`SchedError::UnknownBuffer`] if the window's buffer is unknown.
/// * [`SchedError::OutOfRange`] if an access to the buffer inside the matched
///   statement cannot be expressed relative to the window.
pub fn stage_mem(p: &Proc, stmt_pattern: &str, window: &str, new_name: &str) -> Result<Proc> {
    let path = find_first(p, stmt_pattern)?;
    let target = stmt_at(&p.body, &path).expect("path from find_first is valid");
    let win = exo_ir::parse::parse_window(window)?;
    let buf = win.buf.clone();
    let ty = buffer_type(p, &buf).ok_or_else(|| SchedError::UnknownBuffer { buf: buf.clone() })?;
    let new_sym = p.fresh_sym(new_name);

    // Dimensions of the staged buffer: one per interval access.
    let staged_dims: Vec<Expr> = win
        .idx
        .iter()
        .filter_map(|a| match a {
            WAccess::Interval(lo, hi) => Some(Expr::sub(hi.clone(), lo.clone()).simplify()),
            WAccess::Point(_) => None,
        })
        .collect();

    let reads = target.read_bufs().contains(&buf);
    let writes = target.written_bufs().contains(&buf);

    // Rewrite accesses of `buf` inside the target statement.
    let rewritten = rewrite_stmt_accesses(target, &buf, &win, &new_sym)?;

    // Copy loops. Fresh iteration variables i0, i1, ... one per staged dim.
    let copy_vars: Vec<Sym> = (0..staged_dims.len()).map(|i| Sym::new(format!("s{i}"))).collect();
    let make_copy = |to_scratch: bool| -> Stmt {
        // Index of the original buffer at copy point.
        let mut orig_idx = Vec::new();
        let mut vi = 0usize;
        for a in &win.idx {
            match a {
                WAccess::Point(e) => orig_idx.push(e.clone()),
                WAccess::Interval(lo, _) => {
                    orig_idx.push(Expr::add(lo.clone(), Expr::var(copy_vars[vi].clone())).simplify());
                    vi += 1;
                }
            }
        }
        let scratch_idx: Vec<Expr> = copy_vars.iter().map(|v| Expr::var(v.clone())).collect();
        let inner = if to_scratch {
            Stmt::assign(new_sym.clone(), scratch_idx, Expr::read(buf.clone(), orig_idx))
        } else {
            Stmt::assign(buf.clone(), orig_idx, Expr::read(new_sym.clone(), scratch_idx))
        };
        let mut stmt = inner;
        for (v, d) in copy_vars.iter().zip(&staged_dims).rev() {
            stmt = Stmt::for_(v.clone(), 0, d.clone(), vec![stmt]);
        }
        stmt
    };

    let mut replacement = vec![Stmt::alloc(new_sym.clone(), ty, staged_dims.clone(), MemSpace::Dram)];
    if reads {
        replacement.push(make_copy(true));
    }
    replacement.push(rewritten);
    if writes {
        replacement.push(make_copy(false));
    }

    let mut out = p.clone();
    splice_at(&mut out.body, &path, replacement);
    out.validate()?;
    Ok(out)
}

/// Rewrites every access to `buf` matching `win` inside `stmt` so that it
/// refers to `scratch` with window-relative indices.
fn rewrite_stmt_accesses(stmt: &Stmt, buf: &Sym, win: &WindowExpr, scratch: &Sym) -> Result<Stmt> {
    let relative = |idx: &[Expr]| -> Result<Vec<Expr>> {
        if idx.len() != win.idx.len() {
            return Err(SchedError::OutOfRange {
                reason: format!(
                    "access to `{buf}` has rank {} but the staged window has rank {}",
                    idx.len(),
                    win.idx.len()
                ),
            });
        }
        let mut rel = Vec::new();
        for (e, a) in idx.iter().zip(&win.idx) {
            match a {
                WAccess::Point(pe) => {
                    if !exprs_equiv(e, pe) {
                        return Err(SchedError::OutOfRange {
                            reason: format!(
                                "access to `{buf}` does not lie in the staged window: `{}` vs `{}`",
                                exo_ir::printer::expr_to_string(e),
                                exo_ir::printer::expr_to_string(pe)
                            ),
                        });
                    }
                }
                WAccess::Interval(lo, _) => {
                    rel.push(Expr::sub(e.clone(), lo.clone()).simplify());
                }
            }
        }
        Ok(rel)
    };

    fn rewrite_expr(
        e: &Expr,
        buf: &Sym,
        scratch: &Sym,
        relative: &impl Fn(&[Expr]) -> Result<Vec<Expr>>,
    ) -> Result<Expr> {
        Ok(match e {
            Expr::Read { buf: b, idx } if b == buf => {
                Expr::Read { buf: scratch.clone(), idx: relative(idx)? }
            }
            Expr::Read { buf: b, idx } => Expr::Read {
                buf: b.clone(),
                idx: idx.iter().map(|i| rewrite_expr(i, buf, scratch, relative)).collect::<Result<_>>()?,
            },
            Expr::Binop { op, lhs, rhs } => Expr::Binop {
                op: *op,
                lhs: Box::new(rewrite_expr(lhs, buf, scratch, relative)?),
                rhs: Box::new(rewrite_expr(rhs, buf, scratch, relative)?),
            },
            Expr::Neg(inner) => Expr::Neg(Box::new(rewrite_expr(inner, buf, scratch, relative)?)),
            _ => e.clone(),
        })
    }

    fn rewrite(
        stmt: &Stmt,
        buf: &Sym,
        scratch: &Sym,
        relative: &impl Fn(&[Expr]) -> Result<Vec<Expr>>,
    ) -> Result<Stmt> {
        Ok(match stmt {
            Stmt::Assign { buf: b, idx, rhs } => {
                let rhs = rewrite_expr(rhs, buf, scratch, relative)?;
                if b == buf {
                    Stmt::Assign { buf: scratch.clone(), idx: relative(idx)?, rhs }
                } else {
                    Stmt::Assign { buf: b.clone(), idx: idx.clone(), rhs }
                }
            }
            Stmt::Reduce { buf: b, idx, rhs } => {
                let rhs = rewrite_expr(rhs, buf, scratch, relative)?;
                if b == buf {
                    Stmt::Reduce { buf: scratch.clone(), idx: relative(idx)?, rhs }
                } else {
                    Stmt::Reduce { buf: b.clone(), idx: idx.clone(), rhs }
                }
            }
            Stmt::For { var, lo, hi, body } => Stmt::For {
                var: var.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
                body: body.iter().map(|s| rewrite(s, buf, scratch, relative)).collect::<Result<_>>()?,
            },
            other => other.clone(),
        })
    }

    rewrite(stmt, buf, scratch, &relative)
}

/// Binds the first read matching `expr_pattern` inside the first statement
/// that contains one to a new rank-0 scratch buffer (the paper's
/// `bind_expr(p, 'Xc[_]', 'X_reg')`).
///
/// The rewrite inserts, immediately before that statement, an allocation of
/// the scratch and an assignment of the matched expression into it, and
/// replaces every identical occurrence of the expression in the statement
/// with a read of the scratch.
///
/// # Errors
///
/// * [`SchedError::PatternNotFound`] if no statement contains a matching
///   read.
pub fn bind_expr(p: &Proc, expr_pattern: &str, new_name: &str) -> Result<Proc> {
    let pat = ExprPattern::parse(expr_pattern)?;
    let ty = buffer_type(p, &pat.buf).ok_or_else(|| SchedError::UnknownBuffer { buf: pat.buf.clone() })?;
    let new_sym = p.fresh_sym(new_name);

    // Find the first Assign/Reduce whose right-hand side contains the read.
    let mut found: Option<(Vec<usize>, Expr)> = None;
    for (path, stmt) in exo_ir::stmt::walk(&p.body) {
        let rhs = match stmt {
            Stmt::Assign { rhs, .. } | Stmt::Reduce { rhs, .. } => rhs,
            _ => continue,
        };
        if let Some(e) = pat.find_in_expr(rhs) {
            found = Some((path, e));
            break;
        }
    }
    let (path, matched) = found.ok_or_else(|| SchedError::PatternNotFound {
        pattern: expr_pattern.to_string(),
        proc: p.name.clone(),
    })?;

    let target = stmt_at(&p.body, &path).expect("path is valid");
    let replaced = replace_expr_in_stmt(target, &matched, &Expr::read(new_sym.clone(), vec![]));
    let replacement = vec![
        Stmt::alloc(new_sym.clone(), ty, vec![], MemSpace::Dram),
        Stmt::assign(new_sym.clone(), vec![], matched),
        replaced,
    ];
    let mut out = p.clone();
    splice_at(&mut out.body, &path, replacement);
    out.validate()?;
    Ok(out)
}

fn replace_expr_in_stmt(stmt: &Stmt, from: &Expr, to: &Expr) -> Stmt {
    fn go_expr(e: &Expr, from: &Expr, to: &Expr) -> Expr {
        if e == from {
            return to.clone();
        }
        match e {
            Expr::Binop { op, lhs, rhs } => Expr::Binop {
                op: *op,
                lhs: Box::new(go_expr(lhs, from, to)),
                rhs: Box::new(go_expr(rhs, from, to)),
            },
            Expr::Neg(inner) => Expr::Neg(Box::new(go_expr(inner, from, to))),
            Expr::Read { buf, idx } => {
                Expr::Read { buf: buf.clone(), idx: idx.iter().map(|i| go_expr(i, from, to)).collect() }
            }
            _ => e.clone(),
        }
    }
    match stmt {
        Stmt::Assign { buf, idx, rhs } => {
            Stmt::Assign { buf: buf.clone(), idx: idx.clone(), rhs: go_expr(rhs, from, to) }
        }
        Stmt::Reduce { buf, idx, rhs } => {
            Stmt::Reduce { buf: buf.clone(), idx: idx.clone(), rhs: go_expr(rhs, from, to) }
        }
        other => other.clone(),
    }
}

/// Adds a new leading dimension of extent `size` to the allocation of `buf`,
/// and prefixes every access to `buf` with the index expression `idx` (the
/// paper's `expand_dim(p, 'C_reg', 4, 'itt')`).
///
/// # Errors
///
/// * [`SchedError::UnknownBuffer`] if `buf` is not a local allocation.
/// * [`SchedError::OutOfRange`] if `size` is not positive, or the indexing
///   expression is a constant outside `[0, size)`.
pub fn expand_dim(p: &Proc, buf: &str, size: i64, idx: &str) -> Result<Proc> {
    if size <= 0 {
        return Err(SchedError::OutOfRange { reason: format!("expand_dim size {size} must be positive") });
    }
    let name = Sym::new(buf);
    let idx_expr = exo_ir::parse::parse_expr(idx)?.simplify();
    if let Some(c) = idx_expr.as_int() {
        if c < 0 || c >= size {
            return Err(SchedError::OutOfRange {
                reason: format!("constant index {c} outside new dimension of extent {size}"),
            });
        }
    }
    let alloc_paths = find_all(p, &StmtPattern::AllocOf(name.clone()));
    let alloc_path =
        alloc_paths.into_iter().next().ok_or_else(|| SchedError::UnknownBuffer { buf: name.clone() })?;

    let mut out = p.with_body(p.body.iter().map(|s| prefix_accesses(s, &name, &idx_expr)).collect());
    if let Some(Stmt::Alloc { dims, .. }) = stmt_at_mut(&mut out.body, &alloc_path) {
        dims.insert(0, Expr::int(size));
    }
    out.validate()?;
    Ok(out)
}

fn prefix_accesses(stmt: &Stmt, buf: &Sym, idx: &Expr) -> Stmt {
    fn go_expr(e: &Expr, buf: &Sym, idx: &Expr) -> Expr {
        match e {
            Expr::Read { buf: b, idx: i } => {
                let mut new_idx: Vec<Expr> = i.iter().map(|x| go_expr(x, buf, idx)).collect();
                if b == buf {
                    new_idx.insert(0, idx.clone());
                }
                Expr::Read { buf: b.clone(), idx: new_idx }
            }
            Expr::Binop { op, lhs, rhs } => Expr::Binop {
                op: *op,
                lhs: Box::new(go_expr(lhs, buf, idx)),
                rhs: Box::new(go_expr(rhs, buf, idx)),
            },
            Expr::Neg(inner) => Expr::Neg(Box::new(go_expr(inner, buf, idx))),
            _ => e.clone(),
        }
    }
    match stmt {
        Stmt::Assign { buf: b, idx: i, rhs } => {
            let mut new_idx: Vec<Expr> = i.clone();
            if b == buf {
                new_idx.insert(0, idx.clone());
            }
            Stmt::Assign { buf: b.clone(), idx: new_idx, rhs: go_expr(rhs, buf, idx) }
        }
        Stmt::Reduce { buf: b, idx: i, rhs } => {
            let mut new_idx: Vec<Expr> = i.clone();
            if b == buf {
                new_idx.insert(0, idx.clone());
            }
            Stmt::Reduce { buf: b.clone(), idx: new_idx, rhs: go_expr(rhs, buf, idx) }
        }
        Stmt::For { var, lo, hi, body } => Stmt::For {
            var: var.clone(),
            lo: lo.clone(),
            hi: hi.clone(),
            body: body.iter().map(|s| prefix_accesses(s, buf, idx)).collect(),
        },
        Stmt::If { cond, then_body, else_body } => Stmt::If {
            cond: cond.clone(),
            then_body: then_body.iter().map(|s| prefix_accesses(s, buf, idx)).collect(),
            else_body: else_body.iter().map(|s| prefix_accesses(s, buf, idx)).collect(),
        },
        Stmt::Call { instr, args } => Stmt::Call {
            instr: instr.clone(),
            args: args
                .iter()
                .map(|a| match a {
                    exo_ir::CallArg::Window(w) if w.buf == *buf => {
                        let mut new_idx = w.idx.clone();
                        new_idx.insert(0, WAccess::Point(idx.clone()));
                        exo_ir::CallArg::Window(WindowExpr::new(w.buf.clone(), new_idx))
                    }
                    other => other.clone(),
                })
                .collect(),
        },
        other => other.clone(),
    }
}

/// Moves the allocation of `buf` up through `n_lifts` enclosing statements
/// (loops), placing it immediately before the statement it used to live
/// inside (the paper's `lift_alloc(p, 'C_reg', n_lifts=5)`).
///
/// Lifting past the outermost nesting level stops at the procedure body, as
/// in Exo.
///
/// # Errors
///
/// * [`SchedError::UnknownBuffer`] if `buf` is not allocated in the body.
/// * [`SchedError::OutOfRange`] if the allocation's dimensions depend on a
///   loop variable that would go out of scope.
pub fn lift_alloc(p: &Proc, buf: &str, n_lifts: usize) -> Result<Proc> {
    let name = Sym::new(buf);
    let mut out = p.clone();
    for _ in 0..n_lifts {
        let paths = find_all(&out, &StmtPattern::AllocOf(name.clone()));
        let path = match paths.into_iter().next() {
            Some(p) => p,
            None => return Err(SchedError::UnknownBuffer { buf: name }),
        };
        if path.len() == 1 {
            // Already at the top of the procedure body.
            break;
        }
        // The loop variable we are lifting across must not appear in the
        // allocation's dimensions.
        let parent_path = &path[..path.len() - 1];
        if let Some(Stmt::For { var, .. }) = stmt_at(&out.body, parent_path) {
            if let Some(Stmt::Alloc { dims, .. }) = stmt_at(&out.body, &path) {
                if dims.iter().any(|d| d.uses_var(var)) {
                    return Err(SchedError::OutOfRange {
                        reason: format!("allocation of `{name}` depends on loop variable `{var}`"),
                    });
                }
            }
        }
        // Remove the alloc from its current block...
        let alloc_stmt = {
            let (block, i) = block_of_mut(&mut out.body, &path).expect("path is valid");
            block.remove(i)
        };
        // ...and insert it right before its former parent statement.
        {
            let (parent_block, pi) = block_of_mut(&mut out.body, parent_path).expect("parent path is valid");
            parent_block.insert(pi, alloc_stmt);
        }
    }
    out.validate()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::builder::*;
    use exo_ir::interp::{run_proc, ArgValue, TensorData};
    use exo_ir::printer::proc_to_string;

    /// The v2 kernel of the paper (Fig. 7): loops k, jt, jtt, it, itt.
    fn v2_kernel() -> Proc {
        let p = proc("uk_8x12")
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
            .build();
        let p = crate::loops::divide_loop(&p, "i", 4, "it", "itt", true).unwrap();
        crate::loops::divide_loop(&p, "j", 4, "jt", "jtt", true).unwrap()
    }

    fn run_kernel(p: &Proc, kc: usize) -> TensorData {
        let a = TensorData::from_fn(ScalarType::F32, vec![kc, 8], |i| ((i * 3 + 1) % 9) as f64 * 0.5);
        let b = TensorData::from_fn(ScalarType::F32, vec![kc, 12], |i| ((i * 7 + 2) % 11) as f64 - 5.0);
        let c = TensorData::from_fn(ScalarType::F32, vec![12, 8], |i| (i % 4) as f64);
        let mut args =
            vec![ArgValue::Size(kc as i64), ArgValue::Tensor(a), ArgValue::Tensor(b), ArgValue::Tensor(c)];
        run_proc(p, &mut args).unwrap();
        args.remove(3).as_tensor().unwrap().clone()
    }

    #[test]
    fn stage_mem_stages_single_element() {
        let p = v2_kernel();
        let q = stage_mem(&p, "C[_] += _", "C[4 * jt + jtt, 4 * it + itt]", "C_reg").unwrap();
        let text = proc_to_string(&q);
        assert!(text.contains("C_reg: f32[] @ DRAM"));
        assert!(text.contains("C_reg[] = C[4 * jt + jtt, 4 * it + itt]"));
        assert!(text.contains("C_reg[] += Ac[k, 4 * it + itt] * Bc[k, 4 * jt + jtt]"));
        assert!(text.contains("C[4 * jt + jtt, 4 * it + itt] = C_reg[]"));
        assert_eq!(run_kernel(&p, 3), run_kernel(&q, 3));
    }

    #[test]
    fn stage_mem_rejects_mismatched_window() {
        let p = v2_kernel();
        let err = stage_mem(&p, "C[_] += _", "C[jt, it]", "C_reg").unwrap_err();
        assert!(matches!(err, SchedError::OutOfRange { .. }));
    }

    #[test]
    fn stage_mem_with_interval_stages_a_row() {
        // Stage the whole 4-element row C[4*jt+jtt, 4*it : 4*it+4].
        let p = v2_kernel();
        let q = stage_mem(&p, "C[_] += _", "C[4 * jt + jtt, 4 * it:4 * it + 4]", "C_row").unwrap();
        let text = proc_to_string(&q);
        assert!(text.contains("C_row: f32[4] @ DRAM"));
        assert!(text.contains("for s0 in seq(0, 4):"));
        assert_eq!(run_kernel(&p, 2), run_kernel(&q, 2));
    }

    #[test]
    fn bind_expr_introduces_scalar_scratch() {
        let p = v2_kernel();
        let q = bind_expr(&p, "Ac[_]", "A_reg").unwrap();
        let text = proc_to_string(&q);
        assert!(text.contains("A_reg: f32[] @ DRAM"));
        assert!(text.contains("A_reg[] = Ac[k, 4 * it + itt]"));
        assert!(text.contains("C[4 * jt + jtt, 4 * it + itt] += A_reg[] * Bc[k, 4 * jt + jtt]"));
        assert_eq!(run_kernel(&p, 3), run_kernel(&q, 3));
    }

    #[test]
    fn bind_expr_unknown_buffer_errors() {
        let p = v2_kernel();
        assert!(bind_expr(&p, "Zc[_]", "Z_reg").is_err());
    }

    #[test]
    fn expand_dim_grows_allocation_and_accesses() {
        let p = v2_kernel();
        let q = stage_mem(&p, "C[_] += _", "C[4 * jt + jtt, 4 * it + itt]", "C_reg").unwrap();
        let q = expand_dim(&q, "C_reg", 4, "itt").unwrap();
        let q = expand_dim(&q, "C_reg", 2, "it").unwrap();
        let q = expand_dim(&q, "C_reg", 12, "jt * 4 + jtt").unwrap();
        let text = proc_to_string(&q);
        assert!(text.contains("C_reg: f32[12, 2, 4] @ DRAM"));
        assert!(text.contains("C_reg[4 * jt + jtt, it, itt] += Ac[k, 4 * it + itt] * Bc[k, 4 * jt + jtt]"));
        assert_eq!(run_kernel(&p, 3), run_kernel(&q, 3));
    }

    #[test]
    fn expand_dim_validates_inputs() {
        let p = v2_kernel();
        assert!(expand_dim(&p, "nope", 4, "itt").is_err());
        let q = stage_mem(&p, "C[_] += _", "C[4 * jt + jtt, 4 * it + itt]", "C_reg").unwrap();
        assert!(expand_dim(&q, "C_reg", 0, "itt").is_err());
        assert!(expand_dim(&q, "C_reg", 4, "7").is_err());
    }

    #[test]
    fn lift_alloc_hoists_to_top() {
        let p = v2_kernel();
        let q = stage_mem(&p, "C[_] += _", "C[4 * jt + jtt, 4 * it + itt]", "C_reg").unwrap();
        let q = expand_dim(&q, "C_reg", 4, "itt").unwrap();
        let q = expand_dim(&q, "C_reg", 2, "it").unwrap();
        let q = expand_dim(&q, "C_reg", 12, "jt * 4 + jtt").unwrap();
        let q = lift_alloc(&q, "C_reg", 5).unwrap();
        // The allocation must now be the first statement of the body.
        match &q.body[0] {
            Stmt::Alloc { name, .. } => assert_eq!(*name, "C_reg"),
            other => panic!("expected allocation at top, found {other:?}"),
        }
        assert_eq!(run_kernel(&p, 2), run_kernel(&q, 2));
    }

    #[test]
    fn lift_alloc_stops_at_procedure_body() {
        let p = v2_kernel();
        let q = stage_mem(&p, "C[_] += _", "C[4 * jt + jtt, 4 * it + itt]", "C_reg").unwrap();
        // Far more lifts than nesting levels: should stop gracefully at the top.
        let q = lift_alloc(&q, "C_reg", 50).unwrap();
        assert!(matches!(&q.body[0], Stmt::Alloc { .. }));
    }

    #[test]
    fn lift_alloc_rejects_dimensions_using_loop_vars() {
        let p = proc("p")
            .size_arg("N")
            .tensor_arg("x", ScalarType::F32, vec![var("N")], MemSpace::Dram)
            .body(vec![for_(
                "i",
                1,
                var("N"),
                vec![
                    alloc("tmp", ScalarType::F32, vec![var("i")], MemSpace::Dram),
                    assign("x", vec![var("i")], read("tmp", vec![int(0)])),
                ],
            )])
            .build();
        assert!(matches!(lift_alloc(&p, "tmp", 1), Err(SchedError::OutOfRange { .. })));
    }

    #[test]
    fn lift_alloc_unknown_buffer_errors() {
        let p = v2_kernel();
        assert!(matches!(lift_alloc(&p, "ghost", 1), Err(SchedError::UnknownBuffer { .. })));
    }
}
