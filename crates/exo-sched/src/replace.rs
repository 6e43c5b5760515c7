//! The `replace` operator: pattern-match a loop nest against the semantic
//! body of a hardware instruction specification and substitute a call to the
//! instruction (Figs. 8–10 of the paper).
//!
//! This is the operator that gives Exo its "hardware as a library" character:
//! the instruction is an ordinary procedure whose body *defines* its
//! semantics, and `replace` only succeeds when the matched code is equivalent
//! to that body under some binding of the instruction's parameters — the
//! "security definition" the paper describes. After unification the call is
//! re-inlined and compared against the original statement as a final check.

use std::collections::BTreeMap;
use std::sync::Arc;

use exo_ir::alpha::blocks_alpha_eq;
use exo_ir::stmt::{splice_at, stmt_at};
use exo_ir::{Affine, ArgKind, BinOp, CallArg, Expr, Proc, Stmt, Sym, WAccess, WindowExpr};

use crate::error::{Result, SchedError};
use crate::memory::exprs_equiv;
use crate::pattern::{find_all_text, StmtPattern};

/// Bindings accumulated while unifying an instruction body against candidate
/// code.
#[derive(Debug, Default, Clone)]
struct Bindings {
    /// Instruction loop variable -> candidate loop variable.
    loop_vars: BTreeMap<Sym, Sym>,
    /// Instruction tensor parameter -> window of a candidate buffer.
    windows: BTreeMap<Sym, WindowExpr>,
    /// Instruction scalar (`size`/`index`) parameter -> candidate expression.
    scalars: BTreeMap<Sym, Expr>,
}

impl Bindings {
    fn bind_window(&mut self, param: &Sym, w: WindowExpr) -> std::result::Result<(), String> {
        let w = w.simplify();
        if let Some(existing) = self.windows.get(param) {
            if !windows_equiv(existing, &w) {
                return Err(format!("parameter `{param}` would bind to two different windows"));
            }
            return Ok(());
        }
        self.windows.insert(param.clone(), w);
        Ok(())
    }

    fn bind_scalar(&mut self, param: &Sym, e: Expr) -> std::result::Result<(), String> {
        let e = e.simplify();
        if let Some(existing) = self.scalars.get(param) {
            if !exprs_equiv(existing, &e) {
                return Err(format!("parameter `{param}` would bind to two different expressions"));
            }
            return Ok(());
        }
        self.scalars.insert(param.clone(), e);
        Ok(())
    }
}

fn windows_equiv(a: &WindowExpr, b: &WindowExpr) -> bool {
    a.buf == b.buf
        && a.idx.len() == b.idx.len()
        && a.idx.iter().zip(&b.idx).all(|(x, y)| match (x, y) {
            (WAccess::Point(p), WAccess::Point(q)) => exprs_equiv(p, q),
            (WAccess::Interval(l1, h1), WAccess::Interval(l2, h2)) => {
                exprs_equiv(l1, l2) && exprs_equiv(h1, h2)
            }
            _ => false,
        })
}

/// Replaces the first statement matching `pattern` that unifies with the
/// instruction `instr` by a call to it.
///
/// Candidates are tried in program order; the first whose body is equivalent
/// to the instruction's semantic specification (under some binding of the
/// instruction's parameters) is rewritten. This matches the way the paper's
/// user code issues several `replace(p, 'for itt in _: _', ...)` calls in a
/// row and each one picks up the next vectorisable loop.
///
/// # Errors
///
/// * [`SchedError::PatternNotFound`] if the pattern matches nothing.
/// * [`SchedError::ReplaceFailed`] if no candidate unifies.
/// * [`SchedError::ReplaceVerificationFailed`] if re-inlining the produced
///   call does not reproduce the original statement (internal consistency
///   check).
pub fn replace(p: &Proc, pattern: &str, instr: &Arc<Proc>) -> Result<Proc> {
    let candidates = find_all_text(p, pattern)?;
    if candidates.is_empty() {
        return Err(SchedError::PatternNotFound { pattern: pattern.to_string(), proc: p.name.clone() });
    }
    let mut last_reason = String::from("no candidate matched the pattern");
    for path in candidates {
        let stmt = stmt_at(&p.body, &path).expect("path from find_all is valid");
        match unify_instr(instr, stmt) {
            Ok(args) => {
                // Verification: inline the call, rename its loop variables to
                // the original's, and compare the simplified forms.
                let inlined = inline_call(instr, &args)?;
                let aligned: Vec<Stmt> = inlined
                    .iter()
                    .zip(std::iter::once(stmt))
                    .map(|(inl, orig)| comm_normalize(&align_loop_vars(inl, orig).simplify()))
                    .collect();
                let normalised_original = vec![comm_normalize(&stmt.simplify())];
                let ok = aligned == normalised_original || blocks_alpha_eq(&aligned, &normalised_original);
                if !ok {
                    return Err(SchedError::ReplaceVerificationFailed { instr: instr.name.clone() });
                }
                let mut out = p.clone();
                splice_at(&mut out.body, &path, vec![Stmt::call(instr.clone(), args)]);
                out.validate()?;
                return Ok(out);
            }
            Err(reason) => last_reason = reason,
        }
    }
    Err(SchedError::ReplaceFailed {
        instr: instr.name.clone(),
        pattern: pattern.to_string(),
        reason: last_reason,
    })
}

/// Replaces every statement matching `pattern` that unifies with `instr`,
/// repeating until no further candidate unifies. Returns the rewritten
/// procedure and the number of replacements performed.
///
/// # Errors
///
/// Returns an error only if the pattern text itself is malformed; zero
/// replacements is reported through the returned count.
pub fn replace_all(p: &Proc, pattern: &str, instr: &Arc<Proc>) -> Result<(Proc, usize)> {
    // Validate the pattern up front so malformed text is still reported.
    StmtPattern::parse(pattern)?;
    let mut current = p.clone();
    let mut count = 0usize;
    loop {
        match replace(&current, pattern, instr) {
            Ok(next) => {
                current = next;
                count += 1;
            }
            Err(SchedError::ReplaceFailed { .. }) | Err(SchedError::PatternNotFound { .. }) => break,
            Err(e) => return Err(e),
        }
    }
    Ok((current, count))
}

/// Canonicalises commutative operators by sorting their operands on a
/// printed key, so that `a * b` and `b * a` compare equal during the
/// post-replacement verification.
fn comm_normalize(stmt: &Stmt) -> Stmt {
    fn norm_expr(e: &Expr) -> Expr {
        match e {
            Expr::Binop { op, lhs, rhs } => {
                let l = norm_expr(lhs);
                let r = norm_expr(rhs);
                if matches!(op, BinOp::Mul | BinOp::Add) {
                    let lk = exo_ir::printer::expr_to_string(&l);
                    let rk = exo_ir::printer::expr_to_string(&r);
                    if rk < lk {
                        return Expr::Binop { op: *op, lhs: Box::new(r), rhs: Box::new(l) };
                    }
                }
                Expr::Binop { op: *op, lhs: Box::new(l), rhs: Box::new(r) }
            }
            Expr::Neg(inner) => Expr::Neg(Box::new(norm_expr(inner))),
            Expr::Read { buf, idx } => {
                Expr::Read { buf: buf.clone(), idx: idx.iter().map(norm_expr).collect() }
            }
            _ => e.clone(),
        }
    }
    match stmt {
        Stmt::Assign { buf, idx, rhs } => {
            Stmt::Assign { buf: buf.clone(), idx: idx.iter().map(norm_expr).collect(), rhs: norm_expr(rhs) }
        }
        Stmt::Reduce { buf, idx, rhs } => {
            Stmt::Reduce { buf: buf.clone(), idx: idx.iter().map(norm_expr).collect(), rhs: norm_expr(rhs) }
        }
        Stmt::For { var, lo, hi, body } => Stmt::For {
            var: var.clone(),
            lo: lo.clone(),
            hi: hi.clone(),
            body: body.iter().map(comm_normalize).collect(),
        },
        other => other.clone(),
    }
}

/// Renames the loop variables of `spec` (recursively, by nesting position) to
/// match those of `target`, so that the two can be compared structurally
/// after simplification.
fn align_loop_vars(spec: &Stmt, target: &Stmt) -> Stmt {
    match (spec, target) {
        (Stmt::For { var: sv, lo, hi, body }, Stmt::For { var: tv, body: tbody, .. }) => {
            let mut map = BTreeMap::new();
            map.insert(sv.clone(), Expr::var(tv.clone()));
            let renamed_body: Vec<Stmt> = body.iter().map(|s| s.subst(&map)).collect();
            let aligned_body: Vec<Stmt> = renamed_body
                .iter()
                .zip(tbody)
                .map(|(s, t)| align_loop_vars(s, t))
                .chain(renamed_body.iter().skip(tbody.len()).cloned())
                .collect();
            Stmt::For { var: tv.clone(), lo: lo.subst(&map), hi: hi.subst(&map), body: aligned_body }
        }
        _ => spec.clone(),
    }
}

/// Expands a call to an instruction back into its semantic body with the call
/// arguments substituted — the inverse of [`replace`], also used for its
/// verification step.
///
/// # Errors
///
/// Returns [`SchedError::ReplaceFailed`] if the argument list does not match
/// the instruction signature.
pub fn inline_call(instr: &Proc, args: &[CallArg]) -> Result<Vec<Stmt>> {
    if args.len() != instr.args.len() {
        return Err(SchedError::ReplaceFailed {
            instr: instr.name.clone(),
            pattern: String::new(),
            reason: format!("expected {} arguments, got {}", instr.args.len(), args.len()),
        });
    }
    let mut scalar_map: BTreeMap<Sym, Expr> = BTreeMap::new();
    let mut window_map: BTreeMap<Sym, WindowExpr> = BTreeMap::new();
    for (formal, actual) in instr.args.iter().zip(args) {
        match (&formal.kind, actual) {
            (ArgKind::Size | ArgKind::Index, CallArg::Expr(e)) => {
                scalar_map.insert(formal.name.clone(), e.clone());
            }
            (ArgKind::Tensor { .. }, CallArg::Window(w)) => {
                window_map.insert(formal.name.clone(), w.clone());
            }
            _ => {
                return Err(SchedError::ReplaceFailed {
                    instr: instr.name.clone(),
                    pattern: String::new(),
                    reason: format!("argument for `{}` has the wrong kind", formal.name),
                })
            }
        }
    }
    Ok(instr.body.iter().map(|s| inline_stmt(s, &scalar_map, &window_map)).collect())
}

fn inline_stmt(s: &Stmt, scalars: &BTreeMap<Sym, Expr>, windows: &BTreeMap<Sym, WindowExpr>) -> Stmt {
    let subst = |e: &Expr| inline_expr(e, scalars, windows);
    match s {
        Stmt::Assign { buf, idx, rhs } => match windows.get(buf) {
            Some(w) => {
                let (target, target_idx) = window_access(w, &idx.iter().map(&subst).collect::<Vec<_>>());
                Stmt::Assign { buf: target, idx: target_idx, rhs: subst(rhs) }
            }
            None => Stmt::Assign { buf: buf.clone(), idx: idx.iter().map(&subst).collect(), rhs: subst(rhs) },
        },
        Stmt::Reduce { buf, idx, rhs } => match windows.get(buf) {
            Some(w) => {
                let (target, target_idx) = window_access(w, &idx.iter().map(&subst).collect::<Vec<_>>());
                Stmt::Reduce { buf: target, idx: target_idx, rhs: subst(rhs) }
            }
            None => Stmt::Reduce { buf: buf.clone(), idx: idx.iter().map(&subst).collect(), rhs: subst(rhs) },
        },
        Stmt::For { var, lo, hi, body } => Stmt::For {
            var: var.clone(),
            lo: subst(lo),
            hi: subst(hi),
            body: body.iter().map(|b| inline_stmt(b, scalars, windows)).collect(),
        },
        Stmt::If { cond, then_body, else_body } => Stmt::If {
            cond: exo_ir::Cond { op: cond.op, lhs: subst(&cond.lhs), rhs: subst(&cond.rhs) },
            then_body: then_body.iter().map(|b| inline_stmt(b, scalars, windows)).collect(),
            else_body: else_body.iter().map(|b| inline_stmt(b, scalars, windows)).collect(),
        },
        other => other.clone(),
    }
}

fn inline_expr(e: &Expr, scalars: &BTreeMap<Sym, Expr>, windows: &BTreeMap<Sym, WindowExpr>) -> Expr {
    match e {
        Expr::Var(s) => scalars.get(s).cloned().unwrap_or_else(|| e.clone()),
        Expr::Read { buf, idx } => {
            let idx: Vec<Expr> = idx.iter().map(|i| inline_expr(i, scalars, windows)).collect();
            match windows.get(buf) {
                Some(w) => {
                    let (target, target_idx) = window_access(w, &idx);
                    Expr::Read { buf: target, idx: target_idx }
                }
                None => Expr::Read { buf: buf.clone(), idx },
            }
        }
        Expr::Binop { op, lhs, rhs } => Expr::Binop {
            op: *op,
            lhs: Box::new(inline_expr(lhs, scalars, windows)),
            rhs: Box::new(inline_expr(rhs, scalars, windows)),
        },
        Expr::Neg(inner) => Expr::Neg(Box::new(inline_expr(inner, scalars, windows))),
        _ => e.clone(),
    }
}

/// Converts an access `w[view_idx...]` through a window into an access of the
/// underlying buffer.
fn window_access(w: &WindowExpr, view_idx: &[Expr]) -> (Sym, Vec<Expr>) {
    let mut out = Vec::new();
    let mut vi = 0usize;
    for access in &w.idx {
        match access {
            WAccess::Point(e) => out.push(e.clone()),
            WAccess::Interval(lo, _) => {
                let rel = view_idx.get(vi).cloned().unwrap_or_else(|| Expr::int(0));
                out.push(Expr::add(lo.clone(), rel));
                vi += 1;
            }
        }
    }
    (w.buf.clone(), out)
}

/// Attempts to unify the instruction's semantic body against a candidate
/// statement, returning the call arguments (in the instruction's parameter
/// order) on success and a human-readable reason on failure.
fn unify_instr(instr: &Proc, candidate: &Stmt) -> std::result::Result<Vec<CallArg>, String> {
    let mut b = Bindings::default();
    if instr.body.len() != 1 {
        return Err(format!("instruction `{}` must have a single top-level statement", instr.name));
    }
    unify_stmt(instr, &instr.body[0], candidate, &mut b)?;

    // Assemble arguments in signature order.
    let mut args = Vec::new();
    for formal in &instr.args {
        match &formal.kind {
            ArgKind::Tensor { .. } => match b.windows.get(&formal.name) {
                Some(w) => args.push(CallArg::Window(w.clone())),
                None => return Err(format!("tensor parameter `{}` was never bound", formal.name)),
            },
            ArgKind::Size | ArgKind::Index => match b.scalars.get(&formal.name) {
                Some(e) => args.push(CallArg::Expr(e.clone())),
                None => return Err(format!("scalar parameter `{}` was never bound", formal.name)),
            },
        }
    }
    Ok(args)
}

fn unify_stmt(instr: &Proc, spec: &Stmt, cand: &Stmt, b: &mut Bindings) -> std::result::Result<(), String> {
    match (spec, cand) {
        (
            Stmt::For { var: sv, lo: slo, hi: shi, body: sbody },
            Stmt::For { var: cv, lo: clo, hi: chi, body: cbody },
        ) => {
            unify_index(instr, slo, clo, b)?;
            unify_index(instr, shi, chi, b)?;
            b.loop_vars.insert(sv.clone(), cv.clone());
            if sbody.len() != cbody.len() {
                return Err("loop bodies have different lengths".into());
            }
            for (s, c) in sbody.iter().zip(cbody) {
                unify_stmt(instr, s, c, b)?;
            }
            Ok(())
        }
        (Stmt::Assign { buf: sb, idx: si, rhs: sr }, Stmt::Assign { buf: cb, idx: ci, rhs: cr })
        | (Stmt::Reduce { buf: sb, idx: si, rhs: sr }, Stmt::Reduce { buf: cb, idx: ci, rhs: cr }) => {
            if !matches!(
                (spec, cand),
                (Stmt::Assign { .. }, Stmt::Assign { .. }) | (Stmt::Reduce { .. }, Stmt::Reduce { .. })
            ) {
                return Err("assignment kind mismatch".into());
            }
            unify_param_access(instr, sb, si, cb, ci, b)?;
            unify_value(instr, sr, cr, b)
        }
        (spec, cand) => Err(format!(
            "instruction statement {:?} cannot match candidate statement {:?}",
            kind_name(spec),
            kind_name(cand)
        )),
    }
}

fn kind_name(s: &Stmt) -> &'static str {
    match s {
        Stmt::Assign { .. } => "assignment",
        Stmt::Reduce { .. } => "reduction",
        Stmt::For { .. } => "loop",
        Stmt::Alloc { .. } => "allocation",
        Stmt::Call { .. } => "call",
        Stmt::If { .. } => "if",
        Stmt::Comment(_) => "comment",
    }
}

/// Unifies index expressions appearing in loop bounds: the spec side may only
/// contain constants or `size` parameters of the instruction.
fn unify_index(instr: &Proc, spec: &Expr, cand: &Expr, b: &mut Bindings) -> std::result::Result<(), String> {
    match spec {
        Expr::Int(v) => match cand.simplify().as_int() {
            Some(c) if c == *v => Ok(()),
            _ => Err(format!("expected constant {v}, found `{}`", exo_ir::printer::expr_to_string(cand))),
        },
        Expr::Var(s) if matches!(instr.arg(s).map(|a| &a.kind), Some(ArgKind::Size)) => {
            b.bind_scalar(s, cand.clone())
        }
        _ => Err(format!(
            "unsupported bound `{}` in instruction specification",
            exo_ir::printer::expr_to_string(spec)
        )),
    }
}

/// Unifies a value expression of the spec against the candidate.
fn unify_value(instr: &Proc, spec: &Expr, cand: &Expr, b: &mut Bindings) -> std::result::Result<(), String> {
    match spec {
        Expr::Read { buf, idx } => match cand {
            Expr::Read { buf: cb, idx: ci } => unify_param_access(instr, buf, idx, cb, ci, b),
            _ => Err(format!(
                "expected a read for parameter `{buf}`, found `{}`",
                exo_ir::printer::expr_to_string(cand)
            )),
        },
        Expr::Binop { op, lhs, rhs } => match cand {
            Expr::Binop { op: cop, lhs: cl, rhs: cr } if cop == op => {
                // Try the operands in order; for commutative operators also
                // try the swapped order (e.g. `a[k] * B_reg[j]` matching a
                // broadcast-FMA spec written as `lhs[i] * rhs[0]`).
                let mut attempt = b.clone();
                match unify_value(instr, lhs, cl, &mut attempt)
                    .and_then(|()| unify_value(instr, rhs, cr, &mut attempt))
                {
                    Ok(()) => {
                        *b = attempt;
                        Ok(())
                    }
                    Err(first_err) => {
                        if matches!(op, BinOp::Mul | BinOp::Add) {
                            let mut swapped = b.clone();
                            unify_value(instr, lhs, cr, &mut swapped)?;
                            unify_value(instr, rhs, cl, &mut swapped)?;
                            *b = swapped;
                            Ok(())
                        } else {
                            Err(first_err)
                        }
                    }
                }
            }
            _ => Err("arithmetic structure mismatch".into()),
        },
        Expr::Neg(inner) => match cand {
            Expr::Neg(cinner) => unify_value(instr, inner, cinner, b),
            _ => Err("negation mismatch".into()),
        },
        Expr::Int(v) => match cand.as_int() {
            Some(c) if c == *v => Ok(()),
            _ => Err(format!("constant {v} mismatch")),
        },
        Expr::Float(v) => match cand {
            Expr::Float(c) if c == v => Ok(()),
            _ => Err(format!("constant {v} mismatch")),
        },
        Expr::Var(s) => {
            // A bare scalar parameter (e.g. an `index` argument used as a value).
            if instr.arg(s).is_some() {
                b.bind_scalar(s, cand.clone())
            } else if let Some(cv) = b.loop_vars.get(s) {
                match cand {
                    Expr::Var(c) if c == cv => Ok(()),
                    _ => Err(format!("expected loop variable `{cv}`")),
                }
            } else {
                Err(format!("unbound specification variable `{s}`"))
            }
        }
    }
}

/// The core of the matcher: unify an access to an instruction tensor
/// parameter `param[spec_idx...]` with a candidate access `cbuf[cand_idx...]`,
/// producing (or checking) the window binding for `param`.
fn unify_param_access(
    instr: &Proc,
    param: &Sym,
    spec_idx: &[Expr],
    cbuf: &Sym,
    cand_idx: &[Expr],
    b: &mut Bindings,
) -> std::result::Result<(), String> {
    let formal =
        instr.arg(param).ok_or_else(|| format!("`{param}` is not a parameter of `{}`", instr.name))?;
    let dims = match &formal.kind {
        ArgKind::Tensor { dims, .. } => dims.clone(),
        _ => return Err(format!("parameter `{param}` is not a tensor")),
    };
    if spec_idx.len() != dims.len() {
        return Err(format!("specification access to `{param}` has the wrong rank"));
    }
    if spec_idx.len() != 1 {
        return Err(format!(
            "only rank-1 instruction operands are supported, `{param}` has rank {}",
            spec_idx.len()
        ));
    }
    if cand_idx.is_empty() {
        return Err(format!("candidate access to `{cbuf}` has rank 0"));
    }
    let extent = dims[0]
        .simplify()
        .as_int()
        .ok_or_else(|| format!("parameter `{param}` must have a constant extent"))?;

    let spec_i = &spec_idx[0];
    match spec_i {
        // Case 1: the spec indexes the operand by its own (bound) loop
        // variable — a contiguous, stride-1 vector access.
        Expr::Var(sv) if b.loop_vars.contains_key(sv) => {
            let cv = b.loop_vars[sv].clone();
            let mut window_dim: Option<(usize, Expr)> = None;
            for (d, ce) in cand_idx.iter().enumerate() {
                if ce.uses_var(&cv) {
                    if window_dim.is_some() {
                        return Err(format!(
                            "candidate access to `{cbuf}` uses `{cv}` in more than one subscript"
                        ));
                    }
                    let aff = Affine::of(ce)
                        .ok_or_else(|| format!("subscript of `{cbuf}` is not affine in `{cv}`"))?;
                    let (coeff, rest) = aff.split_var(&cv);
                    if coeff != 1 {
                        return Err(format!(
                            "access to `{cbuf}` has stride {coeff} in `{cv}`, the instruction requires stride 1"
                        ));
                    }
                    window_dim = Some((d, rest.to_expr()));
                }
            }
            let (d, base) = window_dim.ok_or_else(|| {
                format!("candidate access to `{cbuf}` does not use the vectorised loop variable `{cv}`")
            })?;
            let mut accesses = Vec::new();
            for (i, ce) in cand_idx.iter().enumerate() {
                if i == d {
                    accesses.push(WAccess::Interval(
                        base.clone(),
                        Expr::add(base.clone(), Expr::int(extent)).simplify(),
                    ));
                } else {
                    accesses.push(WAccess::Point(ce.clone()));
                }
            }
            b.bind_window(param, WindowExpr::new(cbuf.clone(), accesses))
        }
        // Case 2: the spec indexes the operand by an `index` parameter — the
        // lane-selection form of `vfmaq_laneq_f32`. The last candidate
        // subscript selects the lane; the window covers the full last
        // dimension.
        Expr::Var(sv) if matches!(instr.arg(sv).map(|a| &a.kind), Some(ArgKind::Index)) => {
            let lane = cand_idx.last().expect("non-empty checked above").clone();
            b.bind_scalar(sv, lane)?;
            let mut accesses: Vec<WAccess> =
                cand_idx[..cand_idx.len() - 1].iter().map(|e| WAccess::Point(e.clone())).collect();
            accesses.push(WAccess::Interval(Expr::int(0), Expr::int(extent)));
            b.bind_window(param, WindowExpr::new(cbuf.clone(), accesses))
        }
        // Case 3: the spec indexes the operand by a constant (broadcast-style
        // access of a single element).
        Expr::Int(c) => {
            let last = cand_idx.last().expect("non-empty checked above").clone();
            let base = Expr::sub(last, Expr::int(*c)).simplify();
            let mut accesses: Vec<WAccess> =
                cand_idx[..cand_idx.len() - 1].iter().map(|e| WAccess::Point(e.clone())).collect();
            accesses.push(WAccess::Interval(base.clone(), Expr::add(base, Expr::int(extent)).simplify()));
            b.bind_window(param, WindowExpr::new(cbuf.clone(), accesses))
        }
        other => Err(format!(
            "unsupported operand subscript `{}` in instruction `{}`",
            exo_ir::printer::expr_to_string(other),
            instr.name
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::builder::*;
    use exo_ir::printer::proc_to_string;
    use exo_ir::{InstrClass, InstrInfo, MemSpace, ScalarType};

    fn vld() -> Arc<Proc> {
        Arc::new(
            proc("neon_vld_4xf32")
                .tensor_arg("dst", ScalarType::F32, vec![int(4)], MemSpace::Neon)
                .tensor_arg("src", ScalarType::F32, vec![int(4)], MemSpace::Dram)
                .body(vec![for_("i", 0, 4, vec![assign("dst", vec![var("i")], read("src", vec![var("i")]))])])
                .instr_info(InstrInfo::new(
                    "{dst_data} = vld1q_f32(&{src_data});",
                    InstrClass::VecLoad,
                    4,
                    ScalarType::F32,
                ))
                .build(),
        )
    }

    fn vst() -> Arc<Proc> {
        Arc::new(
            proc("neon_vst_4xf32")
                .tensor_arg("dst", ScalarType::F32, vec![int(4)], MemSpace::Dram)
                .tensor_arg("src", ScalarType::F32, vec![int(4)], MemSpace::Neon)
                .body(vec![for_("i", 0, 4, vec![assign("dst", vec![var("i")], read("src", vec![var("i")]))])])
                .instr_info(InstrInfo::new(
                    "vst1q_f32(&{dst_data}, {src_data});",
                    InstrClass::VecStore,
                    4,
                    ScalarType::F32,
                ))
                .build(),
        )
    }

    fn vfmla() -> Arc<Proc> {
        Arc::new(
            proc("neon_vfmla_4xf32_4xf32")
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
                .instr_info(InstrInfo::new(
                    "{dst_data} = vfmaq_laneq_f32({dst_data}, {lhs_data}, {rhs_data}, {l});",
                    InstrClass::VecFma,
                    4,
                    ScalarType::F32,
                ))
                .build(),
        )
    }

    /// A little host procedure with a vectorisable load loop.
    fn host_with_load_loop() -> Proc {
        proc("host")
            .tensor_arg("C", ScalarType::F32, vec![int(12), int(8)], MemSpace::Dram)
            .body(vec![
                alloc("C_reg", ScalarType::F32, vec![int(12), int(2), int(4)], MemSpace::Dram),
                for_(
                    "jt",
                    0,
                    3,
                    vec![for_(
                        "jtt",
                        0,
                        4,
                        vec![for_(
                            "it",
                            0,
                            2,
                            vec![for_(
                                "itt",
                                0,
                                4,
                                vec![assign(
                                    "C_reg",
                                    vec![
                                        Expr::add(Expr::mul(int(4), var("jt")), var("jtt")),
                                        var("it"),
                                        var("itt"),
                                    ],
                                    read(
                                        "C",
                                        vec![
                                            Expr::add(Expr::mul(int(4), var("jt")), var("jtt")),
                                            Expr::add(Expr::mul(int(4), var("it")), var("itt")),
                                        ],
                                    ),
                                )],
                            )],
                        )],
                    )],
                ),
            ])
            .build()
    }

    #[test]
    fn replace_load_loop_with_vld() {
        let p = host_with_load_loop();
        let q = replace(&p, "for itt in _: _", &vld()).unwrap();
        let text = proc_to_string(&q);
        assert!(
            text.contains("neon_vld_4xf32(C_reg[4 * jt + jtt, it, 0:4], C[4 * jt + jtt, 4 * it:4 * it + 4])"),
            "unexpected output:\n{text}"
        );
    }

    #[test]
    fn replace_fma_loop_binds_lane_index() {
        let body = vec![
            alloc("C_reg", ScalarType::F32, vec![int(12), int(2), int(4)], MemSpace::Dram),
            alloc("A_reg", ScalarType::F32, vec![int(2), int(4)], MemSpace::Dram),
            alloc("B_reg", ScalarType::F32, vec![int(3), int(4)], MemSpace::Dram),
            for_(
                "jt",
                0,
                3,
                vec![for_(
                    "it",
                    0,
                    2,
                    vec![for_(
                        "jtt",
                        0,
                        4,
                        vec![for_(
                            "itt",
                            0,
                            4,
                            vec![reduce(
                                "C_reg",
                                vec![
                                    Expr::add(var("jtt"), Expr::mul(int(4), var("jt"))),
                                    var("it"),
                                    var("itt"),
                                ],
                                Expr::mul(
                                    read("A_reg", vec![var("it"), var("itt")]),
                                    read("B_reg", vec![var("jt"), var("jtt")]),
                                ),
                            )],
                        )],
                    )],
                )],
            ),
        ];
        let p = proc("host_fma").body(body).build();
        let q = replace(&p, "for itt in _: _", &vfmla()).unwrap();
        let text = proc_to_string(&q);
        assert!(
            text.contains(
                "neon_vfmla_4xf32_4xf32(C_reg[4 * jt + jtt, it, 0:4], A_reg[it, 0:4], B_reg[jt, 0:4], jtt)"
            ),
            "unexpected output:\n{text}"
        );
    }

    #[test]
    fn replace_skips_candidates_that_do_not_unify() {
        // Two itt loops: the first is a reduction (cannot match a store), the
        // second is a plain copy that can.
        let p = proc("host_two")
            .tensor_arg("C", ScalarType::F32, vec![int(8)], MemSpace::Dram)
            .body(vec![
                alloc("R", ScalarType::F32, vec![int(4)], MemSpace::Dram),
                for_("itt", 0, 4, vec![reduce("R", vec![var("itt")], read("C", vec![var("itt")]))]),
                for_("itt", 0, 4, vec![assign("C", vec![var("itt")], read("R", vec![var("itt")]))]),
            ])
            .build();
        let q = replace(&p, "for itt in _: _", &vst()).unwrap();
        let text = proc_to_string(&q);
        assert!(text.contains("neon_vst_4xf32(C[0:4], R[0:4])"), "unexpected output:\n{text}");
        // The reduction loop must still be present.
        assert!(text.contains("R[itt] += C[itt]"));
    }

    #[test]
    fn replace_fails_when_stride_is_not_one() {
        let p = proc("strided")
            .tensor_arg("C", ScalarType::F32, vec![int(16)], MemSpace::Dram)
            .body(vec![
                alloc("R", ScalarType::F32, vec![int(4)], MemSpace::Dram),
                for_(
                    "itt",
                    0,
                    4,
                    vec![assign("R", vec![var("itt")], read("C", vec![Expr::mul(int(2), var("itt"))]))],
                ),
            ])
            .build();
        let err = replace(&p, "for itt in _: _", &vld()).unwrap_err();
        match err {
            SchedError::ReplaceFailed { reason, .. } => {
                assert!(reason.contains("stride"), "reason: {reason}")
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn replace_fails_on_wrong_extent() {
        let p = proc("short")
            .tensor_arg("C", ScalarType::F32, vec![int(8)], MemSpace::Dram)
            .body(vec![
                alloc("R", ScalarType::F32, vec![int(4)], MemSpace::Dram),
                for_("itt", 0, 3, vec![assign("R", vec![var("itt")], read("C", vec![var("itt")]))]),
            ])
            .build();
        assert!(replace(&p, "for itt in _: _", &vld()).is_err());
    }

    #[test]
    fn replace_all_counts_rewrites() {
        let p = host_with_load_loop();
        let (q, n) = replace_all(&p, "for itt in _: _", &vld()).unwrap();
        assert_eq!(n, 1);
        assert!(proc_to_string(&q).contains("neon_vld_4xf32"));
        let (_, n2) = replace_all(&q, "for itt in _: _", &vld()).unwrap();
        assert_eq!(n2, 0);
    }

    #[test]
    fn inline_call_round_trips_replace() {
        let p = host_with_load_loop();
        let q = replace(&p, "for itt in _: _", &vld()).unwrap();
        // Find the call and inline it again.
        let call = exo_ir::stmt::walk(&q.body)
            .into_iter()
            .find_map(|(_, s)| match s {
                Stmt::Call { instr, args } => Some((instr.clone(), args.clone())),
                _ => None,
            })
            .expect("a call exists");
        let inlined = inline_call(&call.0, &call.1).unwrap();
        assert_eq!(inlined.len(), 1);
        let original_loop = exo_ir::stmt::stmt_at(&p.body, &[1, 0, 0, 0]).unwrap();
        let aligned = align_loop_vars(&inlined[0], original_loop).simplify();
        assert_eq!(aligned, original_loop.simplify());
    }

    #[test]
    fn broadcast_constant_index_unifies() {
        // dst[i] += lhs[i] * rhs[0]  (broadcast FMA against a single element)
        let bcast = Arc::new(
            proc("neon_vfmadd_4xf32_1xf32")
                .tensor_arg("dst", ScalarType::F32, vec![int(4)], MemSpace::Neon)
                .tensor_arg("lhs", ScalarType::F32, vec![int(4)], MemSpace::Neon)
                .tensor_arg("rhs", ScalarType::F32, vec![int(1)], MemSpace::Dram)
                .body(vec![for_(
                    "i",
                    0,
                    4,
                    vec![reduce(
                        "dst",
                        vec![var("i")],
                        Expr::mul(read("lhs", vec![var("i")]), read("rhs", vec![int(0)])),
                    )],
                )])
                .instr_info(InstrInfo::new(
                    "{dst_data} = vfmaq_n_f32({dst_data}, {lhs_data}, *{rhs_data});",
                    InstrClass::VecFma,
                    4,
                    ScalarType::F32,
                ))
                .build(),
        );
        let p = proc("host_bcast")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(1)], MemSpace::Dram)
            .body(vec![
                alloc("C_reg", ScalarType::F32, vec![int(4)], MemSpace::Dram),
                alloc("B_reg", ScalarType::F32, vec![int(4)], MemSpace::Dram),
                for_(
                    "k",
                    0,
                    var("KC"),
                    vec![for_(
                        "jtt",
                        0,
                        4,
                        vec![reduce(
                            "C_reg",
                            vec![var("jtt")],
                            Expr::mul(read("B_reg", vec![var("jtt")]), read("Ac", vec![var("k"), int(0)])),
                        )],
                    )],
                ),
            ])
            .build();
        let q = replace(&p, "for jtt in _: _", &bcast).unwrap();
        let text = proc_to_string(&q);
        assert!(text.contains("neon_vfmadd_4xf32_1xf32(C_reg[0:4], B_reg[0:4], Ac[k, 0:1])"), "got:\n{text}");
    }
}
