//! Basic whole-procedure operators: `rename`, `partial_eval`, `simplify`,
//! `set_memory`, and `set_precision`.

use std::collections::BTreeMap;

use exo_ir::stmt::stmt_at_mut;
use exo_ir::{ArgKind, Expr, MemSpace, Proc, ScalarType, Stmt, Sym};

use crate::error::{Result, SchedError};
use crate::pattern::{find_all, StmtPattern};

/// Returns a copy of `p` with a new name (the paper's `rename(ukernel_ref,
/// "uk8x12")`).
pub fn rename(p: &Proc, new_name: &str) -> Proc {
    let mut out = p.clone();
    out.name = new_name.to_string();
    out
}

/// Specialises the first `values.len()` `size` arguments of the procedure to
/// the given constants, removing them from the signature and substituting the
/// constants throughout (the paper's `p.partial_eval(MR, NR)`).
///
/// # Errors
///
/// Returns [`SchedError::TooManyValues`] if more values than `size` arguments
/// are supplied, and propagates validation errors if substitution produces
/// ill-formed IR.
pub fn partial_eval(p: &Proc, values: &[i64]) -> Result<Proc> {
    let size_args: Vec<Sym> =
        p.args.iter().filter(|a| matches!(a.kind, ArgKind::Size)).map(|a| a.name.clone()).collect();
    if values.len() > size_args.len() {
        return Err(SchedError::TooManyValues { sizes: size_args.len(), values: values.len() });
    }
    let bound: Vec<(Sym, i64)> = size_args.iter().cloned().zip(values.iter().copied()).collect();
    partial_eval_named(p, &bound)
}

/// Specialises the named `size` arguments to constants.
///
/// # Errors
///
/// Returns [`SchedError::UnknownBuffer`] if a name is not a `size` argument of
/// the procedure.
pub fn partial_eval_named(p: &Proc, values: &[(Sym, i64)]) -> Result<Proc> {
    let mut map: BTreeMap<Sym, Expr> = BTreeMap::new();
    for (name, v) in values {
        match p.arg(name) {
            Some(arg) if matches!(arg.kind, ArgKind::Size) => {
                map.insert(name.clone(), Expr::int(*v));
            }
            _ => return Err(SchedError::UnknownBuffer { buf: name.clone() }),
        }
    }
    let mut out = p.with_body(p.body.iter().map(|s| s.subst(&map).simplify()).collect());
    out.args.retain(|a| !map.contains_key(&a.name));
    // Substitute into remaining tensor argument dimensions.
    for arg in &mut out.args {
        if let ArgKind::Tensor { dims, .. } = &mut arg.kind {
            for d in dims.iter_mut() {
                *d = d.subst(&map).simplify();
            }
        }
    }
    out.validate()?;
    Ok(out)
}

/// Simplifies every index expression in the procedure (constant folding and
/// affine normalisation). Scheduling operators already simplify what they
/// touch; this exposes the same cleanup as a standalone step, matching Exo's
/// `simplify(p)`.
pub fn simplify(p: &Proc) -> Proc {
    p.simplified()
}

/// Changes the memory placement of an allocation (the paper's
/// `set_memory(p, 'C_reg', Neon)`).
///
/// # Errors
///
/// Returns [`SchedError::UnknownBuffer`] if no allocation with that name
/// exists.
pub fn set_memory(p: &Proc, buf: &str, mem: MemSpace) -> Result<Proc> {
    let name = Sym::new(buf);
    let mut out = p.clone();
    let paths = find_all(&out, &StmtPattern::AllocOf(name.clone()));
    if paths.is_empty() {
        return Err(SchedError::UnknownBuffer { buf: name });
    }
    for path in paths {
        if let Some(Stmt::Alloc { mem: m, .. }) = stmt_at_mut(&mut out.body, &path) {
            *m = mem;
        }
    }
    Ok(out)
}

/// Changes the element precision of an allocation or of a tensor argument
/// (the paper's `set_precision(p, A_reg, "f16")`, Section III-D).
///
/// # Errors
///
/// Returns [`SchedError::UnknownBuffer`] if neither an allocation nor an
/// argument with that name exists.
pub fn set_precision(p: &Proc, buf: &str, ty: ScalarType) -> Result<Proc> {
    let name = Sym::new(buf);
    let mut out = p.clone();
    let mut changed = false;
    for arg in &mut out.args {
        if arg.name == name {
            if let ArgKind::Tensor { ty: t, .. } = &mut arg.kind {
                *t = ty;
                changed = true;
            }
        }
    }
    let paths = find_all(&out, &StmtPattern::AllocOf(name.clone()));
    for path in &paths {
        if let Some(Stmt::Alloc { ty: t, .. }) = stmt_at_mut(&mut out.body, path) {
            *t = ty;
            changed = true;
        }
    }
    if changed {
        Ok(out)
    } else {
        Err(SchedError::UnknownBuffer { buf: name })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::builder::*;
    use exo_ir::printer::proc_to_string;

    fn ref_kernel() -> Proc {
        proc("ukernel_ref")
            .size_arg("MR")
            .size_arg("NR")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), var("MR")], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![var("KC"), var("NR")], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![var("NR"), var("MR")], MemSpace::Dram)
            .body(vec![for_(
                "k",
                0,
                var("KC"),
                vec![for_(
                    "j",
                    0,
                    var("NR"),
                    vec![for_(
                        "i",
                        0,
                        var("MR"),
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
    fn rename_changes_only_the_name() {
        let p = ref_kernel();
        let q = rename(&p, "uk_8x12");
        assert_eq!(q.name, "uk_8x12");
        assert_eq!(q.body, p.body);
    }

    #[test]
    fn partial_eval_replaces_leading_size_args() {
        let p = ref_kernel();
        let q = partial_eval(&p, &[8, 12]).unwrap();
        assert_eq!(q.args.len(), p.args.len() - 2);
        let text = proc_to_string(&q);
        assert!(text.contains("Ac: f32[KC, 8] @ DRAM"));
        assert!(text.contains("C: f32[12, 8] @ DRAM"));
        assert!(text.contains("for j in seq(0, 12):"));
        assert!(text.contains("for i in seq(0, 8):"));
        assert!(q.validate().is_ok());
    }

    #[test]
    fn partial_eval_rejects_excess_values() {
        let p = ref_kernel();
        assert!(matches!(partial_eval(&p, &[1, 2, 3, 4]), Err(SchedError::TooManyValues { .. })));
    }

    #[test]
    fn partial_eval_named_rejects_non_size() {
        let p = ref_kernel();
        assert!(partial_eval_named(&p, &[("Ac".into(), 3)]).is_err());
        let q = partial_eval_named(&p, &[("KC".into(), 512)]).unwrap();
        assert!(proc_to_string(&q).contains("for k in seq(0, 512):"));
    }

    #[test]
    fn set_memory_changes_allocation() {
        let mut p = ref_kernel();
        p.body.insert(0, alloc("C_reg", ScalarType::F32, vec![int(4)], MemSpace::Dram));
        let q = set_memory(&p, "C_reg", MemSpace::Neon).unwrap();
        assert!(proc_to_string(&q).contains("C_reg: f32[4] @ Neon"));
        assert!(set_memory(&p, "nope", MemSpace::Neon).is_err());
    }

    #[test]
    fn set_precision_changes_alloc_and_args() {
        let mut p = ref_kernel();
        p.body.insert(0, alloc("A_reg", ScalarType::F32, vec![int(4)], MemSpace::Neon));
        let q = set_precision(&p, "A_reg", ScalarType::F16).unwrap();
        assert!(proc_to_string(&q).contains("A_reg: f16[4] @ Neon"));
        let q2 = set_precision(&p, "Ac", ScalarType::F16).unwrap();
        assert!(proc_to_string(&q2).contains("Ac: f16[KC, MR] @ DRAM"));
        assert!(set_precision(&p, "missing", ScalarType::F16).is_err());
    }

    #[test]
    fn simplify_folds_indices() {
        let mut p = ref_kernel();
        p.body.push(assign(
            "C",
            vec![Expr::add(Expr::int(0), Expr::mul(Expr::int(1), var("NR"))) - var("NR"), Expr::int(3)],
            flt(0.0),
        ));
        let q = simplify(&p);
        assert!(proc_to_string(&q).contains("C[0, 3]"));
    }
}
