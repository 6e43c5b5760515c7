//! Loop fission: `autofission` splits a loop nest at a program point and
//! lifts the split through a number of enclosing loops, dropping loops that
//! become redundant — exactly the operator the paper uses to hoist the
//! `C_reg` loads/stores out of the computation (Fig. 8) and the `A_reg` /
//! `B_reg` loads up to the `k`-loop (Fig. 9).
//!
//! # Legality
//!
//! Splitting the body `[G1; G2]` of `for v` into `for v: G1; for v: G2`
//! requires that iterating all of `G1` before all of `G2` does not change
//! behaviour. The checker accepts the split when, for every buffer accessed
//! by both halves with at least one write, every access in both halves
//! mentions the loop variable in a subscript (different iterations touch
//! different elements, so the interleaving between halves is irrelevant).
//!
//! A half that does not mention the loop variable at all is *hoisted out* of
//! the loop instead of being wrapped in a copy of it (Exo's redundant-loop
//! removal). Hoisting is accepted when the half contains no reductions and
//! does not read anything it writes, i.e. executing it once is equivalent to
//! executing it `N ≥ 1` times. Loop extents are assumed positive, as `size`
//! values are in Exo. This is the staging pattern used by the paper's
//! generator; the workspace's differential interpreter tests additionally
//! verify end-to-end behaviour preservation of every generated kernel.

use exo_ir::stmt::block_of_mut;
use exo_ir::{Proc, Stmt, Sym};

use crate::error::{Result, SchedError};
use crate::pattern::find_first;

/// Which side of the matched statement the fission point lies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// Split immediately before the matched statement.
    Before,
    /// Split immediately after the matched statement.
    After,
}

/// Splits the block containing the first statement matching `pattern` at the
/// given anchor and lifts the split point through `n_lifts` enclosing loops
/// (the paper's `autofission(p, p.find('C_reg[_] = _').after(), n_lifts=5)`).
///
/// # Errors
///
/// * [`SchedError::PatternNotFound`] if the pattern matches nothing.
/// * [`SchedError::LiftTooFar`] if fewer than `n_lifts` enclosing loops exist.
/// * [`SchedError::FissionThroughIf`] if an enclosing statement is an `if`.
/// * [`SchedError::UnsafeFission`] if the dependence checks described in the
///   module documentation fail.
pub fn autofission(p: &Proc, pattern: &str, anchor: Anchor, n_lifts: usize) -> Result<Proc> {
    let path = find_first(p, pattern)?;
    fission_at(p, &path, anchor, n_lifts)
}

/// Like [`autofission`] but addressed by an explicit statement path.
///
/// # Errors
///
/// See [`autofission`].
pub fn fission_at(p: &Proc, path: &[usize], anchor: Anchor, n_lifts: usize) -> Result<Proc> {
    if path.is_empty() {
        return Err(SchedError::PatternNotFound { pattern: "<empty path>".into(), proc: p.name.clone() });
    }
    let mut out = p.clone();
    // The "gap" is a position within the block addressed by `block_path`.
    let mut block_path: Vec<usize> = path[..path.len() - 1].to_vec();
    let mut gap_index = path[path.len() - 1]
        + match anchor {
            Anchor::Before => 0,
            Anchor::After => 1,
        };

    for lift in 0..n_lifts {
        if block_path.is_empty() {
            return Err(SchedError::LiftTooFar { requested: n_lifts, available: lift });
        }
        // The enclosing loop is taken out of `out` and either put back
        // whole or replaced by its halves; on an error `out` is dropped.
        let (parent_block, parent_index) =
            block_of_mut(&mut out.body, &block_path).expect("block path is valid");
        let (loop_var, lo, hi, mut g1) = match parent_block.remove(parent_index) {
            Stmt::For { var, lo, hi, body } => (var, lo, hi, body),
            Stmt::If { .. } => return Err(SchedError::FissionThroughIf),
            other => {
                return Err(SchedError::WrongStatementKind {
                    expected: "a loop to fission through",
                    found: format!("{other:?}"),
                })
            }
        };
        let g2 = g1.split_off(gap_index);

        if g1.is_empty() || g2.is_empty() {
            // Nothing to split at this level; the gap simply moves to before
            // or after the enclosing loop.
            gap_index = if g1.is_empty() { parent_index } else { parent_index + 1 };
            g1.extend(g2);
            parent_block.insert(parent_index, Stmt::For { var: loop_var, lo, hi, body: g1 });
            block_path.pop();
            continue;
        }

        check_distribution(&loop_var, &g1, &g2)?;

        let make_half = |half: Vec<Stmt>| -> Result<Vec<Stmt>> {
            let uses = half.iter().any(|s| s.uses_var(&loop_var));
            if !uses {
                check_hoistable(&loop_var, &half)?;
                Ok(half)
            } else {
                Ok(vec![Stmt::For { var: loop_var.clone(), lo: lo.clone(), hi: hi.clone(), body: half }])
            }
        };
        let piece1 = make_half(g1)?;
        let piece2 = make_half(g2)?;
        let piece1_len = piece1.len();
        parent_block.splice(parent_index..parent_index, piece1.into_iter().chain(piece2));
        block_path.pop();
        gap_index = parent_index + piece1_len;
    }

    out.validate()?;
    Ok(out)
}

/// Checks that distributing `for v { g1; g2 }` into two loops is safe under
/// the per-iteration disjointness rule described in the module docs.
fn check_distribution(v: &Sym, g1: &[Stmt], g2: &[Stmt]) -> Result<()> {
    let reads1: std::collections::BTreeSet<_> = g1.iter().flat_map(|s| s.read_bufs()).collect();
    let writes1: std::collections::BTreeSet<_> = g1.iter().flat_map(|s| s.written_bufs()).collect();
    let reads2: std::collections::BTreeSet<_> = g2.iter().flat_map(|s| s.read_bufs()).collect();
    let writes2: std::collections::BTreeSet<_> = g2.iter().flat_map(|s| s.written_bufs()).collect();

    let mut shared: std::collections::BTreeSet<Sym> = std::collections::BTreeSet::new();
    for b in writes1.iter() {
        if reads2.contains(b) || writes2.contains(b) {
            shared.insert(b.clone());
        }
    }
    for b in writes2.iter() {
        if reads1.contains(b) || writes1.contains(b) {
            shared.insert(b.clone());
        }
    }

    // Both halves hoistable out of the loop entirely? Then per-iteration
    // interleaving is irrelevant regardless of subscripts.
    let uses1 = g1.iter().any(|s| s.uses_var(v));
    let uses2 = g2.iter().any(|s| s.uses_var(v));
    if !uses1 || !uses2 {
        return Ok(());
    }

    for buf in shared {
        let ok = accesses_mention_var(g1, &buf, v) && accesses_mention_var(g2, &buf, v);
        if !ok {
            return Err(SchedError::UnsafeFission {
                var: v.clone(),
                reason: format!(
                    "buffer `{buf}` is shared between the two halves but not all of its accesses are \
                     indexed by `{v}`"
                ),
            });
        }
    }
    Ok(())
}

/// Checks that a half that does not use the loop variable may be hoisted out
/// of the loop (executed once instead of once per iteration).
fn check_hoistable(v: &Sym, half: &[Stmt]) -> Result<()> {
    fn contains_reduce(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Reduce { .. } => true,
            Stmt::For { body, .. } => contains_reduce(body),
            Stmt::If { then_body, else_body, .. } => contains_reduce(then_body) || contains_reduce(else_body),
            Stmt::Call { instr, .. } => contains_reduce(&instr.body),
            _ => false,
        })
    }
    if contains_reduce(half) {
        return Err(SchedError::UnsafeFission {
            var: v.clone(),
            reason: "the hoisted half contains reductions, so repeating it is not idempotent".into(),
        });
    }
    let reads: std::collections::BTreeSet<_> = half.iter().flat_map(|s| s.read_bufs()).collect();
    let writes: std::collections::BTreeSet<_> = half.iter().flat_map(|s| s.written_bufs()).collect();
    if let Some(b) = writes.iter().find(|b| reads.contains(*b)) {
        return Err(SchedError::UnsafeFission {
            var: v.clone(),
            reason: format!(
                "the hoisted half both reads and writes `{b}`, so repeating it is not idempotent"
            ),
        });
    }
    Ok(())
}

fn accesses_mention_var(stmts: &[Stmt], buf: &Sym, v: &Sym) -> bool {
    fn expr_accesses_ok(e: &exo_ir::Expr, buf: &Sym, v: &Sym) -> bool {
        use exo_ir::Expr;
        match e {
            Expr::Read { buf: b, idx } => {
                let self_ok = if b == buf { idx.iter().any(|i| i.uses_var(v)) } else { true };
                self_ok && idx.iter().all(|i| expr_accesses_ok(i, buf, v))
            }
            Expr::Binop { lhs, rhs, .. } => expr_accesses_ok(lhs, buf, v) && expr_accesses_ok(rhs, buf, v),
            Expr::Neg(inner) => expr_accesses_ok(inner, buf, v),
            _ => true,
        }
    }
    fn stmt_ok(s: &Stmt, buf: &Sym, v: &Sym) -> bool {
        match s {
            Stmt::Assign { buf: b, idx, rhs } | Stmt::Reduce { buf: b, idx, rhs } => {
                let target_ok = if b == buf { idx.iter().any(|i| i.uses_var(v)) } else { true };
                target_ok && idx.iter().all(|i| expr_accesses_ok(i, buf, v)) && expr_accesses_ok(rhs, buf, v)
            }
            Stmt::For { body, .. } => body.iter().all(|s| stmt_ok(s, buf, v)),
            Stmt::If { then_body, else_body, .. } => {
                then_body.iter().all(|s| stmt_ok(s, buf, v)) && else_body.iter().all(|s| stmt_ok(s, buf, v))
            }
            Stmt::Call { args, .. } => args.iter().all(|a| match a {
                exo_ir::CallArg::Window(w) if w.buf == *buf => w.idx.iter().any(|acc| match acc {
                    exo_ir::WAccess::Point(e) => e.uses_var(v),
                    exo_ir::WAccess::Interval(lo, hi) => lo.uses_var(v) || hi.uses_var(v),
                }),
                _ => true,
            }),
            _ => true,
        }
    }
    stmts.iter().all(|s| stmt_ok(s, buf, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::divide_loop;
    use crate::memory::{bind_expr, expand_dim, lift_alloc, stage_mem};
    use exo_ir::builder::*;
    use exo_ir::interp::{run_proc, ArgValue, TensorData};
    use exo_ir::printer::proc_to_string;
    use exo_ir::{Expr, MemSpace, ScalarType};

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
        let p = divide_loop(&p, "i", 4, "it", "itt", true).unwrap();
        divide_loop(&p, "j", 4, "jt", "jtt", true).unwrap()
    }

    fn staged_kernel() -> Proc {
        let q = stage_mem(&v2_kernel(), "C[_] += _", "C[4 * jt + jtt, 4 * it + itt]", "C_reg").unwrap();
        let q = expand_dim(&q, "C_reg", 4, "itt").unwrap();
        let q = expand_dim(&q, "C_reg", 2, "it").unwrap();
        let q = expand_dim(&q, "C_reg", 12, "jt * 4 + jtt").unwrap();
        lift_alloc(&q, "C_reg", 5).unwrap()
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
    fn fission_hoists_c_loads_and_stores_out_of_k_loop() {
        let p = staged_kernel();
        let q = autofission(&p, "C_reg[_] = _", Anchor::After, 5).unwrap();
        let q = autofission(&q, "C[_] = _", Anchor::Before, 5).unwrap();
        let text = proc_to_string(&q);
        // Three top-level pieces after the allocation: the load nest (no k),
        // the compute nest (with k), the store nest (no k).
        assert!(matches!(&q.body[0], Stmt::Alloc { .. }));
        assert_eq!(q.body.len(), 4, "alloc + load nest + compute nest + store nest:\n{text}");
        let load_uses_k = q.body[1].uses_var(&"k".into());
        let compute_uses_k =
            q.body[2].uses_var(&"k".into()) || matches!(&q.body[2], Stmt::For { var, .. } if var == "k");
        let store_uses_k = q.body[3].uses_var(&"k".into());
        assert!(!load_uses_k, "the C load nest must be hoisted out of k:\n{text}");
        assert!(compute_uses_k, "the compute nest keeps the k loop:\n{text}");
        assert!(!store_uses_k, "the C store nest must be hoisted out of k:\n{text}");
        // Behaviour is preserved.
        assert_eq!(run_kernel(&v2_kernel(), 4), run_kernel(&q, 4));
    }

    #[test]
    fn fission_moves_operand_loads_to_k_loop() {
        let p = staged_kernel();
        let p = autofission(&p, "C_reg[_] = _", Anchor::After, 5).unwrap();
        let p = autofission(&p, "C[_] = _", Anchor::Before, 5).unwrap();
        // Bind the A operand and lift its load to just inside the k loop.
        let p = bind_expr(&p, "Ac[_]", "A_reg").unwrap();
        let p = expand_dim(&p, "A_reg", 4, "itt").unwrap();
        let p = expand_dim(&p, "A_reg", 2, "it").unwrap();
        let p = lift_alloc(&p, "A_reg", 5).unwrap();
        let q = autofission(&p, "A_reg[_] = _", Anchor::After, 4).unwrap();
        let text = proc_to_string(&q);
        // Inside the k loop the first statement block must be the A_reg load
        // nest (loops it, itt only).
        let k_loop = q
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::For { var, body, .. } if var == "k" => Some(body.clone()),
                _ => None,
            })
            .expect("k loop exists");
        assert!(
            k_loop.len() >= 2,
            "k loop should contain the hoisted load nest and the compute nest:\n{text}"
        );
        assert!(!k_loop[0].uses_var(&"jt".into()), "A load nest must not iterate over jt:\n{text}");
        assert!(
            matches!(&k_loop[0], Stmt::For { var, .. } if var == "it"),
            "A load nest must start with the `it` loop:\n{text}"
        );
        assert_eq!(run_kernel(&v2_kernel(), 3), run_kernel(&q, 3));
    }

    #[test]
    fn fission_errors_when_lifting_too_far() {
        let p = staged_kernel();
        assert!(matches!(
            autofission(&p, "C_reg[_] = _", Anchor::After, 12),
            Err(SchedError::LiftTooFar { .. })
        ));
    }

    #[test]
    fn fission_rejects_unsafe_distribution() {
        // acc[0] is written by the first statement and read by the second
        // without the loop variable in its subscript: fissioning the loop
        // would change the interleaving.
        let p = proc("unsafe")
            .size_arg("N")
            .tensor_arg("x", ScalarType::F32, vec![var("N")], MemSpace::Dram)
            .body(vec![
                alloc("acc", ScalarType::F32, vec![int(1)], MemSpace::Dram),
                for_(
                    "i",
                    0,
                    var("N"),
                    vec![
                        assign("acc", vec![int(0)], read("x", vec![var("i")])),
                        assign("x", vec![var("i")], Expr::mul(read("acc", vec![int(0)]), flt(2.0))),
                    ],
                ),
            ])
            .build();
        let path = crate::pattern::find_first(&p, "acc[_] = _").unwrap();
        let err = fission_at(&p, &path, Anchor::After, 1).unwrap_err();
        assert!(matches!(err, SchedError::UnsafeFission { .. }));
    }

    #[test]
    fn fission_rejects_hoisting_reductions() {
        // The first statement does not use the loop variable but is a
        // reduction: hoisting it out would change the result.
        let p = proc("reduce_hoist")
            .size_arg("N")
            .tensor_arg("x", ScalarType::F32, vec![var("N")], MemSpace::Dram)
            .tensor_arg("total", ScalarType::F32, vec![int(1)], MemSpace::Dram)
            .body(vec![for_(
                "i",
                0,
                var("N"),
                vec![
                    reduce("total", vec![int(0)], flt(1.0)),
                    assign("x", vec![var("i")], read("total", vec![int(0)])),
                ],
            )])
            .build();
        let path = crate::pattern::find_first(&p, "total[_] += _").unwrap();
        let err = fission_at(&p, &path, Anchor::After, 1).unwrap_err();
        assert!(matches!(err, SchedError::UnsafeFission { .. }));
    }

    #[test]
    fn gap_at_block_edges_moves_outward_without_splitting() {
        // Splitting before the first statement of the innermost block should
        // not duplicate loops.
        let p = staged_kernel();
        let path = crate::pattern::find_first(&p, "C_reg[_] = _").unwrap();
        let q = fission_at(&p, &path, Anchor::Before, 2).unwrap();
        assert_eq!(run_kernel(&v2_kernel(), 2), run_kernel(&q, 2));
    }
}
