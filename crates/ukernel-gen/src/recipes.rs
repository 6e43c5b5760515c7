//! The scheduling recipes: ordered sequences of `exo-sched` operator calls
//! that turn the naive reference micro-kernel into vectorised, register-tiled
//! code.
//!
//! [`laneq_recipe`] is the paper's Section III recipe, step for step
//! (Figs. 6–11) but for the loop reorder of Fig. 10, which it leaves out
//! so that the register tile stays in whole vectors on wider ISAs than the
//! one it is described for. [`broadcast_b_recipe`] and [`broadcast_a_recipe`] are the
//! variants Section III-B sketches for edge cases and non-packed operands,
//! built from the same operators. [`scalar_recipe`] is the unvectorised
//! fallback.
//!
//! Each recipe returns the full list of intermediate procedures (the paper's
//! v1..v6 snapshots) so that examples and the `codegen_steps` harness can
//! print the same progression the paper shows.

use exo_ir::Proc;
use exo_isa::VectorIsa;
use exo_sched::{
    autofission, bind_expr, divide_loop, expand_dim, lift_alloc, partial_eval, rename, replace, set_memory,
    stage_mem, unroll_loop, unroll_loop_nth, Anchor,
};

use crate::error::{step, GenError, Result};

/// A named snapshot of the kernel during scheduling.
#[derive(Debug, Clone)]
pub struct RecipeStep {
    /// Label describing what was just applied (e.g. `"v2: divide loops"`).
    pub label: String,
    /// The procedure after that step.
    pub proc: Proc,
}

fn snap(label: &str, p: &Proc) -> RecipeStep {
    RecipeStep { label: label.to_string(), proc: p.clone() }
}

/// Stages the `C` tile, accessed as `window`, in `C_reg` (Fig. 8). `dims`
/// are the register buffer's `(extent, index)` dimensions, innermost first —
/// the innermost is the vectorised loop and its lanes; `depth` is how many
/// loops the buffer is lifted, and its load and store nests fissioned, out of.
fn stage_c_tile(
    p: &Proc,
    isa: &VectorIsa,
    window: &str,
    dims: &[(usize, &str)],
    depth: usize,
) -> Result<Proc> {
    let vec_loop = format!("for {} in _: _", dims[0].1);
    let mut p = step("stage_mem C", stage_mem(p, "C[_] += _", window, "C_reg"))?;
    for &(extent, index) in dims {
        p = step(&format!("expand_dim C_reg {index}"), expand_dim(&p, "C_reg", extent as i64, index))?;
    }
    let p = step("lift_alloc C_reg", lift_alloc(&p, "C_reg", depth))?;
    let p = step("autofission after C load", autofission(&p, "C_reg[_] = _", Anchor::After, depth))?;
    let p = step("autofission before C store", autofission(&p, "C[_] = _", Anchor::Before, depth))?;
    let p = step("replace C load", replace(&p, &vec_loop, &isa.load))?;
    let p = step("replace C store", replace(&p, &vec_loop, &isa.store))?;
    step("set_memory C_reg", set_memory(&p, "C_reg", isa.mem))
}

/// Stages the packed operand `Ac` or `Bc` (`name` is `"A"` or `"B"`) in
/// `{name}_reg` (Fig. 9). `dims` and `depth` as in [`stage_c_tile`], but the
/// load nest is fissioned out of one loop fewer: it stays inside `k`.
fn stage_operand(
    p: &Proc,
    isa: &VectorIsa,
    name: &str,
    dims: &[(usize, &str)],
    depth: usize,
) -> Result<Proc> {
    let (reg, vec_loop) = (format!("{name}_reg"), format!("for {} in _: _", dims[0].1));
    let mut p = step(&format!("bind_expr {name}c"), bind_expr(p, &format!("{name}c[_]"), &reg))?;
    for &(extent, index) in dims {
        p = step(&format!("expand_dim {reg} {index}"), expand_dim(&p, &reg, extent as i64, index))?;
    }
    let p = step(&format!("lift_alloc {reg}"), lift_alloc(&p, &reg, depth))?;
    let load = format!("{reg}[_] = _");
    let p =
        step(&format!("autofission after {name} load"), autofission(&p, &load, Anchor::After, depth - 1))?;
    let p = step(&format!("replace {name} load"), replace(&p, &vec_loop, &isa.load))?;
    step(&format!("set_memory {reg}"), set_memory(&p, &reg, isa.mem))
}

/// The paper's main recipe (Section III): vectorise both register-tile
/// dimensions and compute with the lane-indexed FMA.
///
/// Requires `mr` and `nr` to be multiples of the vector length and the ISA to
/// provide a lane-indexed FMA.
///
/// # Errors
///
/// Returns [`GenError`] if a scheduling step cannot be applied.
pub fn laneq_recipe(
    base: &Proc,
    isa: &VectorIsa,
    mr: usize,
    nr: usize,
    unroll: bool,
) -> Result<Vec<RecipeStep>> {
    let lanes = isa.lanes;
    let fma = isa.fma_lane.clone().ok_or_else(|| GenError::UnsupportedShape {
        mr,
        nr,
        reason: format!("ISA `{}` has no lane-indexed FMA", isa.name),
    })?;
    let mut steps = Vec::new();

    // v1: specialise the kernel size (Fig. 6).
    let p = rename(base, &format!("uk_{mr}x{nr}"));
    let p = step("partial_eval(MR, NR)", partial_eval(&p, &[mr as i64, nr as i64]))?;
    steps.push(snap("v1: rename + partial_eval", &p));

    // v2: split both loops to the vector length (Fig. 7).
    let p = step("divide_loop i", divide_loop(&p, "i", lanes as i64, "it", "itt", true))?;
    let p = step("divide_loop j", divide_loop(&p, "j", lanes as i64, "jt", "jtt", true))?;
    steps.push(snap("v2: loop structure", &p));

    // v3: stage the C tile into registers (Fig. 8).
    let window = format!("C[{lanes} * jt + jtt, {lanes} * it + itt]");
    let column = format!("jt*{lanes}+jtt");
    let p = stage_c_tile(&p, isa, &window, &[(lanes, "itt"), (mr / lanes, "it"), (nr, &column)], 5)?;
    steps.push(snap("v3: C matrix in registers", &p));

    // v4: stage the Ac and Bc operands (Fig. 9).
    let p = stage_operand(&p, isa, "A", &[(lanes, "itt"), (mr / lanes, "it")], 5)?;
    let p = stage_operand(&p, isa, "B", &[(lanes, "jtt"), (nr / lanes, "jt")], 5)?;
    steps.push(snap("v4: Ac and Bc operands in registers", &p));

    // v5: map the computation onto the lane-indexed FMA (Fig. 10) — without
    // the figure's `reorder_loops(p, 'jtt it')`. That operator moves the
    // first `jtt`/`it` nest in program order, which since v3 is the C-load
    // nest, not the computation; and the computation is better left alone:
    // in `(jt, jtt, it)` order the `mr / lanes` updates of one C column are
    // adjacent, so the superword pass re-rolls them into one whole-column
    // FMA (two 4-lane halves become one 8-lane AVX2 op), where the figure's
    // `(jt, it, jtt)` leaves every FMA `lanes` wide. So the three nests over
    // `C_reg` — load, FMA, store — all keep v3's order, registers and
    // addresses both ascending, and each accumulator is one whole, aligned
    // vector from load to store on any executing width that divides `mr`
    // (`SuperwordKernel::split_accumulator_groups` == 0, held by
    // `tests/tape_exec.rs`).
    let p = step("replace FMA", replace(&p, "for itt in _: _", &fma))?;
    steps.push(snap("v5: GEMM operation on vector FMA", &p));

    // v6: unroll the operand load loops (Fig. 11).
    if unroll {
        let p = step("unroll_loop it (operand loads)", unroll_loop_nth(&p, "it", 1))?;
        let p = step("unroll_loop jt (operand loads)", unroll_loop_nth(&p, "jt", 1))?;
        steps.push(snap("v6: unrolled operand loads", &p));
    }
    Ok(steps)
}

/// Edge-case / portability recipe: vectorise the `i` (row) dimension only and
/// broadcast each `Bc` element from memory (Section III-B and the AVX-512
/// retarget of Section III-C, which has no lane-indexed FMA).
///
/// Requires `mr` to be a multiple of the vector length; `nr` may be anything.
///
/// # Errors
///
/// Returns [`GenError`] if a scheduling step cannot be applied.
pub fn broadcast_b_recipe(
    base: &Proc,
    isa: &VectorIsa,
    mr: usize,
    nr: usize,
    unroll: bool,
) -> Result<Vec<RecipeStep>> {
    let lanes = isa.lanes;
    let mut steps = Vec::new();

    let p = rename(base, &format!("uk_{mr}x{nr}_bcastB"));
    let p = step("partial_eval(MR, NR)", partial_eval(&p, &[mr as i64, nr as i64]))?;
    steps.push(snap("v1: rename + partial_eval", &p));

    let p = step("divide_loop i", divide_loop(&p, "i", lanes as i64, "it", "itt", true))?;
    steps.push(snap("v2: vectorisable row loop", &p));

    let window = format!("C[j, {lanes} * it + itt]");
    let p = stage_c_tile(&p, isa, &window, &[(lanes, "itt"), (mr / lanes, "it"), (nr, "j")], 4)?;
    steps.push(snap("v3: C matrix in registers", &p));

    let p = stage_operand(&p, isa, "A", &[(lanes, "itt"), (mr / lanes, "it")], 4)?;
    steps.push(snap("v4: Ac operand in registers", &p));

    let p = step("replace broadcast FMA", replace(&p, "for itt in _: _", &isa.fma_broadcast))?;
    steps.push(snap("v5: broadcast FMA over Bc", &p));

    if unroll {
        let p = step("unroll_loop it (operand loads)", unroll_loop_nth(&p, "it", 1))?;
        steps.push(snap("v6: unrolled operand loads", &p));
    }
    Ok(steps)
}

/// Edge-case recipe for single-row tiles (`mr == 1`, as in the ResNet50
/// 1x8 and 1x12 kernels the paper's evaluation uses): vectorise the `j`
/// (column) dimension and broadcast the single `Ac` element from memory.
///
/// # Errors
///
/// Returns [`GenError`] if a scheduling step cannot be applied.
pub fn broadcast_a_recipe(
    base: &Proc,
    isa: &VectorIsa,
    mr: usize,
    nr: usize,
    unroll: bool,
) -> Result<Vec<RecipeStep>> {
    let lanes = isa.lanes;
    let mut steps = Vec::new();

    let p = rename(base, &format!("uk_{mr}x{nr}_bcastA"));
    let p = step("partial_eval(MR, NR)", partial_eval(&p, &[mr as i64, nr as i64]))?;
    // Remove the trivial row loop (extent mr == 1).
    let p = step("unroll_loop i", unroll_loop(&p, "i"))?;
    steps.push(snap("v1: rename + partial_eval + collapse row loop", &p));

    let p = step("divide_loop j", divide_loop(&p, "j", lanes as i64, "jt", "jtt", true))?;
    steps.push(snap("v2: vectorisable column loop", &p));

    let window = format!("C[{lanes} * jt + jtt, 0]");
    let p = stage_c_tile(&p, isa, &window, &[(lanes, "jtt"), (nr / lanes, "jt")], 3)?;
    steps.push(snap("v3: C matrix in registers", &p));

    let p = stage_operand(&p, isa, "B", &[(lanes, "jtt"), (nr / lanes, "jt")], 3)?;
    steps.push(snap("v4: Bc operand in registers", &p));

    let p = step("replace broadcast FMA", replace(&p, "for jtt in _: _", &isa.fma_broadcast))?;
    steps.push(snap("v5: broadcast FMA over Ac", &p));

    if unroll {
        let p = step("unroll_loop jt (operand loads)", unroll_loop_nth(&p, "jt", 1))?;
        steps.push(snap("v6: unrolled operand loads", &p));
    }
    Ok(steps)
}

/// The unvectorised fallback: only size specialisation is applied. Used for
/// shapes no vector recipe covers, and as the baseline the other recipes are
/// differentially tested against.
///
/// # Errors
///
/// Returns [`GenError`] if `partial_eval` fails.
pub fn scalar_recipe(base: &Proc, mr: usize, nr: usize) -> Result<Vec<RecipeStep>> {
    let p = rename(base, &format!("uk_{mr}x{nr}_scalar"));
    let p = step("partial_eval(MR, NR)", partial_eval(&p, &[mr as i64, nr as i64]))?;
    Ok(vec![snap("v1: rename + partial_eval", &p)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::printer::proc_to_string;
    use exo_ir::ScalarType;
    use exo_isa::{avx512_f32, neon_f32, ukernel_ref_simple};

    #[test]
    fn laneq_recipe_reproduces_the_papers_8x12_kernel() {
        let base = ukernel_ref_simple(ScalarType::F32);
        let isa = neon_f32();
        let steps = laneq_recipe(&base, &isa, 8, 12, true).unwrap();
        assert_eq!(steps.len(), 6, "v1..v6 snapshots");
        let last = &steps.last().unwrap().proc;
        let text = proc_to_string(last);
        // Registers for C, A and B with the paper's shapes.
        assert!(text.contains("C_reg: f32[12, 2, 4] @ Neon"), "{text}");
        assert!(text.contains("A_reg: f32[2, 4] @ Neon"), "{text}");
        assert!(text.contains("B_reg: f32[3, 4] @ Neon"), "{text}");
        // Unrolled loads: 2 A loads and 3 B loads per k iteration.
        assert_eq!(text.matches("neon_vld_4xf32(A_reg").count(), 2, "{text}");
        assert_eq!(text.matches("neon_vld_4xf32(B_reg").count(), 3, "{text}");
        // Lane-indexed FMA in the innermost position.
        assert!(text.contains("neon_vfmla_4xf32_4xf32("), "{text}");
        assert!(last.validate().is_ok());
    }

    #[test]
    fn laneq_recipe_intermediate_steps_match_figures() {
        let base = ukernel_ref_simple(ScalarType::F32);
        let isa = neon_f32();
        let steps = laneq_recipe(&base, &isa, 8, 12, true).unwrap();
        let v2 = proc_to_string(&steps[1].proc);
        assert!(v2.contains("for jt in seq(0, 3):"));
        assert!(v2.contains("for itt in seq(0, 4):"));
        let v3 = proc_to_string(&steps[2].proc);
        assert!(v3.contains("neon_vld_4xf32(C_reg["));
        assert!(v3.contains("neon_vst_4xf32(C["));
        let v5 = proc_to_string(&steps[4].proc);
        // The C tile still loads in the order it stores (v3's).
        for access in ["neon_vld_4xf32(C_reg[", "neon_vst_4xf32(C["] {
            let nest = format!(
                "    for jt in seq(0, 3):\n        for jtt in seq(0, 4):\n            for it in seq(0, 2):\n                {access}"
            );
            assert!(v5.contains(&nest), "{v5}");
        }
        assert!(
            v5.contains(
                "neon_vfmla_4xf32_4xf32(C_reg[4 * jt + jtt, it, 0:4], A_reg[it, 0:4], B_reg[jt, 0:4], jtt)"
            ),
            "{v5}"
        );
    }

    #[test]
    fn broadcast_b_recipe_works_on_avx512() {
        let base = ukernel_ref_simple(ScalarType::F32);
        let isa = avx512_f32();
        let steps = broadcast_b_recipe(&base, &isa, 16, 6, true).unwrap();
        let text = proc_to_string(&steps.last().unwrap().proc);
        assert!(text.contains("@ AVX512"), "{text}");
        assert!(text.contains("mm512_fmadd_broadcast_ps("), "{text}");
        assert!(text.contains("mm512_loadu_ps("), "{text}");
    }

    #[test]
    fn broadcast_a_recipe_handles_single_row_tiles() {
        let base = ukernel_ref_simple(ScalarType::F32);
        let isa = neon_f32();
        let steps = broadcast_a_recipe(&base, &isa, 1, 12, true).unwrap();
        let text = proc_to_string(&steps.last().unwrap().proc);
        assert!(text.contains("C_reg: f32[3, 4] @ Neon"), "{text}");
        assert!(text.contains("neon_vfmadd_4xf32_1xf32("), "{text}");
    }

    #[test]
    fn laneq_recipe_requires_lane_indexed_fma() {
        let base = ukernel_ref_simple(ScalarType::F32);
        let isa = avx512_f32();
        assert!(matches!(laneq_recipe(&base, &isa, 16, 16, true), Err(GenError::UnsupportedShape { .. })));
    }

    #[test]
    fn scalar_recipe_only_specialises() {
        let base = ukernel_ref_simple(ScalarType::F32);
        let steps = scalar_recipe(&base, 3, 5).unwrap();
        let text = proc_to_string(&steps[0].proc);
        assert!(text.contains("for j in seq(0, 5):"));
        assert!(text.contains("for i in seq(0, 3):"));
    }
}
