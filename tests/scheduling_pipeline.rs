//! Integration tests for the scheduling pipeline itself: the operator
//! sequence of Section III applied manually (outside the generator), its
//! intermediate snapshots, and the error paths a user hits when a recipe is
//! mis-applied.

use exo_ir::interp::{run_proc, ArgValue, TensorData};
use exo_ir::printer::proc_to_string;
use exo_ir::ScalarType;
use exo_isa::{neon_f32, ukernel_ref_simple};
use exo_sched::{
    autofission, bind_expr, divide_loop, expand_dim, lift_alloc, partial_eval, rename, replace, set_memory,
    set_precision, stage_mem, unroll_loop, Anchor, SchedError,
};
use ukernel_gen::MicroKernelGenerator;

/// Runs a scheduled kernel and the unscheduled reference on the same inputs
/// and compares the output tile.
fn assert_same_behaviour(scheduled: &exo_ir::Proc, mr: usize, nr: usize, kc: usize) {
    let reference = partial_eval(&ukernel_ref_simple(ScalarType::F32), &[mr as i64, nr as i64]).unwrap();
    let a = TensorData::from_fn(ScalarType::F32, vec![kc, mr], |i| ((i * 3 + 2) % 11) as f64 * 0.5 - 2.0);
    let b = TensorData::from_fn(ScalarType::F32, vec![kc, nr], |i| ((i * 7 + 1) % 9) as f64 * 0.25);
    let c = TensorData::from_fn(ScalarType::F32, vec![nr, mr], |i| (i % 5) as f64);
    let mut ref_args = vec![
        ArgValue::Size(kc as i64),
        ArgValue::Tensor(a.clone()),
        ArgValue::Tensor(b.clone()),
        ArgValue::Tensor(c.clone()),
    ];
    let mut sched_args = ref_args.clone();
    run_proc(&reference, &mut ref_args).unwrap();
    run_proc(scheduled, &mut sched_args).unwrap();
    assert_eq!(ref_args[3], sched_args[3], "scheduled kernel diverges from the reference");
}

/// The paper's user code, written out operator by operator (instead of going
/// through `MicroKernelGenerator`), and checked for behaviour preservation at
/// every stage.
#[test]
fn manual_section_iii_recipe_preserves_semantics_at_every_step() {
    let isa = neon_f32();
    let base = ukernel_ref_simple(ScalarType::F32);
    let (mr, nr, kc) = (8usize, 12usize, 9usize);

    let p = rename(&base, "uk8x12");
    let p = partial_eval(&p, &[mr as i64, nr as i64]).unwrap();
    assert_same_behaviour(&p, mr, nr, kc);

    let p = divide_loop(&p, "i", 4, "it", "itt", true).unwrap();
    let p = divide_loop(&p, "j", 4, "jt", "jtt", true).unwrap();
    assert_same_behaviour(&p, mr, nr, kc);

    let p = stage_mem(&p, "C[_] += _", "C[4 * jt + jtt, 4 * it + itt]", "C_reg").unwrap();
    let p = expand_dim(&p, "C_reg", 4, "itt").unwrap();
    let p = expand_dim(&p, "C_reg", 2, "it").unwrap();
    let p = expand_dim(&p, "C_reg", 12, "jt * 4 + jtt").unwrap();
    let p = lift_alloc(&p, "C_reg", 5).unwrap();
    let p = autofission(&p, "C_reg[_] = _", Anchor::After, 5).unwrap();
    let p = autofission(&p, "C[_] = _", Anchor::Before, 5).unwrap();
    assert_same_behaviour(&p, mr, nr, kc);

    let p = replace(&p, "for itt in _: _", &isa.load).unwrap();
    let p = replace(&p, "for itt in _: _", &isa.store).unwrap();
    let p = set_memory(&p, "C_reg", isa.mem).unwrap();
    assert_same_behaviour(&p, mr, nr, kc);

    let p = bind_expr(&p, "Ac[_]", "A_reg").unwrap();
    let p = expand_dim(&p, "A_reg", 4, "itt").unwrap();
    let p = expand_dim(&p, "A_reg", 2, "it").unwrap();
    let p = lift_alloc(&p, "A_reg", 5).unwrap();
    let p = autofission(&p, "A_reg[_] = _", Anchor::After, 4).unwrap();
    let p = replace(&p, "for itt in _: _", &isa.load).unwrap();
    let p = set_memory(&p, "A_reg", isa.mem).unwrap();
    assert_same_behaviour(&p, mr, nr, kc);

    let p = bind_expr(&p, "Bc[_]", "B_reg").unwrap();
    let p = expand_dim(&p, "B_reg", 4, "jtt").unwrap();
    let p = expand_dim(&p, "B_reg", 3, "jt").unwrap();
    let p = lift_alloc(&p, "B_reg", 5).unwrap();
    let p = autofission(&p, "B_reg[_] = _", Anchor::After, 4).unwrap();
    let p = replace(&p, "for jtt in _: _", &isa.load).unwrap();
    let p = set_memory(&p, "B_reg", isa.mem).unwrap();
    assert_same_behaviour(&p, mr, nr, kc);

    // No `reorder_loops(p, 'jtt it')` here, as in `laneq_recipe`: it would
    // move the first `jtt`/`it` nest in program order — the C load — and
    // the register tile must load in the order it stores.
    let fma = isa.fma_lane.clone().unwrap();
    let p = replace(&p, "for itt in _: _", &fma).unwrap();
    assert_same_behaviour(&p, mr, nr, kc);

    let text = proc_to_string(&p);
    assert!(text.contains("neon_vfmla_4xf32_4xf32("));
    assert!(text.contains("C_reg: f32[12, 2, 4] @ Neon"));
    let store_nest = loops_around(&text, "neon_vst_4xf32(C[");
    assert_eq!(store_nest, ["jt", "jtt", "it"], "{text}");
    assert_eq!(loops_around(&text, "neon_vld_4xf32(C_reg["), store_nest, "{text}");
    assert_eq!(loops_around(&text, "neon_vfmla_4xf32_4xf32("), ["k", "jt", "jtt", "it"], "{text}");
}

/// The loop variables enclosing the first line of a printed procedure that
/// contains `needle`, outermost first.
fn loops_around(text: &str, needle: &str) -> Vec<String> {
    let mut open: Vec<(usize, String)> = Vec::new();
    for line in text.lines() {
        let indent = line.len() - line.trim_start().len();
        open.retain(|(depth, _)| *depth < indent);
        if line.contains(needle) {
            return open.into_iter().map(|(_, var)| var).collect();
        }
        if let Some(var) = line.trim_start().strip_prefix("for ").and_then(|rest| rest.split(' ').next()) {
            open.push((indent, var.to_string()));
        }
    }
    panic!("no line contains `{needle}`:\n{text}");
}

#[test]
fn recipe_misuse_is_reported_with_useful_errors() {
    let base = ukernel_ref_simple(ScalarType::F32);
    let p = partial_eval(&base, &[8, 12]).unwrap();

    // Dividing by a factor that does not divide the extent.
    assert!(matches!(divide_loop(&p, "i", 3, "it", "itt", true), Err(SchedError::NotDivisible { .. })));
    // Unrolling the symbolic k loop.
    assert!(matches!(unroll_loop(&p, "k"), Err(SchedError::NonConstantBound { .. })));
    // Staging a window that does not cover the accesses.
    let q = divide_loop(&p, "i", 4, "it", "itt", true).unwrap();
    assert!(matches!(stage_mem(&q, "C[_] += _", "C[it, itt]", "C_reg"), Err(SchedError::OutOfRange { .. })));
    // Replacing a loop that does not match the instruction semantics.
    let isa = neon_f32();
    assert!(matches!(replace(&q, "for it in _: _", &isa.load), Err(SchedError::ReplaceFailed { .. })));
    // Unknown buffers.
    assert!(matches!(set_memory(&q, "ghost", isa.mem), Err(SchedError::UnknownBuffer { .. })));
    assert!(matches!(set_precision(&q, "ghost", ScalarType::F16), Err(SchedError::UnknownBuffer { .. })));
}

#[test]
fn generator_snapshots_are_individually_valid_and_equivalent() {
    let generator = MicroKernelGenerator::new(neon_f32());
    let kernel = generator.generate(8, 12).unwrap();
    for step in &kernel.steps {
        assert!(step.proc.validate().is_ok(), "snapshot `{}` is ill-formed", step.label);
        assert_same_behaviour(&step.proc, 8, 12, 6);
    }
}

#[test]
fn f16_retarget_via_set_precision_matches_section_iii_d() {
    // Section III-D: switching the data type is set_precision on the staged
    // buffers plus the Neon8f memory annotation.
    let generator = MicroKernelGenerator::new(neon_f32());
    let kernel = generator.generate(8, 12).unwrap();
    let p = set_precision(&kernel.proc, "A_reg", ScalarType::F16).unwrap();
    let p = set_memory(&p, "A_reg", exo_ir::MemSpace::Neon8f).unwrap();
    let text = proc_to_string(&p);
    assert!(text.contains("A_reg: f16[2, 4] @ Neon8f"));
}
