//! Instruction-trace extraction.
//!
//! The performance model (`carmel-sim`) does not execute IR; it executes a
//! *machine-operation trace*: how many vector loads, stores and FMAs the
//! kernel issues per `k` iteration, what it does before and after the `k`
//! loop (loading/storing the `C` register tile), and which buffers the memory
//! operations touch. This module derives that trace from a scheduled
//! procedure.

use std::collections::BTreeMap;

use exo_ir::{Expr, InstrClass, Proc, ScalarType, Stmt, Sym};

use crate::error::{CodegenError, Result};

/// One machine-level operation, possibly repeated.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineOp {
    /// Operation class (load, store, FMA, ...).
    pub class: InstrClass,
    /// Number of vector lanes (1 for scalar operations).
    pub lanes: usize,
    /// Element type.
    pub elem: ScalarType,
    /// Buffer touched by memory operations (`None` for pure register ops).
    pub buffer: Option<Sym>,
    /// Static repetition count (product of enclosing constant loop extents).
    pub count: u64,
}

impl MachineOp {
    /// Bytes moved by this operation if it is a memory operation (per single
    /// execution, not multiplied by `count`).
    pub fn bytes(&self) -> usize {
        match self.class {
            InstrClass::VecLoad | InstrClass::VecStore | InstrClass::Prefetch => {
                self.lanes * self.elem.size_bytes()
            }
            _ => 0,
        }
    }

    /// Floating-point operations performed per execution (an FMA counts as
    /// two flops per lane).
    pub fn flops(&self) -> u64 {
        match self.class {
            InstrClass::VecFma => 2 * self.lanes as u64,
            InstrClass::VecMul | InstrClass::VecAdd => self.lanes as u64,
            _ => 0,
        }
    }
}

/// The machine-operation trace of a micro-kernel: a prologue executed once,
/// a body executed `KC` times, and an epilogue executed once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelTrace {
    /// Name of the procedure the trace was extracted from.
    pub name: String,
    /// Operations before the `k` loop (typically the `C` tile loads).
    pub prologue: Vec<MachineOp>,
    /// Operations inside one iteration of the `k` loop.
    pub per_k: Vec<MachineOp>,
    /// Operations after the `k` loop (typically the `C` tile stores).
    pub epilogue: Vec<MachineOp>,
    /// Number of constant-extent loop levels inside the `k` loop, used by the
    /// core model to charge loop-control overhead.
    pub inner_loop_levels: usize,
}

impl KernelTrace {
    /// Total floating-point operations for a given `KC`.
    pub fn total_flops(&self, kc: u64) -> u64 {
        let once: u64 = self.prologue.iter().chain(&self.epilogue).map(|op| op.flops() * op.count).sum();
        let per: u64 = self.per_k.iter().map(|op| op.flops() * op.count).sum();
        once + per * kc
    }

    /// Sum of `count` for operations of a class in the per-`k` body.
    pub fn per_k_count(&self, class: InstrClass) -> u64 {
        self.per_k.iter().filter(|op| op.class == class).map(|op| op.count).sum()
    }

    /// Sum of `count` for operations of a class in the prologue+epilogue.
    pub fn once_count(&self, class: InstrClass) -> u64 {
        self.prologue.iter().chain(&self.epilogue).filter(|op| op.class == class).map(|op| op.count).sum()
    }
}

/// Extracts the trace of a procedure, treating the first loop whose extent is
/// the size argument named `k_size` (e.g. `"KC"`) as the `k` loop.
///
/// Constant-extent loops are unrolled into the operation counts; statements
/// at `k`-loop level or outside it land in the per-`k` body, prologue or
/// epilogue respectively.
///
/// # Errors
///
/// Returns [`CodegenError::Unsupported`] if no `k` loop is found or the
/// procedure contains constructs the trace extractor cannot account for
/// (e.g. data-dependent `if`).
pub fn extract_trace(p: &Proc, k_size: &str) -> Result<KernelTrace> {
    let mut trace = KernelTrace { name: p.name.clone(), ..KernelTrace::default() };

    // Locate the k loop: first loop whose upper bound mentions `k_size`.
    let k_sym = Sym::new(k_size);
    let mut found_k = false;
    let mut phase_prologue: Vec<MachineOp> = Vec::new();
    let mut phase_epilogue: Vec<MachineOp> = Vec::new();

    for stmt in &p.body {
        if !found_k {
            if let Stmt::For { hi, body, .. } = stmt {
                if hi.uses_var(&k_sym) {
                    found_k = true;
                    let mut levels = 0usize;
                    collect_ops(body, 1, &mut trace.per_k, &mut levels)?;
                    trace.inner_loop_levels = levels;
                    continue;
                }
            }
            let mut levels = 0usize;
            collect_ops(std::slice::from_ref(stmt), 1, &mut phase_prologue, &mut levels)?;
        } else {
            let mut levels = 0usize;
            collect_ops(std::slice::from_ref(stmt), 1, &mut phase_epilogue, &mut levels)?;
        }
    }

    if !found_k {
        return Err(CodegenError::Unsupported {
            backend: "trace",
            what: format!("no loop over the size argument `{k_size}` was found in `{}`", p.name),
        });
    }
    trace.prologue = phase_prologue;
    trace.epilogue = phase_epilogue;
    Ok(trace)
}

fn const_extent(lo: &Expr, hi: &Expr) -> Option<u64> {
    let lo = lo.simplify().as_int()?;
    let hi = hi.simplify().as_int()?;
    Some((hi - lo).max(0) as u64)
}

fn collect_ops(block: &[Stmt], multiplier: u64, out: &mut Vec<MachineOp>, levels: &mut usize) -> Result<()> {
    for stmt in block {
        match stmt {
            Stmt::Comment(_) | Stmt::Alloc { .. } => {}
            Stmt::For { lo, hi, body, var } => {
                let extent = const_extent(lo, hi).ok_or_else(|| CodegenError::NonConstant {
                    what: format!("extent of inner loop `{var}` (only the k loop may be symbolic)"),
                })?;
                *levels += 1;
                collect_ops(body, multiplier * extent, out, levels)?;
            }
            Stmt::Call { instr, args } => {
                let info = instr.instr.as_ref().ok_or_else(|| CodegenError::Unsupported {
                    backend: "trace",
                    what: format!("call to non-instruction `{}`", instr.name),
                })?;
                // Determine the buffer a memory op touches: the DRAM-side
                // argument (src for loads, dst for stores, addr for prefetch).
                let buffer = match info.class {
                    InstrClass::VecLoad => window_buffer(instr, args, "src"),
                    InstrClass::VecStore => window_buffer(instr, args, "dst"),
                    InstrClass::Prefetch => window_buffer(instr, args, "addr"),
                    InstrClass::VecFma => window_buffer(instr, args, "rhs").filter(|_| {
                        // Broadcast FMAs read their scalar operand from memory.
                        matches!(
                            instr.arg(&Sym::new("rhs")).map(|a| &a.kind),
                            Some(exo_ir::ArgKind::Tensor { mem: exo_ir::MemSpace::Dram, .. })
                        )
                    }),
                    _ => None,
                };
                out.push(MachineOp {
                    class: info.class,
                    lanes: info.lanes,
                    elem: info.elem,
                    buffer,
                    count: multiplier,
                });
            }
            Stmt::Assign { buf, rhs, .. } => {
                // Scalar statement: account loads for argument reads, a store
                // for the write, and an ALU op.
                push_scalar_reads(rhs, multiplier, out);
                out.push(MachineOp {
                    class: InstrClass::VecStore,
                    lanes: 1,
                    elem: ScalarType::F32,
                    buffer: Some(buf.clone()),
                    count: multiplier,
                });
            }
            Stmt::Reduce { buf, rhs, .. } => {
                push_scalar_reads(rhs, multiplier, out);
                out.push(MachineOp {
                    class: InstrClass::VecFma,
                    lanes: 1,
                    elem: ScalarType::F32,
                    buffer: Some(buf.clone()),
                    count: multiplier,
                });
            }
            Stmt::If { .. } => {
                return Err(CodegenError::Unsupported {
                    backend: "trace",
                    what: "data-dependent control flow inside a micro-kernel".into(),
                })
            }
        }
    }
    Ok(())
}

fn push_scalar_reads(rhs: &Expr, multiplier: u64, out: &mut Vec<MachineOp>) {
    let mut bufs: Vec<Sym> = Vec::new();
    collect_read_bufs(rhs, &mut bufs);
    for b in bufs {
        out.push(MachineOp {
            class: InstrClass::VecLoad,
            lanes: 1,
            elem: ScalarType::F32,
            buffer: Some(b),
            count: multiplier,
        });
    }
}

fn collect_read_bufs(e: &Expr, out: &mut Vec<Sym>) {
    match e {
        Expr::Read { buf, idx } => {
            out.push(buf.clone());
            for i in idx {
                collect_read_bufs(i, out);
            }
        }
        Expr::Binop { lhs, rhs, .. } => {
            collect_read_bufs(lhs, out);
            collect_read_bufs(rhs, out);
        }
        Expr::Neg(inner) => collect_read_bufs(inner, out),
        _ => {}
    }
}

fn window_buffer(instr: &Proc, args: &[exo_ir::CallArg], param: &str) -> Option<Sym> {
    let pos = instr.args.iter().position(|a| a.name == param)?;
    match args.get(pos) {
        Some(exo_ir::CallArg::Window(w)) => Some(w.buf.clone()),
        _ => None,
    }
}

/// Summarises a trace per class, useful for reports and assertions in tests.
pub fn summarise(trace: &KernelTrace) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (phase, ops) in
        [("prologue", &trace.prologue), ("per_k", &trace.per_k), ("epilogue", &trace.epilogue)]
    {
        for op in ops {
            *out.entry(format!("{phase}.{:?}", op.class)).or_insert(0) += op.count;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::builder::*;
    use exo_ir::MemSpace;
    use exo_isa::neon_f32;

    /// Hand-built scheduled 8x12 kernel shaped like the paper's Fig. 11:
    /// C loads in the prologue, 5 loads + 24 FMAs per k iteration, C stores
    /// in the epilogue.
    fn scheduled_8x12() -> Proc {
        let isa = neon_f32();
        let fma = isa.fma_lane.clone().unwrap();
        let c_load = |jt: i64, it: i64| {
            call(
                &isa.load,
                vec![
                    win("C_reg", vec![pt(int(jt)), pt(int(it)), interval(0, 4)]),
                    win("C", vec![pt(int(jt)), interval(4 * it, 4 * it + 4)]),
                ],
            )
        };
        let mut prologue =
            vec![alloc("C_reg", ScalarType::F32, vec![int(12), int(2), int(4)], MemSpace::Neon)];
        for jt in 0..12 {
            for it in 0..2 {
                prologue.push(c_load(jt, it));
            }
        }
        let mut k_body = vec![
            alloc("A_reg", ScalarType::F32, vec![int(2), int(4)], MemSpace::Neon),
            alloc("B_reg", ScalarType::F32, vec![int(3), int(4)], MemSpace::Neon),
        ];
        for it in 0..2 {
            k_body.push(call(
                &isa.load,
                vec![
                    win("A_reg", vec![pt(int(it)), interval(0, 4)]),
                    win("Ac", vec![pt(var("k")), interval(4 * it, 4 * it + 4)]),
                ],
            ));
        }
        for jt in 0..3 {
            k_body.push(call(
                &isa.load,
                vec![
                    win("B_reg", vec![pt(int(jt)), interval(0, 4)]),
                    win("Bc", vec![pt(var("k")), interval(4 * jt, 4 * jt + 4)]),
                ],
            ));
        }
        k_body.push(for_(
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
                    vec![call(
                        &fma,
                        vec![
                            win(
                                "C_reg",
                                vec![
                                    pt(Expr::add(Expr::mul(int(4), var("jt")), var("jtt"))),
                                    pt(var("it")),
                                    interval(0, 4),
                                ],
                            ),
                            win("A_reg", vec![pt(var("it")), interval(0, 4)]),
                            win("B_reg", vec![pt(var("jt")), interval(0, 4)]),
                            arg_expr(var("jtt")),
                        ],
                    )],
                )],
            )],
        ));
        let mut body = prologue;
        body.push(for_("k", 0, var("KC"), k_body));
        for jt in 0..12 {
            for it in 0..2 {
                body.push(call(
                    &isa.store,
                    vec![
                        win("C", vec![pt(int(jt)), interval(4 * it, 4 * it + 4)]),
                        win("C_reg", vec![pt(int(jt)), pt(int(it)), interval(0, 4)]),
                    ],
                ));
            }
        }
        proc("uk_8x12")
            .size_arg("KC")
            .tensor_arg("Ac", ScalarType::F32, vec![var("KC"), int(8)], MemSpace::Dram)
            .tensor_arg("Bc", ScalarType::F32, vec![var("KC"), int(12)], MemSpace::Dram)
            .tensor_arg("C", ScalarType::F32, vec![int(12), int(8)], MemSpace::Dram)
            .body(body)
            .build()
    }

    #[test]
    fn trace_counts_match_the_paper_kernel() {
        let p = scheduled_8x12();
        let trace = extract_trace(&p, "KC").unwrap();
        // Per k iteration: 2 A loads + 3 B loads, 24 FMAs.
        assert_eq!(trace.per_k_count(InstrClass::VecLoad), 5);
        assert_eq!(trace.per_k_count(InstrClass::VecFma), 24);
        // Prologue/epilogue: 24 C loads + 24 C stores.
        assert_eq!(trace.once_count(InstrClass::VecLoad), 24);
        assert_eq!(trace.once_count(InstrClass::VecStore), 24);
        // Flops: 24 FMAs x 8 flops x KC plus nothing outside the k loop.
        assert_eq!(trace.total_flops(512), 24 * 8 * 512);
        // Memory traffic per iteration: 32 bytes of A, 48 bytes of B.
        let bytes_from = |buffer: &str| -> u64 {
            let loads = trace.per_k.iter().filter(|op| op.class == InstrClass::VecLoad);
            loads
                .filter(|op| op.buffer.as_ref().map(Sym::as_str) == Some(buffer))
                .map(|op| op.count * op.bytes() as u64)
                .sum()
        };
        assert_eq!(bytes_from("Ac"), 32);
        assert_eq!(bytes_from("Bc"), 48);
    }

    #[test]
    fn scalar_statements_are_accounted() {
        let p = exo_isa::ukernel_ref_simple(ScalarType::F32);
        let p = exo_sched_free_partial_eval(&p);
        let trace = extract_trace(&p, "KC").unwrap();
        // 8x12 scalar kernel: 96 scalar FMAs per k iteration.
        assert_eq!(trace.per_k_count(InstrClass::VecFma), 96);
        assert_eq!(trace.total_flops(10), 96 * 2 * 10);
    }

    /// Minimal stand-in for `exo_sched::partial_eval` to avoid a dependency
    /// cycle in tests: substitutes MR=8, NR=12 by hand.
    fn exo_sched_free_partial_eval(p: &Proc) -> Proc {
        use std::collections::BTreeMap;
        let mut map = BTreeMap::new();
        map.insert(Sym::new("MR"), Expr::int(8));
        map.insert(Sym::new("NR"), Expr::int(12));
        let mut out = p.clone();
        out.args.retain(|a| a.name != "MR" && a.name != "NR");
        out.body = out.body.iter().map(|s| s.subst(&map).simplify()).collect();
        out
    }

    #[test]
    fn missing_k_loop_is_reported() {
        let p = proc("flat")
            .tensor_arg("x", ScalarType::F32, vec![int(4)], MemSpace::Dram)
            .body(vec![assign("x", vec![int(0)], flt(1.0))])
            .build();
        assert!(matches!(extract_trace(&p, "KC"), Err(CodegenError::Unsupported { .. })));
    }

    #[test]
    fn summary_lists_phases() {
        let p = scheduled_8x12();
        let trace = extract_trace(&p, "KC").unwrap();
        let s = summarise(&trace);
        assert_eq!(s.get("per_k.VecFma"), Some(&24));
        assert_eq!(s.get("prologue.VecLoad"), Some(&24));
        assert_eq!(s.get("epilogue.VecStore"), Some(&24));
    }
}
