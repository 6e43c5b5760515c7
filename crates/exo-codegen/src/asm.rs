//! Pseudo-assembly rendering of the `k`-loop body, the analogue of the
//! paper's Fig. 12 (the AArch64 code `gcc-10 -S` produces for the generated
//! kernel).
//!
//! The listing is produced from the kernel's [`KernelTrace`]: loads are
//! paired into `ldp` where possible, FMAs become `fmla` with a simple
//! round-robin register allocation, and the loop control (`add`/`cmp`/`bne`)
//! is appended. It is meant for human inspection and for checking that the
//! generated kernel has the expected instruction mix — it is not meant to be
//! assembled.

use std::fmt::Write as _;

use exo_ir::InstrClass;

use crate::trace::KernelTrace;

/// Renders an AArch64-style listing of the per-`k` body of a trace.
pub fn emit_asm(trace: &KernelTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// pseudo-assembly for the k-loop of `{}`", trace.name);
    let _ = writeln!(out, ".L_kloop_{}:", trace.name);

    // Expand ops into individual instructions.
    let mut loads: Vec<(String, usize)> = Vec::new();
    let mut fmas = 0u64;
    let mut stores = 0u64;
    let mut prefetches = 0u64;
    let mut others = 0u64;
    for op in &trace.per_k {
        match op.class {
            InstrClass::VecLoad => {
                for _ in 0..op.count {
                    loads.push((
                        op.buffer.as_ref().map(|b| b.to_string()).unwrap_or_else(|| "mem".into()),
                        op.bytes(),
                    ));
                }
            }
            InstrClass::VecFma => fmas += op.count,
            InstrClass::VecStore => stores += op.count,
            InstrClass::Prefetch => prefetches += op.count,
            _ => others += op.count,
        }
    }

    // Source registers q0.. for loads, paired into ldp when two consecutive
    // loads read the same buffer.
    let mut qreg = 0usize;
    let mut base_reg = 3usize; // x3, x4, ... address registers per buffer
    let mut current_buffer: Option<String> = None;
    let mut i = 0usize;
    while i < loads.len() {
        let (buf, bytes) = &loads[i];
        if current_buffer.as_deref() != Some(buf) {
            current_buffer = Some(buf.clone());
            base_reg += 1;
        }
        let pair = i + 1 < loads.len() && &loads[i + 1].0 == buf;
        if pair {
            let _ = writeln!(
                out,
                "    ldp     q{}, q{}, [x{}]          // load {} -> q{}, q{}",
                qreg,
                qreg + 1,
                base_reg,
                buf,
                qreg,
                qreg + 1
            );
            let _ = writeln!(out, "    add     x{}, x{}, {}", base_reg, base_reg, bytes * 2);
            qreg += 2;
            i += 2;
        } else {
            let _ = writeln!(
                out,
                "    ldr     q{}, [x{}]              // load {} -> q{}",
                qreg, base_reg, buf, qreg
            );
            let _ = writeln!(out, "    add     x{}, x{}, {}", base_reg, base_reg, bytes);
            qreg += 1;
            i += 1;
        }
    }
    for _ in 0..prefetches {
        let _ = writeln!(out, "    prfm    pldl1keep, [x{}, 256]", base_reg);
    }

    // Accumulator registers start after the source registers. A trace
    // with more loads per iteration than the file has registers (the
    // unvectorised fallback: two scalar loads per tile element) leaves
    // none over, and every FMA is listed on the one after the sources.
    let acc_base = qreg.max(1);
    let total_regs: usize = 32;
    let src_count = qreg.max(1);
    for f in 0..fmas {
        let acc = acc_base + (f as usize % total_regs.saturating_sub(acc_base).max(1));
        let src_a = f as usize % src_count;
        let lane = f as usize % 4;
        let _ = writeln!(
            out,
            "    fmla    v{}.4s, v{}.4s, v{}.s[{}]",
            acc,
            src_a,
            (src_a + 1) % src_count.max(1),
            lane
        );
    }
    for s in 0..stores {
        let _ = writeln!(out, "    str     q{}, [x{}]              // store", s % 32, base_reg + 1);
    }
    for _ in 0..others {
        let _ = writeln!(out, "    mov     w9, w9                  // scalar op");
    }

    let _ = writeln!(out, "    add     x0, x0, 1");
    let _ = writeln!(out, "    cmp     x1, x0");
    let _ = writeln!(out, "    bne     .L_kloop_{}", trace.name);
    out
}

/// Counts instruction mnemonics in a pseudo-assembly listing; handy for tests
/// and for the code-generation report binary.
pub fn count_mnemonics(asm: &str) -> std::collections::BTreeMap<String, usize> {
    let mut out = std::collections::BTreeMap::new();
    for line in asm.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") || trimmed.starts_with('.') || trimmed.is_empty() {
            continue;
        }
        if let Some(mnemonic) = trimmed.split_whitespace().next() {
            *out.entry(mnemonic.to_string()).or_insert(0) += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MachineOp;
    use exo_ir::ScalarType;

    fn paper_like_trace() -> KernelTrace {
        KernelTrace {
            name: "uk_8x12".into(),
            prologue: vec![],
            per_k: vec![
                MachineOp {
                    class: InstrClass::VecLoad,
                    lanes: 4,
                    elem: ScalarType::F32,
                    buffer: Some("Ac".into()),
                    count: 2,
                },
                MachineOp {
                    class: InstrClass::VecLoad,
                    lanes: 4,
                    elem: ScalarType::F32,
                    buffer: Some("Bc".into()),
                    count: 3,
                },
                MachineOp {
                    class: InstrClass::VecFma,
                    lanes: 4,
                    elem: ScalarType::F32,
                    buffer: None,
                    count: 24,
                },
            ],
            epilogue: vec![],
            inner_loop_levels: 3,
        }
    }

    #[test]
    fn listing_has_the_papers_instruction_mix() {
        let asm = emit_asm(&paper_like_trace());
        let counts = count_mnemonics(&asm);
        // 5 vector loads -> 2 ldp (A pair, B pair) + 1 ldr (B remainder).
        assert_eq!(counts.get("ldp"), Some(&2), "listing:\n{asm}");
        assert_eq!(counts.get("ldr"), Some(&1), "listing:\n{asm}");
        assert_eq!(counts.get("fmla"), Some(&24), "listing:\n{asm}");
        assert_eq!(counts.get("bne"), Some(&1));
        assert!(asm.contains(".L_kloop_uk_8x12:"));
    }

    #[test]
    fn stores_and_prefetches_appear() {
        let mut t = paper_like_trace();
        t.per_k.push(MachineOp {
            class: InstrClass::Prefetch,
            lanes: 1,
            elem: ScalarType::F32,
            buffer: Some("C".into()),
            count: 2,
        });
        t.per_k.push(MachineOp {
            class: InstrClass::VecStore,
            lanes: 4,
            elem: ScalarType::F32,
            buffer: Some("C".into()),
            count: 1,
        });
        let asm = emit_asm(&t);
        let counts = count_mnemonics(&asm);
        assert_eq!(counts.get("prfm"), Some(&2));
        assert_eq!(counts.get("str"), Some(&1));
    }

    #[test]
    fn mnemonic_counter_ignores_labels_and_comments() {
        let counts = count_mnemonics(".Lfoo:\n// comment\n    add x0, x0, 1\n");
        assert_eq!(counts.get("add"), Some(&1));
        assert_eq!(counts.len(), 1);
    }
}
