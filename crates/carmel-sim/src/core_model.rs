//! Core pipeline model: turns a micro-kernel machine-operation trace into
//! cycles on a Carmel-like core.
//!
//! The model is a steady-state throughput/latency bound, the standard way to
//! reason about GEMM micro-kernels: the `k`-loop body issues a fixed mix of
//! vector FMAs, vector loads/stores and scalar bookkeeping every iteration,
//! and the iteration time is the maximum of
//!
//! * FMA issue (`#FMA / pipes`),
//! * FMA dependency latency (`latency` when every FMA has its own
//!   accumulator, which all kernels in this workspace do),
//! * load-port and store-port pressure,
//! * front-end issue width,
//! * operand streaming bandwidth from wherever the operands reside,
//!
//! plus a fixed loop-control overhead. The `C` register tile loads/stores of
//! the prologue/epilogue are charged once per invocation, with or without the
//! latency-hiding effect of software prefetch (the distinguishing feature of
//! the BLIS library kernel in the paper's Figs. 14–18).

use exo_codegen::KernelTrace;
use exo_ir::InstrClass;

use crate::memory::{CacheHierarchy, CacheLevel};

/// Where each GEMM operand resides when the micro-kernel streams it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Residency {
    /// The packed `Ac` panel (L2 in the BLIS blocking).
    pub a: CacheLevel,
    /// The packed `Bc` panel (L3 in the BLIS blocking).
    pub b: CacheLevel,
    /// The `C` tile (streamed from main memory for large problems).
    pub c: CacheLevel,
}

impl Residency {
    /// Everything in L1 — the paper's solo-mode micro-kernel experiment.
    pub fn solo() -> Self {
        Residency { a: CacheLevel::L1, b: CacheLevel::L1, c: CacheLevel::L1 }
    }
}

/// Cycle breakdown of one micro-kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelPerf {
    /// Cycles of one `k`-loop iteration.
    pub per_k_cycles: f64,
    /// Cycles of the prologue + epilogue (the `C` tile traffic).
    pub once_cycles: f64,
    /// Fixed call overhead.
    pub call_cycles: f64,
    /// Total cycles for the whole invocation.
    pub total_cycles: f64,
    /// Floating-point operations the trace performs in the invocation.
    pub flops: f64,
}

/// Issue/latency/throughput parameters of the modelled core.
#[derive(Debug, Clone, PartialEq)]
pub struct CarmelCore {
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// Number of 128-bit vector FMA pipes.
    pub fma_pipes: f64,
    /// Number of load ports.
    pub load_ports: f64,
    /// Number of store ports.
    pub store_ports: f64,
    /// Front-end issue width (micro-ops per cycle).
    pub issue_width: f64,
    /// FMA result latency in cycles.
    pub fma_latency: f64,
    /// Loop-control overhead per `k` iteration (increment, compare, branch).
    pub loop_overhead: f64,
    /// Fixed overhead per micro-kernel invocation (call, prologue setup).
    pub call_overhead: f64,
    /// Vector register width in bytes.
    pub vector_bytes: usize,
    /// The memory system.
    pub mem: CacheHierarchy,
}

impl Default for CarmelCore {
    fn default() -> Self {
        CarmelCore::carmel()
    }
}

impl CarmelCore {
    /// The NVIDIA Carmel core of the Jetson AGX Xavier at 2.3 GHz.
    pub fn carmel() -> Self {
        CarmelCore {
            freq_ghz: 2.3,
            fma_pipes: 2.0,
            load_ports: 2.0,
            store_ports: 1.0,
            issue_width: 4.0,
            fma_latency: 4.0,
            loop_overhead: 2.0,
            call_overhead: 30.0,
            vector_bytes: 16,
            mem: CacheHierarchy::carmel(),
        }
    }

    /// Single-core FP32 peak in GFLOPS (2 pipes x 4 lanes x 2 flops x f GHz).
    pub fn peak_gflops(&self) -> f64 {
        let lanes = self.vector_bytes as f64 / 4.0;
        self.fma_pipes * lanes * 2.0 * self.freq_ghz
    }

    /// Cycles for one invocation of a micro-kernel described by `trace` with
    /// `kc` iterations of its `k` loop.
    ///
    /// `prefetch_c` models a kernel that software-prefetches the next `C`
    /// tile (the BLIS library kernel); `extra_per_k` adds bookkeeping cycles
    /// per iteration (edge-case handling of monolithic kernels, suboptimal
    /// scheduling of compiler-generated intrinsics code, ...).
    pub fn kernel_cycles(
        &self,
        trace: &KernelTrace,
        kc: usize,
        residency: Residency,
        prefetch_c: bool,
        extra_per_k: f64,
    ) -> KernelPerf {
        let per_k = self.per_k_cycles(trace, residency) + extra_per_k;
        let once = self.once_cycles(trace, residency, prefetch_c);
        let total = self.call_overhead + once + per_k * kc as f64;
        KernelPerf {
            per_k_cycles: per_k,
            once_cycles: once,
            call_cycles: self.call_overhead,
            total_cycles: total,
            flops: trace.total_flops(kc as u64) as f64,
        }
    }

    /// GFLOPS of a kernel run back-to-back in the paper's solo mode, crediting
    /// only `useful_flops` per invocation (monolithic kernels on edge cases
    /// waste part of the tile).
    pub fn solo_gflops(&self, trace: &KernelTrace, kc: usize, useful_flops: f64) -> f64 {
        let perf = self.kernel_cycles(trace, kc, Residency::solo(), false, 0.0);
        crate::gflops(useful_flops, perf.total_cycles, self.freq_ghz)
    }

    fn per_k_cycles(&self, trace: &KernelTrace, residency: Residency) -> f64 {
        let mut fma_units = 0.0f64; // pipe occupancy (one slot per FMA, vector or scalar)
        let mut fma_count = 0.0f64;
        let mut load_units = 0.0f64;
        let mut store_units = 0.0f64;
        let mut total_ops = 0.0f64;
        let mut bw_cycles = 0.0f64;
        for op in &trace.per_k {
            let n = op.count as f64;
            total_ops += n;
            match op.class {
                InstrClass::VecFma | InstrClass::VecMul | InstrClass::VecAdd => {
                    fma_units += n;
                    fma_count += n;
                    // Broadcast FMAs with a memory operand consume a load slot
                    // and memory bandwidth as well.
                    if let Some(buf) = &op.buffer {
                        load_units += n;
                        total_ops += n;
                        let level = self.operand_level(buf.as_str(), residency);
                        bw_cycles += n * op.elem.size_bytes() as f64 / self.mem.bandwidth(level);
                    }
                }
                InstrClass::VecLoad => {
                    load_units += n;
                    let level = op
                        .buffer
                        .as_ref()
                        .map(|b| self.operand_level(b.as_str(), residency))
                        .unwrap_or(CacheLevel::L1);
                    bw_cycles += n * op.bytes() as f64 / self.mem.bandwidth(level);
                }
                InstrClass::VecStore => {
                    store_units += n;
                    let level = op
                        .buffer
                        .as_ref()
                        .map(|b| self.operand_level(b.as_str(), residency))
                        .unwrap_or(CacheLevel::L1);
                    bw_cycles += n * op.bytes() as f64 / self.mem.bandwidth(level);
                }
                InstrClass::Prefetch => {
                    load_units += 0.5 * n;
                }
                InstrClass::VecBroadcast | InstrClass::VecZero | InstrClass::Other => {}
            }
        }
        // Every FMA in the kernels generated here has its own accumulator, so
        // the dependency bound is one full latency per iteration (the next
        // iteration's FMA on the same accumulator must wait for this one).
        let latency_bound = if fma_count > 0.0 { self.fma_latency } else { 0.0 };
        let fma_bound = fma_units / self.fma_pipes;
        let load_bound = load_units / self.load_ports;
        let store_bound = store_units / self.store_ports;
        let issue_bound = total_ops / self.issue_width;
        let bound =
            fma_bound.max(latency_bound).max(load_bound).max(store_bound).max(issue_bound).max(bw_cycles);
        bound + self.loop_overhead
    }

    fn once_cycles(&self, trace: &KernelTrace, residency: Residency, prefetch_c: bool) -> f64 {
        let mut load_units = 0.0f64;
        let mut store_units = 0.0f64;
        let mut ops = 0.0f64;
        let mut bytes = 0.0f64;
        for op in trace.prologue.iter().chain(&trace.epilogue) {
            let n = op.count as f64;
            ops += n;
            match op.class {
                InstrClass::VecLoad => {
                    load_units += n;
                    bytes += n * op.bytes() as f64;
                }
                InstrClass::VecStore => {
                    store_units += n;
                    bytes += n * op.bytes() as f64;
                }
                InstrClass::VecFma | InstrClass::VecMul | InstrClass::VecAdd => {}
                _ => {}
            }
        }
        let issue =
            (load_units / self.load_ports).max(store_units / self.store_ports).max(ops / self.issue_width);
        // Memory cost of touching the C tile. With software prefetch the
        // latency is overlapped with the k loop and only bandwidth remains;
        // without it, the misses are exposed (two outstanding misses at a
        // time on this core).
        let level = residency.c;
        let lines = (bytes / self.mem.line_bytes as f64).ceil();
        let mem_cycles = if prefetch_c || level == CacheLevel::L1 {
            self.mem.stream_cycles(bytes, level)
        } else {
            self.mem.stream_cycles(bytes, level) + lines * self.mem.latency(level) / 2.0
        };
        issue + mem_cycles
    }

    fn operand_level(&self, buffer: &str, residency: Residency) -> CacheLevel {
        // Packed operand naming convention of the GEMM driver: the A panel is
        // `Ac`, the B panel `Bc`, the output tile `C`. Anything else (staged
        // register tiles spilled by a scalar kernel) is assumed L1-resident.
        match buffer {
            "Ac" => residency.a,
            "Bc" => residency.b,
            "C" | "Cb" => residency.c,
            _ => CacheLevel::L1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_codegen::MachineOp;
    use exo_ir::ScalarType;

    /// The steady-state residency of the BLIS blocking for large problems:
    /// `Ac` in L2, `Bc` in L3, `C` in DRAM.
    const STEADY: Residency = Residency { a: CacheLevel::L2, b: CacheLevel::L3, c: CacheLevel::Dram };

    /// The per-k trace of the paper's 8x12 kernel: 2 A loads, 3 B loads,
    /// 24 lane-indexed FMAs; prologue/epilogue: 24 C loads / stores.
    fn trace_8x12() -> KernelTrace {
        let vec = |class, buffer: Option<&str>, count| MachineOp {
            class,
            lanes: 4,
            elem: ScalarType::F32,
            buffer: buffer.map(|b| b.into()),
            count,
        };
        KernelTrace {
            name: "uk_8x12".into(),
            prologue: vec![vec(InstrClass::VecLoad, Some("C"), 24)],
            per_k: vec![
                vec(InstrClass::VecLoad, Some("Ac"), 2),
                vec(InstrClass::VecLoad, Some("Bc"), 3),
                vec(InstrClass::VecFma, None, 24),
            ],
            epilogue: vec![vec(InstrClass::VecStore, Some("C"), 24)],
            inner_loop_levels: 3,
        }
    }

    fn trace_4x4_specialised() -> KernelTrace {
        let vec = |class, buffer: Option<&str>, count| MachineOp {
            class,
            lanes: 4,
            elem: ScalarType::F32,
            buffer: buffer.map(|b| b.into()),
            count,
        };
        KernelTrace {
            name: "uk_4x4".into(),
            prologue: vec![vec(InstrClass::VecLoad, Some("C"), 4)],
            per_k: vec![
                vec(InstrClass::VecLoad, Some("Ac"), 1),
                vec(InstrClass::VecLoad, Some("Bc"), 1),
                vec(InstrClass::VecFma, None, 4),
            ],
            epilogue: vec![vec(InstrClass::VecStore, Some("C"), 4)],
            inner_loop_levels: 2,
        }
    }

    #[test]
    fn peak_matches_the_carmel() {
        let core = CarmelCore::carmel();
        assert!((core.peak_gflops() - 36.8).abs() < 1e-9);
    }

    #[test]
    fn solo_8x12_lands_in_the_papers_range() {
        let core = CarmelCore::carmel();
        let g = core.solo_gflops(&trace_8x12(), 512, 2.0 * 8.0 * 12.0 * 512.0);
        assert!(g > 28.0 && g < 36.0, "8x12 solo GFLOPS = {g}");
        // And below peak.
        assert!(g < core.peak_gflops());
    }

    #[test]
    fn specialised_edge_kernel_beats_monolithic_on_4x4() {
        let core = CarmelCore::carmel();
        let useful = 2.0 * 4.0 * 4.0 * 512.0;
        // Monolithic 8x12 kernel wastes most of the tile.
        let monolithic = core.solo_gflops(&trace_8x12(), 512, useful);
        // Specialised 4x4 kernel only does the useful work.
        let specialised = core.solo_gflops(&trace_4x4_specialised(), 512, useful);
        assert!(
            specialised > 1.5 * monolithic,
            "specialised {specialised} should clearly beat monolithic {monolithic}"
        );
        // But the small kernel cannot reach the 8x12 efficiency (not enough
        // accumulators to cover the FMA latency).
        let full = core.solo_gflops(&trace_8x12(), 512, 2.0 * 8.0 * 12.0 * 512.0);
        assert!(specialised < full);
    }

    #[test]
    fn edge_case_overhead_reduces_throughput() {
        let core = CarmelCore::carmel();
        let base = core.kernel_cycles(&trace_8x12(), 512, Residency::solo(), false, 0.0);
        let with_overhead = core.kernel_cycles(&trace_8x12(), 512, Residency::solo(), false, 1.0);
        assert!(with_overhead.total_cycles > base.total_cycles);
        assert!((with_overhead.per_k_cycles - base.per_k_cycles - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prefetch_helps_when_c_lives_in_dram() {
        let core = CarmelCore::carmel();
        let resid = STEADY;
        let without = core.kernel_cycles(&trace_8x12(), 512, resid, false, 0.0);
        let with = core.kernel_cycles(&trace_8x12(), 512, resid, true, 0.0);
        assert!(with.total_cycles < without.total_cycles);
        // The k loop itself is unaffected; only the C tile cost changes.
        assert!((with.per_k_cycles - without.per_k_cycles).abs() < 1e-9);
        assert!(with.once_cycles < without.once_cycles);
    }

    #[test]
    fn far_operands_cost_more_than_near_operands() {
        let core = CarmelCore::carmel();
        let solo = core.kernel_cycles(&trace_8x12(), 512, Residency::solo(), false, 0.0);
        let steady = core.kernel_cycles(&trace_8x12(), 512, STEADY, false, 0.0);
        assert!(steady.total_cycles >= solo.total_cycles);
    }

    #[test]
    fn flops_accounting_matches_trace() {
        let core = CarmelCore::carmel();
        let perf = core.kernel_cycles(&trace_8x12(), 100, Residency::solo(), false, 0.0);
        assert_eq!(perf.flops, (24 * 8 * 100) as f64);
        assert!(perf.total_cycles > perf.once_cycles);
    }
}
