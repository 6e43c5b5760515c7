//! # exo-isa
//!
//! Hardware instruction libraries for the micro-kernel generator, expressed —
//! exactly as in the paper (Fig. 3) — as ordinary procedures whose bodies
//! *define* the semantics of each intrinsic. `exo_sched::replace` matches
//! loop nests against these bodies, so adding a new target is a matter of
//! writing a new library, not extending the compiler.
//!
//! Three targets are provided:
//!
//! * [`neon_f32`] — ARM Neon, 128-bit registers, 4 x f32 lanes (the paper's
//!   main target, the NVIDIA Carmel core),
//! * [`neon_f16`] — ARM Neon with 8 x f16 lanes (Section III-D),
//! * [`avx512_f32`] — Intel AVX-512, 512-bit registers, 16 x f32 lanes
//!   (Section III-C, architectural portability).

#![warn(missing_docs)]

use std::sync::Arc;

use exo_ir::builder::*;
use exo_ir::{Expr, MemSpace, Proc, ScalarType};

pub mod instrs;

pub use instrs::{make_fma_broadcast, make_fma_lane, make_load, make_prefetch, make_store, make_zero};

/// A vector instruction set description sufficient to drive the micro-kernel
/// generator: which register file to use, how wide it is, and the semantic
/// specification of each instruction the generated kernels may use.
#[derive(Debug, Clone)]
pub struct VectorIsa {
    /// Human-readable name, e.g. `"neon-f32"`.
    pub name: String,
    /// Register file used for vector allocations (`set_memory` target).
    pub mem: MemSpace,
    /// Number of elements per vector register.
    pub lanes: usize,
    /// Element type.
    pub elem: ScalarType,
    /// Vector load: `dst[0..lanes] = src[0..lanes]` with `src` in DRAM.
    pub load: Arc<Proc>,
    /// Vector store: `dst[0..lanes] = src[0..lanes]` with `dst` in DRAM.
    pub store: Arc<Proc>,
    /// Lane-indexed FMA `dst += lhs * rhs[l]` (ARM `vfmaq_laneq`); absent on
    /// targets without a lane-indexed form.
    pub fma_lane: Option<Arc<Proc>>,
    /// Broadcast FMA `dst += lhs * scalar` where the scalar is a single DRAM
    /// element (used by the non-packed / edge-case kernels).
    pub fma_broadcast: Arc<Proc>,
    /// Register zeroing (used when the generated kernel owns `beta == 0`).
    pub zero: Arc<Proc>,
    /// Software prefetch hint (semantically a no-op; used by the BLIS-style
    /// baseline and by the prefetch ablation).
    pub prefetch: Arc<Proc>,
}

impl VectorIsa {
    /// Bytes per vector register.
    pub fn vector_bytes(&self) -> usize {
        self.lanes * self.elem.size_bytes()
    }

    /// All instruction specifications of this ISA, for registration with
    /// code generators and the performance model.
    pub fn instructions(&self) -> Vec<Arc<Proc>> {
        let mut out = vec![
            self.load.clone(),
            self.store.clone(),
            self.fma_broadcast.clone(),
            self.zero.clone(),
            self.prefetch.clone(),
        ];
        if let Some(f) = &self.fma_lane {
            out.push(f.clone());
        }
        out
    }

    /// Looks up an instruction of this ISA by name.
    pub fn instruction(&self, name: &str) -> Option<Arc<Proc>> {
        self.instructions().into_iter().find(|i| i.name == name)
    }
}

/// The ARM Neon f32 target used throughout the paper: 128-bit registers,
/// 4 lanes of `f32`, lane-indexed FMA (`vfmaq_laneq_f32`).
pub fn neon_f32() -> VectorIsa {
    let lanes = 4;
    let ty = ScalarType::F32;
    let mem = MemSpace::Neon;
    VectorIsa {
        name: "neon-f32".to_string(),
        mem,
        lanes,
        elem: ty,
        load: make_load("neon_vld_4xf32", "{dst_data} = vld1q_f32(&{src_data});", lanes, ty, mem),
        store: make_store("neon_vst_4xf32", "vst1q_f32(&{dst_data}, {src_data});", lanes, ty, mem),
        fma_lane: Some(make_fma_lane(
            "neon_vfmla_4xf32_4xf32",
            "{dst_data} = vfmaq_laneq_f32({dst_data}, {lhs_data}, {rhs_data}, {l});",
            lanes,
            ty,
            mem,
        )),
        fma_broadcast: make_fma_broadcast(
            "neon_vfmadd_4xf32_1xf32",
            "{dst_data} = vfmaq_n_f32({dst_data}, {lhs_data}, *{rhs_data});",
            lanes,
            ty,
            mem,
        ),
        zero: make_zero("neon_vzero_4xf32", "{dst_data} = vdupq_n_f32(0.0f);", lanes, ty, mem),
        prefetch: make_prefetch("neon_prfm", "__builtin_prefetch(&{addr_data});", ty),
    }
}

/// The ARM Neon f16 target of Section III-D: 128-bit registers holding
/// 8 lanes of `f16` (the paper's `Neon8f` memory).
pub fn neon_f16() -> VectorIsa {
    let lanes = 8;
    let ty = ScalarType::F16;
    let mem = MemSpace::Neon8f;
    VectorIsa {
        name: "neon-f16".to_string(),
        mem,
        lanes,
        elem: ty,
        load: make_load("neon_vld_8xf16", "{dst_data} = vld1q_f16(&{src_data});", lanes, ty, mem),
        store: make_store("neon_vst_8xf16", "vst1q_f16(&{dst_data}, {src_data});", lanes, ty, mem),
        fma_lane: Some(make_fma_lane(
            "neon_vfmla_8xf16_8xf16",
            "{dst_data} = vfmaq_laneq_f16({dst_data}, {lhs_data}, {rhs_data}, {l});",
            lanes,
            ty,
            mem,
        )),
        fma_broadcast: make_fma_broadcast(
            "neon_vfmadd_8xf16_1xf16",
            "{dst_data} = vfmaq_n_f16({dst_data}, {lhs_data}, *{rhs_data});",
            lanes,
            ty,
            mem,
        ),
        zero: make_zero("neon_vzero_8xf16", "{dst_data} = vdupq_n_f16(0.0f16);", lanes, ty, mem),
        prefetch: make_prefetch("neon_prfm_f16", "__builtin_prefetch(&{addr_data});", ty),
    }
}

/// The Intel AVX-512 f32 target of Section III-C: 512-bit registers holding
/// 16 lanes of `f32`. AVX-512 has no lane-indexed FMA, so only the broadcast
/// form is provided — exactly the situation the paper describes when an
/// intrinsic of one ISA has no counterpart in another.
pub fn avx512_f32() -> VectorIsa {
    let lanes = 16;
    let ty = ScalarType::F32;
    let mem = MemSpace::Avx512;
    VectorIsa {
        name: "avx512-f32".to_string(),
        mem,
        lanes,
        elem: ty,
        load: make_load("mm512_loadu_ps", "{dst_data} = _mm512_loadu_ps(&{src_data});", lanes, ty, mem),
        store: make_store("mm512_storeu_ps", "_mm512_storeu_ps(&{dst_data}, {src_data});", lanes, ty, mem),
        fma_lane: None,
        fma_broadcast: make_fma_broadcast(
            "mm512_fmadd_broadcast_ps",
            "{dst_data} = _mm512_fmadd_ps({lhs_data}, _mm512_set1_ps(*{rhs_data}), {dst_data});",
            lanes,
            ty,
            mem,
        ),
        zero: make_zero("mm512_setzero_ps", "{dst_data} = _mm512_setzero_ps();", lanes, ty, mem),
        prefetch: make_prefetch(
            "mm512_prefetch",
            "_mm_prefetch((const char*)&{addr_data}, _MM_HINT_T0);",
            ty,
        ),
    }
}

/// Builds the `ukernel_ref` procedure of the paper's Fig. 4: the general
/// alpha/beta micro-kernel `C = beta*C + alpha * Ac * Bc` with symbolic
/// `MR`, `NR`, `KC`, staged through the temporary `Cb` and `Ba` buffers.
pub fn ukernel_ref_general(ty: ScalarType) -> Proc {
    proc("ukernel_ref")
        .size_arg("MR")
        .size_arg("NR")
        .size_arg("KC")
        .tensor_arg("alpha", ty, vec![int(1)], MemSpace::Dram)
        .tensor_arg("Ac", ty, vec![var("KC"), var("MR")], MemSpace::Dram)
        .tensor_arg("Bc", ty, vec![var("KC"), var("NR")], MemSpace::Dram)
        .tensor_arg("beta", ty, vec![int(1)], MemSpace::Dram)
        .tensor_arg("C", ty, vec![var("NR"), var("MR")], MemSpace::Dram)
        .body(vec![
            comment("Tmp buffers for C * beta and B * alpha"),
            alloc("Cb", ty, vec![var("NR"), var("MR")], MemSpace::Dram),
            alloc("Ba", ty, vec![var("KC"), var("NR")], MemSpace::Dram),
            comment("Cb = C * beta"),
            for_(
                "cj",
                0,
                var("NR"),
                vec![for_(
                    "ci",
                    0,
                    var("MR"),
                    vec![assign(
                        "Cb",
                        vec![var("cj"), var("ci")],
                        Expr::mul(read("C", vec![var("cj"), var("ci")]), read("beta", vec![int(0)])),
                    )],
                )],
            ),
            comment("Ba = Bc * alpha"),
            for_(
                "bk",
                0,
                var("KC"),
                vec![for_(
                    "bj",
                    0,
                    var("NR"),
                    vec![assign(
                        "Ba",
                        vec![var("bk"), var("bj")],
                        Expr::mul(read("Bc", vec![var("bk"), var("bj")]), read("alpha", vec![int(0)])),
                    )],
                )],
            ),
            comment("C += Ac * Bc"),
            for_(
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
                            "Cb",
                            vec![var("j"), var("i")],
                            Expr::mul(
                                read("Ac", vec![var("k"), var("i")]),
                                read("Ba", vec![var("k"), var("j")]),
                            ),
                        )],
                    )],
                )],
            ),
            comment("C = Cb"),
            for_(
                "cj",
                0,
                var("NR"),
                vec![for_(
                    "ci",
                    0,
                    var("MR"),
                    vec![assign("C", vec![var("cj"), var("ci")], read("Cb", vec![var("cj"), var("ci")]))],
                )],
            ),
        ])
        .build()
}

/// Builds the simplified `ukernel_ref` of the paper's Fig. 5 (alpha = beta
/// = 1): `C += Ac * Bc` with `C` stored `[NR, MR]`, `Ac` stored `[KC, MR]`,
/// and `Bc` stored `[KC, NR]` — the starting point of every scheduling
/// recipe in this workspace.
pub fn ukernel_ref_simple(ty: ScalarType) -> Proc {
    proc("ukernel_ref")
        .size_arg("MR")
        .size_arg("NR")
        .size_arg("KC")
        .tensor_arg("Ac", ty, vec![var("KC"), var("MR")], MemSpace::Dram)
        .tensor_arg("Bc", ty, vec![var("KC"), var("NR")], MemSpace::Dram)
        .tensor_arg("C", ty, vec![var("NR"), var("MR")], MemSpace::Dram)
        .body(vec![
            comment("C += Ac * Bc"),
            for_(
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
            ),
        ])
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_ir::interp::{run_proc, ArgValue, TensorData};

    #[test]
    fn all_isas_have_valid_instruction_specs() {
        for isa in [neon_f32(), neon_f16(), avx512_f32()] {
            for instr in isa.instructions() {
                assert!(instr.is_instr(), "{} must carry @instr metadata", instr.name);
                assert_eq!(instr.validate(), Ok(()), "{} must be well-formed", instr.name);
            }
            assert_eq!(isa.vector_bytes(), isa.lanes * isa.elem.size_bytes());
        }
    }

    #[test]
    fn lane_counts_match_register_width() {
        assert_eq!(neon_f32().vector_bytes(), 16);
        assert_eq!(neon_f16().vector_bytes(), 16);
        assert_eq!(avx512_f32().vector_bytes(), 64);
        assert!(avx512_f32().fma_lane.is_none());
        assert!(neon_f32().fma_lane.is_some());
    }

    #[test]
    fn instruction_lookup_by_name() {
        let isa = neon_f32();
        assert!(isa.instruction("neon_vld_4xf32").is_some());
        assert!(isa.instruction("missing").is_none());
    }

    #[test]
    fn load_instruction_semantics_copy_lanes() {
        let isa = neon_f32();
        let src = TensorData::from_fn(ScalarType::F32, vec![4], |i| i as f64 + 1.0);
        let dst = TensorData::zeros(ScalarType::F32, vec![4]);
        let mut args = vec![ArgValue::Tensor(dst), ArgValue::Tensor(src)];
        run_proc(&isa.load, &mut args).unwrap();
        assert_eq!(args[0].as_tensor().unwrap().data, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn fma_lane_semantics_accumulate() {
        let isa = neon_f32();
        let fma = isa.fma_lane.clone().unwrap();
        let dst = TensorData::from_fn(ScalarType::F32, vec![4], |_| 1.0);
        let lhs = TensorData::from_fn(ScalarType::F32, vec![4], |i| i as f64);
        let rhs = TensorData::from_fn(ScalarType::F32, vec![4], |i| 10.0 * (i as f64 + 1.0));
        let mut args =
            vec![ArgValue::Tensor(dst), ArgValue::Tensor(lhs), ArgValue::Tensor(rhs), ArgValue::Index(2)];
        run_proc(&fma, &mut args).unwrap();
        // dst[i] = 1 + i * rhs[2] = 1 + 30 i
        assert_eq!(args[0].as_tensor().unwrap().data, vec![1.0, 31.0, 61.0, 91.0]);
    }

    #[test]
    fn fig5_ukernels_validate_and_agree() {
        let general = ukernel_ref_general(ScalarType::F32);
        let simple = ukernel_ref_simple(ScalarType::F32);
        assert_eq!(general.validate(), Ok(()));
        assert_eq!(simple.validate(), Ok(()));

        let (mr, nr, kc) = (3usize, 2usize, 4usize);
        let a = TensorData::from_fn(ScalarType::F32, vec![kc, mr], |i| (i % 5) as f64 - 1.0);
        let b = TensorData::from_fn(ScalarType::F32, vec![kc, nr], |i| (i % 7) as f64 * 0.5);
        let c0 = TensorData::from_fn(ScalarType::F32, vec![nr, mr], |i| i as f64);
        let one = TensorData::from_fn(ScalarType::F32, vec![1], |_| 1.0);

        let mut args_general = vec![
            ArgValue::Size(mr as i64),
            ArgValue::Size(nr as i64),
            ArgValue::Size(kc as i64),
            ArgValue::Tensor(one.clone()),
            ArgValue::Tensor(a.clone()),
            ArgValue::Tensor(b.clone()),
            ArgValue::Tensor(one.clone()),
            ArgValue::Tensor(c0.clone()),
        ];
        run_proc(&general, &mut args_general).unwrap();

        let mut args_simple = vec![
            ArgValue::Size(mr as i64),
            ArgValue::Size(nr as i64),
            ArgValue::Size(kc as i64),
            ArgValue::Tensor(a),
            ArgValue::Tensor(b),
            ArgValue::Tensor(c0),
        ];
        run_proc(&simple, &mut args_simple).unwrap();

        assert_eq!(args_general[7].as_tensor().unwrap().data, args_simple[5].as_tensor().unwrap().data);
    }

    #[test]
    fn general_kernel_applies_alpha_and_beta() {
        let general = ukernel_ref_general(ScalarType::F32);
        let (mr, nr, kc) = (2usize, 2usize, 1usize);
        let a = TensorData::from_fn(ScalarType::F32, vec![kc, mr], |_| 1.0);
        let b = TensorData::from_fn(ScalarType::F32, vec![kc, nr], |_| 1.0);
        let c0 = TensorData::from_fn(ScalarType::F32, vec![nr, mr], |_| 10.0);
        let alpha = TensorData::from_fn(ScalarType::F32, vec![1], |_| 2.0);
        let beta = TensorData::from_fn(ScalarType::F32, vec![1], |_| 0.5);
        let mut args = vec![
            ArgValue::Size(mr as i64),
            ArgValue::Size(nr as i64),
            ArgValue::Size(kc as i64),
            ArgValue::Tensor(alpha),
            ArgValue::Tensor(a),
            ArgValue::Tensor(b),
            ArgValue::Tensor(beta),
            ArgValue::Tensor(c0),
        ];
        run_proc(&general, &mut args).unwrap();
        // C = 0.5 * 10 + 2 * 1 = 7 everywhere.
        assert!(args[7].as_tensor().unwrap().data.iter().all(|&v| v == 7.0));
    }
}
