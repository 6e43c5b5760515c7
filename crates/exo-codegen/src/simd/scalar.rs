//! The scalar reference implementation of [`VectorIsa`], and the fully
//! checked reference executor every tier falls back to when the bounds
//! proof declines.
//!
//! One lane, plain `a * b + acc` multiply-then-add — **two** roundings,
//! exactly the arithmetic of the tape / interpreter tiers, so a chain
//! compiled for [`ScalarIsa`] is bit-identical to them (the differential
//! suites assert equality, not a tolerance) — it *is* the portable tier.
//! It is available on every host, which makes it the floor of the runtime
//! ISA selection: `SimdKernel::compile` never fails for a generated
//! kernel, and `EXO_ISA=scalar` pins the simd and native tiers to this
//! implementation — same closure chains, same fusion, reference rounding.
//!
//! [`exec_checked`] is the other half of the reference story, the body of
//! `SuperwordKernel::run_checked`: the one-lane-at-a-time checked loop
//! with identical op order, rounding, and error values to the scalar tape
//! — including the partial stores already performed when an access
//! faults. Every declined proof, whatever unchecked body it declined for,
//! lands here.
//!
//! The impl also holds the scalar body of the strided mover: the element
//! loops every vector body must reproduce.

use crate::error::{CodegenError, Result};
use crate::superword::{SuperwordKernel, VOp};
use crate::tape::{TOp, TensorView};

use super::mover::{Move2d, Walk};
use super::{ExecScratch, IsaKind, VectorIsa};

/// The portable one-lane reference implementation: multiply-then-add
/// rounding under the trait's provided one-lane bodies, available
/// everywhere.
pub(crate) struct ScalarIsa;

impl VectorIsa for ScalarIsa {
    const KIND: IsaKind = IsaKind::Scalar;

    fn available() -> bool {
        true
    }

    fn fma_scalar(acc: f32, a: f32, b: f32) -> f32 {
        // Multiply then add, two roundings: the tape's `Fma` semantics,
        // NOT `mul_add` — bit equality with the portable tiers is the
        // whole point of this implementation.
        a * b + acc
    }

    /// The reference every vector body reproduces bit for bit, and the one
    /// `EXO_ISA=scalar` runs.
    unsafe fn move_2d(walk: Walk, m: &Move2d) {
        match walk {
            Walk::Rows => {
                for r in 0..m.rows {
                    if m.scale == 1.0 {
                        std::ptr::copy_nonoverlapping(m.src.add(r * m.srs), m.dst.add(r * m.drs), m.cols);
                    } else {
                        m.walk(r..r + 1, 0..m.cols);
                    }
                }
            }
            // The source is contiguous *across* destination rows: gather in
            // square tiles so each source run of `XPOSE_TILE` elements is
            // read once, instead of one element per strided pass.
            Walk::Transposed => {
                for c0 in (0..m.cols).step_by(XPOSE_TILE) {
                    let c1 = m.cols.min(c0 + XPOSE_TILE);
                    for r0 in (0..m.rows).step_by(XPOSE_TILE) {
                        let r1 = m.rows.min(r0 + XPOSE_TILE);
                        for c in c0..c1 {
                            for r in r0..r1 {
                                *m.dst.add(r * m.drs + c) = scaled(*m.src.add(c * m.scs + r), m.scale);
                            }
                        }
                    }
                }
            }
            Walk::General => m.walk(0..m.rows, 0..m.cols),
        }
    }
}

/// The fully checked reference executor, taken when the interval proof
/// declines: identical semantics (op order, rounding, and errors) to the
/// scalar tape, one lane at a time inside the packed ops. Shared by every
/// unchecked body's declined-proof path, which must report the same
/// errors — including the stores already performed when an access faults.
///
/// # Errors
///
/// [`CodegenError::OutOfBounds`] on the first access that leaves its
/// buffer; [`CodegenError::BadArguments`] on a store to a read-only
/// tensor parameter.
pub(crate) fn exec_checked(
    kernel: &SuperwordKernel,
    scalars: &[i64],
    tensors: &mut [TensorView<'_>],
    scratch: &mut ExecScratch,
) -> Result<()> {
    scratch.regs.fill(0.0);
    let ExecScratch { regs, loops, bounds } = scratch;
    let load = |tensors: &[TensorView<'_>], buf: u16, idx: i64| -> Result<f32> {
        let slice = tensors[buf as usize].as_slice();
        slice.get(usize::try_from(idx).unwrap_or(usize::MAX)).copied().ok_or(CodegenError::OutOfBounds {
            buf: format!("Arg({buf})"),
            index: idx,
            len: slice.len(),
        })
    };
    fn store(tensors: &mut [TensorView<'_>], buf: u16, idx: i64, value: f32) -> Result<()> {
        match &mut tensors[buf as usize] {
            TensorView::Rw(slice) => {
                let len = slice.len();
                *slice
                    .get_mut(usize::try_from(idx).unwrap_or(usize::MAX))
                    .ok_or(CodegenError::OutOfBounds { buf: format!("Arg({buf})"), index: idx, len })? =
                    value;
                Ok(())
            }
            TensorView::Ro(_) => Err(CodegenError::BadArguments {
                reason: format!("store to read-only tensor parameter {buf}"),
            }),
        }
    }
    let ops = &kernel.ops;
    let mut pc = 0usize;
    while pc < ops.len() {
        match &ops[pc] {
            VOp::VFmaLane { dst, a, b, lanes } => {
                let bval = regs[*b as usize];
                for i in 0..*lanes as usize {
                    regs[*dst as usize + i] =
                        ScalarIsa::fma_scalar(regs[*dst as usize + i], regs[*a as usize + i], bval);
                }
            }
            VOp::VLoad { dst, buf, addr, lanes } => {
                let base = addr.eval(loops, scalars);
                for i in 0..*lanes as usize {
                    regs[*dst as usize + i] = load(tensors, *buf, base + i as i64)?;
                }
            }
            VOp::VStore { src, buf, addr, lanes } => {
                let base = addr.eval(loops, scalars);
                for i in 0..*lanes as usize {
                    store(tensors, *buf, base + i as i64, regs[*src as usize + i])?;
                }
            }
            VOp::VFmaBcast { dst, a, buf, addr, scratch, lanes } => {
                let bval = load(tensors, *buf, addr.eval(loops, scalars))?;
                regs[*scratch as usize] = bval;
                for i in 0..*lanes as usize {
                    regs[*dst as usize + i] =
                        ScalarIsa::fma_scalar(regs[*dst as usize + i], regs[*a as usize + i], bval);
                }
            }
            VOp::LoopBegin { slot, lo, hi, end } => {
                let l = lo.eval(loops, scalars);
                let h = hi.eval(loops, scalars);
                if l >= h {
                    pc = *end as usize;
                    continue;
                }
                loops[*slot as usize] = l;
                bounds[*slot as usize] = h;
            }
            VOp::LoopEnd { slot, begin } => {
                let s = *slot as usize;
                loops[s] += 1;
                if loops[s] < bounds[s] {
                    pc = *begin as usize + 1;
                    continue;
                }
            }
            VOp::Scalar(op) => match op {
                TOp::Fma { dst, a, b } => {
                    regs[*dst as usize] =
                        ScalarIsa::fma_scalar(regs[*dst as usize], regs[*a as usize], regs[*b as usize]);
                }
                TOp::LoadT { dst, buf, addr } => {
                    regs[*dst as usize] = load(tensors, *buf, addr.eval(loops, scalars))?;
                }
                TOp::StoreT { src, buf, addr } => {
                    store(tensors, *buf, addr.eval(loops, scalars), regs[*src as usize])?;
                }
                TOp::ConstF { dst, val } => regs[*dst as usize] = *val,
                TOp::Mov { dst, src } => regs[*dst as usize] = regs[*src as usize],
                TOp::Add { dst, a, b } => {
                    let v = regs[*a as usize] + regs[*b as usize];
                    regs[*dst as usize] = v;
                }
                TOp::Sub { dst, a, b } => {
                    let v = regs[*a as usize] - regs[*b as usize];
                    regs[*dst as usize] = v;
                }
                TOp::Mul { dst, a, b } => {
                    let v = regs[*a as usize] * regs[*b as usize];
                    regs[*dst as usize] = v;
                }
                TOp::Div { dst, a, b } => {
                    let v = regs[*a as usize] / regs[*b as usize];
                    regs[*dst as usize] = v;
                }
                TOp::Neg { dst, src } => regs[*dst as usize] = -regs[*src as usize],
                TOp::AddAssign { dst, src } => {
                    let v = regs[*src as usize];
                    regs[*dst as usize] += v;
                }
                TOp::CastI { dst, value } => regs[*dst as usize] = value.eval(loops, scalars) as f32,
                TOp::Round { reg } => {
                    let r = &mut regs[*reg as usize];
                    *r = exo_ir::types::f16_round(f64::from(*r)) as f32;
                }
                TOp::Zero { base, len } => {
                    regs[*base as usize..(*base + *len) as usize].fill(0.0);
                }
                TOp::LoopBegin { .. } | TOp::LoopEnd { .. } => unreachable!("lifted to VOp level"),
            },
        }
        pc += 1;
    }
    Ok(())
}

/// One moved element: `scale == 1.0` keeps the bits (a `C` tile staged on
/// a later `k`-block, an unscaled pack), anything else is one multiply.
#[inline(always)]
pub(crate) fn scaled(v: f32, scale: f32) -> f32 {
    if scale == 1.0 {
        v
    } else {
        scale * v
    }
}

/// Tile edge of the blocked transposing gather: big enough that a tile
/// spans a cache line of the destination, small enough that `XPOSE_TILE`
/// source columns stay resident while the tile transposes.
const XPOSE_TILE: usize = 8;
