//! The ISA-generic chain compiler: one monomorphic closure per superword
//! op, fused tiles for `VFmaLane` and `VFmaBcast` runs, vector intrinsics
//! per lane shape.
//!
//! Everything here is generic over [`VectorIsa`] and monomorphised per
//! implementation at [`build_nodes`] time: the closures a chain holds are
//! compiled *for* one ISA, so the hot path never dispatches over the ISA
//! again. Register-file copies (`VLoad`/`VStore`) are plain memcpys and
//! need no intrinsics; the FMA ops route through the ISA's register-run
//! helpers, which pick vector bodies and scalar tails. No lane width is
//! named here: which runs fuse is the ISA row's narrowest vector shape.

use super::VectorIsa;
use crate::superword::VOp;
use crate::tape::{Addr, TOp};

/// Chain statistics accumulated during compilation.
#[derive(Default)]
pub(super) struct BuildStats {
    pub(super) steps: usize,
    pub(super) fused_tiles: usize,
}

/// One pre-compiled closure: operands resolved at compile time, intrinsics
/// selected for the lane shape. Receives the register file, the tensor
/// base-pointer table, and the loop/scalar tables of the current run.
pub(super) type StepFn = Box<dyn Fn(*mut f32, &[*mut f32], &[i64], &[i64]) + Send + Sync>;

/// A node of the compiled program: a straight-line step or a native loop
/// over a nested chain.
pub(super) enum Node {
    /// One pre-compiled op.
    Step(StepFn),
    /// A dynamic loop: evaluate bounds, run the body chain per iteration
    /// with the counter written into its slot.
    Loop { slot: usize, lo: Addr, hi: Addr, body: Vec<Node> },
    /// A dynamic loop whose whole body fused into one closure (the laneq
    /// micro-kernel's `KC` loop): the counter drives the step directly,
    /// no per-iteration chain walk.
    LoopStep { slot: usize, lo: Addr, hi: Addr, step: StepFn },
}

/// Runs a compiled chain: steps call straight through their closure, loops
/// drive native counters over their body chain.
///
/// # Safety
///
/// As `SimdKernel::exec_unchecked` — every closure assumes the proofs
/// hold for the pointers and tables it receives.
pub(super) unsafe fn run_nodes(
    nodes: &[Node],
    regs: *mut f32,
    tens: &[*mut f32],
    loops: &mut [i64],
    scalars: &[i64],
) {
    for node in nodes {
        match node {
            Node::Step(f) => f(regs, tens, loops, scalars),
            Node::Loop { slot, lo, hi, body } => {
                let l = lo.eval(loops, scalars);
                let h = hi.eval(loops, scalars);
                let mut v = l;
                while v < h {
                    *loops.get_unchecked_mut(*slot) = v;
                    run_nodes(body, regs, tens, loops, scalars);
                    v += 1;
                }
            }
            Node::LoopStep { slot, lo, hi, step } => {
                let l = lo.eval(loops, scalars);
                let h = hi.eval(loops, scalars);
                let mut v = l;
                while v < h {
                    *loops.get_unchecked_mut(*slot) = v;
                    step(regs, tens, loops, scalars);
                    v += 1;
                }
            }
        }
    }
}

/// A register-file copy closure (`VLoad`/`VStore` are memcpys between
/// a tensor and a lane-aligned register run; `copy_nonoverlapping`
/// lowers to vector moves). `LOAD` selects the direction.
fn copy_step<const LOAD: bool>(reg: usize, buf: usize, lanes: usize, addr: &Addr) -> StepFn {
    /// The copy at element `idx` of tensor `buf`.
    ///
    /// # Safety
    ///
    /// The interval proof admitted `idx..idx + lanes` in `buf`, and the
    /// construction proof `buf` and `reg..reg + lanes`.
    #[inline(always)]
    unsafe fn copy<const LOAD: bool>(
        regs: *mut f32,
        tens: &[*mut f32],
        reg: usize,
        buf: usize,
        idx: usize,
        lanes: usize,
    ) {
        // SAFETY: the construction proof put `buf` in the tensor table.
        let t = unsafe { *tens.get_unchecked(buf) }.wrapping_add(idx);
        let r = regs.wrapping_add(reg);
        if LOAD {
            // SAFETY: both runs are `lanes` long and in bounds (the contract), one
            // in a tensor, one in the register file.
            unsafe { std::ptr::copy_nonoverlapping(t as *const f32, r, lanes) };
        } else {
            // SAFETY: as the load.
            unsafe { std::ptr::copy_nonoverlapping(r as *const f32, t, lanes) };
        }
    }
    // Specialise the hot single-loop-term address so the chain never
    // touches the general evaluator on the packed-operand walk.
    if let Addr::Loop { base, slot, coeff } = *addr {
        let slot = slot as usize;
        Box::new(move |regs, tens, loops, _scalars| {
            // SAFETY: the construction proof put `slot` in the loop table.
            let k = unsafe { *loops.get_unchecked(slot) };
            // SAFETY: the proofs admitted this address (`copy`).
            unsafe { copy::<LOAD>(regs, tens, reg, buf, (base + coeff * k) as usize, lanes) };
        })
    } else {
        let addr = addr.clone();
        Box::new(move |regs, tens, loops, scalars| {
            // SAFETY: as above, at the general address.
            unsafe { copy::<LOAD>(regs, tens, reg, buf, addr.eval(loops, scalars) as usize, lanes) };
        })
    }
}

/// One `VFmaLane` op as a closure: vector form unless the op's lane order
/// is semantic ([`VOp::fma_in_order`]).
fn fma_lane_step<I: VectorIsa>(in_order: bool, dst: usize, a: usize, b: usize, lanes: usize) -> StepFn {
    Box::new(move |regs, _tens, _loops, _scalars| {
        // SAFETY: the construction proof keeps `b` in the register file.
        let bval = unsafe { *regs.wrapping_add(b) };
        if in_order {
            // SAFETY: the construction proof keeps both runs in the register file,
            // and `compile_for` checked that the host runs `I`.
            unsafe { I::fma_run_inorder(regs, dst, a, bval, lanes) };
        } else {
            // SAFETY: as above; the lane order is free, so the runs are disjoint or
            // identical, as `fma_run` asks.
            unsafe { I::fma_run(regs, dst, a, bval, lanes) };
        }
    })
}

/// One `VFmaBcast` op: broadcast one tensor element, write the scratch
/// register (the scalar sequence leaves it written), FMA the run.
fn fma_bcast_step<I: VectorIsa>(
    in_order: bool,
    dst: usize,
    a: usize,
    buf: usize,
    addr: &Addr,
    scratch: usize,
    lanes: usize,
) -> StepFn {
    let addr = addr.clone();
    Box::new(move |regs, tens, loops, scalars| {
        let idx = addr.eval(loops, scalars) as usize;
        // SAFETY: the construction proof put `buf` in the tensor table.
        let tensor = unsafe { *tens.get_unchecked(buf) };
        // SAFETY: the interval proof admitted `idx` in `buf`.
        let bval = unsafe { *tensor.wrapping_add(idx) };
        // SAFETY: the construction proof keeps `scratch` in the register file.
        unsafe { *regs.wrapping_add(scratch) = bval };
        if in_order {
            // SAFETY: the construction proof keeps the register runs in the file,
            // and `compile_for` checked the ISA.
            unsafe { I::fma_run_inorder(regs, dst, a, bval, lanes) };
        } else {
            // SAFETY: as above, the runs disjoint or identical as `fma_run` asks.
            unsafe { I::fma_run(regs, dst, a, bval, lanes) };
        }
    })
}

/// `reg[dst] = f(reg[a], reg[b])`.
fn binary_step(
    dst: usize,
    a: usize,
    b: usize,
    f: impl Fn(f32, f32) -> f32 + Send + Sync + 'static,
) -> StepFn {
    Box::new(move |regs, _t, _l, _s| {
        // SAFETY: `a` is in bounds (construction proof), and the file is initialised.
        let x = unsafe { *regs.wrapping_add(a) };
        // SAFETY: as `a`.
        let y = unsafe { *regs.wrapping_add(b) };
        // SAFETY: `dst` is in bounds (construction proof).
        unsafe { *regs.wrapping_add(dst) = f(x, y) };
    })
}

/// `reg[dst] = f(reg[src])`.
fn unary_step(dst: usize, src: usize, f: impl Fn(f32) -> f32 + Send + Sync + 'static) -> StepFn {
    Box::new(move |regs, _t, _l, _s| {
        // SAFETY: `src` is in bounds (construction proof), and the file is initialised.
        let x = unsafe { *regs.wrapping_add(src) };
        // SAFETY: `dst` is in bounds (construction proof).
        unsafe { *regs.wrapping_add(dst) = f(x) };
    })
}

/// A scalar tape op as a closure. Scalar `Fma` is a one-lane run of the
/// ISA's multiply-add, one rounding like every other lane.
fn scalar_step<I: VectorIsa>(op: &TOp) -> Option<StepFn> {
    Some(match *op {
        TOp::ConstF { dst, val } => {
            let dst = dst as usize;
            // SAFETY: `dst` is in bounds (construction proof).
            Box::new(move |regs, _t, _l, _s| unsafe { *regs.wrapping_add(dst) = val })
        }
        TOp::LoadT { dst, buf, ref addr } => {
            let (dst, buf, addr) = (dst as usize, buf as usize, addr.clone());
            Box::new(move |regs, tens, loops, scalars| {
                let idx = addr.eval(loops, scalars) as usize;
                // SAFETY: the construction proof put `buf` in the tensor table.
                let tensor = unsafe { *tens.get_unchecked(buf) };
                // SAFETY: the interval proof admitted `idx` in `buf`.
                let v = unsafe { *tensor.wrapping_add(idx) };
                // SAFETY: `dst` is in bounds (construction proof).
                unsafe { *regs.wrapping_add(dst) = v };
            })
        }
        TOp::StoreT { src, buf, ref addr } => {
            let (src, buf, addr) = (src as usize, buf as usize, addr.clone());
            Box::new(move |regs, tens, loops, scalars| {
                let idx = addr.eval(loops, scalars) as usize;
                // SAFETY: `src` is in bounds (construction proof), and the file is initialised.
                let v = unsafe { *regs.wrapping_add(src) };
                // SAFETY: the construction proof put `buf` in the tensor table.
                let tensor = unsafe { *tens.get_unchecked(buf) };
                // SAFETY: the interval proof admitted `idx` in `buf`.
                unsafe { *tensor.wrapping_add(idx) = v };
            })
        }
        TOp::Mov { dst, src } => unary_step(dst as usize, src as usize, |x| x),
        TOp::Neg { dst, src } => unary_step(dst as usize, src as usize, |x| -x),
        TOp::Round { reg } => {
            unary_step(reg as usize, reg as usize, |x| exo_ir::types::f16_round(f64::from(x)) as f32)
        }
        TOp::Add { dst, a, b } => binary_step(dst as usize, a as usize, b as usize, |x, y| x + y),
        TOp::Sub { dst, a, b } => binary_step(dst as usize, a as usize, b as usize, |x, y| x - y),
        TOp::Mul { dst, a, b } => binary_step(dst as usize, a as usize, b as usize, |x, y| x * y),
        TOp::Div { dst, a, b } => binary_step(dst as usize, a as usize, b as usize, |x, y| x / y),
        TOp::AddAssign { dst, src } => binary_step(dst as usize, dst as usize, src as usize, |x, y| x + y),
        TOp::Fma { dst, a, b } => {
            let (dst, a, b) = (dst as usize, a as usize, b as usize);
            Box::new(move |regs, _t, _l, _s| {
                // SAFETY: `b` is in bounds (construction proof), and the file is initialised.
                let bval = unsafe { *regs.wrapping_add(b) };
                // SAFETY: the construction proof keeps `dst` and `a` in the file, and
                // `compile_for` checked that the host runs `I`.
                unsafe { I::fma_run_inorder(regs, dst, a, bval, 1) };
            })
        }
        TOp::CastI { dst, ref value } => {
            let (dst, value) = (dst as usize, value.clone());
            // SAFETY: `dst` is in bounds (construction proof); `eval` reads only the loop and
            // scalar slots the construction proof admitted.
            Box::new(move |regs, _tens, loops, scalars| unsafe {
                *regs.wrapping_add(dst) = value.eval(loops, scalars) as f32;
            })
        }
        TOp::Zero { base, len } => {
            let (base, len) = (base as usize, len as usize);
            // SAFETY: `base..base + len` is in the file (construction proof).
            Box::new(move |regs, _t, _l, _s| unsafe {
                std::ptr::write_bytes(regs.wrapping_add(base), 0, len)
            })
        }
        // Loop markers are lifted to VOp level by the superword pass;
        // one surviving here means the source was not validated.
        TOp::LoopBegin { .. } | TOp::LoopEnd { .. } => return None,
    })
}

/// Where the rows of a fused tile take their broadcast value from, one
/// value per row, ascending by one from the first row's.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Broadcast {
    /// Staged `B` registers (`VFmaLane`, the laneq kernel).
    Regs(usize),
    /// `B` elements read from a tensor at a loop address (`VFmaBcast`, the
    /// broadcast-B kernel), each row writing the shared scratch register.
    Tensor { buf: usize, base: i64, slot: usize, coeff: i64, scratch: usize },
}

impl Broadcast {
    /// The source of the row `g` rows below this one.
    fn shifted(self, g: usize) -> Broadcast {
        match self {
            Broadcast::Regs(b) => Broadcast::Regs(b + g),
            Broadcast::Tensor { buf, base, slot, coeff, scratch } => {
                Broadcast::Tensor { buf, base: base + g as i64, slot, coeff, scratch }
            }
        }
    }
}

/// Pre-resolved parameters of a fused accumulator tile.
#[derive(Clone, Copy)]
struct Tile {
    dst: usize,
    a: usize,
    b: Broadcast,
    lanes: usize,
    count: usize,
}

/// One accumulator row of a candidate tile: `(dst, a, lanes, broadcast)`
/// of a packed FMA whose broadcast a tile can step through — a register,
/// or a tensor element at a single-loop-term address.
fn tile_row(op: &VOp) -> Option<(usize, usize, usize, Broadcast)> {
    match *op {
        VOp::VFmaLane { dst, a, b, lanes } => {
            Some((dst as usize, a as usize, lanes as usize, Broadcast::Regs(b as usize)))
        }
        VOp::VFmaBcast { dst, a, buf, addr: Addr::Loop { base, slot, coeff }, scratch, lanes } => {
            let (buf, slot, scratch) = (buf as usize, slot as usize, scratch as usize);
            Some((
                dst as usize,
                a as usize,
                lanes as usize,
                Broadcast::Tensor { buf, base, slot, coeff, scratch },
            ))
        }
        _ => None,
    }
}

/// Recognises a run of packed FMAs starting at `ops[i]` that forms one
/// tile: identical lane count, a whole number of the ISA's narrowest
/// vector shape (`fma_tile` walks the run widest shape first and has no
/// scalar tail), one shared operand run, broadcast sources ascending by
/// one (registers, or the addresses of one tensor under one loop term,
/// sharing one scratch register), accumulators ascending by `lanes`.
/// Returns the tile and how many ops it spans.
fn match_tile<I: VectorIsa>(ops: &[VOp], i: usize) -> Option<(Tile, usize)> {
    let (dst, a, lanes, b) = tile_row(ops.get(i)?)?;
    if !lanes.is_multiple_of(I::KIND.row().narrowest_lanes()) {
        return None;
    }
    let mut count = 1usize;
    while ops.get(i + count).and_then(tile_row) == Some((dst + count * lanes, a, lanes, b.shifted(count))) {
        count += 1;
    }
    let tile = Tile { dst, a, b, lanes, count };
    let span = dst..dst + count * lanes;
    let overlaps_span = |start: usize, len: usize| start < span.end && span.start < start + len;
    // Hoisting the operand load across the tile requires the operand
    // run (and it alone — broadcast registers are re-read per row) to
    // stay disjoint from every accumulator row written before it is
    // read again; the scratch register a broadcast-B tile writes once,
    // at its end, must be read by no row.
    let scratch_read = match b {
        Broadcast::Tensor { scratch, .. } => overlaps_span(scratch, 1) || (a..a + lanes).contains(&scratch),
        Broadcast::Regs(_) => false,
    };
    if count < 2 || overlaps_span(a, lanes) || scratch_read {
        return None;
    }
    Some((tile, count))
}

/// One pre-resolved operand-stage `VLoad` of a fused micro-iteration:
/// the address is the hot single-loop-term shape, fully unpacked.
#[derive(Clone, Copy)]
struct StageLoad {
    reg: usize,
    buf: usize,
    lanes: usize,
    base: i64,
    slot: usize,
    coeff: i64,
}

/// The operand-stage loads of a fused micro-iteration, in order.
///
/// # Safety
///
/// As `SimdKernel::exec_unchecked`.
#[inline(always)]
unsafe fn stage(loads: &[StageLoad], regs: *mut f32, tens: &[*mut f32], loops: &[i64]) {
    for ld in loads {
        let idx = (ld.base + ld.coeff * *loops.get_unchecked(ld.slot)) as usize;
        let src = (*tens.get_unchecked(ld.buf)).add(idx);
        std::ptr::copy_nonoverlapping(src as *const f32, regs.add(ld.reg), ld.lanes);
    }
}

/// The monomorphic fused micro-iteration: `N` stage loads (none for a
/// lone tile) then the tile, one indirect call per `k` iteration,
/// everything unrolled; one closure body per broadcast source, so the
/// laneq iteration carries no branch for the broadcast-B one.
fn fused_iteration<I: VectorIsa, const N: usize>(loads: [StageLoad; N], tile: Tile) -> StepFn {
    let Tile { dst, a, b, lanes, count } = tile;
    match b {
        Broadcast::Regs(b0) => Box::new(move |regs, tens, loops, _scalars| {
            // SAFETY: the construction proof covers the staged registers, the
            // interval proof the stage loads.
            unsafe { stage(&loads, regs, tens, loops) };
            // SAFETY: the construction proof covers the tile's runs and
            // `b0..b0 + count`, and `match_tile` the run shape `fma_tile` asks for.
            unsafe { I::fma_tile(regs, dst, a, regs.wrapping_add(b0), lanes, count) };
        }),
        Broadcast::Tensor { buf, base, slot, coeff, scratch } => {
            Box::new(move |regs, tens, loops, _scalars| {
                // SAFETY: as the register-broadcast tile's.
                unsafe { stage(&loads, regs, tens, loops) };
                // SAFETY: the construction proof put `slot` in the loop table.
                let k = unsafe { *loops.get_unchecked(slot) };
                // SAFETY: the construction proof put `buf` in the tensor table.
                let tensor = unsafe { *tens.get_unchecked(buf) };
                let b = tensor.wrapping_add((base + coeff * k) as usize);
                // SAFETY: as the register-broadcast tile's; `b.add(g)` for `g <
                // count` is the address of row `g`'s own op, which the proofs the
                // chain runs under cover.
                unsafe { I::fma_tile(regs, dst, a, b, lanes, count) };
                // Each row of the run wrote the scratch register; the last
                // write is the one the scalar sequence leaves behind.
                // SAFETY: row `count - 1`'s address (above).
                let last = unsafe { *b.wrapping_add(count - 1) };
                // SAFETY: `scratch` is in bounds (construction proof).
                unsafe { *regs.wrapping_add(scratch) = last };
            })
        }
    }
}

/// Fuses the dominant inner-loop body of a micro-kernel — operand stage
/// loads followed by one accumulator tile, laneq or broadcast-B, or the
/// tile alone — into a single closure, so one `k` iteration costs one
/// indirect call instead of one per op. Op order inside the closure is
/// exactly the tape's: every load in sequence, then the tile rows
/// ascending. Returns the closure and how many ops it consumed.
fn try_fuse_iteration<I: VectorIsa>(ops: &[VOp], i: usize) -> Option<(StepFn, usize)> {
    let mut loads = Vec::new();
    let mut j = i;
    while let Some(VOp::VLoad { dst, buf, addr, lanes }) = ops.get(j) {
        // Only the hot loop-term address shape fuses; anything else
        // keeps its own specialised closure.
        let Addr::Loop { base, slot, coeff } = *addr else { return None };
        loads.push(StageLoad {
            reg: *dst as usize,
            buf: *buf as usize,
            lanes: *lanes as usize,
            base,
            slot: slot as usize,
            coeff,
        });
        j += 1;
    }
    let (tile, tile_ops) = match_tile::<I>(ops, j)?;
    let used = (j - i) + tile_ops;
    let step = match *loads.as_slice() {
        [] => fused_iteration::<I, 0>([], tile),
        [l0] => fused_iteration::<I, 1>([l0], tile),
        [l0, l1] => fused_iteration::<I, 2>([l0, l1], tile),
        [l0, l1, l2] => fused_iteration::<I, 3>([l0, l1, l2], tile),
        _ => return None,
    };
    Some((step, used))
}

/// Compiles a superword op slice into a node chain for one ISA, recursing
/// into loop bodies. Returns `None` only for structurally invalid input
/// (which `to_superword` never produces).
pub(super) fn build_nodes<I: VectorIsa>(ops: &[VOp], stats: &mut BuildStats) -> Option<Vec<Node>> {
    debug_assert!(I::available(), "chain compiled for {} on a host that cannot run it", I::KIND);
    build_nodes_at::<I>(ops, 0, stats)
}

/// The recursion worker: `base` is the index of `ops[0]` in the
/// original op vec, because every `LoopBegin`'s `end` jump target is
/// absolute in that vec and must be rebased before indexing the
/// subslice (nested dynamic loops would otherwise miss their
/// `LoopEnd` by the accumulated offset and decline compilation).
fn build_nodes_at<I: VectorIsa>(ops: &[VOp], base: usize, stats: &mut BuildStats) -> Option<Vec<Node>> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < ops.len() {
        if let Some((step, used)) = try_fuse_iteration::<I>(ops, i) {
            stats.fused_tiles += 1;
            stats.steps += 1;
            out.push(Node::Step(step));
            i += used;
            continue;
        }
        match &ops[i] {
            VOp::LoopBegin { slot, lo, hi, end } => {
                let end = (*end as usize).checked_sub(base)?;
                // Body spans (i + 1)..(end - 1); ops[end - 1] is the
                // matching LoopEnd.
                if end < 2 || end > ops.len() || !matches!(ops[end - 1], VOp::LoopEnd { .. }) {
                    return None;
                }
                let mut body = build_nodes_at::<I>(&ops[i + 1..end - 1], base + i + 1, stats)?;
                let (slot, lo, hi) = (*slot as usize, lo.clone(), hi.clone());
                if body.len() == 1 && matches!(body[0], Node::Step(_)) {
                    let Some(Node::Step(step)) = body.pop() else { unreachable!() };
                    out.push(Node::LoopStep { slot, lo, hi, step });
                } else {
                    out.push(Node::Loop { slot, lo, hi, body });
                }
                i = end;
            }
            VOp::LoopEnd { .. } => return None,
            op @ VOp::VFmaLane { dst, a, b, lanes } => {
                stats.steps += 1;
                out.push(Node::Step(fma_lane_step::<I>(
                    op.fma_in_order(),
                    *dst as usize,
                    *a as usize,
                    *b as usize,
                    *lanes as usize,
                )));
                i += 1;
            }
            VOp::VLoad { dst, buf, addr, lanes } => {
                stats.steps += 1;
                out.push(Node::Step(copy_step::<true>(*dst as usize, *buf as usize, *lanes as usize, addr)));
                i += 1;
            }
            VOp::VStore { src, buf, addr, lanes } => {
                stats.steps += 1;
                out.push(Node::Step(copy_step::<false>(*src as usize, *buf as usize, *lanes as usize, addr)));
                i += 1;
            }
            op @ VOp::VFmaBcast { dst, a, buf, addr, scratch, lanes } => {
                stats.steps += 1;
                out.push(Node::Step(fma_bcast_step::<I>(
                    op.fma_in_order(),
                    *dst as usize,
                    *a as usize,
                    *buf as usize,
                    addr,
                    *scratch as usize,
                    *lanes as usize,
                )));
                i += 1;
            }
            VOp::Scalar(op) => {
                stats.steps += 1;
                out.push(Node::Step(scalar_step::<I>(op)?));
                i += 1;
            }
        }
    }
    Some(out)
}
