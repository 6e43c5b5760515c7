//! Phase replay: the benchmark issues the packing and micro-kernel calls of
//! one GEMM itself, in BLIS loop order with the program's own blocking, a
//! span around each, and compares their sums with the whole `gemm` call.
//! What is left over is write-back, beta, fringe staging, proof and loop
//! overhead. The replayed calls run back to back, not interleaved with the
//! write-back, so the shares are of isolated-call time.

use gemm_blis::packing::{a_panel, b_panel};
use gemm_blis::{
    pack_a_into, pack_b_into, BlisGemm, BlockingParams, GemmExecutor, KernelImpl, MatRef, PackArena,
};
use std::hint::black_box;

use crate::stats::median;
use crate::trace::{totals, Tracer};
use crate::workload::problem;

pub const PACK_A: &str = "gemm-blis.pack_a_into";
pub const PACK_B: &str = "gemm-blis.pack_b_into";
pub const UKERNEL: &str = "gemm-blis.ukernel_run";
pub const WHOLE: &str = "gemm-blis.gemm";

/// What the program dispatches for one shape: the blocking and the kernel.
pub struct Dispatch {
    pub blocking: BlockingParams,
    pub kernel: KernelImpl,
}

/// Median seconds per phase of one shape, over the replay's repetitions.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    pub whole_s: f64,
    pub pack_a_s: f64,
    pub pack_b_s: f64,
    pub ukernel_s: f64,
}

/// One pass of the five loops over `a * b`, a span per packing call and
/// per micro-tile. Returns the number of micro-kernel calls.
fn replay_once(
    blocking: &BlockingParams,
    kernel: &KernelImpl,
    a: MatRef<'_>,
    b: MatRef<'_>,
    arena: &mut PackArena,
    tr: &mut Tracer,
    op: u32,
) -> usize {
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    let BlockingParams { mc, kc, nc, .. } = *blocking;
    let (mr, nr) = (kernel.mr, kernel.nr);
    let (a_buf, b_buf) = arena.buffers();
    let mut dispatch = kernel.dispatcher();
    let mut c_tile = vec![0.0f32; mr * nr];
    let mut tiles = 0;
    for jc in (0..n).step_by(nc) {
        let nc_eff = nc.min(n - jc);
        for pc in (0..k).step_by(kc) {
            let kc_eff = kc.min(k - pc);
            let b_len = nc_eff.div_ceil(nr) * kc_eff * nr;
            let span = tr.begin(PACK_B, op);
            pack_b_into(&mut b_buf[..b_len], b, pc, jc, kc_eff, nc_eff, nr);
            tr.end(span);
            for ic in (0..m).step_by(mc) {
                let mc_eff = mc.min(m - ic);
                let a_len = mc_eff.div_ceil(mr) * kc_eff * mr;
                let span = tr.begin(PACK_A, op);
                pack_a_into(&mut a_buf[..a_len], a, ic, pc, mc_eff, kc_eff, mr, 1.0);
                tr.end(span);
                for jr in 0..nc_eff.div_ceil(nr) {
                    for ir in 0..mc_eff.div_ceil(mr) {
                        let ap = a_panel(&a_buf[..a_len], ir, kc_eff, mr);
                        let bp = b_panel(&b_buf[..b_len], jr, kc_eff, nr);
                        let span = tr.begin(UKERNEL, op);
                        dispatch.run(kc_eff, ap, bp, &mut c_tile).expect("replayed micro-kernel call");
                        tr.end(span);
                        tiles += 1;
                    }
                }
            }
        }
    }
    black_box(&c_tile);
    tiles
}

/// Times the whole call and the replayed phases of one shape, `reps` times
/// each, and appends the spans of the first timed repetition to `out`.
pub fn replay(
    dispatch: &Dispatch,
    dims: (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    reps: usize,
    out: &mut Tracer,
    op: u32,
) -> PhaseTimes {
    let (m, n, k) = dims;
    let Dispatch { blocking, kernel } = dispatch;
    let (a_view, b_view) = (MatRef::from_slice(a, m, k), MatRef::from_slice(b, k, n));
    let mut c = vec![0.0f32; m * n];
    let driver = BlisGemm::new(*blocking).with_kernel(kernel.clone());
    let tile_blocking = BlockingParams { mr: kernel.mr, nr: kernel.nr, ..*blocking };
    let mut arena = PackArena::for_problem(&tile_blocking, m, n, k);

    let (mut whole, mut pack_a, mut pack_b, mut ukernel) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Repetition 0 warms up and counts the tiles, which sizes the span
    // buffer of the others: a packing call never outnumbers the tiles.
    let mut capacity = 0;
    for rep in 0..=reps {
        let mut tr = Tracer::on(out.epoch(), capacity);
        let span = tr.begin(WHOLE, op);
        driver.gemm(problem(a, b, &mut c, dims)).expect("whole GEMM");
        tr.end(span);
        let tiles = replay_once(blocking, kernel, a_view, b_view, &mut arena, &mut tr, op);
        if rep == 0 {
            capacity = 3 * tiles + 1;
            continue;
        }
        let sums = totals(tr.spans());
        let secs = |name: &str| sums.get(name).map_or(0.0, |t| t.total_ns as f64 * 1e-9);
        whole.push(secs(WHOLE));
        pack_a.push(secs(PACK_A));
        pack_b.push(secs(PACK_B));
        ukernel.push(secs(UKERNEL));
        if rep == 1 {
            out.absorb(tr);
        }
    }
    PhaseTimes {
        whole_s: median(&whole),
        pack_a_s: median(&pack_a),
        pack_b_s: median(&pack_b),
        ukernel_s: median(&ukernel),
    }
}
