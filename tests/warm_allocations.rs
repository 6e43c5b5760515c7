//! The allocation budget of a warm small GEMM: a counting global allocator
//! (std only) around the two doors a small job takes, over the eight shapes
//! of the benchmark's `serve_small` workload, once each door is warm.
//!
//! * a warm `TunedGemm::gemm` allocates nothing: its route, driver, runner,
//!   arena, staged tile and proofs all exist already;
//! * a warm lone `GemmService::submit` + `wait` allocates nothing either:
//!   on an idle service the job runs inside `submit` as a pass of one and
//!   its answer rides back in the handle, so no completion slot or pass
//!   vector is made for it;
//! * a warm GEMM on either rung of the tier ladder allocates nothing: on
//!   the superword interpreter — the tier a build with no C compiler
//!   serves every GEMM on — its tier handle holds the register file and
//!   loop table, and on the native tier the memoised bounds proof;
//! * a warm `KernelCache` hit allocates nothing: the lookup borrows the
//!   ISA name instead of copying it into a key.
//!
//! Allocations are counted per thread, so tests of this binary that run at
//! the same time do not count each other's: an idle service and a
//! one-thread driver run the job on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use exo_gemm::exo_isa::neon_f32;
use exo_gemm::exo_serve::{CachedTunedGemm, GemmJob, GemmService, OwnedMat};
use exo_gemm::exo_tune::TunedGemm;
use exo_gemm::gemm_blis::{
    exo_kernel, exo_kernel_superword, BlisGemm, BlockingParams, ExecBackend, GemmExecutor, GemmProblem,
    MatMut, MatRef,
};
use exo_gemm::ukernel_gen::{KernelCache, MicroKernelGenerator};

/// The eight shapes of the benchmark's `serve_small` workload.
const SERVE_SHAPES: [(usize, usize, usize); 8] = [
    (24, 16, 12),
    (17, 13, 9),
    (32, 24, 8),
    (8, 40, 16),
    (48, 8, 24),
    (16, 16, 16),
    (28, 20, 6),
    (12, 36, 10),
];
/// Rounds over the shapes before counting, and while counting.
const ROUNDS: usize = 4;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// [`System`], counting every allocation (a reallocation included) on the
/// thread that makes it.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments,
// which upholds `GlobalAlloc`'s contract; the count is a thread-local
// `Cell` that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded from the caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded from the caller.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations this thread made while `f` ran.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One shape's operands, `C` included, seeded.
struct Operands {
    dims: (usize, usize, usize),
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Operands {
    fn all() -> Vec<Operands> {
        SERVE_SHAPES
            .iter()
            .enumerate()
            .map(|(s, &(m, n, k))| Operands {
                dims: (m, n, k),
                a: (0..m * k).map(|i| ((i * 7 + s) % 13) as f32 * 0.25 - 1.0).collect(),
                b: (0..k * n).map(|i| ((i * 5 + s) % 17) as f32 * 0.125 - 1.0).collect(),
                c: vec![0.0; m * n],
            })
            .collect()
    }

    fn problem(&mut self) -> GemmProblem<'_> {
        let (m, n, k) = self.dims;
        let (a, b) = (MatRef::from_slice(&self.a, m, k), MatRef::from_slice(&self.b, k, n));
        GemmProblem::new(a, b, MatMut::from_slice(&mut self.c, m, n)).beta(0.0)
    }

    fn job(&self) -> GemmJob {
        let (m, n, k) = self.dims;
        let a = OwnedMat::with_layout(self.a.clone(), m, k, k, 1, 0);
        let b = OwnedMat::with_layout(self.b.clone(), k, n, n, 1, 0);
        GemmJob::new(a, b, OwnedMat::zeros(m, n)).beta(0.0)
    }
}

#[test]
fn a_warm_tuned_gemm_allocates_nothing() {
    let tuned = TunedGemm::new();
    let mut operands = Operands::all();
    for _ in 0..ROUNDS {
        for ops in &mut operands {
            tuned.gemm(ops.problem()).expect("a serve_small shape runs");
        }
    }
    for _ in 0..ROUNDS {
        for ops in &mut operands {
            let made = allocations_in(|| {
                tuned.gemm(ops.problem()).expect("a serve_small shape runs");
            });
            assert_eq!(made, 0, "a warm TunedGemm::gemm of {:?} allocated", ops.dims);
        }
    }
}

#[test]
fn a_warm_lone_submit_and_wait_allocates_nothing() {
    let service = GemmService::new(CachedTunedGemm::new(TunedGemm::new()));
    let operands = Operands::all();
    let lone = |job: GemmJob| service.submit(job).expect("an idle service accepts").wait().expect("a job");
    for _ in 0..ROUNDS {
        for ops in &operands {
            lone(ops.job());
        }
    }
    for _ in 0..ROUNDS {
        for ops in &operands {
            // The job is built, and its answer dropped, outside the count.
            let job = ops.job();
            let mut done = None;
            let made = allocations_in(|| done = Some(lone(job)));
            assert_eq!(made, 0, "a warm lone submit + wait of {:?} allocated", ops.dims);
            drop(done);
        }
    }
}

/// The superword pin, whose handle keeps the interpreter's register file,
/// and the native pin as a second input: the native body behind its
/// memoised proof where the build compiled one, else the superword
/// interpreter again — either rung of the ladder.
#[test]
fn a_warm_gemm_on_the_superword_tier_allocates_nothing() {
    let kernel = Arc::new(MicroKernelGenerator::new(neon_f32()).generate(8, 12).expect("the 8x12 generates"));
    let native = if kernel.native().is_some() { ExecBackend::Native } else { ExecBackend::Superword };
    for (tier, pinned) in [
        (ExecBackend::Superword, exo_kernel_superword(Arc::clone(&kernel))),
        (native, exo_kernel(Arc::clone(&kernel))),
    ] {
        let driver = BlisGemm::new(BlockingParams::carmel_defaults(8, 12)).with_kernel(pinned);
        let mut operands = Operands::all();
        for _ in 0..ROUNDS {
            for ops in &mut operands {
                let stats = driver.gemm(ops.problem()).expect("a serve_small shape runs");
                assert_eq!(stats.tier, Some(tier), "{:?}", ops.dims);
            }
        }
        for _ in 0..ROUNDS {
            for ops in &mut operands {
                let made = allocations_in(|| {
                    driver.gemm(ops.problem()).expect("a serve_small shape runs");
                });
                assert_eq!(made, 0, "a warm {tier:?}-pinned GEMM of {:?} allocated", ops.dims);
            }
        }
    }
}

/// A warm cache hit, for a schedule a ranker asks for and for the kernel a
/// driver asks for, borrows the generator's ISA name and hands back an
/// `Arc` it holds: nothing is allocated.
#[test]
fn a_warm_kernel_cache_hit_allocates_nothing() {
    let cache = KernelCache::new();
    let generator = MicroKernelGenerator::new(neon_f32());
    cache.get_or_schedule(&generator, 8, 12).expect("the 8x12 schedules");
    cache.get_or_generate(&generator, 4, 12).expect("the 4x12 generates");
    for _ in 0..ROUNDS {
        let made = allocations_in(|| {
            cache.get_or_schedule(&generator, 8, 12).expect("a cached schedule");
            cache.get_or_schedule(&generator, 4, 12).expect("a cached schedule");
            cache.get_or_generate(&generator, 4, 12).expect("a cached kernel");
        });
        assert_eq!(made, 0, "a warm KernelCache hit allocated");
    }
    assert_eq!((cache.generator_invocations(), cache.lowerings()), (2, 1));
}
