//! The functional BLIS-like GEMM algorithm: the five loops of Fig. 1 around
//! the packing routines and a micro-kernel, computing
//! `C = alpha * op(A) * op(B) + beta * C` over strided views
//! ([`crate::GemmProblem`]).
//!
//! The BLAS contract is honored *inside* the blocked structure, never via
//! temporaries:
//!
//! * `op(A)`/`op(B)` reach the packing routines as stride-swapped views, so
//!   a transpose is a different gather walk, not a copy;
//! * `alpha` is folded into the packed `Ac` elements (one multiply in the
//!   pass that already touches every element once per k-block);
//! * `beta` is applied as a `C` tile is staged in on the **first** k-block
//!   only — later k-blocks accumulate — and `beta == 0` never reads `C`.
//!
//! Every strided ↔ packed move — a block of `A` or `B` into micro-panels, a
//! `C` tile into the kernel's column-major scratch and back — is one call of
//! the workspace's strided mover ([`exo_codegen::simd::Mover`], resolved
//! once per runner): vector copies and in-register transposes on the ISA
//! the kernels execute on, the scalar walk elsewhere, the same bits
//! everywhere. A tile is reached
//! through `C`'s raw pointer and the mover touches nothing outside it, so
//! the elements of another worker's window that lie between a tile's rows
//! are never read, written or spanned by a reference.
//!
//! A kernel only ever sees the staged scratch tile, so it cannot prefetch
//! `C` the way the BLIS library kernel does. The engine does it for every
//! kernel it drives: where the window of `C` a pass works on outgrows the
//! L1d, each kernel call is preceded by one prefetch hint per line of the
//! `C` tile the walk visits next
//! ([`exo_codegen::simd::Mover::prefetch`]), and the kernel's runtime
//! covers that tile's stage-in and write-back misses. A window that fits
//! the L1d gets no hints; its tiles stay resident anyway.
//!
//! There is one engine. A [`GemmRunner`] owns what one pass of the five
//! loops needs — blocking, the kernel and its prove-once tier handle
//! ([`KernelImpl::dispatcher`]), a [`crate::packing::PackArena`], and the
//! staged `C` tile — and runs them over a `(rows, cols)` window of `C`,
//! taking `op(B)` either as a strided view it packs block by block or as a
//! [`PackedB`] image, packed once for every GEMM that shares the matrix,
//! whose blocks it slices. A one-thread GEMM is that engine over the whole
//! of `C`. A threaded GEMM ([`BlisGemm::with_threads`]) partitions `C` into
//! disjoint windows — contiguous runs of whole `mc` row blocks, or of whole
//! `nc` column blocks when the problem is wide and short — and runs the
//! same engine once per window on the shared pool, each worker packing its
//! own operands (or slicing the one image). Every `C` element is computed
//! by exactly one worker in the sequential `pc` order, so the result is
//! bit-for-bit identical for any thread count.
//!
//! The engine's `A` and `C` are a list of row parts: a lone GEMM is a list
//! of one, and GEMMs that multiply by one `B` under one `alpha` and `beta`
//! — a batch of activations against a layer's weights — can be handed over
//! as a stack ([`BlisGemm::run`]), one `m` whose rows are theirs top to
//! bottom. A micro-panel that straddles two parts is packed from both, and
//! a `C` tile is staged in and out once per part it touches, so a stack
//! pays its row fringe once instead of once per GEMM, and every element
//! still sees its own GEMM's `k`-blocks, kernel and operation order.
//!
//! And there is one owner of engines, with one lifetime for them: the
//! [`BlisGemm`] driver keeps its idle runners, every pass — a plain call,
//! an extra window, a batch shard — checks one out and returns it, and the
//! only thing that ends a runner early is a pass that unwound. The tier a
//! generated kernel runs on is resolved once, when its runner is built
//! (`GemmRunner::new` takes the handle of [`KernelImpl::dispatcher`]), and
//! `Engine::begin` never resolves it again: a kernel's native verdict is
//! settled on its first resolution and holds for the process, so a warm
//! runner runs on the tier a fresh one would.
//!
//! Correctness for arbitrary (including fringe) problem sizes is the point;
//! with compiled kernels the same entry point is also the fast path.
//! Modelled performance questions go through [`crate::model`] instead.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use exo_codegen::simd::{AlignedBuf, Mover};
use ukernel_gen::{GenError, TierDispatch};

use crate::baselines::{default_kernel, ExecBackend, KernelImpl};
use crate::blocking::BlockingParams;
use crate::host::HostDescription;
use crate::packing::{a_panel, b_panel, pack_a_block, pack_a_rows, pack_b_block, PackArena, PackedB};
use crate::pool::{lock_tolerant, PoolJob, ThreadPool};
use crate::problem::{GemmExecutor, GemmProblem, GemmStats};
use crate::views::{MatMut, MatRef};
use crate::GemmError;

/// A dense row-major owned matrix: the convenience container of the
/// workspace's tests, benches, and examples.
///
/// `Matrix` is storage only — GEMM entry points take borrowed strided views
/// ([`MatRef`]/[`MatMut`]), which a `Matrix` produces zero-copy via
/// [`Matrix::view`] / [`Matrix::view_mut`] (or the `From` impls).
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major element storage.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix with `f(row, col)` values.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Element accessor.
    ///
    /// Both axes are checked in debug builds: an out-of-range `j` with an
    /// in-range `i` would otherwise silently alias into the next row of the
    /// flat storage instead of panicking.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows, "row index {i} out of {} rows", self.rows);
        debug_assert!(j < self.cols, "column index {j} out of {} columns", self.cols);
        self.data[i * self.cols + j]
    }

    /// Mutable element accessor (both axes checked in debug builds, see
    /// [`Matrix::get`]).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows, "row index {i} out of {} rows", self.rows);
        debug_assert!(j < self.cols, "column index {j} out of {} columns", self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// A borrowed read-only view of the whole matrix.
    #[inline]
    pub fn view(&self) -> MatRef<'_> {
        MatRef::from_slice(&self.data, self.rows, self.cols)
    }

    /// A borrowed mutable view of the whole matrix.
    #[inline]
    pub fn view_mut(&mut self) -> MatMut<'_> {
        MatMut::from_slice(&mut self.data, self.rows, self.cols)
    }
}

impl<'a> From<&'a Matrix> for MatRef<'a> {
    fn from(m: &'a Matrix) -> Self {
        m.view()
    }
}

impl<'a> From<&'a mut Matrix> for MatMut<'a> {
    fn from(m: &'a mut Matrix) -> Self {
        m.view_mut()
    }
}

/// A raw strided window onto the `C` operand, shared across the driver's
/// workers.
///
/// Why raw pointers: with arbitrary strides the windows of `C` are
/// logically disjoint but *interleaved* in memory (e.g. the row blocks of a
/// column-major or padded-submatrix `C`), so a safe `split_at_mut`
/// partition cannot express them. Each worker reads and writes only the
/// `(i, j)` elements of its own window; [`MatMut`]'s constructor proved the
/// stride map injective, so those element sets are disjoint and the shared
/// pointer is race-free.
#[derive(Clone, Copy)]
struct RawMat {
    ptr: *mut f32,
    row_stride: usize,
    col_stride: usize,
    rows: usize,
    cols: usize,
}

// SAFETY: see the type docs — workers touch disjoint element sets, which
// the driver guarantees by partitioning `C` into disjoint windows.
unsafe impl Send for RawMat {}
// SAFETY: as for `Send`: a shared `RawMat` is only the pointer each worker
// derives its own disjoint window from.
unsafe impl Sync for RawMat {}

impl RawMat {
    fn of(c: &mut MatMut<'_>) -> Self {
        let (rows, cols) = (c.rows(), c.cols());
        let (ptr, row_stride, col_stride) = c.raw_parts();
        RawMat { ptr, row_stride, col_stride, rows, cols }
    }

    /// The address of element `(i, j)`.
    ///
    /// # Safety
    ///
    /// `(i, j)` must be in bounds.
    #[inline]
    unsafe fn at(&self, i: usize, j: usize) -> *mut f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.ptr.add(i * self.row_stride + j * self.col_stride)
    }
}

/// The BLIS-like GEMM driver of Fig. 1, parameterised by blocking values and
/// a micro-kernel — and the one owner of the engine state its GEMMs run on.
///
/// A driver keeps its idle [`GemmRunner`]s (tier handle with its memoised
/// proofs, packing arena, staged `C` tile). Every engine pass checks one
/// out ([`BlisGemm::runner`]) and returns it afterwards
/// ([`BlisGemm::put_back`]): a plain [`GemmExecutor::gemm`] call, each extra
/// window of a threaded run, and each shard of an `exo-serve` batch draw
/// from the same place, so whichever door a problem comes through, only
/// the first one pays for building an engine. A runner whose pass unwound
/// is dropped with the frame that held it, never returned; [`Clone`] and
/// [`BlisGemm::with_kernel`] start with no runners. The set never holds
/// more runners than were once in use at the same time.
///
/// As a [`GemmExecutor`] it dispatches its stored kernel (set with
/// [`BlisGemm::with_kernel`]).
pub struct BlisGemm {
    /// Cache blocking parameters.
    pub blocking: BlockingParams,
    /// Maximum parallelism drawn from the shared worker pool
    /// ([`ThreadPool::global`]): `C` is split into at most this many
    /// windows, one engine pass each. `1` is fully sequential; `0` means
    /// "the pool's full width" (the machine, or the `EXO_THREADS`
    /// override).
    pub threads: usize,
    /// The micro-kernel the [`GemmExecutor`] entry point dispatches.
    kernel: KernelImpl,
    warm: WarmRunners,
}

/// A driver's idle runners and how many it has had to build.
#[derive(Default)]
struct WarmRunners {
    idle: Mutex<Vec<GemmRunner>>,
    built: AtomicU64,
}

impl Clone for BlisGemm {
    /// The same blocking, thread count and kernel on a driver of its own:
    /// the clone starts with no runners.
    fn clone(&self) -> Self {
        BlisGemm {
            blocking: self.blocking,
            threads: self.threads,
            kernel: self.kernel.clone(),
            warm: WarmRunners::default(),
        }
    }
}

impl std::fmt::Debug for BlisGemm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlisGemm")
            .field("blocking", &self.blocking)
            .field("threads", &self.threads)
            .field("kernel", &self.kernel.name)
            .field("idle_runners", &self.idle_runners())
            .field("runners_built", &self.runners_built())
            .finish()
    }
}

impl BlisGemm {
    /// Creates a driver with the given blocking (single thread, and the
    /// generated `neon_f32` 8x12 on the default native pin as the
    /// executor default — override with [`BlisGemm::with_kernel`]).
    pub fn new(blocking: BlockingParams) -> Self {
        BlisGemm { blocking, threads: 1, kernel: default_kernel(), warm: WarmRunners::default() }
    }

    /// Sets the micro-kernel the [`GemmExecutor`] entry point dispatches.
    /// Runners built around the previous kernel are dropped.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelImpl) -> Self {
        self.kernel = kernel;
        self.warm = WarmRunners::default();
        self
    }

    /// The micro-kernel the [`GemmExecutor`] entry point dispatches.
    pub fn kernel(&self) -> &KernelImpl {
        &self.kernel
    }

    /// Sets the worker-thread count (`0` = all cores). Wide-and-short
    /// problems are split by column blocks, all others by row blocks; the
    /// result is identical either way.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Checks a runner out of this driver: an idle one when there is one,
    /// else one built here — the only place engines are built — around the
    /// stored kernel and blocking, with an empty arena it grows on demand.
    /// The caller owns it until it hands it back with
    /// [`BlisGemm::put_back`]; a runner that is simply dropped (its pass
    /// unwound, or its holder is done with it) is never seen again. The
    /// runner owns copies of what it needs, so it may outlive the driver.
    pub fn runner(&self) -> GemmRunner {
        let blocking = tile_blocking(self.blocking, &self.kernel);
        // `blocking` is a public field: a runner built before it was
        // changed is not this driver's any more.
        let idle = lock_tolerant(&self.warm.idle).pop().filter(|runner| runner.engine.blocking == blocking);
        idle.unwrap_or_else(|| {
            self.warm.built.fetch_add(1, Ordering::Relaxed);
            GemmRunner::new(blocking, &self.kernel)
        })
    }

    /// Returns a runner checked out with [`BlisGemm::runner`] after a pass
    /// that came back — with `Ok` or `Err`, but not by unwinding — so the
    /// next check-out finds it warm: tier handle, memoised proofs, arena.
    pub fn put_back(&self, runner: GemmRunner) {
        lock_tolerant(&self.warm.idle).push(runner);
    }

    /// How many runners sit idle in this driver (those checked out are
    /// with their holders).
    pub fn idle_runners(&self) -> usize {
        lock_tolerant(&self.warm.idle).len()
    }

    /// How many runners this driver has built so far: what a check-out
    /// that found none idle costs, counted. A warm driver's stays put.
    pub fn runners_built(&self) -> u64 {
        self.warm.built.load(Ordering::Relaxed)
    }

    /// Packs the whole of `b` — the effective, op-applied `k x n` operand —
    /// into `image`, in the layout this driver's runners slice
    /// ([`BlisGemm::run`]): its blocking's `kc` / `nc`, its stored kernel's
    /// `nr`.
    pub fn pack_b(&self, b: MatRef<'_>, image: &mut PackedB) {
        image.pack(b, &tile_blocking(self.blocking, &self.kernel));
    }

    /// Solves `problems` — one GEMM, or a stack of them that multiply by
    /// one `B` — on `runner`, one of this driver's checked out by the
    /// caller, and up to `threads` workers of the shared pool (`0` = its
    /// full width): partition `C`, run the engine once per window.
    /// `runner` serves the first window; the others are served by runners
    /// checked out of this driver for the call and returned after it.
    /// [`GemmExecutor::gemm`] is this with a check-out around a stack of
    /// one; a caller with many problems (a batch shard) keeps one runner
    /// across them and takes no lock per problem.
    ///
    /// A stack of several problems is one pass over their rows stacked top
    /// to bottom, in slice order: one `m`-row operand, whose micro-panels
    /// and `C` tiles may straddle two or more problems. `pack_a` fills such
    /// a panel from each problem's `op(A)` rows, and each `C` tile stages
    /// in, out and takes the next-tile prefetch once per problem it
    /// touches. The problems must share `n`, `k`, `alpha`, `beta` and
    /// `op(B)` (the same view, [`MatRef::same_view`]); `m` and `op(A)` may
    /// differ. Every `C` element sees the same `k`-blocks, kernel and
    /// operation order as when its problem runs alone, so the bits are the
    /// per-problem run's, and a fringe is paid once per stack instead of
    /// once per problem. The returned stats are the stack's: `m` is its
    /// stacked rows and `flop_count` the sum.
    ///
    /// With `packed_b`, `op(B)` is read from the image instead of
    /// `problems[0].b`, which then only states the shape: no window packs
    /// `B`, and the result is bit-identical to the run that packs —
    /// provided the image was packed from that `B` ([`BlisGemm::pack_b`]),
    /// which is the caller's contract.
    ///
    /// Fringe tiles are zero-padded by the packing routines, and every `C`
    /// tile, full or fringe, is staged through a padded scratch tile in the
    /// kernel's layout — in and out by the strided mover, which moves the
    /// tile's elements and no others — exactly as the monolithic library
    /// kernels do.
    ///
    /// # Errors
    ///
    /// Returns [`GemmError::ShapeMismatch`] if `problems` is empty, a
    /// problem's view dimensions are inconsistent, the problems of a stack
    /// do not share `B` and both scales, or the image is not their `k x n`
    /// packed for this driver's blocking; propagates micro-kernel failures.
    pub fn run(
        &self,
        runner: &mut GemmRunner,
        problems: &mut [GemmProblem<'_>],
        packed_b: Option<&PackedB>,
        threads: usize,
    ) -> Result<GemmStats, GemmError> {
        debug_assert_eq!(
            runner.engine.blocking,
            tile_blocking(self.blocking, &self.kernel),
            "another driver's runner"
        );
        let (mut stats, product_left) = runner.engine.begin(problems, packed_b)?;
        if !product_left {
            return Ok(stats);
        }
        let threads = match threads {
            0 => ThreadPool::global().workers(),
            t => t,
        };
        let mut windows = partition(stats.m, stats.n, &runner.engine.blocking, threads);
        if windows.len() > 1 {
            stats.threads = windows.len();
            stats.pool_workers = ThreadPool::global().workers();
        }
        with_operands(problems, packed_b, |operands| {
            let run_window = |runner: &mut GemmRunner, window: Window| {
                // SAFETY: every part's `c` wraps one problem's exclusively
                // borrowed `C` view, live until this function returns. The
                // windows below are pairwise disjoint and each goes to
                // exactly one engine pass, and `MatMut` proved each stride
                // map injective, so no element is touched by two threads.
                unsafe { gemm_arena_sequential(&mut runner.engine, operands, window) }
            };
            if windows.len() == 1 {
                return run_window(runner, windows.next().expect("one window"));
            }
            let mut others: Vec<GemmRunner> = (1..windows.len()).map(|_| self.runner()).collect();
            let mut results: Vec<Result<(), GemmError>> = vec![Ok(()); windows.len()];
            let jobs: Vec<PoolJob<'_>> = std::iter::once(&mut *runner)
                .chain(others.iter_mut())
                .zip(windows)
                .zip(results.iter_mut())
                .map(|((runner, window), result)| {
                    // Grow each engine's arena here, on the calling thread,
                    // so the buffers come from (and go back to) one
                    // allocator arena instead of leaving a block-sized
                    // chunk cached in every pool thread's.
                    runner.engine.reserve(operands.b, window.0.len(), window.1.len(), stats.k);
                    Box::new(move || *result = run_window(runner, window)) as PoolJob<'_>
                })
                .collect();
            // The shared pool's recycled workers (plus this thread helping)
            // — no OS threads are spawned here. A window that panics is
            // re-raised from here once the others are done, and the
            // unwinding drops `others` instead of returning them.
            ThreadPool::global().scope_run(jobs);
            for other in others {
                self.put_back(other);
            }
            results.into_iter().collect::<Result<(), GemmError>>()
        })?;
        Ok(stats)
    }
}

impl GemmExecutor for BlisGemm {
    fn gemm(&self, problem: GemmProblem<'_>) -> Result<GemmStats, GemmError> {
        let mut runner = self.runner();
        let mut problem = problem;
        let result = self.run(&mut runner, std::slice::from_mut(&mut problem), None, self.threads);
        self.put_back(runner);
        result
    }
}

/// One instance of the five-loop engine: blocking, the kernel and its
/// prove-once [`TierDispatch`] handle, a packing arena (grown on demand,
/// never shrunk), and the staged `C` tile, reused across every problem it
/// is given.
///
/// Every GEMM in the workspace runs on one of these, and every one of
/// these belongs to a [`BlisGemm`], which builds it on the first check-out
/// that finds none idle ([`BlisGemm::runner`]) and keeps it warm between
/// passes — so dispatch construction, bounds proofs and arena growth are
/// paid once per driver and degree of concurrency, not once per call,
/// window or batch. Results are bit-identical to a fresh runner's — same
/// packing, same op order; a runner carries no numeric state.
/// [`GemmStats::tier`] says which tier ran. The arena holds only what the
/// runner has had to pack: one that has only ever read `B` from
/// [`PackedB`] images has no `Bc` buffer at all.
pub struct GemmRunner {
    /// Boxed, so a check-out and a put-back move a pointer, not the engine.
    engine: Box<Engine>,
}

/// What a [`GemmRunner`] owns.
struct Engine {
    /// The driver's blocking with `mr`/`nr` replaced by the kernel's tile.
    blocking: BlockingParams,
    /// The kernel `dispatch` was built from.
    kernel: KernelImpl,
    /// The micro-kernel call of every register tile.
    dispatch: TierDispatch,
    /// Every pack and `C`-tile move, on the active ISA's body.
    mover: Mover,
    arena: PackArena,
    /// On a cache line, like the arena's panels: a 16-row tile's columns
    /// are whole lines.
    c_tile: AlignedBuf,
}

/// A `(rows, cols)` window of `C`: the unit of work of one engine pass.
type Window = (Range<usize>, Range<usize>);

/// Where an engine pass reads `op(B)` from.
#[derive(Clone, Copy)]
enum BOperand<'a> {
    /// The effective `k x n` view: each `(jc, pc)` block is packed into the
    /// runner's `Bc` buffer as the loops reach it.
    View(MatRef<'a>),
    /// An image packed ahead of the call for this runner's blocking
    /// ([`PackedB::check`] passed): blocks are sliced, nothing is packed.
    Packed(&'a PackedB),
}

/// One problem's rows in an engine pass: its `op(A)` and its raw `C`,
/// placed at rows `start..start + a.rows()` of the pass's stacked `m`. A
/// lone GEMM is one part at row 0.
#[derive(Clone, Copy)]
struct RowPart<'a> {
    start: usize,
    /// `op(A)`, `rows x k`.
    a: MatRef<'a>,
    c: RawMat,
}

impl<'a> RowPart<'a> {
    fn of(start: usize, problem: &mut GemmProblem<'a>) -> Self {
        RowPart { start, a: problem.op_a.apply(problem.a), c: RawMat::of(&mut problem.c) }
    }

    fn end(&self) -> usize {
        self.start + self.a.rows()
    }
}

/// The pieces of stacked `rows` in `parts` (sorted, contiguous, none
/// empty), top to bottom: each touched part, the rows of it they cover in
/// its own numbering, and where the piece starts inside `rows`.
fn pieces<'p, 'a>(
    parts: &'p [RowPart<'a>],
    rows: Range<usize>,
) -> impl Iterator<Item = (RowPart<'a>, Range<usize>, usize)> + 'p {
    let first = parts.partition_point(|part| part.end() <= rows.start);
    parts[first..].iter().take_while(move |part| part.start < rows.end).map(move |&part| {
        let (lo, hi) = (rows.start.max(part.start), rows.end.min(part.end()));
        (part, lo - part.start..hi - part.start, lo - rows.start)
    })
}

/// Calls `f` once per piece of the `C` tile at stacked `(rows, cols)` —
/// one per part its rows come from — with the piece's corner in `C`, `C`'s
/// strides as the mover sees them, the piece's first row in the tile and
/// its extent. A lone GEMM's tile is its one piece, reached without a
/// search. The corner is reached through the raw pointer, so no reference
/// ever spans the elements of another worker's window that lie between a
/// tile's rows.
///
/// # Safety
///
/// `rows` must lie inside the stacked rows of `parts` and `cols` inside
/// their columns.
unsafe fn for_each_piece(
    parts: &[RowPart<'_>],
    (rows, cols): (Range<usize>, Range<usize>),
    mut f: impl FnMut(*mut f32, (usize, usize), usize, (usize, usize)),
) {
    let mut piece = |part: RowPart<'_>, local: Range<usize>, at: usize| {
        // SAFETY: `local.start` is a row of the part and `cols.start` a
        // column of its `C` (the caller's contract), so the element lies
        // inside that `C`.
        let corner = unsafe { part.c.at(local.start, cols.start) };
        f(corner, (part.c.row_stride, part.c.col_stride), at, (local.len(), cols.len()));
    };
    match parts {
        [part] => piece(*part, rows.start - part.start..rows.end - part.start, 0),
        parts => pieces(parts, rows).for_each(|(part, local, at)| piece(part, local, at)),
    }
}

/// A validated stack with work left in it, as the engine passes read it:
/// the row parts, the effective `B`, and the two scales.
#[derive(Clone, Copy)]
struct Operands<'a> {
    parts: &'a [RowPart<'a>],
    b: BOperand<'a>,
    alpha: f32,
    beta: f32,
}

/// Runs `f` on the operands of `problems`, which [`Engine::begin`]
/// validated and found a product left in. A lone problem's part lives on
/// this frame — a stack of one allocates nothing — and a stack's in one
/// vector. Problems with no rows have no part.
fn with_operands<R>(
    problems: &mut [GemmProblem<'_>],
    packed_b: Option<&PackedB>,
    f: impl FnOnce(Operands<'_>) -> R,
) -> R {
    let first = &problems[0];
    let b = match packed_b {
        Some(image) => BOperand::Packed(image),
        None => BOperand::View(first.op_b.apply(first.b)),
    };
    let (alpha, beta) = (first.alpha, first.beta);
    if let [problem] = problems {
        return f(Operands { parts: &[RowPart::of(0, problem)], b, alpha, beta });
    }
    let mut start = 0;
    let parts: Vec<RowPart<'_>> = problems
        .iter_mut()
        .filter(|problem| problem.c.rows() > 0)
        .map(|problem| {
            let rows = problem.c.rows();
            start += rows;
            RowPart::of(start - rows, problem)
        })
        .collect();
    f(Operands { parts: &parts, b, alpha, beta })
}

/// `blocking` with `mr`/`nr` replaced by the kernel's register tile. Panels
/// are shaped by the *kernel's* tile, which the blocking's need not match
/// (callers may pair a generic blocking with any kernel), so arenas and
/// images are sized for the tile that will actually be packed.
fn tile_blocking(blocking: BlockingParams, kernel: &KernelImpl) -> BlockingParams {
    BlockingParams { mr: kernel.mr, nr: kernel.nr, ..blocking }
}

impl GemmRunner {
    /// `blocking` is already the kernel's ([`tile_blocking`]).
    fn new(blocking: BlockingParams, kernel: &KernelImpl) -> Self {
        let engine = Engine {
            blocking,
            kernel: kernel.clone(),
            dispatch: kernel.dispatcher(),
            mover: Mover::active(),
            arena: PackArena::empty(),
            c_tile: AlignedBuf::zeroed(kernel.mr * kernel.nr),
        };
        GemmRunner { engine: Box::new(engine) }
    }

    /// The execution tier this runner's handle holds — what every GEMM it
    /// runs executes on.
    pub fn tier(&self) -> ExecBackend {
        self.engine.dispatch.tier()
    }

    /// Solves one problem on the calling thread, alone: the whole of `C`
    /// is this runner's one window.
    ///
    /// # Errors
    ///
    /// Same contract as [`BlisGemm::gemm`]: [`GemmError::ShapeMismatch`]
    /// for inconsistent dimensions, micro-kernel failures propagated.
    pub fn gemm(&mut self, mut problem: GemmProblem<'_>) -> Result<GemmStats, GemmError> {
        let problems = std::slice::from_mut(&mut problem);
        let (stats, product_left) = self.engine.begin(problems, None)?;
        if product_left {
            // SAFETY: the part's `c` wraps the problem's exclusively
            // borrowed `C` view, live until this function returns, and this
            // is the only pass over it.
            with_operands(problems, None, |operands| unsafe {
                gemm_arena_sequential(&mut self.engine, operands, (0..stats.m, 0..stats.n))
            })?;
        }
        Ok(stats)
    }
}

impl Engine {
    /// Grows the arena for an `m x n x k` pass: `Ac` always, `Bc` only
    /// when this runner is the one packing `B`.
    fn reserve(&mut self, b: BOperand<'_>, m: usize, n: usize, k: usize) {
        match b {
            BOperand::View(_) => self.arena.ensure_for_problem(&self.blocking, m, n, k),
            BOperand::Packed(_) => self.arena.ensure_a(&self.blocking, m, k),
        }
    }

    /// The top of a GEMM, before any partition: validate the problems —
    /// each on its own, and a stack's against its first (one `B`, one
    /// `alpha`, one `beta`) — and the image, if `B` comes from one,
    /// re-resolve the tier handle — here and nowhere below, so one pass
    /// runs on one tier — and settle the contracts that need no engine
    /// pass. Returns the stack's stats and whether there is a product left
    /// to compute.
    fn begin(
        &mut self,
        problems: &mut [GemmProblem<'_>],
        packed_b: Option<&PackedB>,
    ) -> Result<(GemmStats, bool), GemmError> {
        let Some((first, rest)) = problems.split_first() else {
            return Err(GemmError::ShapeMismatch { what: "an engine pass needs a problem".into() });
        };
        let (mut m, n, k) = first.dims()?;
        let b = first.op_b.apply(first.b);
        let (alpha, beta) = (first.alpha, first.beta);
        for problem in rest {
            let (rows, ..) = problem.dims()?;
            let scales = (problem.alpha.to_bits(), problem.beta.to_bits());
            if !problem.op_b.apply(problem.b).same_view(&b) || scales != (alpha.to_bits(), beta.to_bits()) {
                return Err(GemmError::ShapeMismatch {
                    what: "a stacked problem must share the first one's op(B), alpha and beta".into(),
                });
            }
            m += rows;
        }
        if let Some(image) = packed_b {
            image.check(k, n, &self.blocking)?;
        }
        let stats = GemmStats {
            m,
            n,
            k,
            flop_count: GemmStats::flops_for(m, n, k, alpha),
            kernel: self.kernel.name.clone(),
            tier: Some(self.dispatch.tier()),
            threads: 1,
            pool_workers: 0,
            batched: false,
            degraded: false,
        };
        if m == 0 || n == 0 {
            return Ok((stats, false));
        }
        if k == 0 || alpha == 0.0 {
            // Degenerate product: C = beta * C, honoring beta == 0 as
            // "never read".
            for problem in problems {
                scale_c(&mut problem.c, beta);
            }
            return Ok((stats, false));
        }
        Ok((stats, true))
    }
}

/// Splits `C` into at most `threads` disjoint windows, one per pool worker:
/// contiguous runs of whole `mc` row blocks by default, or of whole `nc`
/// column blocks for a wide-and-short problem (large `n`, small `m`), which
/// has more column blocks than row blocks and too few row blocks to occupy
/// the threads. Dealing whole blocks keeps every window's block boundaries
/// — and with them its panel and tile fringes — those of the one-thread
/// run.
fn partition(
    m: usize,
    n: usize,
    blocking: &BlockingParams,
    threads: usize,
) -> impl ExactSizeIterator<Item = Window> {
    let (row_blocks, col_blocks) = (m.div_ceil(blocking.mc), n.div_ceil(blocking.nc));
    let by_cols = col_blocks > row_blocks && row_blocks < threads;
    let (extent, step, blocks) =
        if by_cols { (n, blocking.nc, col_blocks) } else { (m, blocking.mc, row_blocks) };
    let parts = threads.clamp(1, blocks);
    (0..parts).map(move |p| {
        let span = (p * blocks / parts * step)..((p + 1) * blocks / parts * step).min(extent);
        if by_cols {
            (0..m, span)
        } else {
            (span, 0..n)
        }
    })
}

/// The five loops of Fig. 1 over one window of `C`: loops L1/L2 pack — or,
/// from a [`PackedB`] image, slice — the `Bc` blocks of the window's
/// columns, loop L3 sends the window's rows through [`run_ic_block`]. This
/// is the only `jc`/`pc`/`ic` nest in the crate — a one-thread GEMM passes
/// the whole of `C`, each worker of a threaded GEMM its own window, and a
/// stack of GEMMs is one `C` whose rows are its parts' — so every path
/// produces identical bits by construction.
///
/// # Safety
///
/// Every part's `c` must point to live storage covering its declared
/// extent, `window` must lie inside the stacked rows and the columns, and
/// no other thread may access any `C` element inside `window` during the
/// call.
unsafe fn gemm_arena_sequential(
    run: &mut Engine,
    Operands { parts, b, alpha, beta }: Operands<'_>,
    (rows, cols): Window,
) -> Result<(), GemmError> {
    let k = parts[0].a.cols();
    let BlockingParams { mc, kc, nc, mr, nr } = run.blocking;
    run.reserve(b, rows.len(), cols.len(), k);
    let c_lines = c_prefetch_line(rows.len(), cols.len(), HostDescription::probed());
    // Split-borrowed so the packed Bc prefix can stay live while Ac blocks
    // are repacked.
    let (a_buf, b_buf) = run.arena.buffers();
    // Loop L1: columns of C / B.
    let mut jc = cols.start;
    while jc < cols.end {
        let nc_eff = nc.min(cols.end - jc);
        // Loop L2: the k dimension. beta belongs to the first k-block
        // only; later blocks accumulate.
        let mut pc = 0;
        while pc < k {
            let kc_eff = kc.min(k - pc);
            let packed_b = match b {
                BOperand::View(b) => {
                    let packed = &mut b_buf[..nc_eff.div_ceil(nr) * kc_eff * nr];
                    pack_b_block(run.mover, packed, b, [pc, jc, kc_eff, nc_eff], nr);
                    &*packed
                }
                // Windows start on `nc` boundaries, so theirs are the
                // image's blocks.
                BOperand::Packed(image) => image.block(jc, pc),
            };
            // Loop L3: rows of C / A.
            let mut ic = rows.start;
            while ic < rows.end {
                let mc_eff = mc.min(rows.end - ic);
                // SAFETY: forwarded from the caller — exclusive access to
                // the window, which contains this block.
                let ran = unsafe {
                    run_ic_block(
                        &mut run.dispatch,
                        run.mover,
                        (mr, nr),
                        parts,
                        ic..ic + mc_eff,
                        pc,
                        kc_eff,
                        packed_b,
                        jc..jc + nc_eff,
                        alpha,
                        if pc == 0 { beta } else { 1.0 },
                        a_buf,
                        &mut run.c_tile,
                        c_lines,
                    )
                };
                // The engine's one conversion of a kernel failure: the
                // tier handle's error, under the kernel's name.
                ran.map_err(|e| GemmError::Kernel {
                    kernel: run.kernel.name.to_string(),
                    message: e.to_string(),
                })?;
                ic += mc_eff;
            }
            pc += kc_eff;
        }
        jc += nc_eff;
    }
    Ok(())
}

/// The line size at which [`run_ic_block`] prefetches the next `C` tile
/// over a `rows x cols` window on `host`, or `None` when the window fits
/// the L1d: there the tiles stay resident from one `k`-block to the next,
/// and a hint would only cost issue slots.
fn c_prefetch_line(rows: usize, cols: usize, host: &HostDescription) -> Option<usize> {
    let l1d = host.l1d;
    (rows * cols * size_of::<f32>() > l1d.bytes).then_some(l1d.line)
}

/// `C = beta * C` in place, honoring `beta == 0` as "never read".
fn scale_c(c: &mut MatMut<'_>, beta: f32) {
    if beta == 1.0 {
        return;
    }
    for i in 0..c.rows() {
        for j in 0..c.cols() {
            let v = if beta == 0.0 { 0.0 } else { beta * c.get(i, j) };
            c.set(i, j, v);
        }
    }
}

/// Loops L4/L5 for one `(rows, cols)` block of stacked `C`: pack the
/// `op(A)` rows (scaled by `alpha`) into `a_buf` — a lone GEMM's through
/// `pack_a_block`, a stack's through `pack_a_rows`, which fills a
/// micro-panel that straddles two parts from both — then run the
/// micro-kernel over every `(jr, ir)` tile, staging each (possibly fringe)
/// `C` tile into the kernel's column-major `c_tile` and back out through
/// `mover`, one move per part the tile's rows come from
/// ([`for_each_piece`]) — scaled by
/// `stage_in_scale` (the problems' `beta` on the first k-block, `1` after)
/// on the way in, moved untouched on the way out.
///
/// With `c_lines` (a line size: the window outgrows the L1d, see
/// [`c_prefetch_line`]) each kernel call is preceded by one prefetch hint
/// per line of the `C` tile the walk visits next — the next `ir`, or the
/// first tile of the next `jr` panel — in each part it touches, so the
/// kernel's runtime covers that tile's stage-in and write-back misses. A
/// hint reads and writes no element, and its addresses lie inside the next
/// tile.
///
/// `(mr, nr)` is the runner's blocking's tile, which [`tile_blocking`] set
/// to the kernel's. A failed kernel call returns the tier handle's error
/// as the generator's backend failure; the caller names the kernel.
///
/// # Safety
///
/// Every part's `c` must point to live storage covering its declared
/// extent, and no other thread may concurrently access any `C` element in
/// stacked `rows` and `cols` — the driver guarantees this by handing each
/// worker a disjoint window of `C`.
#[allow(clippy::too_many_arguments)]
unsafe fn run_ic_block(
    dispatch: &mut TierDispatch,
    mover: Mover,
    (mr, nr): (usize, usize),
    parts: &[RowPart<'_>],
    rows: Range<usize>,
    pc: usize,
    kc_eff: usize,
    packed_b: &[f32],
    cols: Range<usize>,
    alpha: f32,
    stage_in_scale: f32,
    a_buf: &mut [f32],
    c_tile: &mut [f32],
    c_lines: Option<usize>,
) -> Result<(), GenError> {
    assert!(c_tile.len() >= mr * nr, "the staged tile holds a whole register tile");
    let (mc_eff, nc_eff) = (rows.len(), cols.len());
    let a_len = mc_eff.div_ceil(mr) * kc_eff * mr;
    match parts {
        // A lone GEMM's rows are its one part's: the plain packer.
        [part] => pack_a_block(
            mover,
            &mut a_buf[..a_len],
            part.a,
            [rows.start - part.start, pc, mc_eff, kc_eff],
            mr,
            alpha,
        ),
        parts => {
            let rows_of = |rows: Range<usize>| {
                pieces(parts, rows)
                    .map(|(part, local, _)| part.a.submatrix(local.start, pc, local.len(), kc_eff))
            };
            pack_a_rows(mover, &mut a_buf[..a_len], rows_of, rows.clone(), kc_eff, mr, alpha);
        }
    }
    let packed_a = &a_buf[..a_len];
    // The kernel's `c_tile[j * mr + i]`.
    let tile_strides = (1, mr);

    let n_panels = nc_eff.div_ceil(nr);
    let m_panels = mc_eff.div_ceil(mr);
    // Tile `(ir, jr)`'s (possibly fringe) stacked rows and columns of `C`.
    let tile = |ir: usize, jr: usize| {
        let (i, j) = (rows.start + ir * mr, cols.start + jr * nr);
        (i..(i + mr).min(rows.end), j..(j + nr).min(cols.end))
    };
    for jr in 0..n_panels {
        for ir in 0..m_panels {
            let ap = a_panel(packed_a, ir, kc_eff, mr);
            let bp = b_panel(packed_b, jr, kc_eff, nr);
            // Stage the C tile. Fringe padding positions receive only
            // zero-padded products from the kernel and are never copied
            // back, so the reused scratch needs no re-zeroing. `beta == 0`
            // loads nothing at all — C may hold NaN garbage — and starts
            // the tile from zero instead.
            if stage_in_scale == 0.0 {
                c_tile.fill(0.0);
            } else {
                let staged = c_tile.as_mut_ptr();
                let stage_in = |corner: *mut f32, strides, at: usize, extent| {
                    // SAFETY: each piece's rows `at..at + extent.0` and
                    // columns fit the `mr x nr` tile (asserted above) and,
                    // by the caller's contract, lie inside this worker's
                    // window of `C`; a scratch buffer and `C` do not
                    // overlap.
                    unsafe {
                        mover.strided_move(
                            staged.wrapping_add(at),
                            tile_strides,
                            corner,
                            strides,
                            extent,
                            stage_in_scale,
                        )
                    }
                };
                // SAFETY: the tile lies inside this block, so inside the
                // stacked rows and `C`'s columns.
                unsafe { for_each_piece(parts, tile(ir, jr), stage_in) };
            }
            // The tile the walk visits next: the next row panel, or the
            // first of the next column panel.
            let (next_ir, next_jr) = if ir + 1 < m_panels { (ir + 1, jr) } else { (0, jr + 1) };
            if let Some(line) = c_lines.filter(|_| next_jr < n_panels) {
                // SAFETY: the next tile lies inside this block as well.
                unsafe {
                    for_each_piece(parts, tile(next_ir, next_jr), |corner, strides, _, extent| {
                        mover.prefetch(corner, strides, extent, line)
                    });
                }
            }
            dispatch.run(kc_eff, ap, bp, c_tile)?;
            let staged = c_tile.as_ptr();
            let stage_out = |corner: *mut f32, strides, at: usize, extent| {
                // SAFETY: as for the stage-in, with the roles exchanged;
                // `MatMut` proved each part's stride map injective, and
                // parts are distinct problems' exclusively borrowed `C`s.
                unsafe {
                    mover.strided_move(corner, strides, staged.wrapping_add(at), tile_strides, extent, 1.0)
                }
            };
            // SAFETY: the tile lies inside this block, as above.
            unsafe { for_each_piece(parts, tile(ir, jr), stage_out) };
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::exo_kernel;
    use crate::packing::pack_b_into;
    use crate::problem::{NaiveGemm, Op};
    use exo_isa::neon_f32;
    use std::sync::Arc;
    use ukernel_gen::MicroKernelGenerator;

    fn check_gemm(kernel: &KernelImpl, m: usize, n: usize, k: usize) {
        let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3 + 1) % 13) as f32 * 0.25 - 1.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 11 + 2) % 17) as f32 * 0.125 - 1.0);
        let mut c = Matrix::from_fn(m, n, |i, j| ((i + j) % 3) as f32);
        let mut c_ref = c.clone();
        let c_start = c.clone();
        // Use small blocking values so every loop level is exercised even on
        // small problems.
        let blocking = BlockingParams { mc: 24, kc: 16, nc: 36, mr: kernel.mr, nr: kernel.nr };
        let stats = BlisGemm::new(blocking)
            .with_kernel(kernel.clone())
            .gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()))
            .unwrap();
        assert_eq!((stats.m, stats.n, stats.k), (m, n, k));
        // The driver computes the reference's arithmetic, one fused
        // multiply-add per `k` in ascending order, so the blocked result
        // equals it bit for bit.
        NaiveGemm.gemm(GemmProblem::new(a.view(), b.view(), c_ref.view_mut())).unwrap();
        assert_eq!(bits(&c), bits(&c_ref), "{}: blocked driver vs naive reference", kernel.name);
        // A threaded run must agree bit-for-bit: same packing, same op
        // order, disjoint per-thread windows.
        let mut c_threaded = c_start;
        BlisGemm::new(blocking)
            .with_kernel(kernel.clone())
            .with_threads(4)
            .gemm(GemmProblem::new(a.view(), b.view(), c_threaded.view_mut()))
            .unwrap();
        assert_eq!(c.data, c_threaded.data, "{}: threads=4 vs threads=1", kernel.name);
    }

    #[test]
    fn blis_algorithm_matches_naive_for_exact_tiles() {
        check_gemm(&default_kernel(), 48, 48, 32);
    }

    #[test]
    fn blis_algorithm_handles_fringe_tiles() {
        check_gemm(&default_kernel(), 50, 45, 23);
        let scalar_3x5 = MicroKernelGenerator::new(neon_f32()).generate(3, 5).unwrap();
        check_gemm(&exo_kernel(Arc::new(scalar_3x5)), 17, 11, 9);
    }

    #[test]
    fn generated_exo_kernels_drop_into_the_algorithm() {
        let generator = MicroKernelGenerator::new(neon_f32());
        let k8x8 = exo_kernel(Arc::new(generator.generate(8, 8).unwrap()));
        check_gemm(&k8x8, 40, 40, 24);
        let k1x12 = exo_kernel(Arc::new(generator.generate(1, 12).unwrap()));
        check_gemm(&k1x12, 13, 36, 20);
    }

    #[test]
    fn executor_entry_point_uses_the_stored_kernel() {
        let generator = MicroKernelGenerator::new(neon_f32());
        let kernel = exo_kernel(Arc::new(generator.generate(8, 8).unwrap()));
        let blocking = BlockingParams::analytical(&carmel_sim::CacheHierarchy::carmel(), 8, 8, 4);
        let driver = BlisGemm::new(blocking).with_kernel(kernel);
        let a = Matrix::from_fn(20, 12, |i, j| (i * 3 + j) as f32 * 0.125 - 1.0);
        let b = Matrix::from_fn(12, 9, |i, j| (i + j * 2) as f32 * 0.25 - 0.5);
        let mut c = Matrix::zeros(20, 9);
        let mut c_ref = Matrix::zeros(20, 9);
        let stats = driver.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut())).unwrap();
        assert_eq!(&*stats.kernel, "EXO 8x8");
        NaiveGemm.gemm(GemmProblem::new(a.view(), b.view(), c_ref.view_mut())).unwrap();
        assert_eq!(bits(&c), bits(&c_ref));
    }

    #[test]
    fn the_default_kernel_is_the_generated_8x12_with_the_plain_loops_bits() {
        // The default is the generated 8x12 on the native pin (the
        // superword interpreter where the build left no body for it): the bits
        // of `NaiveGemm`'s plain loops, one fused multiply-add per `k` over
        // `alpha * a`, started from `beta * c` (from zero when `beta == 0`,
        // which never reads `C`). Off-grid inputs, so every rounding shows.
        let driver = BlisGemm::new(BlockingParams { mc: 24, kc: 16, nc: 36, mr: 8, nr: 12 });
        let tier = if driver.kernel.generated.native().is_some() {
            ExecBackend::Native
        } else {
            ExecBackend::Superword
        };
        let alpha = -1.3f32;
        for (m, n, k) in [(8usize, 12usize, 16usize), (13, 29, 37), (50, 45, 23), (1, 7, 40)] {
            let a = Matrix::from_fn(m, k, |i, p| ((i * 7 + p * 3 + 1) % 13) as f32 * 0.3 - 1.7);
            let b = Matrix::from_fn(k, n, |p, j| ((p * 5 + j * 11 + 2) % 17) as f32 * 0.11 - 0.9);
            for (beta, col_major) in [(0.0f32, false), (0.75, false), (0.0, true), (0.75, true)] {
                let start = |x: usize| if beta == 0.0 { f32::NAN } else { (x % 7) as f32 * 0.37 - 1.1 };
                let mut c: Vec<f32> = (0..m * n).map(start).collect();
                let mut want = c.clone();
                let run = |gemm: &dyn GemmExecutor, c: &mut [f32]| {
                    let c = if col_major { MatMut::col_major(c, m, n) } else { MatMut::from_slice(c, m, n) };
                    gemm.gemm(GemmProblem::new(a.view(), b.view(), c).alpha(alpha).beta(beta)).unwrap()
                };
                run(&NaiveGemm, &mut want);
                let stats = run(&driver, &mut c);
                assert_eq!((&*stats.kernel, stats.tier), ("EXO 8x12", Some(tier)));
                let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&c), bits(&want), "{m}x{n}x{k}, beta {beta}, column-major {col_major}");
            }
        }
    }

    #[test]
    fn transposes_alpha_and_beta_match_the_strided_reference() {
        // C = alpha * A^T * B^T + beta * C, through the blocked driver vs
        // the naive strided reference.
        let (m, n, k) = (23usize, 17usize, 11usize);
        let at = Matrix::from_fn(k, m, |i, j| ((i * 5 + j * 7 + 3) % 11) as f32 * 0.25 - 1.0);
        let bt = Matrix::from_fn(n, k, |i, j| ((i * 3 + j * 13 + 1) % 7) as f32 * 0.5 - 1.5);
        let c0 = Matrix::from_fn(m, n, |i, j| ((i * 2 + j) % 5) as f32 * 0.5 - 1.0);
        let kernel = default_kernel();
        let blocking = BlockingParams { mc: 8, kc: 4, nc: 12, mr: kernel.mr, nr: kernel.nr };
        fn build<'x>(at: &'x Matrix, bt: &'x Matrix, c: MatMut<'x>) -> GemmProblem<'x> {
            GemmProblem::new(at.view(), bt.view(), c).transpose_a().transpose_b().alpha(-0.5).beta(0.75)
        }
        let mut c_blis = c0.clone();
        BlisGemm::new(blocking).with_kernel(kernel).gemm(build(&at, &bt, c_blis.view_mut())).unwrap();
        let mut c_ref = c0.clone();
        NaiveGemm.gemm(build(&at, &bt, c_ref.view_mut())).unwrap();
        // Dyadic-grid inputs, alpha and beta: exact in f32, so bit for bit.
        assert_eq!(c_blis.data, c_ref.data);
    }

    #[test]
    fn beta_zero_overwrites_nan_garbage() {
        let a = Matrix::from_fn(10, 6, |i, j| (i + j) as f32 * 0.25);
        let b = Matrix::from_fn(6, 7, |i, j| (i * 2 + j) as f32 * 0.125);
        let mut c = Matrix::from_fn(10, 7, |_, _| f32::NAN);
        let kernel = default_kernel();
        let blocking = BlockingParams { mc: 4, kc: 4, nc: 4, mr: kernel.mr, nr: kernel.nr };
        BlisGemm::new(blocking)
            .with_kernel(kernel)
            .gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()).beta(0.0))
            .unwrap();
        assert!(c.data.iter().all(|v| v.is_finite()), "beta = 0 must never read C");
    }

    #[test]
    fn degenerate_k_and_alpha_zero_scale_c_only() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let mut c = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32);
        let gemm = BlisGemm::new(BlockingParams::carmel_defaults(8, 12));
        gemm.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()).beta(2.0)).unwrap();
        assert_eq!(c.get(2, 3), 22.0, "k = 0 still applies beta");
        let a = Matrix::from_fn(3, 5, |_, _| f32::NAN);
        let b = Matrix::from_fn(5, 4, |_, _| f32::NAN);
        gemm.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()).alpha(0.0).beta(0.5)).unwrap();
        assert_eq!(c.get(2, 3), 11.0, "alpha = 0 must not read A or B");
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(5, 4);
        let mut c = Matrix::zeros(4, 4);
        let gemm = BlisGemm::new(BlockingParams::carmel_defaults(8, 12));
        assert!(matches!(
            gemm.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut())),
            Err(GemmError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_problems_are_a_no_op() {
        let a = Matrix::zeros(0, 0);
        let b = Matrix::zeros(0, 0);
        let mut c = Matrix::zeros(0, 0);
        let gemm = BlisGemm::new(BlockingParams::carmel_defaults(8, 12));
        gemm.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut())).unwrap();
    }

    #[test]
    fn blocking_tile_need_not_match_the_kernel_tile() {
        // The public API lets a generic blocking drive any kernel; the
        // arena must size its panels from the kernel's tile, not the
        // blocking's, or packing overruns the buffer.
        let kernel = exo_kernel(Arc::new(MicroKernelGenerator::new(neon_f32()).generate(16, 16).unwrap()));
        let blocking = BlockingParams { mc: 24, kc: 16, nc: 36, mr: 8, nr: 12 };
        let a = Matrix::from_fn(13, 9, |i, j| (i * 2 + j) as f32 * 0.25);
        let b = Matrix::from_fn(9, 13, |i, j| (i + j * 3) as f32 * 0.125);
        let mut c = Matrix::zeros(13, 13);
        let mut c_ref = Matrix::zeros(13, 13);
        BlisGemm::new(blocking)
            .with_kernel(kernel)
            .with_threads(3)
            .gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()))
            .unwrap();
        NaiveGemm.gemm(GemmProblem::new(a.view(), b.view(), c_ref.view_mut())).unwrap();
        assert_eq!(bits(&c), bits(&c_ref));
    }

    /// Where an `m x n` `C` lives in its buffer: element `(i, j)` at
    /// `offset + i * rs + j * cs` of `len` elements. With `via_t` the view
    /// is built as the `n x m` matrix those strides also describe and
    /// handed over as its transpose.
    #[derive(Clone, Copy, Debug)]
    struct CLayout {
        name: &'static str,
        offset: usize,
        rs: usize,
        cs: usize,
        len: usize,
        via_t: bool,
    }

    /// Every `C` layout the shared raw write-back must respect.
    fn c_layouts(m: usize, n: usize) -> [CLayout; 5] {
        let ld = n + 5;
        let layout = |name, offset, rs, cs, len| CLayout { name, offset, rs, cs, len, via_t: false };
        [
            layout("row-major", 0, n, 1, m * n),
            layout("column-major", 0, 1, m, m * n),
            layout("padded sub-view", 2 * ld + 3, ld, 1, (m + 3) * ld),
            CLayout { via_t: true, ..layout("C.t()", 0, 1, m, m * n) },
            layout("row stride 2n", 0, 2 * n, 1, 2 * m * n),
        ]
    }

    /// One strided problem, `C = alpha * op(A) * op(B) + beta * C` over
    /// dyadic-grid operands (every product and partial sum exact in `f32`,
    /// so any two correct executors agree bit for bit) with `C` laid out as
    /// `layout` says inside a buffer of sentinels.
    struct StridedCase {
        dims: (usize, usize, usize),
        op_a: Op,
        op_b: Op,
        alpha: f32,
        beta: f32,
        layout: CLayout,
        /// `A` and `B` as stored: transposed storage under `Op::Transpose`.
        a: Matrix,
        b: Matrix,
    }

    impl StridedCase {
        const PAD: f32 = -77.0;

        fn new(dims: (usize, usize, usize), ops: (Op, Op), scales: (f32, f32), layout: CLayout) -> Self {
            let (m, n, k) = dims;
            let av = |i: usize, p: usize| ((i * 5 + p * 7 + 1) % 11) as f32 * 0.25 - 1.0;
            let bv = |p: usize, j: usize| ((p * 3 + j * 13 + 2) % 17) as f32 * 0.125 - 1.0;
            let a = match ops.0 {
                Op::None => Matrix::from_fn(m, k, av),
                Op::Transpose => Matrix::from_fn(k, m, |p, i| av(i, p)),
            };
            let b = match ops.1 {
                Op::None => Matrix::from_fn(k, n, bv),
                Op::Transpose => Matrix::from_fn(n, k, |j, p| bv(p, j)),
            };
            StridedCase { dims, op_a: ops.0, op_b: ops.1, alpha: scales.0, beta: scales.1, layout, a, b }
        }

        /// Solves the case on `executor` and returns the whole buffer's
        /// bits, having checked that nothing outside the view was written
        /// and that `beta == 0` — under which `C` starts as NaN, since it
        /// must never be read — left nothing but finite values inside it.
        fn run(&self, executor: &dyn GemmExecutor, who: &str) -> Vec<u32> {
            let (m, n, _) = self.dims;
            let CLayout { offset, rs, cs, len, via_t, .. } = self.layout;
            let mut buf = vec![Self::PAD; len];
            let mut in_view = vec![false; len];
            for i in 0..m {
                for j in 0..n {
                    let at = offset + i * rs + j * cs;
                    buf[at] = if self.beta == 0.0 { f32::NAN } else { ((i + j) % 5) as f32 * 0.5 };
                    in_view[at] = true;
                }
            }
            let c = if via_t {
                MatMut::with_strides(&mut buf[offset..], n, m, cs, rs).t()
            } else {
                MatMut::with_strides(&mut buf[offset..], m, n, rs, cs)
            };
            let problem = GemmProblem::new(self.a.view(), self.b.view(), c)
                .op_a(self.op_a)
                .op_b(self.op_b)
                .alpha(self.alpha)
                .beta(self.beta);
            executor.gemm(problem).unwrap();
            for (at, v) in buf.iter().enumerate() {
                if in_view[at] {
                    assert!(self.beta != 0.0 || v.is_finite(), "{self}: {who} read C under beta = 0");
                } else {
                    assert_eq!(v.to_bits(), Self::PAD.to_bits(), "{self}: {who} wrote padding element {at}");
                }
            }
            buf.iter().map(|v| v.to_bits()).collect()
        }
    }

    impl std::fmt::Display for StridedCase {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let (m, n, k) = self.dims;
            write!(
                f,
                "{m}x{n}x{k}, {}, op_a {:?}, op_b {:?}, alpha {}, beta {}",
                self.layout.name, self.op_a, self.op_b, self.alpha, self.beta
            )
        }
    }

    #[test]
    fn wide_short_problems_split_the_jc_loop_bit_identically() {
        // The partitioned threaded path, end to end: both split axes (many
        // `mc` row blocks; one row block under many `nc` column blocks —
        // the wide-and-short case), every `C` layout the shared raw
        // write-back must respect, worker counts that divide the blocks
        // unevenly, and both `beta` regimes. Every run must equal the
        // one-thread run bit for bit and leave the storage outside the
        // view untouched.
        let kernel = default_kernel();
        let blocking = BlockingParams { mc: 32, kc: 16, nc: 24, mr: kernel.mr, nr: kernel.nr };
        let k = 33;
        for (axis, m, n, by_cols) in
            [("row blocks", 200usize, 20usize, false), ("column blocks", 8, 200, true)]
        {
            let windows: Vec<Window> = partition(m, n, &blocking, 3).collect();
            assert_eq!(windows.len(), 3, "{axis}");
            assert!(
                windows.iter().all(|(rows, cols)| if by_cols { *rows == (0..m) } else { *cols == (0..n) }),
                "{axis}: {windows:?}"
            );
            for layout in c_layouts(m, n) {
                for beta in [0.0f32, 0.75] {
                    let case = StridedCase::new((m, n, k), (Op::None, Op::None), (1.0, beta), layout);
                    let sequential = case.run(&BlisGemm::new(blocking), "threads = 1");
                    // And it is actually correct, not just self-consistent.
                    assert_eq!(sequential, case.run(&NaiveGemm, "the reference"), "{axis}, {case}");
                    for threads in [2usize, 3, 8] {
                        let driver = BlisGemm::new(blocking).with_threads(threads);
                        let threaded = case.run(&driver, "a threaded run");
                        assert_eq!(sequential, threaded, "{axis}, {case}, {threads} threads");
                        // Every window's runner went back to the driver,
                        // so the second threaded call on it builds none —
                        // and warm runners change no bit.
                        let built = driver.runners_built();
                        assert_eq!(built as usize, partition(m, n, &blocking, threads).len());
                        assert_eq!(driver.idle_runners(), built as usize);
                        assert_eq!(sequential, case.run(&driver, "a warm threaded run"), "{axis}, {case}");
                        assert_eq!(driver.runners_built(), built, "{axis}, {case}, {threads} threads");
                    }
                }
            }
        }
    }

    #[test]
    fn strided_c_layouts_ops_and_scales_match_the_reference_on_every_kernel_family() {
        // A seeded sweep of what the strided mover sits under: every `C`
        // layout, both transposes, `alpha` and `beta` in {0, 1, -1, 0.75},
        // one worker and three, the generated tiles the host's verdicts
        // serve plus the driver's default, on shapes that are mostly
        // fringe. `BlisGemm` must equal the naive strided reference bit
        // for bit — up to the sign of a zero, the one thing a blocked sum
        // started from `beta * c` and the reference's `alpha * sum +
        // beta * c` may disagree on under a negative scale.
        let zeros_unsigned = |bits: Vec<u32>| -> Vec<u32> {
            bits.into_iter().map(|b| if b == (-0.0f32).to_bits() { 0 } else { b }).collect()
        };
        let generator = MicroKernelGenerator::new(neon_f32());
        let generated = |mr, nr| exo_kernel(Arc::new(generator.generate(mr, nr).unwrap()));
        let kernels = [generated(8, 12), generated(16, 4), generated(8, 8), default_kernel()];
        const SCALES: [f32; 4] = [0.0, 1.0, -1.0, 0.75];
        const OPS: [Op; 2] = [Op::None, Op::Transpose];
        // xorshift64: the draws repeat run to run.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut cases = 0;
        for kernel in &kernels {
            let blocking = BlockingParams { mc: 32, kc: 16, nc: 24, mr: kernel.mr, nr: kernel.nr };
            for dims in [(49usize, 50usize, 23usize), (17, 13, 9), (8, 200, 33)] {
                for layout in c_layouts(dims.0, dims.1) {
                    for threads in [1usize, 3] {
                        let driver =
                            BlisGemm::new(blocking).with_kernel(kernel.clone()).with_threads(threads);
                        // Every beta in every cell; ops and alpha drawn.
                        for beta in SCALES {
                            let ops = (OPS[draw(2)], OPS[draw(2)]);
                            let case = StridedCase::new(dims, ops, (SCALES[draw(4)], beta), layout);
                            assert_eq!(
                                zeros_unsigned(case.run(&driver, "BlisGemm")),
                                zeros_unsigned(case.run(&NaiveGemm, "the reference")),
                                "{}, {threads} threads: {case}",
                                kernel.name
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 4 * 3 * 5 * 2 * 4);
    }

    /// The four `C` layouts the prefetch walk reads strides from, each
    /// ending exactly where its buffer ends: a hint past the last tile
    /// would name an address outside the allocation.
    fn flush_c_layouts(m: usize, n: usize) -> [CLayout; 4] {
        let ld = n + 5;
        let layout = |name, rs, cs, len| CLayout { name, offset: 0, rs, cs, len, via_t: false };
        [
            layout("row-major", n, 1, m * n),
            layout("column-major", 1, m, m * n),
            layout("padded ldc", ld, 1, (m - 1) * ld + n),
            layout("no unit stride", 2 * n, 2, 2 * m * n - 1),
        ]
    }

    #[test]
    fn prefetching_the_next_c_tile_stays_in_c_and_changes_no_bit() {
        // Windows that outgrow the L1d, so every kernel call is preceded by
        // the hints for the next tile: fringe rows under enough columns,
        // and fringe columns beside enough rows, on every kernel family and
        // every `C` layout, `k` across two blocks and both `beta` regimes.
        // Every hint's tile corner comes from `RawMat::at`, which debug
        // builds bound-check; the results must equal `tiling_bits`'
        // reference, the generated 8x12 on the analytical blocking, bit for
        // bit (dyadic-grid operands: any correct executor agrees).
        let host = HostDescription::probed();
        let l1d_floats = host.l1d.bytes / size_of::<f32>();
        // The smallest extent past `l1d_floats / fringe` that is no whole
        // number of `tile`s.
        let outgrowing = |fringe: usize, tile: usize| {
            let extent = l1d_floats / fringe + 1;
            extent + usize::from(extent.is_multiple_of(tile))
        };
        let generator = MicroKernelGenerator::new(neon_f32());
        let generated = |mr, nr| exo_kernel(Arc::new(generator.generate(mr, nr).unwrap()));
        let reference =
            BlisGemm::new(BlockingParams::analytical(&carmel_sim::CacheHierarchy::carmel(), 8, 12, 4))
                .with_kernel(generated(8, 12));
        let kernels = [generated(8, 12), generated(16, 4), generated(8, 8), default_kernel()];
        let k = 20;
        let mut cases = 0;
        for kernel in &kernels {
            let (mr, nr) = (kernel.mr, kernel.nr);
            let driver =
                BlisGemm::new(BlockingParams { mc: 32, kc: 16, nc: 24, mr, nr }).with_kernel(kernel.clone());
            let row_fringes = [mr - 1, mr + 1, 2 * mr + 1].map(|m| (m, outgrowing(m, nr)));
            let column_fringes = [nr - 1, nr + 1, 2 * nr + 1].map(|n| (outgrowing(n, mr), n));
            for (m, n) in row_fringes.into_iter().chain(column_fringes) {
                assert!(c_prefetch_line(m, n, host).is_some(), "{m}x{n} fits the L1d");
                for layout in flush_c_layouts(m, n) {
                    for beta in [0.0f32, 0.75] {
                        let case = StridedCase::new((m, n, k), (Op::None, Op::None), (1.0, beta), layout);
                        assert_eq!(
                            case.run(&driver, "BlisGemm"),
                            case.run(&reference, "the reference"),
                            "{}: {case}",
                            kernel.name
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 4 * 6 * 4 * 2);
    }

    #[test]
    fn the_c_prefetch_starts_where_the_window_outgrows_the_l1d() {
        let host = HostDescription::probed();
        let l1d_floats = host.l1d.bytes / size_of::<f32>();
        assert_eq!(c_prefetch_line(1, l1d_floats, host), None, "a window of exactly the L1d");
        assert_eq!(c_prefetch_line(1, l1d_floats + 1, host), Some(host.l1d.line));
        assert_eq!(c_prefetch_line(24, 16, host), None, "a small served GEMM");
    }

    #[test]
    fn a_packed_b_image_is_the_engines_own_blocks_and_only_fits_its_blocking() {
        let kernel = default_kernel();
        // nc is not a whole number of nr panels, so full blocks pad too.
        let blocking = BlockingParams { mc: 16, kc: 16, nc: 40, mr: kernel.mr, nr: kernel.nr };
        let driver = BlisGemm::new(blocking);
        // Wide-and-short and tall: the threaded runs below split columns
        // for the first and rows for the second.
        for (m, n, k) in [(8usize, 90usize, 23usize), (70, 45, 33)] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 5 + j * 7 + 1) % 11) as f32 * 0.25 - 1.0);
            let stored = Matrix::from_fn(n, k, |i, j| ((i * 3 + j * 13 + 2) % 17) as f32 * 0.125 - 1.0);
            // op(B) = T over the n x k storage: the image packs the
            // effective k x n operand.
            let b = stored.view().t();
            let mut image = PackedB::default();
            driver.pack_b(b, &mut image);
            let mut blocks = Vec::new();
            for jc in (0..n).step_by(blocking.nc) {
                let nc_eff = blocking.nc.min(n - jc);
                for pc in (0..k).step_by(blocking.kc) {
                    let kc_eff = blocking.kc.min(k - pc);
                    let mut block = vec![f32::NAN; nc_eff.div_ceil(kernel.nr) * kc_eff * kernel.nr];
                    pack_b_into(&mut block, b, pc, jc, kc_eff, nc_eff, kernel.nr);
                    assert_eq!(image.block(jc, pc), &block[..], "{m}x{n}x{k}: block ({jc}, {pc})");
                    blocks.extend(block);
                }
            }
            assert_eq!(image.as_slice(), &blocks[..], "{m}x{n}x{k}");

            let c0 = Matrix::from_fn(m, n, |i, j| ((i * 2 + j) % 5) as f32 * 0.5 - 1.0);
            fn build<'x>(a: &'x Matrix, stored: &'x Matrix, c: &'x mut Matrix) -> GemmProblem<'x> {
                GemmProblem::new(a.view(), stored.view(), c.view_mut()).transpose_b().beta(0.75)
            }
            let mut c_view = c0.clone();
            driver.gemm(build(&a, &stored, &mut c_view)).unwrap();
            // A driver of its own: none of its runners has packed a `B`.
            let driver = driver.clone();
            let mut runner = driver.runner();
            for threads in [1usize, 3] {
                let mut c_image = c0.clone();
                driver
                    .run(&mut runner, &mut [build(&a, &stored, &mut c_image)], Some(&image), threads)
                    .unwrap();
                assert_eq!(c_image.data, c_view.data, "{m}x{n}x{k}, {threads} threads");
            }
            assert_eq!(runner.engine.arena.b_capacity(), 0, "a runner served from images packs no B");

            // Packed for another kc, or holding another matrix: refused
            // before anything is sliced, and C is untouched.
            let mut other = PackedB::default();
            BlisGemm::new(BlockingParams { kc: 8, ..blocking }).pack_b(b, &mut other);
            let mut c = c0.clone();
            let refused = driver.run(&mut runner, &mut [build(&a, &stored, &mut c)], Some(&other), 1);
            assert!(matches!(refused, Err(GemmError::ShapeMismatch { .. })), "{refused:?}");
            driver.pack_b(b.submatrix(0, 0, k, n - 1), &mut other);
            let refused = driver.run(&mut runner, &mut [build(&a, &stored, &mut c)], Some(&other), 1);
            assert!(matches!(refused, Err(GemmError::ShapeMismatch { .. })), "{refused:?}");
            assert_eq!(c.data, c0.data);
        }
    }

    /// One stacked entry: `A` as stored (`k x m` under `op(A) = T`) and the
    /// starting `C`.
    struct StackEntry {
        a: Matrix,
        op_a: Op,
        c: Matrix,
    }

    impl StackEntry {
        fn new(m: usize, k: usize, n: usize, op_a: Op, beta: f32, seed: usize) -> Self {
            let av = move |i: usize, p: usize| ((i * 5 + p * 7 + seed) % 11) as f32 * 0.3 - 1.4;
            let a = match op_a {
                Op::None => Matrix::from_fn(m, k, av),
                Op::Transpose => Matrix::from_fn(k, m, move |p, i| av(i, p)),
            };
            let start = move |i: usize, j: usize| ((i + 2 * j + seed) % 7) as f32 * 0.37 - 1.1;
            let c = Matrix::from_fn(m, n, |i, j| if beta == 0.0 { f32::NAN } else { start(i, j) });
            StackEntry { a, op_a, c }
        }

        fn problem<'x>(&'x mut self, b: &'x Matrix, alpha: f32, beta: f32) -> GemmProblem<'x> {
            GemmProblem::new(self.a.view(), b.view(), self.c.view_mut())
                .op_a(self.op_a)
                .alpha(alpha)
                .beta(beta)
        }
    }

    fn bits(c: &Matrix) -> Vec<u32> {
        c.data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_stack_of_problems_is_one_pass_with_each_problems_bits() {
        // Off-grid operands, so every rounding shows: a stack of entries of
        // different `m` (3, 17, 0, 49 and 1 rows, with `op(A) = T` on every
        // other one) is one pass over their 70 stacked rows, whose
        // micro-panels straddle two and three entries, and each entry's `C`
        // must equal its own run and `NaiveGemm`'s bit for bit — with `B`
        // packed in the pass and from an image, on one window and three,
        // under both `beta` regimes and `alpha` in {1, -1.5}, with `k`
        // crossing `kc` and `n` ending in a fringe panel.
        let kernel = default_kernel();
        let blocking = BlockingParams { mc: 24, kc: 16, nc: 36, mr: kernel.mr, nr: kernel.nr };
        let driver = BlisGemm::new(blocking);
        let (n, k) = (41usize, 37usize);
        let b = Matrix::from_fn(k, n, |p, j| ((p * 3 + j * 13 + 2) % 17) as f32 * 0.11 - 0.9);
        let mut image = PackedB::default();
        driver.pack_b(b.view(), &mut image);
        let rows = [3usize, 17, 0, 49, 1];
        let op = |e: usize| if e % 2 == 1 { Op::Transpose } else { Op::None };
        for (alpha, beta) in [(1.0f32, 0.0f32), (-1.5, 0.75)] {
            let fresh = || -> Vec<StackEntry> {
                rows.iter().enumerate().map(|(e, &m)| StackEntry::new(m, k, n, op(e), beta, e)).collect()
            };
            let mut alone = fresh();
            for entry in &mut alone {
                let mut want = entry.c.clone();
                let reference = GemmProblem::new(entry.a.view(), b.view(), want.view_mut())
                    .op_a(entry.op_a)
                    .alpha(alpha)
                    .beta(beta);
                NaiveGemm.gemm(reference).unwrap();
                driver.gemm(entry.problem(&b, alpha, beta)).unwrap();
                assert_eq!(
                    bits(&entry.c),
                    bits(&want),
                    "alpha {alpha}, beta {beta}: the lone run vs NaiveGemm"
                );
            }
            for (packed_b, threads) in [(None, 1usize), (Some(&image), 1), (None, 3), (Some(&image), 3)] {
                let mut stacked = fresh();
                let mut problems: Vec<GemmProblem<'_>> =
                    stacked.iter_mut().map(|entry| entry.problem(&b, alpha, beta)).collect();
                let mut runner = driver.runner();
                let stats = driver.run(&mut runner, &mut problems, packed_b, threads).unwrap();
                driver.put_back(runner);
                drop(problems);
                let m: usize = rows.iter().sum();
                assert_eq!((stats.m, stats.n, stats.k), (m, n, k));
                assert_eq!(stats.flop_count, GemmStats::flops_for(m, n, k, alpha));
                for (e, (got, want)) in stacked.iter().zip(&alone).enumerate() {
                    let label =
                        format!("entry {e}, alpha {alpha}, beta {beta}, image {}", packed_b.is_some());
                    assert_eq!(bits(&got.c), bits(&want.c), "{label}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn a_stack_must_share_b_and_both_scales_and_is_refused_whole() {
        let driver = BlisGemm::new(BlockingParams { mc: 24, kc: 16, nc: 36, mr: 8, nr: 12 });
        // Square, so that `B` transposed has `B`'s shape.
        let (n, k) = (11usize, 11usize);
        let b = Matrix::from_fn(k, n, |p, j| (p + 2 * j) as f32 * 0.25);
        let other_b = b.clone();
        let mut entries: Vec<StackEntry> =
            (0..2).map(|e| StackEntry::new(5, k, n, Op::None, 1.0, e)).collect();
        let starts: Vec<Matrix> = entries.iter().map(|entry| entry.c.clone()).collect();
        let mut runner = driver.runner();
        // (what differs, the second entry's B, its op(B), alpha, beta)
        let refusals = [
            ("another B", &other_b, Op::None, 1.0f32, 1.0f32),
            ("the same B transposed", &b, Op::Transpose, 1.0, 1.0),
            ("another alpha", &b, Op::None, 2.0, 1.0),
            ("another beta", &b, Op::None, 1.0, 0.0),
        ];
        for (what, second_b, op_b, alpha, beta) in refusals {
            let [first, second] = &mut entries[..] else { unreachable!("two entries") };
            let mut problems =
                [first.problem(&b, 1.0, 1.0), second.problem(second_b, alpha, beta).op_b(op_b)];
            let refused = driver.run(&mut runner, &mut problems, None, 1);
            assert!(matches!(refused, Err(GemmError::ShapeMismatch { .. })), "{what}: {refused:?}");
        }
        let refused = driver.run(&mut runner, &mut [], None, 1);
        assert!(matches!(refused, Err(GemmError::ShapeMismatch { .. })), "an empty stack: {refused:?}");
        for (entry, start) in entries.iter().zip(&starts) {
            assert_eq!(bits(&entry.c), bits(start), "a refused stack writes nothing");
        }
    }

    #[test]
    fn a_runner_stages_tiles_and_packs_panels_on_cache_lines() {
        let kernel = exo_kernel(Arc::new(MicroKernelGenerator::new(neon_f32()).generate(8, 12).unwrap()));
        let driver =
            BlisGemm::new(BlockingParams { mc: 64, kc: 48, nc: 96, mr: 8, nr: 12 }).with_kernel(kernel);
        let mut runner = driver.runner();
        let (a, b) =
            (Matrix::from_fn(70, 50, |i, j| (i + j) as f32), Matrix::from_fn(50, 100, |i, j| (i * j) as f32));
        let mut c = Matrix::zeros(70, 100);
        runner.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut())).unwrap();
        let engine = &mut *runner.engine;
        let (ac, bc) = engine.arena.buffers();
        for (what, buf) in [("the C tile", &engine.c_tile[..]), ("Ac", &ac[..]), ("Bc", &bc[..])] {
            assert_eq!(buf.as_ptr().addr() % 64, 0, "{what} does not start on a cache line");
        }
        assert_eq!(runner.engine.c_tile.len(), 8 * 12);
    }

    #[test]
    fn a_driver_keeps_its_runners_warm_and_drops_the_one_whose_pass_unwound() {
        let generator = MicroKernelGenerator::new(neon_f32());
        let kernel = exo_kernel(Arc::new(generator.generate(8, 8).unwrap()));
        let blocking = BlockingParams { mc: 16, kc: 16, nc: 16, mr: 8, nr: 8 };
        let driver = BlisGemm::new(blocking).with_kernel(kernel.clone());
        assert_eq!((driver.idle_runners(), driver.runners_built()), (0, 0));
        let a = Matrix::from_fn(20, 12, |i, j| (i * 3 + j) as f32 * 0.125 - 1.0);
        let b = Matrix::from_fn(12, 9, |i, j| (i + j * 2) as f32 * 0.25 - 0.5);
        let run = |driver: &BlisGemm| {
            let mut c = Matrix::zeros(20, 9);
            let stats = driver.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut())).unwrap();
            (c.data, stats)
        };
        // One call builds one runner and returns it; the next finds it.
        let (cold, stats) = run(&driver);
        assert!(stats.tier.is_some(), "a generated kernel reports the tier that ran");
        assert_eq!((driver.idle_runners(), driver.runners_built()), (1, 1));
        assert_eq!(run(&driver).0, cold, "a warm runner carries no numeric state");
        assert_eq!((driver.idle_runners(), driver.runners_built()), (1, 1));
        // The default kernel runs on the native pin, and an error that is
        // returned, not unwound, costs the driver no runner.
        let default = BlisGemm::new(blocking);
        let tier = if default.kernel.generated.native().is_some() {
            ExecBackend::Native
        } else {
            ExecBackend::Superword
        };
        assert_eq!(run(&default).1.tier, Some(tier));
        let mut c = Matrix::zeros(3, 3);
        assert!(driver.gemm(GemmProblem::new(a.view(), b.view(), c.view_mut())).is_err());
        assert_eq!((driver.idle_runners(), driver.runners_built()), (1, 1));
        // A pass that unwinds takes its runner with it: the next call
        // builds one, and the driver's lock is none the worse.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _runner = driver.runner();
            panic!("a pass that unwinds");
        }));
        assert!(unwound.is_err());
        assert_eq!((driver.idle_runners(), driver.runners_built()), (0, 1));
        assert_eq!(run(&driver).0, cold);
        assert_eq!((driver.idle_runners(), driver.runners_built()), (1, 2));
        // Clones and re-kernelled drivers start with no runners, and a
        // runner built before the public `blocking` field changed is not
        // handed out for the new blocking.
        assert_eq!((driver.clone().idle_runners(), driver.clone().runners_built()), (0, 0));
        assert_eq!(driver.clone().with_kernel(kernel).idle_runners(), 0);
        let mut driver = driver;
        driver.blocking.kc = 8;
        assert_eq!(run(&driver).0, cold, "dyadic inputs: exact under any blocking");
        assert_eq!((driver.idle_runners(), driver.runners_built()), (1, 3));
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let kernel = default_kernel();
        let a = Matrix::from_fn(40, 16, |i, j| (i + j) as f32 * 0.25);
        let b = Matrix::from_fn(16, 24, |i, j| (i * 2 + j) as f32 * 0.125);
        let mut c = Matrix::zeros(40, 24);
        let mut c_ref = Matrix::zeros(40, 24);
        let blocking = BlockingParams { mc: 8, kc: 8, nc: 24, mr: kernel.mr, nr: kernel.nr };
        BlisGemm::new(blocking)
            .with_kernel(kernel)
            .with_threads(0)
            .gemm(GemmProblem::new(a.view(), b.view(), c.view_mut()))
            .unwrap();
        NaiveGemm.gemm(GemmProblem::new(a.view(), b.view(), c_ref.view_mut())).unwrap();
        assert_eq!(bits(&c), bits(&c_ref));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "column index")]
    fn matrix_accessors_check_both_axes_in_debug_builds() {
        // 3 x 4: (0, 5) used to alias silently into row 1 (index 5 of the
        // flat storage); the per-axis assert must catch it.
        let m = Matrix::zeros(3, 4);
        let _ = m.get(0, 5);
    }
}
