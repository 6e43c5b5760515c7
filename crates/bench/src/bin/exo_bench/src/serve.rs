//! `serve_small`: tiny mixed-shape jobs with distinct owned operands
//! through `GemmService<CachedTunedGemm>` with the default `ServiceConfig`,
//! the whole process confined to one CPU (see `affinity.rs` for why).
//! Closed loop, two phases over the same queue:
//!
//! * **rtt** — 1 caller, 1 job outstanding: submit, wait, repeat;
//! * **throughput** — 2 callers x 16 jobs outstanding each.
//!
//! Job construction (cloning the operands into `OwnedMat`s) is inside the
//! throughput clock and outside the round-trip time.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use exo_serve::{CachedTunedGemm, GemmJob, GemmService, JobHandle, OwnedMat, ServiceStats};
use exo_tune::TunedGemm;

use crate::calib::{normalised, Calibrator};
use crate::inputs::{fill, serve_order, stream};
use crate::stats::{median, percentile};
use crate::sweep::tune_and_settle;
use crate::trace::Tracer;
use crate::verify::{all_ok, Tally};
use crate::workload::{Measured, SetupInfo, Shape, Workload};

/// Operand sets per shape: 64 distinct `(A, B)` pairs in all.
const VARIANTS: usize = 8;
/// Shuffled rounds in the job order before it repeats.
const ORDER_ROUNDS: usize = 64;
pub const CALLERS: usize = 2;
pub const OUTSTANDING: usize = 16;
/// Round trips between two calibration bursts of the rtt phase (~3 ms).
const RTT_WINDOW: usize = 512;
/// Length of one segment of the throughput phase, a burst on either side.
const SEGMENT_S: f64 = 0.25;
/// A phase is at least this many windows or segments, however short.
const MIN_PARTS: usize = 3;
/// One job in this many has every entry of its output checked...
const VERIFY_EVERY: usize = 64;
/// ...up to this many jobs per phase (their outputs are kept until the
/// clock stops, so the cap bounds the memory they take).
const VERIFY_CAP: usize = 2048;
const WARMUP_JOBS: usize = 512;
/// Spans a traced run records before it stops tracing further parts.
const SPAN_CAPACITY: usize = 3 << 16;

struct OperandSet {
    shape: Shape,
    a: Vec<f32>,
    b: Vec<f32>,
}

impl OperandSet {
    /// Job construction: distinct owned operands per job.
    fn job(&self) -> GemmJob {
        let (m, n, k) = self.shape.dims();
        GemmJob::new(
            OwnedMat::with_layout(self.a.clone(), m, k, k, 1, 0),
            OwnedMat::with_layout(self.b.clone(), k, n, n, 1, 0),
            OwnedMat::zeros(m, n),
        )
        .beta(0.0)
    }
}

pub struct ServeSmall {
    service: GemmService,
    sets: Vec<OperandSet>,
    order: Vec<u32>,
}

/// How long each phase runs.
#[derive(Clone, Copy)]
pub struct Phases {
    pub rtt_s: f64,
    pub throughput_s: f64,
}

impl Phases {
    /// 40 % of the run for round trips, 60 % for throughput.
    pub fn of(seconds: f64) -> Phases {
        Phases { rtt_s: seconds * 0.4, throughput_s: seconds * 0.6 }
    }
}

pub struct ServeResult {
    pub measured: Measured,
    /// Median over the segments, as the clock read it (not normalised).
    pub jobs_per_s_raw: f64,
    /// Median over the rtt phase's windows of the window's p99 (raw).
    pub rtt_p99_us: f64,
    /// Median over the throughput phase's segments of the submit-to-reply
    /// p50 (raw).
    pub window_latency_p50_us: f64,
    /// Jobs per batch the collector formed in the throughput phase.
    pub mean_batch: f64,
    pub stats: ServiceStats,
    /// Spans of both phases, all callers (empty unless traced); the first
    /// `rtt_spans` of them are the rtt phase's.
    pub tracer: Tracer,
    pub rtt_spans: usize,
}

/// One closed-loop caller's share of a window or segment.
struct Leg {
    /// Index into the job order of this caller's first job...
    first: usize,
    /// ...and the distance to its next one (the number of callers).
    step: usize,
    outstanding: usize,
    stop: Stop,
    /// Outputs it may still keep for verification.
    keep: usize,
}

#[derive(Clone, Copy)]
enum Stop {
    /// After this many jobs have been submitted.
    Jobs(usize),
    /// Stop submitting at this instant, then drain.
    At(Instant),
}

/// What one caller brings back from a leg.
struct LegOut {
    tally: Tally,
    /// Submit-to-reply time of every completed job, us.
    latencies_us: Vec<f64>,
    kept: Vec<(u32, Vec<f32>)>,
    /// Index of the job after this caller's last one.
    next: usize,
    tracer: Tracer,
}

impl ServeSmall {
    /// Useful flops of the average job: every shape is equally frequent.
    pub fn mean_job_flops() -> f64 {
        let shapes = Workload::ServeSmall.shapes();
        shapes.iter().map(|s| s.flops()).sum::<f64>() / shapes.len() as f64
    }

    pub fn setup(seed: u64) -> (ServeSmall, SetupInfo) {
        let shapes = Workload::ServeSmall.shapes();
        let mut info = SetupInfo::default();
        let tuned = TunedGemm::new();
        tune_and_settle(&tuned, &shapes, &mut info);
        let sets: Vec<OperandSet> = (0..shapes.len() * VARIANTS)
            .map(|set| {
                let shape = shapes[set % shapes.len()];
                OperandSet {
                    shape,
                    a: fill(seed, stream::operand(set, 0), shape.m * shape.k),
                    b: fill(seed, stream::operand(set, 1), shape.k * shape.n),
                }
            })
            .collect();
        let order = serve_order(seed, sets.len(), ORDER_ROUNDS);
        let service = GemmService::new(CachedTunedGemm::new(tuned));
        let this = ServeSmall { service, sets, order };
        // Warm-up: the service's runner pools, proofs and reply channels.
        let warm = this.leg(
            Leg { first: 0, step: 1, outstanding: 4, stop: Stop::Jobs(WARMUP_JOBS), keep: 0 },
            Tracer::off(),
        );
        assert_eq!(warm.tally.failed, 0, "warm-up jobs");
        (this, info)
    }

    /// The operand set the `i`-th job of the order uses.
    fn set_of(&self, i: usize) -> u32 {
        self.order[i % self.order.len()]
    }

    /// One closed-loop caller: keeps `outstanding` jobs in flight until the
    /// leg's stop condition, then drains.
    fn leg(&self, leg: Leg, mut tr: Tracer) -> LegOut {
        let mut out = LegOut {
            tally: Tally::default(),
            latencies_us: Vec::new(),
            kept: Vec::new(),
            next: leg.first,
            tracer: Tracer::off(),
        };
        let mut window: VecDeque<(JobHandle, Instant, u32, usize)> = VecDeque::with_capacity(leg.outstanding);
        loop {
            while window.len() < leg.outstanding
                && match leg.stop {
                    Stop::Jobs(jobs) => (out.tally.attempted as usize) < jobs,
                    Stop::At(deadline) => Instant::now() < deadline,
                }
            {
                let (job_idx, set) = (out.next, self.set_of(out.next));
                out.next += leg.step;
                out.tally.attempted += 1;
                let span = tr.begin("exo-serve.job_build", job_idx as u32);
                let job = self.sets[set as usize].job();
                tr.end(span);
                let submitted_at = Instant::now();
                let span = tr.begin("exo-serve.submit", job_idx as u32);
                let handle = self.service.submit(job);
                tr.end(span);
                match handle {
                    Ok(handle) => window.push_back((handle, submitted_at, set, job_idx)),
                    Err(_) => out.tally.failed += 1,
                }
            }
            let Some((handle, submitted_at, set, job_idx)) = window.pop_front() else {
                break;
            };
            let span = tr.begin("exo-serve.wait", job_idx as u32);
            let done = handle.wait();
            tr.end(span);
            match done {
                Ok(job) => {
                    out.latencies_us.push(submitted_at.elapsed().as_secs_f64() * 1e6);
                    if (job_idx / leg.step).is_multiple_of(VERIFY_EVERY) && out.kept.len() < leg.keep {
                        out.kept.push((set, job.c.into_data()));
                    }
                }
                Err(_) => out.tally.failed += 1,
            }
        }
        out.tracer = tr;
        out
    }

    /// Checks every entry of the kept outputs; a wrong one is a failed job.
    fn verify(&self, kept: &[(u32, Vec<f32>)], tally: &mut Tally) {
        for (set, c) in kept {
            let s = &self.sets[*set as usize];
            if !all_ok(&s.a, &s.b, c, s.shape.dims()) {
                println!("  WRONG OUTPUT: job of set {set} ({}x{}x{})", s.shape.m, s.shape.n, s.shape.k);
                tally.failed += 1;
            }
        }
    }

    /// Runs both phases, a calibration burst between every two windows or
    /// segments, then verifies the kept outputs.
    pub fn measure(&self, phases: Phases, traced: bool) -> ServeResult {
        let cal = Calibrator::new();
        let epoch = Instant::now();
        let mut spans = if traced { Tracer::on(epoch, SPAN_CAPACITY) } else { Tracer::off() };
        // A part's tracer, while the run's span budget lasts.
        let part_tracer = |recorded: usize, capacity: usize| {
            if traced && recorded + capacity <= SPAN_CAPACITY {
                Tracer::on(epoch, capacity)
            } else {
                Tracer::off()
            }
        };
        let mut rates = vec![cal.rate()];
        let mut next = 0;

        // rtt: 1 caller, 1 job outstanding, in windows of RTT_WINDOW round trips.
        let (mut rtt_tally, mut rtt_kept) = (Tally::default(), Vec::new());
        let (mut rtt_p50, mut rtt_p50_raw, mut rtt_p99) = (Vec::new(), Vec::new(), Vec::new());
        let deadline = Instant::now() + Duration::from_secs_f64(phases.rtt_s);
        while rtt_p50.len() < MIN_PARTS || Instant::now() < deadline {
            let leg = Leg {
                first: next,
                step: 1,
                outstanding: 1,
                stop: Stop::Jobs(RTT_WINDOW),
                keep: VERIFY_CAP - rtt_kept.len(),
            };
            let out = self.leg(leg, part_tracer(spans.spans().len(), 3 * RTT_WINDOW));
            rates.push(cal.rate());
            next = out.next;
            let p50 = median(&out.latencies_us);
            rtt_p50.push(normalised(p50, rates[rates.len() - 2], rates[rates.len() - 1]));
            rtt_p50_raw.push(p50);
            rtt_p99.push(percentile(&out.latencies_us, 0.99));
            rtt_tally.add(out.tally);
            rtt_kept.extend(out.kept);
            spans.absorb(out.tracer);
        }
        let rtt_spans = spans.spans().len();

        // throughput: CALLERS callers x OUTSTANDING jobs, in segments of SEGMENT_S.
        let before = self.service.stats();
        let (mut thr_tally, mut thr_kept) = (Tally::default(), Vec::new());
        let (mut rate, mut rate_raw, mut latency_p50) = (Vec::new(), Vec::new(), Vec::new());
        let deadline = Instant::now() + Duration::from_secs_f64(phases.throughput_s);
        while rate.len() < MIN_PARTS || Instant::now() < deadline {
            let started = Instant::now();
            let stop = Stop::At(started + Duration::from_secs_f64(SEGMENT_S));
            let keep = (VERIFY_CAP - thr_kept.len()) / CALLERS;
            let recorded = spans.spans().len();
            let outs: Vec<LegOut> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CALLERS)
                    .map(|id| {
                        let leg =
                            Leg { first: next + id, step: CALLERS, outstanding: OUTSTANDING, stop, keep };
                        let tr = part_tracer(recorded, 1 << 15);
                        scope.spawn(move || self.leg(leg, tr))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("caller thread")).collect()
            });
            let elapsed = started.elapsed().as_secs_f64();
            rates.push(cal.rate());
            let mut latencies = Vec::new();
            let mut completed = 0.0;
            for out in outs {
                next = next.max(out.next);
                completed += out.latencies_us.len() as f64;
                latencies.extend(out.latencies_us);
                thr_tally.add(out.tally);
                thr_kept.extend(out.kept);
                spans.absorb(out.tracer);
            }
            rate.push(completed / normalised(elapsed, rates[rates.len() - 2], rates[rates.len() - 1]));
            rate_raw.push(completed / elapsed);
            latency_p50.push(median(&latencies));
        }
        let stats = self.service.stats();

        // The clock has stopped.
        self.verify(&rtt_kept, &mut rtt_tally);
        rtt_tally.print("rtt phase");
        self.verify(&thr_kept, &mut thr_tally);
        thr_tally.print("throughput phase");
        let mut tally = rtt_tally;
        tally.add(thr_tally);

        let (jobs_per_s, rtt_p50_us) = (median(&rate), median(&rtt_p50));
        let batches = (stats.batches - before.batches).max(1);
        let mean_batch = ((stats.jobs_completed + stats.jobs_failed)
            - (before.jobs_completed + before.jobs_failed)) as f64
            / batches as f64;
        println!(
            "  calibration median {:.1} GFLOPS; rtt: {rtt_p50_us:.3} us normalised ({:.3} raw), median of {} windows \
             of {RTT_WINDOW}; throughput: {jobs_per_s:.0} jobs/s normalised ({:.0} raw), median of {} segments, mean \
             batch {mean_batch:.2}",
            median(&rates),
            median(&rtt_p50_raw),
            rtt_p50.len(),
            median(&rate_raw),
            rate.len(),
        );
        ServeResult {
            measured: Measured {
                gflops: jobs_per_s * Self::mean_job_flops() / 1e9,
                latency_ms: rtt_p50_us / 1e3,
                calibration_gflops: median(&rates),
                tally,
            },
            jobs_per_s_raw: median(&rate_raw),
            rtt_p99_us: median(&rtt_p99),
            window_latency_p50_us: median(&latency_p50),
            mean_batch,
            stats,
            tracer: spans,
            rtt_spans,
        }
    }

    /// The operand sets in job order, for the ledger's direct (no queue)
    /// runs of the same jobs: `(dims, a, b)` of the `i`-th job.
    pub fn job_inputs(&self, i: usize) -> ((usize, usize, usize), &[f32], &[f32]) {
        let s = &self.sets[self.set_of(i) as usize];
        (s.shape.dims(), &s.a, &s.b)
    }
}
