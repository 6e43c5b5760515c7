//! `exo_bench`: the repo's benchmark. One process per workload run:
//!
//! ```text
//! exo_bench --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--out <dir>]
//! exo_bench --all --seed <u64> [--seconds <n>]         every workload, both kinds of run
//! exo_bench --self-check --seed <u64> [--seconds <n>]  every workload twice; do the runs agree?
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics for `--seconds`
//! seconds; with `--trace 1` it measures the per-layer metrics instead (see
//! README.md). The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod affinity;
mod batch;
mod calib;
mod inputs;
mod ledger;
mod metrics;
mod replay;
mod serve;
mod stats;
mod sweep;
mod trace;
mod verify;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use batch::BatchSharedB;
use calib::{normalised, Calibrator};
use exo_tune::json::Json;
use ledger::{Ledger, Metrics};
use metrics::{END_TO_END, PER_LAYER};
use serve::{Phases, ServeSmall};
use sweep::Sweep;
use trace::Tracer;
use verify::Tally;
use workload::{Measured, SetupInfo, Workload};

/// How long one run measures unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 16.0;
/// Set-ups timed in child processes besides the run's own: `setup_s` is the
/// median of all of them, each in a fresh process with a cold artifact cache.
const SETUP_PROBES: usize = 2;
/// Overrides that would make the run measure something else than the
/// default hot path; the benchmark refuses to start under any of them.
const REFUSED_ENV: [&str; 4] = ["EXO_BACKEND", "EXO_ISA", "EXO_THREADS", "EXO_FAULT"];
/// Spans the traced quarter-run of a GEMM or batch workload may record.
const SPAN_CAPACITY: usize = 1 << 16;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    mode: Mode,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Run,
    SetupProbe,
    ServeProbe,
    All,
    SelfCheck,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out, mut mode) =
        (None, None, RUN_SECONDS, false, None, Mode::Run);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    format!(
                        "unknown workload `{name}` (expected one of: {})",
                        Workload::ALL.map(Workload::name).join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be above 0 and at most 60".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--all" => mode = Mode::All,
            "--self-check" => mode = Mode::SelfCheck,
            "--setup-probe" => mode = Mode::SetupProbe,
            "--serve-probe" => mode = Mode::ServeProbe,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if matches!(mode, Mode::Run | Mode::SetupProbe) && workload.is_none() {
        return Err("--workload is required".into());
    }
    // By default everything the run leaves behind goes next to the binary,
    // inside the cargo target directory.
    let out = match out {
        Some(dir) => dir,
        None => {
            let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
            exe.parent().and_then(Path::parent).ok_or("binary has no target directory")?.join("exo_bench_out")
        }
    };
    Ok(Args { workload, seed, seconds, trace, out, mode })
}

/// A workload, set up and warm. One value per process: the size difference
/// between variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Ctx {
    Sweep(Sweep),
    Serve(ServeSmall),
    Batch(BatchSharedB),
}

/// Set-up: generate kernels, tune every shape the workload uses, wait for
/// every verdict's native kernel, make the seeded inputs, run one untimed
/// warm-up pass. Returns how long that took, normalised like every other
/// time to the core's speed (a calibration burst before and after).
fn setup(workload: Workload, seed: u64) -> (Ctx, SetupInfo, f64) {
    let cal = Calibrator::new();
    let before = cal.rate();
    let started = Instant::now();
    let (ctx, info) = match workload {
        Workload::ServeSmall => {
            let (ctx, info) = ServeSmall::setup(seed);
            (Ctx::Serve(ctx), info)
        }
        Workload::BatchSharedB => {
            let (ctx, info) = BatchSharedB::setup(seed);
            (Ctx::Batch(ctx), info)
        }
        _ => {
            let (ctx, info) = Sweep::setup(workload, seed);
            (Ctx::Sweep(ctx), info)
        }
    };
    let took = started.elapsed().as_secs_f64();
    (ctx, info, normalised(took, before, cal.rate()))
}

impl Ctx {
    fn measure(&mut self, seed: u64, seconds: f64, tr: &mut Tracer) -> Measured {
        match self {
            Ctx::Sweep(sweep) => sweep.measure(seed, seconds, tr),
            Ctx::Batch(batch) => batch.measure(seed, seconds, tr),
            Ctx::Serve(serve) => serve.measure(Phases::of(seconds), false).measured,
        }
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// First line of `program --version`-style output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8_lossy(&out.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON object from its fields.
fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(key, value)| (key.to_string(), value)).collect())
}

/// A JSON number with all its digits; a non-finite value has no JSON form
/// and becomes `null`.
fn num(value: f64) -> Json {
    if value.is_finite() {
        Json::Num(value)
    } else {
        Json::Null
    }
}

/// What produced the numbers: written into every result file.
fn stamp(args: &Args, workload: Workload) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    // The driver's checkout is not a git repository; only ask git where it is one.
    let commit = if Path::new(".git").exists() {
        first_line_of("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    obj([
        ("workload", Json::Str(workload.name().into())),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", num(nproc as f64)),
        ("active_isa", Json::Str(gemm_blis::active_isa().name().into())),
        (
            "isa_available",
            Json::Obj(
                gemm_blis::IsaKind::ALL
                    .iter()
                    .map(|isa| (isa.name().to_string(), Json::Bool(isa.available())))
                    .collect(),
            ),
        ),
        ("native_available", Json::Bool(gemm_blis::native_available())),
        ("toolchain", Json::Str(gemm_blis::toolchain().map_or("none".into(), |tc| tc.version.clone()))),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        ("git_commit", Json::Str(commit)),
    ])
}

/// Runs this binary again with `extra` arguments (plus this run's seed and
/// output directory) and returns what it printed: a fresh process with its
/// own cold artifact cache.
fn run_self(args: &Args, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    let out = Command::new(exe)
        .args(extra)
        .args(["--seed", &args.seed.to_string(), "--out"])
        .arg(&args.out)
        .output()
        .map_err(|e| format!("cannot start `{}`: {e}", extra.join(" ")))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if out.status.success() {
        Ok(text)
    } else {
        Err(format!("`{}` failed ({}): {text}", extra.join(" "), out.status))
    }
}

/// Times one set-up in a child process.
fn setup_probe(args: &Args, workload: Workload) -> Result<f64, String> {
    let text = run_self(args, &["--setup-probe", "--workload", workload.name()])?;
    text.lines()
        .find_map(|line| line.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or_else(|| format!("set-up probe printed no time: {text}"))
}

/// The `exo-serve.*` service metrics from a one-second run of `serve_small`
/// in a child process, confined to one CPU as that workload always is.
fn serve_probe(args: &Args, m: &mut Metrics) -> Result<(), String> {
    let text = run_self(args, &["--serve-probe"])?;
    for line in text.lines() {
        let Some((name, value)) = line.strip_prefix("metric ").and_then(|rest| rest.split_once(' ')) else {
            continue;
        };
        let name = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .ok_or_else(|| format!("unknown metric `{name}`"))?
            .0;
        m.insert(name, value.parse::<f64>().map_err(|e| format!("{name}: {e}"))?);
    }
    Ok(())
}

/// The result of a run: the last line of its standard output.
fn result_json(correct: bool, tally: Tally, metrics: &[(&str, f64, &str)]) -> Json {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            (name.to_string(), obj([("value", num(*value)), ("unit", Json::Str(unit.to_string()))]))
        })
        .collect();
    obj([
        ("correct", Json::Bool(correct)),
        ("attempted", num(tally.attempted as f64)),
        ("failed", num(tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One workload run in this process. Returns the process exit code.
fn run(args: &Args, workload: Workload) -> Result<ExitCode, String> {
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!("{var} is set: the benchmark only measures the default hot path"));
        }
    }
    // Before any thread exists: one CPU for `serve_small`, and a fresh, empty
    // artifact cache, so set-up means the same thing on every run.
    if workload == Workload::ServeSmall {
        match affinity::confine_to_one_cpu() {
            Some(cpu) => println!("{}: confined to CPU {cpu}", workload.name()),
            None => println!("{}: NOT confined to one CPU; expect cross-CPU wake-ups", workload.name()),
        }
    }
    let aot_dir = args.out.join(format!("aot.{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&aot_dir);
    std::fs::create_dir_all(&aot_dir).map_err(|e| format!("cannot create {}: {e}", aot_dir.display()))?;
    std::env::set_var("EXO_AOT_DIR", &aot_dir);
    let outcome = run_in(args, workload);
    let _ = std::fs::remove_dir_all(&aot_dir);
    outcome
}

fn run_in(args: &Args, workload: Workload) -> Result<ExitCode, String> {
    let mut setups = Vec::new();
    if args.mode == Mode::Run && !args.trace {
        for _ in 0..SETUP_PROBES {
            setups.push(setup_probe(args, workload)?);
        }
    }
    let (mut ctx, info, setup_s) = setup(workload, args.seed);
    setups.push(setup_s);
    println!("{}: set up in {setup_s:.3} s (probes: {setups:.3?})", workload.name());
    let native_ready_share = info.native_ready as f64 / info.native_total.max(1) as f64;
    if gemm_blis::native_available() && native_ready_share < 1.0 {
        // Not a silent slow run: every throughput metric would read ~3x low.
        return Err(format!(
            "only {} of {} native kernels are ready on a host with a C toolchain",
            info.native_ready, info.native_total
        ));
    }
    if args.mode == Mode::SetupProbe {
        println!("setup_s {setup_s}");
        return Ok(ExitCode::SUCCESS);
    }
    if let (Mode::ServeProbe, Ctx::Serve(serve)) = (args.mode, &ctx) {
        let mut m = Metrics::new();
        ledger::serve_layer(serve, &serve.measure(Phases { rtt_s: 0.4, throughput_s: 0.6 }, true), &mut m);
        for (name, value) in m {
            println!("metric {name} {value}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    let (tally, metrics): (Tally, Vec<(&str, f64, &str)>) = if args.trace {
        let (tally, values) = traced_run(args, workload, &mut ctx, &info)?;
        let mut metrics = Vec::new();
        for (name, unit, _) in PER_LAYER {
            let value =
                *values.get(name).ok_or_else(|| format!("per-layer metric `{name}` was not measured"))?;
            metrics.push((name, value, unit));
        }
        (tally, metrics)
    } else {
        let measured = ctx.measure(args.seed, args.seconds, &mut Tracer::off());
        let values = [measured.gflops, measured.latency_ms, peak_rss_mb(), stats::median(&setups)];
        (
            measured.tally,
            END_TO_END.iter().zip(values).map(|((name, unit, _, _), v)| (*name, v, *unit)).collect(),
        )
    };

    tally.print("run");
    println!("  failed_share {}", tally.failed as f64 / tally.attempted.max(1) as f64);
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>14.4} {unit}");
    }
    let correct = tally.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    let result = result_json(correct, tally, &metrics);
    let line = result.to_text();
    let file = args.out.join(format!("result.{}.trace{}.json", workload.name(), u8::from(args.trace)));
    let text = obj([("stamp", stamp(args, workload)), ("result", result)]).to_text();
    std::fs::write(&file, text + "\n").map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("  wrote {}", file.display());
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// The traced run: the workload at a quarter of the time with tracing off,
/// again with spans recorded, then the per-layer ledger.
fn traced_run(
    args: &Args,
    workload: Workload,
    ctx: &mut Ctx,
    info: &SetupInfo,
) -> Result<(Tally, Metrics), String> {
    let quarter = args.seconds / 4.0;
    let mut tr = Tracer::on(Instant::now(), SPAN_CAPACITY);
    let untraced = ctx.measure(args.seed, quarter, &mut Tracer::off());
    let (traced, serve_result) = match ctx {
        Ctx::Serve(serve) => {
            let result = serve.measure(Phases::of(quarter), true);
            (result.measured, Some(result))
        }
        _ => (ctx.measure(args.seed, quarter, &mut tr), None),
    };
    let mut tally = untraced.tally;
    tally.add(traced.tally);

    let (serve, batch) = match ctx {
        Ctx::Serve(serve) => (serve_result.map(|result| (&*serve, result)), None),
        Ctx::Batch(batch) => (None, Some(batch)),
        Ctx::Sweep(_) => (None, None),
    };
    let probe_serve = serve.is_none();
    let mut m = Ledger { workload, seed: args.seed, serve, batch }.run(&mut tr);
    if probe_serve {
        serve_probe(args, &mut m)?;
    }
    m.insert("exo-aot.cold_build_ms", info.cold_build_ms);
    m.insert("exo-aot.native_ready_share", info.native_ready as f64 / info.native_total.max(1) as f64);
    m.insert("exo-aot.builds_failed", exo_aot::engine().stats().builds_failed as f64);
    m.insert("bench.trace_overhead_share", (untraced.gflops - traced.gflops) / untraced.gflops);
    m.insert("bench.traced_gflops", traced.gflops);
    m.insert("bench.untraced_gflops", untraced.gflops);
    m.insert("bench.calibration_gflops", traced.calibration_gflops);
    m.insert("bench.spans_recorded", tr.spans().len() as f64);

    let header = [("workload", workload.name().to_string()), ("seed", args.seed.to_string())];
    let file = args.out.join(format!("trace.{}.json", workload.name()));
    std::fs::write(&file, trace::write_json(tr.spans(), tr.dropped, &header))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("  wrote {} ({} spans, {} dropped)", file.display(), tr.spans().len(), tr.dropped);
    println!("  self time by span name:");
    for (name, t) in trace::totals(tr.spans()) {
        println!(
            "    {name:<28} {:>8} spans {:>12.3} ms total {:>12.3} ms self",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Ok((tally, m))
}

/// Runs one workload in a child process, shows what it printed and parses
/// its result line.
fn child_run(args: &Args, workload: Workload, trace: bool, seconds: f64) -> Result<Json, String> {
    let (seconds, trace) = (seconds.to_string(), if trace { "1" } else { "0" });
    let text = run_self(args, &["--workload", workload.name(), "--seconds", &seconds, "--trace", trace])?;
    print!("{text}");
    exo_tune::json::parse(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("unreadable result line: {e}"))
}

fn metric_of(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_num()
}

fn failed_of(result: &Json) -> f64 {
    result.get("failed").and_then(|v| v.as_num()).unwrap_or(f64::NAN)
}

/// `--all`: every workload, an end-to-end run and a traced run each, then
/// every metric by name with its unit.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        rows.push((
            workload,
            child_run(args, workload, false, args.seconds)?,
            child_run(args, workload, true, args.seconds)?,
        ));
    }
    let mut failed = 0.0;
    for (workload, end_to_end, per_layer) in &rows {
        println!("\n== {} ==", workload.name());
        failed += failed_of(end_to_end) + failed_of(per_layer);
        println!(
            "  {:<40} {:>14} ratio",
            "failed_share",
            failed_of(end_to_end) / end_to_end.get("attempted").and_then(|v| v.as_num()).unwrap_or(1.0)
        );
        for (name, unit, _, _) in END_TO_END {
            println!("  {name:<40} {:>14.4} {unit}", metric_of(end_to_end, name).unwrap_or(f64::NAN));
        }
        for (name, unit, _) in PER_LAYER {
            println!("  {name:<40} {:>14.4} {unit}", metric_of(per_layer, name).unwrap_or(f64::NAN));
        }
    }
    Ok(if failed == 0.0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The per-layer counts that must repeat exactly between two runs.
const EXACT_COUNTS: [&str; 5] = [
    "ukernel-gen.generator_invocations",
    "exo-tune.distinct_tiles",
    "exo-aot.builds_failed",
    "exo-serve.jobs_failed",
    "exo-serve.retries",
];

/// `--self-check`: every workload twice (a tenth of the run length unless
/// `--seconds` is given); fails if an end-to-end metric differs between the
/// two runs by more than its bound, or an exact count differs at all.
fn self_check(args: &Args) -> Result<ExitCode, String> {
    let seconds = if args.seconds == RUN_SECONDS { RUN_SECONDS / 10.0 } else { args.seconds };
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        let runs = [child_run(args, workload, false, seconds)?, child_run(args, workload, false, seconds)?];
        for (name, _, _, bound) in END_TO_END {
            let (a, b) = (
                metric_of(&runs[0], name).unwrap_or(f64::NAN),
                metric_of(&runs[1], name).unwrap_or(f64::NAN),
            );
            // NaN compares false and so is reported.
            let agree = (a - b).abs() <= bound * a.min(b);
            if !agree {
                problems.push(format!("{}: {name} {a} vs {b} differ by more than {bound}", workload.name()));
            }
        }
        let traced = [child_run(args, workload, true, seconds)?, child_run(args, workload, true, seconds)?];
        for name in EXACT_COUNTS {
            let (a, b) = (metric_of(&traced[0], name), metric_of(&traced[1], name));
            if a.is_none() || a != b {
                problems.push(format!("{}: {name} {a:?} vs {b:?} must be equal", workload.name()));
            }
        }
        for result in runs.iter().chain(&traced) {
            if failed_of(result) != 0.0 {
                problems.push(format!("{}: {} operations failed", workload.name(), failed_of(result)));
            }
        }
    }
    println!("\nself-check: {} problem(s)", problems.len());
    for problem in &problems {
        println!("  {problem}");
    }
    Ok(if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        std::fs::create_dir_all(&args.out)
            .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
        match args.mode {
            Mode::All => run_all(&args),
            Mode::SelfCheck => self_check(&args),
            Mode::ServeProbe => run(&args, Workload::ServeSmall),
            Mode::Run | Mode::SetupProbe => run(&args, args.workload.expect("checked by parse_args")),
        }
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("exo_bench: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_round_trips_with_all_digits_and_null_for_nan() {
        let tally = Tally { attempted: 1000, failed: 2 };
        let metrics = [("latency_ms", 1.2034567890123, "ms"), ("exo-tune.x", f64::NAN, "ratio")];
        let line = result_json(false, tally, &metrics).to_text();
        assert!(!line.contains('\n'));
        let json = exo_tune::json::parse(&line).expect("result line parses");
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(json.get("attempted").and_then(|v| v.as_usize()), Some(1000));
        assert_eq!(failed_of(&json), 2.0);
        assert_eq!(metric_of(&json, "latency_ms"), Some(1.2034567890123));
        assert_eq!(
            json.get("metrics").and_then(|m| m.get("latency_ms")).and_then(|m| m.get("unit")),
            Some(&Json::Str("ms".into()))
        );
        assert_eq!(
            json.get("metrics").and_then(|m| m.get("exo-tune.x")).and_then(|m| m.get("value")),
            Some(&Json::Null)
        );
        assert_eq!(json.as_obj().map(|o| o.len()), Some(4));
    }
}
