//! The metric tables. `BENCHMARK.json` at the repo root lists the same
//! names, units, directions and bounds; a unit test holds the two together.

/// `(name, unit, higher is better, regression bound as a share of the
/// parent's median)`: what a user of the system sees. Every workload
/// reports every one of them, from a run with tracing off.
pub const END_TO_END: [(&str, &str, bool, f64); 4] = [
    ("gflops", "GFLOPS", true, 0.20),
    ("latency_ms", "ms", false, 0.20),
    ("peak_rss_mb", "MB", false, 0.10),
    ("setup_s", "s", false, 0.25),
];

/// `(name, unit, higher is better)`: single layers, from the traced run.
pub const PER_LAYER: [(&str, &str, bool); 52] = [
    ("ukernel-gen.generate_ms", "ms", false),
    ("ukernel-gen.generator_invocations", "count", false),
    ("exo-tune.plan_cold_ms", "ms", false),
    ("exo-tune.distinct_tiles", "count", false),
    ("exo-tune.plan_warm_ns", "ns", false),
    ("exo-tune.kernel_impl_ns", "ns", false),
    ("exo-tune.tuned_vs_8x12", "ratio", true),
    ("exo-tune.min_tuned_vs_8x12", "ratio", true),
    ("exo-aot.cold_build_ms", "ms", false),
    ("exo-aot.native_ready_share", "ratio", true),
    ("exo-aot.builds_failed", "count", false),
    ("exo-aot.ukernel_gflops.8x12", "GFLOPS", true),
    ("exo-aot.ukernel_gflops.12x8", "GFLOPS", true),
    ("exo-aot.ukernel_gflops.4x24", "GFLOPS", true),
    ("exo-codegen.simd_ukernel_gflops", "GFLOPS", true),
    ("exo-codegen.superword_ukernel_gflops", "GFLOPS", true),
    ("exo-codegen.tape_ukernel_gflops", "GFLOPS", true),
    ("gemm-blis.pack_a_gbps", "GB/s", true),
    ("gemm-blis.pack_b_gbps", "GB/s", true),
    ("gemm-blis.pack_a_share", "ratio", false),
    ("gemm-blis.pack_b_share", "ratio", false),
    ("gemm-blis.ukernel_share", "ratio", true),
    ("gemm-blis.other_share", "ratio", false),
    ("gemm-blis.driver_efficiency", "ratio", true),
    ("gemm-blis.mt_speedup", "ratio", true),
    ("gemm-blis.dispatcher_build_ns", "ns", false),
    ("gemm-blis.first_run_proof_ns", "ns", false),
    ("gemm-blis.runner_reuse_ratio", "ratio", false),
    ("gemm-blis.pool_handoff_us", "us", false),
    ("exo-serve.job_build_us", "us", false),
    ("exo-serve.submit_us", "us", false),
    ("exo-serve.wait_us", "us", false),
    ("exo-serve.rtt_p99_us", "us", false),
    ("exo-serve.window_latency_p50_us", "us", false),
    ("exo-serve.direct_per_call_us", "us", false),
    ("exo-serve.direct_batched_us", "us", false),
    ("exo-serve.service_vs_batched", "ratio", true),
    ("exo-serve.batched_vs_per_call", "ratio", true),
    ("exo-serve.small_vs_kernel_rate", "ratio", true),
    ("exo-serve.mean_batch", "count", true),
    ("exo-serve.largest_batch", "count", true),
    ("exo-serve.queue_highwater", "count", false),
    ("exo-serve.runners_built", "count", false),
    ("exo-serve.retries", "count", false),
    ("exo-serve.degraded_completions", "count", false),
    ("exo-serve.jobs_failed", "count", false),
    ("exo-serve.shared_b_vs_solo", "ratio", true),
    ("bench.trace_overhead_share", "ratio", false),
    ("bench.traced_gflops", "GFLOPS", true),
    ("bench.untraced_gflops", "GFLOPS", true),
    ("bench.calibration_gflops", "GFLOPS", true),
    ("bench.spans_recorded", "count", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use exo_tune::json::{parse, Json};

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(|v| v.as_str()).unwrap_or_else(|| panic!("`{key}` of {entry:?}"))
    }

    #[test]
    fn benchmark_json_lists_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let json = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap();

        let workloads = json.get("workloads").and_then(|v| v.as_arr()).unwrap();
        let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));

        let end_to_end = json.get("end_to_end").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, (name, unit, higher, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), name);
            assert_eq!(field(entry, "unit"), unit);
            assert_eq!(field(entry, "better"), if higher { "higher" } else { "lower" });
            assert_eq!(entry.get("bound").and_then(|v| v.as_num()), Some(bound));
        }

        let per_layer = json.get("per_layer").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit, higher)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), name);
            assert_eq!(field(entry, "unit"), unit);
            assert_eq!(field(entry, "better"), if higher { "higher" } else { "lower" });
        }

        let paths = json.get("paths").and_then(|v| v.as_arr()).unwrap();
        assert!(env!("CARGO_MANIFEST_DIR").ends_with(paths[0].as_str().unwrap()));
        assert_eq!(json.get("run_seconds").and_then(|v| v.as_num()), Some(crate::RUN_SECONDS));
    }
}
