//! Every metric the benchmark emits, as declared in `BENCHMARK.json`.

use crate::stats::Better;

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only; per-layer metrics carry no bound).
    pub bound: Option<f64>,
    /// Absolute allowance that applies when it is larger than the share.
    pub floor: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, floor: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        floor,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        floor: 0.0,
    }
}

use Better::{Higher, Lower};

/// Printed with `--trace 0`: medians over the repetitions of one run.
pub const END_TO_END: &[MetricDef] = &[
    e2e(WALL_S, "s", 0.25, 0.0),
    e2e(SETUP_S, "s", 0.25, 0.05),
    e2e(PEAK_RSS_MB, "MiB", 0.25, 0.0),
];

pub const WALL_S: &str = "wall_s";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

// The entry points the traced pass times, as `<layer>.<entry>` slots.
pub const LINT: &str = "nymble_lint.lint";
pub const PERF_LINT: &str = "nymble_lint.perf_lint";
pub const COMPILE: &str = "nymble_hls.compile";
pub const EXEC: &str = "fpga_sim.exec";
pub const ANALYTIC: &str = "fpga_sim.analytic";
pub const RECORD: &str = "hls_profiling.record";
pub const DECODE: &str = "hls_profiling.decode";
pub const DIAGNOSE: &str = "hls_profiling.diagnose";
pub const WRITE: &str = "paraver.write";
pub const PARSE: &str = "paraver.parse";
pub const ANALYSIS: &str = "paraver.analysis";

/// Each timed slot with the per-layer metric giving its share of the
/// traced wall. Together with `bench.unattributed_pct` the shares add up
/// to 100%.
pub const SHARES: &[(&str, &str)] = &[
    (LINT, "nymble_lint.lint_pct"),
    (PERF_LINT, "nymble_lint.perf_lint_pct"),
    (COMPILE, "nymble_hls.compile_pct"),
    (EXEC, "fpga_sim.exec_pct"),
    (ANALYTIC, "fpga_sim.analytic_pct"),
    (RECORD, "hls_profiling.record_pct"),
    (DECODE, "hls_profiling.decode_pct"),
    (DIAGNOSE, "hls_profiling.diagnose_pct"),
    (WRITE, "paraver.write_pct"),
    (PARSE, "paraver.parse_pct"),
    (ANALYSIS, "paraver.analysis_pct"),
];

/// Printed with `--trace 1`: medians over the traced passes of one run.
/// Time inside a layer is given as a share of the traced wall and as the
/// layer's throughput, never as bare seconds: a layer a workload does not
/// call would read exactly zero seconds on every run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("nymble_lint.lint_pct", "%", Lower),
    layer("nymble_lint.perf_lint_pct", "%", Lower),
    layer("nymble_lint.kernels_per_s", "1/s", Higher),
    layer("nymble_lint.findings", "count", Lower),
    layer("nymble_hls.compile_pct", "%", Lower),
    layer("nymble_hls.compiles_per_s", "1/s", Higher),
    layer("nymble_hls.compiles", "count", Lower),
    layer("nymble_hls.probe_alms", "ALM", Lower),
    layer("nymble_hls.cache_hit_ratio", "ratio", Higher),
    layer("fpga_sim.exec_pct", "%", Lower),
    layer("fpga_sim.analytic_pct", "%", Lower),
    layer("fpga_sim.sim_mcps", "Mcycles/s", Higher),
    layer("fpga_sim.sim_cycles", "cycles", Lower),
    layer("fpga_sim.stall_cycles", "cycles", Lower),
    layer("fpga_sim.line_hit_ratio", "ratio", Higher),
    layer("fpga_sim.dram_contended", "count", Lower),
    layer("fpga_sim.analytic_err_pct", "%", Lower),
    layer("hls_profiling.record_pct", "%", Lower),
    layer("hls_profiling.record_overhead_pct", "%", Lower),
    layer("hls_profiling.decode_pct", "%", Lower),
    layer("hls_profiling.decode_mrec_s", "Mrecords/s", Higher),
    layer("hls_profiling.diagnose_pct", "%", Lower),
    layer("hls_profiling.flushed_bytes", "bytes", Lower),
    layer("hls_profiling.records", "count", Lower),
    layer("paraver.write_pct", "%", Lower),
    layer("paraver.write_mb_s", "MB/s", Higher),
    layer("paraver.parse_pct", "%", Lower),
    layer("paraver.parse_mb_s", "MB/s", Higher),
    layer("paraver.analysis_pct", "%", Lower),
    layer("paraver.bundle_bytes", "bytes", Lower),
    layer("bench.utilization", "ratio", Higher),
    layer("bench.steals", "count", Lower),
    layer("bench.parks", "count", Lower),
    layer("bench.makespan_pct", "%", Lower),
    layer("bench.traced_wall_s", "s", Lower),
    layer("bench.unattributed_pct", "%", Lower),
];

/// Look a metric up by name in either list.
#[cfg(test)]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    /// A metric or workload name: a letter or digit first, then at most 63
    /// more of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn metric_names_are_limited_to_the_allowed_alphabet() {
        for ok in [
            "wall_s",
            "fpga_sim.exec_s",
            "a",
            "9x",
            "bench.unattributed_s",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "has space",
            "a/b",
            "é",
            "a:b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, list: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(list)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                    m.get("better")
                        .and_then(Json::as_str)
                        .expect("better")
                        .to_string(),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn emitted_and_declared_metrics_are_the_same_set() {
        let doc = benchmark_json();
        for (list, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut from_file = declared(&doc, list);
            let mut from_code: Vec<_> = defs
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        match m.better {
                            Better::Lower => "lower",
                            Better::Higher => "higher",
                        }
                        .to_string(),
                        m.bound,
                    )
                })
                .collect();
            from_file.sort_by(|a, b| a.0.cmp(&b.0));
            from_code.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(
                from_file, from_code,
                "`{list}` in BENCHMARK.json vs the code"
            );
        }
    }

    #[test]
    fn declared_workloads_are_the_ones_the_binary_runs() {
        let doc = benchmark_json();
        let from_file: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let from_code: Vec<&str> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(from_file, from_code);
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(find(m.name).is_some());
        }
        for (_, share) in SHARES {
            assert!(find(share).is_some_and(|m| m.unit == "%"), "{share}");
        }
        assert!(END_TO_END.iter().any(|m| m.name == SETUP_S));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }
}
