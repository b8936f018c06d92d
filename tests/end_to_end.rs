//! Cross-crate integration tests: the full pipeline (builder → HLS compile →
//! cycle-level simulation with the profiling unit → trace decode → Paraver
//! round-trip → analysis) and its conservation invariants.

use hls_paraver::hls::accel::{compile, HlsConfig};
use hls_paraver::ir::interp::Interpreter;
use hls_paraver::ir::Value;
use hls_paraver::kernels::gemm::{build, GemmParams, GemmVersion};
use hls_paraver::kernels::pi::{self, PiParams};
use hls_paraver::kernels::reference;
use hls_paraver::paraver::analysis::{event_total, find_critical_overlap, StateProfile};
use hls_paraver::paraver::{events, states};
use hls_paraver::profiling::{ProfilingConfig, ProfilingUnit, TraceData};
use hls_paraver::sim::memimg::LaunchArg;
use hls_paraver::sim::{Executor, RunResult, SimConfig};

fn small() -> GemmParams {
    GemmParams {
        dim: 16,
        threads: 2,
        vec: 4,
        block: 8,
    }
}

fn vals(m: &[f32]) -> Vec<Value> {
    m.iter().map(|&x| Value::F32(x)).collect()
}

fn run_gemm_profiled(v: GemmVersion, p: &GemmParams, period: u64) -> (RunResult, TraceData) {
    let kernel = build(v, p);
    let acc = compile(&kernel, &HlsConfig::default());
    let d = p.dim as usize;
    let a = reference::gen_matrix(d, 1);
    let b = reference::gen_matrix(d, 2);
    let mut unit = ProfilingUnit::new(
        &kernel.name,
        p.threads,
        ProfilingConfig {
            sampling_period: period,
            ..Default::default()
        },
    );
    let r = Executor::run(
        &kernel,
        &acc,
        &SimConfig::default().with_fast_launch(),
        &[
            LaunchArg::Buffer(vals(&a)),
            LaunchArg::Buffer(vals(&b)),
            LaunchArg::Buffer(vec![Value::F32(0.0); d * d]),
        ],
        &mut unit,
    )
    .expect("simulation failed");
    (r, unit.finish())
}

/// The simulator's functional results must match the gold interpreter and
/// the CPU reference for every GEMM version.
#[test]
fn simulator_matches_gold_and_reference() {
    let p = small();
    let d = p.dim as usize;
    let a = reference::gen_matrix(d, 1);
    let b = reference::gen_matrix(d, 2);
    let gold_c = reference::gemm(&a, &b, d);
    for v in GemmVersion::ALL {
        let (r, _) = run_gemm_profiled(v, &p, 1_000);
        for (i, (g, e)) in r.buffers[2].to_f32().iter().zip(&gold_c).enumerate() {
            assert!(
                (g - e).abs() < 1e-3 * e.abs().max(1.0),
                "{v:?} at {i}: {g} vs {e}"
            );
        }
    }
}

/// Conservation: the flops recorded in the decoded Paraver trace must equal
/// the simulator's ground-truth counters and the gold interpreter's count.
#[test]
fn trace_flops_are_conserved() {
    let p = small();
    let (r, trace) = run_gemm_profiled(GemmVersion::NoCritical, &p, 500);
    let trace_flops = event_total(&trace.records, events::FLOPS);
    assert_eq!(trace_flops, r.stats.total_flops(), "trace vs sim counters");
    // Gold model agrees.
    let kernel = build(GemmVersion::NoCritical, &p);
    let d = p.dim as usize;
    let a = reference::gen_matrix(d, 1);
    let b = reference::gen_matrix(d, 2);
    let gold = Interpreter::run(
        &kernel,
        &[
            LaunchArg::Buffer(vals(&a)),
            LaunchArg::Buffer(vals(&b)),
            LaunchArg::Buffer(vec![Value::F32(0.0); d * d]),
        ],
    );
    assert_eq!(trace_flops, gold.ops.flops, "trace vs gold model");
}

/// Conservation: traced request bytes equal the simulator's byte counters.
#[test]
fn trace_bytes_are_conserved() {
    let p = small();
    for v in [GemmVersion::Vectorized, GemmVersion::DoubleBuffered] {
        let (r, trace) = run_gemm_profiled(v, &p, 500);
        assert_eq!(
            event_total(&trace.records, events::BYTES_READ),
            r.stats.total(|t| t.bytes_read),
            "{v:?} read bytes"
        );
        assert_eq!(
            event_total(&trace.records, events::BYTES_WRITTEN),
            r.stats.total(|t| t.bytes_written),
            "{v:?} written bytes"
        );
    }
}

/// Every thread's state intervals must tile [0, duration) exactly — no gaps,
/// no overlaps (the decoder closes what the recorder opened).
#[test]
fn states_partition_the_run() {
    let p = small();
    let (_, trace) = run_gemm_profiled(GemmVersion::Naive, &p, 1_000);
    for t in 0..p.threads {
        let mut intervals: Vec<(u64, u64)> = trace
            .records
            .iter()
            .filter_map(|rec| match rec {
                hls_paraver::paraver::Record::State {
                    thread, begin, end, ..
                } if *thread == t => Some((*begin, *end)),
                _ => None,
            })
            .collect();
        intervals.sort_unstable();
        assert_eq!(intervals.first().map(|i| i.0), Some(0), "thread {t} start");
        assert_eq!(
            intervals.last().map(|i| i.1),
            Some(trace.meta.duration),
            "thread {t} end"
        );
        for w in intervals.windows(2) {
            assert_eq!(w[0].1, w[1].0, "thread {t}: gap or overlap at {w:?}");
        }
    }
}

/// Mutual exclusion is visible in the trace: no two Critical intervals
/// overlap, ever (the invariant behind Fig. 6's zoom).
#[test]
fn critical_sections_never_overlap_in_trace() {
    let p = GemmParams {
        dim: 16,
        threads: 4,
        vec: 4,
        block: 8,
    };
    let (_, trace) = run_gemm_profiled(GemmVersion::Naive, &p, 500);
    assert_eq!(
        find_critical_overlap(&trace.records, states::CRITICAL),
        None
    );
    // And the naive version does spend time in Critical and Spinning.
    let prof = StateProfile::compute(&trace.records, p.threads);
    assert!(prof.fraction(states::CRITICAL) > 0.0);
    assert!(prof.fraction(states::SPINNING) > 0.0);
}

/// Write the full `.prv`/`.pcf`/`.row` bundle and parse it back: records and
/// metadata survive the round trip.
#[test]
fn prv_bundle_round_trips() {
    let p = small();
    let (_, trace) = run_gemm_profiled(GemmVersion::Blocked, &p, 1_000);
    let dir = std::env::temp_dir().join("hls_paraver_test_bundle");
    std::fs::create_dir_all(&dir).unwrap();
    let stem = dir.join("roundtrip");
    trace.write_bundle(&stem).unwrap();
    let bytes = std::fs::read(stem.with_extension("prv")).unwrap();
    let (meta, parsed) = hls_paraver::paraver::parse::parse_prv(&bytes).unwrap();
    assert_eq!(meta.duration, trace.meta.duration);
    assert_eq!(meta.num_threads, trace.meta.num_threads);
    let mut expect = trace.records.clone();
    expect.sort_by_key(|r| r.sort_time());
    assert_eq!(parsed.len(), expect.len());
    assert_eq!(parsed, expect);
    // The .pcf declares our states; the .row matches the thread count.
    let pcf = std::fs::read_to_string(stem.with_extension("pcf")).unwrap();
    assert!(pcf.contains("Spinning"));
    let row = std::fs::read_to_string(stem.with_extension("row")).unwrap();
    assert_eq!(
        hls_paraver::paraver::row::parse_thread_count(&row),
        Some(p.threads)
    );
}

/// Request bandwidth can never exceed the DRAM interface's theoretical peak.
#[test]
fn bandwidth_below_peak() {
    let p = small();
    let sim = SimConfig::default().with_fast_launch();
    for v in GemmVersion::ALL {
        let (r, _) = run_gemm_profiled(v, &p, 1_000);
        let peak = sim.timing.dram_bytes_per_cycle as f64 * sim.clock_hz() / 1e9;
        assert!(
            r.throughput_gbps(&sim) < peak,
            "{v:?}: {} exceeds peak {peak}",
            r.throughput_gbps(&sim)
        );
    }
}

/// The π kernel end to end: value, flop accounting, and the launch ramp.
#[test]
fn pi_end_to_end() {
    let p = PiParams {
        steps: 64_000,
        threads: 4,
        bs: 8,
    };
    let kernel = pi::build(&p);
    let acc = compile(&kernel, &HlsConfig::default());
    let (step, spt) = pi::launch_scalars(&p);
    let mut sim = SimConfig::default();
    sim.timing.launch_interval = 30_000;
    let mut unit = ProfilingUnit::new(&kernel.name, p.threads, ProfilingConfig::default());
    let r = Executor::run(
        &kernel,
        &acc,
        &sim,
        &[
            LaunchArg::Scalar(Value::F32(step)),
            LaunchArg::Scalar(Value::I64(spt)),
            LaunchArg::Buffer(vec![Value::F32(0.0)]),
        ],
        &mut unit,
    )
    .expect("simulation failed");
    let trace = unit.finish();
    let est = r.buffers[2].to_f32()[0] * step;
    assert!((est - std::f32::consts::PI).abs() < 1e-2, "pi = {est}");
    // Ramp: thread i starts at i × launch_interval, visible as Idle time.
    let prof = StateProfile::compute(&trace.records, p.threads);
    let idle3 = prof.per_thread[&3].get(&states::IDLE).copied().unwrap_or(0);
    assert!(
        idle3 >= 3 * sim.timing.launch_interval,
        "last thread idles through the ramp: {idle3}"
    );
    // Flops counted in the trace match the analytic count (6/iter) up to
    // the final reduction slack.
    let traced = event_total(&trace.records, events::FLOPS);
    let expected = p.steps * reference::PI_FLOPS_PER_ITER;
    assert!(traced >= expected && traced < expected + 1_000, "{traced}");
}

/// Disabling profiling changes nothing about execution (same cycles, same
/// results) — the unit only observes.
#[test]
fn profiling_is_observation_only() {
    let p = small();
    let kernel = build(GemmVersion::Vectorized, &p);
    let acc = compile(&kernel, &HlsConfig::default());
    let d = p.dim as usize;
    let a = reference::gen_matrix(d, 1);
    let b = reference::gen_matrix(d, 2);
    let mk = || {
        vec![
            LaunchArg::Buffer(vals(&a)),
            LaunchArg::Buffer(vals(&b)),
            LaunchArg::Buffer(vec![Value::F32(0.0); d * d]),
        ]
    };
    let sim = SimConfig::default().with_fast_launch();
    let mut unit = ProfilingUnit::new(&kernel.name, p.threads, ProfilingConfig::default());
    let with = Executor::run(&kernel, &acc, &sim, &mk(), &mut unit).expect("simulation failed");
    let without = Executor::run(&kernel, &acc, &sim, &mk(), &mut hls_paraver::sim::NullSnoop)
        .expect("simulation failed");
    assert_eq!(with.total_cycles, without.total_cycles);
    assert_eq!(with.buffers[2], without.buffers[2]);
}
