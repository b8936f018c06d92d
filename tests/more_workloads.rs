//! Timed-simulator coverage for the auxiliary workloads: gather-heavy SpMV
//! and the barrier-phased tree reduction, end to end with profiling.

use hls_paraver::hls::accel::{compile, HlsConfig};
use hls_paraver::ir::Value;
use hls_paraver::kernels::{reduction, spmv};
use hls_paraver::profiling::diagnose::{diagnose, Bottleneck, DiagnoseConfig};
use hls_paraver::profiling::{ProfilingConfig, ProfilingUnit};
use hls_paraver::sim::memimg::LaunchArg;
use hls_paraver::sim::{Executor, SimConfig};

#[test]
fn spmv_is_correct_and_latency_bound_in_sim() {
    let m = spmv::Csr::random(64, 64, 6, 5);
    let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.11).cos()).collect();
    let gold = m.spmv_ref(&x);
    let kernel = spmv::build(m.rows as i64, 4);
    let acc = compile(&kernel, &HlsConfig::default());
    let sim = SimConfig::default().with_fast_launch();
    let i64v = |v: &[i64]| v.iter().map(|&x| Value::I64(x)).collect::<Vec<_>>();
    let f32v = |v: &[f32]| v.iter().map(|&x| Value::F32(x)).collect::<Vec<_>>();
    let mut unit = ProfilingUnit::new("spmv", 4, ProfilingConfig::default());
    let r = Executor::run(
        &kernel,
        &acc,
        &sim,
        &[
            LaunchArg::Buffer(i64v(&m.row_ptr)),
            LaunchArg::Buffer(i64v(&m.col_idx)),
            LaunchArg::Buffer(f32v(&m.values)),
            LaunchArg::Buffer(f32v(&x)),
            LaunchArg::Buffer(vec![Value::F32(0.0); m.rows]),
        ],
        &mut unit,
    )
    .expect("simulation failed");
    for (i, (g, e)) in r.buffers[4].to_f32().iter().zip(&gold).enumerate() {
        assert!((g - e).abs() < 1e-4, "row {i}: {g} vs {e}");
    }
    // Gathers defeat the line buffers and vector widening: memory latency.
    let trace = unit.finish();
    let d = diagnose(&trace, &r.stats, &sim, &DiagnoseConfig::default());
    assert_eq!(d.bottleneck, Bottleneck::MemoryLatency, "{d:?}");
}

#[test]
fn tree_reduction_synchronizes_every_phase() {
    let n = 256usize;
    let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin()).collect();
    let kernel = reduction::build(n as i64, 4);
    let acc = compile(&kernel, &HlsConfig::default());
    let sim = SimConfig::default().with_fast_launch();
    let r = Executor::run(
        &kernel,
        &acc,
        &sim,
        &[LaunchArg::Buffer(
            data.iter().map(|&x| Value::F32(x)).collect(),
        )],
        &mut hls_paraver::sim::NullSnoop,
    )
    .expect("simulation failed");
    let got = r.buffers[0].to_f32()[0];
    assert_eq!(got, reduction::reference(&data), "bitwise-identical order");
    // All threads finish within one barrier's reach of each other: the final
    // phases serialize everyone.
    let ends: Vec<u64> = r.stats.per_thread.iter().map(|t| t.end_cycle).collect();
    let spread = ends.iter().max().unwrap() - ends.iter().min().unwrap();
    assert!(spread < 5_000, "barrier keeps threads together: {ends:?}");
}
