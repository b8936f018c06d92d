//! Regression tests for the *shape* of every reproduced experiment: who
//! wins, by roughly what factor, and which qualitative effects appear.
//! These are the claims EXPERIMENTS.md records; if a refactor breaks one of
//! them, the reproduction is no longer faithful.

use hls_paraver::hls::accel::{compile, HlsConfig};
use hls_paraver::hls::cost::geo_mean;
use hls_paraver::ir::Value;
use hls_paraver::kernels::gemm::{build, GemmParams, GemmVersion};
use hls_paraver::kernels::pi::{self, PiParams};
use hls_paraver::kernels::reference;
use hls_paraver::profiling::overhead::instrumented_fit;
use hls_paraver::profiling::{ProfilingConfig, ProfilingUnit};
use hls_paraver::sim::memimg::LaunchArg;
use hls_paraver::sim::{Executor, NullSnoop, SimConfig};

fn gemm_cycles(v: GemmVersion, p: &GemmParams, sim: &SimConfig) -> (u64, u64) {
    let kernel = build(v, p);
    let acc = compile(&kernel, &HlsConfig::default());
    let d = p.dim as usize;
    let a = reference::gen_matrix(d, 1);
    let vals = |m: &[f32]| m.iter().map(|&x| Value::F32(x)).collect::<Vec<_>>();
    let r = Executor::run(
        &kernel,
        &acc,
        sim,
        &[
            LaunchArg::Buffer(vals(&a)),
            LaunchArg::Buffer(vals(&a)),
            LaunchArg::Buffer(vec![Value::F32(0.0); d * d]),
        ],
        &mut NullSnoop,
    )
    .expect("simulation failed");
    (
        r.total_cycles,
        r.stats.total(|t| t.bytes_read + t.bytes_written),
    )
}

/// T-GEMM: the optimization steps keep their paper ordering and rough
/// factors (§V-C: 1.14×, 1.93×, then large gains; double-buffering best).
#[test]
fn gemm_speedup_progression_holds() {
    let p = GemmParams {
        dim: 64,
        threads: 8,
        vec: 4,
        block: 8,
    };
    let sim = SimConfig::default().with_fast_launch();
    let c: Vec<(u64, u64)> = GemmVersion::ALL
        .iter()
        .map(|v| gemm_cycles(*v, &p, &sim))
        .collect();
    let (naive, nocrit, vec, blocked, dbuf) = (c[0].0, c[1].0, c[2].0, c[3].0, c[4].0);
    // Strict ordering, as in the paper.
    assert!(
        naive > nocrit,
        "removing criticals helps: {naive} vs {nocrit}"
    );
    assert!(nocrit > vec, "vectorization helps: {nocrit} vs {vec}");
    assert!(vec > blocked, "blocking helps: {vec} vs {blocked}");
    assert!(
        blocked > dbuf,
        "double-buffering helps: {blocked} vs {dbuf}"
    );
    // Rough factors: v2 gains 5–100% (paper: 14% at 512²; the critical-
    // section share grows as the problem shrinks, so the scaled-down test
    // sees a larger gain — at the default 128² it is ~19%); v3 gains
    // 1.5–3× over v2 (paper 1.93×); overall v5 gains ≥8× (paper 19×).
    let r21 = naive as f64 / nocrit as f64;
    assert!((1.05..2.0).contains(&r21), "v1/v2 = {r21}");
    let r32 = nocrit as f64 / vec as f64;
    assert!((1.5..3.0).contains(&r32), "v2/v3 = {r32}");
    let r51 = naive as f64 / dbuf as f64;
    assert!(r51 >= 8.0, "v1/v5 = {r51}");
}

/// Fig. 7's bandwidth story: vectorization raises achieved bandwidth;
/// blocking lowers *external* traffic (trading it for local bandwidth);
/// double-buffering beats blocked.
#[test]
fn gemm_bandwidth_story_holds() {
    let p = GemmParams {
        dim: 64,
        threads: 8,
        vec: 4,
        block: 8,
    };
    let sim = SimConfig::default().with_fast_launch();
    let bw = |v: GemmVersion| {
        let (cy, bytes) = gemm_cycles(v, &p, &sim);
        bytes as f64 / cy as f64
    };
    let naive = bw(GemmVersion::Naive);
    let vecb = bw(GemmVersion::Vectorized);
    let blocked = bw(GemmVersion::Blocked);
    let dbuf = bw(GemmVersion::DoubleBuffered);
    assert!(vecb > naive, "vectorized bandwidth {vecb} > naive {naive}");
    assert!(
        blocked < vecb,
        "blocked trades external for local bandwidth: {blocked} vs {vecb}"
    );
    assert!(
        dbuf > blocked,
        "overlap raises throughput: {dbuf} vs {blocked}"
    );
}

/// Figs. 11–13: with the host's sequential starts, small π runs are
/// ramp-dominated (first thread finishes before the last starts) and the
/// GFLOP/s scales nearly linearly with iterations; larger runs approach
/// the compute-bound rate.
#[test]
fn pi_ramp_and_scaling_hold() {
    let mut sim = SimConfig::default();
    sim.timing.launch_interval = 100_000;
    let run = |steps: u64| {
        let p = PiParams {
            steps,
            threads: 8,
            bs: 8,
        };
        let kernel = pi::build(&p);
        let acc = compile(&kernel, &HlsConfig::default());
        let (step, spt) = pi::launch_scalars(&p);
        let mut unit = ProfilingUnit::new("pi", 8, ProfilingConfig::default());

        Executor::run(
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
        .expect("simulation failed")
    };
    let small = run(64_000);
    let big = run(1_024_000);
    // Ramp effect at the small size.
    assert!(
        small.stats.per_thread[0].end_cycle < small.stats.per_thread[7].start_cycle,
        "first thread must finish before the last starts"
    );
    // 16× the work in much-less-than-16× the time (ramp amortizes).
    let ratio = big.total_cycles as f64 / small.total_cycles as f64;
    assert!(
        ratio < 4.0,
        "total time is launch-dominated, not work-dominated: {ratio}"
    );
    // Effective rate grows with size.
    let r_small = 64_000f64 / small.total_cycles as f64;
    let r_big = 1_024_000f64 / big.total_cycles as f64;
    assert!(r_big > 4.0 * r_small, "{r_big} vs {r_small}");
}

/// E1/E2 bands: profiling overhead lands in the paper's ranges — a few
/// percent on the GEMM designs (max ≤ 8%, geo-mean ≤ 5%), less on the
/// larger π design, and single-digit-MHz fmax impact.
#[test]
fn overhead_bands_hold() {
    let hls = HlsConfig::default();
    let prof = ProfilingConfig::default();
    let gp = GemmParams::paper_scale();
    let mut reg_pcts = Vec::new();
    let mut alm_pcts = Vec::new();
    let mut fmax_deltas = Vec::new();
    for v in GemmVersion::ALL {
        let k = build(v, &gp);
        let acc = compile(&k, &hls);
        let with = instrumented_fit(&acc.fit, gp.threads, &prof);
        let o = with.overhead_vs(&acc.fit);
        reg_pcts.push(o.registers_pct);
        alm_pcts.push(o.alms_pct);
        fmax_deltas.push(o.fmax_delta_mhz);
        assert!(
            (130.0..175.0).contains(&acc.fit.fmax_mhz),
            "{v:?} base fmax {}",
            acc.fit.fmax_mhz
        );
    }
    let max = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    assert!(max(&reg_pcts) <= 8.0, "max reg overhead {}", max(&reg_pcts));
    assert!(max(&alm_pcts) <= 8.0, "max ALM overhead {}", max(&alm_pcts));
    assert!(geo_mean(&reg_pcts) <= 5.0);
    assert!(geo_mean(&alm_pcts) <= 5.0);
    assert!(max(&fmax_deltas) <= 9.0, "fmax delta {}", max(&fmax_deltas));
    // The larger π design pays less than the smallest GEMM design.
    let k = pi::build(&PiParams::default());
    let acc = compile(&k, &hls);
    let with = instrumented_fit(&acc.fit, 8, &prof);
    let o = with.overhead_vs(&acc.fit);
    assert!(o.registers_pct < max(&reg_pcts));
    assert!(o.fmax_delta_mhz <= 2.0, "π fmax delta {}", o.fmax_delta_mhz);
}

/// Fig. 8 vs Fig. 9: the blocked version stalls on its loads (distinct load
/// phases); the double-buffered version overlaps them away.
#[test]
fn double_buffering_removes_load_stalls() {
    let p = GemmParams {
        dim: 32,
        threads: 4,
        vec: 4,
        block: 8,
    };
    let sim = SimConfig::default().with_fast_launch();
    let stalls = |v: GemmVersion| {
        let kernel = build(v, &p);
        let acc = compile(&kernel, &HlsConfig::default());
        let d = p.dim as usize;
        let a = reference::gen_matrix(d, 1);
        let vals = |m: &[f32]| m.iter().map(|&x| Value::F32(x)).collect::<Vec<_>>();
        Executor::run(
            &kernel,
            &acc,
            &sim,
            &[
                LaunchArg::Buffer(vals(&a)),
                LaunchArg::Buffer(vals(&a)),
                LaunchArg::Buffer(vec![Value::F32(0.0); d * d]),
            ],
            &mut NullSnoop,
        )
        .expect("simulation failed")
        .stats
        .total_stalls()
    };
    let blocked = stalls(GemmVersion::Blocked);
    let dbuf = stalls(GemmVersion::DoubleBuffered);
    assert!(
        dbuf * 10 < blocked,
        "prefetch must hide load stalls: blocked {blocked}, dbuf {dbuf}"
    );
}
