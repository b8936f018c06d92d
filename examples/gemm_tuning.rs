//! The paper's §V-C workflow in miniature: profile a GEMM, read the trace,
//! apply the next optimization, repeat — showing how each Paraver view
//! motivates the next code change.
//!
//! ```sh
//! cargo run --release --example gemm_tuning -- [dim]
//! ```

use hls_paraver::hls::accel::{compile, HlsConfig};
use hls_paraver::ir::Value;
use hls_paraver::kernels::gemm::{build, GemmParams, GemmVersion};
use hls_paraver::kernels::reference;
use hls_paraver::paraver::analysis::StateProfile;
use hls_paraver::paraver::states;
use hls_paraver::profiling::{ProfilingConfig, ProfilingUnit};
use hls_paraver::sim::memimg::LaunchArg;
use hls_paraver::sim::{Executor, SimConfig};
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    bench::session::write_stdout("gemm_tuning", run)
}

fn run(w: &mut impl Write) -> io::Result<()> {
    let dim: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let p = GemmParams {
        dim,
        threads: 8,
        vec: 4,
        block: 8,
    };
    let sim = SimConfig::default().with_fast_launch();
    let d = dim as usize;
    let a = reference::gen_matrix(d, 1);
    let b = reference::gen_matrix(d, 2);
    let gold = reference::gemm(&a, &b, d);
    let to_vals = |m: &[f32]| m.iter().map(|&x| Value::F32(x)).collect::<Vec<_>>();

    let diagnosis = [
        "critical sections serialize the reduction → distribute rows instead",
        "memory-bound with narrow accesses → vectorize the A loads",
        "bandwidth is spent re-reading B → block into local memories",
        "distinct load/compute phases → double-buffer the prefetch",
        "memory reads now overlap compute — done",
    ];

    let mut prev = 0u64;
    for (v, note) in GemmVersion::ALL.iter().zip(diagnosis) {
        let kernel = build(*v, &p);
        let acc = compile(&kernel, &HlsConfig::default());
        let mut unit =
            ProfilingUnit::new(&kernel.name, kernel.num_threads, ProfilingConfig::default());
        let launch = vec![
            LaunchArg::Buffer(to_vals(&a)),
            LaunchArg::Buffer(to_vals(&b)),
            LaunchArg::Buffer(vec![Value::F32(0.0); d * d]),
        ];
        let r = Executor::run(&kernel, &acc, &sim, &launch, &mut unit).expect("simulation failed");
        let trace = unit.finish();

        // Verify against the CPU reference before trusting any numbers.
        let got = r.buffers[2].to_f32();
        let max_err = got
            .iter()
            .zip(&gold)
            .map(|(g, e)| (g - e).abs() / e.abs().max(1.0))
            .fold(0.0f32, f32::max);
        assert!(max_err < 1e-3, "{v:?} wrong result (err {max_err})");

        let prof = StateProfile::compute(&trace.records, p.threads);
        let speedup = if prev == 0 {
            1.0
        } else {
            prev as f64 / r.total_cycles as f64
        };
        writeln!(w, "{:=<74}", "")?;
        writeln!(
            w,
            "{:<24} {:>12} cycles  {:>5.2}x vs previous  (max rel err {:.1e})",
            v.name(),
            r.total_cycles,
            speedup,
            max_err
        )?;
        writeln!(
            w,
            "  GB/s {:.3}  stalls {:.1}%  spinning {:.1}%  critical {:.1}%  line-hit {:.0}%",
            r.throughput_gbps(&sim),
            r.stats.total_stalls() as f64 / (r.total_cycles * p.threads as u64) as f64 * 100.0,
            prof.fraction(states::SPINNING) * 100.0,
            prof.fraction(states::CRITICAL) * 100.0,
            r.stats.read_hit_rate() * 100.0
        )?;
        writeln!(w, "  trace says: {note}")?;
        prev = r.total_cycles;
    }
    Ok(())
}
