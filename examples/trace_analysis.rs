//! Post-mortem trace analysis: read a `.prv` bundle back from disk (as an
//! HPC analyst would, without the simulator in the loop) and compute the
//! paper's derived metrics — time-in-state, load balance, bandwidth series,
//! and the critical-section mutual-exclusion check behind Fig. 6's zoom.
//!
//! ```sh
//! cargo run --release --example trace_analysis -- [path/to/trace.prv]
//! ```
//!
//! With no argument it first generates a trace by running the naive GEMM
//! with the profiling unit attached, decoding the flushed trace after the
//! run and writing the bundle to `target/traces/analysis_demo.*`. A missing
//! or unparsable `.prv` prints one line to stderr and exits with status 1.

use hls_paraver::paraver::analysis::{event_series, find_critical_overlap, StateProfile};
use hls_paraver::paraver::histogram;
use hls_paraver::paraver::model::{Records, TraceMeta};
use hls_paraver::paraver::parse::parse_prv;
use hls_paraver::paraver::{events, states, timeline};
use std::io::{self, Write};
use std::process::ExitCode;

/// Run the profiled naive GEMM and write its bundle; returns the `.prv`
/// path and a line on what was decoded.
fn generate() -> Result<(String, Option<String>), String> {
    use hls_paraver::hls::accel::{compile, HlsConfig};
    use hls_paraver::ir::Value;
    use hls_paraver::kernels::gemm::{build, GemmParams, GemmVersion};
    use hls_paraver::kernels::reference;
    use hls_paraver::profiling::{ProfilingConfig, ProfilingUnit};
    use hls_paraver::sim::memimg::LaunchArg;
    use hls_paraver::sim::{Executor, SimConfig};
    let p = GemmParams {
        dim: 64,
        ..Default::default()
    };
    let kernel = build(GemmVersion::Naive, &p);
    let acc = compile(&kernel, &HlsConfig::default());
    let mut unit = ProfilingUnit::new(&kernel.name, p.threads, ProfilingConfig::default());
    let d = p.dim as usize;
    let vals = |m: &[f32]| m.iter().map(|&x| Value::F32(x)).collect::<Vec<_>>();
    let a = reference::gen_matrix(d, 1);
    Executor::run(
        &kernel,
        &acc,
        &SimConfig::default().with_fast_launch(),
        &[
            LaunchArg::Buffer(vals(&a)),
            LaunchArg::Buffer(vals(&a)),
            LaunchArg::Buffer(vec![Value::F32(0.0); d * d]),
        ],
        &mut unit,
    )
    .map_err(|e| format!("simulation failed: {e}"))?;
    let trace = unit.finish();
    let dir = std::path::Path::new("target/traces");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = dir.join("analysis_demo");
    trace
        .write_bundle(&stem)
        .map_err(|e| format!("cannot write {}: {e}", stem.display()))?;
    let note = format!(
        "decoded {} records from {} flushes ({} B)\n",
        trace.records.len(),
        trace.flush_count,
        trace.flushed_bytes
    );
    Ok((format!("{}.prv", stem.display()), Some(note)))
}

fn main() -> ExitCode {
    let given = std::env::args().nth(1).map(|path| Ok((path, None)));
    let (path, note) = match given.unwrap_or_else(generate) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trace_analysis: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = std::fs::read(&path)
        .map_err(|e| e.to_string())
        .and_then(|bytes| parse_prv(&bytes).map_err(|e| e.to_string()));
    let (meta, records) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trace_analysis: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    bench::session::write_stdout("trace_analysis", |w| {
        report(w, note.as_deref(), &path, &meta, &records)
    })
}

/// Print the analysis of the trace read from `path`.
fn report(
    w: &mut impl Write,
    note: Option<&str>,
    path: &str,
    meta: &TraceMeta,
    records: &Records,
) -> io::Result<()> {
    if let Some(note) = note {
        writeln!(w, "{note}")?;
    }
    writeln!(w, "analyzing {path}\n")?;
    writeln!(
        w,
        "{} records over {} cycles, {} threads",
        records.len(),
        meta.duration,
        meta.num_threads
    )?;

    let prof = StateProfile::compute(records, meta.num_threads);
    writeln!(w, "\ntime in state (all threads):")?;
    for (id, name) in [
        (states::IDLE, "Idle"),
        (states::RUNNING, "Running"),
        (states::CRITICAL, "Critical"),
        (states::SPINNING, "Spinning"),
    ] {
        writeln!(w, "  {:<9} {:>6.2}%", name, prof.fraction(id) * 100.0)?;
    }
    if let Some(imb) = prof.imbalance(states::RUNNING) {
        writeln!(
            w,
            "running-time imbalance (max/min across threads): {imb:.3}"
        )?;
    }

    match find_critical_overlap(records, states::CRITICAL) {
        None => writeln!(
            w,
            "mutual exclusion holds: no two threads ever overlap in Critical"
        )?,
        Some(t) => writeln!(w, "VIOLATION: overlapping critical sections at cycle {t}")?,
    }

    let dur = meta.duration.max(1);
    let bw = event_series(records, events::BYTES_READ, dur.div_ceil(80), dur);
    writeln!(
        w,
        "\nread-bandwidth timeline (peak bin {} B):\n{}",
        bw.peak(),
        timeline::render_series(
            &bw.bins.iter().map(|&b| b as f64).collect::<Vec<_>>(),
            "bytes read"
        )
    )?;
    // Paraver-style 2D histograms.
    writeln!(
        w,
        "\n{}",
        histogram::state_duration_histogram(records, meta.num_threads, states::CRITICAL).render()
    )?;
    writeln!(
        w,
        "{}",
        histogram::event_value_histogram(records, meta.num_threads, events::BYTES_READ).render()
    )?;

    writeln!(
        w,
        "\nstate view:\n{}",
        timeline::render_states(
            records,
            meta.num_threads,
            meta.duration,
            &timeline::TimelineOptions {
                width: 80,
                ..Default::default()
            }
        )
    )?;
    Ok(())
}
