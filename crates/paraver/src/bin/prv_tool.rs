//! `prv_tool` — command-line swiss knife for Paraver traces produced by the
//! HLS profiling flow (or by anything else writing standard `.prv`).
//!
//! ```text
//! prv_tool stats     <trace.prv>           time-in-state, totals, imbalance
//! prv_tool timeline  <trace.prv> [width]   ASCII state view
//! prv_tool hist      <trace.prv> <state>   duration histogram of a state id
//! prv_tool diff      <a.prv> <b.prv>       before/after comparison
//! prv_tool validate  <trace.prv>           structural checks
//! ```
//!
//! Exit status: 0 on success, 1 when `validate` finds a structural failure,
//! 2 on a usage error, a bad numeric argument, an unreadable trace or a
//! failed write. A stdout closed by its reader (`prv_tool stats t.prv | head
//! -1`) ends the output with exit 0.

use paraver::analysis::{find_critical_overlap, StateProfile};
use paraver::histogram::state_duration_histogram;
use paraver::parse::parse_prv;
use paraver::timeline::{render_states, TimelineOptions};
use paraver::{diff, events, states};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn load(path: &str) -> (paraver::TraceMeta, paraver::Records) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    parse_prv(&bytes).unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")))
}

fn die(msg: &str) -> ! {
    eprintln!("prv_tool: {msg}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::stdout().lock();
    match run(&args, &mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => die(&format!("cannot write output: {e}")),
    }
}

fn run(args: &[String], out: &mut impl Write) -> std::io::Result<ExitCode> {
    Ok(match args.first().map(String::as_str) {
        Some("stats") if args.len() >= 2 => {
            let (meta, records) = load(&args[1]);
            writeln!(
                out,
                "{}: {} records, {} threads, {} cycles",
                args[1],
                records.len(),
                meta.num_threads,
                meta.duration
            )?;
            let p = StateProfile::compute(&records, meta.num_threads);
            for (id, name) in [
                (states::IDLE, "Idle"),
                (states::RUNNING, "Running"),
                (states::CRITICAL, "Critical"),
                (states::SPINNING, "Spinning"),
            ] {
                writeln!(out, "  {:<9} {:>6.2}%", name, p.fraction(id) * 100.0)?;
            }
            for (ty, name) in [
                (events::STALLS, "stalls"),
                (events::INT_OPS, "int_ops"),
                (events::FLOPS, "flops"),
                (events::BYTES_READ, "bytes_rd"),
                (events::BYTES_WRITTEN, "bytes_wr"),
            ] {
                writeln!(
                    out,
                    "  {:<9} {:>14}",
                    name,
                    paraver::analysis::event_total(&records, ty)
                )?;
            }
            if let Some(imb) = p.imbalance(states::RUNNING) {
                writeln!(out, "  running-time imbalance (max/min): {imb:.3}")?;
            }
            ExitCode::SUCCESS
        }
        Some("timeline") if args.len() >= 2 => {
            let width = match args.get(2) {
                None => 100,
                Some(w) => w
                    .parse()
                    .ok()
                    .filter(|&w: &usize| w > 0)
                    .unwrap_or_else(|| die("width must be a positive number")),
            };
            let (meta, records) = load(&args[1]);
            let opts = TimelineOptions {
                width,
                ..Default::default()
            };
            write!(
                out,
                "{}",
                render_states(&records, meta.num_threads, meta.duration, &opts)
            )?;
            ExitCode::SUCCESS
        }
        Some("hist") if args.len() >= 3 => {
            let (meta, records) = load(&args[1]);
            let state: u32 = args[2]
                .parse()
                .unwrap_or_else(|_| die("state must be a number (0..3)"));
            write!(
                out,
                "{}",
                state_duration_histogram(&records, meta.num_threads, state).render()
            )?;
            ExitCode::SUCCESS
        }
        Some("diff") if args.len() >= 3 => {
            let (ma, ra) = load(&args[1]);
            let (mb, rb) = load(&args[2]);
            if ma.num_threads != mb.num_threads {
                die(&format!(
                    "cannot diff a {}-thread trace against a {}-thread trace",
                    ma.num_threads, mb.num_threads
                ));
            }
            write!(
                out,
                "{}",
                diff::diff((&ma, &ra), (&mb, &rb)).render(&args[1], &args[2])
            )?;
            ExitCode::SUCCESS
        }
        Some("validate") if args.len() >= 2 => {
            let (meta, records) = load(&args[1]);
            let mut failures = 0;
            // State intervals per thread tile [0, duration)? One pass
            // groups them; a header may claim far more threads than the
            // records name.
            let mut iv: Vec<(u32, u64, u64)> = records
                .iter()
                .filter_map(|r| match r {
                    paraver::Record::State {
                        thread, begin, end, ..
                    } if thread < meta.num_threads => Some((thread, begin, end)),
                    _ => None,
                })
                .collect();
            iv.sort_unstable();
            let mut with_states = Vec::new();
            for run in iv.chunk_by(|a, b| a.0 == b.0) {
                let t = run[0].0;
                with_states.push(t);
                if run[0].1 != 0 || run[run.len() - 1].2 != meta.duration {
                    writeln!(out, "  FAIL: thread {t} timeline does not span the run")?;
                    failures += 1;
                }
                if run.windows(2).any(|w| w[0].2 != w[1].1) {
                    writeln!(out, "  FAIL: thread {t} has gaps/overlaps")?;
                    failures += 1;
                }
            }
            let missing = meta.num_threads as usize - with_states.len();
            if missing > 0 {
                let first: Vec<String> = (0..meta.num_threads)
                    .filter(|t| with_states.binary_search(t).is_err())
                    .take(5)
                    .map(|t| t.to_string())
                    .collect();
                let more = if missing > first.len() { ", ..." } else { "" };
                writeln!(
                    out,
                    "  WARN: {missing} of {} threads have no state records (threads {}{more})",
                    meta.num_threads,
                    first.join(", ")
                )?;
            }
            match find_critical_overlap(&records, states::CRITICAL) {
                None => writeln!(out, "  ok: no overlapping critical sections")?,
                Some(t) => {
                    writeln!(out, "  FAIL: overlapping critical sections at {t}")?;
                    failures += 1;
                }
            }
            if failures == 0 {
                writeln!(out, "  ok: {} records validated", records.len())?;
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!(
                "usage: prv_tool <stats|timeline|hist|diff|validate> <trace.prv> [...]\n\
                 see module docs for subcommand details"
            );
            ExitCode::from(2)
        }
    })
}
