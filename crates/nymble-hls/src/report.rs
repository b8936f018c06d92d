//! Human-readable synthesis reports (the "Quartus fit summary" of this
//! virtual flow) and per-loop schedule dumps.

use crate::accel::Accelerator;
use crate::cost::FitReport;
use nymble_ir::loops::{LoopId, LoopMap};
use nymble_ir::stmt::{Stmt, Unroll};
use nymble_ir::Kernel;
use std::fmt::Write as _;

/// Render a fit summary.
pub fn fit_summary(name: &str, fit: &FitReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Fit summary — {name}");
    let _ = writeln!(s, "  ALMs           : {:>10}", fit.alms);
    let _ = writeln!(s, "  Registers      : {:>10}", fit.registers);
    let _ = writeln!(s, "  DSP blocks     : {:>10}", fit.dsps);
    let _ = writeln!(s, "  BRAM (kbits)   : {:>10}", fit.bram_kbits);
    let _ = writeln!(s, "  fmax (MHz)     : {:>10.1}", fit.fmax_mhz);
    s
}

/// Render the schedule report for a compiled accelerator: one line per loop
/// with II, depth, stage counts and port pressure.
pub fn schedule_report(kernel: &Kernel, acc: &Accelerator) -> String {
    let lm = LoopMap::build(kernel);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Schedule report — {} ({} hardware threads)",
        acc.name, acc.num_threads
    );
    let _ = writeln!(
        s,
        "  {:<12} {:>5} {:>6} {:>7} {:>7} {:>6} {:>6} {:>6}",
        "loop", "depth", "II", "II.rec", "II.res", "stages", "reord", "rd/it"
    );
    for (id, stmt) in lm.iter() {
        let Stmt::For { var, unroll, .. } = stmt else {
            unreachable!("the loop map lists loops only")
        };
        let name = &kernel.var(*var).name;
        if *unroll == Unroll::Full {
            let _ = writeln!(s, "  {name:<12} (fully unrolled — inlined into parent)");
            continue;
        }
        let Some(sched) = &acc.loop_schedules[id.0 as usize] else {
            continue;
        };
        let _ = writeln!(
            s,
            "  {:<12} {:>5} {:>6} {:>7} {:>7} {:>6} {:>6} {:>6}",
            format!("{name}#{}", id.0),
            sched.depth,
            sched.ii,
            sched.ii_recurrence,
            sched.ii_resource,
            sched.stages.len(),
            sched.reordering_stages(),
            sched.ext_reads_per_iter,
        );
    }
    s
}

/// Lookup helper: the schedule for the n-th loop in pre-order.
pub fn nth_loop_schedule(acc: &Accelerator, n: u32) -> Option<&crate::schedule::LoopSchedule> {
    acc.loop_schedules
        .get(LoopId(n).0 as usize)
        .and_then(|o| o.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::{compile, HlsConfig};
    use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};

    #[test]
    fn reports_render() {
        let mut kb = KernelBuilder::new("rep", 2);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let x = kb.var("x", Type::F32);
        let n = kb.c_i64(8);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(x);
            let s = kb.add(cur, v);
            kb.set(x, s);
        });
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let fit = fit_summary("rep", &acc.fit);
        assert!(fit.contains("ALMs"));
        assert!(fit.contains("fmax"));
        let sr = schedule_report(&k, &acc);
        assert!(sr.contains("i#0"), "{sr}");
        assert!(nth_loop_schedule(&acc, 0).is_some());
        assert!(nth_loop_schedule(&acc, 5).is_none());
    }
}
