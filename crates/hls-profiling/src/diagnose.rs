//! Bottleneck diagnosis from traces — the analysis loop of the paper's §V-C
//! case study, automated.
//!
//! §I motivates the whole effort with "identifying bottlenecks (e.g.
//! memory-, compute- or latency-boundness)"; §V-C then walks exactly that
//! loop by eye: see spinning → remove the critical section; see low
//! bandwidth with full stalls → vectorize; see bandwidth spent re-reading →
//! block; see alternating phases → double-buffer. This module encodes those
//! readings of a trace so tools (and tests) can make the same call, and is
//! the natural seed for the paper's future-work item of "profile-guided
//! optimization in the HLS compiler".

use crate::unit::TraceData;
use fpga_sim::stats::RunStats;
use fpga_sim::{SimConfig, SimError};
use nymble_hls::probe::ProbePlan;
use nymble_hls::region::{RegionKind, RegionTree};
use nymble_lint::{Code, LintReport, PredMetric};
use paraver::analysis::{event_series, StateProfile};
use paraver::{events, states};
use std::collections::HashMap;

/// The dominant performance limiter of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bottleneck {
    /// Significant time spinning on / executing inside critical sections.
    Synchronization,
    /// Stall-dominated with low achieved bandwidth: each access pays the
    /// memory round trip (pointer-chase / strided patterns).
    MemoryLatency,
    /// Stall-dominated with high achieved bandwidth: the interface is the
    /// limit; wider or fewer accesses are needed.
    MemoryBandwidth,
    /// Little stalling — the datapath itself is the limiter.
    Compute,
    /// The host dominates: threads idle waiting to be started (the π study's
    /// launch-overhead regime).
    HostOverhead,
    /// Pronounced alternating transfer/compute phases: compute waits for
    /// block loads (the Fig. 8 pattern double-buffering removes).
    PhasedTransfers,
}

/// A quantified diagnosis.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    pub bottleneck: Bottleneck,
    /// Fraction of aggregate thread time spent idle (not yet started or
    /// finished early).
    pub idle_frac: f64,
    /// Fraction spent spinning plus inside critical sections.
    pub sync_frac: f64,
    /// Stall cycles per thread-cycle of runtime.
    pub stall_frac: f64,
    /// Achieved fraction of the DRAM interface's peak bandwidth.
    pub bandwidth_frac: f64,
    /// Phase alternation score in [0, 1]: fraction of sampling windows in
    /// which reads and flops do *not* co-occur (1 = fully phased, 0 = fully
    /// overlapped).
    pub phase_score: f64,
    /// Human-readable summary with the suggested next optimization.
    pub advice: String,
}

/// Tunable decision thresholds.
#[derive(Clone, Debug)]
pub struct DiagnoseConfig {
    pub sync_threshold: f64,
    pub idle_threshold: f64,
    pub stall_threshold: f64,
    pub bandwidth_high: f64,
    pub phase_threshold: f64,
    /// Number of analysis windows for the phase score.
    pub windows: u64,
}

impl Default for DiagnoseConfig {
    fn default() -> Self {
        DiagnoseConfig {
            sync_threshold: 0.02,
            idle_threshold: 0.5,
            stall_threshold: 0.25,
            bandwidth_high: 0.5,
            phase_threshold: 0.35,
            windows: 64,
        }
    }
}

/// Classify a profiled run.
pub fn diagnose(
    trace: &TraceData,
    stats: &RunStats,
    sim: &SimConfig,
    cfg: &DiagnoseConfig,
) -> Diagnosis {
    let threads = trace.meta.num_threads.max(1);
    let duration = trace.meta.duration.max(1);
    let prof = StateProfile::compute(&trace.records, threads);

    let idle_frac = prof.fraction(states::IDLE);
    let sync_frac = prof.fraction(states::SPINNING) + prof.fraction(states::CRITICAL);
    let thread_cycles = (duration as f64) * threads as f64;
    let stall_frac = stats.total_stalls() as f64 / thread_cycles;
    let peak_bytes = sim.dram_bytes_per_cycle as f64 * duration as f64;
    let bandwidth_frac = stats.total(|t| t.bytes_read + t.bytes_written) as f64 / peak_bytes;

    // Phase score: in how many windows is exactly one of {transfer, compute}
    // active? Alternating load/compute phases (Fig. 8) score high; fully
    // overlapped execution (Fig. 9) scores low.
    let bin = duration.div_ceil(cfg.windows).max(1);
    let reads = event_series(&trace.records, events::BYTES_READ, bin, duration);
    let flops = event_series(&trace.records, events::FLOPS, bin, duration);
    let read_peak = reads.peak().max(1) as f64;
    let flop_peak = flops.peak().max(1) as f64;
    let mut active = 0u64;
    let mut exclusive = 0u64;
    for (r, f) in reads.bins.iter().zip(&flops.bins) {
        let r_on = *r as f64 > 0.15 * read_peak;
        let f_on = *f as f64 > 0.15 * flop_peak;
        if r_on || f_on {
            active += 1;
            if r_on != f_on {
                exclusive += 1;
            }
        }
    }
    let phase_score = if active == 0 {
        0.0
    } else {
        exclusive as f64 / active as f64
    };

    let bottleneck = if idle_frac > cfg.idle_threshold {
        Bottleneck::HostOverhead
    } else if sync_frac > cfg.sync_threshold {
        Bottleneck::Synchronization
    } else if phase_score > cfg.phase_threshold && stall_frac > 0.02 {
        Bottleneck::PhasedTransfers
    } else if stall_frac > cfg.stall_threshold {
        if bandwidth_frac > cfg.bandwidth_high {
            Bottleneck::MemoryBandwidth
        } else {
            Bottleneck::MemoryLatency
        }
    } else {
        Bottleneck::Compute
    };

    let advice = match bottleneck {
        Bottleneck::Synchronization => format!(
            "{:.1}% of thread time is spent in or spinning on critical sections; \
             restructure the work so threads write disjoint data (the paper's \
             'No Critical Sections' step) — `nymble-lint` codes NL001 \
             (cross-thread write overlap) and NL003 (unsynchronized \
             read-modify-write) pinpoint the accesses that force the lock",
            sync_frac * 100.0
        ),
        Bottleneck::MemoryLatency => format!(
            "stalls consume {:.1}% of thread cycles while only {:.1}% of peak \
             bandwidth is used: accesses pay full memory latency — vectorize \
             loads or stage data in local memory (the paper's 'Partial \
             Vectorization' / 'Blocked' steps)",
            stall_frac * 100.0,
            bandwidth_frac * 100.0
        ),
        Bottleneck::MemoryBandwidth => format!(
            "the memory interface is {:.1}% utilised and still stalling: reduce \
             total traffic by reusing data from local memory (the paper's \
             'Blocked' step)",
            bandwidth_frac * 100.0
        ),
        Bottleneck::Compute => "few stalls and no synchronization pressure: the datapath \
             itself limits throughput — increase unrolling or instantiate more \
             compute"
            .to_string(),
        Bottleneck::HostOverhead => format!(
            "threads are idle {:.1}% of the time: the host's sequential thread \
             starts dominate — increase the work per launch (the paper's π \
             study) or improve the software interface",
            idle_frac * 100.0
        ),
        Bottleneck::PhasedTransfers => format!(
            "transfers and compute alternate (phase score {phase_score:.2}): \
             prefetch the next block while computing (the paper's \
             'double-buffering' step)"
        ),
    };

    Diagnosis {
        bottleneck,
        idle_frac,
        sync_frac,
        stall_frac,
        bandwidth_frac,
        phase_score,
        advice,
    }
}

/// Static-analysis cross-reference for a run that failed *before* producing
/// a usable trace. A simulated deadlock — threads parked at a barrier that
/// can never fill — is exactly the behavior `nymble-lint` code NL002
/// (barrier under thread-dependent control flow) predicts statically, so
/// point the user at the analyzer instead of leaving them with a raw cycle
/// count.
pub fn sim_error_hint(e: &SimError) -> Option<String> {
    match e {
        SimError::Deadlock { waiting, .. } => Some(format!(
            "{} thread(s) deadlocked at a synchronization point: this is the \
             dynamic signature of `nymble-lint` code NL002 (a `barrier` \
             reached under thread-dependent control flow) — run the kernel \
             through `nymble-lint` to locate the divergent branch",
            waiting.len()
        )),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Predicted vs. observed: confronting static NP findings with the trace
// ---------------------------------------------------------------------------

/// Outcome of checking one static performance prediction against a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The measured trace exhibits the predicted symptom at (or beyond) the
    /// predicted magnitude.
    Confirmed,
    /// The symptom did not materialize — the static model over-approximated
    /// (e.g. the scheduler broke the recurrence, or the access pattern hit
    /// the line buffers).
    NotObserved,
    /// The run has a bottleneck the static pass has no finding for — a gap
    /// in `nymble-lint`'s coverage worth a bug report.
    UnpredictedHotspot,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Confirmed => "Confirmed",
            Verdict::NotObserved => "NotObserved",
            Verdict::UnpredictedHotspot => "UnpredictedHotspot",
        }
    }
}

/// One line of the predicted-vs-observed section.
#[derive(Clone, Debug)]
pub struct PredictionOutcome {
    /// The static diagnostic being confronted; `None` for an observed
    /// hotspot no NP code predicted.
    pub code: Option<Code>,
    pub verdict: Verdict,
    /// The static model's quantitative prediction, where one exists.
    pub predicted: Option<f64>,
    /// The corresponding quantity measured from the trace / run stats.
    pub observed: f64,
    /// Human-readable rendering of the comparison.
    pub detail: String,
}

/// Confront each static NP finding with the measured run and flag measured
/// bottlenecks the static pass missed.
///
/// Confirmation thresholds are deliberately loose (the static model is an
/// approximation, not a re-implementation of the event core): a prediction
/// counts as confirmed when the observation reaches most of the predicted
/// magnitude, not when it matches exactly.
pub fn confront(
    report: &LintReport,
    trace: &TraceData,
    stats: &RunStats,
    diagnosis: &Diagnosis,
) -> Vec<PredictionOutcome> {
    let duration = trace.meta.duration.max(1) as f64;
    let dram_bytes = stats.channel_bytes.max(stats.total_bytes()) as f64;
    let serial_cycles = stats.total(|t| t.critical_cycles) as f64;
    // Imbalance shows up two ways: unequal thread spans (no trailing
    // barrier — the fast threads simply finish early) or equal spans with
    // unequal retired work (a trailing barrier parks the fast threads
    // until the slowest arrives). Take whichever ratio is larger.
    let ratio_of = |vals: &[u64]| match (vals.iter().max(), vals.iter().min()) {
        (Some(&max), Some(&min)) if min > 0 => max as f64 / min as f64,
        _ => 1.0,
    };
    let spans: Vec<u64> = stats
        .per_thread
        .iter()
        .map(|t| t.end_cycle.saturating_sub(t.start_cycle))
        .collect();
    let iters: Vec<u64> = stats.per_thread.iter().map(|t| t.iterations).collect();
    let observed_ratio = ratio_of(&spans).max(ratio_of(&iters));

    let mut out = Vec::new();
    for d in &report.diagnostics {
        if !d.code.is_perf() {
            continue;
        }
        let Some(pred) = &d.prediction else { continue };
        // (observed value, fraction of the prediction that must materialize)
        let (observed, floor) = match pred.metric {
            PredMetric::TotalCycles => (duration, 0.75 * pred.value),
            PredMetric::DramBytes => (dram_bytes, 0.75 * pred.value),
            // The wasted transfer is a *component* of total traffic; it
            // confirms when the interface moved at least that much.
            PredMetric::WastedDmaBytes => (dram_bytes, 0.75 * pred.value),
            PredMetric::SerialCycles => (serial_cycles, 0.5 * pred.value),
            // Ratios: confirmed when at least half the predicted *excess*
            // over the balanced 1.0 shows up.
            PredMetric::ImbalanceRatio => (observed_ratio, 1.0 + 0.5 * (pred.value - 1.0)),
        };
        let verdict = if observed >= floor {
            Verdict::Confirmed
        } else {
            Verdict::NotObserved
        };
        out.push(PredictionOutcome {
            code: Some(d.code),
            verdict,
            predicted: Some(pred.value),
            observed,
            detail: format!(
                "{}: predicted {} {:.0}, observed {:.2} -> {}",
                d.code.as_str(),
                pred.metric.as_str(),
                pred.value,
                observed,
                verdict.as_str()
            ),
        });
    }

    // Coverage check in the other direction: a measured bottleneck with no
    // static finding that explains it.
    let has = |c: Code| report.diagnostics.iter().any(|d| d.code == c);
    let sync_explained = has(Code::NP004);
    let memory_explained = has(Code::NP002) || has(Code::NP003) || has(Code::NP001);
    match diagnosis.bottleneck {
        Bottleneck::Synchronization if !sync_explained => out.push(PredictionOutcome {
            code: None,
            verdict: Verdict::UnpredictedHotspot,
            predicted: None,
            observed: diagnosis.sync_frac,
            detail: format!(
                "UnpredictedHotspot: {:.1}% of thread time is synchronization \
                 but no NP004 finding predicted it",
                diagnosis.sync_frac * 100.0
            ),
        }),
        Bottleneck::MemoryLatency | Bottleneck::MemoryBandwidth if !memory_explained => {
            out.push(PredictionOutcome {
                code: None,
                verdict: Verdict::UnpredictedHotspot,
                predicted: None,
                observed: diagnosis.stall_frac,
                detail: format!(
                    "UnpredictedHotspot: memory-bound run (stall {:.1}%, bandwidth \
                     {:.1}%) with no NP001/NP002/NP003 finding",
                    diagnosis.stall_frac * 100.0,
                    diagnosis.bandwidth_frac * 100.0
                ),
            })
        }
        _ => {}
    }
    out
}

// ---------------------------------------------------------------------------
// Region attribution: from thread timelines to source regions
// ---------------------------------------------------------------------------

/// Wall-clock cycles attributed to one instrumented source region.
#[derive(Clone, Debug)]
pub struct RegionAttribution {
    /// Region id in the compiled design's region tree.
    pub id: u16,
    /// Parent region id (`None` for the kernel root).
    pub parent: Option<u16>,
    /// Slash-separated source path of the region.
    pub label: String,
    /// Nesting depth (root = 0).
    pub depth: u32,
    /// IR construct kind.
    pub kind: RegionKind,
    /// Attributed wall-clock cycles.
    pub cycles: u64,
    /// True when the figure comes from *observed* state time (critical
    /// sections, measured via the CRITICAL state) rather than the static
    /// profit split.
    pub observed: bool,
}

/// Attribute the run's wall-clock cycles to the plan's source regions, so
/// stalls land on *regions* instead of just threads.
///
/// The kernel root gets the whole run. Each child receives its parent's
/// cycles scaled by the static profit ratio (the static cost walker priced
/// every region when it built the tree) — telescoping, so a region's figure
/// never exceeds its parent's. Critical regions are the exception: their
/// time is directly observable in the trace (the CRITICAL state), so the
/// measured figure overrides the static split for the region runtime
/// critical events map to.
pub fn attribute_regions(
    tree: &RegionTree,
    plan: &ProbePlan,
    trace: &TraceData,
) -> Vec<RegionAttribution> {
    let duration = trace.meta.duration.max(1);
    let threads = trace.meta.num_threads.max(1);
    let prof = StateProfile::compute(&trace.records, threads);
    // Average per-thread wall time inside critical sections; maps to the
    // plan's highest-ranked critical region (the single hardware semaphore
    // makes every runtime critical transition attribute there — see the
    // unit's RegionEmitter).
    let observed_critical = (prof.fraction(states::CRITICAL) * duration as f64) as u64;
    let runtime_critical = plan
        .regions
        .iter()
        .filter(|r| r.kind == RegionKind::Critical)
        .max_by_key(|r| r.score)
        .map(|r| r.id);

    let weight = |id: u16| {
        if tree.analytic {
            tree.region(id).profit.cycles
        } else {
            tree.region(id).score
        }
    };

    let mut cycles_of: HashMap<u16, u64> = HashMap::new();
    let mut was_observed: HashMap<u16, bool> = HashMap::new();
    for r in &plan.regions {
        if r.parent.is_none() {
            cycles_of.insert(r.id, duration);
        }
    }
    // plan.regions is pre-order, so each parent's figure is settled before
    // its children are visited. Observed children (critical sections) are
    // charged first; the remaining siblings split what is left of the
    // parent by their static weight ratio, keeping the sum of any region's
    // children at or below the region itself.
    for p in &plan.regions {
        let Some(&pc) = cycles_of.get(&p.id) else {
            continue;
        };
        let kids: Vec<_> = plan
            .regions
            .iter()
            .filter(|r| r.parent == Some(p.id))
            .collect();
        let mut remaining = pc;
        for k in &kids {
            if runtime_critical == Some(k.id) && observed_critical > 0 {
                let c = observed_critical.min(remaining);
                cycles_of.insert(k.id, c);
                was_observed.insert(k.id, true);
                remaining -= c;
            }
        }
        let pw = weight(p.id);
        for k in &kids {
            if was_observed.contains_key(&k.id) {
                continue;
            }
            let c = if pw == 0 {
                0
            } else {
                (((remaining as u128) * (weight(k.id) as u128)) / (pw as u128)) as u64
            }
            .min(remaining);
            cycles_of.insert(k.id, c);
        }
    }
    plan.regions
        .iter()
        .map(|r| RegionAttribution {
            id: r.id,
            parent: r.parent,
            label: r.label.clone(),
            depth: r.depth,
            kind: r.kind,
            cycles: cycles_of.get(&r.id).copied().unwrap_or(0),
            observed: was_observed.get(&r.id).copied().unwrap_or(false),
        })
        .collect()
}

/// The most expensive *source* region of a run: the non-root region with
/// the most attributed cycles (deepest wins ties — it is the most specific
/// answer). Falls back to the root when the plan instrumented nothing else.
pub fn hottest_region(att: &[RegionAttribution]) -> Option<&RegionAttribution> {
    att.iter()
        .filter(|r| r.depth > 0)
        .max_by_key(|r| (r.cycles, r.depth))
        .or_else(|| att.first())
}

/// Fraction of the root's cycles that the root's direct children account
/// for — the reconciliation figure: ~1.0 means the region split explains
/// the whole-kernel cycle count.
pub fn attribution_coverage(att: &[RegionAttribution]) -> f64 {
    let Some(root) = att.iter().find(|r| r.parent.is_none()) else {
        return 0.0;
    };
    let top: u64 = att
        .iter()
        .filter(|r| r.parent == Some(root.id))
        .map(|r| r.cycles)
        .sum();
    top as f64 / root.cycles.max(1) as f64
}

/// Render the region attribution as an indented table for terminal reports.
pub fn render_region_attribution(att: &[RegionAttribution]) -> String {
    let mut s = String::new();
    for r in att {
        s.push_str(&format!(
            "  {:>12} cyc  {}{} [{}]{}\n",
            r.cycles,
            "  ".repeat(r.depth as usize),
            r.label,
            r.kind.name(),
            if r.observed { " (observed)" } else { "" }
        ));
    }
    s
}

/// Render a predicted-vs-observed section for terminal reports.
pub fn render_confrontation(outcomes: &[PredictionOutcome]) -> String {
    if outcomes.is_empty() {
        return "  (no static performance findings to confront)\n".to_string();
    }
    let mut s = String::new();
    for o in outcomes {
        s.push_str("  ");
        s.push_str(&o.detail);
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::{ProfilingConfig, ProfilingUnit};
    use fpga_sim::stats::ThreadStats;
    use fpga_sim::{Snoop, ThreadState};

    fn mk_trace(f: impl FnOnce(&mut ProfilingUnit)) -> TraceData {
        let mut u = ProfilingUnit::new(
            "t",
            2,
            ProfilingConfig {
                sampling_period: 100,
                ..Default::default()
            },
        );
        f(&mut u);
        u.finish()
    }

    fn stats_with(stall: u64, bytes: u64) -> RunStats {
        RunStats {
            per_thread: vec![
                ThreadStats {
                    stall_cycles: stall,
                    bytes_read: bytes,
                    ..Default::default()
                },
                ThreadStats::default(),
            ],
            ..Default::default()
        }
    }

    #[test]
    fn spinning_trace_flags_synchronization() {
        let trace = mk_trace(|u| {
            u.state_change(0, 0, ThreadState::Running);
            u.state_change(0, 1, ThreadState::Running);
            u.state_change(100, 0, ThreadState::Spinning);
            u.state_change(600, 0, ThreadState::Critical);
            u.state_change(800, 0, ThreadState::Running);
            u.run_end(1000);
        });
        let d = diagnose(
            &trace,
            &stats_with(0, 0),
            &SimConfig::default(),
            &DiagnoseConfig::default(),
        );
        assert_eq!(d.bottleneck, Bottleneck::Synchronization);
        assert!(d.sync_frac > 0.3, "{d:?}");
        assert!(d.advice.contains("critical"));
        // The advice cross-references the static analyzer's codes so the
        // user can jump from the trace symptom to the racing statements.
        assert!(d.advice.contains("NL001"), "{}", d.advice);
        assert!(d.advice.contains("NL003"), "{}", d.advice);
    }

    #[test]
    fn deadlock_hint_points_at_nl002() {
        use fpga_sim::{BlockedReason, BlockedThread};
        let e = SimError::Deadlock {
            waiting: vec![BlockedThread {
                thread: 0,
                reason: BlockedReason::AtBarrier {
                    arrived: 1,
                    expected: 2,
                },
                at_cycle: 42,
            }],
        };
        let hint = sim_error_hint(&e).expect("deadlocks have a lint hint");
        assert!(hint.contains("NL002"), "{hint}");
        assert!(hint.contains("nymble-lint"), "{hint}");
        assert_eq!(sim_error_hint(&SimError::InvalidConfig("x".into())), None);
    }

    #[test]
    fn idle_trace_flags_host_overhead() {
        let trace = mk_trace(|u| {
            u.state_change(0, 0, ThreadState::Running);
            u.state_change(100, 0, ThreadState::Idle);
            // Thread 1 never starts until very late.
            u.state_change(900, 1, ThreadState::Running);
            u.run_end(1000);
        });
        let d = diagnose(
            &trace,
            &stats_with(0, 0),
            &SimConfig::default(),
            &DiagnoseConfig::default(),
        );
        assert_eq!(d.bottleneck, Bottleneck::HostOverhead);
    }

    #[test]
    fn stalls_with_low_bandwidth_flag_latency() {
        let trace = mk_trace(|u| {
            u.state_change(0, 0, ThreadState::Running);
            u.state_change(0, 1, ThreadState::Running);
            for t in 0..10 {
                u.ops(t * 100, 0, 1, 1, 0);
                u.mem_read(t * 100, 0, 4);
            }
            u.run_end(1000);
        });
        let d = diagnose(
            &trace,
            &stats_with(600, 40),
            &SimConfig::default(),
            &DiagnoseConfig::default(),
        );
        assert_eq!(d.bottleneck, Bottleneck::MemoryLatency);
        assert!(d.advice.contains("Vectorization") || d.advice.contains("local memory"));
    }

    #[test]
    fn clean_trace_flags_compute() {
        let trace = mk_trace(|u| {
            u.state_change(0, 0, ThreadState::Running);
            u.state_change(0, 1, ThreadState::Running);
            for t in 0..10 {
                u.ops(t * 100, 0, 10, 10, 0);
                u.mem_read(t * 100, 0, 64);
            }
            u.run_end(1000);
        });
        let d = diagnose(
            &trace,
            &stats_with(0, 640),
            &SimConfig::default(),
            &DiagnoseConfig::default(),
        );
        assert_eq!(d.bottleneck, Bottleneck::Compute);
    }

    fn report_with(code: Code, metric: PredMetric, value: f64) -> LintReport {
        LintReport {
            kernel: "t".into(),
            diagnostics: vec![
                nymble_lint::Diagnostic::new(code, "m", vec![]).with_prediction(metric, value)
            ],
        }
    }

    fn empty_report() -> LintReport {
        LintReport {
            kernel: "t".into(),
            diagnostics: vec![],
        }
    }

    #[test]
    fn predictions_confirm_against_the_observed_magnitude() {
        let trace = mk_trace(|u| {
            u.state_change(0, 0, ThreadState::Running);
            u.run_end(1000);
        });
        let stats = stats_with(0, 0);
        let d = diagnose(
            &trace,
            &stats,
            &SimConfig::default(),
            &DiagnoseConfig::default(),
        );
        // Observed duration 1000 covers >= 75% of a 1200-cycle prediction…
        let r = report_with(Code::NP001, PredMetric::TotalCycles, 1200.0);
        let out = confront(&r, &trace, &stats, &d);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, Some(Code::NP001));
        assert_eq!(out[0].verdict, Verdict::Confirmed);
        assert!(out[0].detail.contains("Confirmed"), "{}", out[0].detail);
        // …but not of a 2000-cycle one: the model over-predicted.
        let r = report_with(Code::NP001, PredMetric::TotalCycles, 2000.0);
        let out = confront(&r, &trace, &stats, &d);
        assert_eq!(out[0].verdict, Verdict::NotObserved);
    }

    #[test]
    fn imbalance_confirms_on_half_the_predicted_excess() {
        let trace = mk_trace(|u| {
            u.state_change(0, 0, ThreadState::Running);
            u.run_end(1000);
        });
        let mk = |spans: [u64; 2]| RunStats {
            per_thread: spans
                .iter()
                .map(|&e| ThreadStats {
                    start_cycle: 0,
                    end_cycle: e,
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        };
        let d = diagnose(
            &trace,
            &mk([400, 200]),
            &SimConfig::default(),
            &DiagnoseConfig::default(),
        );
        // Observed ratio 2.0; predicted 2.4 needs only 1.7 to confirm.
        let r = report_with(Code::NP005, PredMetric::ImbalanceRatio, 2.4);
        let out = confront(&r, &trace, &mk([400, 200]), &d);
        assert_eq!(out[0].verdict, Verdict::Confirmed);
        // A balanced run refutes the same prediction.
        let out = confront(&r, &trace, &mk([400, 400]), &d);
        assert_eq!(out[0].verdict, Verdict::NotObserved);
    }

    #[test]
    fn spinning_run_without_np004_is_an_unpredicted_hotspot() {
        let trace = mk_trace(|u| {
            u.state_change(0, 0, ThreadState::Running);
            u.state_change(0, 1, ThreadState::Running);
            u.state_change(100, 0, ThreadState::Spinning);
            u.state_change(600, 0, ThreadState::Critical);
            u.state_change(800, 0, ThreadState::Running);
            u.run_end(1000);
        });
        let stats = stats_with(0, 0);
        let d = diagnose(
            &trace,
            &stats,
            &SimConfig::default(),
            &DiagnoseConfig::default(),
        );
        assert_eq!(d.bottleneck, Bottleneck::Synchronization);
        // No static finding explains the spinning: coverage gap, flagged.
        let out = confront(&empty_report(), &trace, &stats, &d);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, None);
        assert_eq!(out[0].verdict, Verdict::UnpredictedHotspot);
        assert!(out[0].detail.contains("NP004"), "{}", out[0].detail);
        // With an NP004 prediction on file the hotspot is accounted for.
        let r = report_with(Code::NP004, PredMetric::SerialCycles, 500.0);
        let out = confront(&r, &trace, &stats, &d);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, Some(Code::NP004));
        assert!(render_confrontation(&out).contains("NP004"));
    }

    /// A contended-reduction stall fixture: per-thread loop work followed
    /// by a critical section, compiled under `--profile=auto`.
    fn stall_fixture() -> (nymble_hls::RegionTree, std::sync::Arc<ProbePlan>) {
        use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};
        let mut kb = KernelBuilder::new("reduce", 2);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let c = kb.buffer("C", ScalarType::F32, MapDir::ToFrom);
        let acc = kb.var("acc", Type::F32);
        let n = kb.c_i64(64);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc);
            let s = kb.add(cur, v);
            kb.set(acc, s);
        });
        kb.critical(|kb| {
            let zero = kb.c_i64(0);
            let cur = kb.load(c, zero, Type::F32);
            let mine = kb.get(acc);
            let s = kb.add(cur, mine);
            kb.store(c, zero, s);
        });
        let k = kb.finish();
        let acc = nymble_hls::compile(
            &k,
            &nymble_hls::HlsConfig {
                probe: nymble_hls::ProbeMode::auto(),
                ..Default::default()
            },
        );
        (acc.regions.clone(), acc.probe_plan.unwrap())
    }

    #[test]
    fn attribution_names_a_source_region_for_a_stalling_run() {
        let (tree, plan) = stall_fixture();
        // Thread 0 spends most of the run inside the critical section.
        let trace = {
            let mut u = ProfilingUnit::new(
                "reduce",
                2,
                ProfilingConfig {
                    sampling_period: 100,
                    ..Default::default()
                }
                .with_plan(plan.clone()),
            );
            u.state_change(0, 0, ThreadState::Running);
            u.state_change(0, 1, ThreadState::Running);
            u.state_change(100, 0, ThreadState::Critical);
            u.state_change(800, 0, ThreadState::Running);
            u.run_end(1000);
            u.finish()
        };
        let att = attribute_regions(&tree, &plan, &trace);
        assert_eq!(att.len(), plan.regions.len());
        // Root gets the whole run; children never exceed their parent.
        assert_eq!(att[0].cycles, 1000);
        for r in &att {
            if let Some(p) = r.parent {
                let parent = att.iter().find(|a| a.id == p).unwrap();
                assert!(r.cycles <= parent.cycles, "{r:?} > parent");
            }
        }
        // The critical region's figure is the *observed* critical time:
        // 700 thread-cycles over 2 threads = 350 wall cycles.
        let crit = att.iter().find(|r| r.kind == RegionKind::Critical).unwrap();
        assert!(crit.observed);
        assert_eq!(crit.cycles, 350);
        // The hottest region names a source construct, not a thread.
        let hot = hottest_region(&att).unwrap();
        assert!(hot.depth > 0);
        assert!(
            hot.label.contains('/'),
            "names a source path, got {}",
            hot.label
        );
        let rendered = render_region_attribution(&att);
        assert!(rendered.contains("critical#0"), "{rendered}");
        // Direct children of the root explain most of the run.
        let cov = attribution_coverage(&att);
        assert!(cov > 0.5 && cov <= 1.0 + 1e-9, "{cov}");
    }

    #[test]
    fn alternating_phases_flag_phased_transfers() {
        let trace = mk_trace(|u| {
            u.state_change(0, 0, ThreadState::Running);
            u.state_change(0, 1, ThreadState::Running);
            // Strict alternation: read window, then compute window.
            for w in 0..10u64 {
                let t = w * 100;
                if w % 2 == 0 {
                    u.mem_read(t + 10, 0, 4096);
                } else {
                    u.ops(t + 10, 0, 0, 1000, 0);
                }
            }
            u.run_end(1000);
        });
        let d = diagnose(
            &trace,
            &stats_with(100, 20_480),
            &SimConfig::default(),
            &DiagnoseConfig {
                windows: 10,
                ..Default::default()
            },
        );
        assert_eq!(d.bottleneck, Bottleneck::PhasedTransfers, "{d:?}");
        assert!(d.phase_score > 0.8, "{}", d.phase_score);
    }
}
