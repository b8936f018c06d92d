//! The profiling unit proper: glue between the datapath snoop interface, the
//! state recorder, the counter bank and the trace buffer.
//!
//! What the unit instruments is [`ProfilingConfig`]: which counter modules
//! (a `nymble_hls::probe::CounterSet`, the type an auto-probe plan selects
//! too), whether the state recorder exists, and the plan's region probes.
//! [`ProfilingConfig::for_design`] aligns a configuration with a compiled
//! design's plan; the unit, its overhead fit and the bundle writer all read
//! that one configuration.

use crate::buffer::TraceBuffer;
use crate::counters::CounterBank;
use crate::decode;
use crate::recorder::{pack_region_record, StateRecorder};
use fpga_sim::{Snoop, ThreadState};
use nymble_hls::probe::{CounterSet, ProbePlan};
use nymble_hls::region::RegionKind;
use nymble_hls::Accelerator;
use paraver::model::{Records, TraceMeta};
use std::fmt;
use std::sync::Arc;

/// Configuration of the generated profiling hardware.
#[derive(Clone, Debug)]
pub struct ProfilingConfig {
    /// Event sampling period in cycles ("user-adjustable, ... a proxy over
    /// \[how\] fine-grained information is required, but ... the higher the
    /// period, the more data is produced" — §IV-B.2; note the paper means
    /// the *rate*: shorter periods produce more data).
    pub sampling_period: u64,
    /// Trace buffer size in 512-bit lines.
    pub buffer_lines: usize,
    /// Which counter modules are instantiated (default: all six).
    pub counters: CounterSet,
    /// Whether the state machine/recorder is instantiated.
    pub record_states: bool,
    /// Auto-probe plan driving the instrumentation (`--profile=auto`).
    /// When set, [`Self::with_plan`] has made `counters` the plan's
    /// selected event classes and the unit additionally emits region
    /// enter/exit records for the plan's instrumented regions.
    pub plan: Option<Arc<ProbePlan>>,
}

impl Default for ProfilingConfig {
    fn default() -> Self {
        ProfilingConfig {
            sampling_period: 10_000,
            buffer_lines: 512,
            counters: CounterSet::default(),
            record_states: true,
            plan: None,
        }
    }
}

/// Why a [`ProfilingConfig`] cannot describe buildable hardware (the
/// profiling analogue of `fpga_sim::SimConfig::validate`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProfilingConfigError {
    /// The sampling timer cannot fire every zero cycles.
    ZeroSamplingPeriod,
    /// A trace buffer of zero lines can never hold a record.
    ZeroBufferLines,
    /// The attached auto-probe plan selects no counters and no regions —
    /// the budget was too small to instrument anything.
    EmptyPlan {
        /// The budget the degenerate plan was solved under.
        budget_alms: u32,
    },
}

impl fmt::Display for ProfilingConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfilingConfigError::ZeroSamplingPeriod => {
                write!(f, "sampling_period must be at least 1 cycle")
            }
            ProfilingConfigError::ZeroBufferLines => {
                write!(f, "buffer_lines must be at least 1 trace line")
            }
            ProfilingConfigError::EmptyPlan { budget_alms } => write!(
                f,
                "auto-probe budget of {budget_alms} ALMs selects nothing: \
                 raise the budget (one counter costs ~30 ALMs plus ~4 per thread)"
            ),
        }
    }
}

impl std::error::Error for ProfilingConfigError {}

impl ProfilingConfig {
    /// Check the configuration describes buildable profiling hardware.
    /// Note an all-off unit (`CounterSet::NONE`, no state recorder) is
    /// *valid* — it is the baseline of the §V-B overhead study.
    pub fn validate(&self) -> Result<(), ProfilingConfigError> {
        if self.sampling_period == 0 {
            return Err(ProfilingConfigError::ZeroSamplingPeriod);
        }
        if self.buffer_lines == 0 {
            return Err(ProfilingConfigError::ZeroBufferLines);
        }
        if let Some(plan) = &self.plan {
            if plan.counters == CounterSet::NONE && plan.regions.is_empty() {
                return Err(ProfilingConfigError::EmptyPlan {
                    budget_alms: plan.budget_alms,
                });
            }
        }
        Ok(())
    }

    /// Drive the instrumentation from an auto-probe plan: the counter set
    /// becomes exactly the plan's selected event classes, and the unit will
    /// emit region records for the plan's instrumented regions.
    pub fn with_plan(mut self, plan: Arc<ProbePlan>) -> Self {
        self.counters = plan.counters;
        self.plan = Some(plan);
        self
    }

    /// This configuration aligned with `accel`'s auto-probe plan when its
    /// compile selected one ([`Self::with_plan`]), else unchanged: the one
    /// step every caller takes between compiling a design and building or
    /// pricing its profiling unit.
    pub fn for_design(&self, accel: &Accelerator) -> ProfilingConfig {
        match &accel.probe_plan {
            Some(plan) => self.clone().with_plan(plan.clone()),
            None => self.clone(),
        }
    }
}

/// Decoded output of a profiled run.
#[derive(Clone, Debug)]
pub struct TraceData {
    /// Paraver records (time-sorted).
    pub records: Records,
    /// Trace metadata for the `.prv` header / `.row` file.
    pub meta: TraceMeta,
    /// Bytes of trace data flushed to external memory (with line padding).
    pub flushed_bytes: u64,
    /// Number of buffer flushes during the run.
    pub flush_count: usize,
    /// The auto-probe plan the unit recorded under, when there was one;
    /// carried so the bundle's `.pcf`/`.row` can name the regions.
    pub plan: Option<Arc<ProbePlan>>,
}

impl TraceData {
    /// Write the `.prv`/`.pcf`/`.row` bundle under `path_stem`. Under an
    /// auto-probe plan the `.pcf` event table gains one entry per
    /// instrumented region and the `.row` a `LEVEL REGION` hierarchy.
    ///
    /// `records` must be time-sorted, as [`ProfilingUnit::finish`] returns
    /// them; a record out of order stops the write with
    /// [`paraver::TraceError::OutOfOrder`].
    pub fn write_bundle(&self, path_stem: &std::path::Path) -> Result<(), paraver::TraceError> {
        let (event_defs, row_regions) = match &self.plan {
            None => (paraver::events::defs(), Vec::new()),
            Some(plan) => (
                paraver::events::defs_with_regions(&plan.pcf_regions()),
                plan.row_regions(),
            ),
        };
        let mut w = paraver::BundleWriter::create(
            path_stem,
            &self.meta,
            &paraver::states::defs(),
            &event_defs,
        )?
        .with_regions(row_regions);
        w.write_all(&self.records)?;
        w.finish()
    }
}

/// Runtime region tracking derived from the plan: which probes exist and
/// which edges each thread currently sits inside. All of it is driven by
/// the *existing* snoop signals (state transitions and run end) — the
/// datapath taps are identical with and without a plan; only what gets
/// recorded differs.
struct RegionEmitter {
    /// The kernel-root cycle probe is selected.
    root: bool,
    /// The critical-section probe runtime events map to: the hardware has a
    /// single semaphore, so every critical transition attributes to the
    /// plan's highest-ranked selected critical region.
    critical: Option<u16>,
    /// Per-thread: first Running seen (root entered).
    started: Vec<bool>,
    /// Per-thread: currently inside a critical section.
    in_critical: Vec<bool>,
}

impl RegionEmitter {
    fn new(plan: &ProbePlan, num_threads: u32) -> Self {
        RegionEmitter {
            root: plan.region(0).is_some(),
            critical: plan
                .regions
                .iter()
                .filter(|r| r.kind == RegionKind::Critical)
                .max_by_key(|r| r.score)
                .map(|r| r.id),
            started: vec![false; num_threads as usize],
            in_critical: vec![false; num_threads as usize],
        }
    }
}

/// The profiling unit. Implements [`Snoop`] — the hardware's tap points.
///
/// The flushed stream accumulates in (simulated) external memory and
/// [`ProfilingUnit::finish`] decodes it after the run, as the host does.
pub struct ProfilingUnit {
    cfg: ProfilingConfig,
    app_name: String,
    num_threads: u32,
    recorder: StateRecorder,
    counters: CounterBank,
    buffer: TraceBuffer,
    regions: Option<RegionEmitter>,
    next_sample: u64,
    total_cycles: u64,
    ended: bool,
}

impl ProfilingUnit {
    /// Instantiate for an accelerator with `num_threads` hardware threads.
    pub fn new(app_name: &str, num_threads: u32, cfg: ProfilingConfig) -> Self {
        // A degenerate config used to be clamped silently (`.max(1)` on the
        // period); now it is a hard, typed error at construction.
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        ProfilingUnit {
            recorder: StateRecorder::new(num_threads),
            counters: CounterBank::new(num_threads, cfg.counters),
            buffer: TraceBuffer::new(cfg.buffer_lines),
            regions: cfg
                .plan
                .as_deref()
                .map(|plan| RegionEmitter::new(plan, num_threads)),
            next_sample: cfg.sampling_period,
            cfg,
            app_name: app_name.to_string(),
            num_threads,
            total_cycles: 0,
            ended: false,
        }
    }

    /// The configuration this unit was generated with.
    pub fn config(&self) -> &ProfilingConfig {
        &self.cfg
    }

    /// Sample every thread's aggregates for all boundaries up to `t`.
    fn advance_sampling(&mut self, t: u64) {
        while t >= self.next_sample {
            let boundary = self.next_sample;
            for tid in 0..self.num_threads {
                if let Some(rec) = self.counters.sample(boundary, tid) {
                    self.buffer.push(&rec);
                }
            }
            self.next_sample += self.cfg.sampling_period;
        }
    }

    /// Derive region enter/exit records from a state transition. Purely a
    /// recording decision: the tap is the same state signal the recorder
    /// snoops, so instrumented and uninstrumented runs execute identically.
    fn region_transition(&mut self, t: u64, tid: u32, state: ThreadState) {
        let Some(re) = &mut self.regions else { return };
        let i = tid as usize;
        let mut recs = [None, None];
        if state != ThreadState::Idle && !re.started[i] {
            re.started[i] = true;
            if re.root {
                recs[0] = Some(pack_region_record(t, tid, 0, true));
            }
        }
        if state == ThreadState::Critical {
            if !re.in_critical[i] {
                re.in_critical[i] = true;
                recs[1] = re.critical.map(|cr| pack_region_record(t, tid, cr, true));
            }
        } else if re.in_critical[i] {
            re.in_critical[i] = false;
            recs[1] = re.critical.map(|cr| pack_region_record(t, tid, cr, false));
        }
        for rec in recs.into_iter().flatten() {
            self.buffer.push(&rec);
        }
    }

    /// Consume the unit after the run and decode the buffer stream into
    /// time-sorted Paraver records.
    pub fn finish(self) -> TraceData {
        assert!(
            self.ended,
            "finish() before run_end(): trace buffer not flushed"
        );
        let records =
            decode::decode_stream(self.buffer.stream(), self.num_threads, self.total_cycles);
        TraceData {
            records,
            meta: TraceMeta::new(&self.app_name, self.total_cycles, self.num_threads),
            flushed_bytes: self.buffer.flushed_bytes(),
            flush_count: self.buffer.flush_count(),
            plan: self.cfg.plan.clone(),
        }
    }
}

impl Snoop for ProfilingUnit {
    fn state_change(&mut self, t: u64, tid: u32, state: ThreadState) {
        self.advance_sampling(t);
        self.region_transition(t, tid, state);
        if !self.cfg.record_states {
            return;
        }
        if let Some(rec) = self.recorder.transition(t, tid, state) {
            self.buffer.push(rec);
        }
    }

    fn stall(&mut self, t: u64, tid: u32, cycles: u64) {
        self.advance_sampling(t);
        self.counters.add_stalls(tid, cycles);
    }

    fn ops(&mut self, t: u64, tid: u32, int_ops: u64, flops: u64, local_ops: u64) {
        self.advance_sampling(t);
        self.counters.add_ops(tid, int_ops, flops, local_ops);
    }

    fn mem_read(&mut self, t: u64, tid: u32, bytes: u64) {
        self.advance_sampling(t);
        self.counters.add_read(tid, bytes);
    }

    fn mem_write(&mut self, t: u64, tid: u32, bytes: u64) {
        self.advance_sampling(t);
        self.counters.add_write(tid, bytes);
    }

    fn run_end(&mut self, t: u64) {
        self.advance_sampling(t);
        // Final partial-period sample so no counts are lost.
        for tid in 0..self.num_threads {
            if let Some(rec) = self.counters.sample(t, tid) {
                self.buffer.push(&rec);
            }
        }
        // Close every open region edge: the kernel root spans first start to
        // run end, and a thread parked inside a critical section exits it.
        if let Some(re) = self.regions.take() {
            for tid in 0..self.num_threads {
                let i = tid as usize;
                if re.in_critical[i] {
                    if let Some(cr) = re.critical {
                        self.buffer.push(&pack_region_record(t, tid, cr, false));
                    }
                }
                if re.started[i] && re.root {
                    self.buffer.push(&pack_region_record(t, tid, 0, false));
                }
            }
        }
        self.total_cycles = t;
        self.buffer.flush();
        self.ended = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraver::analysis::StateProfile;
    use paraver::model::Record;

    #[test]
    fn end_to_end_state_and_event_decode() {
        let mut u = ProfilingUnit::new(
            "t",
            2,
            ProfilingConfig {
                sampling_period: 100,
                ..Default::default()
            },
        );
        u.state_change(0, 0, ThreadState::Idle); // suppressed (already idle)
        u.state_change(10, 0, ThreadState::Running);
        u.ops(20, 0, 4, 8, 0);
        u.mem_read(30, 0, 64);
        u.state_change(50, 1, ThreadState::Running);
        u.ops(150, 1, 2, 2, 2); // second sampling period
        u.state_change(400, 0, ThreadState::Idle);
        u.state_change(420, 1, ThreadState::Idle);
        u.run_end(500);
        let td = u.finish();
        assert_eq!(td.meta.num_threads, 2);
        assert_eq!(td.meta.duration, 500);
        assert!(td.flushed_bytes > 0);

        let prof = StateProfile::compute(&td.records, 2);
        // Thread 0: idle 0–10, running 10–400, idle 400–500.
        let t0_running: u64 = prof.per_thread[&0]
            .get(&paraver::states::RUNNING)
            .copied()
            .unwrap_or(0);
        assert_eq!(t0_running, 390);
        // Events: flops of thread 0 in first period.
        let flops = paraver::analysis::event_total(&td.records, paraver::events::FLOPS);
        assert_eq!(flops, 8 + 2);
        let reads = paraver::analysis::event_total(&td.records, paraver::events::BYTES_READ);
        assert_eq!(reads, 64);
    }

    #[test]
    fn sampling_period_controls_record_count() {
        let run = |period: u64| {
            let mut u = ProfilingUnit::new(
                "t",
                1,
                ProfilingConfig {
                    sampling_period: period,
                    ..Default::default()
                },
            );
            u.state_change(0, 0, ThreadState::Running);
            for t in 0..100 {
                u.ops(t * 10, 0, 1, 1, 0);
            }
            u.run_end(1000);
            u.finish()
                .records
                .iter()
                .filter(|r| matches!(r, Record::Event { .. }))
                .count()
        };
        let fine = run(10);
        let coarse = run(500);
        assert!(
            fine > coarse * 4,
            "10× shorter period must yield many more samples: {fine} vs {coarse}"
        );
    }

    #[test]
    #[should_panic(expected = "before run_end")]
    fn finish_requires_run_end() {
        let u = ProfilingUnit::new("t", 1, ProfilingConfig::default());
        let _ = u.finish();
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        use crate::unit::ProfilingConfigError as E;
        let zero_period = ProfilingConfig {
            sampling_period: 0,
            ..Default::default()
        };
        assert_eq!(zero_period.validate(), Err(E::ZeroSamplingPeriod));
        let zero_buffer = ProfilingConfig {
            buffer_lines: 0,
            ..Default::default()
        };
        assert_eq!(zero_buffer.validate(), Err(E::ZeroBufferLines));
        // The all-off unit is the overhead study's baseline — still valid.
        let baseline = ProfilingConfig {
            counters: CounterSet::NONE,
            record_states: false,
            ..Default::default()
        };
        assert_eq!(baseline.validate(), Ok(()));
        assert!(ProfilingConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "sampling_period")]
    fn constructing_a_degenerate_unit_panics_with_the_typed_message() {
        let _ = ProfilingUnit::new(
            "t",
            1,
            ProfilingConfig {
                sampling_period: 0,
                ..Default::default()
            },
        );
    }

    fn critical_kernel_plan() -> std::sync::Arc<nymble_hls::ProbePlan> {
        use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};
        let mut kb = KernelBuilder::new("crit", 2);
        let c = kb.buffer("C", ScalarType::F32, MapDir::ToFrom);
        let x = kb.var("x", Type::F32);
        let n = kb.c_i64(32);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(c, i, Type::F32);
            let s = kb.add(v, v);
            kb.set(x, s);
        });
        kb.critical(|kb| {
            let zero = kb.c_i64(0);
            let v = kb.load(c, zero, Type::F32);
            let s = kb.add(v, v);
            kb.store(c, zero, s);
        });
        let k = kb.finish();
        let cfg = nymble_hls::HlsConfig {
            probe: nymble_hls::ProbeMode::auto(),
            ..Default::default()
        };
        nymble_hls::compile(&k, &cfg)
            .probe_plan
            .expect("auto mode attaches a plan")
    }

    #[test]
    fn empty_plan_is_a_typed_error() {
        use crate::unit::ProfilingConfigError as E;
        let plan = std::sync::Arc::new(nymble_hls::probe::ProbePlan {
            budget_alms: 0,
            counters: CounterSet::NONE,
            regions: vec![],
            skipped_regions: 3,
            cost_alms: 0,
            cost_regs: 0,
        });
        let cfg = ProfilingConfig::default().with_plan(plan);
        assert_eq!(cfg.validate(), Err(E::EmptyPlan { budget_alms: 0 }));
    }

    #[test]
    fn plan_drives_region_records_and_bundle_sections() {
        let plan = critical_kernel_plan();
        assert!(plan.covers_default_set());
        let mut u = ProfilingUnit::new(
            "crit",
            2,
            ProfilingConfig {
                sampling_period: 100,
                ..Default::default()
            }
            .with_plan(plan.clone()),
        );
        u.state_change(5, 0, ThreadState::Running);
        u.state_change(8, 1, ThreadState::Running);
        u.state_change(50, 0, ThreadState::Critical);
        u.state_change(90, 0, ThreadState::Running);
        u.run_end(200);
        let td = u.finish();

        let crit_id = plan
            .regions
            .iter()
            .find(|r| r.label.contains("critical"))
            .expect("critical region selected")
            .id;
        let mut got = Vec::new();
        for r in &td.records {
            if let Record::Event {
                thread,
                time,
                events,
            } = r
            {
                for (ty, v) in events {
                    if ty >= paraver::events::REGION_BASE {
                        got.push((thread, time, ty, v));
                    }
                }
            }
        }
        let root = paraver::events::region_type(0);
        let crit = paraver::events::region_type(crit_id);
        assert!(got.contains(&(0, 5, root, 1)), "{got:?}");
        assert!(got.contains(&(1, 8, root, 1)), "{got:?}");
        assert!(got.contains(&(0, 50, crit, 1)), "{got:?}");
        assert!(got.contains(&(0, 90, crit, 0)), "{got:?}");
        assert!(got.contains(&(0, 200, root, 0)), "{got:?}");
        assert!(got.contains(&(1, 200, root, 0)), "{got:?}");

        // The bundle names the regions in the .pcf and .row.
        let dir = std::env::temp_dir().join(format!("probe-bundle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("crit");
        td.write_bundle(&stem).unwrap();
        let pcf = std::fs::read_to_string(stem.with_extension("pcf")).unwrap();
        assert!(pcf.contains(&format!("{root}    Region: crit")), "{pcf}");
        let row = std::fs::read_to_string(stem.with_extension("row")).unwrap();
        let regions = paraver::row::parse_regions(&row);
        assert_eq!(regions.len(), plan.regions.len());
        assert_eq!(regions[0], (0, "crit".to_string()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsorted_trace_data_is_a_typed_write_error() {
        let mut records = Records::new();
        records.push_event(0, 20, [(paraver::events::FLOPS, 1)]);
        records.push_event(0, 10, [(paraver::events::FLOPS, 1)]);
        let td = TraceData {
            records,
            meta: TraceMeta::new("t", 100, 1),
            flushed_bytes: 0,
            flush_count: 0,
            plan: None,
        };
        let dir = std::env::temp_dir().join(format!("unsorted-bundle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = td.write_bundle(&dir.join("t")).unwrap_err();
        assert!(
            matches!(err, paraver::TraceError::OutOfOrder { prev: 20, next: 10 }),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_without_probes_for_a_state_leaves_the_stream_plain() {
        // A plan whose budget only afforded the root and one counter emits
        // no critical-region records even when threads enter criticals.
        let plan = critical_kernel_plan();
        let p = nymble_hls::ProbeCostParams::default();
        let tight = std::sync::Arc::new(nymble_hls::probe::ProbePlan {
            budget_alms: 2 * p.alms_per_counter(2) as u32,
            counters: CounterSet::NONE.with(nymble_hls::CounterClass::Stalls),
            regions: plan.regions[..1].to_vec(),
            skipped_regions: plan.regions.len() - 1,
            cost_alms: 2 * p.alms_per_counter(2),
            cost_regs: 2 * p.regs_per_counter(2),
        });
        let mut u = ProfilingUnit::new(
            "crit",
            2,
            ProfilingConfig {
                sampling_period: 100,
                ..Default::default()
            }
            .with_plan(tight),
        );
        u.state_change(5, 0, ThreadState::Running);
        u.state_change(50, 0, ThreadState::Critical);
        u.state_change(90, 0, ThreadState::Running);
        u.run_end(200);
        let td = u.finish();
        let region_events: Vec<u32> = td
            .records
            .iter()
            .filter_map(|r| match r {
                Record::Event { events, .. } => events
                    .get(0)
                    .map(|(ty, _)| ty)
                    .filter(|&ty| ty >= paraver::events::REGION_BASE),
                _ => None,
            })
            .collect();
        let root = paraver::events::region_type(0);
        assert!(!region_events.is_empty());
        assert!(
            region_events.iter().all(|ty| *ty == root),
            "{region_events:?}"
        );
    }

    #[test]
    fn states_disabled_still_counts_events() {
        let mut u = ProfilingUnit::new(
            "t",
            1,
            ProfilingConfig {
                record_states: false,
                ..Default::default()
            },
        );
        u.state_change(0, 0, ThreadState::Running);
        u.ops(5, 0, 1, 2, 3);
        u.run_end(100);
        let td = u.finish();
        // No transitions were recorded, so the only state records are the
        // synthetic whole-run Idle intervals the decoder closes.
        assert!(td.records.iter().all(|r| match r {
            Record::State {
                state, begin, end, ..
            } => state == paraver::states::IDLE && (begin, end) == (0, 100),
            _ => true,
        }));
        assert_eq!(
            paraver::analysis::event_total(&td.records, paraver::events::FLOPS),
            2
        );
    }
}
