//! # nymble-hls — Nymble-style HLS compiler middle/back end
//!
//! Compiles a [`nymble_ir::Kernel`] into an [`accel::Accelerator`]
//! description: per-loop pipeline schedules (stages, initiation interval,
//! depth), static/reordering region formation for the Nymble-MT
//! multi-threaded execution model (§III-B of the reproduced paper), and a
//! hardware fit report (ALMs, registers, BRAMs, DSPs, fmax) from an
//! analytical Stratix-10-like cost model.
//!
//! Pipeline overview:
//!
//! 1. [`dfg`] lowers each loop body to a dataflow graph: one node per
//!    datapath operator, with intra-iteration and loop-carried dependence
//!    edges. Inner non-unrolled loops and critical sections become single
//!    variable-latency sequence-point nodes, exactly as Nymble embeds inner
//!    loops "into the dataflow graph of the surrounding loop as a single
//!    operation node with statically unknown delay".
//! 2. [`schedule`] list-schedules the DFG under operator latencies
//!    ([`op::OpClass`] latencies) and per-thread resource constraints (one
//!    Avalon read and one write port per thread, §IV-B.2c), computing the
//!    initiation interval as max(resource II, recurrence II).
//! 3. [`accel`] assembles the per-loop schedules, marks reordering stages
//!    (stages containing VLOs hold per-thread contexts so the hardware
//!    thread scheduler can reorder threads), and runs the [`cost`] model.
//! 4. [`region`] prices the kernel's source regions with the static cost
//!    walker of [`perf`] (the same roofline behind the simulator's analytic
//!    mode and `nymble-lint`'s performance findings), and [`probe`] packs
//!    the most profitable region counters into an ALM budget.

pub mod accel;
pub mod cache;
pub mod cost;
pub mod deps;
pub mod dfg;
pub mod op;
pub mod perf;
pub mod probe;
pub mod region;
pub mod report;
pub mod schedule;

pub use accel::{compile, try_compile, Accelerator, HlsConfig};
pub use cache::{kernel_fingerprint, AccelCache, CacheStats};
pub use cost::FitReport;
pub use probe::{
    CounterClass, CounterSet, PlanRegion, ProbeMode, ProbePlan, ALL_COUNTER_CLASSES,
    DEFAULT_PROBE_BUDGET_ALMS,
};
pub use region::{Region, RegionKind, RegionTree};
pub use schedule::LoopSchedule;
