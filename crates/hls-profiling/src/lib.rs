//! # hls-profiling — the in-fabric profiling unit (the paper's contribution)
//!
//! Implements §IV of the reproduced paper: a profiling unit embedded in the
//! generated accelerator that
//!
//! * tracks each hardware thread's **state** (Idle/Running/Spinning/Critical,
//!   Fig. 2) in a 2-bit register and, whenever any thread changes state,
//!   appends a packed record of *all* thread states plus the 32-bit clock to
//!   a trace buffer (record width `2·N + 32` bits, §IV-B.1),
//! * aggregates **events** through per-source performance-counter modules
//!   (value + valid inputs, §IV-B.2): pipeline stalls, integer and
//!   floating-point operation counts, and read/write request bytes observed
//!   at the central Avalon interface, sampled every user-adjustable period,
//! * stores records into a 512-bit-wide **trace buffer** that flushes to
//!   external memory when nearly full (§IV-B),
//! * **decodes** the flushed byte stream back into Paraver records and writes
//!   the `.prv`/`.pcf`/`.row` bundle ([`decode`]),
//! * prices its own hardware in the analytical fit model ([`overhead`]),
//!   regenerating the §V-B area/fmax overhead numbers.
//!
//! The unit attaches to the simulator through [`fpga_sim::Snoop`] — the same
//! signals the real hardware taps from the datapath control bus.

pub mod buffer;
pub mod counters;
pub mod decode;
pub mod diagnose;
pub mod overhead;
pub mod recorder;
pub mod unit;

pub use diagnose::{
    attribute_regions, confront, hottest_region, PredictionOutcome, RegionAttribution, Verdict,
};
pub use unit::{ProfilingConfig, ProfilingConfigError, ProfilingUnit, TraceData};

/// Field-less placeholder kept only so sweep configurations that still name
/// it keep compiling; nothing reads it. The trace has one drain path
/// ([`ProfilingUnit::finish`] after the run), which has no settings.
#[derive(Clone, Debug, Default)]
pub struct PipelineConfig {}
