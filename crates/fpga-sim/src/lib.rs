//! # fpga-sim — cycle-level simulator of the Nymble accelerator template
//!
//! Simulates the architecture of Fig. 1 of the reproduced paper: a compute
//! unit with the Nymble-MT staged-pipeline execution model, per-thread Avalon
//! masters arbitrated onto external DRAM, local BRAM memories fed by a
//! preloader DMA engine, a hardware semaphore for OpenMP `critical`, and a
//! host slave interface that starts hardware threads with a software launch
//! cost (the effect driving the π case study of §V-D).
//!
//! The simulator drives one [`nymble_ir::walker::Walker`] per hardware thread
//! and attributes cycle costs to the event stream using the compiled
//! schedules from `nymble-hls`:
//!
//! * pipelined innermost loops advance by their initiation interval per
//!   iteration plus pipeline depth to drain — `depth + (n-1)·II` — with
//!   stalls inserted when a variable-latency memory response arrives later
//!   than the scheduler's assumed minimum (§III-B),
//! * loops containing inner regions execute statement-by-statement with a
//!   configurable issue width, while their inner loops / critical sections /
//!   preloader bursts are timed by their own events,
//! * external accesses go through a per-(thread, buffer) line buffer and a
//!   shared DRAM channel model with latency and bandwidth occupancy,
//! * critical sections spin on the semaphore model (FIFO grant),
//! * the profiling unit (crate `hls-profiling`) attaches through the
//!   [`snoop::Snoop`] trait and observes state changes, stalls, retired
//!   operations and memory traffic — exactly the signals the paper's
//!   hardware profiling unit snoops from the pipeline.

pub mod analytic;
pub mod config;
pub mod device;
#[cfg(test)]
mod difftest;
pub mod dram;
pub mod error;
pub mod exec;
pub mod host;
pub mod memimg;
pub mod queue;
pub mod semaphore;
pub mod snoop;
pub mod stats;
pub mod wheel;

pub use analytic::{AnalyticReport, Bound};
pub use config::SimConfig;
pub use device::{DeviceEvent, DeviceStats};
pub use error::{BlockedReason, BlockedThread, SimError};
pub use exec::{Executor, RunResult, SimRun, StepStatus};
pub use queue::ReadyQueue;
pub use snoop::{NullSnoop, Snoop, SnoopPair, SnoopRing, StatsSnoop, ThreadState};
pub use wheel::WheelQueue;
