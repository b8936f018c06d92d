//! # paraver — Paraver trace toolchain
//!
//! Writers, parsers and analyses for the trace format of the BSC **Paraver**
//! visualization tool (Pillet et al., 1995), the HPC profiling frontend
//! targeted by the CLUSTER 2020 paper this repository reproduces.
//!
//! A Paraver trace is a bundle of three text files:
//!
//! * `.prv` — the trace body: a header line plus one line per record.
//!   Record kinds are **state** (type 1: an interval during which an actor is
//!   in one state), **event** (type 2: point samples of typed counters) and
//!   **communication** (type 3: point-to-point transfers). The paper supports
//!   states and events, leaving communications for multi-FPGA future work
//!   (§IV-A); this crate can still write/parse type-3 records so traces stay
//!   format-complete.
//! * `.pcf` — the configuration: state names/colours and event-type labels.
//! * `.row` — names for the rows (threads) of the timeline.
//!
//! The object model ([`model`]) maps the paper's actors onto Paraver's
//! `cpu:appl:task:thread` coordinates: one application, one task, one thread
//! row per FPGA hardware thread. A trace body is one [`Records`] stream of
//! fixed-size slots with the event pairs in a shared arena; [`Record`] is
//! the borrowed view of one record, and every writer, parser and analysis
//! works on the stream.
//!
//! [`analysis`] reproduces the computations behind the paper's figures
//! (time-in-state percentages for Fig. 6, binned bandwidth/FLOP-rate series
//! for Figs. 7–9 and 11–13), and [`timeline`] renders the state view as
//! ASCII art — the stand-in for Paraver's GUI in a headless reproduction.

pub mod analysis;
pub mod diff;
pub mod error;
pub mod histogram;
pub mod model;
pub mod parse;
pub mod pcf;
pub mod prv;
pub mod row;
pub mod timeline;

pub use error::TraceError;
pub use model::{Comm, EventTypeDef, Pairs, Record, Records, StateDef, TraceMeta};
pub use prv::{BundleWriter, TraceWriter};

/// Standard state numbering used by this toolchain, matching Fig. 2 of the
/// paper and its colour legend (Fig. 6 caption): green running, red spinning,
/// blue critical, black idle.
pub mod states {
    /// No context loaded / context finished.
    pub const IDLE: u32 = 0;
    /// Context loaded and accelerator started.
    pub const RUNNING: u32 = 1;
    /// Inside a critical section (holding the hardware semaphore).
    pub const CRITICAL: u32 = 2;
    /// Spinning on the hardware semaphore waiting to enter a critical
    /// section.
    pub const SPINNING: u32 = 3;

    /// All states with display names and RGB colours for the `.pcf`.
    pub fn defs() -> Vec<crate::model::StateDef> {
        vec![
            crate::model::StateDef {
                id: IDLE,
                name: "Idle".into(),
                color: (0, 0, 0),
            },
            crate::model::StateDef {
                id: RUNNING,
                name: "Running".into(),
                color: (0, 255, 0),
            },
            crate::model::StateDef {
                id: CRITICAL,
                name: "Critical".into(),
                color: (0, 0, 255),
            },
            crate::model::StateDef {
                id: SPINNING,
                name: "Spinning".into(),
                color: (255, 0, 0),
            },
        ]
    }
}

/// Standard event-type numbering emitted by the HLS profiling unit
/// (§IV-B.2: stalls, compute performance, memory performance).
pub mod events {
    /// Pipeline stall cycles in the sampling period.
    pub const STALLS: u32 = 42_000_001;
    /// Integer operations committed in the sampling period.
    pub const INT_OPS: u32 = 42_000_002;
    /// Floating-point operations committed in the sampling period.
    pub const FLOPS: u32 = 42_000_003;
    /// Bytes read from external memory in the sampling period.
    pub const BYTES_READ: u32 = 42_000_004;
    /// Bytes written to external memory in the sampling period.
    pub const BYTES_WRITTEN: u32 = 42_000_005;
    /// Local (BRAM) memory operations in the sampling period.
    pub const LOCAL_OPS: u32 = 42_000_006;

    /// Base id of the per-region enter/exit event family emitted under
    /// `--profile=auto`: region `r` of the compiled design's region tree
    /// maps to event type `REGION_BASE + r` (value 1 = enter, 0 = exit).
    /// Region ids are `u16`, so the family stays below the next decade.
    pub const REGION_BASE: u32 = 42_100_000;

    /// Event type id of a region probe.
    pub fn region_type(region_id: u16) -> u32 {
        REGION_BASE + region_id as u32
    }

    /// `.pcf` definition of one region probe.
    pub fn region_def(region_id: u16, label: &str) -> crate::model::EventTypeDef {
        crate::model::EventTypeDef {
            id: region_type(region_id),
            label: format!("Region: {label}"),
        }
    }

    /// The standard event table plus one entry per instrumented region.
    /// `regions` is (region id, source label) in pre-order.
    pub fn defs_with_regions(regions: &[(u16, String)]) -> Vec<crate::model::EventTypeDef> {
        let mut d = defs();
        d.extend(regions.iter().map(|(id, label)| region_def(*id, label)));
        d
    }

    /// All event types with display labels for the `.pcf`.
    pub fn defs() -> Vec<crate::model::EventTypeDef> {
        vec![
            crate::model::EventTypeDef {
                id: STALLS,
                label: "Pipeline stall cycles".into(),
            },
            crate::model::EventTypeDef {
                id: INT_OPS,
                label: "Integer operations".into(),
            },
            crate::model::EventTypeDef {
                id: FLOPS,
                label: "Floating-point operations".into(),
            },
            crate::model::EventTypeDef {
                id: BYTES_READ,
                label: "External memory bytes read".into(),
            },
            crate::model::EventTypeDef {
                id: BYTES_WRITTEN,
                label: "External memory bytes written".into(),
            },
            crate::model::EventTypeDef {
                id: LOCAL_OPS,
                label: "Local memory operations".into(),
            },
        ]
    }
}
