//! # nymble-ir — kernel intermediate representation for the Nymble-style HLS flow
//!
//! This crate models the input language of the HLS compiler described in the
//! CLUSTER 2020 paper *"Extending High-Level Synthesis with High-Performance
//! Computing Performance Visualization"*. The paper's Nymble compiler accepts
//! C/C++ with OpenMP 4.0 `target` offloading constructs; since this
//! reproduction has no C frontend, kernels are constructed through a builder
//! API ([`builder::KernelBuilder`]) that mirrors the OpenMP constructs used in
//! the paper's listings (Figs. 3–5 and 10):
//!
//! * `#pragma omp target parallel map(...) num_threads(N)` →
//!   [`builder::KernelBuilder::new`]`(name, num_threads)` plus `map_*` argument declarations,
//! * `omp_get_thread_num()` / `omp_get_num_threads()` → [`expr::Expr::ThreadId`]
//!   and [`expr::Expr::NumThreads`],
//! * `#pragma omp critical` → [`stmt::Stmt::Critical`],
//! * `#pragma omp barrier` → [`stmt::Stmt::Barrier`],
//! * `#pragma unroll W` and vector types → loop unroll annotations and
//!   multi-lane [`types::Type`]s.
//!
//! The IR is *structured* (loop trees, not CFGs) because Nymble embeds inner
//! loops into the surrounding dataflow graph as single variable-latency
//! operation nodes (§III-B of the paper); the structure is exactly what the
//! scheduler in `nymble-hls` consumes.
//!
//! The crate also contains the *semantic engine*: [`walker::Walker`] executes
//! one hardware thread of a kernel and yields a stream of
//! [`walker::StepEvent`]s (operation counts, external-memory accesses,
//! critical-section boundaries, loop-iteration boundaries). Walkers execute
//! the kernel's [`tape::Program`], a flat typed instruction tape lowered
//! once per run. Two drivers exist:
//!
//! * [`interp::Interpreter`] — the untimed gold model used to verify
//!   functional correctness (e.g. GEMM against a CPU reference), and
//! * `fpga_sim::exec` (in the `fpga-sim` crate) — the cycle-level timed model
//!   that attaches the paper's profiling unit.
//!
//! Both drivers keep external memory as typed flat [`Buffer`]s.

pub mod buffer;
pub mod builder;
pub mod expr;
pub mod interp;
pub mod kernel;
pub mod loops;
pub mod pretty;
pub mod stmt;
pub mod tape;
pub mod types;
pub mod validate;
pub mod walker;

pub use buffer::Buffer;
pub use builder::{FinishCheck, KernelBuilder};
pub use expr::{BinOp, Expr, ExprId, UnOp};
pub use kernel::{Arg, ArgId, ArgKind, Kernel, LocalMem, LocalMemId, MapDir, VarDecl, VarId};
pub use stmt::{Block, Stmt};
pub use types::{ScalarType, Type, Value};
