//! Full-system composition: the experiment drivers that reproduce the
//! Mosaic Pages evaluation (§4).
//!
//! This crate wires the substrates together — workload traces feed a
//! demand-paged OS model whose translations populate vanilla and mosaic
//! TLBs — and provides one driver per paper artifact:
//!
//! * [`fig6`] — TLB misses across workloads × arity × associativity
//!   (Figure 6), using the paper's dual-TLB methodology: every memory
//!   reference is fed to a vanilla TLB and the mosaic TLBs simultaneously;
//! * [`pressure`] — memory utilization at first conflict and steady state
//!   (Table 3) and swap I/O under increasing footprints (Table 4),
//!   comparing [`MosaicMemory`](mosaic_mem::MosaicMemory) against the
//!   Linux-like baseline;
//! * [`platform`] — the simulated-platform descriptions of Table 1;
//! * [`report`] — plain-text table rendering shared by the binaries.
//!
//! # Example
//!
//! ```
//! use mosaic_sim::fig6::{Fig6Config, run_workload};
//! use mosaic_sim::RunOpts;
//! use mosaic_workloads::{Gups, GupsConfig};
//!
//! let cfg = Fig6Config::quick_test();
//! let mut w = Gups::new(GupsConfig { table_bytes: 1 << 20, updates: 5_000 }, 1);
//! let rows = run_workload(&cfg, &mut w, &RunOpts::default());
//! assert!(!rows.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Production code returns typed errors; .unwrap() is for tests only.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod attrib;
pub mod dcache;
pub mod dual;
pub mod fig6;
pub mod frag;
pub mod os;
pub mod parallel;
pub mod platform;
pub mod pressure;
pub mod report;
pub mod trace_buffer;

pub use attrib::{
    conflict_removed, explained_by_conflict_pct, run_attrib, AttribConfig, AttribReport,
    AttribWorkload, MemAttribRow, TlbAttribRow,
};
pub use dcache::{run_coloring, ColoringResult, DataCache, Placement};
pub use dual::{DualSim, KernelConfig};
pub use fig6::{Fig6Config, Fig6Row, TlbKind};
pub use frag::{run_frag, run_frag_jobs, FragConfig, FragResult};
pub use parallel::{derive_seed, run_cells, run_grid, RunOpts};
pub use pressure::{PressureConfig, PressureRow, PressureWorkload, Table3Row};
pub use report::Table;
pub use trace_buffer::{TraceBuffer, TraceBufferBuilder, TraceReplayer};
