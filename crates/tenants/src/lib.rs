//! Multi-tenancy for the Mosaic Pages simulator: many concurrent
//! address spaces over one shared frame pool.
//!
//! The single-process experiments (Figure 6, Tables 3–4) hash one
//! hard-coded ASID. This crate models what the paper's Linux prototype
//! actually serves — a population of processes whose `(ASID, VPN)` keys
//! interleave in the same Iceberg table (§3.2) — and asks the questions
//! that only make sense with tenants: does pressure cost land fairly
//! across Zipf ranks, does exit-time reclaim really return every frame,
//! and does fork-style COW sharing (location-ID sharing, §2.5) hold up
//! under churn?
//!
//! The layers, bottom-up:
//!
//! - [`registry`] — the ASID mint: spawn/exit lifecycle, monotonic
//!   never-recycled ASIDs, deterministic iteration.
//! - [`cow`] — fork-style copy-on-write over
//!   [`SharedMosaicMemory`](mosaic_mem::SharedMosaicMemory): shared
//!   location IDs until first write, then private re-placement through
//!   the Iceberg table, with exact refcount + frame accounting.
//! - [`vm`] — the integration showcase: registry + COW + both TLB
//!   designs, with full exit teardown (frame reclaim *and* ASID
//!   shootdown in both TLBs).
//! - [`driver`] — the deterministic multi-tenant pressure driver:
//!   record-once per-tenant traces interleaved under Zipf(θ), optional
//!   exit/respawn churn, replayed identically into Mosaic and the Linux
//!   baseline; grid sweeps run through the parallel engine with
//!   byte-identical output at any `--jobs`.
//! - [`fairness`] — per-tenant percentile and Zipf-rank-bucket
//!   reductions of the drive's slot counters, and the fairness table
//!   the `tenants` binary prints.
//!
//! A one-tenant, churn-free run through the driver is bit-identical to
//! [`run_pressure`](mosaic_sim::pressure::run_pressure) — the oracle
//! equivalence the test suite pins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cow;
pub mod driver;
pub mod fairness;
pub mod registry;
pub mod vm;

pub use cow::{CowMemory, CowStats};
pub use driver::{
    as_pressure_config, build_schedule, contention_exercise, isolation_lines, quota_plan,
    run_isolation, run_isolation_grid, run_schedule_observed, run_tenants, run_tenants_grid,
    solo_schedule, ContentionReport, HostileScenario, IsolationOutcome,
    QuotaPlan, Schedule, TenantMix, TenantOp, TenantsConfig, TenantsRow,
};
pub use fairness::{
    bucket_rows, inflation_x100, rank_buckets, render_fairness, render_isolation, summarize,
    summarize_inflation, victim_inflations, BucketRow, FaultRateSummary, InflationSummary,
    IsolationLine, RankBucket, TenantSlotStats,
};
pub use registry::{Tenant, TenantError, TenantId, TenantRegistry};
pub use vm::{ExitReport, TenantVm};
