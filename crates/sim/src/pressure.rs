//! The memory-pressure experiments: Table 3 (utilization) and Table 4
//! (swap I/O), comparing Mosaic against the Linux-like baseline.
//!
//! Each run builds a workload with a footprint that is a configured ratio
//! of physical memory (the paper sweeps ≈101 %–157 %), then drives the
//! workload's page-reference stream through both memory managers,
//! recording:
//!
//! * the utilization at Mosaic's **first associativity conflict**
//!   (Table 3 predicts ≈98 %, i.e. δ ≈ 2 %);
//! * the **steady-state utilization** (ghosts push it past `1 − δ`);
//! * total **swap I/O** for each manager (Table 4's columns).

use crate::parallel::{run_grid, RunOpts};
use crate::report::{group_digits, Table};
use crate::trace_buffer::TraceBuffer;
use mosaic_mem::{
    Asid, FaultPlan, IcebergConfig, LinuxMemory, MemoryLayout, MemoryManager, MosaicError,
    MosaicMemory, MosaicResult, PageKey, ResilienceStats, PAGE_SIZE,
};
use mosaic_obs::{ObsHandle, Value};
use mosaic_workloads::{Access, BTreeWorkload, Graph500, Workload, XsBench};

/// The workloads the swapping experiments use (the paper's Tables 3–4
/// run Graph500, XSBench, and BTree; GUPS is Figure-6-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PressureWorkload {
    /// BFS over a Kronecker graph.
    Graph500,
    /// XSBench cross-section lookups.
    XsBench,
    /// B+-tree point lookups.
    BTree,
}

impl PressureWorkload {
    /// The three workloads in the paper's table order.
    pub const ALL: [PressureWorkload; 3] = [
        PressureWorkload::Graph500,
        PressureWorkload::XsBench,
        PressureWorkload::BTree,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PressureWorkload::Graph500 => "Graph500",
            PressureWorkload::XsBench => "XSBench",
            PressureWorkload::BTree => "BTree",
        }
    }

    /// Builds the workload at approximately `footprint_bytes`.
    pub fn build(self, footprint_bytes: u64, seed: u64) -> Box<dyn Workload> {
        let pages = footprint_bytes / PAGE_SIZE;
        match self {
            PressureWorkload::Graph500 => {
                Box::new(Graph500::with_footprint(footprint_bytes, 2, seed))
            }
            PressureWorkload::XsBench => {
                // Enough lookups that every grid page is touched and the
                // working set cycles several times.
                Box::new(XsBench::with_footprint(footprint_bytes, pages * 8, seed))
            }
            PressureWorkload::BTree => {
                Box::new(BTreeWorkload::with_footprint(footprint_bytes, pages * 4, seed))
            }
        }
    }
}

/// Parameters of a pressure run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureConfig {
    /// Iceberg buckets of memory (64 frames each) under management.
    pub mem_buckets: usize,
    /// Run seed.
    pub seed: u64,
    /// Accesses per replay chunk fed to the drive loop; `<= 1` selects
    /// the per-access feed. Results are bit-identical either way (the
    /// chunking only amortizes trace decode and sink dispatch).
    pub batch: usize,
}

impl PressureConfig {
    /// 4096 frames (16 MiB) — a fast default that preserves the paper's
    /// footprint-to-memory ratios.
    pub fn quick() -> Self {
        Self {
            mem_buckets: 64,
            seed: 0x7AB1E,
            batch: crate::fig6::DEFAULT_BATCH,
        }
    }

    /// 16 Ki frames (64 MiB) — the benchmark default.
    pub fn default_size() -> Self {
        Self {
            mem_buckets: 256,
            seed: 0x7AB1E,
            batch: crate::fig6::DEFAULT_BATCH,
        }
    }

    /// Memory under management, in bytes.
    pub fn mem_bytes(&self) -> u64 {
        (self.mem_buckets * 64) as u64 * PAGE_SIZE
    }

    /// The paper's footprint ratios: Table 4 sweeps 4158–6459 MiB over
    /// 4096 MiB of memory.
    pub fn paper_ratios() -> Vec<f64> {
        vec![
            1.0151, 1.0774, 1.1399, 1.2021, 1.2646, 1.3271, 1.3894, 1.4519, 1.5144, 1.5769,
        ]
    }

    /// Table 3's four footprint ratios (4158–4924 MiB over 4096 MiB).
    pub fn table3_ratios() -> Vec<f64> {
        vec![1.0151, 1.0774, 1.1399, 1.2021]
    }
}

/// The measured outcome of one (workload, footprint) run.
#[derive(Debug, Clone, PartialEq)]
pub struct PressureRow {
    /// Which workload.
    pub workload: &'static str,
    /// Actual footprint of the built workload, in bytes.
    pub footprint_bytes: u64,
    /// Swap I/O (pages in + out) under the Linux baseline.
    pub linux_swaps: u64,
    /// Swap I/O under Mosaic (Horizon LRU).
    pub mosaic_swaps: u64,
    /// Mosaic utilization at its first conflict, percent.
    pub first_conflict_pct: Option<f64>,
    /// Mosaic steady-state utilization, percent.
    pub steady_state_pct: Option<f64>,
    /// Linux steady-state utilization, percent.
    pub linux_steady_pct: Option<f64>,
}

impl PressureRow {
    /// Table 4's "Difference (%)" column: the percent reduction in swap
    /// I/O Mosaic achieves (positive = Mosaic swaps less).
    pub fn difference_pct(&self) -> f64 {
        if self.linux_swaps == 0 {
            0.0
        } else {
            (1.0 - self.mosaic_swaps as f64 / self.linux_swaps as f64) * 100.0
        }
    }
}

/// A Table 3 row: utilization milestones for one (workload, footprint).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// Which workload.
    pub workload: &'static str,
    /// Footprint in bytes.
    pub footprint_bytes: u64,
    /// Utilization at the first associativity conflict, percent.
    pub first_conflict_pct: f64,
    /// Steady-state utilization, percent.
    pub steady_state_pct: f64,
}

const PRESSURE_ASID: Asid = Asid(1);

/// Fault-injection parameters of a resilience run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// What to inject, and at what rates.
    pub plan: FaultPlan,
    /// Seed of the injector's decision stream (independent of the
    /// workload seed, so fault placement can be varied separately).
    pub fault_seed: u64,
    /// Accesses between structural `verify()` passes; `0` disables
    /// interval checking (a final pass still runs).
    pub verify_every: u64,
}

impl ResilienceConfig {
    /// No faults, no interval verification.
    pub fn none() -> Self {
        Self {
            plan: FaultPlan::NONE,
            fault_seed: 0,
            verify_every: 0,
        }
    }

    /// The experiment binaries' `--fault-ppm` plan: transient allocation
    /// failures, two-deep swap-I/O error bursts and ToC bit-flips, each
    /// at `ppm` parts per million, with a `verify()` pass every 250 000
    /// accesses. `ppm == 0` is [`ResilienceConfig::none`].
    pub fn from_ppm(ppm: u32, fault_seed: u64) -> Self {
        if ppm == 0 {
            return Self::none();
        }
        Self {
            plan: FaultPlan::NONE
                .with_alloc_failures(ppm)
                .with_io_failures(ppm, 2)
                .with_toc_flips(ppm),
            fault_seed,
            verify_every: 250_000,
        }
    }
}

/// What the fault-injection harness observed in one pressure run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceReport {
    /// Injection/recovery counters of the Mosaic manager.
    pub mosaic: ResilienceStats,
    /// Injection/recovery counters of the Linux baseline.
    pub linux: ResilienceStats,
    /// Mosaic accesses abandoned with a typed error (retry budget spent).
    pub mosaic_dropped: u64,
    /// Linux accesses abandoned with a typed error.
    pub linux_dropped: u64,
    /// Structural `verify()` passes that ran (all of which succeeded —
    /// a failing pass aborts the run with the violation instead).
    pub verify_passes: u64,
    /// Total accesses driven through the managers (both drives of the
    /// shared trace), the denominator of a wall-clock ns/access figure.
    pub accesses_driven: u64,
    /// A sample of the last typed error surfaced, for diagnostics.
    pub last_error: Option<MosaicError>,
}

impl ResilienceReport {
    /// Merged counters of both managers.
    pub fn combined(&self) -> ResilienceStats {
        let mut all = self.mosaic;
        all.merge(&self.linux);
        all
    }

    /// Total accesses dropped across both managers.
    pub fn dropped(&self) -> u64 {
        self.mosaic_dropped + self.linux_dropped
    }
}

/// The two managers a pressure-style run compares — Mosaic and the
/// Linux-like baseline over one Iceberg layout — set up the same way for
/// the Table 3/4 driver and the multi-tenant driver: fault injectors
/// from `res` (the baseline's decision stream offset by `0x11`), metrics
/// registered on `obs` under `mosaic.*` / `linux.*`, and a zeroed
/// [`ResilienceReport`] for the drives to fill.
#[derive(Debug)]
pub struct ManagerPair {
    /// Mosaic (Horizon LRU).
    pub mosaic: MosaicMemory,
    /// The Linux-like baseline.
    pub linux: LinuxMemory,
    /// What the drives observed.
    pub report: ResilienceReport,
}

impl ManagerPair {
    /// Fresh managers over `mem_buckets` Iceberg buckets; `seed` seeds
    /// Mosaic's hash family.
    pub fn new(mem_buckets: usize, seed: u64, res: &ResilienceConfig, obs: &ObsHandle) -> Self {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(mem_buckets));
        let mut mosaic = MosaicMemory::new(layout, seed);
        let mut linux = LinuxMemory::new(layout);
        if !res.plan.is_none() {
            mosaic = mosaic.with_fault_injector(res.plan, res.fault_seed);
            linux = linux.with_fault_injector(res.plan, res.fault_seed ^ 0x11);
        }
        if obs.is_enabled() {
            mosaic.set_obs(obs, "mosaic");
            linux.set_obs(obs, "linux");
        }
        Self {
            mosaic,
            linux,
            report: ResilienceReport::default(),
        }
    }

    /// Closes the report after both drives: the managers' resilience
    /// counters plus each drive's dropped-access count.
    pub fn finish(&mut self, mosaic_dropped: u64, linux_dropped: u64) {
        self.report.mosaic = *self.mosaic.resilience();
        self.report.linux = *self.linux.resilience();
        self.report.mosaic_dropped = mosaic_dropped;
        self.report.linux_dropped = linux_dropped;
    }

    /// Publishes both managers' gauges to their registry.
    pub fn publish_obs(&self) {
        self.mosaic.publish_obs();
        self.linux.publish_obs();
    }

    /// The aggregate row: both managers' swap I/O and their utilization
    /// milestones, labelled `workload` at `footprint_bytes`.
    pub fn row(&self, workload: &'static str, footprint_bytes: u64) -> PressureRow {
        PressureRow {
            workload,
            footprint_bytes,
            linux_swaps: self.linux.stats().swap_ops(),
            mosaic_swaps: self.mosaic.stats().swap_ops(),
            first_conflict_pct: self
                .mosaic
                .utilization_tracker()
                .first_conflict()
                .map(|u| u * 100.0),
            steady_state_pct: self
                .mosaic
                .utilization_tracker()
                .steady_state_mean()
                .map(|u| u * 100.0),
            linux_steady_pct: self
                .linux
                .utilization_tracker()
                .steady_state_mean()
                .map(|u| u * 100.0),
        }
    }
}

/// Runs one workload at one footprint through both managers under
/// `opts.faults`, verifying structural invariants along the way.
///
/// With [`ResilienceConfig::none`] no injectors are attached and the
/// row is that of a fault-free run. When `opts.obs` is enabled both
/// managers register their counters (under `mosaic.*` and `linux.*`)
/// and — when `opts.obs_interval > 0` — a full registry snapshot is
/// taken every `opts.obs_interval` references, yielding the interval
/// time series `obs_report` renders. The reference timeline is
/// continuous across the two managers (Mosaic drives first, then the
/// baseline resumes at the next reference), so snapshot and event
/// timestamps in the export are strictly increasing. `opts.jobs` is
/// unused: a single cell runs on the calling thread.
///
/// # Errors
///
/// Returns the violation if any structural `verify()` pass fails — that is
/// a bug, not a tolerable fault. Injected faults never surface here; they
/// are absorbed (retried or dropped) and counted in the report.
pub fn run_pressure(
    workload: PressureWorkload,
    footprint_ratio: f64,
    cfg: &PressureConfig,
    opts: &RunOpts,
) -> MosaicResult<(PressureRow, ResilienceReport)> {
    let (res, obs, obs_interval) = (&opts.faults, &opts.obs, opts.obs_interval);
    let target = (cfg.mem_bytes() as f64 * footprint_ratio) as u64;
    let mut pair = ManagerPair::new(cfg.mem_buckets, cfg.seed, res, obs);

    // Identical reference streams for both managers: the workload is
    // built and recorded once, then replayed read-only for each drive —
    // the stream each manager sees is the same *object*, not merely the
    // same seed, and the generation cost is paid once instead of twice.
    let mut source = workload.build(target, cfg.seed);
    let trace = TraceBuffer::record(source.as_mut()).map_err(MosaicError::from)?;
    drop(source);
    // One drive per manager over the shared trace.
    pair.report.accesses_driven = trace.len() * 2;
    if obs.is_enabled() {
        obs.event(
            0,
            "drive.begin",
            &[
                ("mgr", Value::from("mosaic")),
                ("workload", Value::from(workload.name())),
                ("ratio", Value::from(footprint_ratio)),
            ],
        );
    }
    let mut replay = trace.replayer();
    let (footprint, m_dropped, end) = drive(
        &mut pair.mosaic, &mut replay, target, cfg.batch, res, &mut pair.report, 0, obs,
        obs_interval,
    )?;
    if let Some(e) = replay.into_error() {
        return Err(e.into());
    }
    // The baseline's timeline resumes where Mosaic's stopped (only when
    // exporting; `now` offsets never change manager behavior, but the
    // default path stays untouched for bit-identity with the seed).
    let start2 = if obs.is_enabled() { end } else { 0 };
    if obs.is_enabled() {
        obs.event(
            start2,
            "drive.begin",
            &[
                ("mgr", Value::from("linux")),
                ("workload", Value::from(workload.name())),
                ("ratio", Value::from(footprint_ratio)),
            ],
        );
    }
    let mut replay = trace.replayer();
    let (footprint2, l_dropped, end2) = drive(
        &mut pair.linux, &mut replay, target, cfg.batch, res, &mut pair.report, start2, obs,
        obs_interval,
    )?;
    if let Some(e) = replay.into_error() {
        return Err(e.into());
    }
    debug_assert_eq!(footprint, footprint2);
    pair.finish(m_dropped, l_dropped);
    if obs.is_enabled() {
        pair.publish_obs();
        obs.snapshot(end2);
    }
    let row = pair.row(workload.name(), footprint);
    Ok((row, pair.report))
}

/// [`run_pressure`] under `res` with no observability. Exists only for
/// the benchmark in `perfbench/`, which calls it by this name.
///
/// # Errors
///
/// As [`run_pressure`].
pub fn run_pressure_resilient(
    workload: PressureWorkload,
    footprint_ratio: f64,
    cfg: &PressureConfig,
    res: &ResilienceConfig,
) -> MosaicResult<(PressureRow, ResilienceReport)> {
    let opts = RunOpts {
        faults: *res,
        ..RunOpts::default()
    };
    run_pressure(workload, footprint_ratio, cfg, &opts)
}

/// Drives one manager with `w`'s page-reference stream (callers build —
/// or replay — the workload; `footprint_bytes` is the *target* footprint
/// and only sizes the warmup window). Returns the workload's actual
/// footprint in bytes, the number of accesses dropped to typed errors,
/// and the final reference count; propagates only invariant violations.
///
/// `batch > 1` pulls the stream through [`Workload::run_chunks`] — for a
/// trace replayer that's a slice-at-a-time feed straight from the
/// recorded chunks — while the per-access body (and so every counter,
/// sample, snapshot, and verify cadence) stays identical.
#[allow(clippy::too_many_arguments)]
fn drive(
    manager: &mut dyn MemoryManager,
    w: &mut dyn Workload,
    footprint_bytes: u64,
    batch: usize,
    res: &ResilienceConfig,
    report: &mut ResilienceReport,
    start_now: u64,
    obs: &ObsHandle,
    obs_interval: u64,
) -> MosaicResult<(u64, u64, u64)> {
    let mut now = start_now;
    // Steady-state sampling every ~64 Ki accesses, after a warmup of one
    // footprint's worth of touches.
    let warmup = footprint_bytes / PAGE_SIZE;
    let mut counter = 0u64;
    let mut dropped = 0u64;
    let mut violation: Option<MosaicError> = None;
    let mut step = |a: Access| {
        if violation.is_some() {
            return;
        }
        now += 1;
        let key = PageKey::new(PRESSURE_ASID, a.addr.vpn());
        if let Err(e) = manager.try_access(key, a.kind, now) {
            // Graceful degradation: the access is dropped, the manager
            // stays consistent, and the experiment keeps running.
            dropped += 1;
            report.last_error = Some(e);
        }
        counter += 1;
        if counter > warmup && counter.is_multiple_of(65_536) {
            manager.sample_utilization();
        }
        if obs_interval > 0 && counter.is_multiple_of(obs_interval) {
            manager.publish_obs();
            obs.snapshot(now);
        }
        if res.verify_every > 0 && counter.is_multiple_of(res.verify_every) {
            match manager.verify() {
                Ok(()) => report.verify_passes += 1,
                Err(e) => violation = Some(e),
            }
        }
    };
    if batch > 1 {
        w.run_chunks(batch, &mut |chunk| {
            for &a in chunk {
                step(a);
            }
        });
    } else {
        w.run(&mut step);
    }
    if let Some(e) = violation {
        return Err(e);
    }
    manager.sample_utilization();
    // Always end on a full structural check.
    manager.verify()?;
    report.verify_passes += 1;
    Ok((w.meta().footprint_bytes, dropped, now))
}

/// Runs the Table 4 grid — every workload (outer) at every ratio
/// (inner) — as [`run_pressure`] cells on `opts.jobs` threads.
///
/// Every cell is independent (own managers, own recorded trace) and
/// runs under the options [`run_grid`] hands it: under a fault plan its injector seed
/// derives from (`opts.faults.fault_seed`, cell index), and it exports
/// into its own child registry, merged into `opts.obs` in grid order.
/// Each cell's snapshots therefore carry that cell's own counters
/// (`drive.begin` events delimit the cells), and the merged stream is
/// byte-identical at any job count. A cell whose `verify()` fails comes
/// back as `Err` in place, so callers can skip the row and keep the
/// rest of the sweep.
pub fn run_table4(
    cfg: &PressureConfig,
    ratios: &[f64],
    opts: &RunOpts,
) -> Vec<MosaicResult<(PressureRow, ResilienceReport)>> {
    let mut cells = Vec::new();
    for &w in &PressureWorkload::ALL {
        for &r in ratios {
            cells.push((w, r));
        }
    }
    run_grid(opts, cells, |(w, r), cell| run_pressure(w, r, cfg, cell))
}

/// Extracts Table 3 rows (runs that conflicted) from pressure results.
pub fn table3_rows(rows: &[PressureRow]) -> Vec<Table3Row> {
    rows.iter()
        .filter_map(|r| {
            Some(Table3Row {
                workload: r.workload,
                footprint_bytes: r.footprint_bytes,
                first_conflict_pct: r.first_conflict_pct?,
                steady_state_pct: r.steady_state_pct?,
            })
        })
        .collect()
}

/// Renders Table 4.
pub fn render_table4(rows: &[PressureRow]) -> Table {
    let mut t = Table::new(vec![
        "Workload".into(),
        "Footprint (MiB)".into(),
        "Linux (pages)".into(),
        "Mosaic (pages)".into(),
        "Difference (%)".into(),
    ])
    .with_title("Table 4: swap I/O while increasing workload size");
    for r in rows {
        t.row(vec![
            r.workload.to_string(),
            format!("{:.0}", r.footprint_bytes as f64 / (1 << 20) as f64),
            group_digits(r.linux_swaps),
            group_digits(r.mosaic_swaps),
            format!("{:+.2}", r.difference_pct()),
        ]);
    }
    t
}

/// Renders the fault-injection summary: what was injected and how the
/// managers absorbed it (combined over Mosaic and the baseline).
pub fn render_resilience(rows: &[(PressureRow, ResilienceReport)]) -> Table {
    let mut t = Table::new(vec![
        "Workload".into(),
        "Footprint (MiB)".into(),
        "Faults injected".into(),
        "Retries".into(),
        "Backoff (ticks)".into(),
        "ToC re-walks".into(),
        "Dropped accesses".into(),
        "Recovered (%)".into(),
        "Verify passes".into(),
    ])
    .with_title("Resilience: injected faults and recovery under pressure");
    for (row, rep) in rows {
        let all = rep.combined();
        t.row(vec![
            row.workload.to_string(),
            format!("{:.0}", row.footprint_bytes as f64 / (1 << 20) as f64),
            group_digits(all.faults_injected()),
            group_digits(all.retries()),
            group_digits(all.io_backoff_ticks),
            group_digits(all.toc_rewalks),
            group_digits(rep.dropped()),
            crate::report::percent_or_dash(all.recoveries(), all.faults_injected()),
            group_digits(rep.verify_passes),
        ]);
    }
    t
}

/// Renders Table 3.
pub fn render_table3(rows: &[Table3Row]) -> Table {
    let mut t = Table::new(vec![
        "Workload".into(),
        "Footprint (MiB)".into(),
        "First conflict (1-δ, %)".into(),
        "Steady-state util (%)".into(),
    ])
    .with_title("Table 3: memory utilization under Mosaic page allocation");
    for r in rows {
        t.row(vec![
            r.workload.to_string(),
            format!("{:.0}", r.footprint_bytes as f64 / (1 << 20) as f64),
            format!("{:.2}", r.first_conflict_pct),
            format!("{:.2}", r.steady_state_pct),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> PressureConfig {
        PressureConfig {
            mem_buckets: 16, // 1024 frames = 4 MiB
            seed: 5,
            batch: crate::fig6::DEFAULT_BATCH,
        }
    }

    fn clean(w: PressureWorkload, ratio: f64) -> PressureRow {
        run_pressure(w, ratio, &tiny_cfg(), &RunOpts::default())
            .expect("fault-free pressure run")
            .0
    }

    fn faulty(
        w: PressureWorkload,
        ratio: f64,
        res: ResilienceConfig,
    ) -> (PressureRow, ResilienceReport) {
        let opts = RunOpts {
            faults: res,
            ..RunOpts::default()
        };
        run_pressure(w, ratio, &tiny_cfg(), &opts)
            .expect("invariants must hold under injected faults")
    }

    #[test]
    fn overcommitted_run_swaps_in_both_managers() {
        let row = clean(PressureWorkload::XsBench, 1.25);
        assert!(row.linux_swaps > 0, "Linux must swap at 125%");
        assert!(row.mosaic_swaps > 0, "Mosaic must swap at 125%");
        assert!(row.first_conflict_pct.is_some());
    }

    #[test]
    fn first_conflict_is_near_98_percent() {
        let row = clean(PressureWorkload::XsBench, 1.25);
        let fc = row.first_conflict_pct.unwrap();
        assert!(
            (94.0..100.0).contains(&fc),
            "first conflict at {fc:.2}% (paper: ~98%)"
        );
    }

    #[test]
    fn steady_state_exceeds_first_conflict() {
        // Ghosts let utilization climb past 1 - δ (§4.2).
        let row = clean(PressureWorkload::BTree, 1.2);
        let fc = row.first_conflict_pct.unwrap();
        let ss = row.steady_state_pct.unwrap();
        assert!(ss > fc - 2.0, "steady {ss:.2} vs first conflict {fc:.2}");
    }

    #[test]
    fn undercommitted_run_never_swaps() {
        let row = clean(PressureWorkload::XsBench, 0.60);
        assert_eq!(row.linux_swaps, 0);
        assert_eq!(row.mosaic_swaps, 0);
        assert_eq!(row.first_conflict_pct, None);
    }

    #[test]
    fn difference_sign_convention() {
        let row = PressureRow {
            workload: "X",
            footprint_bytes: 0,
            linux_swaps: 100,
            mosaic_swaps: 80,
            first_conflict_pct: None,
            steady_state_pct: None,
            linux_steady_pct: None,
        };
        assert!((row.difference_pct() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn renders_are_complete() {
        let rows = vec![clean(PressureWorkload::XsBench, 1.2)];
        let t4 = render_table4(&rows).render();
        assert!(t4.contains("XSBench"));
        let t3 = render_table3(&table3_rows(&rows)).render();
        assert!(t3.contains("XSBench"));
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_plain_run() {
        let plain = clean(PressureWorkload::BTree, 1.2);
        let (resilient, rep) = run_pressure_resilient(
            PressureWorkload::BTree,
            1.2,
            &tiny_cfg(),
            &ResilienceConfig::none(),
        )
        .unwrap();
        assert_eq!(plain, resilient);
        assert_eq!(rep.combined(), ResilienceStats::ZERO);
        assert_eq!(rep.dropped(), 0);
    }

    #[test]
    fn from_ppm_is_the_binaries_fault_plan() {
        assert_eq!(ResilienceConfig::from_ppm(0, 7), ResilienceConfig::none());
        let res = ResilienceConfig::from_ppm(200, 7);
        assert_eq!(
            res.plan,
            FaultPlan::NONE
                .with_alloc_failures(200)
                .with_io_failures(200, 2)
                .with_toc_flips(200)
        );
        assert_eq!((res.fault_seed, res.verify_every), (7, 250_000));
    }

    #[test]
    fn faulty_run_survives_and_reports() {
        let res = ResilienceConfig {
            plan: FaultPlan::NONE
                .with_alloc_failures(10_000) // 1% of allocations
                .with_io_failures(10_000, 1)
                .with_toc_flips(1_000),
            fault_seed: 0xF00D,
            verify_every: 50_000,
        };
        let (row, rep) = faulty(PressureWorkload::XsBench, 1.25, res);
        assert!(row.mosaic_swaps > 0, "overcommit still swaps");
        let all = rep.combined();
        assert!(all.faults_injected() > 0, "plan injected nothing");
        assert!(all.retries() > 0, "no transient fault was retried");
        assert!(rep.verify_passes >= 2, "interval verification never ran");
        // Retry budgets (3-4 retries at 1% fault rate) absorb almost
        // everything; only multi-failure streaks drop an access.
        assert!(rep.dropped() < all.faults_injected());
        let table = render_resilience(&[(row, rep)]).render();
        assert!(table.contains("Faults injected") && table.contains("XSBench"));
    }

    #[test]
    fn resilience_report_sample_error_is_transient() {
        // Drive hard enough that at least one retry budget is exhausted;
        // the surfaced error must be a typed transient failure.
        let res = ResilienceConfig {
            plan: FaultPlan::NONE.with_io_failures(60_000, 6),
            fault_seed: 9,
            verify_every: 0,
        };
        let (_, rep) = faulty(PressureWorkload::BTree, 1.3, res);
        if let Some(e) = &rep.last_error {
            assert!(e.is_transient(), "unexpected error class: {e}");
        }
        assert!(rep.verify_passes >= 2, "final verify always runs");
    }
}
