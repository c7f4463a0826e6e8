//! The miss-attribution experiment: differential mosaic-vs-vanilla 3C
//! curves plus a memory-fault taxonomy with per-tenant blame.
//!
//! One run drives two workloads (GUPS and Graph500) at a configured
//! load over **both** layers of the system:
//!
//! * every Figure 6 TLB cell (vanilla and mosaic at each swept
//!   associativity), with the shadow fully-associative classifier
//!   splitting misses into compulsory / capacity / conflict
//!   ([`mosaic_mmu::MissClassifier`]);
//! * both memory managers (Mosaic and the Linux-like baseline) under a
//!   two-tenant split of the same reference stream, charging every
//!   eviction to an (evictor, victim) ASID pair in the
//!   cold / capacity-evict / cross-tenant / quota-self / shootdown
//!   taxonomy.
//!
//! All cells replay the **same recorded trace**, so the per-design
//! attribution deltas are aligned by construction: the "conflict misses
//! removed by Mosaic-k" column is literally
//! `vanilla.conflict − mosaic-k.conflict` over an identical reference
//! stream, and compulsory counts must agree exactly across designs
//! (every first touch of a VPN misses in both models).
//!
//! The footprint is `load_pct` percent of physical memory (the repo's
//! usual load convention: 16 Iceberg buckets × 64 frames = 1024 frames,
//! so 105 % ≈ 1075 pages), which over-commits the memory managers into
//! the eviction-rich regime. TLB reach is set just **under** that
//! footprint (~102 % TLB over-commit): close enough that a
//! fully-associative TLB still holds almost the whole working set —
//! so steady-state set-associative misses are associativity
//! *artifacts* (conflicts), exactly the component Mosaic's smaller tag
//! footprint removes — but over-committed enough that those conflicts
//! actually occur.
//!
//! There is **one** execution engine — record once, fan cells out via
//! [`run_grid`] — used at every `--jobs` value, so results and the
//! merged observability stream are byte-identical at any thread count.

use crate::dual::reference_os;
use crate::fig6::{run_fig6_cell, CellSpec, TlbKind};
use crate::os::USER_ASID;
use crate::parallel::{run_grid, RunOpts};
use crate::report::{group_digits, Table};
use crate::trace_buffer::TraceBufferBuilder;
use mosaic_mem::{
    Asid, IcebergConfig, LinuxMemory, MemoryLayout, MemoryManager, MosaicMemory, PageKey,
    TenantQuota, PAGE_SIZE,
};
use mosaic_mmu::{Arity, Associativity, TlbStats};
use mosaic_obs::{AttribCategory, AttribCell, Value};
use mosaic_workloads::{GupsConfig, Workload};

/// The ASID carrying even-numbered pages of the trace (never quota'd).
const TENANT_EVEN: Asid = Asid(1);
/// The ASID carrying odd-numbered pages: clamped to an eighth of
/// memory after the drive (quota-self trim on its next access), then
/// released (exit shootdown).
const TENANT_ODD: Asid = Asid(2);

/// Attribution sweep parameters.
#[derive(Debug, Clone)]
pub struct AttribConfig {
    /// TLB entries per design (paper: 1024).
    pub tlb_entries: usize,
    /// Associativities to sweep. `Full` is the built-in control: a
    /// fully-associative TLB can have no conflict misses by definition.
    pub associativities: Vec<Associativity>,
    /// Mosaic arities to sweep.
    pub arities: Vec<Arity>,
    /// Iceberg buckets of physical memory (64 frames each) for the
    /// memory-manager cells.
    pub mem_buckets: usize,
    /// Workload footprint as a percentage of physical memory.
    pub load_pct: u64,
    /// Run seed.
    pub seed: u64,
}

impl AttribConfig {
    /// The default experiment: 1024 frames at 105 % load (1075-page
    /// footprint) with 1056 TLB entries (~102 % TLB over-commit),
    /// direct / 4-way / full, arities 4 and 8.
    pub fn paper() -> Self {
        Self {
            tlb_entries: 1056,
            associativities: vec![
                Associativity::Ways(1),
                Associativity::Ways(4),
                Associativity::Full,
            ],
            arities: vec![Arity::new(4), Arity::new(8)],
            mem_buckets: 16,
            load_pct: 105,
            seed: 0xA77_121B,
        }
    }

    /// A small grid for unit tests and doctests.
    pub fn quick_test() -> Self {
        Self {
            tlb_entries: 528,
            associativities: vec![Associativity::Ways(1), Associativity::Full],
            arities: vec![Arity::new(4)],
            mem_buckets: 8,
            load_pct: 105,
            seed: 42,
        }
    }

    /// Physical frames under management in the memory cells.
    pub fn num_frames(&self) -> u64 {
        (self.mem_buckets * 64) as u64
    }

    /// The target workload footprint, in pages: `load_pct` percent of
    /// physical memory.
    pub fn footprint_pages(&self) -> u64 {
        self.num_frames() * self.load_pct / 100
    }
}

/// The workloads the attribution experiment drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttribWorkload {
    /// Uniform random updates: stack distances are uniform over the
    /// footprint, so nearly every steady-state set-associative miss is
    /// a conflict when the footprint barely exceeds reach.
    Gups,
    /// BFS over a Kronecker graph: scattered medium-distance reuse.
    Graph500,
}

impl AttribWorkload {
    /// Both workloads, in report order.
    pub const ALL: [AttribWorkload; 2] = [AttribWorkload::Gups, AttribWorkload::Graph500];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AttribWorkload::Gups => "GUPS",
            AttribWorkload::Graph500 => "Graph500",
        }
    }

    /// Builds the workload at approximately `footprint_pages`.
    fn build(self, footprint_pages: u64, seed: u64) -> Box<dyn Workload> {
        let bytes = footprint_pages * PAGE_SIZE;
        match self {
            AttribWorkload::Gups => Box::new(mosaic_workloads::Gups::new(
                GupsConfig {
                    table_bytes: bytes,
                    updates: footprint_pages * 32,
                },
                seed,
            )),
            AttribWorkload::Graph500 => {
                Box::new(mosaic_workloads::Graph500::with_footprint(bytes, 1, seed))
            }
        }
    }
}

/// One TLB design's classified misses for one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlbAttribRow {
    /// Workload name.
    pub workload: &'static str,
    /// TLB associativity.
    pub assoc: Associativity,
    /// Which design.
    pub kind: TlbKind,
    /// Full TLB counters.
    pub stats: TlbStats,
    /// Misses no finite TLB avoids (first touch of the page).
    pub compulsory: u64,
    /// Misses a fully-associative TLB of equal capacity also takes.
    pub capacity: u64,
    /// Misses only limited associativity explains (shadow would hit).
    pub conflict: u64,
}

impl TlbAttribRow {
    /// Total misses (the classified categories must sum to this).
    pub fn misses(&self) -> u64 {
        self.stats.misses
    }

    /// Sum of the three classes.
    pub fn classified(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }
}

/// One memory manager's fault taxonomy for one workload, with the full
/// per-tenant blame matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAttribRow {
    /// Workload name.
    pub workload: &'static str,
    /// `"mosaic"` or `"linux"`.
    pub manager: &'static str,
    /// First-ever faults (demand fill).
    pub cold: u64,
    /// Same-tenant capacity evictions.
    pub capacity_evict: u64,
    /// Evictions where one tenant displaced another's page.
    pub cross_tenant: u64,
    /// Over-quota self-evictions (admission displacement + trim).
    pub quota_self: u64,
    /// Frames reclaimed by the exit-time `release_asid` shootdown.
    pub shootdown: u64,
    /// Accesses dropped to typed errors (non-zero only under fault
    /// injection).
    pub dropped: u64,
    /// Every non-zero (category, evictor, victim) cell, sorted.
    pub blame: Vec<AttribCell>,
}

/// The full experiment result: TLB rows and memory rows per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AttribReport {
    /// One row per (workload, associativity, design).
    pub tlb: Vec<TlbAttribRow>,
    /// One row per (workload, manager).
    pub mem: Vec<MemAttribRow>,
}

/// Which memory manager a cell drives.
#[derive(Debug, Clone, Copy)]
enum MemKind {
    Mosaic,
    Linux,
}

impl MemKind {
    fn prefix(self) -> &'static str {
        match self {
            MemKind::Mosaic => "mosaic",
            MemKind::Linux => "linux",
        }
    }
}

/// One cell of the attribution grid.
#[derive(Debug, Clone, Copy)]
enum AttribCellSpec {
    Tlb(CellSpec),
    Mem(MemKind),
}

/// What one cell contributes to the report.
enum AttribRow {
    Tlb(TlbAttribRow),
    Mem(MemAttribRow),
}

/// Runs the full experiment (both workloads) under `opts`.
///
/// Attribution columns are populated only when `opts.obs` has
/// attribution opted in
/// ([`ObsHandle::set_attrib`](mosaic_obs::ObsHandle::set_attrib)); with
/// a plain or disabled handle the classified counts are zero while the
/// raw [`TlbStats`] stay exact. Only the memory-manager cells inject
/// `opts.faults`, each with an injector seed derived from its cell index.
/// Results and — when `obs` is enabled — the merged observability
/// stream are byte-identical at any `opts.jobs` value: there is a single
/// record-once/replay-many engine and cells come back in input order.
pub fn run_attrib(cfg: &AttribConfig, opts: &RunOpts) -> AttribReport {
    let mut report = AttribReport {
        tlb: Vec::new(),
        mem: Vec::new(),
    };
    for wl in AttribWorkload::ALL {
        run_one_workload(cfg, wl, opts, &mut report);
    }
    report
}

/// Records `wl`'s trace once, then fans every TLB and memory cell out.
fn run_one_workload(
    cfg: &AttribConfig,
    wl: AttribWorkload,
    opts: &RunOpts,
    report: &mut AttribReport,
) {
    let (obs, obs_interval) = (&opts.obs, opts.obs_interval);
    let mut workload = wl.build(cfg.footprint_pages(), cfg.seed);
    let meta = workload.meta();
    let footprint_pages = meta.footprint_bytes.div_ceil(PAGE_SIZE) + 16;
    let mut os = reference_os(&cfg.arities, footprint_pages, 0, cfg.seed, USER_ASID);
    if obs.is_enabled() {
        os.set_obs(obs);
        obs.event(
            0,
            "drive.begin",
            &[("workload", Value::from(wl.name()))],
        );
    }

    // Reference pass: resolve all demand mapping while recording the
    // stream (no kernel injection — kernel huge pages would break the
    // compulsory-equality invariant the experiment checks).
    let mut builder = TraceBufferBuilder::new();
    let mut refs = 0u64;
    let mut snapshots: Vec<(u64, u64)> = Vec::new();
    workload.run(&mut |a| {
        os.touch(a.addr.vpn(), a.kind);
        builder.push(a);
        refs += 1;
        if obs_interval > 0 && refs.is_multiple_of(obs_interval) && obs.is_enabled() {
            snapshots.push((refs, refs));
            os.publish_obs();
            obs.snapshot(refs);
        }
    });
    let trace = builder
        .finish(meta.clone())
        .expect("failed to record reference trace");
    drop(workload);

    // Cell order fixes both the report row order and the merged-stream
    // order: per associativity the vanilla cell then one mosaic cell
    // per arity (Figure 6's order), then the two memory managers.
    let mut specs: Vec<AttribCellSpec> = Vec::new();
    for &assoc in &cfg.associativities {
        specs.push(AttribCellSpec::Tlb(CellSpec::Vanilla(assoc)));
        for &arity in &cfg.arities {
            specs.push(AttribCellSpec::Tlb(CellSpec::Mosaic(assoc, arity)));
        }
    }
    specs.push(AttribCellSpec::Mem(MemKind::Mosaic));
    specs.push(AttribCellSpec::Mem(MemKind::Linux));

    let rows = run_grid(opts, specs, |spec, cell| {
        let child = &cell.obs;
        let stats = match spec {
            AttribCellSpec::Tlb(tlb_spec) => Some(run_fig6_cell(
                &os,
                &trace,
                cfg.tlb_entries,
                tlb_spec,
                child,
                &snapshots,
            )),
            AttribCellSpec::Mem(kind) => {
                run_mem_cell(cfg, kind, &trace, cell, &snapshots);
                None
            }
        };
        // Final per-cell snapshot: covers the tail past the last
        // interval, so the cell's curve reaches the end of the trace
        // (a table flat over the tail is simply not re-emitted).
        if child.is_enabled() {
            child.snapshot(refs);
        }
        match spec {
            AttribCellSpec::Tlb(tlb_spec) => {
                let (assoc, kind, label) = match tlb_spec {
                    CellSpec::Vanilla(a) => (
                        a,
                        TlbKind::Vanilla,
                        format!("tlb.vanilla.{}", a.to_string().to_lowercase()),
                    ),
                    CellSpec::Mosaic(a, k) => (
                        a,
                        TlbKind::Mosaic(k),
                        format!("tlb.mosaic-{}.{}", k.get(), a.to_string().to_lowercase()),
                    ),
                };
                let table = child.attrib_table(&label);
                AttribRow::Tlb(TlbAttribRow {
                    workload: wl.name(),
                    assoc,
                    kind,
                    stats: stats.expect("TLB cells return stats"),
                    compulsory: table.category_total(AttribCategory::Compulsory),
                    capacity: table.category_total(AttribCategory::Capacity),
                    conflict: table.category_total(AttribCategory::Conflict),
                })
            }
            AttribCellSpec::Mem(kind) => {
                let table = child.attrib_table(&format!("{}.faults", kind.prefix()));
                AttribRow::Mem(MemAttribRow {
                    workload: wl.name(),
                    manager: kind.prefix(),
                    cold: table.category_total(AttribCategory::Cold),
                    capacity_evict: table.category_total(AttribCategory::CapacityEvict),
                    cross_tenant: table.category_total(AttribCategory::CrossTenant),
                    quota_self: table.category_total(AttribCategory::QuotaSelf),
                    shootdown: table.category_total(AttribCategory::Shootdown),
                    dropped: child.counter_value(&format!("{}.attrib_dropped", kind.prefix())),
                    blame: table.cells(),
                })
            }
        }
    });
    for row in rows {
        match row {
            AttribRow::Tlb(r) => report.tlb.push(r),
            AttribRow::Mem(r) => report.mem.push(r),
        }
    }
    if obs.is_enabled() {
        os.publish_obs();
        obs.snapshot(refs);
    }
}

/// Replays the shared stream through one memory manager under a
/// two-tenant split, charging the full fault taxonomy.
///
/// Pages alternate between [`TENANT_EVEN`] and [`TENANT_ODD`] by VPN
/// parity; the odd tenant is quota'd to a quarter of memory (exercising
/// quota self-eviction) and released at the end (exit shootdown).
fn run_mem_cell(
    cfg: &AttribConfig,
    kind: MemKind,
    trace: &crate::trace_buffer::TraceBuffer,
    cell: &RunOpts,
    snapshots: &[(u64, u64)],
) {
    let layout = MemoryLayout::new(IcebergConfig::paper_default(cfg.mem_buckets));
    let child = &cell.obs;
    // The cell's injector seed is already derived from its grid index.
    let (plan, fault_seed) = (cell.faults.plan, cell.faults.fault_seed);
    let mut mosaic_mgr;
    let mut linux_mgr;
    let mgr: &mut dyn MemoryManager = match kind {
        MemKind::Mosaic => {
            mosaic_mgr = MosaicMemory::new(layout, cfg.seed);
            if !plan.is_none() {
                mosaic_mgr = mosaic_mgr.with_fault_injector(plan, fault_seed);
            }
            &mut mosaic_mgr
        }
        MemKind::Linux => {
            linux_mgr = LinuxMemory::new(layout);
            if !plan.is_none() {
                linux_mgr = linux_mgr.with_fault_injector(plan, fault_seed ^ 0x11);
            }
            &mut linux_mgr
        }
    };
    if child.is_enabled() {
        mgr.set_obs(child, kind.prefix());
    }

    // The drive runs un-quota'd: at >100 % load the two tenants churn
    // under pure global pressure, producing capacity (self) and
    // cross-tenant evictions.
    let mut now = 0u64;
    let mut dropped = 0u64;
    let mut max_vpn = 0u64;
    let mut snap = snapshots.iter().copied().peekable();
    trace
        .replay(&mut |a| {
            now += 1;
            let vpn = a.addr.vpn();
            max_vpn = max_vpn.max(vpn.0);
            let tenant = Asid(TENANT_EVEN.0 + (vpn.0 & 1) as u16);
            if mgr.try_access(PageKey::new(tenant, vpn), a.kind, now).is_err() {
                // Graceful degradation under injected faults: drop the
                // access, keep the manager consistent.
                dropped += 1;
            }
            if snap.peek().is_some_and(|&(r, _)| r == now) {
                let (_, stamp) = snap.next().expect("peeked position");
                mgr.publish_obs();
                child.snapshot(stamp);
            }
        })
        .expect("reference trace replay failed");

    // Epilogue: clamp the odd tenant to an eighth of memory, then touch
    // one fresh odd page — quotas are enforced on the tenant's next
    // access, so this single fault trims its residency down to the
    // clamp, charging one `QuotaSelf` cell per trimmed page.
    mgr.set_quota(
        TENANT_ODD,
        TenantQuota {
            frames: mgr.num_frames() / 8,
            priority: 0,
        },
    );
    let probe = max_vpn + 1 + ((max_vpn + 1) & 1 ^ 1);
    now += 1;
    if mgr
        .try_access(
            PageKey::new(TENANT_ODD, mosaic_mem::Vpn(probe)),
            mosaic_mem::AccessKind::Load,
            now,
        )
        .is_err()
    {
        dropped += 1;
    }
    // Exit-time shootdown of the clamped tenant: its remaining resident
    // frames come back as `Shootdown` charges.
    mgr.release_asid(TENANT_ODD);
    mgr.verify().expect("structural invariants must hold");
    mgr.publish_obs();
    if child.is_enabled() {
        child
            .counter(&format!("{}.attrib_dropped", kind.prefix()))
            .add(dropped);
    }
}

/// `vanilla.conflict − mosaic.conflict` for one (workload,
/// associativity, arity) — the quantity the differential curves plot.
pub fn conflict_removed(
    report: &AttribReport,
    workload: &str,
    assoc: Associativity,
    arity: Arity,
) -> Option<i64> {
    let vanilla = find_row(report, workload, assoc, TlbKind::Vanilla)?;
    let mosaic = find_row(report, workload, assoc, TlbKind::Mosaic(arity))?;
    Some(vanilla.conflict as i64 - mosaic.conflict as i64)
}

/// What fraction of the miss reduction (vanilla − mosaic) the conflict
/// delta explains, in percent. `None` when mosaic removed no misses
/// (nothing to explain).
pub fn explained_by_conflict_pct(
    report: &AttribReport,
    workload: &str,
    assoc: Associativity,
    arity: Arity,
) -> Option<f64> {
    let vanilla = find_row(report, workload, assoc, TlbKind::Vanilla)?;
    let mosaic = find_row(report, workload, assoc, TlbKind::Mosaic(arity))?;
    let removed = vanilla.misses() as i64 - mosaic.misses() as i64;
    if removed <= 0 {
        return None;
    }
    let conflict = vanilla.conflict as i64 - mosaic.conflict as i64;
    Some(conflict as f64 / removed as f64 * 100.0)
}

fn find_row<'a>(
    report: &'a AttribReport,
    workload: &str,
    assoc: Associativity,
    kind: TlbKind,
) -> Option<&'a TlbAttribRow> {
    report
        .tlb
        .iter()
        .find(|r| r.workload == workload && r.assoc == assoc && r.kind == kind)
}

/// Renders the full report: per workload a 3C table with the
/// differential columns, then the fault-taxonomy table, then the
/// per-tenant blame matrix for both managers.
pub fn render(report: &AttribReport) -> String {
    let mut out = String::new();
    for wl in AttribWorkload::ALL {
        let name = wl.name();
        let mut t = Table::new(vec![
            "Assoc".into(),
            "Design".into(),
            "Misses".into(),
            "Compulsory".into(),
            "Capacity".into(),
            "Conflict".into(),
            "Removed vs vanilla".into(),
            "Explained by conflict (%)".into(),
        ])
        .with_title(&format!("Miss attribution (3C) — {name}"));
        for r in report.tlb.iter().filter(|r| r.workload == name) {
            let (removed, explained) = match r.kind {
                TlbKind::Vanilla => ("-".to_string(), "-".to_string()),
                TlbKind::Mosaic(arity) => {
                    let removed = find_row(report, name, r.assoc, TlbKind::Vanilla)
                        .map_or("-".to_string(), |v| {
                            let d = v.misses() as i64 - r.misses() as i64;
                            if d < 0 {
                                format!("-{}", group_digits(d.unsigned_abs()))
                            } else {
                                group_digits(d as u64)
                            }
                        });
                    let explained = explained_by_conflict_pct(report, name, r.assoc, arity)
                        .map_or("-".to_string(), |p| format!("{p:.1}"));
                    (removed, explained)
                }
            };
            t.row(vec![
                r.assoc.to_string(),
                r.kind.to_string(),
                group_digits(r.misses()),
                group_digits(r.compulsory),
                group_digits(r.capacity),
                group_digits(r.conflict),
                removed,
                explained,
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');

        let mut m = Table::new(vec![
            "Manager".into(),
            "Cold".into(),
            "Capacity evict".into(),
            "Cross-tenant".into(),
            "Quota self".into(),
            "Shootdown".into(),
            "Dropped".into(),
        ])
        .with_title(&format!("Memory-fault taxonomy — {name}"));
        for r in report.mem.iter().filter(|r| r.workload == name) {
            m.row(vec![
                r.manager.to_string(),
                group_digits(r.cold),
                group_digits(r.capacity_evict),
                group_digits(r.cross_tenant),
                group_digits(r.quota_self),
                group_digits(r.shootdown),
                group_digits(r.dropped),
            ]);
        }
        out.push_str(&m.render());
        out.push('\n');

        let mut b = Table::new(vec![
            "Manager".into(),
            "Category".into(),
            "Evictor".into(),
            "Victim".into(),
            "Count".into(),
        ])
        .with_title(&format!("Per-tenant blame — {name}"));
        for r in report.mem.iter().filter(|r| r.workload == name) {
            for c in &r.blame {
                b.row(vec![
                    r.manager.to_string(),
                    c.category.name().to_string(),
                    c.evictor.to_string(),
                    c.victim.to_string(),
                    group_digits(c.count),
                ]);
            }
        }
        out.push_str(&b.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pressure::ResilienceConfig;
    use mosaic_obs::ObsHandle;

    fn attrib_handle() -> ObsHandle {
        let obs = ObsHandle::enabled();
        obs.set_attrib(true);
        obs
    }

    fn quick_report(jobs: usize) -> AttribReport {
        let opts = RunOpts {
            obs: attrib_handle(),
            jobs,
            ..RunOpts::default()
        };
        run_attrib(&AttribConfig::quick_test(), &opts)
    }

    #[test]
    fn grid_is_complete_and_classification_sums_to_misses() {
        let r = quick_report(1);
        // 2 workloads x 2 assoc x (vanilla + 1 arity) TLB rows.
        assert_eq!(r.tlb.len(), 2 * 2 * 2);
        assert_eq!(r.mem.len(), 2 * 2);
        for row in &r.tlb {
            assert_eq!(
                row.classified(),
                row.misses(),
                "3C classes must partition misses: {row:?}"
            );
        }
    }

    #[test]
    fn compulsory_is_identical_across_designs() {
        let r = quick_report(1);
        for wl in AttribWorkload::ALL {
            let rows: Vec<_> = r.tlb.iter().filter(|x| x.workload == wl.name()).collect();
            let first = rows.first().expect("rows exist").compulsory;
            assert!(first > 0, "{}: no compulsory misses", wl.name());
            for row in rows {
                assert_eq!(
                    row.compulsory, first,
                    "{}: compulsory differs for {:?}/{}",
                    wl.name(),
                    row.kind,
                    row.assoc
                );
            }
        }
    }

    #[test]
    fn full_associativity_has_zero_conflicts() {
        let r = quick_report(1);
        for row in r.tlb.iter().filter(|x| x.assoc == Associativity::Full) {
            assert_eq!(row.conflict, 0, "conflict misses in a full-assoc TLB: {row:?}");
        }
    }

    #[test]
    fn reduction_is_explained_by_conflict_at_105_percent_load() {
        let r = quick_report(1);
        let arity = Arity::new(4);
        let direct = Associativity::Ways(1);
        for wl in AttribWorkload::ALL {
            let removed = {
                let v = find_row(&r, wl.name(), direct, TlbKind::Vanilla).expect("vanilla row");
                let m =
                    find_row(&r, wl.name(), direct, TlbKind::Mosaic(arity)).expect("mosaic row");
                v.misses() as i64 - m.misses() as i64
            };
            assert!(removed > 0, "{}: mosaic removed no misses", wl.name());
            let pct = explained_by_conflict_pct(&r, wl.name(), direct, arity)
                .expect("reduction exists");
            assert!(
                pct >= 90.0,
                "{}: only {pct:.1}% of the reduction is conflict",
                wl.name()
            );
        }
    }

    #[test]
    fn mem_rows_cover_the_full_taxonomy() {
        let r = quick_report(1);
        for row in &r.mem {
            assert!(row.cold > 0, "{row:?}");
            assert!(row.capacity_evict > 0, "{row:?}");
            assert!(row.cross_tenant > 0, "{row:?}");
            assert!(row.quota_self > 0, "{row:?}");
            assert!(row.shootdown > 0, "{row:?}");
            assert_eq!(row.dropped, 0, "fault-free run dropped accesses");
            assert!(!row.blame.is_empty());
        }
    }

    #[test]
    fn report_is_identical_at_any_job_count() {
        let serial = quick_report(1);
        for jobs in [2, 8] {
            assert_eq!(quick_report(jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn obs_export_is_byte_identical_across_job_counts_with_faults() {
        let cfg = AttribConfig::quick_test();
        let export = |jobs| {
            let opts = RunOpts {
                faults: ResilienceConfig::from_ppm(20_000, cfg.seed),
                obs: attrib_handle(),
                obs_interval: 20_000,
                jobs,
            };
            run_attrib(&cfg, &opts);
            opts.obs.render_jsonl()
        };
        let one = export(1);
        assert_eq!(one, export(2));
        assert_eq!(one, export(8));
        assert!(one.contains("\"t\":\"attrib\""), "stream carries attrib records");
    }

    #[test]
    fn render_mentions_every_section() {
        let r = quick_report(1);
        let text = render(&r);
        for needle in [
            "Miss attribution (3C) — GUPS",
            "Miss attribution (3C) — Graph500",
            "Memory-fault taxonomy — GUPS",
            "Per-tenant blame — Graph500",
            "Explained by conflict",
            "shootdown",
        ] {
            assert!(text.contains(needle), "missing {needle:?}");
        }
    }

    #[test]
    fn plain_handle_keeps_stats_but_no_attribution() {
        let r = run_attrib(&AttribConfig::quick_test(), &RunOpts::default());
        for row in &r.tlb {
            assert!(row.stats.misses > 0);
            assert_eq!(row.classified(), 0, "attribution off must charge nothing");
        }
    }
}
