//! The four benchmark workloads: how each builds its inputs from the
//! seed (set-up), how one repetition calls the program's own sweep
//! functions (the timed phase), and how the outputs are checked and
//! digested.

use crate::digest::Digest;
use mosaic_core::mmu::{Arity, Associativity};
use mosaic_core::sim::fig6::{run_workload_observed_jobs, Fig6Config, Fig6Row, TlbKind};
use mosaic_core::sim::parallel::{derive_seed, run_cells};
use mosaic_core::sim::pressure::{
    run_pressure_resilient, PressureConfig, PressureRow, PressureWorkload, ResilienceConfig,
};
use mosaic_core::tenants::{
    build_schedule, quota_plan, run_schedule_observed, summarize, Schedule, TenantsConfig,
    TenantsRow,
};
use mosaic_core::workloads::{Graph500, Graph500Config, Gups, GupsConfig, Workload};
use mosaic_obs::ObsHandle;
use std::hint::black_box;
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Figure 6 grid over GUPS and Graph500 at 1024 entries.
    Fig6Grid,
    /// Table 4 cells under memory over-commit on the 16 MiB pool.
    PressureSwap,
    /// 64 Zipf tenants with exit/respawn churn at 105 % and 120 % load.
    TenantsChurn,
    /// A smaller Graph500 Figure 6 grid with miss attribution on.
    Fig6Attrib,
}

impl Bench {
    pub const ALL: [Bench; 4] = [
        Bench::Fig6Grid,
        Bench::PressureSwap,
        Bench::TenantsChurn,
        Bench::Fig6Attrib,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Bench::Fig6Grid => "fig6_grid",
            Bench::PressureSwap => "pressure_swap",
            Bench::TenantsChurn => "tenants_churn",
            Bench::Fig6Attrib => "fig6_attrib",
        }
    }

    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }
}

/// Input scale: `Default` is what the benchmark measures; `Tiny` is for
/// the smoke test only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Default,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "default" => Some(Size::Default),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Size::Default => "default",
            Size::Tiny => "tiny",
        }
    }
}

/// A workload's generated inputs, built once per set-up.
pub enum Inputs {
    Fig6 {
        cfg: Fig6Config,
        kernels: Vec<Box<dyn Workload>>,
        attrib: bool,
    },
    Pressure {
        cfg: PressureConfig,
        cells: Vec<(PressureWorkload, f64)>,
    },
    Tenants {
        cells: Vec<(TenantsConfig, Schedule)>,
    },
}

/// The Figure 6 grid: 1024 entries, five associativities, vanilla plus
/// arities 4–64, kernel model on.
fn fig6_config(seed: u64) -> Fig6Config {
    Fig6Config {
        seed: derive_seed(seed, 0),
        ..Fig6Config::paper()
    }
}

fn graph500(scale: u32, seed: u64) -> Box<dyn Workload> {
    Box::new(Graph500::new(
        Graph500Config {
            scale,
            edgefactor: 16,
            num_roots: 1,
        },
        seed,
    ))
}

/// A pressure cell's workload, as `run_pressure` builds it.
pub fn cell_workload(cfg: &PressureConfig, w: PressureWorkload, ratio: f64) -> Box<dyn Workload> {
    w.build((cfg.mem_bytes() as f64 * ratio) as u64, cfg.seed)
}

/// Builds `bench`'s inputs from `seed`.
pub fn setup(bench: Bench, size: Size, seed: u64) -> Inputs {
    let tiny = size == Size::Tiny;
    match bench {
        Bench::Fig6Grid => {
            // GUPS at the `fig6 --scale 1` table size with a fifth of its
            // updates, and Graph500 one scale below it. Both footprints
            // (64 and 35 MiB) exceed the 1024-entry reach of vanilla,
            // Mosaic-4 and Mosaic-8, so those cells miss for capacity as
            // at scale 1, not only on first touches.
            let (table_bytes, updates, scale) = if tiny {
                (1 << 20, 20_000, 10)
            } else {
                (64 << 20, 800_000, 17)
            };
            Inputs::Fig6 {
                cfg: fig6_config(seed),
                kernels: vec![
                    Box::new(Gups::new(
                        GupsConfig {
                            table_bytes,
                            updates,
                        },
                        derive_seed(seed, 1),
                    )),
                    graph500(scale, derive_seed(seed, 2)),
                ],
                attrib: false,
            }
        }
        // Attribution slows the sweep about eightfold, so the graph is a
        // quarter of `fig6_grid`'s. Its 9 MiB exceed the vanilla reach
        // and fit every Mosaic reach: the classifier sees capacity
        // misses (vanilla cells) next to first touches (Mosaic cells).
        Bench::Fig6Attrib => Inputs::Fig6 {
            cfg: fig6_config(seed),
            kernels: vec![graph500(if tiny { 10 } else { 15 }, derive_seed(seed, 2))],
            attrib: true,
        },
        Bench::PressureSwap => {
            let cfg = PressureConfig {
                mem_buckets: if tiny { 8 } else { 64 },
                seed: derive_seed(seed, 3),
                ..PressureConfig::quick()
            };
            // One over-committed cell per workload, at three of the
            // paper's footprint ratios.
            let ratios = [1.0774, 1.2021, 1.3894];
            let cells: Vec<(PressureWorkload, f64)> =
                PressureWorkload::ALL.into_iter().zip(ratios).collect();
            // `run_pressure` builds and records each cell's workload
            // inside the timed phase, and no public entry point takes a
            // prebuilt one. Set-up performs the same builds, one at a
            // time and dropped at once, so `setup_s` measures their cost
            // without the timed phase or its memory holding them.
            for &(w, r) in &cells {
                drop(black_box(cell_workload(&cfg, w, r)));
            }
            Inputs::Pressure { cfg, cells }
        }
        Bench::TenantsChurn => {
            let base = if tiny {
                TenantsConfig {
                    seed: derive_seed(seed, 4),
                    ..TenantsConfig::quick()
                }
            } else {
                TenantsConfig {
                    seed: derive_seed(seed, 4),
                    steps: 3_200_000,
                    ..TenantsConfig::golden()
                }
            };
            let cells = [1.05, 1.20]
                .into_iter()
                .map(|load| {
                    let cfg = TenantsConfig {
                        load,
                        ..base.clone()
                    };
                    let schedule = build_schedule(&cfg);
                    (cfg, schedule)
                })
                .collect();
            Inputs::Tenants { cells }
        }
    }
}

/// A simulated (not host-time) result, printed by name and unit.
#[derive(Debug, Clone, Copy)]
pub struct SimMetric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one repetition of a workload's sweep.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Simulated references: one access through one model instance.
    pub refs: u64,
    /// Accesses the workload generators emitted (before fan-out).
    pub accesses: u64,
    /// Operations that failed: dropped accesses and `verify()` errors.
    pub failed: u64,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
    /// Digest of every simulated statistic.
    pub digest: u64,
    pub sim: Vec<SimMetric>,
    /// Host seconds each cell ran, where the benchmark owns the cell
    /// loop (pressure and tenants; Figure 6 cells run inside the
    /// program's sweep function).
    pub cell_s: Vec<f64>,
    /// Simulated references of each of those cells.
    pub cell_refs: Vec<u64>,
    /// Misses the attribution classifier charged (attrib sweeps only).
    pub classified: u64,
    /// Figure 6 rows, for the traced run's composition check.
    pub fig6_rows: Vec<Fig6Row>,
    /// Tenant exits replayed per manager.
    pub exits: u64,
}

/// Which attribution setting a Figure 6 sweep runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attrib {
    /// As the workload defines it.
    AsDefined,
    /// Observability on, attribution off: the traced run's baseline for
    /// the classifier's cost.
    Off,
}

/// Runs one repetition of the workload on `jobs` threads.
pub fn sweep(inputs: &mut Inputs, jobs: usize, attrib: Attrib) -> Sweep {
    match inputs {
        Inputs::Fig6 {
            cfg,
            kernels,
            attrib: on,
        } => sweep_fig6(cfg, kernels, *on, attrib, jobs),
        Inputs::Pressure { cfg, cells } => sweep_pressure(cfg, cells, jobs),
        Inputs::Tenants { cells } => sweep_tenants(cells, jobs),
    }
}

fn sweep_fig6(
    cfg: &Fig6Config,
    kernels: &mut [Box<dyn Workload>],
    attrib_on: bool,
    attrib: Attrib,
    jobs: usize,
) -> Sweep {
    let mut out = Sweep::default();
    let mut d = Digest::default();
    for k in kernels.iter_mut() {
        let obs = if attrib_on {
            let h = ObsHandle::enabled();
            h.set_attrib(attrib == Attrib::AsDefined);
            h
        } else {
            ObsHandle::noop()
        };
        let rows = run_workload_observed_jobs(cfg, k.as_mut(), &obs, 0, jobs);
        out.classified += obs
            .attrib_names()
            .iter()
            .filter(|n| n.starts_with("tlb."))
            .map(|n| obs.attrib_table(n).total())
            .sum::<u64>();
        let first = rows.first().map_or(0, |r| r.stats.accesses);
        out.accesses += first;
        for r in &rows {
            let s = &r.stats;
            out.refs += s.accesses;
            if s.accesses != first {
                out.violations.push(format!(
                    "{} {} {}: {} accesses, other cells {first}",
                    r.workload, r.assoc, r.kind, s.accesses
                ));
            }
            if s.hits + s.misses != s.accesses || s.sub_entry_misses > s.misses {
                out.violations.push(format!(
                    "{} {} {}: inconsistent {s:?}",
                    r.workload, r.assoc, r.kind
                ));
            }
            d.str(&r.workload);
            d.str(&r.assoc.to_string());
            d.str(&r.kind.to_string());
            for v in [
                s.accesses,
                s.hits,
                s.misses,
                s.sub_entry_misses,
                s.evictions,
            ] {
                d.u64(v);
            }
        }
        out.fig6_rows.extend(rows);
    }
    if attrib_on && attrib == Attrib::AsDefined && out.classified == 0 {
        out.violations
            .push("attribution on but no miss was classified".to_string());
    }
    out.digest = d.finish();
    let misses = |kind: TlbKind| -> u64 {
        out.fig6_rows
            .iter()
            .filter(|r| r.assoc == Associativity::Ways(8) && r.kind == kind)
            .map(|r| r.stats.misses)
            .sum()
    };
    let vanilla = misses(TlbKind::Vanilla);
    let mosaic = misses(TlbKind::Mosaic(Arity::new(4)));
    out.sim.push(SimMetric {
        name: "mosaic4_8way_miss_reduction_pct",
        value: if vanilla == 0 {
            0.0
        } else {
            (1.0 - mosaic as f64 / vanilla as f64) * 100.0
        },
        unit: "%",
    });
    out
}

fn digest_pressure_row(d: &mut Digest, r: &PressureRow) {
    d.str(r.workload);
    d.u64(r.footprint_bytes);
    d.u64(r.linux_swaps);
    d.u64(r.mosaic_swaps);
    d.opt_f64(r.first_conflict_pct);
    d.opt_f64(r.steady_state_pct);
    d.opt_f64(r.linux_steady_pct);
}

fn sweep_pressure(cfg: &PressureConfig, cells: &[(PressureWorkload, f64)], jobs: usize) -> Sweep {
    let outs = run_cells(jobs, cells.to_vec(), |_, (w, ratio)| {
        let t0 = Instant::now();
        let out = run_pressure_resilient(w, ratio, cfg, &ResilienceConfig::none());
        (out, t0.elapsed().as_secs_f64())
    });
    let mut out = Sweep::default();
    let mut d = Digest::default();
    let (mut linux, mut mosaic) = (0u64, 0u64);
    for ((result, secs), (w, ratio)) in outs.into_iter().zip(cells) {
        out.cell_s.push(secs);
        match result {
            Ok((row, report)) => {
                out.cell_refs.push(report.accesses_driven);
                out.refs += report.accesses_driven;
                out.accesses += report.accesses_driven / 2;
                out.failed += report.dropped();
                linux += row.linux_swaps;
                mosaic += row.mosaic_swaps;
                digest_pressure_row(&mut d, &row);
            }
            Err(e) => {
                out.failed += 1;
                out.violations
                    .push(format!("{} at ratio {ratio}: {e}", w.name()));
            }
        }
    }
    out.digest = d.finish();
    out.sim.push(SimMetric {
        name: "swap_reduction_pct",
        value: if linux == 0 {
            0.0
        } else {
            (linux as f64 - mosaic as f64) / linux as f64 * 100.0
        },
        unit: "%",
    });
    out
}

fn digest_tenants_row(d: &mut Digest, r: &TenantsRow) {
    d.u64(r.tenants as u64);
    d.f64(r.load);
    digest_pressure_row(d, &r.pressure);
    d.u64(r.exits);
    d.u64(r.mosaic_frames_reclaimed);
    d.u64(r.linux_frames_reclaimed);
    for s in r.mosaic_slots.iter().chain(&r.linux_slots) {
        d.u64(s.fault_ppm());
    }
}

fn sweep_tenants(cells: &[(TenantsConfig, Schedule)], jobs: usize) -> Sweep {
    let refs: Vec<&(TenantsConfig, Schedule)> = cells.iter().collect();
    let outs = run_cells(jobs, refs, |_, (cfg, schedule)| {
        let t0 = Instant::now();
        let plan = quota_plan(cfg);
        let out = run_schedule_observed(
            cfg,
            schedule,
            plan.as_ref(),
            &ResilienceConfig::none(),
            &ObsHandle::noop(),
            0,
        );
        (out, t0.elapsed().as_secs_f64())
    });
    let mut out = Sweep::default();
    let mut d = Digest::default();
    let mut ppm = Vec::new();
    for ((result, secs), (cfg, schedule)) in outs.into_iter().zip(cells) {
        out.cell_s.push(secs);
        out.accesses += schedule.accesses();
        match result {
            Ok((row, report)) => {
                out.cell_refs.push(2 * schedule.accesses());
                out.refs += 2 * schedule.accesses();
                out.exits += row.exits;
                out.failed += report.dropped() + row.mosaic_deferred + row.linux_deferred;
                digest_tenants_row(&mut d, &row);
                ppm.extend(row.mosaic_slots.iter().cloned());
            }
            Err(e) => {
                out.failed += 1;
                out.violations.push(format!("load {}: {e}", cfg.load));
            }
        }
    }
    out.digest = d.finish();
    out.sim.push(SimMetric {
        name: "tenant_p99_fault_ppm",
        value: summarize(&ppm).p99_ppm as f64,
        unit: "ppm",
    });
    out
}
