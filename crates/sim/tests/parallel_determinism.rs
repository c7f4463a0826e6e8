//! Cross-thread-count determinism suite for the parallel sweep engine.
//!
//! Every driver that fans cells out over a rayon pool must produce
//! results byte-identical to its serial twin at any `--jobs` value:
//! the record-once/replay-many trace plus deterministic per-cell seed
//! derivation make thread count a pure throughput knob. These tests pin
//! that contract for the Figure 6 grid, the Table 4 pressure sweep
//! (fault-free and fault-injected), the fragmentation sweep, and the
//! [`run_grid`] fan-out every sweep driver shares.

use mosaic_mem::{FaultPlan, ResilienceStats};
use mosaic_obs::{ObsHandle, Value};
use mosaic_sim::fig6::{run_workload, Fig6Config};
use mosaic_sim::frag::{run_frag, run_frag_jobs, FragConfig};
use mosaic_sim::pressure::{
    run_pressure, run_table4, PressureConfig, PressureRow, PressureWorkload, ResilienceConfig,
};
use mosaic_sim::{derive_seed, run_grid, RunOpts};
use mosaic_workloads::{BTreeConfig, BTreeWorkload, Gups, GupsConfig};
use proptest::prelude::*;

const JOB_COUNTS: [usize; 3] = [1, 2, 8];

fn on(jobs: usize) -> RunOpts {
    RunOpts {
        jobs,
        ..RunOpts::default()
    }
}

fn quick_gups() -> Gups {
    Gups::new(
        GupsConfig {
            table_bytes: 1 << 20,
            updates: 20_000,
        },
        5,
    )
}

fn tiny_pressure_cfg() -> PressureConfig {
    PressureConfig {
        mem_buckets: 16, // 1024 frames = 4 MiB
        seed: 5,
        batch: mosaic_sim::fig6::DEFAULT_BATCH,
    }
}

fn small_btree() -> BTreeWorkload {
    BTreeWorkload::new(
        BTreeConfig {
            num_keys: 50_000,
            num_lookups: 5_000,
        },
        7,
    )
}

#[test]
fn fig6_rows_identical_across_job_counts() {
    let cfg = Fig6Config::quick_test();
    let serial = run_workload(&cfg, &mut quick_gups(), &on(1));
    for jobs in JOB_COUNTS {
        let rows = run_workload(&cfg, &mut quick_gups(), &on(jobs));
        assert_eq!(rows, serial, "fig6 rows diverged at jobs={jobs}");
    }
}

#[test]
fn fig6_with_kernel_identical_across_job_counts() {
    // The kernel model interleaves page-table-walker accesses into the
    // recorded reference stream; replay must preserve them verbatim.
    let cfg = Fig6Config {
        kernel: Some(mosaic_sim::dual::KernelConfig::default()),
        ..Fig6Config::quick_test()
    };
    let serial = run_workload(&cfg, &mut quick_gups(), &on(1));
    for jobs in JOB_COUNTS {
        let rows = run_workload(&cfg, &mut quick_gups(), &on(jobs));
        assert_eq!(rows, serial, "fig6 kernel rows diverged at jobs={jobs}");
    }
}

#[test]
fn table4_zero_fault_parallel_matches_serial_bit_for_bit() {
    let cfg = tiny_pressure_cfg();
    let ratios = [1.25];
    // The serial oracle: the grid's cells run one by one, in grid order
    // (workloads outer, ratios inner), on the calling thread.
    let mut serial: Vec<PressureRow> = Vec::new();
    for w in PressureWorkload::ALL {
        for &r in &ratios {
            let (row, _) = run_pressure(w, r, &cfg, &RunOpts::default())
                .expect("fault-free pressure run cannot fail");
            serial.push(row);
        }
    }
    for jobs in JOB_COUNTS {
        let cells: Vec<_> = run_table4(&cfg, &ratios, &on(jobs))
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("fault-free table4 cannot fail");
        let rows: Vec<_> = cells.iter().map(|(row, _)| row.clone()).collect();
        assert_eq!(rows, serial, "table4 rows diverged at jobs={jobs}");
        for (_, rep) in &cells {
            assert_eq!(
                rep.combined(),
                ResilienceStats::ZERO,
                "zero-fault run reported faults at jobs={jobs}"
            );
        }
    }
}

#[test]
fn table4_fault_plan_identical_across_job_counts() {
    // With an active plan every cell derives its injector seed from
    // (base seed, cell index), so fault placement is a function of the
    // grid position — never of which thread ran the cell.
    let cfg = tiny_pressure_cfg();
    let ratios = [1.25];
    let res = ResilienceConfig {
        plan: FaultPlan::NONE
            .with_alloc_failures(5_000)
            .with_io_failures(5_000, 1)
            .with_toc_flips(500),
        fault_seed: 0xF00D,
        verify_every: 50_000,
    };
    let faulty = |jobs: usize| -> Vec<_> {
        let opts = RunOpts {
            faults: res,
            jobs,
            ..RunOpts::default()
        };
        run_table4(&cfg, &ratios, &opts)
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("faulty run")
    };
    let baseline = faulty(1);
    assert!(
        baseline
            .iter()
            .any(|(_, rep)| rep.combined() != ResilienceStats::ZERO),
        "plan injected nothing; test would not exercise fault determinism"
    );
    for jobs in JOB_COUNTS {
        assert_eq!(
            faulty(jobs),
            baseline,
            "faulty table4 diverged at jobs={jobs}"
        );
    }
}

#[test]
fn frag_results_identical_across_job_counts() {
    let cfgs = [FragConfig::new(0.0, 11), FragConfig::new(0.5, 11)];
    let serial: Vec<_> = cfgs
        .iter()
        .map(|c| run_frag(c, &mut small_btree()))
        .collect();
    for jobs in JOB_COUNTS {
        let results = run_frag_jobs(&cfgs, &mut small_btree(), jobs);
        assert_eq!(results, serial, "frag results diverged at jobs={jobs}");
    }
}

#[test]
fn table4_jsonl_identical_across_job_counts() {
    // Every cell exports into its own child registry, merged in grid
    // order — there is no job count at which cells share a registry.
    let cfg = tiny_pressure_cfg();
    let export = |jobs: usize| {
        let opts = RunOpts {
            obs: ObsHandle::enabled(),
            obs_interval: 20_000,
            jobs,
            ..RunOpts::default()
        };
        for out in run_table4(&cfg, &[1.1], &opts) {
            out.expect("fault-free table4 cannot fail");
        }
        opts.obs.render_jsonl()
    };
    let serial = export(1);
    assert!(serial.contains("\"t\":\"counter\""));
    for jobs in [2, 4] {
        assert!(
            export(jobs) == serial,
            "table4 JSONL diverged at jobs={jobs}"
        );
    }
}

#[test]
fn pressure_grid_keeps_the_parents_attribution_switch() {
    // Regression: cells once got fresh `ObsHandle::enabled()` children,
    // which start with attribution off, so `--attrib` sweeps exported
    // no attribution records at all.
    let opts = RunOpts {
        obs: ObsHandle::enabled(),
        jobs: 2,
        ..RunOpts::default()
    };
    opts.obs.set_attrib(true);
    for out in run_table4(&tiny_pressure_cfg(), &[1.25], &opts) {
        out.expect("fault-free table4 cannot fail");
    }
    let attrib_records = opts
        .obs
        .render_jsonl()
        .lines()
        .filter(|l| l.starts_with("{\"t\":\"attrib\""))
        .count();
    assert!(
        attrib_records > 0,
        "no attribution record in the merged stream"
    );
}

/// One generated fan-out: every cell reports the options it was handed
/// and writes its value and fault seed into its registry.
fn fan_out(cells: &[u64], faults: ResilienceConfig, jobs: usize) -> (Vec<(u64, RunOpts)>, String) {
    let opts = RunOpts {
        faults,
        obs: ObsHandle::enabled(),
        obs_interval: 7,
        jobs,
    };
    opts.obs.set_attrib(true);
    let out = run_grid(&opts, cells.to_vec(), |c, cell| {
        cell.obs.counter("cell.value").add(c);
        cell.obs.event(
            c,
            "cell",
            &[("fault_seed", Value::from(cell.faults.fault_seed))],
        );
        cell.obs.snapshot(c);
        (c.wrapping_mul(3), cell.clone())
    });
    (out, opts.obs.render_jsonl())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn run_grid_is_job_count_invariant_and_derives_cell_seeds(
        cells in proptest::collection::vec(0u64..1_000_000, 0..12),
        faulty in any::<bool>(),
        base in any::<u64>(),
    ) {
        let faults = if faulty {
            ResilienceConfig::from_ppm(500, base)
        } else {
            ResilienceConfig { fault_seed: base, ..ResilienceConfig::none() }
        };
        let (serial, serial_jsonl) = fan_out(&cells, faults, 1);
        for jobs in [2, 8] {
            let (out, jsonl) = fan_out(&cells, faults, jobs);
            let values: Vec<u64> = out.iter().map(|(v, _)| *v).collect();
            let serial_values: Vec<u64> = serial.iter().map(|(v, _)| *v).collect();
            prop_assert_eq!(values, serial_values);
            prop_assert!(jsonl == serial_jsonl, "merged JSONL diverged at jobs={}", jobs);
        }
        for (i, (v, cell)) in serial.iter().enumerate() {
            prop_assert_eq!(*v, cells[i].wrapping_mul(3));
            let want = if faulty {
                ResilienceConfig { fault_seed: derive_seed(base, i as u64), ..faults }
            } else {
                faults
            };
            prop_assert_eq!(cell.faults, want);
            prop_assert_eq!(cell.jobs, 1);
            prop_assert!(cell.obs.attrib_enabled(), "cell lost the attribution switch");
        }
    }
}
