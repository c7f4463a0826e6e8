//! Invariants of the swapping experiments (Tables 3–4) across the stack.

use mosaic_core::prelude::*;
use mosaic_core::sim::pressure::{
    run_pressure, PressureConfig, PressureRow, PressureWorkload, ResilienceConfig,
    ResilienceReport,
};
use mosaic_core::sim::RunOpts;

fn cfg(seed: u64) -> PressureConfig {
    PressureConfig {
        mem_buckets: 16, // 1024 frames = 4 MiB: fast
        seed,
        batch: mosaic_core::sim::fig6::DEFAULT_BATCH,
    }
}

fn clean_row(w: PressureWorkload, ratio: f64, cfg: &PressureConfig) -> PressureRow {
    run_pressure(w, ratio, cfg, &RunOpts::default())
        .expect("fault-free pressure run cannot fail")
        .0
}

fn faulty_run(
    w: PressureWorkload,
    ratio: f64,
    cfg: &PressureConfig,
    res: ResilienceConfig,
) -> (PressureRow, ResilienceReport) {
    let opts = RunOpts {
        faults: res,
        ..RunOpts::default()
    };
    run_pressure(w, ratio, cfg, &opts).expect("run must survive transient allocation faults")
}

#[test]
fn no_swapping_when_memory_suffices() {
    // §4.2: "as long as ... the application(s) fit into DRAM, conflicts
    // are not observed".
    for w in PressureWorkload::ALL {
        let row = clean_row(w, 0.70, &cfg(1));
        assert_eq!(row.mosaic_swaps, 0, "{}: mosaic swapped under no pressure", row.workload);
        assert_eq!(row.linux_swaps, 0, "{}: linux swapped under no pressure", row.workload);
        assert_eq!(row.first_conflict_pct, None, "{}: conflict without pressure", row.workload);
    }
}

#[test]
fn first_conflict_close_to_98_percent() {
    // Table 3's headline: δ ≈ 2 %. Small pools have more variance; accept
    // anything above 94 %.
    for w in PressureWorkload::ALL {
        let row = clean_row(w, 1.20, &cfg(2));
        let fc = row
            .first_conflict_pct
            .expect("overcommit must conflict eventually");
        assert!(
            (94.0..=100.0).contains(&fc),
            "{}: first conflict at {fc:.2}%",
            row.workload
        );
    }
}

#[test]
fn steady_state_utilization_is_high() {
    // §4.2: ghosts push steady-state utilization past 1 − δ, above 99 %.
    for w in PressureWorkload::ALL {
        let row = clean_row(w, 1.20, &cfg(3));
        let ss = row.steady_state_pct.expect("sampled during run");
        assert!(ss > 98.0, "{}: steady-state only {ss:.2}%", row.workload);
    }
}

#[test]
fn linux_steady_state_capped_by_watermark() {
    // The baseline reclaims below its low watermark, so its utilization
    // saturates near 99.2 % — the number the paper quotes for stock Linux.
    let row = clean_row(PressureWorkload::BTree, 1.30, &cfg(4));
    let linux = row.linux_steady_pct.expect("sampled");
    assert!(
        (97.5..=99.5).contains(&linux),
        "linux steady-state {linux:.2}% outside the watermark band"
    );
}

#[test]
fn swap_volume_grows_with_footprint() {
    // Table 4's rows increase monotonically (mod noise) in footprint.
    for w in PressureWorkload::ALL {
        let small = clean_row(w, 1.10, &cfg(5));
        let large = clean_row(w, 1.50, &cfg(5));
        assert!(
            large.mosaic_swaps > small.mosaic_swaps,
            "{}: mosaic swaps did not grow ({} -> {})",
            w.name(),
            small.mosaic_swaps,
            large.mosaic_swaps
        );
        assert!(
            large.linux_swaps > small.linux_swaps,
            "{}: linux swaps did not grow",
            w.name()
        );
    }
}

#[test]
fn mosaic_swapping_is_comparable_to_linux() {
    // §4.3's claim is *comparability* plus frequent wins: at a mid
    // footprint, Mosaic stays within a small factor of the (idealised
    // exact-LRU) baseline for every workload.
    for w in PressureWorkload::ALL {
        let row = clean_row(w, 1.25, &cfg(6));
        let ratio = row.mosaic_swaps as f64 / row.linux_swaps.max(1) as f64;
        assert!(
            ratio < 1.30,
            "{}: mosaic swaps {:.2}x linux's",
            row.workload,
            ratio
        );
    }
}

#[test]
fn managers_agree_on_resident_set_size_bounds() {
    // Direct manager-level invariant under a shared stream.
    let layout = MemoryLayout::new(IcebergConfig::paper_default(16));
    let mut mosaic = MosaicMemory::new(layout, 9);
    let mut linux = LinuxMemory::new(layout);
    let frames = layout.num_frames() as u64;
    let mut now = 0;
    for i in 0..frames * 3 {
        now += 1;
        let key = PageKey::new(Asid::new(1), Vpn::new((i * 131) % (frames * 5 / 4)));
        mosaic.access(key, AccessKind::Store, now);
        linux.access(key, AccessKind::Store, now);
        assert!(mosaic.resident_frames() <= mosaic.num_frames());
        assert!(linux.resident_frames() <= linux.num_frames());
    }
    // Mosaic packs tighter than the watermark-bounded baseline.
    assert!(mosaic.utilization() >= linux.utilization() - 0.02);
}

#[test]
fn pressure_run_survives_one_percent_alloc_faults() {
    // ISSUE acceptance: a 1 % transient-allocation-fault plan must not
    // panic or corrupt structure — every interval and the final verify()
    // pass, and the run still produces a sane Table 4 row.
    let res = ResilienceConfig {
        plan: FaultPlan::NONE.with_alloc_failures(10_000), // 1 %
        fault_seed: 0x5EED,
        verify_every: 100_000,
    };
    let (row, rep) = faulty_run(PressureWorkload::XsBench, 1.25, &cfg(7), res);
    let all = rep.combined();
    assert!(all.alloc_faults_injected > 0, "plan must actually fire");
    assert!(all.alloc_retries > 0, "transient faults are retried");
    assert!(
        rep.verify_passes >= 2,
        "interval and final verify() must both run (got {})",
        rep.verify_passes
    );
    assert!(row.mosaic_swaps > 0, "the experiment still exercises swap");
    assert!(
        rep.dropped() < all.alloc_faults_injected,
        "retries absorb most transient faults ({} dropped of {})",
        rep.dropped(),
        all.alloc_faults_injected
    );
}

#[test]
fn faulty_and_fault_free_runs_share_workload_stream() {
    // The injector must not perturb the access stream itself: footprint
    // and access counts match the fault-free row exactly.
    let clean = clean_row(PressureWorkload::BTree, 1.20, &cfg(8));
    let res = ResilienceConfig {
        plan: FaultPlan::NONE.with_alloc_failures(5_000),
        fault_seed: 1,
        verify_every: 0,
    };
    let (faulty, _) = faulty_run(PressureWorkload::BTree, 1.20, &cfg(8), res);
    assert_eq!(clean.footprint_bytes, faulty.footprint_bytes);
    assert_eq!(clean.workload, faulty.workload);
}
