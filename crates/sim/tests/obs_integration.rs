//! Integration tests for the observability export of the pressure
//! pipeline: the fault-event timeline must be *replayable* (every
//! injected fault has exactly one recovery outcome), agree with the
//! independently-kept [`ResilienceStats`] counters, and the whole JSONL
//! stream must be byte-deterministic for a fixed seed.

use mosaic_sim::pressure::{run_pressure, PressureConfig, PressureWorkload, ResilienceConfig};
use mosaic_sim::RunOpts;
use mosaic_mem::FaultPlan;
use mosaic_obs::ObsHandle;

fn faulty_config() -> (PressureConfig, ResilienceConfig) {
    let cfg = PressureConfig {
        mem_buckets: 8,
        seed: 0x0B5_7E57,
        batch: mosaic_sim::fig6::DEFAULT_BATCH,
    };
    let res = ResilienceConfig {
        plan: FaultPlan::NONE
            .with_alloc_failures(20_000) // 2 %
            .with_io_failures(20_000, 2)
            .with_toc_flips(5_000),
        fault_seed: cfg.seed ^ 0xFA17,
        verify_every: 100_000,
    };
    (cfg, res)
}

fn observed_run(obs: &ObsHandle, interval: u64) -> mosaic_sim::pressure::ResilienceReport {
    let (cfg, res) = faulty_config();
    let opts = RunOpts {
        faults: res,
        obs: obs.clone(),
        obs_interval: interval,
        ..RunOpts::default()
    };
    let (_row, report) = run_pressure(PressureWorkload::XsBench, 1.2, &cfg, &opts)
        .expect("pressure run under bounded faults should complete");
    report
}

fn count_events(jsonl: &str, name: &str) -> u64 {
    let needle = format!("\"name\":\"{name}\"");
    jsonl
        .lines()
        .filter(|l| l.starts_with("{\"t\":\"event\"") && l.contains(&needle))
        .count() as u64
}

/// Every `fault.injected` event is matched by exactly one
/// `fault.recovered` or `fault.unrecovered` outcome, per manager, and
/// the counters agree with the event timeline *and* with the
/// `ResilienceStats` the managers keep independently.
#[test]
fn fault_timeline_conserves_and_matches_stats() {
    let obs = ObsHandle::enabled();
    let report = observed_run(&obs, 0);

    for prefix in ["mosaic", "linux"] {
        let injected = obs.counter_value(&format!("{prefix}.fault.injected"));
        let recovered = obs.counter_value(&format!("{prefix}.fault.recovered"));
        let unrecovered = obs.counter_value(&format!("{prefix}.fault.unrecovered"));
        assert!(injected > 0, "{prefix}: plan should inject faults");
        assert_eq!(
            injected,
            recovered + unrecovered,
            "{prefix}: every injected fault needs exactly one outcome"
        );
    }

    // Counters vs. the managers' own ResilienceStats bookkeeping.
    let m = &report.mosaic;
    assert_eq!(
        obs.counter_value("mosaic.fault.injected"),
        m.alloc_faults_injected + m.io_faults_injected + m.toc_flips_injected,
    );
    let l = &report.linux;
    assert_eq!(obs.counter_value("linux.fault.injected"), l.io_faults_injected);

    // Counters vs. the event timeline (the replayable form).
    let jsonl = obs.render_jsonl();
    let injected_total =
        obs.counter_value("mosaic.fault.injected") + obs.counter_value("linux.fault.injected");
    assert_eq!(count_events(&jsonl, "fault.injected"), injected_total);
    assert_eq!(
        count_events(&jsonl, "fault.recovered") + count_events(&jsonl, "fault.unrecovered"),
        injected_total,
    );
}

/// The same seed produces a byte-identical JSONL stream — the golden
/// determinism property `scripts/check.sh` also gates end to end.
#[test]
fn fixed_seed_jsonl_is_byte_deterministic() {
    let (a, b) = (ObsHandle::enabled(), ObsHandle::enabled());
    observed_run(&a, 100_000);
    observed_run(&b, 100_000);
    assert!(a.num_records() > 0);
    assert_eq!(a.render_jsonl(), b.render_jsonl());
}

/// Interval snapshots actually appear when requested: a snapshot every
/// 100k references over a multi-hundred-k access stream must yield
/// strictly more records than the single end-of-run snapshot.
#[test]
fn interval_snapshots_add_records() {
    let sparse = ObsHandle::enabled();
    observed_run(&sparse, 0);
    let dense = ObsHandle::enabled();
    observed_run(&dense, 100_000);
    assert!(
        dense.num_records() > sparse.num_records(),
        "interval snapshots should add records ({} vs {})",
        dense.num_records(),
        sparse.num_records()
    );
}
