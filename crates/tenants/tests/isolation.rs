//! Adversarial-tenant isolation: a hostile slot 0 attacks the shared
//! frame pool, and the quota plan has to keep the victims' fault rates
//! near their solo baselines while the unprotected replay lets the
//! damage spread. The whole study is deterministic — same schedule,
//! same solo baselines, byte-identical at any job count.

use mosaic_sim::pressure::ResilienceConfig;
use mosaic_sim::RunOpts;
use mosaic_tenants::{
    isolation_lines, run_isolation, run_isolation_grid, HostileScenario, IsolationOutcome,
    TenantMix, TenantsConfig,
};

fn hostile_cfg(load: f64) -> TenantsConfig {
    TenantsConfig {
        tenants: 16,
        mem_buckets: 16,
        seed: 0x7E4A47,
        theta: 0.99,
        load,
        steps: 200_000,
        churn_every: 10_000,
        mix: TenantMix::Rotate,
        hostile: HostileScenario::Thrasher,
        hostile_mult: 4,
        hostile_churn_every: 2_000,
        quota_frac_pct: 125,
        priority_spread: 2,
        shared_traces: false,
        concurrent_alloc: false,
    }
}

fn run(load: f64) -> IsolationOutcome {
    run_isolation(&hostile_cfg(load), &RunOpts::default()).expect("fault-free isolation run")
}

#[test]
fn quotas_bound_thrasher_victim_inflation_at_105_percent_load() {
    let out = run(1.05);
    let [on, off] = isolation_lines(&out);
    assert!(on.quotas_on && !off.quotas_on);
    // The acceptance bar: with quotas on, no victim's fault rate may
    // exceed 2x its solo baseline; without quotas the damage spreads.
    assert!(
        on.mosaic.max_x100 < 200,
        "quotas-on mosaic inflation {:?} must stay under 2x",
        on.mosaic
    );
    assert!(
        on.linux.max_x100 < 200,
        "quotas-on linux inflation {:?} must stay under 2x",
        on.linux
    );
    assert!(
        off.mosaic.p50_x100 > on.mosaic.p50_x100
            || off.mosaic.max_x100 > on.mosaic.max_x100,
        "unprotected victims must fare worse: on {:?} vs off {:?}",
        on.mosaic,
        off.mosaic
    );
    // The protection is the quota machinery, not luck: the capped
    // attacker self-evicted its way through the run, and the
    // unprotected replay never touched the quota paths.
    assert!(on.mosaic_self_evictions > 0);
    assert!(on.linux_self_evictions > 0);
    assert_eq!(off.mosaic_self_evictions, 0);
    assert_eq!(off.linux_self_evictions, 0);
}

#[test]
fn unprotected_inflation_grows_with_load_protected_stays_flat() {
    let low = isolation_lines(&run(1.05));
    let high = isolation_lines(&run(1.20));
    // Quotas off: more offered load, more spread damage.
    assert!(
        high[1].mosaic.p50_x100 >= low[1].mosaic.p50_x100,
        "off-row p50 must not improve as load rises: {:?} -> {:?}",
        low[1].mosaic,
        high[1].mosaic
    );
    // Quotas on: the median victim stays at its solo baseline even at
    // 120% load.
    assert!(
        high[0].mosaic.p50_x100 <= 110,
        "protected median victim drifted: {:?}",
        high[0].mosaic
    );
}

#[test]
fn alloc_bomb_and_churn_storm_are_contained_too() {
    for hostile in [HostileScenario::AllocBomb, HostileScenario::ChurnStorm] {
        let cfg = TenantsConfig {
            hostile,
            steps: 60_000,
            ..hostile_cfg(1.05)
        };
        let out = run_isolation(&cfg, &RunOpts::default()).expect("fault-free isolation run");
        let [on, _off] = isolation_lines(&out);
        assert!(
            on.mosaic.max_x100 < 250,
            "{}: quotas-on mosaic inflation {:?}",
            hostile.name(),
            on.mosaic
        );
        // Churn-storm must actually cycle the attacker's ASID.
        if hostile == HostileScenario::ChurnStorm {
            assert!(
                out.on.exits > cfg.steps / cfg.hostile_churn_every / 2,
                "attacker churn must dominate exits: {}",
                out.on.exits
            );
        }
    }
}

#[test]
fn isolation_grid_under_faults_is_byte_identical_at_any_job_count() {
    let base = TenantsConfig {
        steps: 30_000,
        ..hostile_cfg(0.9)
    };
    let res = ResilienceConfig {
        plan: mosaic_mem::FaultPlan::NONE
            .with_alloc_failures(200)
            .with_io_failures(200, 2)
            .with_toc_flips(200),
        fault_seed: 0xFA17,
        verify_every: 10_000,
    };
    let run_grid = |jobs: usize| {
        let opts = RunOpts {
            faults: res,
            jobs,
            ..RunOpts::default()
        };
        run_isolation_grid(&base, &[0.9, 1.05], &opts)
            .into_iter()
            .map(|r| r.expect("verify must hold under injected faults"))
            .collect::<Vec<_>>()
    };
    let serial = run_grid(1);
    for jobs in [2, 8] {
        assert_eq!(run_grid(jobs), serial, "jobs={jobs}");
    }
}
