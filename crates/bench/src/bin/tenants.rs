//! Multi-tenant fairness sweep: many Zipf'd address spaces over one
//! shared frame pool, Mosaic vs the Linux baseline.
//!
//! ```text
//! tenants [--tenants N] [--buckets N] [--loads P,P,..] [--theta-centi N]
//!         [--steps N] [--churn N] [--seed S] [--fault-ppm N]
//!         [--obs-out F] [--obs-interval R] [--jobs N]
//! ```
//!
//! For each load point (an integer percent of physical memory) the
//! driver records one trace per tenant slot, interleaves them under
//! Zipf(θ) with exit/respawn churn, and replays the identical schedule
//! into both managers. Output is a per-Zipf-rank-bucket fairness table
//! (fault ppm for both managers, Mosaic conflicts and conflict onset),
//! population p50/p99 per-tenant fault rates, and an aggregate
//! swap/utilization row per load.
//!
//! The whole sweep is a pure function of the flags: `--jobs 1` and
//! `--jobs 8` print byte-identical text, with or without `--fault-ppm`.

use mosaic_bench::obs::ObsSink;
use mosaic_bench::{run_opts, Args, JOBS_HELP};
use mosaic_core::sim::pressure::ResilienceConfig;
use mosaic_core::sim::report::Table;
use mosaic_core::sim::RunOpts;
use mosaic_core::tenants::{
    isolation_lines, render_fairness, render_isolation, summarize, HostileScenario, IsolationLine,
    TenantMix, TenantsConfig, TenantsRow,
};
use mosaic_obs::Value;

const USAGE: &str = "\
tenants [--tenants N] [--buckets N] [--loads P,P,..] [--theta-centi N]
        [--steps N] [--churn N] [--seed S] [--fault-ppm N]
        [--hostile S] [--hostile-mult N] [--hostile-churn N]
        [--quota-frac N] [--priority-spread N]
        [--shared-traces] [--concurrent-alloc]
        [--obs-out F] [--obs-interval R] [--jobs N]

Multi-tenant fairness sweep over one shared frame pool (Mosaic vs Linux).
--tenants      concurrent tenant slots (Zipf ranks), default 64
--buckets      Iceberg buckets of 64 frames, default 64 (16 MiB pool)
--loads        comma-separated integer load percents, default 90,105,120
--theta-centi  Zipf skew x100 over tenants, default 99 (theta = 0.99)
--steps        scheduled accesses per load point, default 400000
--churn        exit+respawn a tail tenant every N accesses (0 = off),
               default 20000
--fault-ppm    also run the sweep under fault injection at N ppm
--hostile      slot 0 runs an attack instead of its workload:
               thrasher | alloc-bomb | churn-storm. Switches the binary
               to the isolation study: each load point is replayed with
               quotas on AND off, against per-slot solo baselines, and
               the output is a victim-inflation table
--hostile-mult attacker footprint as a multiple of the fair share,
               default 4
--hostile-churn churn-storm only: attacker exit/respawn period,
               default 2000
--quota-frac   per-tenant frame quota as a percent of the fair share
               (isolation mode default 100; 0 = quotas off)
--priority-spread reclaim-priority levels across the victim ranks,
               default 4 in isolation mode (attacker always lowest)
--shared-traces collapse identical-workload slots onto one shared
               recorded trace (the group leader's seed) — changes the
               schedule, so goldens use the default off
--concurrent-alloc mirror Mosaic's residency into the lock-free
               concurrent Iceberg table, cross-checked at verify; also
               races a contention exercise over the first load point's
               schedule and reports it on stderr. stdout is unchanged
Every load point replays one recorded schedule into both managers; under
--jobs N the load points run on N threads with byte-identical output.";

fn parse_loads(args: &Args) -> Vec<u64> {
    let spec = args.get_str("loads").unwrap_or("90,105,120");
    spec.split(',')
        .map(|s| {
            s.trim().parse::<u64>().unwrap_or_else(|_| {
                eprintln!("error: --loads expects integer percents, got {s:?}");
                std::process::exit(2);
            })
        })
        .collect()
}

fn aggregate_table(rows: &[(u64, &TenantsRow)]) -> Table {
    let mut t = Table::new(vec![
        "load %".into(),
        "tenants".into(),
        "exits".into(),
        "linux swaps".into(),
        "mosaic swaps".into(),
        "mosaic reclaimed".into(),
        "first conflict %".into(),
        "mosaic p99 ppm".into(),
        "linux p99 ppm".into(),
    ])
    .with_title("Aggregate per load point");
    for &(pct, row) in rows {
        let ms = summarize(&row.mosaic_slots);
        let ls = summarize(&row.linux_slots);
        t.row(vec![
            pct.to_string(),
            row.tenants.to_string(),
            row.exits.to_string(),
            row.pressure.linux_swaps.to_string(),
            row.pressure.mosaic_swaps.to_string(),
            row.mosaic_frames_reclaimed.to_string(),
            row.pressure
                .first_conflict_pct
                .map_or_else(|| "-".to_string(), |p| format!("{p:.1}")),
            ms.p99_ppm.to_string(),
            ls.p99_ppm.to_string(),
        ]);
    }
    t
}

fn run_sweep(base: &TenantsConfig, loads_pct: &[u64], opts: &RunOpts, label: &str) {
    let loads: Vec<f64> = loads_pct.iter().map(|&p| p as f64 / 100.0).collect();
    eprintln!(
        "[tenants] {} load point(s) x {} tenants on {} thread(s){label} ...",
        loads.len(),
        base.tenants,
        opts.jobs
    );
    let outs = mosaic_core::tenants::run_tenants_grid(base, &[base.tenants], &loads, opts);
    let mut rows: Vec<(u64, TenantsRow)> = Vec::new();
    for (&pct, out) in loads_pct.iter().zip(outs) {
        match out {
            Ok((row, report)) => {
                if !opts.faults.plan.is_none() {
                    println!(
                        "load {pct}%{label}: dropped {} mosaic / {} linux, verify passes {}",
                        report.mosaic_dropped, report.linux_dropped, report.verify_passes
                    );
                }
                rows.push((pct, row));
            }
            Err(e) => eprintln!("[tenants] load {pct}%{label} aborted: {e}"),
        }
    }
    for (pct, row) in &rows {
        let title = format!(
            "Fairness at {pct}% load, {} tenants, Zipf(theta={:.2}){label}",
            row.tenants, base.theta
        );
        println!(
            "{}",
            render_fairness(&title, &row.mosaic_slots, &row.linux_slots)
        );
    }
    let refs: Vec<(u64, &TenantsRow)> = rows.iter().map(|(p, r)| (*p, r)).collect();
    println!("{}", aggregate_table(&refs).render());
}

fn run_isolation_study(base: &TenantsConfig, loads_pct: &[u64], opts: &RunOpts) {
    let loads: Vec<f64> = loads_pct.iter().map(|&p| p as f64 / 100.0).collect();
    eprintln!(
        "[tenants] isolation study: {} attacker, {} load point(s) x {} tenants on {} thread(s) ...",
        base.hostile.name(),
        loads.len(),
        base.tenants,
        opts.jobs
    );
    let outs = mosaic_core::tenants::run_isolation_grid(base, &loads, opts);
    let mut lines: Vec<IsolationLine> = Vec::new();
    for (&pct, out) in loads_pct.iter().zip(outs) {
        match out {
            Ok(cell) => lines.extend(isolation_lines(&cell)),
            Err(e) => eprintln!("[tenants] load {pct}% aborted: {e}"),
        }
    }
    let title = format!(
        "Victim inflation vs solo baseline: {} attacker ({}x share), {} tenants, quota {}%, priority spread {}",
        base.hostile.name(),
        base.hostile_mult,
        base.tenants,
        base.quota_frac_pct,
        base.priority_spread
    );
    println!("{}", render_isolation(&title, &lines));
}

fn main() {
    let args = Args::from_env();
    args.maybe_help(&format!("{USAGE}\n{JOBS_HELP}"));
    let tenants = args.get_u64("tenants", 64) as usize;
    let buckets = args.get_u64("buckets", 64) as usize;
    let seed = args.get_u64("seed", 0x7E4A47);
    let theta = args.get_u64("theta-centi", 99) as f64 / 100.0;
    let steps = args.get_u64("steps", 400_000);
    let churn = args.get_u64("churn", 20_000);
    let fault_ppm = args.get_u64("fault-ppm", 0) as u32;
    let hostile = match args.get_str("hostile") {
        None => HostileScenario::None,
        Some(s) => HostileScenario::parse(s).unwrap_or_else(|| {
            eprintln!("error: --hostile expects thrasher | alloc-bomb | churn-storm, got {s:?}");
            std::process::exit(2);
        }),
    };
    let isolation = hostile.is_some();
    let hostile_mult = args.get_u64("hostile-mult", 4) as u32;
    let hostile_churn = args.get_u64("hostile-churn", 2_000);
    let quota_frac = args.get_u64("quota-frac", if isolation { 100 } else { 0 }) as u32;
    let priority_spread = args.get_u64("priority-spread", if isolation { 4 } else { 1 }) as u32;
    let loads_pct = parse_loads(&args);
    if tenants == 0 || loads_pct.is_empty() {
        eprintln!("error: need at least one tenant and one load point");
        std::process::exit(2);
    }

    let base = TenantsConfig {
        tenants,
        mem_buckets: buckets,
        seed,
        theta,
        load: 0.0, // per-cell override from --loads
        steps,
        churn_every: churn,
        mix: TenantMix::Rotate,
        hostile,
        hostile_mult,
        hostile_churn_every: hostile_churn,
        quota_frac_pct: quota_frac,
        priority_spread,
        shared_traces: args.has("shared-traces"),
        concurrent_alloc: args.has("concurrent-alloc"),
    };

    let sink = ObsSink::from_args(&args, "tenants");
    let opts = run_opts(&args, &sink, Some(seed));
    if base.concurrent_alloc {
        // Race the lock-free allocator for real before the sweep: the
        // first load point's schedule, partitioned across `jobs` worker
        // threads (and serially as the baseline). Reported on stderr
        // only, so stdout stays golden-comparable.
        let mut probe = base.clone();
        probe.load = loads_pct[0] as f64 / 100.0;
        let schedule = mosaic_core::tenants::build_schedule(&probe);
        for threads in [1, opts.jobs.max(2)] {
            let rep = mosaic_core::tenants::contention_exercise(&probe, &schedule, threads);
            eprintln!(
                "[tenants] contention: threads={} ops={} inserts={} removes={} conflicts={} final_len={} oracle={}",
                rep.threads,
                rep.ops,
                rep.inserts,
                rep.removes,
                rep.conflicts,
                rep.final_len,
                if rep.oracle_ok { "ok" } else { "DIVERGED" }
            );
            assert!(
                rep.oracle_ok,
                "concurrent allocator diverged from its serialized replay"
            );
        }
    }

    if sink.is_enabled() {
        sink.handle().meta(&[
            ("tenants", Value::from(tenants as u64)),
            ("buckets", Value::from(buckets as u64)),
            ("seed", Value::from(seed)),
            ("theta", Value::from(theta)),
            ("steps", Value::from(steps)),
            ("churn", Value::from(churn)),
            ("fault_ppm", Value::from(u64::from(fault_ppm))),
            ("hostile", Value::from(hostile.name())),
            ("quota_frac", Value::from(u64::from(quota_frac))),
        ]);
    }

    if isolation {
        run_isolation_study(&base, &loads_pct, &opts);
        sink.finish();
        return;
    }

    let clean = RunOpts {
        faults: ResilienceConfig::none(),
        ..opts.clone()
    };
    run_sweep(&base, &loads_pct, &clean, "");
    if fault_ppm > 0 {
        run_sweep(&base, &loads_pct, &opts, " [faults]");
    }

    sink.finish();
}
