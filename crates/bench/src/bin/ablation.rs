//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Eviction policy** (§2.4's design space): Horizon LRU vs the naive
//!    candidate-LRU scheme vs the prior-work reserved-capacity scheme, at
//!    several reserve fractions — swap I/O and achievable utilization.
//! 2. **Baseline fidelity**: Mosaic vs the idealised exact-LRU baseline
//!    vs stock-Linux-style two-list clock reclaim.
//! 3. **Backyard choices** `d`: first-conflict utilization for d ∈ 1..8
//!    (the power-of-d-choices knob).
//! 4. **Front/back split**: how dividing each 64-frame bucket between the
//!    yards trades first-conflict load against CPFN width.
//!
//! ```text
//! ablation [--buckets N] [--obs-out F] [--obs-interval R] [--jobs N]
//! ```
//!
//! `--obs-out` exports each ablation run's counters under a per-run
//! prefix (e.g. `policy-horizon-lru.*`, `baseline-2-list-clock.*`) plus
//! sweep events as JSONL; render with `obs_report`.

use mosaic_bench::obs::ObsSink;
use mosaic_bench::{run_opts, Args, JOBS_HELP};
use mosaic_core::iceberg::{experiments, IcebergConfig};
use mosaic_core::mem::clock::ClockMemory;
use mosaic_core::prelude::*;
use mosaic_core::sim::pressure::PressureWorkload;
use mosaic_core::sim::{run_cells, run_grid};
use mosaic_core::mem::scanner::ScannerConfig;
use mosaic_core::sim::report::Table;
use mosaic_obs::{ObsHandle, Value};

const USAGE: &str = "\
ablation [--buckets N] [--obs-out F] [--obs-interval R] [--jobs N]

Runs the five design-choice ablations. Each section's runs are
independent cells (policies, baselines, d values, splits, timestamp
modes) fanned out over --jobs threads; tables, sweep events, and merged
observability are emitted in the serial order afterwards.";

/// Metric-name slug for a human-readable run label.
fn slug(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_string()
}

fn drive(
    manager: &mut dyn MemoryManager,
    workload: PressureWorkload,
    target: u64,
    seed: u64,
    label: &str,
    obs: &ObsHandle,
    obs_interval: u64,
) {
    if obs.is_enabled() {
        manager.set_obs(obs, &slug(label));
        obs.event(
            0,
            "drive.begin",
            &[
                ("mgr", Value::from(slug(label))),
                ("workload", Value::from(workload.name())),
            ],
        );
    }
    let mut w = workload.build(target, seed);
    let mut now = 0u64;
    w.run(&mut |a| {
        now += 1;
        manager.access(PageKey::new(Asid::new(1), a.addr.vpn()), a.kind, now);
        if now.is_multiple_of(65_536) {
            manager.sample_utilization();
        }
        if obs_interval > 0 && now.is_multiple_of(obs_interval) {
            manager.publish_obs();
            obs.snapshot(now);
        }
    });
    manager.sample_utilization();
    if obs.is_enabled() {
        manager.publish_obs();
        obs.snapshot(now);
    }
}

fn main() {
    let args = Args::from_env();
    args.maybe_help(&format!("{USAGE}\n{JOBS_HELP}"));
    let buckets = args.get_u64("buckets", 64) as usize;
    let sink = ObsSink::from_args(&args, "ablation");
    if sink.is_enabled() {
        sink.handle()
            .meta(&[("buckets", Value::from(buckets as u64))]);
    }
    let opts = run_opts(&args, &sink, None);
    let jobs = opts.jobs;
    let layout = MemoryLayout::new(IcebergConfig::paper_default(buckets));
    let target = layout.bytes() * 5 / 4; // 125 % footprint
    let workload = PressureWorkload::XsBench;

    // ── 1. Eviction-policy ablation ────────────────────────────────────
    let mut t1 = Table::new(vec![
        "Policy".into(),
        "Swap I/O (pages)".into(),
        "Conflicts".into(),
        "Ghost evictions".into(),
        "Steady-state util (%)".into(),
    ])
    .with_title(&format!(
        "Ablation 1: eviction policy (XSBench at 125% of {} MiB)",
        layout.bytes() >> 20
    ));
    let policies = vec![
        MosaicPolicy::HorizonLru,
        MosaicPolicy::CandidateLru,
        MosaicPolicy::ReservedCapacity { reserve_permille: 20 },
        MosaicPolicy::ReservedCapacity { reserve_permille: 40 },
        MosaicPolicy::ReservedCapacity { reserve_permille: 80 },
    ];
    eprintln!("[ablation] {} policy cells on {jobs} thread(s) ...", policies.len());
    for row in run_grid(&opts, policies, |policy, cell| {
        let mut mm = MosaicMemory::with_policy(layout, 7, policy);
        drive(
            &mut mm,
            workload,
            target,
            7,
            &format!("policy {policy}"),
            &cell.obs,
            cell.obs_interval,
        );
        vec![
            policy.to_string(),
            mm.stats().swap_ops().to_string(),
            mm.stats().conflicts.to_string(),
            mm.stats().ghost_evictions.to_string(),
            format!(
                "{:.2}",
                mm.utilization_tracker().steady_state_mean().unwrap_or(0.0) * 100.0
            ),
        ]
    }) {
        t1.row(row);
    }
    println!("{}", t1.render());
    println!(
        "Reading: Horizon LRU gets high utilization *and* low swap I/O; the naive policy\n\
         conflicts on every eviction; reserving capacity suppresses conflicts but wastes\n\
         the reserve (§2.4).\n"
    );

    // ── 2. Baseline fidelity ───────────────────────────────────────────
    let mut t2 = Table::new(vec![
        "Manager".into(),
        "Swap I/O (pages)".into(),
        "Steady-state util (%)".into(),
    ])
    .with_title("Ablation 2: Mosaic vs baseline reclaim fidelity (same stream)");
    let baselines = ["Mosaic (Horizon LRU)", "Baseline: exact LRU", "Baseline: 2-list clock"];
    eprintln!("[ablation] {} manager cells on {jobs} thread(s) ...", baselines.len());
    for row in run_grid(&opts, (0..baselines.len()).collect(), |which, cell| {
        let name = baselines[which];
        // Each cell builds its own manager so the drives are independent.
        let mut mosaic;
        let mut exact;
        let mut clock;
        let mgr: &mut dyn MemoryManager = match which {
            0 => {
                mosaic = MosaicMemory::new(layout, 7);
                &mut mosaic
            }
            1 => {
                exact = LinuxMemory::new(layout);
                &mut exact
            }
            _ => {
                clock = ClockMemory::new(layout);
                &mut clock
            }
        };
        drive(mgr, workload, target, 7, name, &cell.obs, cell.obs_interval);
        vec![
            name.to_string(),
            mgr.stats().swap_ops().to_string(),
            format!(
                "{:.2}",
                mgr.utilization_tracker().steady_state_mean().unwrap_or(0.0) * 100.0
            ),
        ]
    }) {
        t2.row(row);
    }
    println!("{}", t2.render());

    // ── 3. Backyard-choices sweep ──────────────────────────────────────
    let mut t3 = Table::new(vec![
        "d (backyard choices)".into(),
        "h (associativity)".into(),
        "First-conflict load (%)".into(),
    ])
    .with_title("Ablation 3: power-of-d-choices vs achievable load (56 + d x 8 geometry)");
    for (d, cfg, s) in run_cells(jobs, vec![1usize, 2, 3, 4, 6, 8], |_, d| {
        let cfg = IcebergConfig::new(buckets.max(8), 56, 8, d);
        (d, cfg, experiments::first_conflict_summary(cfg, 5, 3))
    }) {
        sink.handle().event(
            d as u64,
            "ablation.backyard",
            &[
                ("d", Value::from(d as u64)),
                ("first_conflict_mean_pct", Value::from(s.mean)),
            ],
        );
        t3.row(vec![
            d.to_string(),
            cfg.associativity().to_string(),
            format!("{:.2} ±{:.2}", s.mean, s.stddev),
        ]);
    }
    println!("{}", t3.render());
    println!("Reading: more choices flatten the backyard load; the paper picks d = 6 so the\nCPFN still fits 7 bits (h = 104 <= 127).\n");

    // ── 4. Front/back split ────────────────────────────────────────────
    let mut t4 = Table::new(vec![
        "Split (front/back)".into(),
        "h".into(),
        "CPFN bits".into(),
        "First-conflict load (%)".into(),
    ])
    .with_title("Ablation 4: bucket split between yards (64 frames per bucket, d = 6)");
    for (front, back, cfg, s) in run_cells(
        jobs,
        vec![(63, 1), (60, 4), (56, 8), (48, 16), (32, 32)],
        |_, (front, back)| {
            let cfg = IcebergConfig::new(buckets.max(8), front, back, 6);
            (front, back, cfg, experiments::first_conflict_summary(cfg, 6, 3))
        },
    ) {
        sink.handle().event(
            back as u64,
            "ablation.split",
            &[
                ("front", Value::from(front as u64)),
                ("back", Value::from(back as u64)),
                ("first_conflict_mean_pct", Value::from(s.mean)),
            ],
        );
        t4.row(vec![
            format!("{front}/{back}"),
            cfg.associativity().to_string(),
            cfg.cpfn_bits().to_string(),
            format!("{:.2} ±{:.2}", s.mean, s.stddev),
        ]);
    }
    println!("{}", t4.render());
    println!("Reading: the paper's 56/8 split reaches ~98% at 7-bit CPFNs; bigger backyards\nbuy little load and cost encoding bits.\n");

    // ── 5. Timestamp fidelity (§3.2 scanning daemon) ──────────────────
    let mut t5 = Table::new(vec![
        "Timestamps".into(),
        "Swap I/O (pages)".into(),
        "Bits cleared".into(),
        "Assumed accessed".into(),
    ])
    .with_title("Ablation 5: exact timestamps vs the access-bit scanning daemon (§3.2)");
    eprintln!("[ablation] 2 timestamp cells on {jobs} thread(s) ...");
    for row in run_grid(&opts, vec![false, true], |use_scanner, cell| {
        let (obs, obs_interval) = (&cell.obs, cell.obs_interval);
        if use_scanner {
            // Scan interval ~ one pass over memory, the analogue of the
            // paper's 1 s wall-clock interval on its 4 GiB pool.
            let mut scanned = MosaicMemory::with_scanner(
                layout,
                7,
                ScannerConfig {
                    interval: layout.num_frames() as u64 * 2,
                    ..Default::default()
                },
            );
            drive(&mut scanned, workload, target, 7, "ts scanned", obs, obs_interval);
            let st = *scanned.scanner().expect("scanner mode").stats();
            vec![
                "Scanned (access bits + 20% hot sampling)".into(),
                scanned.stats().swap_ops().to_string(),
                st.bits_cleared.to_string(),
                st.assumed_accessed.to_string(),
            ]
        } else {
            let mut exact = MosaicMemory::new(layout, 7);
            drive(&mut exact, workload, target, 7, "ts exact", obs, obs_interval);
            vec![
                "Exact (ideal hardware)".into(),
                exact.stats().swap_ops().to_string(),
                "-".into(),
                "-".into(),
            ]
        }
    }) {
        t5.row(row);
    }
    println!("{}", t5.render());
    println!("Reading: epoch-granular timestamps make Horizon LRU's eviction choices\ncoarser (the fidelity cost of real hardware, quantified above), while hot-page\nsampling avoids a large share of access-bit clears (TLB invalidations).");
    sink.finish();
}
