//! Regenerates **Table 4**: number of memory swapping operations while
//! increasing the workload sizes, Linux baseline vs Mosaic (Horizon LRU).
//!
//! ```text
//! table4 [--buckets N] [--csv] [--fault-ppm N] [--obs-out F] [--obs-interval R] [--jobs N]
//!        [--batch N]
//! ```
//!
//! The paper sweeps footprints from 101.5 % to 157.7 % of a 4 GiB pool;
//! this driver preserves those ratios over a scaled pool (`--buckets`
//! Iceberg buckets of 64 frames, default 64 = 16 MiB).
//!
//! With `--fault-ppm N` the same sweep runs under fault injection
//! (transient allocation failures, swap-I/O error bursts, and ToC
//! bit-flips, each at N ppm) and appends the resilience table: faults
//! injected, retries, backoff, re-walks, dropped accesses, and
//! structural `verify()` passes.
//!
//! With `--obs-out F` the run additionally exports counters, gauges,
//! interval snapshots (`--obs-interval R` references apart) and — under
//! `--fault-ppm` — the replayable `fault.injected`/`fault.recovered`/
//! `fault.unrecovered` event timeline; render `F` with `obs_report`.

use mosaic_bench::obs::ObsSink;
use mosaic_bench::{run_opts, Args, JOBS_HELP};
use mosaic_core::sim::platform::SwapPlatform;
use mosaic_core::sim::pressure::{
    render_resilience, render_table4, run_table4, PressureConfig, PressureWorkload,
    ResilienceConfig,
};
use mosaic_core::sim::RunOpts;
use mosaic_obs::Value;

const USAGE: &str = "\
table4 [--buckets N] [--csv] [--fault-ppm N] [--obs-out F] [--obs-interval R]
       [--jobs N] [--batch N]

Regenerates Table 4 (swap I/O under pressure, Linux vs Mosaic).
With --jobs N the (workload, footprint-ratio) grid cells run on N threads;
each cell records its workload once and replays it for both managers.
--batch N sets the access-batch size the drive loop consumes (1 = scalar
per-access loop); stdout is byte-identical at every --batch/--jobs value.
Under --fault-ppm every cell derives its own injector seed from the cell
index, so fault sweeps are reproducible at any thread count.";

fn main() {
    let args = Args::from_env();
    args.maybe_help(&format!("{USAGE}\n{JOBS_HELP}"));
    let buckets = args.get_u64("buckets", 64) as usize;
    // Parsed up front so a malformed value fails before the long sweep.
    let fault_ppm = args.get_u64("fault-ppm", 0) as u32;
    let cfg = PressureConfig {
        mem_buckets: buckets,
        seed: args.get_u64("seed", 0x7AB1E),
        batch: args.get_u64("batch", mosaic_core::sim::fig6::DEFAULT_BATCH as u64) as usize,
    };
    let sink = ObsSink::from_args(&args, "table4");
    let opts = run_opts(&args, &sink, Some(cfg.seed));
    let jobs = opts.jobs;
    if sink.is_enabled() {
        sink.handle().meta(&[
            ("buckets", Value::from(buckets as u64)),
            ("seed", Value::from(cfg.seed)),
            ("fault_ppm", Value::from(u64::from(fault_ppm))),
        ]);
    }

    println!("{}", SwapPlatform::new(buckets * 64).table().render());

    let ratios = PressureConfig::paper_ratios();
    eprintln!(
        "[table4] {} cells on {jobs} thread(s) ...",
        PressureWorkload::ALL.len() * ratios.len()
    );
    let t0 = std::time::Instant::now();
    let clean = RunOpts {
        faults: ResilienceConfig::none(),
        ..opts.clone()
    };
    let (rows, reports): (Vec<_>, Vec<_>) = run_table4(&cfg, &ratios, &clean)
        .into_iter()
        .map(|out| out.unwrap_or_else(|e| panic!("fault-free pressure run cannot fail: {e}")))
        .unzip();
    let wall = t0.elapsed();
    let stepped: u64 = reports.iter().map(|r| r.accesses_driven).sum();
    if stepped > 0 {
        eprintln!(
            "[table4] sweep: {:.1} ms wall, {:.2} ns/access ({stepped} accesses, batch={})",
            wall.as_secs_f64() * 1e3,
            wall.as_secs_f64() * 1e9 / stepped as f64,
            cfg.batch,
        );
    }

    let table = render_table4(&rows);
    if args.has("csv") {
        println!("{}", table.render_csv());
    } else {
        println!("{}", table.render());
    }

    // Shape commentary, mirroring §4.3's reading of the table.
    let boundary_losses = rows
        .iter()
        .filter(|r| {
            let ratio = r.footprint_bytes as f64 / (buckets as f64 * 64.0 * 4096.0);
            ratio < 1.05 && r.difference_pct() < 0.0
        })
        .count();
    let mid_wins = rows
        .iter()
        .filter(|r| {
            let ratio = r.footprint_bytes as f64 / (buckets as f64 * 64.0 * 4096.0);
            ratio >= 1.05 && r.difference_pct() >= 0.0
        })
        .count();
    println!(
        "Shape: {boundary_losses} boundary rows where Mosaic swaps more (paper: the first\n\
         row of each workload, because Linux utilizes ~1% more memory), {mid_wins} rows at\n\
         higher footprints where Mosaic matches or beats Linux (paper: up to 29%)."
    );

    if fault_ppm > 0 {
        eprintln!(
            "[table4] {} cells on {jobs} thread(s) (faults {fault_ppm} ppm) ...",
            PressureWorkload::ALL.len() * ratios.len()
        );
        let mut frows = Vec::new();
        let outs = run_table4(&cfg, &ratios, &opts);
        let grid = PressureWorkload::ALL
            .into_iter()
            .flat_map(|w| ratios.iter().map(move |&ratio| (w, ratio)));
        for ((w, ratio), out) in grid.zip(outs) {
            match out {
                Ok(row) => frows.push(row),
                Err(e) => {
                    eprintln!("[table4] {} at ratio {ratio:.3} aborted: {e}", w.name());
                }
            }
        }
        let rt = render_resilience(&frows);
        if args.has("csv") {
            println!("{}", rt.render_csv());
        } else {
            println!("{}", rt.render());
        }
    }

    sink.finish();
}
