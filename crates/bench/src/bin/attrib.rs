//! Regenerates the **miss-attribution** report: differential 3C curves
//! (compulsory / capacity / conflict) for every vanilla and mosaic TLB
//! cell over an identical reference stream, plus the memory-fault
//! taxonomy and per-tenant blame table for both memory managers.
//!
//! ```text
//! attrib [--buckets N] [--entries N] [--load PCT] [--seed S] [--fault-ppm P]
//!        [--jobs N] [--obs-out F] [--obs-interval R] [--obs-format jsonl|trace]
//! ```
//!
//! Attribution is always on in this binary (it *is* the attribution
//! report); `--obs-out` additionally exports the raw stream, including
//! the `{"t":"attrib",...}` table records, for `obs_report`.

use mosaic_bench::obs::ObsSink;
use mosaic_bench::{run_opts, Args, JOBS_HELP};
use mosaic_core::sim::attrib::{render, run_attrib, AttribConfig};
use mosaic_core::sim::pressure::ResilienceConfig;
use mosaic_obs::{ObsHandle, Value};

const USAGE: &str = "\
attrib [--buckets N] [--entries N] [--load PCT] [--seed S] [--fault-ppm P]
       [--jobs N] [--obs-out F] [--obs-interval R] [--obs-format jsonl|trace]

Regenerates the miss-attribution report: 3C classification of every TLB
design's misses (conflict misses removed by Mosaic-k vs vanilla over the
same trace), the memory-fault taxonomy, and the per-tenant blame table.
Defaults: --buckets 16 (1024 frames), --entries 1056, --load 105,
--fault-ppm 0. Output is byte-identical at any --jobs value.";

fn main() {
    let args = Args::from_env();
    args.maybe_help(&format!("{USAGE}\n{JOBS_HELP}"));

    let mut cfg = AttribConfig::paper();
    cfg.mem_buckets = args.get_u64("buckets", cfg.mem_buckets as u64) as usize;
    cfg.tlb_entries = args.get_u64("entries", cfg.tlb_entries as u64) as usize;
    cfg.load_pct = args.get_u64("load", cfg.load_pct);
    cfg.seed = args.get_u64("seed", cfg.seed);
    let fault_ppm = args.get_u64("fault-ppm", 0) as u32;

    let sink = ObsSink::from_args(&args, "attrib");
    let mut opts = run_opts(&args, &sink, None);
    // The memory cells' injectors have always been seeded with the run
    // seed itself, not the `seed ^ 0xFA17` of the other sweep binaries.
    opts.faults = ResilienceConfig::from_ppm(fault_ppm, cfg.seed);
    // This binary renders attribution to stdout, so the tables are
    // collected even without --obs-out / --attrib: fall back to a
    // private enabled handle when the sink is a no-op.
    if !sink.is_enabled() {
        opts.obs = ObsHandle::enabled();
    }
    opts.obs.set_attrib(true);
    opts.obs.meta(&[
        ("buckets", Value::from(cfg.mem_buckets as u64)),
        ("entries", Value::from(cfg.tlb_entries as u64)),
        ("load_pct", Value::from(cfg.load_pct)),
        ("seed", Value::from(cfg.seed)),
        ("fault_ppm", Value::from(u64::from(fault_ppm))),
    ]);

    eprintln!(
        "[attrib] {} frames at {} % load, {} TLB entries, {} thread(s) ...",
        cfg.num_frames(),
        cfg.load_pct,
        cfg.tlb_entries,
        opts.jobs
    );
    let report = run_attrib(&cfg, &opts);
    print!("{}", render(&report));
    sink.finish();
}
