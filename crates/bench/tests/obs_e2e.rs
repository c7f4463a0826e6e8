//! End-to-end observability test: a fixed-seed observed pressure run
//! exports a JSONL stream that `obs_report` parses and renders into
//! interval miss-rate and load curves, deterministically.

use mosaic_bench::obs_report::{parse_stream, render_report};
use mosaic_core::sim::pressure::{run_pressure, PressureConfig, PressureWorkload};
use mosaic_core::sim::RunOpts;
use mosaic_obs::ObsHandle;

fn observed_jsonl() -> String {
    let cfg = PressureConfig {
        mem_buckets: 8,
        seed: 0x7AB1E,
        batch: mosaic_core::sim::fig6::DEFAULT_BATCH,
    };
    let opts = RunOpts {
        obs: ObsHandle::enabled(),
        obs_interval: 10_000,
        ..RunOpts::default()
    };
    run_pressure(PressureWorkload::BTree, 1.2, &cfg, &opts)
        .expect("fault-free pressure run cannot fail");
    opts.obs.render_jsonl()
}

/// The exported stream renders into a report with interval fault-rate
/// curves for both managers and a utilization load curve.
#[test]
fn report_renders_interval_and_load_curves() {
    let jsonl = observed_jsonl();
    let stream = parse_stream(&jsonl).expect("export must be parseable");
    assert!(
        stream.snapshots.len() > 2,
        "interval snapshots expected, got {}",
        stream.snapshots.len()
    );
    let report = render_report(&stream);
    assert!(report.contains("interval curve: mosaic"), "{report}");
    assert!(report.contains("interval curve: linux"), "{report}");
    assert!(report.contains("load curve: mosaic.util"), "{report}");
}

/// Export → parse → render is byte-deterministic for a fixed seed.
#[test]
fn report_is_byte_deterministic_across_runs() {
    let (a, b) = (observed_jsonl(), observed_jsonl());
    assert_eq!(a, b, "JSONL must be byte-identical");
    let ra = render_report(&parse_stream(&a).expect("parse a"));
    let rb = render_report(&parse_stream(&b).expect("parse b"));
    assert_eq!(ra, rb);
}

/// Attribution records a sweep binary exports with `--attrib` at a
/// small pool.
fn attrib_records(bin: &str, exe: &str, extra: &[&str]) -> usize {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{bin}-attrib.jsonl"));
    let status = std::process::Command::new(exe)
        .args(["--buckets", "8", "--attrib", "--obs-out"])
        .arg(&out)
        .args(extra)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("binary runs");
    assert!(status.success(), "{bin} failed");
    let jsonl = std::fs::read_to_string(&out).expect("stream written");
    jsonl
        .lines()
        .filter(|l| l.starts_with("{\"t\":\"attrib\""))
        .count()
}

/// Regression: `table3` and `ablation` once handed each grid cell a
/// fresh registry with attribution off, so `--attrib` exported nothing.
#[test]
fn grid_binaries_export_attribution_under_the_flag() {
    let table3 = attrib_records("table3", env!("CARGO_BIN_EXE_table3"), &["--runs", "1"]);
    assert!(table3 > 0, "table3 --attrib exported no attribution record");
    let ablation = attrib_records("ablation", env!("CARGO_BIN_EXE_ablation"), &[]);
    assert!(
        ablation > 0,
        "ablation --attrib exported no attribution record"
    );
}
