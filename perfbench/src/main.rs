//! `perfbench` — the repository benchmark: simulator throughput on four
//! workloads, with per-layer costs timed from outside the program.
//!
//! ```text
//! perfbench --workload <fig6_grid|pressure_swap|tenants_churn|fig6_attrib>
//!           --seed <n> --seconds <s> --trace <0|1> [--size default|tiny]
//!           [--expect-digest <hex>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that times single layers over the workload's own
//! inputs. Every line before the last is for people; the last line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is 0 only when every output check held.

mod digest;
mod host;
mod layers;
mod spans;
mod suite;

use host::Manifest;
use std::fmt::Write as _;
use std::time::Instant;
use suite::{Attrib, Bench, Size};

const USAGE: &str =
    "usage: perfbench --workload <fig6_grid|pressure_swap|tenants_churn|fig6_attrib> \
--seed <n> --seconds <s> --trace <0|1> [--size default|tiny] [--expect-digest <hex>]";

/// The seed whose output digests `expected_digests.json` stores.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Fewest timed repetitions per run, however long they take.
const MIN_REPS: usize = 2;

const EXPECTED: &str = include_str!("../expected_digests.json");

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub bench: Bench,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub expect_digest: Option<u64>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Default;
    let mut expect_digest = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                bench = Some(
                    Bench::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            "--size" => {
                size = Size::parse(&value).ok_or_else(|| format!("unknown size {value:?}"))?
            }
            "--expect-digest" => {
                expect_digest = Some(
                    u64::from_str_radix(&value, 16).map_err(|e| format!("--expect-digest: {e}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        expect_digest,
    })
}

/// The stored digest for `bench`, when the run uses the default seed and
/// size (or the one `--expect-digest` gives).
fn expected_digest(args: &Args) -> Option<u64> {
    if args.expect_digest.is_some() {
        return args.expect_digest;
    }
    if args.seed != DEFAULT_SEED || args.size != Size::Default {
        return None;
    }
    let key = format!("\"{}\"", args.bench.name());
    let rest = &EXPECTED[EXPECTED.find(&key)? + key.len()..];
    let hex = rest.split('"').nth(1)?;
    u64::from_str_radix(hex, 16).ok()
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Metrics that go into the result line.
    pub metrics: Vec<Metric>,
    /// Further labelled lines for people (simulated results, counts).
    pub notes: Vec<String>,
}

/// The digest checks shared by both modes: every repetition's digest
/// must equal the first, and the first must equal the stored one.
pub fn check_digests(args: &Args, digests: &[u64], report: &mut Report) {
    let Some(&first) = digests.first() else {
        report.problems.push("no repetition ran".to_string());
        return;
    };
    if let Some(i) = digests.iter().position(|&d| d != first) {
        report.problems.push(format!(
            "repetition {i} digest {} differs from repetition 0 digest {}",
            digest::hex(digests[i]),
            digest::hex(first)
        ));
    }
    match expected_digest(args) {
        Some(want) if want != first => report.problems.push(format!(
            "output digest {} does not match the expected {}",
            digest::hex(first),
            digest::hex(want)
        )),
        Some(_) => report.notes.push(format!(
            "digest = {} (matches expected)",
            digest::hex(first)
        )),
        None => report.notes.push(format!(
            "digest = {} (no stored expectation for seed {} at size {})",
            digest::hex(first),
            args.seed,
            args.size.name()
        )),
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The end-to-end run: set up several times, then repeat the sweep on
/// one thread for the timed phase. One thread leaves the host's other
/// cores to everything else on it, so a busy neighbour does not stretch
/// a sweep whose cells must all finish; `sim.parallel.speedup` in the
/// traced run measures the program at `nproc` threads.
fn run_timed(args: &Args) -> Report {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(suite::setup(args.bench, args.size, args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut inputs = inputs.expect("at least one set-up ran");

    let mut report = Report::default();
    let mut rates = Vec::new();
    let mut rep_s = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while rates.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let sweep = suite::sweep(&mut inputs, 1, Attrib::AsDefined);
        let secs = t0.elapsed().as_secs_f64();
        rates.push(sweep.refs as f64 / secs);
        rep_s.push(secs);
        digests.push(sweep.digest);
        report.attempted += sweep.refs;
        report.failed += sweep.failed;
        report.problems.extend(sweep.violations.iter().cloned());
        last = Some(sweep);
    }
    let last = last.expect("at least one repetition ran");
    check_digests(args, &digests, &mut report);

    report.metrics = vec![
        // Every reference over every timed second: a repetition lasts
        // seconds, so the whole phase averages over more of the host's
        // slow swings in speed than any single repetition does.
        Metric::new(
            "refs_per_s",
            report.attempted as f64 / rep_s.iter().sum::<f64>(),
            "1/s",
        ),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new(
            "peak_rss_mib",
            host::peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
        ),
    ];
    let (lo, hi) = rates.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
        (lo.min(r), hi.max(r))
    });
    report.notes.push(format!(
        "host: {} repetitions on 1 thread, median {:.3} s each, {} refs each; \
         per repetition refs_per_s min {lo:.4e} median {:.4e} max {hi:.4e}",
        rates.len(),
        median(&rep_s),
        last.refs,
        median(&rates)
    ));
    if !last.cell_s.is_empty() {
        let cells: Vec<String> = last
            .cell_s
            .iter()
            .zip(&last.cell_refs)
            .map(|(s, r)| format!("{s:.3} s/{r} refs"))
            .collect();
        report.notes.push(format!(
            "host: last repetition's cells [{}]",
            cells.join(", ")
        ));
    }
    for s in &last.sim {
        report
            .notes
            .push(format!("simulated {} = {} {}", s.name, s.value, s.unit));
    }
    report
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let manifest = Manifest::collect();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} size={}",
        args.bench.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size.name()
    );
    for (k, v) in manifest.fields() {
        println!("host.{k} = {v}");
    }
    let mut report = if args.trace {
        layers::traced_run(&args, &manifest)
    } else {
        run_timed(&args)
    };
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        report
            .problems
            .push("a metric could not be measured".to_string());
    }
    let failed = if report.problems.is_empty() {
        report.failed
    } else {
        report.attempted.max(1)
    };
    let correct = report.problems.is_empty() && failed == 0;

    for n in &report.notes {
        println!("{n}");
    }
    for p in &report.problems {
        println!("FAILED: {p}");
    }
    println!(
        "failed_frac = {} ratio ({failed} of {} attempted)",
        failed as f64 / report.attempted.max(1) as f64,
        report.attempted
    );
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "fig6_grid",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.bench, Bench::Fig6Grid);
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert_eq!(a.size, Size::Default);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "fig6_grid",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "fig6_grid", "--seed", "1"]).is_err());
    }

    #[test]
    fn every_workload_has_a_stored_digest() {
        for b in Bench::ALL {
            let a = Args {
                bench: b,
                seed: DEFAULT_SEED,
                seconds: 1.0,
                trace: false,
                size: Size::Default,
                expect_digest: None,
            };
            assert!(expected_digest(&a).is_some(), "{}", b.name());
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
