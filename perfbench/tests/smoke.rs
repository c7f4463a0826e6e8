//! Smoke test of the benchmark itself, at tiny sizes: every workload
//! prints every metric `BENCHMARK.json` names, with its unit; the traced
//! run's composition check computes; and a wrong expected digest is
//! reported as a failure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["fig6_grid", "pressure_swap", "tenants_churn", "fig6_attrib"];

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

/// The result line: the last line of standard output.
fn result_line(o: &Output) -> String {
    stdout(o).lines().last().unwrap_or_default().to_string()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn contract_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present");
        entry[at..]
            .split('"')
            .nth(3)
            .expect("string value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn assert_prints(o: &Output, metrics: &[(String, String)], workload: &str) {
    let line = result_line(o);
    let out = stdout(o);
    for (name, unit) in metrics {
        let json = format!("\"{name}\": {{\"value\": ");
        assert!(
            line.contains(&json),
            "{workload}: {name} missing from {line}"
        );
        assert!(
            line.contains(&format!("\"unit\": \"{unit}\"")),
            "{workload}: unit {unit} of {name} missing"
        );
        assert!(
            out.lines()
                .any(|l| l.starts_with(&format!("{name} = ")) && l.ends_with(&format!(" {unit}"))),
            "{workload}: no labelled line for {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let metrics = contract_metrics("end_to_end");
    assert!(metrics.iter().any(|(n, _)| n == "setup_s"));
    for w in WORKLOADS {
        let o = run(w, false, &[]);
        assert!(o.status.success(), "{w}: {}", stdout(&o));
        assert!(result_line(&o).starts_with("{\"correct\": true, "), "{w}");
        assert_prints(&o, &metrics, w);
        assert!(
            stdout(&o).contains("simulated "),
            "{w}: no simulated result"
        );
        assert!(
            stdout(&o).contains("host.cpu_model = "),
            "{w}: no host manifest"
        );
    }
}

#[test]
fn traced_run_prints_every_layer_metric_and_composes() {
    let metrics = contract_metrics("per_layer");
    for w in WORKLOADS {
        let o = run(w, true, &[]);
        assert!(o.status.success(), "{w}: {}", stdout(&o));
        assert_prints(&o, &metrics, w);
        let line = result_line(&o);
        let at = line
            .find("\"trace.unaccounted_frac\": {\"value\": ")
            .expect("composition metric");
        let value = line[at..]
            .split(": ")
            .nth(2)
            .expect("value")
            .split(',')
            .next()
            .unwrap();
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{w}: unaccounted {value}"));
        assert!(v.is_finite() && v < 1.0, "{w}: unaccounted fraction {v}");
    }
}

#[test]
fn a_wrong_expected_digest_fails_the_run() {
    let o = run(
        "tenants_churn",
        false,
        &["--expect-digest", "0123456789abcdef"],
    );
    assert!(!o.status.success());
    let line = result_line(&o);
    assert!(line.starts_with("{\"correct\": false, "), "{line}");
    assert!(!line.contains("\"failed\": 0,"), "{line}");
    assert!(stdout(&o).contains("does not match the expected"));
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let o = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!o.status.success());
    assert!(stdout(&o).is_empty());
}
