//! The host manifest printed with every result, and the memory
//! high-water mark.

use std::process::Command;

/// Facts about the machine and build that a measurement depends on.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    pub profile: String,
}

impl Manifest {
    pub fn collect() -> Self {
        Manifest {
            nproc: nproc(),
            cpu_model: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            git_rev: git_rev(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
        }
    }

    /// `(key, value)` pairs in print order.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("cpu_model", self.cpu_model.clone()),
            ("rustc", self.rustc.clone()),
            ("git_rev", self.git_rev.clone()),
            ("build_profile", self.profile.clone()),
        ]
    }
}

/// Worker threads the benchmark may use: the host's available
/// parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
