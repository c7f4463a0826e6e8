//! Shared plumbing for the experiment-regenerator binaries.
//!
//! Each binary reproduces one paper artifact:
//!
//! | Binary | Paper artifact | Usage |
//! |--------|----------------|-------|
//! | `fig6` | Figure 6 (TLB misses) | `fig6 [graph500\|btree\|gups\|xsbench\|all] [--scale N] [--entries N]` |
//! | `table2` | Table 2 (workloads) | `table2 [--scale N]` |
//! | `table3` | Table 3 (utilization) | `table3 [--buckets N]` |
//! | `table4` | Table 4 (swap I/O) | `table4 [--buckets N]` |
//! | `table5` | Table 5 + §4.4 (hardware) | `table5` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod obs;
pub mod obs_report;

use mosaic_core::sim::pressure::ResilienceConfig;
use mosaic_core::sim::RunOpts;

/// A malformed command-line flag, reported instead of a panic so the
/// binaries can print a usage-style diagnostic and exit with a status
/// code rather than a backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A flag that expects a number got something else.
    NotANumber {
        /// Flag name, without the leading `--`.
        flag: String,
        /// The value that failed to parse.
        value: String,
    },
    /// `--jobs 0` — there is no such thing as a zero-thread sweep.
    ZeroJobs,
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::NotANumber { flag, value } => {
                write!(f, "--{flag} expects a number, got {value:?}")
            }
            ArgsError::ZeroJobs => {
                write!(f, "--jobs must be at least 1 (use 1 for the serial engine)")
            }
        }
    }
}

impl std::error::Error for ArgsError {}

/// The shared `--jobs` paragraph appended to every binary's `--help`.
pub const JOBS_HELP: &str = "\
  --jobs N      Worker threads for the sweep (default 1). The grid is split
                into independent cells, each replaying a shared recorded
                trace; results and observability are merged back in serial
                order, so output bytes are identical at every N.
  --help        Print this help and exit.";

/// The [`RunOpts`] a sweep binary runs under: `--jobs` (a bad value
/// exits 2), the sink's handle and `--obs-interval`, and — for binaries
/// that take `--fault-ppm` and pass their run `seed` — the
/// [`ResilienceConfig::from_ppm`] plan at that rate, with injector
/// seed `seed ^ 0xFA17`. Without `seed` the run is fault-free.
pub fn run_opts(args: &Args, sink: &obs::ObsSink, seed: Option<u64>) -> RunOpts {
    let faults = seed.map_or_else(ResilienceConfig::none, |seed| {
        ResilienceConfig::from_ppm(args.get_u64("fault-ppm", 0) as u32, seed ^ 0xFA17)
    });
    RunOpts {
        faults,
        obs: sink.handle().clone(),
        obs_interval: sink.interval(),
        jobs: args.jobs_or_exit(),
    }
}

/// A minimal flag parser: `--name value` pairs plus positional arguments.
///
/// # Example
///
/// ```
/// use mosaic_bench::Args;
///
/// let a = Args::parse(["prog", "btree", "--scale", "2"].iter().map(|s| s.to_string()));
/// assert_eq!(a.positional(), ["btree"]);
/// assert_eq!(a.get_u64("scale", 1), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses an iterator of arguments (the first is skipped as `argv[0]`).
    pub fn parse(mut args: impl Iterator<Item = String>) -> Self {
        let _argv0 = args.next();
        let mut out = Args::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            if let Some(name) = a.strip_prefix("--") {
                // A following `--token` is the next flag, not this one's
                // value, so boolean flags compose in any position
                // (`--no-kernel --obs-out F`).
                let value = match args.peek() {
                    Some(next) if !next.starts_with("--") => args.next().unwrap_or_default(),
                    _ => String::new(),
                };
                out.flags.push((name.to_string(), value));
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// Parses the real process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args())
    }

    /// Positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The value of `--name` as a `u64`, or `default`.
    ///
    /// # Panics
    ///
    /// Panics if the flag is present but not a number.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map_or(default, |(_, v)| {
                v.parse().unwrap_or_else(|_| panic!("--{name} expects a number, got {v:?}"))
            })
    }

    /// The value of `--name` as a `u64`, or `default` — with a typed
    /// error instead of a panic when the value is not a number.
    ///
    /// # Errors
    ///
    /// [`ArgsError::NotANumber`] if the flag is present but malformed.
    pub fn try_get_u64(&self, name: &str, default: u64) -> Result<u64, ArgsError> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map_or(Ok(default), |(_, v)| {
                v.parse().map_err(|_| ArgsError::NotANumber {
                    flag: name.to_string(),
                    value: v.clone(),
                })
            })
    }

    /// The validated `--jobs` value (default 1).
    ///
    /// # Errors
    ///
    /// [`ArgsError::NotANumber`] for non-numeric values and
    /// [`ArgsError::ZeroJobs`] for `--jobs 0`.
    pub fn jobs(&self) -> Result<usize, ArgsError> {
        match self.try_get_u64("jobs", 1)? {
            0 => Err(ArgsError::ZeroJobs),
            n => Ok(n as usize),
        }
    }

    /// [`Args::jobs`] for binaries: prints the error and exits 2.
    pub fn jobs_or_exit(&self) -> usize {
        self.jobs().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Prints `usage` and exits 0 when `--help` was passed; otherwise
    /// does nothing. Parallel binaries append [`JOBS_HELP`] to their
    /// usage text; serial ones state that they run single-threaded.
    pub fn maybe_help(&self, usage: &str) {
        if self.has("help") {
            println!("{usage}");
            std::process::exit(0);
        }
    }

    /// The value of `--name` as a string, if the flag was passed.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `--name` was passed at all.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Args {
        Args::parse(items.iter().map(|s| s.to_string()))
    }

    #[test]
    fn positional_and_flags() {
        let a = parse(&["bin", "all", "--scale", "3", "--entries", "512"]);
        assert_eq!(a.positional(), ["all"]);
        assert_eq!(a.get_u64("scale", 1), 3);
        assert_eq!(a.get_u64("entries", 1024), 512);
        assert_eq!(a.get_u64("missing", 7), 7);
    }

    #[test]
    fn has_flag() {
        let a = parse(&["bin", "--csv", ""]);
        assert!(a.has("csv"));
        assert!(!a.has("json"));
    }

    #[test]
    #[should_panic(expected = "expects a number")]
    fn non_numeric_flag_panics() {
        parse(&["bin", "--scale", "abc"]).get_u64("scale", 0);
    }

    #[test]
    fn last_flag_wins() {
        let a = parse(&["bin", "--n", "1", "--n", "2"]);
        assert_eq!(a.get_u64("n", 0), 2);
    }

    #[test]
    fn jobs_defaults_to_one() {
        assert_eq!(parse(&["bin"]).jobs(), Ok(1));
    }

    #[test]
    fn jobs_parses_a_count() {
        assert_eq!(parse(&["bin", "--jobs", "8"]).jobs(), Ok(8));
    }

    #[test]
    fn jobs_rejects_zero_with_typed_error() {
        assert_eq!(parse(&["bin", "--jobs", "0"]).jobs(), Err(ArgsError::ZeroJobs));
    }

    #[test]
    fn jobs_rejects_non_numeric_with_typed_error() {
        let err = parse(&["bin", "--jobs", "many"]).jobs().unwrap_err();
        assert_eq!(
            err,
            ArgsError::NotANumber {
                flag: "jobs".into(),
                value: "many".into(),
            }
        );
        assert!(err.to_string().contains("expects a number"));
    }

    #[test]
    fn try_get_u64_returns_error_not_panic() {
        let a = parse(&["bin", "--scale", "abc"]);
        assert!(a.try_get_u64("scale", 0).is_err());
        assert_eq!(a.try_get_u64("missing", 7), Ok(7));
    }

    #[test]
    fn boolean_flag_does_not_swallow_next_flag() {
        let a = parse(&["bin", "--no-kernel", "--obs-out", "run.jsonl", "--csv"]);
        assert!(a.has("no-kernel"));
        assert!(a.has("csv"));
        assert_eq!(a.get_str("obs-out"), Some("run.jsonl"));
    }
}
