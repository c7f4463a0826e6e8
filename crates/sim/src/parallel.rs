//! Deterministic parallel cell execution for the sweep drivers.
//!
//! A *cell* is one independent unit of a sweep grid — one
//! (associativity × TLB kind) pair of Figure 6, one (workload × ratio)
//! pair of Table 4, one fragmentation level, one hash-function count of
//! Table 5. Cells share only immutable inputs (a recorded
//! [`TraceBuffer`](crate::trace_buffer::TraceBuffer), a frozen OS
//! model), so they can fan out across threads freely.
//!
//! [`run_cells`] is the one execution primitive: it maps a closure over
//! the cells on a rayon pool of `jobs` threads and returns the results
//! **in input order**, so result tables are assembled identically at any
//! `--jobs` value. Determinism therefore reduces to each cell being a
//! pure function of its inputs — which [`derive_seed`] guarantees for
//! cells that need their own randomness, by deriving a per-cell seed
//! from (base seed, cell index) instead of from any shared mutable RNG.
//!
//! [`run_grid`] is the sweep drivers' fan-out on top of it: given one
//! [`RunOpts`], it hands every cell its own options — a fault seed
//! derived from the cell index and a child observability registry —
//! and merges the children back in grid order after the join.

use crate::pressure::ResilienceConfig;
use mosaic_hash::SplitMix64;
use mosaic_obs::ObsHandle;
use rayon::prelude::*;

/// How to run a sweep or one of its cells: the fault plan, where
/// observability goes, and how many worker threads the grid gets.
///
/// Every experiment driver takes `&RunOpts`; the default is a
/// fault-free, unobserved, single-threaded run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Fault plan and injector seed ([`ResilienceConfig::none`] = no
    /// faults). Grid drivers derive each cell's seed from this one.
    pub faults: ResilienceConfig,
    /// Metric/event registry ([`ObsHandle::noop`] = collection off).
    pub obs: ObsHandle,
    /// Snapshot the registry every this many simulated references
    /// (`0` = final snapshots only).
    pub obs_interval: u64,
    /// Worker threads for the grid (`0` = machine parallelism).
    pub jobs: usize,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self {
            faults: ResilienceConfig::none(),
            obs: ObsHandle::noop(),
            obs_interval: 0,
            jobs: 1,
        }
    }
}

impl RunOpts {
    /// The options grid cell `index` runs under (see [`run_grid`]).
    fn cell(&self, index: usize) -> RunOpts {
        let mut faults = self.faults;
        if !faults.plan.is_none() {
            faults.fault_seed = derive_seed(faults.fault_seed, index as u64);
        }
        RunOpts {
            faults,
            obs: self.obs.child(),
            obs_interval: self.obs_interval,
            jobs: 1,
        }
    }
}

/// Derives cell `index`'s private seed from a sweep-wide base seed.
///
/// The derivation is a [`SplitMix64`] output whose state seeds are
/// spread by the golden-ratio increment, so neighboring cell indices
/// get statistically unrelated streams while remaining a pure function
/// of `(base, index)` — the same cell gets the same seed no matter
/// which thread runs it or how many threads exist.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    SplitMix64::new(base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))).next_u64()
}

/// Runs `f` over `cells` on `jobs` threads, returning results in input
/// order.
///
/// `jobs == 1` (or a single cell) short-circuits to a plain in-order
/// serial loop on the calling thread — no pool, no send bounds
/// exercised, and bit-identical to the pre-parallel drivers by
/// construction. `jobs == 0` uses the machine's available parallelism.
pub fn run_cells<T, R, F>(jobs: usize, cells: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if jobs == 1 || cells.len() <= 1 {
        return cells.into_iter().enumerate().map(|(i, c)| f(i, c)).collect();
    }
    let pool = match rayon::ThreadPoolBuilder::new().num_threads(jobs).build() {
        Ok(p) => p,
        // Pool construction cannot fail in the vendored shim; fall back
        // to serial execution rather than aborting the sweep if it ever
        // does with a real rayon.
        Err(_) => {
            return cells.into_iter().enumerate().map(|(i, c)| f(i, c)).collect();
        }
    };
    pool.install(|| {
        cells
            .into_iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(i, c)| f(i, c))
            .collect()
    })
}

/// Runs `f` over a sweep grid on `opts.jobs` threads. Cell `i` gets its
/// own options: under a fault plan a fault seed of
/// `derive_seed(opts.faults.fault_seed, i)` (a fault-free config is
/// passed through untouched), a child of `opts.obs` that keeps its
/// attribution switch, and one thread. After the join every child is
/// merged into `opts.obs` in grid order. Results come back in input
/// order, so both they and the merged stream are identical at any job
/// count.
pub fn run_grid<T, R, F>(opts: &RunOpts, cells: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T, &RunOpts) -> R + Sync,
{
    let outcomes = run_cells(opts.jobs, cells, |i, cell| {
        let cell_opts = opts.cell(i);
        let out = f(cell, &cell_opts);
        (out, cell_opts.obs)
    });
    outcomes
        .into_iter()
        .map(|(out, child)| {
            opts.obs.merge_from(&child);
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order_at_any_job_count() {
        let cells: Vec<u64> = (0..37).collect();
        let expect: Vec<(usize, u64)> = cells.iter().map(|&c| (c as usize, c * 3)).collect();
        for jobs in [1, 2, 8] {
            let got = run_cells(jobs, cells.clone(), |i, c| (i, c * 3));
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn derive_seed_is_pure_and_spreads_indices() {
        assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
        let seeds: std::collections::HashSet<u64> =
            (0..100).map(|i| derive_seed(0xF166, i)).collect();
        assert_eq!(seeds.len(), 100, "collisions across cell indices");
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0), "base seed matters");
    }

    #[test]
    fn zero_jobs_uses_machine_default_and_stays_ordered() {
        let got = run_cells(0, (0..16).collect::<Vec<u64>>(), |_, c| c + 1);
        assert_eq!(got, (1..17).collect::<Vec<u64>>());
    }

    #[test]
    fn single_cell_runs_on_calling_thread() {
        let here = std::thread::current().id();
        let got = run_cells(8, vec![()], |_, ()| std::thread::current().id());
        assert_eq!(got, vec![here]);
    }
}
