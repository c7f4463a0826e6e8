//! Criterion benches for the memory managers behind Tables 3 and 4:
//! per-access cost of the Mosaic (Iceberg + Horizon LRU) and Linux-like
//! (free list + LRU reclaim) managers, under and over memory pressure,
//! and of the exact-LRU index the Linux-like manager reclaims from
//! (`lru_index` rows time [`LRU_OPS`] operations per iteration).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mosaic_core::hash::SplitMix64;
use mosaic_core::mem::lru::LruIndex;
use mosaic_core::mem::{
    AccessKind, Asid, IcebergConfig, LinuxMemory, MemoryLayout, MemoryManager, MosaicMemory,
    PageKey, Vpn,
};
use mosaic_core::sim::pressure::{run_pressure, PressureConfig, PressureWorkload};
use mosaic_core::sim::RunOpts;

fn layout() -> MemoryLayout {
    MemoryLayout::new(IcebergConfig::paper_default(16)) // 1024 frames
}

fn bench_manager_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("manager_access");
    for &(label, ratio) in &[("fits", 0.8f64), ("overcommitted", 1.3)] {
        let pages = (1024.0 * ratio) as u64;
        g.bench_with_input(
            BenchmarkId::new("mosaic", label),
            &pages,
            |b, &pages| {
                let mut mm = MosaicMemory::new(layout(), 1);
                let mut rng = SplitMix64::new(2);
                let mut now = 0u64;
                b.iter(|| {
                    now += 1;
                    let key = PageKey::new(Asid::new(1), Vpn::new(rng.next_below(pages)));
                    black_box(mm.access(key, AccessKind::Store, now))
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("linux", label), &pages, |b, &pages| {
            let mut mm = LinuxMemory::new(layout());
            let mut rng = SplitMix64::new(2);
            let mut now = 0u64;
            b.iter(|| {
                now += 1;
                let key = PageKey::new(Asid::new(1), Vpn::new(rng.next_below(pages)));
                black_box(mm.access(key, AccessKind::Store, now))
            })
        });
    }
    g.finish();
}

/// Operations per timed iteration of the `lru_index` rows: one
/// operation is too short for the harness's clock, so each row's
/// per-iteration time is for this many (divide to get ns per operation).
const LRU_OPS: u64 = 1024;

/// An index over `n` keys of one address space, touched in key order at
/// timestamps `0..n`.
fn filled_lru(n: u64) -> LruIndex<PageKey> {
    let mut lru = LruIndex::new();
    for v in 0..n {
        lru.touch(PageKey::new(Asid::new(1), Vpn::new(v)), v);
    }
    lru
}

fn bench_lru_index(c: &mut Criterion) {
    let mut g = c.benchmark_group("lru_index");
    // In-order timestamps sweeping the keys cyclically: every touch moves
    // the oldest key to the newest end (the reclaim-scan worst case for
    // locality).
    for &n in &[4096u64, 65_536] {
        g.bench_with_input(BenchmarkId::new("touch_in_order", n), &n, |b, &n| {
            let mut lru = filled_lru(n);
            let mut now = n;
            b.iter(|| {
                for _ in 0..LRU_OPS {
                    lru.touch(PageKey::new(Asid::new(1), Vpn::new(now % n)), now);
                    now += 1;
                }
            });
            black_box(lru.len());
        });
    }
    // A hit: a random resident key re-touched at the current time.
    g.bench_function("retouch_resident/4096", |b| {
        let mut lru = filled_lru(4096);
        let mut rng = SplitMix64::new(2);
        let mut now = 4096;
        b.iter(|| {
            for _ in 0..LRU_OPS {
                let key = PageKey::new(Asid::new(1), Vpn::new(rng.next_below(4096)));
                lru.touch(key, now);
                now += 1;
            }
        });
        black_box(lru.len());
    });
    // Steady-state reclaim: evict the oldest key, admit a fresh one.
    g.bench_function("pop_touch_churn/4096", |b| {
        let mut lru = filled_lru(4096);
        let mut now = 4096;
        b.iter(|| {
            for _ in 0..LRU_OPS {
                black_box(lru.pop_oldest());
                lru.touch(PageKey::new(Asid::new(1), Vpn::new(now)), now);
                now += 1;
            }
        });
        black_box(lru.len());
    });
    // The slow path: the oldest key touched at `n - 32`, so each touch
    // walks back past the 31 keys that stay newer than it.
    g.bench_function("back_dated_touch/4096", |b| {
        let mut lru = filled_lru(4096);
        b.iter(|| {
            for _ in 0..LRU_OPS {
                if let Some((key, _)) = lru.peek_oldest() {
                    lru.touch(key, 4096 - 32);
                }
            }
        });
        black_box(lru.len());
    });
    g.finish();
}

fn bench_pressure_row(c: &mut Criterion) {
    // One full Table 4 cell end-to-end (both managers), smoke size.
    let mut g = c.benchmark_group("table4_cell");
    g.sample_size(10);
    g.bench_function("xsbench_ratio_1.14", |b| {
        let cfg = PressureConfig {
            mem_buckets: 16,
            seed: 3,
            batch: mosaic_core::sim::fig6::DEFAULT_BATCH,
        };
        b.iter(|| {
            let (row, _) = run_pressure(PressureWorkload::XsBench, 1.14, &cfg, &RunOpts::default())
                .expect("fault-free pressure run cannot fail");
            // Shape assertion from §4.3: both managers swap once
            // over-committed, and Mosaic's first conflict is late.
            assert!(row.linux_swaps > 0 && row.mosaic_swaps > 0);
            assert!(row.first_conflict_pct.unwrap_or(0.0) > 90.0);
            black_box(row)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_manager_access, bench_lru_index, bench_pressure_row);
criterion_main!(benches);
