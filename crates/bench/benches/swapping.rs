//! Criterion benches for the memory managers behind Tables 3 and 4:
//! per-access cost of the Mosaic (Iceberg + Horizon LRU) and Linux-like
//! (free list + LRU reclaim) managers, under and over memory pressure.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mosaic_core::hash::SplitMix64;
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

criterion_group!(benches, bench_manager_access, bench_pressure_row);
criterion_main!(benches);
