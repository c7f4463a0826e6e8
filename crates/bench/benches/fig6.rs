//! Criterion bench for the Figure 6 pipeline: end-to-end dual-TLB
//! simulation of each workload at smoke scale. (The full-figure numbers
//! come from the `fig6` binary; this measures the harness itself and
//! asserts the figure's qualitative shape on every run.)

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mosaic_core::mmu::{Arity, Associativity};
use mosaic_core::sim::fig6::{run_workload, Fig6Config, TlbKind};
use mosaic_core::sim::RunOpts;
use mosaic_core::workloads::standard_suite;

fn config() -> Fig6Config {
    Fig6Config {
        tlb_entries: 128,
        associativities: vec![Associativity::Ways(8)],
        arities: vec![Arity::new(4), Arity::new(8)],
        kernel: None,
        seed: 11,
        batch: mosaic_core::sim::fig6::DEFAULT_BATCH,
    }
}

fn bench_fig6_per_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_pipeline");
    g.sample_size(10);
    for idx in 0..4 {
        let name = standard_suite(0, 1)[idx].meta().name;
        g.bench_with_input(BenchmarkId::new("run", name), &idx, |b, &idx| {
            b.iter(|| {
                let mut w = standard_suite(0, 1).remove(idx);
                let rows = run_workload(&config(), w.as_mut(), &RunOpts::default());
                // Shape assertion: mosaic-8 never misses more than
                // mosaic-4 beyond noise on the locality workloads.
                if name != "GUPS" {
                    let m4 = rows
                        .iter()
                        .find(|r| r.kind == TlbKind::Mosaic(Arity::new(4)))
                        .unwrap()
                        .misses();
                    let m8 = rows
                        .iter()
                        .find(|r| r.kind == TlbKind::Mosaic(Arity::new(8)))
                        .unwrap()
                        .misses();
                    assert!(m8 <= m4 + m4 / 4, "{name}: arity 8 ({m8}) >> arity 4 ({m4})");
                }
                black_box(rows)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fig6_per_workload);
criterion_main!(benches);
