//! Equivalence and ordering properties across the TLB design space.

use mosaic_core::prelude::*;
use mosaic_core::sim::fig6::{run_workload, Fig6Config, TlbKind};
use mosaic_core::sim::RunOpts;
use mosaic_core::workloads::standard_suite;

fn quick_cfg(arities: &[usize]) -> Fig6Config {
    Fig6Config {
        tlb_entries: 128,
        associativities: vec![
            Associativity::Ways(1),
            Associativity::Ways(2),
            Associativity::Ways(8),
            Associativity::Full,
        ],
        arities: arities.iter().map(|&a| Arity::new(a)).collect(),
        kernel: None,
        seed: 17,
        batch: mosaic_core::sim::fig6::DEFAULT_BATCH,
    }
}

#[test]
fn arity_one_mosaic_equals_vanilla_everywhere() {
    // With no kernel model, an arity-1 mosaic TLB is semantically a
    // vanilla TLB: same indexing, same LRU, one page per entry. Misses
    // must match exactly for every workload and associativity.
    let cfg = quick_cfg(&[1]);
    for mut w in standard_suite(0, 5) {
        let rows = run_workload(&cfg, w.as_mut(), &RunOpts::default());
        for assoc in &cfg.associativities {
            let vanilla = rows
                .iter()
                .find(|r| r.assoc == *assoc && r.kind == TlbKind::Vanilla)
                .unwrap();
            let mosaic1 = rows
                .iter()
                .find(|r| r.assoc == *assoc && r.kind == TlbKind::Mosaic(Arity::new(1)))
                .unwrap();
            assert_eq!(
                vanilla.misses(),
                mosaic1.misses(),
                "{} at {assoc}: vanilla vs mosaic-1",
                vanilla.workload
            );
        }
    }
}

#[test]
fn associativity_never_hurts_at_full() {
    // Full associativity removes conflict misses: for every design, the
    // fully-associative count is within noise of the best in its row.
    let cfg = quick_cfg(&[4]);
    for mut w in standard_suite(0, 6) {
        let rows = run_workload(&cfg, w.as_mut(), &RunOpts::default());
        for kind in [TlbKind::Vanilla, TlbKind::Mosaic(Arity::new(4))] {
            let direct = rows
                .iter()
                .find(|r| r.assoc == Associativity::Ways(1) && r.kind == kind)
                .unwrap()
                .misses();
            let full = rows
                .iter()
                .find(|r| r.assoc == Associativity::Full && r.kind == kind)
                .unwrap()
                .misses();
            assert!(
                full <= direct + direct / 20,
                "{}: full ({full}) worse than direct ({direct}) for {kind:?}",
                rows[0].workload
            );
        }
    }
}

#[test]
fn locality_workloads_improve_with_arity() {
    // The paper's arity sweep: for Graph500/BTree/XSBench (virtual
    // locality), larger ToCs reduce misses at 8-way associativity.
    // A 32-entry TLB keeps even Mosaic-4's reach below the footprints, so
    // capacity misses (not just cold misses) are in play.
    let mut cfg = quick_cfg(&[4, 16, 64]);
    cfg.tlb_entries = 32;
    for mut w in standard_suite(0, 7) {
        let name = w.meta().name;
        if name == "GUPS" {
            continue; // random accesses: arity does not monotonically help
        }
        let rows = run_workload(&cfg, w.as_mut(), &RunOpts::default());
        let miss = |a: usize| {
            rows.iter()
                .find(|r| {
                    r.assoc == Associativity::Ways(8) && r.kind == TlbKind::Mosaic(Arity::new(a))
                })
                .unwrap()
                .misses()
        };
        let (m4, m16, m64) = (miss(4), miss(16), miss(64));
        assert!(
            m16 <= m4 + m4 / 10,
            "{name}: Mosaic-16 ({m16}) much worse than Mosaic-4 ({m4})"
        );
        assert!(
            m64 <= m16 + m16 / 10,
            "{name}: Mosaic-64 ({m64}) much worse than Mosaic-16 ({m16})"
        );
        assert!(
            m64 < m4,
            "{name}: the largest arity should win outright ({m64} vs {m4})"
        );
    }
}

#[test]
fn mosaic_beats_vanilla_on_locality_workloads() {
    // The §4.1 headline at the paper's nearest-to-hardware point (8-way):
    // Mosaic-4 reduces misses on every locality workload.
    let cfg = quick_cfg(&[4]);
    for mut w in standard_suite(0, 8) {
        let name = w.meta().name;
        if name == "GUPS" {
            continue;
        }
        let rows = run_workload(&cfg, w.as_mut(), &RunOpts::default());
        let red = mosaic_core::sim::fig6::reduction_percent(
            &rows,
            Associativity::Ways(8),
            Arity::new(4),
        )
        .unwrap();
        assert!(red > 0.0, "{name}: Mosaic-4 reduction {red:.1}% not positive");
    }
}

#[test]
fn mosaic_is_insensitive_to_associativity() {
    // §4.1: "the performance of Mosaic is not significantly impacted by
    // TLB associativity" (beyond direct-mapped). Compare 2-way vs full.
    let cfg = quick_cfg(&[8]);
    for mut w in standard_suite(0, 9) {
        let name = w.meta().name;
        let rows = run_workload(&cfg, w.as_mut(), &RunOpts::default());
        let at = |assoc| {
            rows.iter()
                .find(|r| r.assoc == assoc && r.kind == TlbKind::Mosaic(Arity::new(8)))
                .unwrap()
                .misses() as f64
        };
        let two = at(Associativity::Ways(2));
        let full = at(Associativity::Full);
        assert!(
            two <= full * 1.6 + 50.0,
            "{name}: mosaic-8 2-way ({two}) >> full ({full})"
        );
    }
}
