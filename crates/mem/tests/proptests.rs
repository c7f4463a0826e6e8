//! Property tests for the memory managers: conservation laws that must
//! hold for every manager under every access pattern, and model-based
//! checks of the LRU index.

use mosaic_mem::clock::ClockMemory;
use mosaic_mem::lru::LruIndex;
use mosaic_mem::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

fn drive(manager: &mut dyn MemoryManager, pattern: &[u64]) {
    let mut now = 0;
    for &p in pattern {
        now += 1;
        let kind = if p % 3 == 0 {
            AccessKind::Load
        } else {
            AccessKind::Store
        };
        manager.access(PageKey::new(Asid::new(1), Vpn::new(p)), kind, now);
    }
}

fn check_conservation(manager: &dyn MemoryManager, pattern: &[u64]) -> Result<(), TestCaseError> {
    let s = manager.stats();
    // Residency bounded by physical frames.
    prop_assert!(manager.resident_frames() <= manager.num_frames());
    // Accesses all accounted for.
    prop_assert_eq!(s.accesses, pattern.len() as u64);
    // Swap-ins never exceed swap-outs plus clean re-reads of swap copies:
    // a page must reach the swap device before it can be read back.
    prop_assert!(s.swapped_in <= s.swapped_out + s.clean_drops);
    // Faults + hits = accesses.
    prop_assert!(s.faults() <= s.accesses);
    // Every touched page is resident or reclaimable, never lost: spot
    // check that re-access works for the most recent pages.
    Ok(())
}

/// The reference model of `LruIndex`: `(timestamp, touch tick) -> key`
/// plus the key's current position.
type LruModel = (BTreeMap<(u64, u64), u32>, HashMap<u32, (u64, u64)>);

/// Full-state oracle: `lru` iterates exactly the model's order, reports
/// every key's model timestamp (absent keys included), and passes its own
/// structural check.
fn assert_lru_matches(
    lru: &LruIndex<u32>,
    model: &BTreeMap<(u64, u64), u32>,
    pos: &HashMap<u32, (u64, u64)>,
    keys: std::ops::Range<u32>,
) -> Result<(), TestCaseError> {
    let want: Vec<(u32, u64)> = model.iter().map(|(&(t, _), &k)| (k, t)).collect();
    let got: Vec<(u32, u64)> = lru.iter_oldest().collect();
    prop_assert_eq!(got, want);
    for k in keys {
        prop_assert_eq!(lru.timestamp(&k), pos.get(&k).map(|p| p.0), "key {}", k);
    }
    if let Err(e) = lru.check() {
        prop_assert!(false, "structure broken: {e}");
    }
    Ok(())
}

/// One step of the mostly-in-order LRU workload.
#[derive(Debug, Clone)]
enum LruOp {
    /// Advance the clock by `d` (0 makes a tie) and touch at the new time.
    Forward(u32, u64),
    /// Touch `back` ticks before the clock without advancing it.
    BackDated(u32, u64),
    Remove(u32),
    Pop,
}

/// Mostly non-decreasing touches, with rare back-dated ones and frequent
/// ties, so both the append path and the walk-back path run.
fn lru_ops() -> impl Strategy<Value = Vec<LruOp>> {
    // Out of 38: 30 in-order touches, 2 back-dated, 3 removes, 3 pops.
    let op = (0u8..38, 0u32..64, 0u64..40).prop_map(|(sel, k, n)| match sel {
        0..=29 => LruOp::Forward(k, n % 3),
        30..=31 => LruOp::BackDated(k, n),
        32..=34 => LruOp::Remove(k),
        _ => LruOp::Pop,
    });
    prop::collection::vec(op, 1..500)
}

/// One step driven against `LinuxMemory`.
#[derive(Debug, Clone)]
enum LinuxOp {
    Access(u16, u64, bool),
    Release(u16),
    SetQuota(u16, usize, u8),
}

fn linux_ops() -> impl Strategy<Value = Vec<LinuxOp>> {
    // Out of 43: 40 accesses, 1 exit, 2 quota changes.
    let op = (0u8..43, 1u16..4, 0u64..220, 0u8..6).prop_map(|(sel, a, v, x)| match sel {
        0..=39 => LinuxOp::Access(a, v, x % 2 == 1),
        40 => LinuxOp::Release(a),
        _ => LinuxOp::SetQuota(a, v as usize % 160, x % 3),
    });
    prop::collection::vec(op, 1..600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation laws hold for all three managers on arbitrary streams.
    #[test]
    fn managers_conserve(pattern in prop::collection::vec(0u64..1500, 1..3000)) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8)); // 512 frames
        let mut mosaic = MosaicMemory::new(layout, 1);
        let mut linux = LinuxMemory::new(layout);
        let mut clock = ClockMemory::new(layout);
        for m in [&mut mosaic as &mut dyn MemoryManager, &mut linux, &mut clock] {
            drive(m, &pattern);
            check_conservation(m, &pattern)?;
        }
    }

    /// Re-accessing a page right after touching it is always a hit (or
    /// ghost hit), for every manager and pattern.
    #[test]
    fn immediate_reaccess_hits(pattern in prop::collection::vec(0u64..1000, 1..500)) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let mut mosaic = MosaicMemory::new(layout, 2);
        let mut now = 0;
        for &p in &pattern {
            let key = PageKey::new(Asid::new(1), Vpn::new(p));
            now += 1;
            mosaic.access(key, AccessKind::Store, now);
            now += 1;
            let out = mosaic.access(key, AccessKind::Load, now);
            prop_assert!(matches!(out, AccessOutcome::Hit | AccessOutcome::GhostHit));
        }
    }

    /// Data integrity across swap cycles: a page evicted dirty and
    /// re-faulted must be a major fault (its contents came from swap),
    /// never a silent zero-fill.
    #[test]
    fn dirty_pages_round_trip_through_swap(extra in 1u64..300, seed in any::<u64>()) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let frames = layout.num_frames() as u64;
        let mut mosaic = MosaicMemory::new(layout, seed);
        let mut now = 0;
        // Write all pages, then stream far past capacity.
        for p in 0..frames + extra {
            now += 1;
            mosaic.access(PageKey::new(Asid::new(1), Vpn::new(p)), AccessKind::Store, now);
        }
        // Page 0 was written; it is either still resident or on swap. Its
        // re-access must be Hit/GhostHit/MajorFault — never MinorFault.
        now += 1;
        let out = mosaic.access(PageKey::new(Asid::new(1), Vpn::new(0)), AccessKind::Load, now);
        prop_assert!(
            !matches!(out, AccessOutcome::MinorFault),
            "dirty page lost: {:?}", out
        );
    }

    /// LruIndex agrees with an ordered reference model.
    #[test]
    fn lru_index_matches_model(ops in prop::collection::vec((0u32..50, 1u64..1000, any::<bool>()), 1..300)) {
        let mut lru: LruIndex<u32> = LruIndex::new();
        let mut model: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        let mut pos: std::collections::HashMap<u32, (u64, u64)> = std::collections::HashMap::new();
        let mut tick = 0u64;
        for (key, ts, remove) in ops {
            if remove {
                let expect = pos.remove(&key).map(|p| {
                    model.remove(&p);
                    p.0
                });
                prop_assert_eq!(lru.remove(&key), expect);
            } else {
                tick += 1;
                if let Some(p) = pos.remove(&key) {
                    model.remove(&p);
                }
                model.insert((ts, tick), key);
                pos.insert(key, (ts, tick));
                lru.touch(key, ts);
            }
            prop_assert_eq!(lru.len(), model.len());
            prop_assert_eq!(
                lru.peek_oldest(),
                model.iter().next().map(|(&(t, _), &k)| (k, t))
            );
            assert_lru_matches(&lru, &model, &pos, 0..50)?;
        }
    }

    /// LruIndex drains via pop_oldest in exactly the reference model's
    /// order, including timestamp ties (the tiny ts range forces many),
    /// interleaved with touches and removes.
    #[test]
    fn lru_index_pop_oldest_matches_model(
        ops in prop::collection::vec((0u32..20, 1u64..8, 0u8..4), 1..300)
    ) {
        let mut lru: LruIndex<u32> = LruIndex::new();
        let mut model: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        let mut pos: std::collections::HashMap<u32, (u64, u64)> = std::collections::HashMap::new();
        let mut tick = 0u64;
        for (key, ts, action) in ops {
            match action {
                // pop_oldest: both sides must surrender the same entry.
                0 => {
                    let expect = model.iter().next().map(|(&(t, _), &k)| (k, t));
                    if let Some((k, _)) = expect {
                        let p = pos.remove(&k).expect("model desync");
                        model.remove(&p);
                    }
                    prop_assert_eq!(lru.pop_oldest(), expect);
                }
                1 => {
                    let expect = pos.remove(&key).map(|p| {
                        model.remove(&p);
                        p.0
                    });
                    prop_assert_eq!(lru.remove(&key), expect);
                }
                _ => {
                    tick += 1;
                    if let Some(p) = pos.remove(&key) {
                        model.remove(&p);
                    }
                    model.insert((ts, tick), key);
                    pos.insert(key, (ts, tick));
                    lru.touch(key, ts);
                }
            }
            prop_assert_eq!(lru.len(), model.len());
            assert_lru_matches(&lru, &model, &pos, 0..20)?;
        }
        // Drain the remainder: full eviction order must agree.
        while let Some(popped) = lru.pop_oldest() {
            let expect = model.iter().next().map(|(&(t, _), &k)| (k, t));
            if let Some((k, _)) = expect {
                let p = pos.remove(&k).expect("model desync");
                model.remove(&p);
            }
            prop_assert_eq!(Some(popped), expect);
        }
        prop_assert!(model.is_empty());
    }

    /// LruIndex agrees with the reference model, state for state, on the
    /// access pattern real callers produce: a non-decreasing clock with
    /// ties, plus rare back-dated touches that take the walk-back path.
    #[test]
    fn lru_index_mostly_in_order_matches_model(ops in lru_ops()) {
        let mut lru: LruIndex<u32> = LruIndex::new();
        let (mut model, mut pos): LruModel = Default::default();
        let (mut clock, mut tick) = (0u64, 0u64);
        for op in ops {
            let touch = match op {
                LruOp::Forward(k, d) => {
                    clock += d;
                    Some((k, clock))
                }
                LruOp::BackDated(k, b) => Some((k, clock.saturating_sub(b))),
                LruOp::Remove(k) => {
                    let expect = pos.remove(&k).map(|p| {
                        model.remove(&p);
                        p.0
                    });
                    prop_assert_eq!(lru.remove(&k), expect);
                    None
                }
                LruOp::Pop => {
                    let expect = model.pop_first().map(|((t, _), k)| {
                        pos.remove(&k);
                        (k, t)
                    });
                    prop_assert_eq!(lru.pop_oldest(), expect);
                    None
                }
            };
            if let Some((k, ts)) = touch {
                tick += 1;
                if let Some(p) = pos.insert(k, (ts, tick)) {
                    model.remove(&p);
                }
                model.insert((ts, tick), k);
                lru.touch(k, ts);
            }
            prop_assert_eq!(lru.len(), model.len());
            prop_assert_eq!(
                lru.peek_oldest(),
                model.first_key_value().map(|(&(t, _), &k)| (k, t))
            );
            assert_lru_matches(&lru, &model, &pos, 0..64)?;
        }
    }

    /// `LinuxMemory` keeps every structural invariant — its exact-LRU
    /// index's links and timestamps included — after every step of
    /// generated access, exit and quota sequences, with quotas on and off.
    #[test]
    fn linux_verify_holds_after_every_step(ops in linux_ops(), quotas_on in any::<bool>()) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8)); // 512 frames
        let mut mm = LinuxMemory::new(layout);
        let mut now = 0u64;
        for op in ops {
            match op {
                LinuxOp::Access(asid, vpn, write) => {
                    now += 1;
                    let kind = if write { AccessKind::Store } else { AccessKind::Load };
                    match mm.try_access(PageKey::new(Asid::new(asid), Vpn::new(vpn)), kind, now) {
                        Ok(_) | Err(MosaicError::QuotaExceeded { .. }) => {}
                        Err(e) => prop_assert!(false, "unexpected error: {e}"),
                    }
                }
                LinuxOp::Release(asid) => {
                    mm.release_asid(Asid::new(asid));
                }
                LinuxOp::SetQuota(asid, frames, priority) => {
                    if quotas_on {
                        mm.set_quota(Asid::new(asid), TenantQuota { frames, priority });
                    }
                }
            }
            if let Err(e) = mm.verify() {
                prop_assert!(false, "after {:?}: {e}", op);
            }
            prop_assert_eq!(mm.resident_frames() + mm.free_frames(), mm.num_frames());
        }
    }

    /// Per-tenant quota caps hold after every operation, for both
    /// managers, across arbitrary interleavings of accesses (loads and
    /// stores), tenant exits, and respawns. The census is independent:
    /// we probe residency per touched key rather than trusting the
    /// manager's own accounting (which `verify()` cross-checks anyway).
    #[test]
    fn quota_caps_hold_under_arbitrary_interleavings(
        ops in prop::collection::vec((0usize..3, 0u64..64, 0u8..16), 1..400),
        seed in any::<u64>(),
    ) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8)); // 512 frames
        let quotas = [5usize, 8, 12];
        let mut mosaic = MosaicMemory::new(layout, seed);
        let mut linux = LinuxMemory::new(layout);
        for m in [&mut mosaic as &mut dyn MemoryManager, &mut linux] {
            let mut touched: Vec<std::collections::HashSet<u64>> =
                vec![std::collections::HashSet::new(); 3];
            for (t, q) in quotas.iter().enumerate() {
                m.set_quota(Asid::new(t as u16 + 1), TenantQuota { frames: *q, priority: t as u8 });
            }
            let mut now = 0u64;
            for &(tenant, vpn, action) in &ops {
                let asid = Asid::new(tenant as u16 + 1);
                if action == 0 {
                    // Exit: every frame comes back, then the slot
                    // respawns under the same quota.
                    m.release_asid(asid);
                    touched[tenant].clear();
                    m.set_quota(asid, TenantQuota {
                        frames: quotas[tenant],
                        priority: tenant as u8,
                    });
                } else {
                    now += 1;
                    let kind = if action % 2 == 0 { AccessKind::Load } else { AccessKind::Store };
                    // Deferred admissions (QuotaExceeded) are fine; any
                    // other error would be a bug in a fault-free run.
                    match m.try_access(PageKey::new(asid, Vpn::new(vpn)), kind, now) {
                        Ok(_) => { touched[tenant].insert(vpn); }
                        Err(MosaicError::QuotaExceeded { .. }) => {}
                        Err(e) => prop_assert!(false, "unexpected error: {e}"),
                    }
                }
                // The cap is a hard invariant at every step: recount
                // residency from outside.
                for (t, pages) in touched.iter().enumerate() {
                    let asid = Asid::new(t as u16 + 1);
                    let resident = pages
                        .iter()
                        .filter(|&&v| m.resident_pfn(PageKey::new(asid, Vpn::new(v))).is_some())
                        .count();
                    prop_assert!(
                        resident <= quotas[t],
                        "tenant {t} holds {resident} frames against a quota of {}",
                        quotas[t]
                    );
                }
            }
            m.verify().expect("structural invariants hold");
            let qs = m.quota_stats();
            prop_assert_eq!(
                qs.admissions_deferred > 0,
                qs.backoff_ticks > 0,
                "deferral and backoff counters move together: {:?}", qs
            );
        }
    }

    /// Ghost accounting: ghost count plus live count equals residency.
    #[test]
    fn ghosts_partition_residency(pattern in prop::collection::vec(0u64..800, 500..2000)) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8)); // 512 frames
        let mut mosaic = MosaicMemory::new(layout, 7);
        drive(&mut mosaic, &pattern);
        let ghosts = mosaic.ghost_count();
        prop_assert!(ghosts <= mosaic.resident_frames());
    }
}
