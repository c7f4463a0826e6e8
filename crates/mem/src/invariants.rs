//! Structural-invariant checks for the memory managers.
//!
//! Fault-injection runs mutate managers along paths that normal runs never
//! take (abandoned allocations, retried I/O, re-walked translations), so the
//! pressure driver periodically calls
//! [`MemoryManager::verify`](crate::manager::MemoryManager::verify), which
//! routes here. Each function checks one named invariant and reports a
//! [`MosaicError::InvariantViolation`] carrying that name, so a failing run
//! says *which* property broke, not just that something did.

use crate::addr::{PageKey, Pfn};
use crate::error::{MosaicError, MosaicResult};
use crate::frame::FrameTable;
use crate::lru::LruIndex;
use crate::quota::QuotaTable;
use std::collections::{HashMap, HashSet};

/// Invariant: the frame table and the residency map describe the same
/// bijection. Every occupied frame is named by exactly one `resident` entry
/// and vice versa, and the occupancy counter agrees with the walk.
pub(crate) fn check_frame_bijection(
    frames: &FrameTable,
    resident: &HashMap<PageKey, Pfn>,
) -> MosaicResult<()> {
    let mut walked = 0usize;
    for (pfn, entry) in frames.iter_resident() {
        walked += 1;
        match resident.get(&entry.key) {
            None => {
                return Err(MosaicError::invariant(
                    "frame-bijection",
                    format!("frame {pfn:?} holds {:?} absent from resident map", entry.key),
                ))
            }
            Some(&mapped) if mapped != pfn => {
                return Err(MosaicError::invariant(
                    "frame-bijection",
                    format!(
                        "frame {pfn:?} holds {:?} but resident map points at {mapped:?}",
                        entry.key
                    ),
                ))
            }
            Some(_) => {}
        }
    }
    if walked != resident.len() {
        return Err(MosaicError::invariant(
            "frame-bijection",
            format!("{walked} occupied frames vs {} resident entries", resident.len()),
        ));
    }
    if walked != frames.resident() {
        return Err(MosaicError::invariant(
            "frame-bijection",
            format!(
                "occupancy counter {} disagrees with walk {walked}",
                frames.resident()
            ),
        ));
    }
    Ok(())
}

/// Invariant: no page is simultaneously resident and swap-only. A resident
/// page *may* additionally have a still-valid swap copy, but that is tracked
/// on the frame entry, never in the swapped set.
pub(crate) fn check_swap_disjoint(
    resident: &HashMap<PageKey, Pfn>,
    swapped: &HashSet<PageKey>,
) -> MosaicResult<()> {
    if let Some(key) = resident.keys().find(|k| swapped.contains(k)) {
        return Err(MosaicError::invariant(
            "swap-disjoint",
            format!("{key:?} is both resident and in the swapped set"),
        ));
    }
    Ok(())
}

/// Invariant: ghost/horizon consistency. The horizon only partitions pages
/// by timestamp; a frame counted live must carry `last_access >= horizon`,
/// and the ghost census from the frame table must match a direct walk.
pub(crate) fn check_ghost_census(frames: &FrameTable, horizon: u64) -> MosaicResult<()> {
    let walked = frames
        .iter_resident()
        .filter(|(_, e)| e.is_ghost(horizon))
        .count();
    let counted = frames.ghost_count(horizon);
    if walked != counted {
        return Err(MosaicError::invariant(
            "ghost-census",
            format!("ghost_count says {counted}, walk says {walked} at horizon {horizon}"),
        ));
    }
    Ok(())
}

/// Invariant: an auxiliary LRU index (the `ReservedCapacity` policy's global
/// LRU) tracks exactly the resident pages.
pub(crate) fn check_lru_tracks_resident(
    lru_len: usize,
    lru_contains: impl Fn(&PageKey) -> bool,
    resident: &HashMap<PageKey, Pfn>,
) -> MosaicResult<()> {
    if lru_len != resident.len() {
        return Err(MosaicError::invariant(
            "lru-coverage",
            format!("LRU tracks {lru_len} pages, {} are resident", resident.len()),
        ));
    }
    if let Some(key) = resident.keys().find(|k| !lru_contains(k)) {
        return Err(MosaicError::invariant(
            "lru-coverage",
            format!("resident {key:?} missing from the global LRU index"),
        ));
    }
    Ok(())
}

/// Invariant: an exact-LRU index agrees with the frame table on every
/// resident page's last-access time (both are stamped by the same access),
/// so reclaim order is the order the frames record.
pub(crate) fn check_lru_timestamps(
    lru: &LruIndex<PageKey>,
    frames: &FrameTable,
    resident: &HashMap<PageKey, Pfn>,
) -> MosaicResult<()> {
    for (key, &pfn) in resident {
        let framed = frames.entry(pfn).map(|e| e.last_access);
        let indexed = lru.timestamp(key);
        if framed != indexed {
            return Err(MosaicError::invariant(
                "lru-timestamp",
                format!("{key:?}: frame says last access {framed:?}, LRU says {indexed:?}"),
            ));
        }
    }
    Ok(())
}

/// Invariant: for every ASID with a quota set, the quota table's resident
/// count equals a direct recount of the residency map, and every one of
/// that ASID's resident pages is tracked in its per-tenant LRU (so
/// self-eviction always has the true LRU victim available). Every
/// per-tenant LRU, quota or not, must also be structurally sound.
pub(crate) fn check_quota_accounting(
    table: &QuotaTable,
    resident: &HashMap<PageKey, Pfn>,
) -> MosaicResult<()> {
    table.check_lrus()?;
    for asid in table.quota_asids() {
        let actual = resident.keys().filter(|k| k.asid == asid).count();
        let tracked = table.resident(asid);
        if actual != tracked {
            return Err(MosaicError::invariant(
                "quota-census",
                format!("{asid:?}: table counts {tracked} resident, recount says {actual}"),
            ));
        }
        if let Some(key) = resident
            .keys()
            .find(|k| k.asid == asid && !table.tracks(k))
        {
            return Err(MosaicError::invariant(
                "quota-census",
                format!("resident {key:?} missing from its tenant's own-LRU index"),
            ));
        }
    }
    Ok(())
}

/// Invariant: a free-list-based manager's accounting adds up — frames are
/// either free or occupied, with no overlap and none lost.
pub(crate) fn check_free_list_accounting(
    num_frames: usize,
    free: &[Pfn],
    frames: &FrameTable,
) -> MosaicResult<()> {
    let occupied = frames.resident();
    if free.len() + occupied != num_frames {
        return Err(MosaicError::invariant(
            "free-list-accounting",
            format!(
                "{} free + {occupied} occupied != {num_frames} total",
                free.len()
            ),
        ));
    }
    if let Some(pfn) = free.iter().find(|&&p| frames.entry(p).is_some()) {
        return Err(MosaicError::invariant(
            "free-list-accounting",
            format!("frame {pfn:?} is on the free list yet occupied"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Asid, Vpn};
    use crate::frame::FrameEntry;
    use crate::layout::MemoryLayout;
    use mosaic_iceberg::IcebergConfig;

    fn key(n: u64) -> PageKey {
        PageKey::new(Asid(1), Vpn(n))
    }

    fn small_table() -> FrameTable {
        FrameTable::new(MemoryLayout::new(IcebergConfig::paper_default(8)))
    }

    #[test]
    fn bijection_accepts_consistent_state() {
        let mut frames = small_table();
        let mut resident = HashMap::new();
        for n in 0..4u64 {
            let pfn = Pfn(n);
            frames.install(
                pfn,
                FrameEntry {
                    key: key(n),
                    last_access: n,
                    dirty: false,
                    has_swap_copy: false,
                },
            );
            resident.insert(key(n), pfn);
        }
        assert!(check_frame_bijection(&frames, &resident).is_ok());
    }

    #[test]
    fn bijection_rejects_dangling_and_mismatched() {
        let mut frames = small_table();
        let mut resident = HashMap::new();
        frames.install(
            Pfn(0),
            FrameEntry {
                key: key(1),
                last_access: 1,
                dirty: false,
                has_swap_copy: false,
            },
        );
        // Frame holds key(1) but the map doesn't know it.
        let err = check_frame_bijection(&frames, &resident).unwrap_err();
        assert!(matches!(
            err,
            MosaicError::InvariantViolation {
                invariant: "frame-bijection",
                ..
            }
        ));
        // Map points at the wrong frame.
        resident.insert(key(1), Pfn(5));
        assert!(check_frame_bijection(&frames, &resident).is_err());
        // Map has an entry with no backing frame.
        resident.insert(key(1), Pfn(0));
        resident.insert(key(2), Pfn(9));
        assert!(check_frame_bijection(&frames, &resident).is_err());
    }

    #[test]
    fn swap_disjointness() {
        let mut resident = HashMap::new();
        let mut swapped = HashSet::new();
        resident.insert(key(1), Pfn(0));
        swapped.insert(key(2));
        assert!(check_swap_disjoint(&resident, &swapped).is_ok());
        swapped.insert(key(1));
        assert!(check_swap_disjoint(&resident, &swapped).is_err());
    }

    #[test]
    fn ghost_census_matches_walk() {
        let mut frames = small_table();
        for n in 0..6u64 {
            frames.install(
                Pfn(n),
                FrameEntry {
                    key: key(n),
                    last_access: n * 10,
                    dirty: false,
                    has_swap_copy: false,
                },
            );
        }
        // Horizon 25: pages with last_access < 25 (n = 0, 1, 2) are ghosts.
        assert!(check_ghost_census(&frames, 25).is_ok());
        assert_eq!(frames.ghost_count(25), 3);
    }

    #[test]
    fn lru_coverage() {
        let mut resident = HashMap::new();
        resident.insert(key(1), Pfn(0));
        resident.insert(key(2), Pfn(1));
        let tracked: HashSet<PageKey> = [key(1), key(2)].into_iter().collect();
        assert!(check_lru_tracks_resident(2, |k| tracked.contains(k), &resident).is_ok());
        assert!(check_lru_tracks_resident(1, |k| tracked.contains(k), &resident).is_err());
        let partial: HashSet<PageKey> = [key(1), key(9)].into_iter().collect();
        assert!(check_lru_tracks_resident(2, |k| partial.contains(k), &resident).is_err());
    }

    #[test]
    fn lru_timestamps_match_frames() {
        let mut frames = small_table();
        let mut resident = HashMap::new();
        let mut lru = LruIndex::new();
        for n in 0..3u64 {
            frames.install(
                Pfn(n),
                FrameEntry {
                    key: key(n),
                    last_access: 10 + n,
                    dirty: false,
                    has_swap_copy: false,
                },
            );
            resident.insert(key(n), Pfn(n));
            lru.touch(key(n), 10 + n);
        }
        assert!(check_lru_timestamps(&lru, &frames, &resident).is_ok());
        // A hit the LRU saw but the frame table missed.
        lru.touch(key(1), 20);
        let err = check_lru_timestamps(&lru, &frames, &resident).unwrap_err();
        assert!(matches!(
            err,
            MosaicError::InvariantViolation {
                invariant: "lru-timestamp",
                ..
            }
        ));
        // A resident page the LRU never saw.
        lru.remove(&key(1));
        frames.touch(Pfn(1), 20, false);
        assert!(check_lru_timestamps(&lru, &frames, &resident).is_err());
    }

    #[test]
    fn quota_census_counts_and_coverage() {
        use crate::quota::TenantQuota;
        let mut table = QuotaTable::new();
        table.set(Asid(1), TenantQuota { frames: 4, priority: 0 });
        let mut resident = HashMap::new();
        resident.insert(key(1), Pfn(0));
        table.note_install(key(1), 1);
        assert!(check_quota_accounting(&table, &resident).is_ok());
        // A resident page the table never saw: count + coverage both break.
        resident.insert(key(2), Pfn(1));
        assert!(check_quota_accounting(&table, &resident).is_err());
        // Quota-less ASIDs are not audited.
        resident.remove(&key(2));
        resident.insert(PageKey::new(Asid(9), Vpn(0)), Pfn(2));
        assert!(check_quota_accounting(&table, &resident).is_ok());
    }

    #[test]
    fn free_list_accounting() {
        let mut frames = small_table();
        let total = frames.num_frames();
        frames.install(
            Pfn(3),
            FrameEntry {
                key: key(3),
                last_access: 1,
                dirty: false,
                has_swap_copy: false,
            },
        );
        let free: Vec<Pfn> = (0..total as u64).map(Pfn).filter(|p| p.0 != 3).collect();
        assert!(check_free_list_accounting(total, &free, &frames).is_ok());
        // Lost frame: one fewer free than reality requires.
        assert!(check_free_list_accounting(total, &free[1..], &frames).is_err());
        // Overlap: an occupied frame on the free list.
        let mut overlap = free.clone();
        overlap.push(Pfn(3));
        // Compensate the count so only the overlap check can fire.
        overlap.remove(0);
        assert!(check_free_list_accounting(total, &overlap, &frames).is_err());
    }
}
