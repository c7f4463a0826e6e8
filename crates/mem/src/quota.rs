//! Per-tenant working-set quotas for isolation under adversarial load.
//!
//! A [`TenantQuota`] is a hard cap on the frames one ASID may hold
//! resident, plus a priority weight that orders reclaim victims
//! (high-priority tenants reclaim last). The [`QuotaTable`] keeps the
//! per-ASID accounting the managers consult on every allocation:
//! resident counts, a per-tenant LRU (for *self*-eviction — a tenant at
//! its cap makes room out of its own pages before touching anyone
//! else's), and the backpressure counters ([`QuotaStats`]).
//!
//! Managers hold an `Option<QuotaTable>`; with `None` every code path
//! is byte-identical to the pre-quota behaviour, which is what keeps
//! all existing goldens unchanged. Backoff after a deferred admission
//! is *counted, not slept* — exponential in the tenant's consecutive
//! deferrals, capped, exactly the PR-1 `FaultInjector` convention.

use crate::addr::{Asid, PageKey};
use crate::error::MosaicResult;
use crate::lru::LruIndex;
use std::collections::HashMap;

/// A tenant's reclaim contract: a hard frame cap plus a priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum frames this ASID may hold resident. `0` blocks admission
    /// entirely (every allocation defers).
    pub frames: usize,
    /// Reclaim priority: lower values are evicted *first* when the
    /// allocator must displace an under-quota tenant. Tenants without a
    /// quota entry behave as priority 0.
    pub priority: u8,
}

/// Backpressure and isolation counters one manager accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuotaStats {
    /// Evictions where a tenant at its cap displaced one of its *own*
    /// pages (in-place among its candidate slots, or via the post-install
    /// trim loop) instead of someone else's.
    pub self_evictions: u64,
    /// Conflict evictions where quota/priority ordering picked a victim
    /// *different* from the plain LRU candidate.
    pub quota_evictions: u64,
    /// Allocations deferred with
    /// [`QuotaExceeded`](crate::error::MosaicError::QuotaExceeded).
    pub admissions_deferred: u64,
    /// Abstract backoff ticks charged for deferrals (exponential per
    /// consecutive deferral, counted not slept).
    pub backoff_ticks: u64,
}

impl QuotaStats {
    /// The all-zero value (managers without a quota table report this).
    pub const ZERO: QuotaStats = QuotaStats {
        self_evictions: 0,
        quota_evictions: 0,
        admissions_deferred: 0,
        backoff_ticks: 0,
    };
}

/// Exponent cap for deferral backoff (mirrors the swap-I/O retry
/// backoff cap in the managers).
const MAX_BACKOFF_SHIFT: u32 = 16;

/// Per-ASID quota bookkeeping shared by both managers.
#[derive(Debug, Clone, Default)]
pub struct QuotaTable {
    quotas: HashMap<Asid, TenantQuota>,
    resident: HashMap<Asid, usize>,
    /// Per-tenant LRU over that tenant's resident pages, for targeted
    /// self-eviction. Tracked for every ASID once the table exists, so a
    /// quota set later starts from correct counts.
    own_lru: HashMap<Asid, LruIndex<PageKey>>,
    /// Consecutive deferrals per ASID (reset by a successful install).
    deferral_streak: HashMap<Asid, u32>,
    stats: QuotaStats,
}

impl QuotaTable {
    /// An empty table: no quotas, no tracked pages.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or replaces) `asid`'s quota.
    pub fn set(&mut self, asid: Asid, quota: TenantQuota) {
        self.quotas.insert(asid, quota);
    }

    /// The quota of `asid`, if one is set.
    pub fn quota(&self, asid: Asid) -> Option<TenantQuota> {
        self.quotas.get(&asid).copied()
    }

    /// Tracked resident frames of `asid`.
    pub fn resident(&self, asid: Asid) -> usize {
        self.resident.get(&asid).copied().unwrap_or(0)
    }

    /// Whether `asid` has reached its cap (quota-less tenants never do).
    pub fn at_capacity(&self, asid: Asid) -> bool {
        self.quota(asid)
            .is_some_and(|q| self.resident(asid) >= q.frames)
    }

    /// Whether `asid` holds *more* than its quota (transiently possible
    /// mid-access, or after a quota is lowered).
    pub fn over_quota(&self, asid: Asid) -> bool {
        self.quota(asid)
            .is_some_and(|q| self.resident(asid) > q.frames)
    }

    /// Victim-ordering class of `asid`: over-quota tenants first, then
    /// ascending priority. Smaller sorts earlier (evicted sooner).
    pub fn victim_class(&self, asid: Asid) -> (u8, u8) {
        let over = u8::from(!self.over_quota(asid));
        let priority = self.quota(asid).map_or(0, |q| q.priority);
        (over, priority)
    }

    /// Records a page install at time `now` (also clears the owner's
    /// deferral streak — the admission succeeded).
    pub fn note_install(&mut self, key: PageKey, now: u64) {
        *self.resident.entry(key.asid).or_insert(0) += 1;
        self.own_lru
            .entry(key.asid)
            .or_default()
            .touch(key, now);
        self.deferral_streak.remove(&key.asid);
    }

    /// Starts tracking `asid`'s resident `(page, last access)` pairs the
    /// table has not seen — pages installed before the table existed —
    /// in a deterministic (timestamp, key) order so replays agree.
    /// Pages of other ASIDs and already-tracked pages are skipped.
    pub fn adopt(&mut self, asid: Asid, pages: impl IntoIterator<Item = (PageKey, u64)>) {
        let mut seed: Vec<(u64, PageKey)> = pages
            .into_iter()
            .filter(|(k, _)| k.asid == asid && !self.tracks(k))
            .map(|(k, ts)| (ts, k))
            .collect();
        seed.sort_unstable_by_key(|&(ts, k)| (ts, k.hash_key()));
        for (ts, k) in seed {
            self.note_install(k, ts);
        }
    }

    /// Records a hit on a tracked page.
    pub fn note_touch(&mut self, key: PageKey, now: u64) {
        if let Some(lru) = self.own_lru.get_mut(&key.asid) {
            if lru.contains(&key) {
                lru.touch(key, now);
            }
        }
    }

    /// Records an eviction/release of `key`. Untracked keys (installed
    /// before the table existed and never seeded) are ignored, keeping
    /// the counts exact.
    pub fn note_evict(&mut self, key: PageKey) {
        if let Some(lru) = self.own_lru.get_mut(&key.asid) {
            if lru.remove(&key).is_some() {
                if let Some(c) = self.resident.get_mut(&key.asid) {
                    *c = c.saturating_sub(1);
                }
            }
        }
    }

    /// Drops every trace of `asid` (process exit).
    pub fn remove_tenant(&mut self, asid: Asid) {
        self.quotas.remove(&asid);
        self.resident.remove(&asid);
        self.own_lru.remove(&asid);
        self.deferral_streak.remove(&asid);
    }

    /// The least-recently-used of `asid`'s tracked pages.
    pub fn own_lru_oldest(&self, asid: Asid) -> Option<PageKey> {
        self.own_lru
            .get(&asid)?
            .peek_oldest()
            .map(|(key, _)| key)
    }

    /// Whether `key` is tracked in its owner's LRU.
    pub fn tracks(&self, key: &PageKey) -> bool {
        self.own_lru
            .get(&key.asid)
            .is_some_and(|lru| lru.contains(key))
    }

    /// Charges one deferred admission for `asid` and returns the backoff
    /// ticks charged (exponential in the consecutive-deferral streak).
    pub fn note_deferred(&mut self, asid: Asid) -> u64 {
        let streak = self.deferral_streak.entry(asid).or_insert(0);
        let ticks = 1u64 << (*streak).min(MAX_BACKOFF_SHIFT);
        *streak = streak.saturating_add(1);
        self.stats.admissions_deferred += 1;
        self.stats.backoff_ticks += ticks;
        ticks
    }

    /// Counts one self-eviction (a capped tenant displaced its own page).
    pub fn note_self_eviction(&mut self) {
        self.stats.self_evictions += 1;
    }

    /// Counts one quota-steered conflict eviction (victim differed from
    /// the plain LRU candidate).
    pub fn note_quota_eviction(&mut self) {
        self.stats.quota_evictions += 1;
    }

    /// The accumulated backpressure counters.
    pub fn stats(&self) -> QuotaStats {
        self.stats
    }

    /// Checks every per-tenant LRU's structure ([`LruIndex::check`]).
    pub fn check_lrus(&self) -> MosaicResult<()> {
        self.own_lru.values().try_for_each(LruIndex::check)
    }

    /// ASIDs that currently have a quota set (for invariant checks).
    pub fn quota_asids(&self) -> impl Iterator<Item = Asid> + '_ {
        self.quotas.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Vpn;

    fn k(asid: u16, vpn: u64) -> PageKey {
        PageKey::new(Asid(asid), Vpn(vpn))
    }

    #[test]
    fn counts_follow_install_and_evict() {
        let mut t = QuotaTable::new();
        t.set(Asid(1), TenantQuota { frames: 2, priority: 0 });
        assert!(!t.at_capacity(Asid(1)));
        t.note_install(k(1, 0), 1);
        t.note_install(k(1, 1), 2);
        assert_eq!(t.resident(Asid(1)), 2);
        assert!(t.at_capacity(Asid(1)));
        assert!(!t.over_quota(Asid(1)));
        t.note_install(k(1, 2), 3);
        assert!(t.over_quota(Asid(1)));
        t.note_evict(k(1, 0));
        assert_eq!(t.resident(Asid(1)), 2);
        // Evicting an untracked key is a no-op.
        t.note_evict(k(9, 0));
        assert_eq!(t.resident(Asid(1)), 2);
    }

    #[test]
    fn own_lru_orders_by_touch_time() {
        let mut t = QuotaTable::new();
        t.note_install(k(1, 0), 10);
        t.note_install(k(1, 1), 20);
        t.note_touch(k(1, 0), 30);
        assert_eq!(t.own_lru_oldest(Asid(1)), Some(k(1, 1)));
        // Touching an untracked page does not insert it.
        t.note_touch(k(1, 99), 40);
        assert!(!t.tracks(&k(1, 99)));
    }

    #[test]
    fn adopt_tracks_only_unseen_pages_of_the_tenant() {
        let mut t = QuotaTable::new();
        t.note_install(k(1, 0), 5);
        // Pages resident before the table existed, plus another tenant's.
        t.adopt(Asid(1), [(k(1, 0), 5), (k(1, 2), 3), (k(1, 1), 1), (k(2, 0), 0)]);
        assert_eq!(t.resident(Asid(1)), 3);
        assert_eq!(t.resident(Asid(2)), 0);
        assert_eq!(t.own_lru_oldest(Asid(1)), Some(k(1, 1)));
        t.check_lrus().unwrap();
    }

    #[test]
    fn deferral_backoff_is_exponential_and_resets() {
        let mut t = QuotaTable::new();
        t.set(Asid(2), TenantQuota { frames: 0, priority: 0 });
        assert_eq!(t.note_deferred(Asid(2)), 1);
        assert_eq!(t.note_deferred(Asid(2)), 2);
        assert_eq!(t.note_deferred(Asid(2)), 4);
        assert_eq!(t.stats().admissions_deferred, 3);
        assert_eq!(t.stats().backoff_ticks, 7);
        // A successful install ends the streak.
        t.note_install(k(2, 0), 1);
        assert_eq!(t.note_deferred(Asid(2)), 1);
    }

    #[test]
    fn backoff_exponent_is_capped() {
        let mut t = QuotaTable::new();
        for _ in 0..40 {
            t.note_deferred(Asid(3));
        }
        assert_eq!(t.note_deferred(Asid(3)), 1 << MAX_BACKOFF_SHIFT);
    }

    #[test]
    fn victim_class_prefers_over_quota_then_low_priority() {
        let mut t = QuotaTable::new();
        t.set(Asid(1), TenantQuota { frames: 1, priority: 3 });
        t.set(Asid(2), TenantQuota { frames: 8, priority: 1 });
        t.note_install(k(1, 0), 1);
        t.note_install(k(1, 1), 2); // asid 1 now over quota
        t.note_install(k(2, 0), 3);
        assert!(t.victim_class(Asid(1)) < t.victim_class(Asid(2)));
        // Among under-quota tenants, lower priority sorts first.
        t.set(Asid(3), TenantQuota { frames: 8, priority: 5 });
        assert!(t.victim_class(Asid(2)) < t.victim_class(Asid(3)));
    }

    #[test]
    fn remove_tenant_clears_all_state() {
        let mut t = QuotaTable::new();
        t.set(Asid(4), TenantQuota { frames: 1, priority: 0 });
        t.note_install(k(4, 0), 1);
        t.note_deferred(Asid(4));
        t.remove_tenant(Asid(4));
        assert_eq!(t.resident(Asid(4)), 0);
        assert_eq!(t.quota(Asid(4)), None);
        assert_eq!(t.own_lru_oldest(Asid(4)), None);
    }
}
