//! An exact least-recently-used index over page keys.
//!
//! The Linux-baseline manager evicts in strict LRU order; this index keeps
//! pages ordered by last-access timestamp. It is the intrusive doubly-linked
//! list stock Linux uses, held in a slab: `touch`, `remove`, `pop_oldest`
//! and `peek_oldest` cost `O(1)` plus one hash-map operation when
//! timestamps arrive in non-decreasing order (every in-repo caller), and a
//! back-dated touch additionally walks back from the newest end past the
//! strictly newer entries. (Real Linux approximates LRU with
//! active/inactive lists; the paper's own baseline measurements are
//! against stock Linux reclaim, and exact LRU is the canonical
//! idealisation — see DESIGN.md.)

use crate::error::{MosaicError, MosaicResult};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// The null slot index: no neighbour / empty list.
const NIL: u32 = u32::MAX;

/// Name of the structural invariant [`LruIndex::check`] reports.
const INVARIANT: &str = "lru-structure";

/// One slab slot: a key, its last-touch timestamp and its list links.
#[derive(Debug, Clone, Copy)]
struct Node<K> {
    key: K,
    ts: u64,
    /// Next-older node, or [`NIL`] at the head.
    prev: u32,
    /// Next-newer node, or [`NIL`] at the tail.
    next: u32,
}

/// An LRU index: a set of keys ordered by the timestamp of their most
/// recent [`touch`](LruIndex::touch).
///
/// Ties on the timestamp are broken by touch order (earlier touch is
/// considered older), so the structure is total-ordered even if the caller
/// reuses timestamps.
///
/// # Example
///
/// ```
/// use mosaic_mem::lru::LruIndex;
///
/// let mut lru = LruIndex::new();
/// lru.touch("a", 1);
/// lru.touch("b", 2);
/// lru.touch("a", 3); // "a" is now the most recent
/// assert_eq!(lru.pop_oldest(), Some(("b", 2)));
/// ```
#[derive(Debug, Clone)]
pub struct LruIndex<K> {
    /// Node slab; every slot is either linked into the list or on `free`.
    nodes: Vec<Node<K>>,
    /// Unlinked slots, reused before the slab grows.
    free: Vec<u32>,
    /// `key -> slot` back-pointers.
    slot: HashMap<K, u32>,
    /// Oldest node, or [`NIL`] when empty.
    head: u32,
    /// Newest node, or [`NIL`] when empty.
    tail: u32,
}

impl<K> Default for LruIndex<K> {
    fn default() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            slot: HashMap::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<K: Copy + Eq + Hash> LruIndex<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys tracked.
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.slot.is_empty()
    }

    /// Records an access to `key` at time `now`, inserting it if absent.
    pub fn touch(&mut self, key: K, now: u64) {
        let i = match self.slot.entry(key) {
            Entry::Occupied(e) => {
                let i = *e.get();
                self.unlink(i);
                i
            }
            Entry::Vacant(e) => {
                let node = Node {
                    key,
                    ts: now,
                    prev: NIL,
                    next: NIL,
                };
                let i = match self.free.pop() {
                    Some(i) => {
                        self.nodes[i as usize] = node;
                        i
                    }
                    None => {
                        assert!(self.nodes.len() < NIL as usize, "LruIndex slab is full");
                        self.nodes.push(node);
                        (self.nodes.len() - 1) as u32
                    }
                };
                e.insert(i);
                i
            }
        };
        self.nodes[i as usize].ts = now;
        self.link(i);
    }

    /// Removes `key`, returning its last-touch timestamp if present.
    pub fn remove(&mut self, key: &K) -> Option<u64> {
        let i = self.slot.remove(key)?;
        self.unlink(i);
        self.free.push(i);
        Some(self.nodes[i as usize].ts)
    }

    /// Removes and returns the least-recently-touched key and its timestamp.
    pub fn pop_oldest(&mut self) -> Option<(K, u64)> {
        let (key, ts) = self.peek_oldest()?;
        self.remove(&key);
        Some((key, ts))
    }

    /// The least-recently-touched key without removing it.
    pub fn peek_oldest(&self) -> Option<(K, u64)> {
        let n = self.nodes.get(self.head as usize)?;
        Some((n.key, n.ts))
    }

    /// Iterates keys oldest-first without removing them (the bounded
    /// victim scan quota-aware reclaim uses).
    pub fn iter_oldest(&self) -> impl Iterator<Item = (K, u64)> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            let n = self.nodes.get(cur as usize)?;
            cur = n.next;
            Some((n.key, n.ts))
        })
    }

    /// Whether the index contains `key`.
    pub fn contains(&self, key: &K) -> bool {
        self.slot.contains_key(key)
    }

    /// The last-touch timestamp of `key`, if tracked.
    pub fn timestamp(&self, key: &K) -> Option<u64> {
        self.slot.get(key).map(|&i| self.nodes[i as usize].ts)
    }

    /// Detaches slot `i` from the list, joining its neighbours.
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Links detached slot `i` after the newest node whose timestamp is
    /// not newer than its own: the tail itself for an in-order touch, so
    /// equal timestamps keep touch order.
    fn link(&mut self, i: u32) {
        let ts = self.nodes[i as usize].ts;
        let mut prev = self.tail;
        while prev != NIL && self.nodes[prev as usize].ts > ts {
            prev = self.nodes[prev as usize].prev;
        }
        let next = match prev {
            NIL => std::mem::replace(&mut self.head, i),
            p => std::mem::replace(&mut self.nodes[p as usize].next, i),
        };
        match next {
            NIL => self.tail = i,
            n => self.nodes[n as usize].prev = i,
        }
        let node = &mut self.nodes[i as usize];
        node.prev = prev;
        node.next = next;
    }
}

impl<K: Copy + Eq + Hash + Debug> LruIndex<K> {
    /// Checks the list's structural invariants: symmetric `prev`/`next`
    /// links, consistent head and tail, non-decreasing timestamps from
    /// oldest to newest, list length equal to the key map's, every map
    /// slot holding its own key, and no free slot linked. `O(n)`; meant
    /// for the managers' `verify` passes, not hot paths.
    pub fn check(&self) -> MosaicResult<()> {
        let fail = |detail: String| Err(MosaicError::invariant(INVARIANT, detail));
        let mut linked = vec![false; self.nodes.len()];
        let (mut prev, mut cur, mut walked) = (NIL, self.head, 0usize);
        while cur != NIL {
            let Some(n) = self.nodes.get(cur as usize) else {
                return fail(format!("slot {cur} linked but beyond the slab"));
            };
            if std::mem::replace(&mut linked[cur as usize], true) {
                return fail(format!("slot {cur} reached twice: the list has a cycle"));
            }
            if n.prev != prev {
                return fail(format!(
                    "slot {cur}.prev is {} but the walk came from {prev}",
                    n.prev
                ));
            }
            if let Some(p) = self.nodes.get(prev as usize) {
                if p.ts > n.ts {
                    return fail(format!(
                        "slot {cur} (ts {}) follows the newer slot {prev} (ts {})",
                        n.ts, p.ts
                    ));
                }
            }
            walked += 1;
            (prev, cur) = (cur, n.next);
        }
        if prev != self.tail {
            return fail(format!("tail is {} but the walk ends at {prev}", self.tail));
        }
        if walked != self.slot.len() {
            return fail(format!(
                "{walked} linked slots vs {} mapped keys",
                self.slot.len()
            ));
        }
        // Distinct keys in distinct linked slots, as many as are linked:
        // the map and the list are one bijection.
        for (key, &i) in &self.slot {
            let holds_key = self.nodes.get(i as usize).is_some_and(|n| n.key == *key);
            if !holds_key || !linked[i as usize] {
                return fail(format!(
                    "{key:?} maps to slot {i}, which is unlinked or holds another key"
                ));
            }
        }
        // Every slot is claimed exactly once, by the list or by `free`.
        for &i in &self.free {
            if linked.get_mut(i as usize).map(|c| std::mem::replace(c, true)) != Some(false) {
                return fail(format!("free slot {i} is linked, listed twice or beyond the slab"));
            }
        }
        if walked + self.free.len() != self.nodes.len() {
            return fail(format!(
                "{walked} linked + {} free slots != slab of {}",
                self.free.len(),
                self.nodes.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_order_is_lru() {
        let mut lru = LruIndex::new();
        lru.touch(10u32, 5);
        lru.touch(20, 3);
        lru.touch(30, 7);
        assert_eq!(lru.pop_oldest(), Some((20, 3)));
        assert_eq!(lru.pop_oldest(), Some((10, 5)));
        assert_eq!(lru.pop_oldest(), Some((30, 7)));
        assert_eq!(lru.pop_oldest(), None);
    }

    #[test]
    fn touch_moves_to_back() {
        let mut lru = LruIndex::new();
        lru.touch(1u8, 1);
        lru.touch(2, 2);
        lru.touch(1, 3);
        assert_eq!(lru.peek_oldest(), Some((2, 2)));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn equal_timestamps_break_by_touch_order() {
        let mut lru = LruIndex::new();
        lru.touch('a', 1);
        lru.touch('b', 1);
        lru.touch('c', 1);
        assert_eq!(lru.pop_oldest().unwrap().0, 'a');
        assert_eq!(lru.pop_oldest().unwrap().0, 'b');
        assert_eq!(lru.pop_oldest().unwrap().0, 'c');
    }

    #[test]
    fn remove_detaches_key() {
        let mut lru = LruIndex::new();
        lru.touch(1u64, 1);
        lru.touch(2, 2);
        assert_eq!(lru.remove(&1), Some(1));
        assert_eq!(lru.remove(&1), None);
        assert!(!lru.contains(&1));
        assert_eq!(lru.pop_oldest(), Some((2, 2)));
    }

    #[test]
    fn iter_oldest_is_nondestructive_and_ordered() {
        let mut lru = LruIndex::new();
        lru.touch(3u32, 30);
        lru.touch(1, 10);
        lru.touch(2, 20);
        let order: Vec<(u32, u64)> = lru.iter_oldest().collect();
        assert_eq!(order, vec![(1, 10), (2, 20), (3, 30)]);
        assert_eq!(lru.len(), 3, "iteration must not consume");
    }

    #[test]
    fn timestamp_query() {
        let mut lru = LruIndex::new();
        lru.touch(9u16, 42);
        assert_eq!(lru.timestamp(&9), Some(42));
        assert_eq!(lru.timestamp(&8), None);
    }

    #[test]
    fn large_population_pops_sorted() {
        let mut lru = LruIndex::new();
        // Insert with pseudo-shuffled timestamps.
        for i in 0..1000u64 {
            lru.touch(i, (i * 2_654_435_761) % 10_000);
        }
        lru.check().unwrap();
        let mut last = 0;
        let mut n = 0;
        while let Some((_, ts)) = lru.pop_oldest() {
            assert!(ts >= last, "out of order");
            last = ts;
            n += 1;
        }
        assert_eq!(n, 1000);
        lru.check().unwrap();
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut lru = LruIndex::new();
        for k in 0..4u32 {
            lru.touch(k, u64::from(k));
        }
        lru.remove(&1);
        lru.pop_oldest();
        lru.touch(7, 9);
        lru.touch(8, 9);
        assert_eq!(lru.nodes.len(), 4, "the slab grew despite free slots");
        let order: Vec<u32> = lru.iter_oldest().map(|(k, _)| k).collect();
        assert_eq!(order, vec![2, 3, 7, 8]);
        lru.check().unwrap();
    }

    #[test]
    fn back_dated_touch_walks_to_its_place() {
        let mut lru = LruIndex::new();
        for k in 0..5u32 {
            lru.touch(k, 10 * u64::from(k));
        }
        lru.touch(9, 15); // between 1 (ts 10) and 2 (ts 20)
        lru.touch(4, 0); // ties with 0, touched later: after it
        let order: Vec<(u32, u64)> = lru.iter_oldest().collect();
        assert_eq!(
            order,
            vec![(0, 0), (4, 0), (1, 10), (9, 15), (2, 20), (3, 30)]
        );
        lru.check().unwrap();
    }

    /// A five-key index `0..5` touched in order at timestamps `0..5`:
    /// keys sit in slots of the same number.
    fn five() -> LruIndex<u32> {
        let mut lru = LruIndex::new();
        for k in 0..5u32 {
            lru.touch(k, u64::from(k));
        }
        lru.check().unwrap();
        lru
    }

    fn assert_broken(lru: &LruIndex<u32>, needle: &str) {
        match lru.check() {
            Err(MosaicError::InvariantViolation { invariant, detail }) => {
                assert_eq!(invariant, INVARIANT);
                assert!(detail.contains(needle), "detail {detail:?} lacks {needle:?}");
            }
            other => panic!("corruption not caught: {other:?}"),
        }
    }

    #[test]
    fn check_catches_asymmetric_links() {
        let mut lru = five();
        lru.nodes[2].prev = 0;
        assert_broken(&lru, "slot 2.prev is 0");
        let mut lru = five();
        lru.nodes[1].next = 3; // skips slot 2
        assert_broken(&lru, "slot 3.prev is 2");
        let mut lru = five();
        lru.nodes[3].next = 1; // loops back
        assert_broken(&lru, "reached twice");
        let mut lru = five();
        lru.nodes[4].next = 99;
        assert_broken(&lru, "beyond the slab");
    }

    #[test]
    fn check_catches_bad_head_and_tail() {
        let mut lru = five();
        lru.head = 1;
        assert_broken(&lru, "slot 1.prev is 0");
        let mut lru = five();
        lru.tail = 3;
        assert_broken(&lru, "tail is 3");
        let mut lru = five();
        lru.head = NIL;
        assert_broken(&lru, "tail is 4 but the walk ends at");
    }

    #[test]
    fn check_catches_timestamp_disorder() {
        let mut lru = five();
        lru.nodes[1].ts = 3;
        assert_broken(&lru, "follows the newer slot 1");
    }

    #[test]
    fn check_catches_length_mismatch() {
        let mut lru = five();
        lru.slot.insert(77, 2); // a second key claims slot 2
        assert_broken(&lru, "5 linked slots vs 6 mapped keys");
    }

    #[test]
    fn check_catches_slot_holding_another_key() {
        let mut lru = five();
        lru.slot.insert(1, 2);
        lru.slot.insert(2, 1);
        assert_broken(&lru, "maps to slot");
        let mut lru = five();
        lru.nodes[3].key = 33;
        assert_broken(&lru, "3 maps to slot 3, which is unlinked or holds another key");
        let mut lru = five();
        lru.remove(&4);
        lru.slot.insert(3, 4); // slot 4 is free; slot 3 now unclaimed
        assert_broken(&lru, "3 maps to slot 4");
    }

    #[test]
    fn check_catches_linked_free_slot() {
        let mut lru = five();
        lru.free.push(2);
        assert_broken(&lru, "free slot 2 is linked");
        let mut lru = five();
        lru.remove(&2);
        lru.check().unwrap();
        lru.free.clear(); // slot 2 is neither linked nor free: leaked
        assert_broken(&lru, "4 linked + 0 free slots != slab of 5");
        lru.free.extend([2, 2]);
        assert_broken(&lru, "free slot 2 is linked, listed twice");
    }
}
