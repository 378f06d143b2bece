//! The WiredTiger-style application cache.

use std::collections::{BTreeMap, HashMap};

/// WiredTiger's in-process record cache: an application-managed LRU over
/// an arena that lives in *guest memory* — which is exactly why it
/// interacts badly with swap (§VI-D2): the engine believes its arena is
/// RAM, but under a swap-based VM the arena's cold pages are silently
/// paged out, so "cache hits" stall on major faults, and kswapd and the
/// engine fight over what to keep.
///
/// The cache tracks *slots* (one record each); the `DocumentStore`
/// in `crate::docstore` maps slots onto arena pages and
/// charges the memory traffic.
#[derive(Debug)]
pub struct WiredTigerCache {
    capacity_slots: u64,
    by_key: HashMap<u64, Slot>,
    lru: BTreeMap<u64, u64>, // seq -> key
    free: Vec<u64>,
    next_slot: u64,
    next_seq: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    index: u64,
    seq: u64,
}

impl WiredTigerCache {
    /// A cache of `capacity_slots` records.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub(crate) fn new(capacity_slots: u64) -> Self {
        assert!(capacity_slots > 0, "cache needs at least one slot");
        WiredTigerCache {
            capacity_slots,
            by_key: HashMap::new(),
            lru: BTreeMap::new(),
            free: Vec::new(),
            next_slot: 0,
            next_seq: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Slot capacity.
    pub(crate) fn capacity_slots(&self) -> u64 {
        self.capacity_slots
    }

    /// Records currently cached.
    pub(crate) fn len(&self) -> u64 {
        self.by_key.len() as u64
    }

    /// Cache hits so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Looks up a record; on hit, promotes it and returns its slot.
    pub(crate) fn lookup(&mut self, key: u64) -> Option<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(slot) = self.by_key.get_mut(&key) {
            self.lru.remove(&slot.seq);
            slot.seq = seq;
            self.lru.insert(seq, key);
            self.hits += 1;
            Some(slot.index)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Inserts a record after a miss, evicting the LRU record if full.
    /// Returns `(slot, evicted_slot)`.
    pub(crate) fn insert(&mut self, key: u64) -> (u64, Option<u64>) {
        debug_assert!(!self.by_key.contains_key(&key), "insert only after miss");
        let mut evicted = None;
        if self.len() >= self.capacity_slots {
            let (&seq, &victim_key) = self.lru.iter().next().expect("full cache has entries");
            self.lru.remove(&seq);
            let victim = self.by_key.remove(&victim_key).expect("tracked");
            self.free.push(victim.index);
            self.evictions += 1;
            evicted = Some(victim.index);
        }
        let index = self.free.pop().unwrap_or_else(|| {
            let s = self.next_slot;
            self.next_slot += 1;
            s
        });
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_key.insert(key, Slot { index, seq });
        self.lru.insert(seq, key);
        (index, evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let mut c = WiredTigerCache::new(2);
        assert_eq!(c.lookup(1), None);
        let (s1, _) = c.insert(1);
        assert_eq!(c.lookup(1), Some(s1));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = WiredTigerCache::new(2);
        c.insert(1);
        c.insert(2);
        c.lookup(1); // 2 becomes LRU
        let (_, evicted) = c.insert(3);
        assert!(evicted.is_some());
        assert_eq!(c.lookup(2), None, "LRU record evicted");
        assert!(c.lookup(1).is_some());
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn slots_are_recycled() {
        let mut c = WiredTigerCache::new(1);
        let (s1, _) = c.insert(1);
        let (s2, evicted) = c.insert(2);
        assert_eq!(evicted, Some(s1));
        assert_eq!(s1, s2, "slot reused");
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        WiredTigerCache::new(0);
    }
}
