//! A Memcached-like slab cache.

use std::collections::BTreeMap;

use fluidmem_coord::PartitionId;
use fluidmem_mem::{PageContents, PAGE_SIZE};
use fluidmem_sim::{SimClock, SimRng};

use crate::error::KvError;
use crate::key::{ExternalKey, KeyTable};
use crate::leaf::{LeafStore, StorageEngine};
use crate::stats::StoreCounters;
use crate::transport::TransportModel;

/// Bytes a stored page occupies: memcached stores whole values (token
/// pages still logically occupy a page on the wire and in the slab)
/// behind a per-item header + key.
const ITEM_BYTES: usize = PAGE_SIZE + 56;

#[derive(Debug, Clone)]
struct Item {
    value: PageContents,
    class: usize,
    lru_seq: u64,
}

#[derive(Debug)]
struct SlabClass {
    chunk_size: usize,
    /// LRU ordering: sequence → key. Smallest sequence = coldest.
    lru: BTreeMap<u64, ExternalKey>,
}

/// A Memcached-like store: slab classes with per-class LRU eviction,
/// reached over a TCP (IP-over-InfiniBand) transport (paper §VI-A). It
/// has no `multiWrite`; the client pipelines a batch's sets on one
/// connection, paying one round trip plus per-item server time.
///
/// Unlike [`RamCloudStore`](crate::RamCloudStore), memcached is a *cache*:
/// when memory runs out it silently evicts the least-recently-used item of
/// the incoming item's slab class, and a later `get` simply misses. A page
/// store built on it must size the cache so working pages are never
/// evicted — the reproduction's monitor surfaces an eviction-induced miss
/// as lost-page corruption, matching what would happen in the real system.
///
/// # Example
///
/// ```
/// use fluidmem_coord::PartitionId;
/// use fluidmem_kv::{ExternalKey, KeyValueStore, MemcachedStore};
/// use fluidmem_mem::{PageContents, Vpn};
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let mut store = MemcachedStore::new(64 << 20, SimClock::new(), SimRng::seed_from_u64(1));
/// let key = ExternalKey::new(Vpn::new(0x10), PartitionId::new(0));
/// store.put(key, PageContents::Token(7))?;
/// assert_eq!(store.get(key)?, PageContents::Token(7));
/// # Ok::<(), fluidmem_kv::KvError>(())
/// ```
pub type MemcachedStore = LeafStore<MemcachedEngine>;

/// The storage engine behind [`MemcachedStore`]: slab classes and
/// their LRU lists.
#[derive(Debug)]
pub struct MemcachedEngine {
    classes: Vec<SlabClass>,
    items: KeyTable<Item>,
    capacity_bytes: usize,
    used_bytes: usize,
    next_seq: u64,
}

impl LeafStore<MemcachedEngine> {
    /// Creates a cache with `capacity_bytes` of slab memory over
    /// IP-over-InfiniBand TCP.
    pub fn new(capacity_bytes: usize, clock: SimClock, rng: SimRng) -> Self {
        Self::with_transport(capacity_bytes, TransportModel::ip_over_ib(), clock, rng)
    }

    /// Creates a cache with an explicit transport model.
    pub(crate) fn with_transport(
        capacity_bytes: usize,
        transport: TransportModel,
        clock: SimClock,
        rng: SimRng,
    ) -> Self {
        // Memcached's default growth factor of 1.25 from 96 bytes.
        let grow = |&chunk: &usize| Some((chunk as f64 * 1.25) as usize + 8);
        let engine = MemcachedEngine {
            classes: std::iter::successors(Some(96), grow)
                .take_while(|&chunk| chunk < 1024 * 1024)
                .chain([1024 * 1024])
                .map(|chunk_size| SlabClass {
                    chunk_size,
                    lru: BTreeMap::new(),
                })
                .collect(),
            items: KeyTable::new(),
            capacity_bytes,
            used_bytes: 0,
            next_seq: 0,
        };
        LeafStore::over(engine, transport, clock, rng)
    }
}

impl MemcachedEngine {
    /// The slab class whose chunks fit an item of `bytes`.
    fn class_for(&self, bytes: usize) -> usize {
        self.classes
            .iter()
            .position(|c| c.chunk_size >= bytes)
            .unwrap_or(self.classes.len() - 1)
    }

    fn take(&mut self, key: ExternalKey) -> Option<Item> {
        let item = self.items.remove(key)?;
        self.classes[item.class].lru.remove(&item.lru_seq);
        self.used_bytes -= self.classes[item.class].chunk_size;
        Some(item)
    }
}

impl StorageEngine for MemcachedEngine {
    const NAME: &'static str = "memcached";
    const OBJECT_BYTES: usize = ITEM_BYTES;
    const DELETE_FLIGHT: bool = true;

    fn insert(
        &mut self,
        key: ExternalKey,
        value: PageContents,
        stats: &StoreCounters,
    ) -> Result<(), KvError> {
        let class = self.class_for(ITEM_BYTES);
        let chunk = self.classes[class].chunk_size;
        self.take(key);
        // Evict LRU items of this class until the chunk fits.
        while self.used_bytes + chunk > self.capacity_bytes {
            let Some((_, &victim)) = self.classes[class].lru.first_key_value() else {
                return Err(KvError::OutOfCapacity);
            };
            self.take(victim);
            stats.evictions.inc();
        }
        let lru_seq = self.next_seq;
        self.next_seq += 1;
        let item = Item {
            value,
            class,
            lru_seq,
        };
        self.items.insert(key, item);
        self.classes[class].lru.insert(lru_seq, key);
        self.used_bytes += chunk;
        Ok(())
    }

    fn peek(&self, key: ExternalKey) -> Option<PageContents> {
        self.items.get(key).map(|item| item.value.clone())
    }

    /// A hit moves the item to the warm end of its class's LRU.
    fn lookup(&mut self, key: ExternalKey) -> Option<PageContents> {
        let item = self.items.get_mut(key)?;
        let lru = &mut self.classes[item.class].lru;
        lru.remove(&item.lru_seq);
        item.lru_seq = self.next_seq;
        self.next_seq += 1;
        lru.insert(item.lru_seq, key);
        Some(item.value.clone())
    }

    fn remove(&mut self, key: ExternalKey) -> bool {
        self.take(key).is_some()
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn partition_keys(&self, partition: PartitionId) -> Vec<ExternalKey> {
        self.items.keys(partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyValueStore;
    use fluidmem_mem::Vpn;

    fn key(n: u64) -> ExternalKey {
        ExternalKey::new(Vpn::new(n), PartitionId::new(0))
    }

    fn small_store(items: usize) -> MemcachedStore {
        // Enough slab memory for exactly `items` page items.
        let chunk = {
            let probe = MemcachedStore::new(1 << 20, SimClock::new(), SimRng::seed_from_u64(0));
            probe.engine.classes[probe.engine.class_for(ITEM_BYTES)].chunk_size
        };
        MemcachedStore::new(chunk * items, SimClock::new(), SimRng::seed_from_u64(1))
    }

    #[test]
    fn eviction_is_lru_and_counted() {
        let mut s = small_store(3);
        s.put(key(1), PageContents::Token(1)).unwrap();
        s.put(key(2), PageContents::Token(2)).unwrap();
        s.put(key(3), PageContents::Token(3)).unwrap();
        // Touch key 1 so key 2 is the LRU victim.
        s.get(key(1)).unwrap();
        s.put(key(4), PageContents::Token(4)).unwrap();
        assert_eq!(s.stats().evictions, 1);
        assert!(s.peek(key(1)).is_some(), "recently used item survived");
        assert!(s.peek(key(2)).is_none(), "LRU item evicted");
        assert!(matches!(s.get(key(2)), Err(KvError::NotFound(_))));
    }

    #[test]
    fn overwrite_does_not_grow_usage() {
        let mut s = small_store(4);
        s.put(key(1), PageContents::Token(1)).unwrap();
        let used = s.engine.used_bytes;
        s.put(key(1), PageContents::Token(2)).unwrap();
        assert_eq!(s.engine.used_bytes, used);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn tcp_transport_is_slower_than_ramcloud() {
        let clock = SimClock::new();
        let mut mc = MemcachedStore::new(16 << 20, clock.clone(), SimRng::seed_from_u64(2));
        let t0 = clock.now();
        mc.put(key(1), PageContents::Token(1)).unwrap();
        mc.get(key(1)).unwrap();
        let tcp_cost = clock.now() - t0;

        let clock2 = SimClock::new();
        let mut rc = crate::RamCloudStore::new(16 << 20, clock2.clone(), SimRng::seed_from_u64(2));
        let t0 = clock2.now();
        rc.put(key(1), PageContents::Token(1)).unwrap();
        rc.get(key(1)).unwrap();
        let ib_cost = clock2.now() - t0;

        assert!(
            tcp_cost > ib_cost * 2,
            "memcached {tcp_cost} should be much slower than ramcloud {ib_cost}"
        );
    }

    #[test]
    fn slab_classes_grow_geometrically() {
        let s = MemcachedStore::new(1 << 20, SimClock::new(), SimRng::seed_from_u64(0));
        let s = s.engine;
        for w in s.classes.windows(2) {
            assert!(w[1].chunk_size > w[0].chunk_size);
        }
        // A 4 KB page lands in a class that fits it snugly (< 2x).
        let c = s.class_for(ITEM_BYTES);
        assert!(s.classes[c].chunk_size >= ITEM_BYTES);
        assert!(s.classes[c].chunk_size < ITEM_BYTES * 2);
    }
}
