//! The local-DRAM store baseline.

use fluidmem_coord::PartitionId;
use fluidmem_mem::{PageContents, PAGE_SIZE};
use fluidmem_sim::{FastMap, SimClock, SimRng};

use crate::error::KvError;
use crate::key::ExternalKey;
use crate::pending::{PendingGet, PendingWrite};
use crate::stats::{StoreCounters, StoreStats};
use crate::store::KeyValueStore;
use crate::transport::TransportModel;
use fluidmem_telemetry::Registry;

/// An in-process page store on the hypervisor's own DRAM — the paper's
/// "FluidMem DRAM" configuration, used to isolate monitor overhead from
/// network latency (Figure 3a, Table II's DRAM columns).
///
/// # Example
///
/// ```
/// use fluidmem_coord::PartitionId;
/// use fluidmem_kv::{DramStore, ExternalKey, KeyValueStore};
/// use fluidmem_mem::{PageContents, Vpn};
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let mut store = DramStore::new(16 << 20, SimClock::new(), SimRng::seed_from_u64(1));
/// let key = ExternalKey::new(Vpn::new(1), PartitionId::new(0));
/// store.put(key, PageContents::Token(1))?;
/// assert!(store.contains(key));
/// # Ok::<(), fluidmem_kv::KvError>(())
/// ```
#[derive(Debug)]
pub struct DramStore {
    map: FastMap<u64, PageContents>,
    capacity_pages: usize,
    transport: TransportModel,
    clock: SimClock,
    rng: SimRng,
    stats: StoreCounters,
}

impl DramStore {
    /// Creates a store holding up to `capacity_bytes` of pages.
    pub fn new(capacity_bytes: usize, clock: SimClock, rng: SimRng) -> Self {
        DramStore {
            map: FastMap::default(),
            capacity_pages: (capacity_bytes / PAGE_SIZE).max(1),
            transport: TransportModel::local(),
            clock,
            rng,
            stats: StoreCounters::new(),
        }
    }
}

impl KeyValueStore for DramStore {
    fn name(&self) -> &'static str {
        "dram"
    }

    fn put(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        let cost = self.transport.sample_top_half(&mut self.rng)
            + self.transport.sample_flight(&mut self.rng, PAGE_SIZE)
            + self.transport.sample_bottom_half(&mut self.rng);
        self.clock.advance(cost);
        if !self.map.contains_key(&key.raw()) && self.map.len() >= self.capacity_pages {
            return Err(KvError::OutOfCapacity);
        }
        self.map.insert(key.raw(), value);
        self.stats.puts.inc();
        self.stats.put_latency.observe(cost);
        Ok(())
    }

    fn delete(&mut self, key: ExternalKey) -> bool {
        let cost = self.transport.sample_top_half(&mut self.rng);
        self.clock.advance(cost);
        let existed = self.map.remove(&key.raw()).is_some();
        if existed {
            self.stats.deletes.inc();
        }
        existed
    }

    fn begin_get(&mut self, key: ExternalKey) -> PendingGet {
        let issued_at = self.clock.now();
        let top = self.transport.sample_top_half(&mut self.rng);
        self.clock.advance(top);
        let flight = self.transport.sample_flight(&mut self.rng, PAGE_SIZE);
        let result = match self.map.get(&key.raw()) {
            Some(v) => Ok(v.clone()),
            None => Err(KvError::NotFound(key)),
        };
        PendingGet {
            key,
            result,
            issued_at,
            completes_at: self.clock.now() + flight,
        }
    }

    fn finish_get(&mut self, pending: PendingGet) -> Result<PageContents, KvError> {
        self.clock.advance_to(pending.completes_at);
        let bottom = self.transport.sample_bottom_half(&mut self.rng);
        self.clock.advance(bottom);
        self.stats
            .get_latency
            .observe(self.clock.now() - pending.issued_at);
        match pending.result {
            Ok(v) => {
                self.stats.gets.inc();
                Ok(v)
            }
            Err(e) => {
                self.stats.get_misses.inc();
                Err(e)
            }
        }
    }

    fn begin_multi_write(
        &mut self,
        batch: Vec<(ExternalKey, PageContents)>,
    ) -> Result<PendingWrite, KvError> {
        let count = batch.len();
        let issued_at = self.clock.now();
        let top = self.transport.sample_top_half(&mut self.rng);
        self.clock.advance(top);
        let flight = self
            .transport
            .sample_batch_flight(&mut self.rng, count, count * PAGE_SIZE);
        let mut keys = Vec::with_capacity(count);
        for (key, value) in batch {
            if !self.map.contains_key(&key.raw()) && self.map.len() >= self.capacity_pages {
                return Err(KvError::OutOfCapacity);
            }
            self.map.insert(key.raw(), value);
            keys.push(key);
        }
        self.stats.batched_puts.add(count as u64);
        self.stats.multi_writes.inc();
        Ok(PendingWrite {
            keys,
            issued_at,
            completes_at: self.clock.now() + flight,
        })
    }

    fn finish_write(&mut self, pending: PendingWrite) {
        self.clock.advance_to(pending.completes_at);
        let bottom = self.transport.sample_bottom_half(&mut self.rng);
        self.clock.advance(bottom);
        self.stats
            .multi_write_latency
            .observe(self.clock.now() - pending.issued_at);
    }

    fn drop_partition(&mut self, partition: PartitionId) -> u64 {
        let before = self.map.len();
        self.map
            .retain(|&raw, _| raw & 0xFFF != u64::from(partition.raw()));
        let n = (before - self.map.len()) as u64;
        self.stats.deletes.add(n);
        n
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn contains(&self, key: ExternalKey) -> bool {
        self.map.contains_key(&key.raw())
    }

    fn partition_keys(&self, partition: PartitionId) -> Vec<ExternalKey> {
        let mut keys: Vec<ExternalKey> = self
            .map
            .keys()
            .filter(|&&raw| raw & 0xFFF == u64::from(partition.raw()))
            .map(|&raw| ExternalKey::from_raw(raw))
            .collect();
        keys.sort_unstable();
        keys
    }

    fn peek(&self, key: ExternalKey) -> Option<PageContents> {
        self.map.get(&key.raw()).cloned()
    }

    fn ingest(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        if !self.map.contains_key(&key.raw()) && self.map.len() >= self.capacity_pages {
            return Err(KvError::OutOfCapacity);
        }
        self.map.insert(key.raw(), value);
        Ok(())
    }

    fn expunge(&mut self, key: ExternalKey) -> bool {
        self.map.remove(&key.raw()).is_some()
    }

    fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }

    fn instrument(&mut self, registry: &Registry) {
        self.stats.register(registry, self.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_mem::Vpn;
    use fluidmem_sim::SimDuration;

    fn key(n: u64) -> ExternalKey {
        ExternalKey::new(Vpn::new(n), PartitionId::new(0))
    }

    #[test]
    fn roundtrip_and_capacity() {
        let mut s = DramStore::new(2 * PAGE_SIZE, SimClock::new(), SimRng::seed_from_u64(1));
        s.put(key(1), PageContents::Token(1)).unwrap();
        s.put(key(2), PageContents::Token(2)).unwrap();
        assert!(matches!(
            s.put(key(3), PageContents::Token(3)),
            Err(KvError::OutOfCapacity)
        ));
        // Overwrite of an existing key is always allowed.
        s.put(key(1), PageContents::Token(9)).unwrap();
        assert_eq!(s.get(key(1)).unwrap(), PageContents::Token(9));
    }

    #[test]
    fn local_ops_are_sub_3us() {
        let clock = SimClock::new();
        let mut s = DramStore::new(1 << 20, clock.clone(), SimRng::seed_from_u64(1));
        s.put(key(1), PageContents::Token(1)).unwrap();
        let t0 = clock.now();
        s.get(key(1)).unwrap();
        assert!((clock.now() - t0) < SimDuration::from_micros(3));
    }

    #[test]
    fn stats_track_misses() {
        let mut s = DramStore::new(1 << 20, SimClock::new(), SimRng::seed_from_u64(1));
        let _ = s.get(key(1));
        s.put(key(1), PageContents::Token(1)).unwrap();
        let _ = s.get(key(1));
        assert_eq!(s.stats().get_misses, 1);
        assert_eq!(s.stats().gets, 1);
    }
}
