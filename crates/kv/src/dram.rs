//! The local-DRAM store baseline.

use fluidmem_coord::PartitionId;
use fluidmem_mem::{PageContents, PAGE_SIZE};
use fluidmem_sim::{SimClock, SimRng};

use crate::error::KvError;
use crate::key::{ExternalKey, KeyTable};
use crate::leaf::{LeafStore, StorageEngine};
use crate::stats::StoreCounters;
use crate::transport::TransportModel;

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
/// assert_eq!(store.get(key)?, PageContents::Token(1));
/// # Ok::<(), fluidmem_kv::KvError>(())
/// ```
pub type DramStore = LeafStore<DramEngine>;

/// The storage engine behind [`DramStore`]: a bounded table.
#[derive(Debug)]
pub struct DramEngine {
    map: KeyTable<PageContents>,
    capacity_pages: usize,
}

impl LeafStore<DramEngine> {
    /// Creates a store holding up to `capacity_bytes` of pages.
    pub fn new(capacity_bytes: usize, clock: SimClock, rng: SimRng) -> Self {
        let engine = DramEngine {
            map: KeyTable::new(),
            capacity_pages: (capacity_bytes / PAGE_SIZE).max(1),
        };
        LeafStore::over(engine, TransportModel::local(), clock, rng)
    }
}

impl StorageEngine for DramEngine {
    const NAME: &'static str = "dram";
    const OBJECT_BYTES: usize = PAGE_SIZE;
    const DELETE_FLIGHT: bool = false;

    fn insert(
        &mut self,
        key: ExternalKey,
        value: PageContents,
        _stats: &StoreCounters,
    ) -> Result<(), KvError> {
        // Overwrite of an existing key is always allowed.
        if self.map.get(key).is_none() && self.map.len() >= self.capacity_pages {
            return Err(KvError::OutOfCapacity);
        }
        self.map.insert(key, value);
        Ok(())
    }

    fn peek(&self, key: ExternalKey) -> Option<PageContents> {
        self.map.get(key).cloned()
    }

    fn remove(&mut self, key: ExternalKey) -> bool {
        self.map.remove(key).is_some()
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn partition_keys(&self, partition: PartitionId) -> Vec<ExternalKey> {
        self.map.keys(partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyValueStore;
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
}
