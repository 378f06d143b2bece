//! A MongoDB-like document store with a WiredTiger-style cache
//! (§VI-D2, Figure 5).

mod cache;

pub use cache::WiredTigerCache;

use fluidmem_block::BlockDevice;
use fluidmem_mem::{MemoryBackend, PageClass, Region, PAGE_SIZE};
use fluidmem_sim::{LatencyModel, SimDuration, SimRng};

/// Document-store parameters.
#[derive(Debug, Clone)]
pub struct DocStoreConfig {
    /// Number of 1 KB records (the paper loads ≈5 GB onto a local SSD).
    pub record_count: u64,
    /// Record payload size (YCSB: 1 KB).
    pub(crate) record_bytes: u64,
    /// WiredTiger cache size in bytes (the Figure 5 sweep: 1–3 GB).
    pub cache_bytes: u64,
    /// Query processing cost per read (parse, plan, BSON assembly, YCSB
    /// client loopback).
    pub(crate) base_op_cost: LatencyModel,
    /// B-tree index levels touched per lookup.
    pub(crate) index_depth: u32,
    /// Records per WiredTiger leaf-page image (32 KB images of 1 KB
    /// records → 32). The cache holds whole images, in *key* order — so
    /// a popular record shares its image with key-adjacent, mostly cold
    /// neighbors, exactly why the engine's working set is much larger
    /// than the hot record set.
    pub(crate) records_per_leaf: u64,
    /// Device reads per cache miss (B-tree block + data block).
    pub(crate) disk_reads_per_miss: u32,
    /// Filesystem / decompression overhead added to each cache miss.
    pub(crate) fs_overhead: LatencyModel,
}

impl DocStoreConfig {
    /// The paper's MongoDB setup scaled by `scale_denominator`
    /// (1 = 5 GB of records).
    pub fn paper(scale_denominator: u64, cache_bytes: u64) -> Self {
        let d = scale_denominator.max(1);
        DocStoreConfig {
            record_count: (5 * 1024 * 1024 / d).max(64), // 5M × 1KB = 5GB
            record_bytes: 1024,
            cache_bytes,
            base_op_cost: LatencyModel::lognormal_mean_p99_us(380.0, 900.0),
            index_depth: 3,
            records_per_leaf: 32,
            disk_reads_per_miss: 2,
            fs_overhead: LatencyModel::lognormal_mean_p99_us(90.0, 260.0),
        }
    }
}

impl DocStoreConfig {
    /// Guest pages per leaf image.
    pub(crate) fn leaf_pages(&self) -> u64 {
        (self.records_per_leaf * self.record_bytes).div_ceil(PAGE_SIZE as u64)
    }
}

/// The document store: records on a simulated disk, hot records in a
/// WiredTiger-style cache whose arena lives in guest memory.
///
/// Every read charges: query-processing CPU, index-page touches, then
/// either cache-arena touches (hit) or a disk read plus arena insertion
/// (miss). Under a swap-backed VM the arena and index pages themselves
/// page-fault, reproducing the unstable latency of Figure 5a.
pub struct DocumentStore {
    config: DocStoreConfig,
    disk: Box<dyn BlockDevice>,
    cache: WiredTigerCache,
    arena: Region,
    index: Region,
    disk_reads: u64,
}

impl DocumentStore {
    /// Creates the store: allocates the cache arena and index in the
    /// backend's guest memory and lays records out on `disk`.
    ///
    /// # Panics
    ///
    /// Panics if the disk is smaller than the record set.
    pub fn new(
        config: DocStoreConfig,
        disk: Box<dyn BlockDevice>,
        backend: &mut dyn MemoryBackend,
    ) -> Self {
        assert!(
            disk.capacity_blocks() >= config.record_count,
            "disk too small: {} blocks for {} records",
            disk.capacity_blocks(),
            config.record_count
        );
        // The cache holds whole leaf images.
        let leaf_bytes = config.records_per_leaf * config.record_bytes;
        let cache_slots = (config.cache_bytes / leaf_bytes).max(1);
        let arena_pages = (cache_slots * config.leaf_pages()).max(1);
        let arena = backend.map_region(arena_pages, PageClass::Anonymous);
        // B-tree index: ~24 bytes per record of interior+leaf structure.
        let index_pages = (config.record_count * 24).div_ceil(PAGE_SIZE as u64).max(1);
        let index = backend.map_region(index_pages, PageClass::FileBacked);
        DocumentStore {
            cache: WiredTigerCache::new(cache_slots),
            config,
            disk,
            arena,
            index,
            disk_reads: 0,
        }
    }

    /// Number of records.
    pub fn record_count(&self) -> u64 {
        self.config.record_count
    }

    /// Cache hits so far.
    pub(crate) fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Disk reads issued so far.
    pub fn disk_reads(&self) -> u64 {
        self.disk_reads
    }

    /// Touches every arena page of the leaf image in `slot` (the engine
    /// searches and copies within the whole 32 KB image).
    fn touch_image(&self, backend: &mut dyn MemoryBackend, slot: u64, write: bool) {
        let span = self.config.leaf_pages();
        let start = slot * span;
        for p in start..(start + span).min(self.arena.pages()) {
            backend.access(self.arena.page(p), write);
        }
    }

    /// Touches the index pages a key's lookup traverses.
    fn walk_index(&self, backend: &mut dyn MemoryBackend, key: u64) {
        let pages = self.index.pages();
        // Upper levels are hot (small page set); the leaf level is
        // key-dependent.
        for level in 0..self.config.index_depth {
            let page = if level + 1 == self.config.index_depth {
                // Leaf: spread across the whole index.
                (key.wrapping_mul(0x9e37_79b9)) % pages
            } else {
                // Interior: one of a few hot pages per level.
                u64::from(level) % pages.min(8)
            };
            backend.access(self.index.page(page), false);
        }
    }

    /// Reads one record, returning the request latency in virtual time.
    pub(crate) fn read(
        &mut self,
        backend: &mut dyn MemoryBackend,
        key: u64,
        rng: &mut SimRng,
    ) -> SimDuration {
        assert!(key < self.config.record_count, "key out of range");
        let start = backend.clock().now();
        let cost = self.config.base_op_cost.sample(rng);
        backend.clock().advance(cost);
        self.walk_index(backend, key);

        // The unit of caching is the leaf image containing the key.
        let leaf = key / self.config.records_per_leaf;
        if let Some(slot) = self.cache.lookup(leaf) {
            // Cache hit: the engine walks the record's whole WiredTiger
            // page image in the arena. Each of those guest pages may
            // fault (that is the whole §VI-D2 story).
            self.touch_image(backend, slot, false);
        } else {
            // Miss: B-tree block plus data block from disk, filesystem
            // and decompression overhead, then install into the arena.
            for r in 0..self.config.disk_reads_per_miss {
                let completion = self
                    .disk
                    .submit_read((leaf + u64::from(r) * 17) % self.disk.capacity_blocks())
                    .expect("records fit the disk");
                backend.clock().advance_to(completion.at);
                self.disk_reads += 1;
            }
            let overhead = self.config.fs_overhead.sample(rng);
            backend.clock().advance(overhead);
            let (slot, evicted) = self.cache.insert(leaf);
            if let Some(victim_slot) = evicted {
                // WiredTiger reconciles the victim image before freeing
                // it (dirty checks, checksum, free-list updates) — it
                // must *touch* the image's pages. If the guest memory
                // system paged them out, they fault straight back in
                // just to be discarded: the §VI-D2 "poor interaction"
                // between the engine's cache and the kernel.
                self.touch_image(backend, victim_slot, false);
            }
            self.touch_image(backend, slot, true);
        }
        backend.clock().now() - start
    }
}

impl std::fmt::Debug for DocumentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocumentStore")
            .field("records", &self.config.record_count)
            .field("cache_slots", &self.cache.capacity_slots())
            .field("disk", &self.disk.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_block::SsdDevice;
    use fluidmem_coord::PartitionId;
    use fluidmem_core::{FluidMemMemory, MonitorConfig};
    use fluidmem_kv::DramStore;
    use fluidmem_sim::{SimClock, SimRng};

    fn setup(cache_bytes: u64) -> (FluidMemMemory, DocumentStore) {
        let clock = SimClock::new();
        let kv = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(1));
        let mut backend = FluidMemMemory::new(
            MonitorConfig::new(1 << 20),
            Box::new(kv),
            PartitionId::new(0),
            clock.clone(),
            SimRng::seed_from_u64(2),
        );
        let disk = SsdDevice::new(1 << 16, clock, SimRng::seed_from_u64(3));
        let config = DocStoreConfig {
            record_count: 4096,
            record_bytes: 1024,
            cache_bytes,
            base_op_cost: LatencyModel::constant_us(100.0),
            index_depth: 3,
            records_per_leaf: 4,
            disk_reads_per_miss: 1,
            fs_overhead: LatencyModel::zero(),
        };
        let store = DocumentStore::new(config, Box::new(disk), &mut backend);
        (backend, store)
    }

    #[test]
    fn cold_read_hits_disk_warm_read_hits_cache() {
        let (mut backend, mut store) = setup(1 << 20);
        let mut rng = SimRng::seed_from_u64(4);
        let cold = store.read(&mut backend, 7, &mut rng);
        assert_eq!(store.disk_reads(), 1);
        let warm = store.read(&mut backend, 7, &mut rng);
        assert_eq!(store.disk_reads(), 1, "second read served from cache");
        assert!(
            cold > warm + SimDuration::from_micros(50),
            "cold {cold} vs warm {warm}"
        );
        assert_eq!(store.cache_hits(), 1);
    }

    #[test]
    fn small_cache_thrashes_to_disk() {
        // Cache of 64 records, uniform sweep over 512: every read misses
        // after the first pass too.
        let (mut backend, mut store) = setup(64 * 1024);
        let mut rng = SimRng::seed_from_u64(5);
        for k in 0..512 {
            store.read(&mut backend, k, &mut rng);
        }
        for k in 0..512 {
            store.read(&mut backend, k, &mut rng);
        }
        // 512 records = 128 leaves; a 16-leaf cache cannot hold the
        // cyclic sweep, so every leaf misses on both passes.
        assert_eq!(store.disk_reads(), 256, "LRU cannot hold a cyclic sweep");
    }

    #[test]
    #[should_panic(expected = "key out of range")]
    fn out_of_range_key_panics() {
        let (mut backend, mut store) = setup(1 << 20);
        let mut rng = SimRng::seed_from_u64(6);
        store.read(&mut backend, 4096, &mut rng);
    }

    #[test]
    #[should_panic(expected = "disk too small")]
    fn undersized_disk_rejected() {
        let clock = SimClock::new();
        let kv = DramStore::new(1 << 30, clock.clone(), SimRng::seed_from_u64(1));
        let mut backend = FluidMemMemory::new(
            MonitorConfig::new(1 << 20),
            Box::new(kv),
            PartitionId::new(0),
            clock.clone(),
            SimRng::seed_from_u64(2),
        );
        let disk = SsdDevice::new(16, clock, SimRng::seed_from_u64(3));
        let config = DocStoreConfig {
            record_count: 4096,
            record_bytes: 1024,
            cache_bytes: 1 << 20,
            base_op_cost: LatencyModel::constant_us(100.0),
            index_depth: 3,
            records_per_leaf: 4,
            disk_reads_per_miss: 1,
            fs_overhead: LatencyModel::zero(),
        };
        DocumentStore::new(config, Box::new(disk), &mut backend);
    }
}
