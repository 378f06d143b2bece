//! A RAMCloud-like log-structured store.

use fluidmem_coord::PartitionId;
use fluidmem_mem::{PageContents, PAGE_SIZE};
use fluidmem_sim::{SimClock, SimRng};

use crate::error::KvError;
use crate::key::{ExternalKey, KeyTable};
use crate::leaf::{LeafStore, StorageEngine};
use crate::stats::StoreCounters;
use crate::transport::TransportModel;

/// Logical bytes one page record occupies in the log (payload + header).
const RECORD_BYTES: usize = PAGE_SIZE + 100;
/// RAMCloud's segment size (the log is divided into at least
/// [`MIN_SEGMENTS`] segments even for small stores, so the cleaner always
/// has sealed segments to work with).
const SEGMENT_BYTES: usize = 8 * 1024 * 1024;
/// Minimum number of segments the log is divided into.
const MIN_SEGMENTS: usize = 16;

#[derive(Debug)]
struct LogRecord {
    key: ExternalKey,
    value: PageContents,
    live: bool,
}

#[derive(Debug, Default)]
struct Segment {
    records: Vec<LogRecord>,
    live: usize,
}

impl Segment {
    fn utilization(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.live as f64 / self.records.len() as f64
    }
}

/// A log-structured, DRAM-resident store in the style of RAMCloud
/// (Ousterhout et al.): an append-only segmented log, an index,
/// a segment cleaner that compacts dead space, and a batched
/// `multiWrite` — the store the paper gives 25 GB of memory on a
/// separate server (§VI-A).
///
/// Pages are pinned in the store's DRAM (RAMCloud "pins memory to ensure
/// that it is not paged out", §V-A); when the log is full the cleaner
/// reclaims dead space, and if nothing is dead the store refuses writes
/// rather than dropping data.
///
/// # Example
///
/// ```
/// use fluidmem_coord::PartitionId;
/// use fluidmem_kv::{ExternalKey, KeyValueStore, RamCloudStore};
/// use fluidmem_mem::{PageContents, Vpn};
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let mut store = RamCloudStore::new(64 << 20, SimClock::new(), SimRng::seed_from_u64(1));
/// let key = ExternalKey::new(Vpn::new(0x10), PartitionId::new(0));
/// store.put(key, PageContents::Token(7))?;
/// assert_eq!(store.get(key)?, PageContents::Token(7));
/// # Ok::<(), fluidmem_kv::KvError>(())
/// ```
pub type RamCloudStore = LeafStore<RamCloudEngine>;

/// The storage engine behind [`RamCloudStore`]: the segmented log, its
/// index and its cleaner.
#[derive(Debug)]
pub struct RamCloudEngine {
    segments: Vec<Segment>,
    /// Each live key's record: (segment, position in it).
    index: KeyTable<(u32, u32)>,
    capacity_records: usize,
    records_per_segment: usize,
    live_records: usize,
    total_records: usize,
}

impl LeafStore<RamCloudEngine> {
    /// Creates a store with `capacity_bytes` of log space, reached over
    /// InfiniBand verbs.
    pub fn new(capacity_bytes: usize, clock: SimClock, rng: SimRng) -> Self {
        let transport = TransportModel::infiniband_verbs();
        Self::with_transport(capacity_bytes, transport, clock, rng)
    }

    /// Creates a store with an explicit transport model.
    pub(crate) fn with_transport(
        capacity_bytes: usize,
        transport: TransportModel,
        clock: SimClock,
        rng: SimRng,
    ) -> Self {
        let capacity_records = (capacity_bytes / RECORD_BYTES).max(1);
        let engine = RamCloudEngine {
            segments: vec![Segment::default()],
            index: KeyTable::new(),
            capacity_records,
            records_per_segment: (SEGMENT_BYTES / RECORD_BYTES)
                .min(capacity_records.div_ceil(MIN_SEGMENTS))
                .max(8),
            live_records: 0,
            total_records: 0,
        };
        LeafStore::over(engine, transport, clock, rng)
    }

    /// Simulates the server crashing and recovering: the DRAM hash-table
    /// index is lost and rebuilt by replaying the (durable, replicated)
    /// log — the "fast crash recovery" design of Ongaro et al. (SOSP'11,
    /// the paper's citation \[33\]). Charges recovery time proportional to
    /// the log size; later records win replay conflicts, so the recovered
    /// index is exactly the pre-crash one.
    #[cfg(test)]
    fn crash_and_recover(&mut self) -> fluidmem_sim::SimDuration {
        self.stats.recoveries.inc();
        self.engine.reindex();
        // Replay: ~0.6 µs per log record (hash insert + checksum), spread
        // over the recovery masters; single-server model charges it all.
        let cost = fluidmem_sim::SimDuration::from_nanos(600) * self.engine.total_records as u64;
        self.clock.advance(cost);
        cost
    }

    /// Fraction of the log occupied by live records.
    #[cfg(test)]
    fn log_utilization(&self) -> f64 {
        if self.engine.total_records == 0 {
            return 0.0;
        }
        self.engine.live_records as f64 / self.engine.total_records as f64
    }
}

impl RamCloudEngine {
    fn is_sealed(&self, segment: &Segment) -> bool {
        segment.records.len() >= self.records_per_segment
    }

    /// Rebuilds the index from the live records of the log, in the
    /// index's own storage.
    fn reindex(&mut self) {
        self.index.clear();
        for (si, seg) in self.segments.iter().enumerate() {
            for (ri, rec) in seg.records.iter().enumerate() {
                if rec.live {
                    self.index.insert(rec.key, (si as u32, ri as u32));
                }
            }
        }
    }

    /// Appends a record to the head segment, running the cleaner if the
    /// log is full.
    fn append(
        &mut self,
        key: ExternalKey,
        value: PageContents,
        stats: &StoreCounters,
    ) -> Result<(), KvError> {
        if self.total_records >= self.capacity_records {
            self.clean(stats);
            if self.total_records >= self.capacity_records {
                return Err(KvError::OutOfCapacity);
            }
        }
        if self.is_sealed(&self.segments[self.segments.len() - 1]) {
            self.segments.push(Segment::default());
        }
        let seg = self.segments.len() - 1;
        let head = &mut self.segments[seg];
        self.index
            .insert(key, (seg as u32, head.records.len() as u32));
        head.records.push(LogRecord {
            key,
            value,
            live: true,
        });
        head.live += 1;
        self.live_records += 1;
        self.total_records += 1;
        Ok(())
    }

    /// The log cleaner: compacts sealed segments with the most dead
    /// space by relocating their live records to fresh segments. Runs on
    /// the server's spare cores, so it charges no monitor time.
    fn clean(&mut self, stats: &StoreCounters) {
        stats.cleanings.inc();
        // Collect live records from sealed segments with < 90% utilization.
        let mut survivors: Vec<(ExternalKey, PageContents)> = Vec::new();
        let mut freed = 0usize;
        let mut kept: Vec<Segment> = Vec::new();
        for seg in std::mem::take(&mut self.segments) {
            if self.is_sealed(&seg) && seg.utilization() < 0.9 {
                freed += seg.records.len();
                survivors.extend(
                    seg.records
                        .into_iter()
                        .filter(|rec| rec.live)
                        .map(|rec| (rec.key, rec.value)),
                );
            } else {
                kept.push(seg);
            }
        }
        if kept.last().is_none_or(|head| self.is_sealed(head)) {
            kept.push(Segment::default());
        }
        self.segments = kept;
        self.total_records -= freed;
        self.live_records -= survivors.len();
        // Dropping segments renumbers the ones that stay.
        self.reindex();
        for (key, value) in survivors {
            // Capacity now has room for every survivor by construction.
            self.append(key, value, stats).expect("cleaner made room");
        }
    }
}

impl StorageEngine for RamCloudEngine {
    const NAME: &'static str = "ramcloud";
    const OBJECT_BYTES: usize = RECORD_BYTES;
    const DELETE_FLIGHT: bool = true;

    fn insert(
        &mut self,
        key: ExternalKey,
        value: PageContents,
        stats: &StoreCounters,
    ) -> Result<(), KvError> {
        self.remove(key);
        self.append(key, value, stats)
    }

    fn peek(&self, key: ExternalKey) -> Option<PageContents> {
        let &(seg, idx) = self.index.get(key)?;
        Some(
            self.segments[seg as usize].records[idx as usize]
                .value
                .clone(),
        )
    }

    /// Marks the record dead and lets go of its payload. A dead version
    /// is never read again — recovery indexes live records only and the
    /// cleaner drops dead ones — and the log space it occupies is
    /// counted in `RECORD_BYTES`, not by the payload it held.
    fn remove(&mut self, key: ExternalKey) -> bool {
        let Some((seg, idx)) = self.index.remove(key) else {
            return false;
        };
        let segment = &mut self.segments[seg as usize];
        let rec = &mut segment.records[idx as usize];
        debug_assert!(rec.live);
        rec.live = false;
        rec.value = PageContents::Zero;
        segment.live -= 1;
        self.live_records -= 1;
        true
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn partition_keys(&self, partition: PartitionId) -> Vec<ExternalKey> {
        self.index.keys(partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyValueStore;
    use fluidmem_mem::Vpn;
    use fluidmem_sim::SimDuration;

    fn store(mb: usize) -> RamCloudStore {
        RamCloudStore::new(mb << 20, SimClock::new(), SimRng::seed_from_u64(5))
    }

    fn key(n: u64) -> ExternalKey {
        ExternalKey::new(Vpn::new(n), PartitionId::new(0))
    }

    #[test]
    fn overwrite_keeps_latest_and_tracks_dead_space() {
        let mut s = store(16);
        s.put(key(1), PageContents::Token(1)).unwrap();
        s.put(key(1), PageContents::Token(2)).unwrap();
        assert_eq!(s.get(key(1)).unwrap(), PageContents::Token(2));
        assert_eq!(s.len(), 1);
        assert!(s.log_utilization() < 1.0, "old version must be dead space");
    }

    #[test]
    fn dead_versions_let_go_of_their_payload() {
        let holders = |page: &PageContents| match page {
            PageContents::Bytes(buf) => std::sync::Arc::strong_count(buf),
            other => panic!("expected a byte page, got {other:?}"),
        };
        let mut s = store(16);
        let [a, b, c] = [1u8, 2, 3].map(PageContents::from_byte_fill);
        s.put(key(1), a.clone()).unwrap();
        s.put(key(2), b.clone()).unwrap();
        s.put(
            ExternalKey::new(Vpn::new(3), PartitionId::new(7)),
            c.clone(),
        )
        .unwrap();
        assert_eq!((holders(&a), holders(&b), holders(&c)), (2, 2, 2));
        // Overwrite, delete, partition drop: each leaves a dead record
        // in the log — still counted as dead space — that holds nothing.
        s.put(key(1), PageContents::Token(9)).unwrap();
        s.delete(key(2));
        s.drop_partition(PartitionId::new(7));
        assert_eq!((holders(&a), holders(&b), holders(&c)), (1, 1, 1));
        assert!(s.log_utilization() < 0.5);
        s.crash_and_recover();
        assert_eq!(s.get(key(1)).unwrap(), PageContents::Token(9));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn delete_removes_and_reports() {
        let mut s = store(16);
        s.put(key(1), PageContents::Token(1)).unwrap();
        assert!(s.delete(key(1)));
        assert!(!s.delete(key(1)));
        assert!(s.get(key(1)).is_err());
    }

    #[test]
    fn operations_charge_virtual_time() {
        let mut s = store(16);
        let t0 = s.clock.now();
        s.put(key(1), PageContents::Token(1)).unwrap();
        let after_put = s.clock.now();
        assert!(
            (after_put - t0) >= SimDuration::from_micros(8),
            "a put must pay a network round trip"
        );
        s.get(key(1)).unwrap();
        assert!(s.clock.now() > after_put);
    }

    #[test]
    fn async_get_overlaps_with_other_work() {
        let mut s = store(16);
        s.put(key(1), PageContents::Token(1)).unwrap();
        let pending = s.begin_get(key(1));
        let issued_at = s.clock.now();
        // Monitor does 50µs of other work while the response flies.
        s.clock.advance(SimDuration::from_micros(50));
        let before_finish = s.clock.now();
        s.finish_get(pending).unwrap();
        let wait = s.clock.now() - before_finish;
        assert!(
            wait < SimDuration::from_micros(3),
            "overlapped get should only pay the bottom half, waited {wait}"
        );
        assert!(before_finish - issued_at >= SimDuration::from_micros(50));
    }

    #[test]
    fn in_flight_get_is_snapshot_isolated() {
        let mut s = store(16);
        s.put(key(1), PageContents::Token(1)).unwrap();
        let pending = s.begin_get(key(1));
        s.put(key(1), PageContents::Token(2)).unwrap();
        assert_eq!(
            s.finish_get(pending).unwrap(),
            PageContents::Token(1),
            "response was formed before the second put"
        );
    }

    #[test]
    fn cleaner_reclaims_dead_space() {
        // Capacity ~2 segments; overwrite the same keys repeatedly so the
        // log fills with dead versions and the cleaner must run.
        let mut s = store(32);
        let n = (s.engine.capacity_records / 4) as u64;
        for round in 0..8u64 {
            for i in 0..n {
                s.put(key(i), PageContents::Token(round)).unwrap();
            }
        }
        assert!(s.stats().cleanings > 0, "cleaner should have run");
        for i in 0..n {
            assert_eq!(s.get(key(i)).unwrap(), PageContents::Token(7));
        }
    }

    #[test]
    fn full_of_live_data_refuses_writes() {
        let mut s = RamCloudStore::new(RECORD_BYTES * 8, SimClock::new(), SimRng::seed_from_u64(1));
        for i in 0..8u64 {
            s.put(key(i), PageContents::Token(i)).unwrap();
        }
        assert!(matches!(
            s.put(key(100), PageContents::Token(0)),
            Err(KvError::OutOfCapacity)
        ));
        // Existing data still intact.
        assert_eq!(s.get(key(3)).unwrap(), PageContents::Token(3));
    }

    #[test]
    fn crash_recovery_rebuilds_exact_index() {
        let mut s = store(16);
        for i in 0..64u64 {
            s.put(key(i), PageContents::Token(i)).unwrap();
        }
        // Create dead space so replay must resolve conflicts.
        for i in 0..32u64 {
            s.put(key(i), PageContents::Token(1000 + i)).unwrap();
        }
        s.delete(key(63));
        let recovery_time = s.crash_and_recover();
        assert!(!recovery_time.is_zero());
        assert_eq!(s.stats().recoveries, 1);
        for i in 0..32u64 {
            assert_eq!(s.get(key(i)).unwrap(), PageContents::Token(1000 + i));
        }
        for i in 32..63u64 {
            assert_eq!(s.get(key(i)).unwrap(), PageContents::Token(i));
        }
        assert!(s.get(key(63)).is_err(), "deletes survive recovery");
    }

    #[test]
    fn recovery_time_scales_with_log() {
        let mut small = store(16);
        for i in 0..16u64 {
            small.put(key(i), PageContents::Token(i)).unwrap();
        }
        let mut big = store(64);
        for i in 0..2048u64 {
            big.put(key(i), PageContents::Token(i)).unwrap();
        }
        assert!(big.crash_and_recover() > small.crash_and_recover() * 8);
    }
}
