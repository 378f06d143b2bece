//! A RAMCloud-like log-structured store.

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

impl LogRecord {
    /// Marks the record dead and lets go of its payload. A dead version
    /// is never read again — recovery indexes live records only and the
    /// cleaner drops dead ones — and the log space it occupies is
    /// counted in `RECORD_BYTES`, not by the payload it held.
    fn kill(&mut self) {
        self.live = false;
        self.value = PageContents::Zero;
    }
}

#[derive(Debug, Default)]
struct Segment {
    records: Vec<LogRecord>,
    live: usize,
}

impl Segment {
    fn is_sealed_at(&self, records_per_segment: usize) -> bool {
        self.records.len() >= records_per_segment
    }

    fn utilization(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.live as f64 / self.records.len() as f64
    }
}

/// A log-structured, DRAM-resident store in the style of RAMCloud
/// (Ousterhout et al.): an append-only segmented log, a hash-table index,
/// a segment cleaner that compacts dead space, and batched
/// `multiRead`/`multiWrite` operations — the store the paper gives 25 GB
/// of memory on a separate server (§VI-A).
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
#[derive(Debug)]
pub struct RamCloudStore {
    segments: Vec<Segment>,
    head: usize,
    index: FastMap<u64, (u32, u32)>,
    capacity_records: usize,
    records_per_segment: usize,
    live_records: usize,
    total_records: usize,
    transport: TransportModel,
    clock: SimClock,
    rng: SimRng,
    stats: StoreCounters,
}

impl RamCloudStore {
    /// Creates a store with `capacity_bytes` of log space, reached over
    /// InfiniBand verbs.
    pub fn new(capacity_bytes: usize, clock: SimClock, rng: SimRng) -> Self {
        Self::with_transport(
            capacity_bytes,
            TransportModel::infiniband_verbs(),
            clock,
            rng,
        )
    }

    /// Creates a store with an explicit transport model.
    pub fn with_transport(
        capacity_bytes: usize,
        transport: TransportModel,
        clock: SimClock,
        rng: SimRng,
    ) -> Self {
        let capacity_records = (capacity_bytes / RECORD_BYTES).max(1);
        let records_per_segment = (SEGMENT_BYTES / RECORD_BYTES)
            .min(capacity_records.div_ceil(MIN_SEGMENTS))
            .max(8);
        RamCloudStore {
            segments: vec![Segment::default()],
            head: 0,
            index: FastMap::default(),
            capacity_records,
            records_per_segment,
            live_records: 0,
            total_records: 0,
            transport,
            clock,
            rng,
            stats: StoreCounters::new(),
        }
    }

    /// Simulates the server crashing and recovering: the DRAM hash-table
    /// index is lost and rebuilt by replaying the (durable, replicated)
    /// log — the "fast crash recovery" design of Ongaro et al. (SOSP'11,
    /// the paper's citation \[33\]). Charges recovery time proportional to
    /// the log size; later records win replay conflicts, so the recovered
    /// index is exactly the pre-crash one.
    pub fn crash_and_recover(&mut self) -> fluidmem_sim::SimDuration {
        self.stats.recoveries.inc();
        let t0 = self.clock.now();
        self.index.clear();
        // Replay: ~0.6 µs per log record (hash insert + checksum), spread
        // over the recovery masters; single-server model charges it all.
        let per_record = fluidmem_sim::SimDuration::from_nanos(600);
        let mut replayed = 0u64;
        for (si, seg) in self.segments.iter().enumerate() {
            for (ri, rec) in seg.records.iter().enumerate() {
                replayed += 1;
                if rec.live {
                    self.index.insert(rec.key.raw(), (si as u32, ri as u32));
                }
            }
        }
        self.clock.advance(per_record * replayed);
        self.clock.now() - t0
    }

    /// Fraction of the log occupied by live records.
    pub fn log_utilization(&self) -> f64 {
        if self.total_records == 0 {
            return 0.0;
        }
        self.live_records as f64 / self.total_records as f64
    }

    /// Number of log segments (including the open head).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn kill_existing(&mut self, key: ExternalKey) {
        if let Some((seg, idx)) = self.index.remove(&key.raw()) {
            let segment = &mut self.segments[seg as usize];
            let rec = &mut segment.records[idx as usize];
            debug_assert!(rec.live);
            rec.kill();
            segment.live -= 1;
            self.live_records -= 1;
        }
    }

    /// Appends a record, running the cleaner if the log is full.
    fn append(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        if self.total_records >= self.capacity_records {
            self.clean();
            if self.total_records >= self.capacity_records {
                return Err(KvError::OutOfCapacity);
            }
        }
        if self.segments[self.head].is_sealed_at(self.records_per_segment) {
            self.segments.push(Segment::default());
            self.head = self.segments.len() - 1;
        }
        let seg = self.head as u32;
        let idx = self.segments[self.head].records.len() as u32;
        self.segments[self.head].records.push(LogRecord {
            key,
            value,
            live: true,
        });
        self.segments[self.head].live += 1;
        self.index.insert(key.raw(), (seg, idx));
        self.live_records += 1;
        self.total_records += 1;
        Ok(())
    }

    /// The log cleaner: compacts sealed segments with the most dead
    /// space by relocating their live records to fresh segments. Runs on
    /// the server's spare cores, so it charges no monitor time.
    fn clean(&mut self) {
        self.stats.cleanings.inc();
        // Collect live records from sealed segments with < 90% utilization.
        let mut survivors: Vec<(ExternalKey, PageContents)> = Vec::new();
        let mut freed = 0usize;
        let old_segments = std::mem::take(&mut self.segments);
        let mut kept: Vec<Segment> = Vec::new();
        for (i, seg) in old_segments.into_iter().enumerate() {
            let sealed = seg.records.len() >= self.records_per_segment;
            if sealed && seg.utilization() < 0.9 {
                freed += seg.records.len();
                for rec in seg.records {
                    if rec.live {
                        survivors.push((rec.key, rec.value));
                    }
                }
            } else {
                kept.push(seg);
                let _ = i;
            }
        }
        self.segments = if kept.is_empty() {
            vec![Segment::default()]
        } else {
            kept
        };
        self.head = self.segments.len() - 1;
        if self.segments[self.head].is_sealed_at(self.records_per_segment) {
            self.segments.push(Segment::default());
            self.head += 1;
        }
        self.total_records -= freed;
        self.live_records -= survivors.len();
        // Rebuild the index for everything (survivor relocation moves
        // records; keeping it simple and correct).
        self.index.clear();
        for (si, seg) in self.segments.iter().enumerate() {
            for (ri, rec) in seg.records.iter().enumerate() {
                if rec.live {
                    self.index.insert(rec.key.raw(), (si as u32, ri as u32));
                }
            }
        }
        for (key, value) in survivors {
            // Capacity now has room for every survivor by construction.
            self.append(key, value).expect("cleaner made room");
        }
    }
}

impl KeyValueStore for RamCloudStore {
    fn name(&self) -> &'static str {
        "ramcloud"
    }

    fn put(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        let top = self.transport.sample_top_half(&mut self.rng);
        let flight = self.transport.sample_flight(&mut self.rng, RECORD_BYTES);
        let bottom = self.transport.sample_bottom_half(&mut self.rng);
        self.clock.advance(top + flight + bottom);
        self.kill_existing(key);
        self.append(key, value)?;
        self.stats.puts.inc();
        self.stats.put_latency.observe(top + flight + bottom);
        Ok(())
    }

    fn delete(&mut self, key: ExternalKey) -> bool {
        let top = self.transport.sample_top_half(&mut self.rng);
        let flight = self.transport.sample_flight(&mut self.rng, 64);
        self.clock.advance(top + flight);
        let existed = self.index.contains_key(&key.raw());
        self.kill_existing(key);
        if existed {
            self.stats.deletes.inc();
        }
        existed
    }

    fn begin_get(&mut self, key: ExternalKey) -> PendingGet {
        let issued_at = self.clock.now();
        let top = self.transport.sample_top_half(&mut self.rng);
        self.clock.advance(top);
        let flight = self.transport.sample_flight(&mut self.rng, RECORD_BYTES);
        let result = match self.index.get(&key.raw()) {
            Some(&(seg, idx)) => Ok(self.segments[seg as usize].records[idx as usize]
                .value
                .clone()),
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
            .sample_batch_flight(&mut self.rng, count, count * RECORD_BYTES);
        let mut keys = Vec::with_capacity(count);
        for (key, value) in batch {
            self.kill_existing(key);
            self.append(key, value)?;
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
        let doomed: Vec<u64> = self
            .index
            .keys()
            .copied()
            .filter(|&raw| raw & 0xFFF == u64::from(partition.raw()))
            .collect();
        let n = doomed.len() as u64;
        for raw in doomed {
            if let Some((seg, idx)) = self.index.remove(&raw) {
                let segment = &mut self.segments[seg as usize];
                segment.records[idx as usize].kill();
                segment.live -= 1;
                self.live_records -= 1;
            }
        }
        self.stats.deletes.add(n);
        n
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn contains(&self, key: ExternalKey) -> bool {
        self.index.contains_key(&key.raw())
    }

    fn partition_keys(&self, partition: PartitionId) -> Vec<ExternalKey> {
        let mut keys: Vec<ExternalKey> = self
            .index
            .keys()
            .filter(|&&raw| raw & 0xFFF == u64::from(partition.raw()))
            .map(|&raw| ExternalKey::from_raw(raw))
            .collect();
        keys.sort_unstable();
        keys
    }

    fn peek(&self, key: ExternalKey) -> Option<PageContents> {
        let &(seg, idx) = self.index.get(&key.raw())?;
        Some(
            self.segments[seg as usize].records[idx as usize]
                .value
                .clone(),
        )
    }

    fn ingest(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        self.kill_existing(key);
        self.append(key, value)
    }

    fn expunge(&mut self, key: ExternalKey) -> bool {
        let existed = self.index.contains_key(&key.raw());
        self.kill_existing(key);
        existed
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

    fn store(mb: usize) -> RamCloudStore {
        RamCloudStore::new(mb << 20, SimClock::new(), SimRng::seed_from_u64(5))
    }

    fn key(n: u64) -> ExternalKey {
        ExternalKey::new(Vpn::new(n), PartitionId::new(0))
    }

    #[test]
    fn put_get_roundtrip_preserves_bytes() {
        let mut s = store(16);
        let value = PageContents::from_byte_fill(0x5A);
        s.put(key(1), value.clone()).unwrap();
        assert_eq!(s.get(key(1)).unwrap(), value);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn get_missing_is_not_found() {
        let mut s = store(16);
        assert!(matches!(s.get(key(9)), Err(KvError::NotFound(_))));
        assert_eq!(s.stats().get_misses, 1);
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
    fn multi_write_batches() {
        let mut s = store(64);
        let batch: Vec<_> = (0..32).map(|i| (key(i), PageContents::Token(i))).collect();
        s.multi_write(batch).unwrap();
        assert_eq!(s.len(), 32);
        assert_eq!(s.stats().multi_writes, 1);
        assert_eq!(s.stats().batched_puts, 32);
        for i in 0..32 {
            assert_eq!(s.get(key(i)).unwrap(), PageContents::Token(i));
        }
    }

    #[test]
    fn cleaner_reclaims_dead_space() {
        // Capacity ~2 segments; overwrite the same keys repeatedly so the
        // log fills with dead versions and the cleaner must run.
        let mut s = store(32);
        let n = (s.capacity_records / 4) as u64;
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

    #[test]
    fn drop_partition_removes_only_that_partition() {
        let mut s = store(16);
        let p0 = ExternalKey::new(Vpn::new(1), PartitionId::new(0));
        let p1 = ExternalKey::new(Vpn::new(1), PartitionId::new(1));
        s.put(p0, PageContents::Token(0)).unwrap();
        s.put(p1, PageContents::Token(1)).unwrap();
        assert_eq!(s.drop_partition(PartitionId::new(0)), 1);
        assert!(!s.contains(p0));
        assert!(s.contains(p1));
    }
}
