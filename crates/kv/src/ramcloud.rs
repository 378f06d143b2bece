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

/// A live key's value and the log record that holds its place: the
/// record at position `pos` of segment `seg`.
#[derive(Debug, Clone)]
struct Entry {
    value: PageContents,
    seg: u32,
    pos: u32,
}

/// A log segment: the key of each record in append order, and how many
/// of them are live. A record is live iff its key's [`Entry`] points back
/// at it, so a segment holds no payloads.
#[derive(Debug, Default)]
struct Segment {
    keys: Vec<ExternalKey>,
    live: usize,
}

impl Segment {
    fn utilization(&self) -> f64 {
        if self.keys.is_empty() {
            return 1.0;
        }
        self.live as f64 / self.keys.len() as f64
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
/// index and its cleaner. The index holds each live value, so a get
/// reads one slot and no segment; the log keeps only keys, which is all
/// the cleaner and its record accounting need.
#[derive(Debug)]
pub struct RamCloudEngine {
    segments: Vec<Segment>,
    index: KeyTable<Entry>,
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
        LeafStore::over(RamCloudEngine::new(capacity_bytes), transport, clock, rng)
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
    fn new(capacity_bytes: usize) -> Self {
        let capacity_records = (capacity_bytes / RECORD_BYTES).max(1);
        RamCloudEngine {
            segments: vec![Segment::default()],
            index: KeyTable::new(),
            capacity_records,
            records_per_segment: (SEGMENT_BYTES / RECORD_BYTES)
                .min(capacity_records.div_ceil(MIN_SEGMENTS))
                .max(8),
            live_records: 0,
            total_records: 0,
        }
    }

    fn is_sealed(&self, segment: &Segment) -> bool {
        segment.keys.len() >= self.records_per_segment
    }

    /// Whether `key`'s record at `pos` of segment `seg` is its live one.
    fn is_live(&self, key: ExternalKey, seg: usize, pos: usize) -> bool {
        self.index
            .get(key)
            .is_some_and(|e| (e.seg as usize, e.pos as usize) == (seg, pos))
    }

    /// Appends a live record for `key` to the head segment and returns
    /// where it went; the caller points `key`'s entry at it.
    fn push_record(&mut self, key: ExternalKey) -> (u32, u32) {
        if self.is_sealed(&self.segments[self.segments.len() - 1]) {
            let keys = Vec::with_capacity(self.records_per_segment);
            self.segments.push(Segment { keys, live: 0 });
        }
        let seg = self.segments.len() - 1;
        let head = &mut self.segments[seg];
        let pos = head.keys.len();
        head.keys.push(key);
        head.live += 1;
        self.live_records += 1;
        self.total_records += 1;
        (seg as u32, pos as u32)
    }

    /// Appends `key`'s new version, running the cleaner if the log is
    /// full.
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
        let (seg, pos) = self.push_record(key);
        self.index.insert(key, Entry { value, seg, pos });
        Ok(())
    }

    /// Takes `key`'s entry out of the index; its record stays in the log
    /// as dead space.
    fn kill(&mut self, key: ExternalKey) -> Option<Entry> {
        let entry = self.index.remove(key)?;
        self.segments[entry.seg as usize].live -= 1;
        self.live_records -= 1;
        Some(entry)
    }

    /// The log cleaner: compacts sealed segments with the most dead
    /// space by relocating their live records to fresh segments. Runs on
    /// the server's spare cores, so it charges no monitor time.
    fn clean(&mut self, stats: &StoreCounters) {
        stats.cleanings.inc();
        // Collect live records from sealed segments with < 90% utilization.
        let mut survivors: Vec<ExternalKey> = Vec::new();
        let mut freed = 0usize;
        let mut kept: Vec<(usize, Segment)> = Vec::new();
        for (old, seg) in std::mem::take(&mut self.segments).into_iter().enumerate() {
            if self.is_sealed(&seg) && seg.utilization() < 0.9 {
                freed += seg.keys.len();
                let live = seg.keys.iter().enumerate();
                let live = live.filter(|&(pos, &key)| self.is_live(key, old, pos));
                survivors.extend(live.map(|(_, &key)| key));
            } else {
                kept.push((old, seg));
            }
        }
        // Dropping segments renumbers the ones that stay. Each moves down,
        // never onto a number still to be visited, so no stale entry is
        // mistaken for a live one.
        for (new, (old, seg)) in kept.iter().enumerate() {
            if new == *old {
                continue;
            }
            for (pos, &key) in seg.keys.iter().enumerate() {
                if self.is_live(key, *old, pos) {
                    self.index.get_mut(key).expect("live").seg = new as u32;
                }
            }
        }
        self.segments = kept.into_iter().map(|(_, seg)| seg).collect();
        if self.segments.last().is_none_or(|head| self.is_sealed(head)) {
            self.segments.push(Segment::default());
        }
        self.total_records -= freed;
        self.live_records -= survivors.len();
        for key in survivors {
            // Capacity now has room for every survivor by construction.
            debug_assert!(self.total_records < self.capacity_records);
            let (seg, pos) = self.push_record(key);
            let entry = self.index.get_mut(key).expect("a survivor is live");
            (entry.seg, entry.pos) = (seg, pos);
        }
    }
}

impl StorageEngine for RamCloudEngine {
    const NAME: &'static str = "ramcloud";
    const OBJECT_BYTES: usize = RECORD_BYTES;
    const DELETE_FLIGHT: bool = true;

    /// Kills the old version, then appends the new one. A refused append
    /// found no cleaner victim, so no record moved, and the old version
    /// goes back where it was: the store refuses the write, not the data.
    fn insert(
        &mut self,
        key: ExternalKey,
        value: PageContents,
        stats: &StoreCounters,
    ) -> Result<(), KvError> {
        let old = self.kill(key);
        self.append(key, value, stats).inspect_err(|_| {
            if let Some(entry) = old {
                self.segments[entry.seg as usize].live += 1;
                self.live_records += 1;
                self.index.insert(key, entry);
            }
        })
    }

    fn peek(&self, key: ExternalKey) -> Option<PageContents> {
        self.index.get(key).map(|e| e.value.clone())
    }

    fn remove(&mut self, key: ExternalKey) -> bool {
        self.kill(key).is_some()
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
    fn a_refused_overwrite_keeps_the_old_value() {
        // 320 records in 20-record segments, every one live: the cleaner
        // finds no victim, so the overwrite is refused.
        let mut s = RamCloudStore::new(
            RECORD_BYTES * 320,
            SimClock::new(),
            SimRng::seed_from_u64(1),
        );
        for i in 0..320u64 {
            s.put(key(i), PageContents::Token(i)).unwrap();
        }
        assert!(matches!(
            s.put(key(3), PageContents::Token(99)),
            Err(KvError::OutOfCapacity)
        ));
        assert_eq!(s.get(key(3)).unwrap(), PageContents::Token(3));
        assert_eq!(s.len(), 320);
    }

    #[test]
    fn a_slot_is_24_bytes_and_a_record_is_its_key() {
        assert!(std::mem::size_of::<Option<Entry>>() <= 24);
        // A record is its key: a segment's records are `ExternalKey`s.
        let _: &Vec<ExternalKey> = &Segment::default().keys;
        assert_eq!(std::mem::size_of::<ExternalKey>(), 8);
    }

    type PayloadRecord = (ExternalKey, PageContents, bool);

    /// The engine as it was before the values moved into the index, but
    /// for the refused-overwrite fix: each record carries its payload
    /// and a live flag, the index maps a key to `(segment, position)`,
    /// and the cleaner rebuilds that index after renumbering. Kept as the
    /// behavioral reference [`RamCloudEngine`] is checked against.
    #[derive(Debug)]
    struct PayloadLog {
        /// Each segment's records `(key, payload, live)` and live count.
        segments: Vec<(Vec<PayloadRecord>, usize)>,
        index: std::collections::BTreeMap<ExternalKey, (usize, usize)>,
        capacity_records: usize,
        records_per_segment: usize,
        total_records: usize,
    }

    impl PayloadLog {
        fn new(capacity_bytes: usize) -> Self {
            let capacity_records = (capacity_bytes / RECORD_BYTES).max(1);
            PayloadLog {
                segments: vec![(Vec::new(), 0)],
                index: Default::default(),
                capacity_records,
                records_per_segment: (SEGMENT_BYTES / RECORD_BYTES)
                    .min(capacity_records.div_ceil(MIN_SEGMENTS))
                    .max(8),
                total_records: 0,
            }
        }

        fn sealed(&self, records: usize) -> bool {
            records >= self.records_per_segment
        }

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
            if self.sealed(self.segments[self.segments.len() - 1].0.len()) {
                self.segments.push((Vec::new(), 0));
            }
            let seg = self.segments.len() - 1;
            let head = &mut self.segments[seg];
            self.index.insert(key, (seg, head.0.len()));
            head.0.push((key, value, true));
            head.1 += 1;
            self.total_records += 1;
            Ok(())
        }

        fn clean(&mut self, stats: &StoreCounters) {
            stats.cleanings.inc();
            let mut survivors = Vec::new();
            let mut kept = Vec::new();
            for (records, live) in std::mem::take(&mut self.segments) {
                if self.sealed(records.len()) && (live as f64 / records.len() as f64) < 0.9 {
                    self.total_records -= records.len();
                    let alive = records.into_iter().filter(|r| r.2);
                    survivors.extend(alive.map(|(key, value, _)| (key, value)));
                } else {
                    kept.push((records, live));
                }
            }
            if kept.last().is_none_or(|head| self.sealed(head.0.len())) {
                kept.push((Vec::new(), 0));
            }
            self.segments = kept;
            self.index.clear();
            for (si, (records, _)) in self.segments.iter().enumerate() {
                for (ri, rec) in records.iter().enumerate() {
                    if rec.2 {
                        self.index.insert(rec.0, (si, ri));
                    }
                }
            }
            for (key, value) in survivors {
                self.append(key, value, stats).expect("cleaner made room");
            }
        }

        /// Marks `key`'s record dead and hands back its payload and place.
        fn kill(&mut self, key: ExternalKey) -> Option<(PageContents, usize, usize)> {
            let (seg, idx) = self.index.remove(&key)?;
            let segment = &mut self.segments[seg];
            segment.1 -= 1;
            segment.0[idx].2 = false;
            Some((std::mem::take(&mut segment.0[idx].1), seg, idx))
        }
    }

    impl StorageEngine for PayloadLog {
        const NAME: &'static str = "payload-log";
        const OBJECT_BYTES: usize = RECORD_BYTES;
        const DELETE_FLIGHT: bool = true;

        fn insert(
            &mut self,
            key: ExternalKey,
            value: PageContents,
            stats: &StoreCounters,
        ) -> Result<(), KvError> {
            let old = self.kill(key);
            let result = self.append(key, value, stats);
            if let (Err(_), Some((value, seg, idx))) = (&result, old) {
                self.segments[seg].0[idx] = (key, value, true);
                self.segments[seg].1 += 1;
                self.index.insert(key, (seg, idx));
            }
            result
        }

        fn peek(&self, key: ExternalKey) -> Option<PageContents> {
            let &(seg, idx) = self.index.get(&key)?;
            Some(self.segments[seg].0[idx].1.clone())
        }

        fn remove(&mut self, key: ExternalKey) -> bool {
            self.kill(key).is_some()
        }

        fn len(&self) -> usize {
            self.index.len()
        }

        fn partition_keys(&self, partition: PartitionId) -> Vec<ExternalKey> {
            let keys = self.index.keys().filter(|k| k.partition() == partition);
            keys.copied().collect()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Put(u16, u64, u64),
        Delete(u16, u64),
        DropPartition(u16),
        Get(u16, u64),
    }

    /// Applies `op` to `engine` the way a leaf store does; returns the
    /// answer as text.
    fn apply(engine: &mut impl StorageEngine, stats: &StoreCounters, op: &Op) -> String {
        let k = |p: u16, page: u64| ExternalKey::new(Vpn::new(page), PartitionId::new(p));
        match *op {
            Op::Put(p, page, v) => format!(
                "{:?}",
                engine.insert(k(p, page), PageContents::Token(v), stats)
            ),
            Op::Delete(p, page) => format!("{}", engine.remove(k(p, page))),
            Op::DropPartition(p) => {
                let doomed = engine.partition_keys(PartitionId::new(p));
                doomed.iter().for_each(|&key| assert!(engine.remove(key)));
                format!("{doomed:?}")
            }
            Op::Get(p, page) => format!("{:?}", engine.peek(k(p, page))),
        }
    }

    /// Replays `ops` on a 48-record engine and on [`PayloadLog`],
    /// comparing after every op each answer, `len`, the cleaner passes
    /// and every segment's `(records, live)`.
    fn replay(ops: &[Op]) -> Result<(), String> {
        let (mut engine, mut reference) = (
            RamCloudEngine::new(RECORD_BYTES * 48),
            PayloadLog::new(RECORD_BYTES * 48),
        );
        let (stats, reference_stats) = (StoreCounters::default(), StoreCounters::default());
        for (step, op) in ops.iter().enumerate() {
            let (got, want) = (
                apply(&mut engine, &stats, op),
                apply(&mut reference, &reference_stats, op),
            );
            let shape: Vec<(usize, usize)> = engine
                .segments
                .iter()
                .map(|s| (s.keys.len(), s.live))
                .collect();
            let reference_shape: Vec<(usize, usize)> = reference
                .segments
                .iter()
                .map(|s| (s.0.len(), s.1))
                .collect();
            let got = (got, engine.len(), stats.cleanings.get(), shape);
            let want = (
                want,
                reference.len(),
                reference_stats.cleanings.get(),
                reference_shape,
            );
            if got != want {
                return Err(format!(
                    "step {step} {op:?}: engine {got:?}, reference {want:?}"
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn engine_matches_the_payload_log() {
        fluidmem_sim::prop::forall_sequences(
            "ramcloud-engine-vs-payload-log",
            64,
            |rng| {
                // 72 keys over three partitions against 48 records: the
                // cleaner runs and, while most keys are live, puts are
                // refused.
                fluidmem_sim::prop::vec_of(rng, 1, 400, |r| {
                    let (p, page) = (1 + r.gen_index(3) as u16, r.gen_index(24));
                    match r.gen_index(40) {
                        0 => Op::DropPartition(p),
                        1..=24 => Op::Put(p, page, r.gen_index(1 << 20)),
                        25..=31 => Op::Delete(p, page),
                        _ => Op::Get(p, page),
                    }
                })
            },
            replay,
        );
    }
}
