//! What every [`KeyValueStore`] must do, checked once over every leaf
//! and every wrapper instead of per store.

use fluidmem_coord::PartitionId;
use fluidmem_mem::{PageContents, Vpn};
use fluidmem_sim::{FaultPlan, SimClock, SimRng};

use crate::{
    ClusterStore, CompressedStore, DramStore, ExternalKey, FaultInjectingStore, KeyValueStore,
    KvError, MemcachedStore, RamCloudStore, ReplicatedStore, SharedStore, TransportModel,
};

fn key(vpn: u64, partition: u16) -> ExternalKey {
    ExternalKey::new(Vpn::new(vpn), PartitionId::new(partition))
}

/// `make` must build the same store (same seeds) every time it is
/// called, on the clock it is given.
fn conformance(make: impl Fn(&SimClock) -> Box<dyn KeyValueStore>) {
    let clock = SimClock::new();
    let mut s = make(&clock);

    // Round trip: real bytes come back as written, and a read takes time.
    let page = PageContents::from_byte_fill(0x5A);
    s.put(key(1, 3), page.clone()).unwrap();
    let before = clock.now();
    assert_eq!(s.get(key(1, 3)).unwrap(), page);
    assert!(clock.now() > before, "a read charges virtual time");

    // Overwrite keeps `len` and serves the latest version.
    s.put(key(1, 3), PageContents::Token(2)).unwrap();
    assert_eq!(s.get(key(1, 3)).unwrap(), PageContents::Token(2));
    assert_eq!(s.len(), 1);

    // A miss is `NotFound` and is counted as a miss, not as a read.
    let stats = s.stats();
    assert!(matches!(s.get(key(99, 3)), Err(KvError::NotFound(_))));
    assert_eq!(s.stats().get_misses, stats.get_misses + 1);
    assert_eq!(s.stats().gets, stats.gets);

    // `multi_write` lands the whole batch as one batch operation.
    let stats = s.stats();
    let batch: Vec<_> = (10..26)
        .map(|i| (key(i, 4), PageContents::Token(i)))
        .collect();
    s.multi_write(batch).unwrap();
    assert_eq!(s.stats().multi_writes, stats.multi_writes + 1);
    assert_eq!(s.stats().batched_puts, stats.batched_puts + 16);
    assert_eq!(s.len(), 17);
    for i in 10..26 {
        assert_eq!(s.get(key(i, 4)).unwrap(), PageContents::Token(i));
    }

    // `partition_keys` is sorted and scoped, whatever the insert order.
    for vpn in [9, 2, 5] {
        s.put(key(vpn, 3), PageContents::Token(vpn)).unwrap();
    }
    let listed = s.partition_keys(PartitionId::new(3));
    assert_eq!(listed, [1, 2, 5, 9].map(|vpn| key(vpn, 3)));

    // `drop_partition` is scoped.
    assert_eq!(s.drop_partition(PartitionId::new(3)), 4);
    assert!(listed.iter().all(|&k| s.peek(k).is_none()));
    assert!((10..26).all(|i| s.peek(key(i, 4)).is_some()));
    assert_eq!(s.len(), 16);

    maintenance_is_free(&make);
}

/// `peek`/`ingest`/`expunge`/`partition_keys` neither advance the clock
/// nor draw randomness: the next read costs what it costs on a twin store
/// that saw no maintenance traffic.
fn maintenance_is_free(make: &impl Fn(&SimClock) -> Box<dyn KeyValueStore>) {
    let (clock, twin_clock) = (SimClock::new(), SimClock::new());
    let (mut s, mut twin) = (make(&clock), make(&twin_clock));
    for store in [&mut s, &mut twin] {
        store.put(key(1, 0), PageContents::Token(1)).unwrap();
    }
    let before = clock.now();
    assert_eq!(before, twin_clock.now(), "`make` is not repeatable");

    assert_eq!(s.peek(key(1, 0)), Some(PageContents::Token(1)));
    assert_eq!(s.peek(key(2, 0)), None);
    assert_eq!(s.partition_keys(PartitionId::new(0)), [key(1, 0)]);
    // A store may refuse maintenance installs; one that accepts them
    // must serve and remove what it took.
    if s.ingest(key(2, 0), PageContents::Token(2)).is_ok() {
        assert_eq!(s.peek(key(2, 0)), Some(PageContents::Token(2)));
        assert!(s.expunge(key(2, 0)));
    }
    assert!(!s.expunge(key(2, 0)));
    assert_eq!(clock.now(), before, "maintenance advanced the clock");

    let (a, b) = (s.begin_get(key(1, 0)), twin.begin_get(key(1, 0)));
    assert_eq!(a.completes_at(), b.completes_at(), "maintenance drew RNG");
    assert_eq!(s.finish_get(a), twin.finish_get(b));
    assert_eq!(clock.now(), twin_clock.now(), "maintenance drew RNG");
}

fn dram(clock: &SimClock, seed: u64) -> Box<dyn KeyValueStore> {
    let rng = SimRng::seed_from_u64(seed);
    Box::new(DramStore::new(1 << 20, clock.clone(), rng))
}

fn ramcloud(clock: &SimClock) -> Box<dyn KeyValueStore> {
    let rng = SimRng::seed_from_u64(5);
    Box::new(RamCloudStore::new(16 << 20, clock.clone(), rng))
}

fn memcached(clock: &SimClock) -> Box<dyn KeyValueStore> {
    let rng = SimRng::seed_from_u64(7);
    Box::new(MemcachedStore::new(16 << 20, clock.clone(), rng))
}

#[test]
fn leaves_conform() {
    conformance(|clock| dram(clock, 1));
    conformance(ramcloud);
    conformance(memcached);
}

#[test]
fn wrappers_conform() {
    conformance(|clock| Box::new(SharedStore::new(dram(clock, 1))));
    conformance(|clock| {
        let rng = SimRng::seed_from_u64(2);
        Box::new(CompressedStore::new(ramcloud(clock), clock.clone(), rng))
    });
    conformance(|clock| {
        let plan = FaultPlan::new(SimRng::seed_from_u64(3));
        Box::new(FaultInjectingStore::new(
            memcached(clock),
            plan,
            clock.clone(),
        ))
    });
    conformance(|clock| Box::new(ReplicatedStore::new(vec![dram(clock, 1), dram(clock, 2)])));
    conformance(|clock| {
        let rng = SimRng::seed_from_u64(4);
        let wire = TransportModel::infiniband_verbs();
        let mut cluster = ClusterStore::new(clock.clone(), rng, wire, 8, 4);
        cluster.add_node(0, ramcloud(clock));
        Box::new(cluster)
    });
}
