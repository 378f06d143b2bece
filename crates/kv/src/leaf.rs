//! The one leaf-store front: where the wire is charged.
//!
//! A key-value backend contributes two things — a storage engine and a
//! wire. [`LeafStore`] owns the wire (a [`TransportModel`], the shared
//! clock, the store's RNG and its [`StoreCounters`]) and is the only
//! [`KeyValueStore`] implementation for leaf stores; a
//! [`StorageEngine`] is the in-memory part that really differs between
//! RAMCloud's log, memcached's slabs and a plain table. Every operation
//! draws top half, then flight, then bottom half from the RNG, in that
//! order, whatever the engine.

use fluidmem_coord::PartitionId;
use fluidmem_mem::PageContents;
use fluidmem_sim::{SimClock, SimRng};
use fluidmem_telemetry::{consts, Registry};

use crate::error::KvError;
use crate::key::ExternalKey;
use crate::pending::{PendingGet, PendingWrite};
use crate::stats::{StoreCounters, StoreStats};
use crate::store::KeyValueStore;
use crate::transport::TransportModel;

/// The in-memory half of a leaf store. Nothing here charges virtual time
/// or draws randomness, which is what lets the migration copier's
/// maintenance hooks reach the engine directly.
#[allow(clippy::len_without_is_empty)] // `len` sizes a store; nothing asks if it is empty
pub trait StorageEngine {
    /// Short backend name (`"ramcloud"`, `"memcached"`, `"dram"`).
    const NAME: &'static str;
    /// Bytes one stored page occupies on the wire (payload + header).
    const OBJECT_BYTES: usize;
    /// Whether a delete pays a 64-byte request flight. Remote stores
    /// do; an in-process table pays the top half only.
    const DELETE_FLIGHT: bool;

    /// Stores `value` under `key`, replacing any previous version.
    /// `stats` takes the engine's own events (cleanings, evictions).
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfCapacity`] if the engine cannot make room.
    fn insert(
        &mut self,
        key: ExternalKey,
        value: PageContents,
        stats: &StoreCounters,
    ) -> Result<(), KvError>;

    /// The current value of `key`, leaving the engine untouched.
    fn peek(&self, key: ExternalKey) -> Option<PageContents>;

    /// The value a client read returns. Differs from
    /// [`peek`](StorageEngine::peek) only where reading has a side
    /// effect (memcached refreshes the item's LRU position).
    fn lookup(&mut self, key: ExternalKey) -> Option<PageContents> {
        self.peek(key)
    }

    /// Removes `key`; returns whether it existed.
    fn remove(&mut self, key: ExternalKey) -> bool;

    /// Number of live objects.
    fn len(&self) -> usize;

    /// Every key stored under `partition`, ascending.
    fn partition_keys(&self, partition: PartitionId) -> Vec<ExternalKey>;
}

/// A leaf store: one [`StorageEngine`] reached over one
/// [`TransportModel`]. [`DramStore`](crate::DramStore),
/// [`RamCloudStore`](crate::RamCloudStore) and
/// [`MemcachedStore`](crate::MemcachedStore) are this type over their
/// engines.
#[derive(Debug)]
pub struct LeafStore<E> {
    pub(crate) engine: E,
    transport: TransportModel,
    pub(crate) clock: SimClock,
    rng: SimRng,
    pub(crate) stats: StoreCounters,
}

impl<E: StorageEngine> LeafStore<E> {
    pub(crate) fn over(engine: E, transport: TransportModel, clock: SimClock, rng: SimRng) -> Self {
        LeafStore {
            engine,
            transport,
            clock,
            rng,
            stats: StoreCounters::default(),
        }
    }
}

impl<E: StorageEngine> KeyValueStore for LeafStore<E> {
    fn name(&self) -> &'static str {
        E::NAME
    }

    fn put(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        let cost = self.transport.sample_top_half(&mut self.rng)
            + self.transport.sample_flight(&mut self.rng, E::OBJECT_BYTES)
            + self.transport.sample_bottom_half(&mut self.rng);
        // A refused put still paid its round trip.
        self.clock.advance(cost);
        self.engine.insert(key, value, &self.stats)?;
        self.stats.puts.inc();
        self.stats.put_latency.observe(cost);
        Ok(())
    }

    fn delete(&mut self, key: ExternalKey) -> bool {
        let mut cost = self.transport.sample_top_half(&mut self.rng);
        if E::DELETE_FLIGHT {
            cost += self.transport.sample_flight(&mut self.rng, 64);
        }
        self.clock.advance(cost);
        let existed = self.engine.remove(key);
        if existed {
            self.stats.deletes.inc();
        }
        existed
    }

    fn begin_get(&mut self, key: ExternalKey) -> PendingGet {
        let issued_at = self.clock.now();
        let top = self.transport.sample_top_half(&mut self.rng);
        self.clock.advance(top);
        let flight = self.transport.sample_flight(&mut self.rng, E::OBJECT_BYTES);
        // The value is captured as the request reaches the server: later
        // writes do not change an in-flight response.
        PendingGet {
            key,
            result: self.engine.lookup(key).ok_or(KvError::NotFound(key)),
            issued_at,
            completes_at: self.clock.now() + flight,
            node: None,
        }
    }

    fn finish_get(&mut self, pending: PendingGet) -> Result<PageContents, KvError> {
        self.clock.advance_to(pending.completes_at);
        let bottom = self.transport.sample_bottom_half(&mut self.rng);
        self.clock.advance(bottom);
        self.stats
            .get_latency
            .observe(self.clock.now() - pending.issued_at);
        match &pending.result {
            Ok(_) => self.stats.gets.inc(),
            Err(_) => self.stats.get_misses.inc(),
        }
        pending.result
    }

    fn begin_multi_write(
        &mut self,
        batch: Vec<(ExternalKey, PageContents)>,
    ) -> Result<PendingWrite, KvError> {
        let count = batch.len();
        let issued_at = self.clock.now();
        let top = self.transport.sample_top_half(&mut self.rng);
        self.clock.advance(top);
        let flight =
            self.transport
                .sample_batch_flight(&mut self.rng, count, count * E::OBJECT_BYTES);
        for (key, value) in &batch {
            // A batch refused half way keeps what already landed and
            // the top half it was charged.
            self.engine.insert(*key, value.clone(), &self.stats)?;
        }
        self.stats.batched_puts.add(count as u64);
        self.stats.multi_writes.inc();
        Ok(PendingWrite {
            batch,
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
        let doomed = self.engine.partition_keys(partition);
        for &key in &doomed {
            self.engine.remove(key);
        }
        self.stats.deletes.add(doomed.len() as u64);
        doomed.len() as u64
    }

    fn len(&self) -> usize {
        self.engine.len()
    }

    fn partition_keys(&self, partition: PartitionId) -> Vec<ExternalKey> {
        self.engine.partition_keys(partition)
    }

    fn peek(&self, key: ExternalKey) -> Option<PageContents> {
        self.engine.peek(key)
    }

    fn ingest(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        self.engine.insert(key, value, &self.stats)
    }

    fn expunge(&mut self, key: ExternalKey) -> bool {
        self.engine.remove(key)
    }

    fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }

    fn instrument(&mut self, registry: &Registry) {
        self.stats
            .register(registry, &[(consts::LABEL_STORE, E::NAME)]);
    }
}
