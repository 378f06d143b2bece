//! Replication across remote servers (a §III cloud-operator
//! customization).

use fluidmem_coord::PartitionId;
use fluidmem_mem::PageContents;

use crate::error::KvError;
use crate::key::ExternalKey;
use crate::pending::{PendingGet, PendingWrite};
use crate::stats::StoreStats;
use crate::store::KeyValueStore;
use fluidmem_telemetry::{consts, instrument_set, Registry};

/// A store that mirrors every page across multiple remote servers, so a
/// store-server failure does not lose VM memory.
///
/// Writes go to every replica (issued back-to-back as asynchronous top
/// halves, so the round trips overlap); reads go to the primary and fail
/// over to the next replica on a miss or after a replica fails, with
/// read-repair bringing a recovered replica back in sync lazily.
///
/// A replica that misses a write — because it was down, or because its
/// transport dropped or refused the request — is remembered as *stale*
/// for exactly those keys. A stale replica's answer for such a key is
/// never trusted: the read fails over to a replica that acked the
/// latest write, and read-repair clears the mark. Without this, a
/// dropped batch write would leave the primary serving an older version
/// of the page with no error — silent data loss.
///
/// The paper notes RAMCloud's own replication "only impacts key-value
/// writes \[and\] since FluidMem carries out writes asynchronously, the
/// overall impact on page fault latency would be minimal" (§VI-A) — a
/// claim the `ablations` bench checks directly with this wrapper.
pub struct ReplicatedStore {
    replicas: Vec<Box<dyn KeyValueStore>>,
    alive: Vec<bool>,
    /// Per replica: raw keys whose latest write this replica did not
    /// acknowledge (it was dead, or the write dropped / was refused).
    /// Answers for these keys are untrusted until read-repair heals them.
    stale: Vec<std::collections::HashSet<u64>>,
    counters: ReplicationCounters,
}

instrument_set! {
    /// What a [`ReplicatedStore`] counts itself.
    pub(crate) struct ReplicationCounters {
        counters {
            failovers: STORE_OPS[LABEL_OP = "failover"],
                "Operations redirected to another replica after a fault.";
        }
    }
}

impl ReplicatedStore {
    /// Builds a replicated store over at least one replica.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<Box<dyn KeyValueStore>>) -> Self {
        assert!(!replicas.is_empty(), "need at least one replica");
        let alive = vec![true; replicas.len()];
        let stale = replicas
            .iter()
            .map(|_| std::collections::HashSet::new())
            .collect();
        ReplicatedStore {
            replicas,
            alive,
            stale,
            counters: ReplicationCounters::default(),
        }
    }

    /// Marks a replica as failed (its server crashed / unreachable).
    #[cfg(test)]
    fn fail_replica(&mut self, index: usize) {
        self.alive[index] = false;
    }

    /// Brings a replica back; stale pages heal via read-repair.
    #[cfg(test)]
    fn recover_replica(&mut self, index: usize) {
        self.alive[index] = true;
    }

    fn first_alive(&self) -> Option<usize> {
        self.alive.iter().position(|&a| a)
    }

    /// Records the outcome of issuing `keys` to replica `i`: an ack
    /// clears any stale marks, a miss (dead replica, dropped or refused
    /// write) sets them.
    fn note_write_outcome(&mut self, i: usize, keys: &[ExternalKey], acked: bool) {
        for key in keys {
            if acked {
                self.stale[i].remove(&key.raw());
            } else {
                self.stale[i].insert(key.raw());
            }
        }
    }
}

impl KeyValueStore for ReplicatedStore {
    fn name(&self) -> &'static str {
        "replicated"
    }

    fn put(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        // Issue all writes as top halves so the round trips overlap, then
        // complete them.
        let mut pendings = Vec::new();
        let mut last_err = None;
        for i in 0..self.replicas.len() {
            if !self.alive[i] {
                self.note_write_outcome(i, &[key], false);
                continue;
            }
            match self.replicas[i].begin_multi_write(vec![(key, value.clone())]) {
                Ok(p) => {
                    self.note_write_outcome(i, &[key], true);
                    pendings.push((i, p));
                }
                Err(e) => {
                    self.note_write_outcome(i, &[key], false);
                    last_err = Some(e);
                }
            }
        }
        if pendings.is_empty() {
            return Err(last_err.unwrap_or(KvError::OutOfCapacity));
        }
        for (i, p) in pendings {
            self.replicas[i].finish_write(p);
        }
        Ok(())
    }

    fn delete(&mut self, key: ExternalKey) -> bool {
        let mut existed = false;
        for i in 0..self.replicas.len() {
            if self.alive[i] {
                existed |= self.replicas[i].delete(key);
                self.stale[i].remove(&key.raw());
            } else {
                // The dead replica keeps its copy; distrust it on
                // recovery.
                self.stale[i].insert(key.raw());
            }
        }
        existed
    }

    fn begin_get(&mut self, key: ExternalKey) -> PendingGet {
        let primary = self.first_alive().unwrap_or(0);
        self.replicas[primary].begin_get(key)
    }

    fn finish_get(&mut self, pending: PendingGet) -> Result<PageContents, KvError> {
        let key = pending.key();
        let primary = self.first_alive().unwrap_or(0);
        let primary_result = self.replicas[primary].finish_get(pending);
        let primary_stale = self.stale[primary].contains(&key.raw());
        let trusted = match &primary_result {
            Ok(_) => !primary_stale,
            Err(e) => !(matches!(e, KvError::NotFound(_)) || e.is_retryable()),
        };
        if trusted {
            return primary_result;
        }
        // Fail over to a replica that acked the latest write. Read-repair
        // applies when the primary is missing the page or holds a stale
        // version; a timed-out or refused primary that acked the latest
        // write still holds the page and just needs to be reachable again.
        let needs_repair = primary_stale || matches!(primary_result, Err(KvError::NotFound(_)));
        let mut trusted_miss = false;
        for i in 0..self.replicas.len() {
            if i == primary || !self.alive[i] || self.stale[i].contains(&key.raw()) {
                continue;
            }
            match self.replicas[i].get(key) {
                Ok(v) => {
                    self.counters.failovers.inc();
                    if needs_repair && self.replicas[primary].put(key, v.clone()).is_ok() {
                        self.stale[primary].remove(&key.raw());
                    }
                    return Ok(v);
                }
                // A replica that acked every write for this key and has
                // no copy is authoritative: the latest write was a
                // delete.
                Err(KvError::NotFound(_)) => trusted_miss = true,
                Err(_) => {}
            }
        }
        if primary_stale && trusted_miss {
            // The write the stale primary missed was a delete. Without
            // this, the primary's leftover copy would resurrect deleted
            // data and the stale mark would never drain: read-repair the
            // delete through and report an honest miss.
            self.replicas[primary].delete(key);
            self.stale[primary].remove(&key.raw());
            return Err(KvError::NotFound(key));
        }
        primary_result
    }

    fn begin_multi_write(
        &mut self,
        batch: Vec<(ExternalKey, PageContents)>,
    ) -> Result<PendingWrite, KvError> {
        // Issue the batch to every alive replica back-to-back so the
        // flights overlap. The first replica that accepts it becomes the
        // caller's handle; a primary that refuses or times out is a
        // failover, not an error, as long as one replica took the batch.
        let primary = self.first_alive().ok_or(KvError::OutOfCapacity)?;
        let keys: Vec<ExternalKey> = batch.iter().map(|(k, _)| *k).collect();
        let mut accepted = Vec::new();
        let mut last_err = None;
        for i in 0..self.replicas.len() {
            if !self.alive[i] {
                self.note_write_outcome(i, &keys, false);
                continue;
            }
            match self.replicas[i].begin_multi_write(batch.clone()) {
                Ok(p) => {
                    self.note_write_outcome(i, &keys, true);
                    accepted.push((i, p));
                }
                Err(e) => {
                    self.note_write_outcome(i, &keys, false);
                    last_err = Some(e);
                }
            }
        }
        if accepted.is_empty() {
            return Err(last_err.unwrap_or(KvError::Unavailable));
        }
        let (lead, lead_pending) = accepted.remove(0);
        if lead != primary {
            self.counters.failovers.inc();
        }
        for (i, p) in accepted {
            self.replicas[i].finish_write(p);
        }
        Ok(lead_pending)
    }

    fn finish_write(&mut self, pending: PendingWrite) {
        let primary = self.first_alive().unwrap_or(0);
        self.replicas[primary].finish_write(pending);
    }

    fn drop_partition(&mut self, partition: PartitionId) -> u64 {
        let mut dropped = 0;
        for i in 0..self.replicas.len() {
            if self.alive[i] {
                dropped = dropped.max(self.replicas[i].drop_partition(partition));
            }
            self.stale[i].retain(|&raw| ExternalKey::from_raw(raw).partition() != partition);
        }
        dropped
    }

    fn len(&self) -> usize {
        self.first_alive()
            .map(|i| self.replicas[i].len())
            .unwrap_or(0)
    }

    fn partition_keys(&self, partition: PartitionId) -> Vec<ExternalKey> {
        self.first_alive()
            .map(|i| self.replicas[i].partition_keys(partition))
            .unwrap_or_default()
    }

    fn peek(&self, key: ExternalKey) -> Option<PageContents> {
        let primary = self.first_alive()?;
        if self.stale[primary].contains(&key.raw()) {
            // A stale primary's copy is untrusted; peek a replica that
            // acked the latest write instead.
            for (i, r) in self.replicas.iter().enumerate() {
                if i != primary && self.alive[i] && !self.stale[i].contains(&key.raw()) {
                    return r.peek(key);
                }
            }
            return None;
        }
        self.replicas[primary].peek(key)
    }

    fn ingest(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        let mut any = false;
        for i in 0..self.replicas.len() {
            if !self.alive[i] {
                self.note_write_outcome(i, &[key], false);
                continue;
            }
            let acked = self.replicas[i].ingest(key, value.clone()).is_ok();
            self.note_write_outcome(i, &[key], acked);
            any |= acked;
        }
        if any {
            Ok(())
        } else {
            Err(KvError::Unavailable)
        }
    }

    fn expunge(&mut self, key: ExternalKey) -> bool {
        let mut existed = false;
        for i in 0..self.replicas.len() {
            if self.alive[i] {
                existed |= self.replicas[i].expunge(key);
                self.stale[i].remove(&key.raw());
            } else {
                self.stale[i].insert(key.raw());
            }
        }
        existed
    }

    fn stats(&self) -> StoreStats {
        let mut stats = self
            .first_alive()
            .map(|i| self.replicas[i].stats())
            .unwrap_or_default();
        stats += StoreStats {
            failovers: self.counters.failovers.get(),
            ..StoreStats::default()
        };
        stats
    }

    // Replicas are deliberately not instrumented: identical backend
    // names would collide on metric keys, with the last registration
    // silently winning. Only the wrapper's own failover counter is
    // exported.
    fn instrument(&mut self, registry: &Registry) {
        self.counters
            .register(registry, &[(consts::LABEL_STORE, self.name())]);
    }
}

impl std::fmt::Debug for ReplicatedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedStore")
            .field("replicas", &self.replicas.len())
            .field("alive", &self.alive)
            .field("failovers", &self.counters.failovers.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DramStore, FaultInjectingStore, RamCloudStore};
    use fluidmem_mem::Vpn;
    use fluidmem_sim::{FaultEvent, FaultKind, FaultPlan, SimClock, SimRng};

    fn key(n: u64) -> ExternalKey {
        ExternalKey::new(Vpn::new(n), PartitionId::new(0))
    }

    /// Keys known stale on some replica (unacked latest writes awaiting
    /// read-repair).
    fn stale_keys(s: &ReplicatedStore) -> usize {
        s.stale.iter().map(|s| s.len()).sum()
    }

    fn two_replica(clock: &SimClock) -> ReplicatedStore {
        let a = RamCloudStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(1));
        let b = RamCloudStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(2));
        ReplicatedStore::new(vec![Box::new(a), Box::new(b)])
    }

    #[test]
    fn writes_reach_all_replicas() {
        let clock = SimClock::new();
        let mut s = two_replica(&clock);
        s.put(key(1), PageContents::Token(1)).unwrap();
        assert!(s.replicas[0].peek(key(1)).is_some());
        assert!(s.replicas[1].peek(key(1)).is_some());
    }

    #[test]
    fn primary_failure_is_transparent() {
        let clock = SimClock::new();
        let mut s = two_replica(&clock);
        for i in 0..8 {
            s.put(key(i), PageContents::Token(i)).unwrap();
        }
        s.fail_replica(0);
        for i in 0..8 {
            assert_eq!(s.get(key(i)).unwrap(), PageContents::Token(i));
        }
    }

    #[test]
    fn read_repair_heals_recovered_replica() {
        let clock = SimClock::new();
        let mut s = two_replica(&clock);
        s.put(key(1), PageContents::Token(1)).unwrap();
        // Replica 0 dies; new data lands only on replica 1.
        s.fail_replica(0);
        s.put(key(2), PageContents::Token(2)).unwrap();
        // Replica 0 comes back stale. Reads of key 2 miss there, fail
        // over, and repair.
        s.recover_replica(0);
        assert_eq!(s.get(key(2)).unwrap(), PageContents::Token(2));
        assert_eq!(s.counters.failovers.get(), 1);
        assert!(s.replicas[0].peek(key(2)).is_some(), "repaired in place");
        // Subsequent reads are served by the primary again.
        assert_eq!(s.get(key(2)).unwrap(), PageContents::Token(2));
        assert_eq!(s.counters.failovers.get(), 1);
    }

    #[test]
    fn replicated_writes_overlap_not_serialize() {
        // Two RAMCloud replicas: a replicated multi-write should cost
        // roughly one flight, not two (top halves overlap).
        let clock_single = SimClock::new();
        let mut single =
            RamCloudStore::new(1 << 24, clock_single.clone(), SimRng::seed_from_u64(1));
        let batch: Vec<_> = (0..16).map(|i| (key(i), PageContents::Token(i))).collect();
        let t0 = clock_single.now();
        single.multi_write(batch.clone()).unwrap();
        let single_cost = clock_single.now() - t0;

        let clock_repl = SimClock::new();
        let mut repl = two_replica(&clock_repl);
        let t0 = clock_repl.now();
        repl.multi_write(batch).unwrap();
        let repl_cost = clock_repl.now() - t0;

        assert!(
            repl_cost.as_micros_f64() < single_cost.as_micros_f64() * 1.9,
            "replication should overlap: {repl_cost} vs single {single_cost}"
        );
    }

    #[test]
    fn all_replicas_down_errors() {
        let clock = SimClock::new();
        let mut s = two_replica(&clock);
        s.fail_replica(0);
        s.fail_replica(1);
        assert!(s.put(key(1), PageContents::Token(1)).is_err());
    }

    #[test]
    fn delete_propagates() {
        let clock = SimClock::new();
        let a = DramStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(1));
        let b = DramStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(2));
        let mut s = ReplicatedStore::new(vec![Box::new(a), Box::new(b)]);
        s.put(key(1), PageContents::Token(1)).unwrap();
        assert!(s.delete(key(1)));
        assert!(s.replicas[0].peek(key(1)).is_none());
        assert!(s.replicas[1].peek(key(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_replica_set_rejected() {
        ReplicatedStore::new(vec![]);
    }

    fn faulty_primary_pair(clock: &SimClock, events: Vec<(u64, FaultKind)>) -> ReplicatedStore {
        let inner = DramStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(1));
        let mut plan = FaultPlan::new(SimRng::seed_from_u64(9));
        for (at_op, kind) in events {
            plan = plan.script(FaultEvent { at_op, kind });
        }
        let primary = FaultInjectingStore::new(Box::new(inner), plan, clock.clone());
        let secondary = DramStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(2));
        ReplicatedStore::new(vec![Box::new(primary), Box::new(secondary)])
    }

    #[test]
    fn timed_out_primary_read_fails_over_without_repair() {
        let clock = SimClock::new();
        // Primary op 0 is the replicated put's write; op 1 is the read.
        let mut s = faulty_primary_pair(&clock, vec![(1, FaultKind::Drop)]);
        s.put(key(1), PageContents::Token(1)).unwrap();
        assert_eq!(s.get(key(1)).unwrap(), PageContents::Token(1));
        assert_eq!(s.counters.failovers.get(), 1);
        // The primary still holds the page — a transport fault is not a
        // miss, so no read-repair write happens.
        assert_eq!(stale_keys(&s), 0);
        assert_eq!(s.stats().failovers, 1);
    }

    #[test]
    fn dropped_rewrite_marks_primary_stale_and_reads_fail_over() {
        let clock = SimClock::new();
        // Primary op 0: first put lands; op 1: the overwrite is dropped
        // on the wire, so the primary keeps the OLD value with no error.
        let mut s = faulty_primary_pair(&clock, vec![(1, FaultKind::Drop)]);
        s.put(key(1), PageContents::Token(1)).unwrap();
        s.put(key(1), PageContents::Token(2)).unwrap();
        assert_eq!(stale_keys(&s), 1);
        // The stale mark forces the read over to the mirror — without it
        // the primary would happily serve Token(1).
        assert_eq!(s.get(key(1)).unwrap(), PageContents::Token(2));
        assert_eq!(s.counters.failovers.get(), 1);
        assert_eq!(stale_keys(&s), 0);
        // Healed: the next read is primary-served again.
        assert_eq!(s.get(key(1)).unwrap(), PageContents::Token(2));
        assert_eq!(s.counters.failovers.get(), 1);
    }

    #[test]
    fn deleted_key_is_not_resurrected_by_a_stale_primary() {
        let clock = SimClock::new();
        let mut s = two_replica(&clock);
        s.put(key(1), PageContents::Token(1)).unwrap();
        // The primary dies; the delete lands only on the mirror and the
        // primary is marked stale for the key.
        s.fail_replica(0);
        assert!(s.delete(key(1)));
        assert_eq!(stale_keys(&s), 1);
        // The primary recovers still holding its pre-delete copy. The
        // read must NOT serve it: the mirror's authoritative miss wins,
        // the delete is repaired through, and the stale mark drains.
        s.recover_replica(0);
        assert!(matches!(s.get(key(1)), Err(KvError::NotFound(_))));
        assert_eq!(stale_keys(&s), 0, "stale mark must drain");
        assert!(
            s.replicas[0].peek(key(1)).is_none(),
            "delete repaired through"
        );
        // Healed: reads keep missing without touching the mirror.
        assert!(matches!(s.get(key(1)), Err(KvError::NotFound(_))));
    }

    #[test]
    fn stale_keys_drain_to_zero_after_read_repair_under_chaos() {
        // A chaotic primary transport (drops + timeouts + refusals)
        // accumulates stale marks; a full read pass over the keyspace
        // must heal every one — overwrites via failover read-repair,
        // deletes via authoritative-miss repair — leaving no leak.
        let clock = SimClock::new();
        let inner = DramStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(1));
        let plan = FaultPlan::new(SimRng::seed_from_u64(0xFA_17))
            .with_drop(0.15)
            .with_timeout(0.10)
            .with_transient_error(0.10);
        let primary = FaultInjectingStore::new(Box::new(inner), plan, clock.clone());
        let secondary = DramStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(2));
        let mut s = ReplicatedStore::new(vec![Box::new(primary), Box::new(secondary)]);

        for i in 0..64 {
            let _ = s.put(key(i), PageContents::Token(i));
            let _ = s.put(key(i), PageContents::Token(i + 1000));
        }
        // Deletes while the primary is down add delete-shaped staleness.
        s.fail_replica(0);
        for i in 0..16 {
            s.delete(key(i));
        }
        s.recover_replica(0);
        assert!(stale_keys(&s) > 0, "chaos must have left stale marks");

        // Repair writes themselves go through the chaotic transport, so
        // one pass may leave marks; repeated passes must converge.
        for _pass in 0..8 {
            if stale_keys(&s) == 0 {
                break;
            }
            for i in 0..64 {
                match s.get(key(i)) {
                    Ok(v) => assert_eq!(v, PageContents::Token(i + 1000)),
                    Err(KvError::NotFound(_)) => assert!(i < 16, "only deleted keys may miss"),
                    Err(KvError::Timeout) | Err(KvError::Unavailable) => {}
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            }
        }
        assert_eq!(stale_keys(&s), 0, "read-repair must drain every stale mark");
    }

    #[test]
    fn refused_primary_write_is_led_by_the_mirror() {
        let clock = SimClock::new();
        let mut s = faulty_primary_pair(&clock, vec![(0, FaultKind::TransientError)]);
        s.multi_write(vec![(key(1), PageContents::Token(1))])
            .unwrap();
        assert_eq!(s.counters.failovers.get(), 1);
        assert!(
            s.replicas[1].peek(key(1)).is_some(),
            "mirror took the batch"
        );
        // A transient refusal never applies the write on the primary; the
        // data survives on the mirror and heals via read-repair later.
        assert!(s.replicas[0].peek(key(1)).is_none());
        assert_eq!(s.get(key(1)).unwrap(), PageContents::Token(1));
        assert!(s.replicas[0].peek(key(1)).is_some(), "repaired in place");
    }
}
