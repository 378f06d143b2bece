//! A fault-injecting wrapper around any [`KeyValueStore`].
//!
//! [`FaultInjectingStore`] interposes on the store operations the
//! monitor's hot path issues (`put`, `begin_get`/`finish_get`,
//! `begin_multi_write`) and perturbs them according to a deterministic
//! [`FaultPlan`](fluidmem_sim::FaultPlan). Each fault kind has precise
//! semantics so recovery code can be tested honestly:
//!
//! * **Drop** — the request never reaches the server. The operation is
//!   *not* applied; the caller pays the per-op deadline and sees
//!   [`KvError::Timeout`].
//! * **Timeout** — the request reaches the server and *is applied*, but
//!   the response is lost. The caller pays the deadline and sees
//!   [`KvError::Timeout`]. Page writes are idempotent, so retrying is
//!   safe; a retried read sees the written data.
//! * **Duplicate** — the request is delivered (and applied) twice.
//!   Harmless for idempotent page operations, but the extra server work
//!   costs time.
//! * **SlowReplica** — the server is degraded; the operation succeeds
//!   with its in-flight time stretched by the plan's slowdown factor.
//! * **TransientError** — the server refuses quickly (overload,
//!   mid-recovery). The operation is *not* applied; the caller sees
//!   [`KvError::Unavailable`] after a fraction of the deadline.
//!
//! Only faultable operations (`put`, `begin_get`, `begin_multi_write`)
//! consume fault-plan decisions, so scripted [`FaultEvent`] indices
//! count exactly those operations in issue order.
//!
//! [`FaultEvent`]: fluidmem_sim::FaultEvent

use fluidmem_mem::PageContents;
use fluidmem_sim::{FaultKind, FaultPlan, SimClock, SimDuration, SimInstant};

use crate::error::KvError;
use crate::key::ExternalKey;
use crate::pending::{PendingGet, PendingWrite};
use crate::stats::StoreStats;
use crate::store::{forward, KeyValueStore};
use fluidmem_telemetry::{consts, instrument_set, Registry};

/// Wraps a store with deterministic transport-fault injection.
///
/// # Example
///
/// ```
/// use fluidmem_coord::PartitionId;
/// use fluidmem_kv::{DramStore, ExternalKey, FaultInjectingStore, KeyValueStore, KvError};
/// use fluidmem_mem::{PageContents, Vpn};
/// use fluidmem_sim::{FaultEvent, FaultKind, FaultPlan, SimClock, SimRng};
///
/// let clock = SimClock::new();
/// let inner = DramStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(1));
/// let plan = FaultPlan::new(SimRng::seed_from_u64(2))
///     .script(FaultEvent { at_op: 0, kind: FaultKind::TransientError });
/// let mut store = FaultInjectingStore::new(Box::new(inner), plan, clock);
/// let key = ExternalKey::new(Vpn::new(1), PartitionId::new(0));
/// // Op 0 is refused; the retry (op 1) succeeds.
/// assert_eq!(store.put(key, PageContents::Token(9)), Err(KvError::Unavailable));
/// assert_eq!(store.put(key, PageContents::Token(9)), Ok(()));
/// ```
pub struct FaultInjectingStore {
    inner: Box<dyn KeyValueStore>,
    plan: FaultPlan,
    clock: SimClock,
    deadline: SimDuration,
    ops: u64,
    counters: FaultInjectionCounters,
}

instrument_set! {
    /// What a [`FaultInjectingStore`] counts itself, exported under the
    /// wrapper's own `store` label.
    pub(crate) struct FaultInjectionCounters {
        counters {
            faults_injected: STORE_OPS[LABEL_OP = "fault_injected"], "Faults injected, of any kind.";
            timeouts: STORE_OPS[LABEL_OP = "timeout"], "Operations the wrapper timed out.";
            unavailables: STORE_OPS[LABEL_OP = "unavailable"], "Operations the wrapper refused.";
        }
    }
}

impl FaultInjectingStore {
    /// Wraps `inner` with the given fault plan and a default 400 µs
    /// per-op deadline.
    pub fn new(inner: Box<dyn KeyValueStore>, plan: FaultPlan, clock: SimClock) -> Self {
        FaultInjectingStore {
            inner,
            plan,
            clock,
            deadline: SimDuration::from_micros(400),
            ops: 0,
            counters: FaultInjectionCounters::default(),
        }
    }

    fn next_fault(&mut self) -> Option<FaultKind> {
        let fault = self.plan.decide(self.ops);
        self.ops += 1;
        if fault.is_some() {
            self.counters.faults_injected.inc();
        }
        fault
    }

    /// Stretches the in-flight remainder of an async completion by the
    /// plan's slowdown factor.
    fn stretched(&self, completes_at: SimInstant) -> SimInstant {
        let now = self.clock.now();
        let remaining = completes_at.saturating_since(now).as_nanos() as f64;
        now + SimDuration::from_nanos((remaining * self.plan.slowdown()) as u64)
    }

    /// Cost of a fast server refusal.
    fn refusal_cost(&self) -> SimDuration {
        self.deadline / 8
    }
}

impl KeyValueStore for FaultInjectingStore {
    fn name(&self) -> &'static str {
        "fault-injecting"
    }

    fn put(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError> {
        match self.next_fault() {
            None => self.inner.put(key, value),
            Some(FaultKind::Drop) => {
                self.clock.advance(self.deadline);
                self.counters.timeouts.inc();
                Err(KvError::Timeout)
            }
            Some(FaultKind::Timeout) => {
                let issued_at = self.clock.now();
                self.inner.put(key, value)?;
                self.clock.advance_to(issued_at + self.deadline);
                self.counters.timeouts.inc();
                Err(KvError::Timeout)
            }
            Some(FaultKind::Duplicate) => {
                self.inner.put(key, value.clone())?;
                self.inner.put(key, value)
            }
            Some(FaultKind::SlowReplica) => {
                let issued_at = self.clock.now();
                let result = self.inner.put(key, value);
                let extra = self.clock.elapsed_since(issued_at).as_nanos() as f64
                    * (self.plan.slowdown() - 1.0);
                self.clock.advance(SimDuration::from_nanos(extra as u64));
                result
            }
            Some(FaultKind::TransientError) => {
                self.clock.advance(self.refusal_cost());
                self.counters.unavailables.inc();
                Err(KvError::Unavailable)
            }
            Some(FaultKind::Fatal) => {
                self.clock.advance(self.refusal_cost());
                Err(KvError::Corruption("injected fatal fault"))
            }
        }
    }

    fn begin_get(&mut self, key: ExternalKey) -> PendingGet {
        match self.next_fault() {
            None => self.inner.begin_get(key),
            // Reads have no server-side effect, so a lost request and a
            // lost response are client-identical: the deadline expires.
            Some(FaultKind::Drop) | Some(FaultKind::Timeout) => {
                self.counters.timeouts.inc();
                let now = self.clock.now();
                PendingGet::failed(key, KvError::Timeout, now, now + self.deadline)
            }
            // A duplicated read response is de-duplicated client-side
            // for free; only the plan's counters notice.
            Some(FaultKind::Duplicate) => self.inner.begin_get(key),
            Some(FaultKind::SlowReplica) => {
                let mut pending = self.inner.begin_get(key);
                pending.completes_at = self.stretched(pending.completes_at);
                pending
            }
            Some(FaultKind::TransientError) => {
                self.counters.unavailables.inc();
                let now = self.clock.now();
                PendingGet::failed(key, KvError::Unavailable, now, now + self.refusal_cost())
            }
            // A non-retryable refusal: the stored object is damaged in
            // place, so the error ships with the completion.
            Some(FaultKind::Fatal) => {
                let now = self.clock.now();
                let error = KvError::Corruption("injected fatal fault");
                PendingGet::failed(key, error, now, now + self.refusal_cost())
            }
        }
    }

    fn begin_multi_write(
        &mut self,
        batch: Vec<(ExternalKey, PageContents)>,
    ) -> Result<PendingWrite, KvError> {
        match self.next_fault() {
            None => self.inner.begin_multi_write(batch),
            Some(FaultKind::Drop) => {
                self.clock.advance(self.deadline);
                self.counters.timeouts.inc();
                Err(KvError::Timeout)
            }
            Some(FaultKind::Timeout) => {
                // The batch lands server-side; only the ack is lost.
                let issued_at = self.clock.now();
                let pending = self.inner.begin_multi_write(batch)?;
                self.inner.finish_write(pending);
                self.clock.advance_to(issued_at + self.deadline);
                self.counters.timeouts.inc();
                Err(KvError::Timeout)
            }
            Some(FaultKind::Duplicate) => {
                let first = self.inner.begin_multi_write(batch.clone())?;
                self.inner.finish_write(first);
                self.inner.begin_multi_write(batch)
            }
            Some(FaultKind::SlowReplica) => {
                let mut pending = self.inner.begin_multi_write(batch)?;
                pending.completes_at = self.stretched(pending.completes_at);
                Ok(pending)
            }
            Some(FaultKind::TransientError) => {
                self.clock.advance(self.refusal_cost());
                self.counters.unavailables.inc();
                Err(KvError::Unavailable)
            }
            Some(FaultKind::Fatal) => {
                self.clock.advance(self.refusal_cost());
                Err(KvError::Corruption("injected fatal fault"))
            }
        }
    }

    // Everything else passes through. Maintenance traffic is out-of-band
    // (a copier's private channel), so it is not faultable and consumes
    // no fault-plan decisions.
    forward!(self, self.inner, self.inner; delete finish_get finish_write drop_partition len
        partition_keys peek ingest expunge);

    fn stats(&self) -> StoreStats {
        let mut stats = self.inner.stats();
        stats += StoreStats {
            faults_injected: self.counters.faults_injected.get(),
            timeouts: self.counters.timeouts.get(),
            unavailables: self.counters.unavailables.get(),
            ..StoreStats::default()
        };
        stats
    }

    fn instrument(&mut self, registry: &Registry) {
        self.inner.instrument(registry);
        self.counters
            .register(registry, &[(consts::LABEL_STORE, self.name())]);
    }
}

impl std::fmt::Debug for FaultInjectingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjectingStore")
            .field("inner", &self.inner.name())
            .field("deadline", &self.deadline)
            .field("ops", &self.ops)
            .field("injected", &self.plan.stats().total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramStore;
    use fluidmem_coord::PartitionId;
    use fluidmem_mem::Vpn;
    use fluidmem_sim::{FaultEvent, SimRng};

    fn key(n: u64) -> ExternalKey {
        ExternalKey::new(Vpn::new(n), PartitionId::new(0))
    }

    fn scripted(clock: &SimClock, events: Vec<FaultEvent>) -> FaultInjectingStore {
        let inner = DramStore::new(1 << 24, clock.clone(), SimRng::seed_from_u64(1));
        let mut plan = FaultPlan::new(SimRng::seed_from_u64(2));
        for e in events {
            plan = plan.script(e);
        }
        FaultInjectingStore::new(Box::new(inner), plan, clock.clone())
    }

    fn event(at_op: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at_op, kind }
    }

    #[test]
    fn clean_plan_is_transparent() {
        let clock = SimClock::new();
        let mut s = scripted(&clock, vec![]);
        s.put(key(1), PageContents::Token(7)).unwrap();
        assert_eq!(s.get(key(1)).unwrap(), PageContents::Token(7));
        assert_eq!(s.stats().faults_injected, 0);
    }

    #[test]
    fn dropped_put_is_not_applied_and_costs_the_deadline() {
        let clock = SimClock::new();
        let mut s = scripted(&clock, vec![event(0, FaultKind::Drop)]);
        let t0 = clock.now();
        assert_eq!(s.put(key(1), PageContents::Token(7)), Err(KvError::Timeout));
        assert!(clock.now() - t0 >= s.deadline, "deadline must elapse");
        assert!(s.peek(key(1)).is_none(), "a dropped request never lands");
        assert_eq!(s.stats().timeouts, 1);
    }

    #[test]
    fn timed_out_put_is_applied_server_side() {
        let clock = SimClock::new();
        let mut s = scripted(&clock, vec![event(0, FaultKind::Timeout)]);
        assert_eq!(s.put(key(1), PageContents::Token(7)), Err(KvError::Timeout));
        // The ack was lost but the write happened: a retry-free read
        // already sees the data.
        assert_eq!(s.get(key(1)).unwrap(), PageContents::Token(7));
    }

    #[test]
    fn duplicate_put_is_idempotent() {
        let clock = SimClock::new();
        let mut s = scripted(&clock, vec![event(0, FaultKind::Duplicate)]);
        s.put(key(1), PageContents::Token(7)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(key(1)).unwrap(), PageContents::Token(7));
        // The server applied it twice.
        assert_eq!(s.stats().total_puts(), 2);
    }

    #[test]
    fn slow_replica_stretches_reads_but_returns_data() {
        let clock = SimClock::new();
        let mut s = scripted(&clock, vec![event(1, FaultKind::SlowReplica)]);
        s.put(key(1), PageContents::Token(7)).unwrap();

        let baseline = {
            let clock2 = SimClock::new();
            let mut s2 = scripted(&clock2, vec![]);
            s2.put(key(1), PageContents::Token(7)).unwrap();
            let t0 = clock2.now();
            s2.get(key(1)).unwrap();
            clock2.now() - t0
        };

        let t0 = clock.now();
        assert_eq!(s.get(key(1)).unwrap(), PageContents::Token(7));
        let slow = clock.now() - t0;
        assert!(
            slow.as_nanos() > baseline.as_nanos() * 2,
            "slow replica {slow} vs baseline {baseline}"
        );
    }

    #[test]
    fn transient_error_is_quick_and_leaves_no_trace() {
        let clock = SimClock::new();
        let mut s = scripted(&clock, vec![event(0, FaultKind::TransientError)]);
        let t0 = clock.now();
        assert_eq!(
            s.put(key(1), PageContents::Token(7)),
            Err(KvError::Unavailable)
        );
        assert!(clock.now() - t0 < s.deadline / 2, "refusals are fast");
        assert!(s.peek(key(1)).is_none());
        assert_eq!(s.stats().unavailables, 1);
    }

    #[test]
    fn timed_out_multi_write_lands_but_reports_timeout() {
        let clock = SimClock::new();
        let mut s = scripted(&clock, vec![event(0, FaultKind::Timeout)]);
        let batch: Vec<_> = (0..4).map(|i| (key(i), PageContents::Token(i))).collect();
        assert_eq!(s.multi_write(batch), Err(KvError::Timeout));
        for i in 0..4 {
            assert_eq!(s.get(key(i)).unwrap(), PageContents::Token(i));
        }
    }

    #[test]
    fn dropped_read_times_out_then_retry_succeeds() {
        let clock = SimClock::new();
        let mut s = scripted(&clock, vec![event(1, FaultKind::Drop)]);
        s.put(key(1), PageContents::Token(7)).unwrap();
        assert_eq!(s.get(key(1)), Err(KvError::Timeout));
        assert_eq!(s.get(key(1)).unwrap(), PageContents::Token(7));
        assert_eq!(s.stats().timeouts, 1);
    }
}
