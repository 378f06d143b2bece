//! The asynchronous write list (§V-B).

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, VecDeque};

use fluidmem_kv::ExternalKey;
use fluidmem_mem::PageContents;
use fluidmem_sim::{FastMap, SimInstant};

/// One page awaiting writeback.
#[derive(Debug, Clone)]
struct PendingPage {
    contents: PageContents,
    /// `UFFD_REMAP`'s TLB shootdown must finish before the page can go
    /// on the wire.
    ready_at: SimInstant,
    /// Stamp of the push that queued the page; matches its `order` entry.
    seq: u64,
}

/// A batch currently in flight to the store. The contents are retained
/// so a fault during the flight can be satisfied locally once the write
/// completes.
#[derive(Debug)]
struct InflightBatch {
    /// Sorted by key: a batch is at most one flush's worth of pages, so
    /// a binary search beats building (and allocating) a map per flush.
    pages: Vec<(ExternalKey, PageContents)>,
    completes_at: SimInstant,
}

impl InflightBatch {
    fn get(&self, key: ExternalKey) -> Option<&PageContents> {
        let i = self.pages.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        Some(&self.pages[i].1)
    }
}

/// Where a faulting page was found when the monitor checked the write
/// list.
#[derive(Debug, Clone, PartialEq)]
pub enum StealOutcome {
    /// Not on the write list; read from the store.
    Miss,
    /// Stolen from the pending list: the write was cancelled and the
    /// contents returned — two network round trips saved (§V-B).
    Stolen(PageContents),
    /// The page is in an in-flight batch: "there is no other choice than
    /// to wait for the write to complete" — the caller must wait until
    /// the given instant, then use the contents.
    WaitInflight {
        /// When the in-flight batch completes.
        until: SimInstant,
        /// The page contents, valid once the wait is over.
        contents: PageContents,
    },
}

/// The monitor's write list: evicted pages queue here and a flusher
/// periodically writes them to the key-value store in batches
/// ("leveraging RAMCloud's multi-write operation", §V-B).
#[derive(Debug, Default)]
pub struct WriteList {
    pending: FastMap<ExternalKey, PendingPage>,
    /// `(seq, key)` in first-push order. An entry is live while
    /// `pending[key].seq == seq`; a stolen or flushed page leaves a
    /// tombstone behind, dropped once it reaches the front.
    order: VecDeque<(u64, ExternalKey)>,
    /// Min-heap on `ready_at`. An entry is live while
    /// `pending[key].ready_at` still equals it; [`prune`](Self::prune)
    /// keeps the top live after every change, so the top is the exact
    /// minimum (a stale minimum once made `drain_writes` give up with
    /// pages still queued).
    ready: BinaryHeap<Reverse<(SimInstant, ExternalKey)>>,
    next_seq: u64,
    inflight: Vec<InflightBatch>,
    /// Emptied batch buffers — retired in-flight batches and whatever
    /// the flusher hands back — for the next flush to fill, so a
    /// steady flush rate allocates nothing.
    spare: Vec<Vec<(ExternalKey, PageContents)>>,
}

impl WriteList {
    /// Creates an empty write list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops dead entries from the top of `ready` and the front of
    /// `order`, and rebuilds either index once dead entries outnumber
    /// live ones, so both stay O(pending) whatever the steal pattern.
    fn prune(&mut self) {
        while let Some(&Reverse((at, key))) = self.ready.peek() {
            if self.pending.get(&key).is_some_and(|p| p.ready_at == at) {
                break;
            }
            self.ready.pop();
        }
        let pending = &self.pending;
        let live =
            |&(seq, key): &(u64, ExternalKey)| pending.get(&key).is_some_and(|p| p.seq == seq);
        while self.order.front().is_some_and(|entry| !live(entry)) {
            self.order.pop_front();
        }
        let bound = 2 * self.pending.len() + 64;
        if self.ready.len() > bound {
            self.ready.clear();
            self.ready
                .extend(self.pending.iter().map(|(&k, p)| Reverse((p.ready_at, k))));
        }
        if self.order.len() > bound {
            self.order.retain(live);
        }
    }

    /// Queues an evicted page. `ready_at` is the eviction's TLB-shootdown
    /// completion (the earliest instant the page may be flushed). A key
    /// that is already pending keeps its place in line and takes the new
    /// contents and `ready_at`.
    pub fn push(&mut self, key: ExternalKey, contents: PageContents, ready_at: SimInstant) {
        match self.pending.entry(key) {
            Entry::Occupied(mut e) => {
                let page = e.get_mut();
                page.contents = contents;
                if page.ready_at != ready_at {
                    page.ready_at = ready_at;
                    self.ready.push(Reverse((ready_at, key)));
                    // The old `ready_at` may have been the minimum.
                    self.prune();
                }
            }
            Entry::Vacant(e) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                e.insert(PendingPage {
                    contents,
                    ready_at,
                    seq,
                });
                self.order.push_back((seq, key));
                self.ready.push(Reverse((ready_at, key)));
            }
        }
    }

    /// Pages queued but not yet flushed.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The earliest `ready_at` among pending pages (for the stale-flush
    /// timer and for drain loops, which advance the clock to this instant
    /// to guarantee progress).
    pub(crate) fn oldest_pending(&self) -> Option<SimInstant> {
        self.ready.peek().map(|&Reverse((at, _))| at)
    }

    /// Looks for a faulting page on the list (the §V-B steal path).
    /// Pending pages are stolen (their write is cancelled); in-flight
    /// pages require waiting for the batch.
    pub(crate) fn steal(&mut self, key: ExternalKey, now: SimInstant) -> StealOutcome {
        if let Some(page) = self.pending.remove(&key) {
            self.prune();
            return StealOutcome::Stolen(page.contents);
        }
        // Retire batches that already finished before searching them.
        self.retire(now);
        for batch in &self.inflight {
            if let Some(contents) = batch.get(key) {
                return StealOutcome::WaitInflight {
                    until: batch.completes_at,
                    contents: contents.clone(),
                };
            }
        }
        StealOutcome::Miss
    }

    /// Takes up to `max` flushable pages (whose shootdowns completed by
    /// `now`) for a batch write, in first-push order, skipping pages that
    /// are not ready yet. Returns an empty vector if nothing is
    /// flushable.
    pub fn take_batch(&mut self, max: usize, now: SimInstant) -> Vec<(ExternalKey, PageContents)> {
        if self.oldest_pending().is_none_or(|at| at > now) {
            return Vec::new();
        }
        let mut batch = self.spare_batch();
        for &(seq, key) in &self.order {
            if batch.len() >= max {
                break;
            }
            if let Entry::Occupied(e) = self.pending.entry(key) {
                if e.get().seq == seq && e.get().ready_at <= now {
                    batch.push((key, e.remove().contents));
                }
            }
        }
        self.prune();
        batch
    }

    /// Registers a batch (of distinct keys, as
    /// [`take_batch`](Self::take_batch) returns them) as in flight.
    pub(crate) fn mark_inflight(
        &mut self,
        mut batch: Vec<(ExternalKey, PageContents)>,
        completes_at: SimInstant,
    ) {
        batch.sort_unstable_by_key(|&(key, _)| key);
        self.inflight.push(InflightBatch {
            pages: batch,
            completes_at,
        });
    }

    /// An empty batch buffer, recycled when one is spare.
    pub(crate) fn spare_batch(&mut self) -> Vec<(ExternalKey, PageContents)> {
        self.spare.pop().unwrap_or_default()
    }

    /// Takes back a batch buffer the caller is done with (a flushed
    /// batch the store handed back, a copy that was not needed) for a
    /// later [`take_batch`](Self::take_batch) or
    /// [`spare_batch`](Self::spare_batch).
    pub(crate) fn recycle(&mut self, mut batch: Vec<(ExternalKey, PageContents)>) {
        if batch.capacity() > 0 {
            batch.clear();
            self.spare.push(batch);
        }
    }

    /// Drops batches whose writes have completed.
    pub(crate) fn retire(&mut self, now: SimInstant) {
        let spare = &mut self.spare;
        self.inflight.retain_mut(|b| {
            let live = b.completes_at > now;
            if !live {
                let mut pages = std::mem::take(&mut b.pages);
                pages.clear();
                spare.push(pages);
            }
            live
        });
    }

    /// Whether a key is pending or in flight (its store copy is stale or
    /// incomplete — do not prefetch it from the store).
    pub(crate) fn is_tracked(&self, key: ExternalKey) -> bool {
        self.pending.contains_key(&key) || self.inflight.iter().any(|b| b.get(key).is_some())
    }

    /// Whether a key has a pending (not yet flushed) copy.
    pub(crate) fn is_pending(&self, key: ExternalKey) -> bool {
        self.pending.contains_key(&key)
    }

    /// Distinct pages either pending or in flight. A key can be both at
    /// once — re-evicted with new contents while an earlier batch holding
    /// it is still on the wire — and must count once, not twice.
    #[cfg(test)]
    fn outstanding(&self) -> usize {
        let only_inflight: fluidmem_sim::FastSet<ExternalKey> = self
            .inflight
            .iter()
            .flat_map(|b| b.pages.iter().map(|&(key, _)| key))
            .filter(|key| !self.pending.contains_key(key))
            .collect();
        self.pending.len() + only_inflight.len()
    }

    /// Returns a failed flush batch to the pending list (the batch is
    /// already past its TLB shootdown, so it is immediately flushable
    /// again). A key the VM re-evicted with *newer* contents while the
    /// batch was forming or on the wire keeps its pending copy: the
    /// stale batch copy is dropped for that key instead of clobbering it.
    pub(crate) fn requeue(&mut self, mut batch: Vec<(ExternalKey, PageContents)>, now: SimInstant) {
        for (key, contents) in batch.drain(..) {
            if !self.is_pending(key) {
                self.push(key, contents, now);
            }
        }
        self.recycle(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_coord::PartitionId;
    use fluidmem_mem::{Vpn, PAGE_SIZE};
    use fluidmem_sim::{SimDuration, SimRng};
    use std::collections::{HashMap, HashSet};

    fn key(n: u64) -> ExternalKey {
        ExternalKey::new(Vpn::new(n), PartitionId::new(0))
    }

    fn t(us: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_micros(us)
    }

    /// The pre-index implementation, verbatim semantics: a `Vec` of keys
    /// in first-push order (`retain`/`remove(i)` on every removal) and a
    /// full fold for the minimum. Kept as the behavioral reference the
    /// indexed list is checked against.
    #[derive(Default)]
    struct VecWriteList {
        pending: Vec<ExternalKey>,
        pending_pages: HashMap<ExternalKey, (PageContents, SimInstant)>,
        inflight: Vec<(HashMap<ExternalKey, PageContents>, SimInstant)>,
        oldest_pending: Option<SimInstant>,
        pending_bytes: u64,
    }

    impl VecWriteList {
        fn recompute_oldest(&mut self) {
            self.oldest_pending = self.pending_pages.values().map(|p| p.1).min();
        }

        fn push(&mut self, key: ExternalKey, contents: PageContents, ready_at: SimInstant) {
            if self
                .pending_pages
                .insert(key, (contents, ready_at))
                .is_none()
            {
                self.pending.push(key);
                self.pending_bytes += PAGE_SIZE as u64;
            }
            self.recompute_oldest();
        }

        fn steal(&mut self, key: ExternalKey, now: SimInstant) -> StealOutcome {
            if let Some((contents, _)) = self.pending_pages.remove(&key) {
                self.pending.retain(|k| *k != key);
                self.pending_bytes -= PAGE_SIZE as u64;
                self.recompute_oldest();
                return StealOutcome::Stolen(contents);
            }
            self.retire(now);
            for (pages, completes_at) in &self.inflight {
                if let Some(contents) = pages.get(&key) {
                    return StealOutcome::WaitInflight {
                        until: *completes_at,
                        contents: contents.clone(),
                    };
                }
            }
            StealOutcome::Miss
        }

        fn take_batch(&mut self, max: usize, now: SimInstant) -> Vec<(ExternalKey, PageContents)> {
            let mut batch = Vec::new();
            let mut i = 0;
            while i < self.pending.len() && batch.len() < max {
                let key = self.pending[i];
                if self.pending_pages[&key].1 <= now {
                    let (contents, _) = self.pending_pages.remove(&key).unwrap();
                    self.pending.remove(i);
                    self.pending_bytes -= PAGE_SIZE as u64;
                    batch.push((key, contents));
                } else {
                    i += 1;
                }
            }
            self.recompute_oldest();
            batch
        }

        fn mark_inflight(&mut self, batch: Vec<(ExternalKey, PageContents)>, at: SimInstant) {
            self.inflight.push((batch.into_iter().collect(), at));
        }

        fn retire(&mut self, now: SimInstant) {
            self.inflight
                .retain(|(_, completes_at)| *completes_at > now);
        }

        fn outstanding(&self) -> usize {
            let mut keys: HashSet<&ExternalKey> = self.pending_pages.keys().collect();
            for (pages, _) in &self.inflight {
                keys.extend(pages.keys());
            }
            keys.len()
        }

        fn requeue(&mut self, batch: Vec<(ExternalKey, PageContents)>, now: SimInstant) {
            for (key, contents) in batch {
                if !self.pending_pages.contains_key(&key) {
                    self.push(key, contents, now);
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push {
            key: u64,
            token: u64,
            ready_us: u64,
        },
        Steal {
            key: u64,
            now_us: u64,
        },
        /// Takes a batch and, per `then`, marks it in flight (0),
        /// requeues it as a failed flush (1) or drops it (2).
        Take {
            max: usize,
            now_us: u64,
            then: u64,
        },
        Retire {
            now_us: u64,
        },
    }

    fn random_ops(rng: &mut SimRng) -> Vec<Op> {
        // A clock that mostly creeps forward, while `ready_at` lands on
        // either side of it: non-monotone, sometimes far in the future.
        let mut now_us = 0;
        fluidmem_sim::prop::vec_of(rng, 200, 1500, |r| {
            now_us += r.gen_index(4);
            let key = r.gen_index(24);
            match r.gen_index(10) {
                0..=4 => Op::Push {
                    key,
                    token: r.gen_index(1 << 20),
                    ready_us: (now_us + r.gen_index(12)).saturating_sub(r.gen_index(6)),
                },
                5..=6 => Op::Steal { key, now_us },
                7..=8 => Op::Take {
                    max: [0, 1, 3, 8, usize::MAX][r.gen_index(5) as usize],
                    now_us,
                    then: r.gen_index(3),
                },
                _ => Op::Retire { now_us },
            }
        })
    }

    fn same<T: PartialEq + std::fmt::Debug>(
        what: &str,
        step: usize,
        got: T,
        want: T,
    ) -> Result<(), String> {
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "step {step}: {what}: got {got:?}, model says {want:?}"
            ))
        }
    }

    fn replay_against_model(ops: &[Op]) -> Result<(), String> {
        let mut wl = WriteList::new();
        let mut model = VecWriteList::default();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Push {
                    key: k,
                    token,
                    ready_us,
                } => {
                    wl.push(key(k), PageContents::Token(token), t(ready_us));
                    model.push(key(k), PageContents::Token(token), t(ready_us));
                }
                Op::Steal { key: k, now_us } => {
                    let got = wl.steal(key(k), t(now_us));
                    same("steal", step, got, model.steal(key(k), t(now_us)))?;
                }
                Op::Take { max, now_us, then } => {
                    let got = wl.take_batch(max, t(now_us));
                    let want = model.take_batch(max, t(now_us));
                    same("take_batch (in order)", step, &got, &want)?;
                    match then {
                        0 => {
                            let done = t(now_us + 5 + (step as u64 % 7));
                            wl.mark_inflight(got, done);
                            model.mark_inflight(want, done);
                        }
                        1 => {
                            wl.requeue(got, t(now_us + 1));
                            model.requeue(want, t(now_us + 1));
                        }
                        _ => {}
                    }
                }
                Op::Retire { now_us } => {
                    wl.retire(t(now_us));
                    model.retire(t(now_us));
                }
            }
            same(
                "oldest_pending",
                step,
                wl.oldest_pending(),
                model.oldest_pending,
            )?;
            same(
                "pending_len",
                step,
                wl.pending_len(),
                model.pending_pages.len(),
            )?;
            same(
                "pending_bytes",
                step,
                (wl.pending.len() * PAGE_SIZE) as u64,
                model.pending_bytes,
            )?;
            same("outstanding", step, wl.outstanding(), model.outstanding())?;
            same(
                "inflight_batches",
                step,
                wl.inflight.len(),
                model.inflight.len(),
            )?;
            // The indexes stay proportional to what is pending, whatever
            // mix of steals and out-of-order flushes produced them.
            let bound = 2 * wl.pending.len() + 64;
            if wl.order.len() > bound || wl.ready.len() > bound {
                return Err(format!(
                    "step {step}: index outgrew the list: order {} ready {} pending {}",
                    wl.order.len(),
                    wl.ready.len(),
                    wl.pending.len()
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn indexed_list_matches_the_vec_model() {
        fluidmem_sim::prop::forall_sequences(
            "write-list-vs-vec-model",
            4,
            random_ops,
            replay_against_model,
        );
    }

    #[test]
    fn a_shrinking_vm_does_not_go_quadratic() {
        // A rebalance that shrinks a VM pushes thousands of pages at once
        // and steals many back before the flusher catches up; every
        // operation must stay cheap with a long list. 200k operations
        // over a 50k-page list finish instantly when each is O(1); the
        // old per-operation fold over the map would need ~10^10 steps.
        let mut wl = WriteList::new();
        for n in 0..50_000 {
            wl.push(key(n), PageContents::Token(n), t(n));
        }
        for n in (0..50_000).step_by(2) {
            assert!(matches!(wl.steal(key(n), t(0)), StealOutcome::Stolen(_)));
        }
        assert_eq!(wl.oldest_pending(), Some(t(1)));
        let mut flushed = 0;
        while wl.pending_len() > 0 {
            flushed += wl.take_batch(32, t(60_000)).len();
        }
        assert_eq!(flushed, 25_000);
        assert_eq!(wl.oldest_pending(), None);
        assert!(wl.order.is_empty() && wl.ready.is_empty());
    }

    #[test]
    fn steal_from_pending_cancels_write() {
        let mut wl = WriteList::new();
        wl.push(key(1), PageContents::Token(1), t(0));
        match wl.steal(key(1), t(1)) {
            StealOutcome::Stolen(c) => assert_eq!(c, PageContents::Token(1)),
            other => panic!("expected steal, got {other:?}"),
        }
        assert_eq!(wl.pending_len(), 0);
        assert_eq!(wl.take_batch(10, t(10)).len(), 0, "write was cancelled");
    }

    #[test]
    fn steal_miss() {
        let mut wl = WriteList::new();
        assert_eq!(wl.steal(key(9), t(0)), StealOutcome::Miss);
    }

    #[test]
    fn inflight_requires_wait() {
        let mut wl = WriteList::new();
        wl.push(key(1), PageContents::Token(7), t(0));
        let batch = wl.take_batch(10, t(1));
        assert_eq!(batch.len(), 1);
        wl.mark_inflight(batch, t(100));
        match wl.steal(key(1), t(5)) {
            StealOutcome::WaitInflight { until, contents } => {
                assert_eq!(until, t(100));
                assert_eq!(contents, PageContents::Token(7));
            }
            other => panic!("expected wait, got {other:?}"),
        }
        // After completion the batch retires and the page is simply gone
        // (it lives in the store now).
        assert_eq!(wl.steal(key(1), t(101)), StealOutcome::Miss);
        assert_eq!(wl.inflight.len(), 0);
    }

    #[test]
    fn take_batch_respects_ready_at() {
        let mut wl = WriteList::new();
        wl.push(key(1), PageContents::Token(1), t(10));
        wl.push(key(2), PageContents::Token(2), t(0));
        let batch = wl.take_batch(10, t(5));
        assert_eq!(batch.len(), 1, "page 1's shootdown hasn't finished");
        assert_eq!(batch[0].0, key(2));
        assert_eq!(wl.pending_len(), 1);
    }

    #[test]
    fn take_batch_respects_max() {
        let mut wl = WriteList::new();
        for n in 0..10 {
            wl.push(key(n), PageContents::Token(n), t(0));
        }
        assert_eq!(wl.take_batch(4, t(1)).len(), 4);
        assert_eq!(wl.pending_len(), 6);
    }

    #[test]
    fn repush_same_key_overwrites() {
        let mut wl = WriteList::new();
        wl.push(key(1), PageContents::Token(1), t(0));
        wl.push(key(1), PageContents::Token(2), t(0));
        assert_eq!(wl.pending_len(), 1);
        match wl.steal(key(1), t(1)) {
            StealOutcome::Stolen(c) => assert_eq!(c, PageContents::Token(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oldest_pending_tracks_the_minimum_ready_at() {
        // Regression: a stale oldest_pending once made drain loops give
        // up while the newest eviction was still queued (migration lost
        // its last page).
        let mut wl = WriteList::new();
        wl.push(key(1), PageContents::Token(1), t(10));
        wl.push(key(2), PageContents::Token(2), t(5));
        wl.push(key(3), PageContents::Token(3), t(90));
        assert_eq!(wl.oldest_pending(), Some(t(5)));
        // Draining the ready entries must move the minimum forward to the
        // not-yet-flushable page, not leave it stuck in the past.
        let batch = wl.take_batch(10, t(20));
        assert_eq!(batch.len(), 2);
        assert_eq!(wl.oldest_pending(), Some(t(90)));
        // Stealing the last page empties the list entirely.
        assert!(matches!(wl.steal(key(3), t(21)), StealOutcome::Stolen(_)));
        assert_eq!(wl.oldest_pending(), None);
    }

    #[test]
    fn stolen_page_decrements_pending_len_exactly_once() {
        let mut wl = WriteList::new();
        wl.push(key(1), PageContents::Token(1), t(0));
        // Re-pushing the same key must not double-count it.
        wl.push(key(1), PageContents::Token(2), t(0));
        wl.push(key(2), PageContents::Token(3), t(0));
        assert_eq!(wl.pending_len(), 2);
        assert!(matches!(wl.steal(key(1), t(1)), StealOutcome::Stolen(_)));
        assert_eq!(wl.pending_len(), 1);
        // A second steal of the same key misses and leaves the count.
        assert!(!matches!(wl.steal(key(1), t(1)), StealOutcome::Stolen(_)));
        assert_eq!(wl.pending_len(), 1);
        let _ = wl.take_batch(10, t(2));
        assert_eq!(wl.pending_len(), 0);
    }

    #[test]
    fn wait_inflight_key_leaves_the_batch_after_completion() {
        let mut wl = WriteList::new();
        wl.push(key(1), PageContents::Token(7), t(0));
        let batch = wl.take_batch(10, t(1));
        wl.mark_inflight(batch, t(100));
        // A fault during the flight must wait...
        let outcome = wl.steal(key(1), t(50));
        let StealOutcome::WaitInflight { until, .. } = outcome else {
            panic!("expected wait, got {outcome:?}");
        };
        assert_eq!(until, t(100));
        // ...and once `completes_at` passes, the key must not linger in
        // the in-flight set: the store owns the page now.
        assert!(!{
            wl.retire(t(100));
            wl.is_tracked(key(1))
        });
        assert_eq!(wl.steal(key(1), t(100)), StealOutcome::Miss);
        assert_eq!(wl.inflight.len(), 0);
        assert_eq!(wl.outstanding(), 0);
    }

    #[test]
    fn outstanding_counts_both() {
        let mut wl = WriteList::new();
        for n in 0..6 {
            wl.push(key(n), PageContents::Token(n), t(0));
        }
        let batch = wl.take_batch(4, t(1));
        wl.mark_inflight(batch, t(50));
        assert_eq!(wl.outstanding(), 6);
        wl.retire(t(51));
        assert_eq!(wl.outstanding(), 2);
    }

    #[test]
    fn outstanding_counts_a_reevicted_inflight_key_once() {
        // evict → flush (batch on the wire) → the VM re-dirties and
        // re-evicts the same page → re-push while the batch still flies.
        let mut wl = WriteList::new();
        wl.push(key(1), PageContents::Token(10), t(0));
        let batch = wl.take_batch(10, t(1));
        wl.mark_inflight(batch, t(100));
        wl.push(key(1), PageContents::Token(20), t(2));
        assert!(wl.is_pending(key(1)));
        assert!(wl.is_tracked(key(1)));
        // One page, two copies: the drain has one page of work, and the
        // gauge must say 1, not 2.
        assert_eq!(wl.outstanding(), 1);
        // Stealing must prefer the newer pending copy over the stale
        // in-flight one — never WaitInflight on outdated contents.
        match wl.steal(key(1), t(3)) {
            StealOutcome::Stolen(c) => assert_eq!(c, PageContents::Token(20)),
            other => panic!("expected the newer pending copy, got {other:?}"),
        }
        // The stale in-flight copy still counts until the batch retires.
        assert_eq!(wl.outstanding(), 1);
        wl.retire(t(101));
        assert_eq!(wl.outstanding(), 0);
    }

    #[test]
    fn requeue_keeps_the_newer_pending_copy() {
        // A failed flush must not clobber a page re-evicted with newer
        // contents between batch formation and the failure.
        let mut wl = WriteList::new();
        wl.push(key(1), PageContents::Token(10), t(0));
        wl.push(key(2), PageContents::Token(11), t(0));
        let batch = wl.take_batch(10, t(1));
        assert_eq!(batch.len(), 2);
        // Key 1 is re-evicted with newer contents while the batch is out.
        wl.push(key(1), PageContents::Token(99), t(2));
        wl.requeue(batch, t(3));
        assert_eq!(wl.pending_len(), 2);
        match wl.steal(key(1), t(4)) {
            StealOutcome::Stolen(c) => assert_eq!(c, PageContents::Token(99)),
            other => panic!("requeue clobbered the newer copy: {other:?}"),
        }
        // Key 2 had no newer copy; the batch copy is restored.
        match wl.steal(key(2), t(4)) {
            StealOutcome::Stolen(c) => assert_eq!(c, PageContents::Token(11)),
            other => panic!("requeue lost key 2: {other:?}"),
        }
    }
}
