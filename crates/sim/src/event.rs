//! A deterministic discrete-event queue over virtual time.
//!
//! Interactions that take virtual time (a store fetch, a TLB shootdown,
//! a write-list batch) are *events* that complete at a known
//! [`SimInstant`]. [`EventQueue`] is the scheduler substrate: a
//! priority queue ordered by `(virtual_time, seq)` where `seq` is a
//! monotonically increasing insertion counter. The tiebreak makes the
//! pop order a pure function of the push history — two runs that push
//! the same events in the same order pop them in the same order, which
//! is what keeps pipelined experiments bit-for-bit reproducible.
//!
//! Payloads live in a slab of reusable slots, not in the heap entries:
//! the heap holds small `Copy` records `(at, seq, slot, gen)` and a
//! freed slot is recycled by the next push, so sustained push/pop
//! traffic at any in-flight depth stops allocating once the slab has
//! grown to the peak depth. The slot indirection is also what makes
//! O(1)-amortized cancellation possible: [`EventQueue::push_keyed`]
//! returns an [`EventToken`] (slot + generation), and
//! [`EventQueue::cancel`] just bumps the
//! slot's generation — the orphaned heap record is skipped lazily when
//! it surfaces, never searched for.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimInstant;

/// One scheduled heap record. The payload is *not* here (it lives in
/// the slot slab), so the record is `Copy` and needs no `Ord` from `T`.
#[derive(Clone, Copy)]
struct HeapRecord {
    at: SimInstant,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl PartialEq for HeapRecord {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for HeapRecord {}

impl PartialOrd for HeapRecord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapRecord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One payload slot: the generation invalidates stale heap records
/// after a cancel.
struct Slot<T> {
    gen: u32,
    payload: Option<T>,
}

/// A handle to a scheduled event, returned by
/// [`EventQueue::push_keyed`]. Passing it to [`EventQueue::cancel`]
/// after the event already popped (or was cancelled) is safe: the generation check makes the call a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventToken {
    slot: u32,
    gen: u32,
}

/// A deterministic min-queue of `(SimInstant, payload)` events.
///
/// Events at equal instants pop in push order (FIFO), so the schedule is
/// fully determined by the sequence of pushes — no dependence on heap
/// internals, hash order, or wall-clock time. Cancelling an event
/// never disturbs the relative order of the others.
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<HeapRecord>>,
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue that holds `events` scheduled events before it
    /// allocates again.
    pub fn with_capacity(events: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(events),
            slots: Vec::with_capacity(events),
            free: Vec::with_capacity(events),
            live: 0,
            next_seq: 0,
        }
    }

    fn alloc_slot(&mut self, payload: T) -> (u32, u32) {
        match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                debug_assert!(slot.payload.is_none());
                slot.payload = Some(payload);
                (i, slot.gen)
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some(payload),
                });
                (i, 0)
            }
        }
    }

    /// Bumps a slot's generation (orphaning any heap record that points
    /// at the old one) and returns it to the free list.
    fn release_slot(&mut self, i: u32) -> Option<T> {
        let slot = &mut self.slots[i as usize];
        slot.gen = slot.gen.wrapping_add(1);
        let payload = slot.payload.take();
        if payload.is_some() {
            self.free.push(i);
        }
        payload
    }

    /// Pops orphaned records off the top of the heap so `peek_time` can
    /// stay `&self`: the invariant is that the heap's minimum is always
    /// a live event (or the heap is empty).
    fn drop_stale_top(&mut self) {
        while let Some(Reverse(rec)) = self.heap.peek() {
            let slot = &self.slots[rec.slot as usize];
            if slot.gen == rec.gen && slot.payload.is_some() {
                return;
            }
            self.heap.pop();
        }
    }

    /// Schedules `payload` to complete at `at`. Returns the event's
    /// sequence number (its FIFO rank among same-instant events).
    pub fn push(&mut self, at: SimInstant, payload: T) -> u64 {
        self.push_keyed(at, payload).0
    }

    /// Schedules `payload` to complete at `at`, returning both the
    /// sequence number and a token for a later [`cancel`].
    ///
    /// [`cancel`]: EventQueue::cancel
    pub fn push_keyed(&mut self, at: SimInstant, payload: T) -> (u64, EventToken) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, gen) = self.alloc_slot(payload);
        self.heap.push(Reverse(HeapRecord { at, seq, slot, gen }));
        self.live += 1;
        (seq, EventToken { slot, gen })
    }

    /// Cancels a scheduled event, returning its payload, or `None` if
    /// the token is stale (the event already popped or was cancelled). O(1)
    /// amortized: the heap record is orphaned in place, not removed.
    pub fn cancel(&mut self, token: EventToken) -> Option<T> {
        if self
            .slots
            .get(token.slot as usize)
            .is_none_or(|s| s.gen != token.gen || s.payload.is_none())
        {
            return None;
        }
        let payload = self.release_slot(token.slot);
        self.live -= 1;
        self.drop_stale_top();
        payload
    }

    /// The payload of a scheduled event, in place, or `None` if the
    /// token is stale. The event keeps its instant and its FIFO rank.
    pub fn get_mut(&mut self, token: EventToken) -> Option<&mut T> {
        let slot = self.slots.get_mut(token.slot as usize)?;
        if slot.gen != token.gen {
            return None;
        }
        slot.payload.as_mut()
    }

    /// The completion time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimInstant> {
        // `drop_stale_top` runs after every mutation, so the heap's
        // minimum is live whenever one exists.
        self.heap.peek().map(|Reverse(rec)| rec.at)
    }

    /// Removes and returns the earliest event as `(completes_at,
    /// payload)`. Ties pop in push order.
    pub fn pop_next(&mut self) -> Option<(SimInstant, T)> {
        loop {
            let Reverse(rec) = self.heap.pop()?;
            let slot = &self.slots[rec.slot as usize];
            if slot.gen == rec.gen && slot.payload.is_some() {
                let payload = self.release_slot(rec.slot).expect("slot checked live");
                self.live -= 1;
                self.drop_stale_top();
                return Some((rec.at, payload));
            }
        }
    }

    /// Removes and returns the earliest event only if it completes at or
    /// before `now` (a non-blocking poll).
    pub fn pop_ready(&mut self, now: SimInstant) -> Option<(SimInstant, T)> {
        if self.peek_time()? <= now {
            self.pop_next()
        } else {
            None
        }
    }

    /// How many events are scheduled (cancelled events excluded).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the queue has no scheduled events.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Payload slots currently allocated in the slab (live + pooled):
    /// the queue's standing memory footprint, which plateaus at the peak
    /// in-flight depth instead of growing with churn.
    pub fn slab_slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimInstant::from_nanos(30), "c");
        q.push(SimInstant::from_nanos(10), "a");
        q.push(SimInstant::from_nanos(20), "b");
        assert_eq!(q.pop_next(), Some((SimInstant::from_nanos(10), "a")));
        assert_eq!(q.pop_next(), Some((SimInstant::from_nanos(20), "b")));
        assert_eq!(q.pop_next(), Some((SimInstant::from_nanos(30), "c")));
        assert_eq!(q.pop_next(), None);
    }

    #[test]
    fn equal_instants_pop_in_push_order() {
        let mut q = EventQueue::new();
        let t = SimInstant::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop_next(), Some((t, i)));
        }
    }

    #[test]
    fn pop_ready_respects_now() {
        let mut q = EventQueue::new();
        q.push(SimInstant::from_nanos(100), 1u32);
        assert_eq!(q.pop_ready(SimInstant::from_nanos(99)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_ready(SimInstant::from_nanos(100)),
            Some((SimInstant::from_nanos(100), 1))
        );
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimInstant::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimInstant::from_nanos(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancel_removes_exactly_one_event() {
        let mut q = EventQueue::new();
        q.push(SimInstant::from_nanos(10), "keep-a");
        let (_, tok) = q.push_keyed(SimInstant::from_nanos(20), "drop");
        q.push(SimInstant::from_nanos(30), "keep-b");
        assert_eq!(q.cancel(tok), Some("drop"));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_next(), Some((SimInstant::from_nanos(10), "keep-a")));
        assert_eq!(q.pop_next(), Some((SimInstant::from_nanos(30), "keep-b")));
        assert_eq!(q.pop_next(), None);
    }

    #[test]
    fn stale_tokens_are_noops() {
        let mut q = EventQueue::new();
        let (_, tok) = q.push_keyed(SimInstant::from_nanos(1), 7u32);
        assert_eq!(q.pop_next(), Some((SimInstant::from_nanos(1), 7)));
        // Popped: the token is dead.
        assert_eq!(q.cancel(tok), None);
        // Double-cancel is dead too, even after the slot is reused.
        let (_, tok2) = q.push_keyed(SimInstant::from_nanos(2), 8u32);
        assert_eq!(q.cancel(tok2), Some(8));
        assert_eq!(q.cancel(tok2), None);
        let (_, tok3) = q.push_keyed(SimInstant::from_nanos(3), 9u32);
        assert_eq!(
            q.cancel(tok),
            None,
            "old token must not hit the reused slot"
        );
        assert_eq!(q.pop_next(), Some((SimInstant::from_nanos(3), 9)));
        assert_eq!(q.cancel(tok3), None);
    }

    #[test]
    fn cancel_at_the_top_keeps_peek_live() {
        let mut q = EventQueue::new();
        let (_, tok) = q.push_keyed(SimInstant::from_nanos(1), "front");
        q.push(SimInstant::from_nanos(5), "behind");
        assert_eq!(q.peek_time(), Some(SimInstant::from_nanos(1)));
        q.cancel(tok);
        // peek_time is &self, so the cancel itself must restore the
        // heap-top invariant.
        assert_eq!(q.peek_time(), Some(SimInstant::from_nanos(5)));
    }

    #[test]
    fn slab_plateaus_at_peak_depth_under_churn() {
        let mut q = EventQueue::new();
        for round in 0..1_000u64 {
            for k in 0..8 {
                q.push(SimInstant::from_nanos(round * 10 + k), (round, k));
            }
            for _ in 0..8 {
                q.pop_next().unwrap();
            }
        }
        assert!(q.is_empty());
        assert!(
            q.slab_slots() <= 8,
            "slab grew past peak depth: {}",
            q.slab_slots()
        );
    }

    #[test]
    fn cancel_churn_does_not_grow_the_slab() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            let (_, tok) = q.push_keyed(SimInstant::from_nanos(i), i);
            if i % 2 == 0 {
                assert_eq!(q.cancel(tok), Some(i));
            } else {
                assert_eq!(q.pop_next(), Some((SimInstant::from_nanos(i), i)));
            }
        }
        assert!(q.is_empty());
        assert!(q.slab_slots() <= 2, "slab leaked: {}", q.slab_slots());
    }

    #[test]
    fn interleaved_keyed_ops_match_a_model() {
        crate::prop::forall("event-queue-keyed-ops", 64, |rng| {
            let mut q = EventQueue::new();
            // Model: live events as (at, seq, id, edits), popped in
            // (at, seq); the payload is (id, edits).
            let mut model: Vec<(u64, u64, u64, u64)> = Vec::new();
            let mut tokens: Vec<(EventToken, u64)> = Vec::new();
            let mut next_seq = 0u64;
            let mut next_id = 0u64;
            for _ in 0..300 {
                match rng.gen_index(5) {
                    0 | 1 => {
                        let at = rng.gen_index(50);
                        let id = next_id;
                        next_id += 1;
                        let (_, tok) = q.push_keyed(SimInstant::from_nanos(at), (id, 0));
                        model.push((at, next_seq, id, 0));
                        next_seq += 1;
                        tokens.push((tok, id));
                    }
                    2 if !tokens.is_empty() => {
                        let k = rng.gen_index(tokens.len() as u64) as usize;
                        let (tok, id) = tokens.swap_remove(k);
                        let live = model.iter().any(|&(_, _, i, _)| i == id);
                        assert_eq!(q.cancel(tok).is_some(), live);
                        model.retain(|&(_, _, i, _)| i != id);
                    }
                    3 if !tokens.is_empty() => {
                        // An in-place edit reaches exactly the live event
                        // the token names and moves nothing.
                        let (tok, id) = tokens[rng.gen_index(tokens.len() as u64) as usize];
                        let entry = model.iter_mut().find(|e| e.2 == id);
                        match (q.get_mut(tok), entry) {
                            (Some(payload), Some(entry)) => {
                                assert_eq!(*payload, (id, entry.3));
                                payload.1 += 1;
                                entry.3 += 1;
                            }
                            (None, None) => {}
                            (got, want) => panic!("get_mut {got:?} vs model {want:?}"),
                        }
                    }
                    _ => {
                        model.sort();
                        let expect = if model.is_empty() {
                            None
                        } else {
                            let (at, _, id, edits) = model.remove(0);
                            Some((SimInstant::from_nanos(at), (id, edits)))
                        };
                        assert_eq!(q.pop_next(), expect);
                    }
                }
                assert_eq!(q.len(), model.len());
            }
            model.sort();
            for (at, _, id, edits) in model {
                assert_eq!(
                    q.pop_next(),
                    Some((SimInstant::from_nanos(at), (id, edits)))
                );
            }
            assert_eq!(q.pop_next(), None);
        });
    }
}
