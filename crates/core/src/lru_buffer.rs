//! The monitor's resizable LRU buffer.

use fluidmem_mem::{PageArray, Vpn};

/// Link value past either end of the list.
const END: i32 = i32::MIN;
/// A slot whose page is not on the list: no page links to itself.
const OFF: i32 = 0;

/// One page's place in the recency list: how many slots away its
/// neighbours are, or [`END`].
#[derive(Debug, Clone, Copy, Default)]
struct Links {
    prev: i32,
    next: i32,
}

/// The page a link from `vpn` leads to.
fn step(vpn: Vpn, link: i32) -> Option<Vpn> {
    (link != END).then(|| Vpn::new(vpn.raw().wrapping_add_signed(link.into())))
}

/// The link from `from` to `to`.
fn link(from: Vpn, to: Option<Vpn>) -> i32 {
    to.map_or(END, |to| {
        let offset = to.raw().wrapping_sub(from.raw()) as i64;
        let link = i32::try_from(offset).unwrap_or(END);
        assert!(link != END, "an LRU spans under 2³¹ pages");
        link
    })
}

/// The list that bounds a VM's DRAM footprint (§V-A).
///
/// * "Evictions come from the top of the LRU list" — the head here.
/// * "The LRU list is only updated when a page is seen by the monitor
///   process, which only happens on first access and after an eviction.
///   At present, the internal ordering of the list does not change." —
///   new and refaulted pages join at the tail; nothing else moves (unless
///   the [`ScanReferenced`](crate::LruPolicy::ScanReferenced) ablation
///   rotates entries explicitly via `rotate_to_tail`).
/// * "The userfaultfd capability allows the local memory buffer to be
///   actively sized up or down" — `set_capacity`
///   changes the bound at runtime; the monitor then evicts down to it.
///
/// Internally the list is intrusive and doubly linked through a
/// [`PageArray`]: each page's links live at the page's own slot and are
/// slot offsets to its neighbours, so insert, remove, rotate, and
/// victim-pop are all O(1) array steps with no hash, and
/// `peek_head_into` walks exactly the pages it
/// returns. The array spans the pages the buffer has ever held.
///
/// # Example
///
/// ```
/// use fluidmem_core::LruBuffer;
/// use fluidmem_mem::Vpn;
///
/// let mut lru = LruBuffer::new(2);
/// lru.insert(Vpn::new(1));
/// lru.insert(Vpn::new(2));
/// lru.insert(Vpn::new(3));
/// assert_eq!(lru.pop_victim(), Some(Vpn::new(1))); // strict first-touch order
/// ```
#[derive(Debug)]
pub struct LruBuffer {
    links: PageArray<Links>,
    head: Option<Vpn>,
    tail: Option<Vpn>,
    len: u64,
    capacity: u64,
}

impl LruBuffer {
    /// Creates a buffer bounded at `capacity` pages.
    pub fn new(capacity: u64) -> Self {
        LruBuffer {
            links: PageArray::default(),
            head: None,
            tail: None,
            len: 0,
            capacity,
        }
    }

    /// The configured bound.
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Changes the bound. The caller is responsible for evicting down to
    /// it afterwards.
    pub(crate) fn set_capacity(&mut self, capacity: u64) {
        self.capacity = capacity;
    }

    /// Pages currently tracked (the VM's DRAM footprint).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the buffer tracks no pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the buffer exceeds its bound.
    pub(crate) fn over_capacity(&self) -> bool {
        self.len > self.capacity
    }

    /// Whether a page is tracked.
    pub(crate) fn contains(&self, vpn: Vpn) -> bool {
        self.links.get(vpn).is_some_and(|l| l.prev != OFF)
    }

    /// Slots in the page array: the buffer's standing memory footprint,
    /// which spans the pages it has ever held.
    pub(crate) fn array_slots(&self) -> usize {
        self.links.span()
    }

    /// Splices `vpn` onto the list tail.
    fn link_tail(&mut self, vpn: Vpn) {
        let tail = self.tail;
        *self.links.slot_mut(vpn) = Links {
            prev: link(vpn, tail),
            next: END,
        };
        match tail {
            None => self.head = Some(vpn),
            Some(t) => self.links[t].next = link(t, Some(vpn)),
        }
        self.tail = Some(vpn);
    }

    /// Unlinks `vpn` from the list, leaving its slot off the list.
    fn unlink(&mut self, vpn: Vpn) {
        let Links { prev, next } = std::mem::take(&mut self.links[vpn]);
        let (prev, next) = (step(vpn, prev), step(vpn, next));
        match prev {
            None => self.head = next,
            Some(p) => self.links[p].next = link(p, next),
        }
        match next {
            None => self.tail = prev,
            Some(n) => self.links[n].prev = link(n, prev),
        }
    }

    /// Adds a page at the tail (first access or refault). Returns `false`
    /// if already present.
    pub fn insert(&mut self, vpn: Vpn) -> bool {
        if self.contains(vpn) {
            return false;
        }
        self.link_tail(vpn);
        self.len += 1;
        true
    }

    /// Removes a page in O(1) through its slot.
    pub(crate) fn remove(&mut self, vpn: Vpn) -> bool {
        if !self.contains(vpn) {
            return false;
        }
        self.unlink(vpn);
        self.len -= 1;
        true
    }

    /// Takes the eviction victim from the top of the list.
    pub fn pop_victim(&mut self) -> Option<Vpn> {
        let vpn = self.head?;
        self.unlink(vpn);
        self.len -= 1;
        Some(vpn)
    }

    /// Writes the next `n` victims in order (for referenced-bit
    /// scanning) to `out` without removing them. Walks exactly
    /// `min(n, len)` pages — every step lands on a live page — and reuses
    /// the caller's buffer, so the periodic scan path allocates once.
    pub(crate) fn peek_head_into(&self, n: usize, out: &mut Vec<Vpn>) {
        out.clear();
        let mut next = self.head;
        while let Some(vpn) = next.filter(|_| out.len() < n) {
            out.push(vpn);
            next = step(vpn, self.links[vpn].next);
        }
    }

    /// Moves a tracked page to the tail (the `ScanReferenced` ablation's
    /// rotation). Returns `false` if the page is not tracked.
    pub(crate) fn rotate_to_tail(&mut self, vpn: Vpn) -> bool {
        if !self.contains(vpn) {
            return false;
        }
        self.unlink(vpn);
        self.link_tail(vpn);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn peek_head(lru: &LruBuffer, n: usize) -> Vec<Vpn> {
        let mut out = Vec::new();
        lru.peek_head_into(n, &mut out);
        out
    }

    fn v(n: u64) -> Vpn {
        Vpn::new(n)
    }

    #[test]
    fn strict_first_touch_order() {
        let mut lru = LruBuffer::new(10);
        for n in [3, 1, 4, 1, 5] {
            lru.insert(v(n));
        }
        assert_eq!(lru.len(), 4, "duplicate insert ignored");
        assert_eq!(lru.pop_victim(), Some(v(3)));
        assert_eq!(lru.pop_victim(), Some(v(1)));
        assert_eq!(lru.pop_victim(), Some(v(4)));
    }

    #[test]
    fn removed_pages_are_skipped() {
        let mut lru = LruBuffer::new(10);
        lru.insert(v(1));
        lru.insert(v(2));
        lru.remove(v(1));
        assert_eq!(lru.pop_victim(), Some(v(2)));
        assert_eq!(lru.pop_victim(), None);
    }

    #[test]
    fn reinsert_after_remove_goes_to_tail() {
        let mut lru = LruBuffer::new(10);
        lru.insert(v(1));
        lru.insert(v(2));
        lru.remove(v(1));
        lru.insert(v(1)); // refault: tail position
        assert_eq!(lru.pop_victim(), Some(v(2)));
        assert_eq!(lru.pop_victim(), Some(v(1)));
    }

    #[test]
    fn resize_changes_over_capacity() {
        let mut lru = LruBuffer::new(4);
        for n in 0..4 {
            lru.insert(v(n));
        }
        assert!(!lru.over_capacity());
        lru.set_capacity(2);
        assert!(lru.over_capacity());
        lru.pop_victim();
        lru.pop_victim();
        assert!(!lru.over_capacity());
        assert_eq!(lru.capacity(), 2);
    }

    #[test]
    fn rotation_changes_eviction_order() {
        let mut lru = LruBuffer::new(10);
        for n in 0..3 {
            lru.insert(v(n));
        }
        assert!(lru.rotate_to_tail(v(0)));
        assert_eq!(lru.pop_victim(), Some(v(1)), "0 was rotated away");
        assert_eq!(lru.pop_victim(), Some(v(2)));
        assert_eq!(lru.pop_victim(), Some(v(0)));
        assert_eq!(lru.pop_victim(), None);
    }

    #[test]
    fn rotation_of_untracked_page_fails() {
        let mut lru = LruBuffer::new(4);
        assert!(!lru.rotate_to_tail(v(9)));
    }

    #[test]
    fn peek_head_skips_stale() {
        let mut lru = LruBuffer::new(10);
        for n in 0..5 {
            lru.insert(v(n));
        }
        lru.remove(v(0));
        lru.rotate_to_tail(v(1));
        assert_eq!(peek_head(&lru, 2), vec![v(2), v(3)]);
    }

    #[test]
    fn peek_head_into_reuses_the_buffer() {
        let mut lru = LruBuffer::new(10);
        for n in 0..4 {
            lru.insert(v(n));
        }
        let mut buf = vec![v(99); 8];
        lru.peek_head_into(3, &mut buf);
        assert_eq!(buf, vec![v(0), v(1), v(2)]);
        lru.peek_head_into(10, &mut buf);
        assert_eq!(buf, vec![v(0), v(1), v(2), v(3)], "clamped at len");
    }

    #[test]
    fn heavy_rotation_does_not_leak_deque() {
        let mut lru = LruBuffer::new(64);
        for n in 0..64 {
            lru.insert(v(n));
        }
        for _round in 0..100 {
            for n in 0..64 {
                lru.rotate_to_tail(v(n));
            }
        }
        // Rotation relinks in place: the array spans the 64 pages, no
        // matter how much the order churns.
        assert_eq!(lru.array_slots(), 64, "array grew under rotation churn");
        // Order is still coherent after all that relinking.
        let mut seen = std::collections::HashSet::new();
        while let Some(p) = lru.pop_victim() {
            assert!(seen.insert(p));
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn insert_remove_churn_does_not_leak_deque() {
        let mut lru = LruBuffer::new(8);
        for i in 0..10_000u64 {
            let p = i % 16;
            lru.insert(v(p));
            lru.remove(v(p));
        }
        // Storage spans the pages ever held (16 here), not the
        // operation count.
        assert!(
            lru.array_slots() <= 16,
            "array grew to {} under insert/remove churn",
            lru.array_slots()
        );
        assert!(lru.is_empty());
        assert_eq!(lru.pop_victim(), None);
    }

    #[test]
    fn array_spans_only_the_pages_held() {
        let mut lru = LruBuffer::new(1024);
        // Peak of 32 live pages, then sustained churn below the peak.
        for n in 0..32 {
            lru.insert(v(n));
        }
        for n in 8..32 {
            lru.remove(v(n));
        }
        for round in 0..1_000u64 {
            let p = 100 + (round % 24);
            lru.insert(v(p));
            lru.rotate_to_tail(v(p));
            lru.remove(v(p));
        }
        assert!(
            lru.array_slots() <= 124,
            "array grew past the pages held: {}",
            lru.array_slots()
        );
    }

    #[test]
    fn shrink_then_rotate_keeps_accounting_live_only() {
        let mut lru = LruBuffer::new(8);
        for n in 0..8 {
            lru.insert(v(n));
        }
        lru.set_capacity(4);
        // Rotating while over capacity must keep the accounting on live
        // members only.
        for n in 0..8 {
            lru.rotate_to_tail(v(n));
        }
        assert_eq!(lru.len(), 8);
        assert!(lru.over_capacity());
        let mut victims = Vec::new();
        while lru.over_capacity() {
            victims.push(lru.pop_victim().unwrap());
        }
        assert_eq!(victims, vec![v(0), v(1), v(2), v(3)]);
        assert_eq!(lru.len(), 4);
        for victim in victims {
            assert!(!lru.contains(victim), "removed page resurfaced");
        }
    }

    #[test]
    fn interleaved_ops_match_a_model() {
        fluidmem_sim::prop::forall("lru-interleaved-ops", 64, |rng| {
            let mut lru = LruBuffer::new(8);
            // Live pages in eviction order.
            let mut model: Vec<u64> = Vec::new();
            let ops =
                fluidmem_sim::prop::vec_of(rng, 1, 299, |r| (r.gen_index(5), r.gen_index(24)));
            for (op, page) in ops {
                match op {
                    0 | 1 => {
                        let inserted = lru.insert(v(page));
                        assert_eq!(inserted, !model.contains(&page));
                        if inserted {
                            model.push(page);
                        }
                    }
                    2 => {
                        let removed = lru.remove(v(page));
                        assert_eq!(removed, model.contains(&page));
                        model.retain(|&p| p != page);
                    }
                    3 => {
                        let rotated = lru.rotate_to_tail(v(page));
                        assert_eq!(rotated, model.contains(&page));
                        if rotated {
                            model.retain(|&p| p != page);
                            model.push(page);
                        }
                    }
                    _ => {
                        lru.set_capacity(page % 8);
                        while lru.over_capacity() {
                            assert_eq!(lru.pop_victim(), Some(v(model.remove(0))));
                        }
                    }
                }
                assert_eq!(lru.len() as usize, model.len());
                assert_eq!(lru.over_capacity(), model.len() as u64 > lru.capacity());
            }
            // Drain: victims surface in exactly the model's order, each
            // live page once, never a removed one.
            for expected in model {
                assert_eq!(lru.pop_victim(), Some(v(expected)));
            }
            assert_eq!(lru.pop_victim(), None);
        });
    }

    /// The first implementation, verbatim semantics: a `(seq, page)`
    /// deque with lazily skipped stale entries. Kept as the behavioral
    /// reference the linked list is checked against.
    struct DequeLru {
        order: std::collections::VecDeque<(u64, Vpn)>,
        members: HashMap<Vpn, u64>,
        next_seq: u64,
    }

    impl DequeLru {
        fn new() -> Self {
            DequeLru {
                order: std::collections::VecDeque::new(),
                members: HashMap::new(),
                next_seq: 0,
            }
        }

        fn insert(&mut self, vpn: Vpn) -> bool {
            if self.members.contains_key(&vpn) {
                return false;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.members.insert(vpn, seq);
            self.order.push_back((seq, vpn));
            true
        }

        fn remove(&mut self, vpn: Vpn) -> bool {
            self.members.remove(&vpn).is_some()
        }

        fn rotate_to_tail(&mut self, vpn: Vpn) -> bool {
            if !self.members.contains_key(&vpn) {
                return false;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.members.insert(vpn, seq);
            self.order.push_back((seq, vpn));
            true
        }

        fn pop_victim(&mut self) -> Option<Vpn> {
            while let Some((seq, vpn)) = self.order.pop_front() {
                if self.members.get(&vpn) == Some(&seq) {
                    self.members.remove(&vpn);
                    return Some(vpn);
                }
            }
            None
        }

        fn peek_head(&self, n: usize) -> Vec<Vpn> {
            self.order
                .iter()
                .filter(|(seq, vpn)| self.members.get(vpn) == Some(seq))
                .take(n)
                .map(|&(_, vpn)| vpn)
                .collect()
        }

        fn contains(&self, vpn: Vpn) -> bool {
            self.members.contains_key(&vpn)
        }
    }

    #[test]
    fn slab_list_matches_the_deque_implementation() {
        // Randomized insert / remove / rotate / refault traffic against
        // the old deque implementation: victim order, peek order, and
        // membership answers must be identical.
        fluidmem_sim::prop::forall("lru-slab-vs-deque", 4, |rng| {
            let mut list = LruBuffer::new(16);
            let mut deque = DequeLru::new();
            for _ in 0..2_000 {
                let page = v(rng.gen_index(64));
                match rng.gen_index(6) {
                    0 | 1 => assert_eq!(list.insert(page), deque.insert(page)),
                    2 => assert_eq!(list.remove(page), deque.remove(page)),
                    3 => assert_eq!(list.rotate_to_tail(page), deque.rotate_to_tail(page)),
                    4 => {
                        // Refault: evict to the store, fault straight back.
                        let sv = list.pop_victim();
                        assert_eq!(sv, deque.pop_victim());
                        if let Some(victim) = sv {
                            assert!(list.insert(victim));
                            assert!(deque.insert(victim));
                        }
                    }
                    _ => {
                        let n = rng.gen_index(8) as usize;
                        assert_eq!(peek_head(&list, n), deque.peek_head(n));
                    }
                }
                assert_eq!(list.contains(page), deque.contains(page));
                assert_eq!(list.len(), deque.members.len() as u64);
            }
            loop {
                let sv = list.pop_victim();
                assert_eq!(sv, deque.pop_victim());
                if sv.is_none() {
                    break;
                }
            }
        });
    }

    #[test]
    fn near_zero_capacity_supported() {
        // Table III shrinks a VM to single-digit pages; the buffer must
        // behave at capacity 1 and 0.
        let mut lru = LruBuffer::new(1);
        lru.insert(v(1));
        assert!(!lru.over_capacity());
        lru.insert(v(2));
        assert!(lru.over_capacity());
        lru.set_capacity(0);
        while let Some(_p) = lru.pop_victim() {}
        assert!(lru.is_empty());
        assert!(!lru.over_capacity());
    }
}
