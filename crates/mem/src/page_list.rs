//! Ordered lists of pages, linked through the slots of a page array.

use crate::addr::Vpn;
use crate::page_array::PageArray;

/// Link value past either end of a list.
const END: i32 = i32::MIN;
/// A slot whose page is on no list: no page links to itself.
const OFF: i32 = 0;

/// A page's slot under [`PageList`]s: its payload, and its place on a
/// list — how many slots away its neighbours are, or past either end.
/// The default is on no list.
#[derive(Debug, Clone, Copy, Default)]
pub struct Linked<T> {
    prev: i32,
    next: i32,
    /// What the caller keeps for the page.
    pub value: T,
}

impl<T> Linked<T> {
    /// Whether the page is on a list.
    pub fn is_linked(&self) -> bool {
        self.prev != OFF
    }
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
        assert!(link != END, "a page list spans under 2³¹ pages");
        link
    })
}

/// An ordered list of pages, doubly linked through a [`PageArray`].
///
/// The list itself is a head, a tail and a length. Each page's links live
/// in that page's [`Linked`] slot of the caller's array, next to the
/// caller's payload, as slot offsets to its neighbours: pushing at the
/// tail, popping the head and removing any page are O(1) array steps
/// with no hash. Several lists can share one array; a page is on at most
/// one of them, and which one is the caller's to know.
#[derive(Debug, Default)]
pub struct PageList {
    head: Option<Vpn>,
    tail: Option<Vpn>,
    len: u64,
}

impl PageList {
    /// Pages on the list.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the list holds no page.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Links `vpn` at the tail if it is on no list of `slots`. Returns
    /// whether it was linked.
    pub fn push_back<T: Default>(&mut self, slots: &mut PageArray<Linked<T>>, vpn: Vpn) -> bool {
        let tail = self.tail;
        let slot = slots.slot_mut(vpn);
        if slot.is_linked() {
            return false;
        }
        (slot.prev, slot.next) = (link(vpn, tail), END);
        match tail {
            None => self.head = Some(vpn),
            Some(t) => slots[t].next = link(t, Some(vpn)),
        }
        self.tail = Some(vpn);
        self.len += 1;
        true
    }

    /// Unlinks `vpn` from this list, the one it must be on if it is on
    /// any list of `slots`. Returns whether it was on one.
    pub fn remove<T>(&mut self, slots: &mut PageArray<Linked<T>>, vpn: Vpn) -> bool {
        let Some(slot) = slots.get_mut(vpn).filter(|slot| slot.is_linked()) else {
            return false;
        };
        let (prev, next) = (step(vpn, slot.prev), step(vpn, slot.next));
        (slot.prev, slot.next) = (OFF, OFF);
        match prev {
            None => self.head = next,
            Some(p) => slots[p].next = link(p, next),
        }
        match next {
            None => self.tail = prev,
            Some(n) => slots[n].prev = link(n, prev),
        }
        self.len -= 1;
        true
    }

    /// Unlinks and returns the head.
    pub fn pop_front<T>(&mut self, slots: &mut PageArray<Linked<T>>) -> Option<Vpn> {
        let vpn = self.head?;
        self.remove(slots, vpn);
        Some(vpn)
    }

    /// The pages from head to tail.
    pub fn iter<'a, T>(&self, slots: &'a PageArray<Linked<T>>) -> impl Iterator<Item = Vpn> + 'a {
        std::iter::successors(self.head, |&vpn| step(vpn, slots[vpn].next))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    #[derive(Debug, Clone)]
    enum Op {
        Push(usize, u64),
        Remove(usize, u64),
        Pop(usize),
        Walk(usize),
        Contains(u64),
    }

    /// Replays `ops` on two lists over one array and on two `VecDeque`s,
    /// comparing every answer and, after each op, both lengths.
    fn replay(ops: &[Op]) -> Result<(), String> {
        let mut slots: PageArray<Linked<()>> = PageArray::default();
        let mut lists = [PageList::default(), PageList::default()];
        let mut model = [VecDeque::new(), VecDeque::new()];
        let on = |model: &[VecDeque<u64>; 2], page| model.iter().position(|m| m.contains(&page));
        for (step, op) in ops.iter().enumerate() {
            let (got, want) = match *op {
                // A page joins a list only from none.
                Op::Push(l, page) => {
                    let pushed = lists[l].push_back(&mut slots, Vpn::new(page));
                    let free = on(&model, page).is_none();
                    if free {
                        model[l].push_back(page);
                    }
                    (vec![u64::from(pushed)], vec![u64::from(free)])
                }
                // Removing from a list a page the other holds is misuse.
                Op::Remove(l, page) if on(&model, page) != Some(1 - l) => {
                    let removed = lists[l].remove(&mut slots, Vpn::new(page));
                    let position = model[l].iter().position(|&p| p == page);
                    if let Some(i) = position {
                        model[l].remove(i);
                    }
                    (
                        vec![u64::from(removed)],
                        vec![u64::from(position.is_some())],
                    )
                }
                Op::Pop(l) => {
                    let popped = lists[l].pop_front(&mut slots).map(Vpn::raw);
                    (
                        popped.into_iter().collect(),
                        model[l].pop_front().into_iter().collect(),
                    )
                }
                Op::Walk(l) => {
                    let walked = lists[l].iter(&slots).map(Vpn::raw).collect();
                    (walked, model[l].iter().copied().collect())
                }
                Op::Contains(page) => {
                    let linked = slots.get(Vpn::new(page)).is_some_and(Linked::is_linked);
                    (
                        vec![u64::from(linked)],
                        vec![u64::from(on(&model, page).is_some())],
                    )
                }
                Op::Remove(..) => continue,
            };
            if got != want {
                return Err(format!("step {step} {op:?}: list {got:?}, model {want:?}"));
            }
            for l in 0..2 {
                if lists[l].len() != model[l].len() as u64 {
                    return Err(format!(
                        "step {step} {op:?}: list {l} len {}",
                        lists[l].len()
                    ));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn two_lists_on_one_array_match_two_deques() {
        fluidmem_sim::prop::forall_sequences(
            "page-list-vs-deque",
            64,
            |rng| {
                // Pages either side of a multiple of 4096, so links run
                // both ways across the array's growth below its base.
                fluidmem_sim::prop::vec_of(rng, 1, 300, |r| {
                    let page = 0xF_FF0 + r.gen_index(32);
                    let l = r.gen_index(2) as usize;
                    match r.gen_index(10) {
                        0..=3 => Op::Push(l, page),
                        4..=5 => Op::Remove(l, page),
                        6 => Op::Pop(l),
                        7 => Op::Walk(l),
                        _ => Op::Contains(page),
                    }
                })
            },
            replay,
        );
    }
}
